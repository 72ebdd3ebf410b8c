"""Seeded generators for structures, split rows and certificate mutations.

Everything here is driven by a caller-supplied ``random.Random`` so demo
output and spot checks are reproducible.  The mutation operators are chosen
so that each one provably breaks the mutated certificate: they change the
claimed combination, remove or negate contributing evidence, or damage an
object or an isomorphism in a way the checker must notice.
"""

from __future__ import annotations

import dataclasses

from .complexes import ChainMap, GradedFreeComplex, identity_map
from .constructions import (
    cone_mixed, direct_sum, disk, identity_cone_contraction, mapping_cone,
    module_tensor, suspend,
)
from .exactalg import Matrix, ZZ
from .koszul import koszul
from .certificates import (
    Certificate, ClassExpr, Contractible, ExactRow, Isomorphism,
    SuspensionPair,
)
from .structures import (
    HomotopyStructure, find_structure, restrict, structure_from_contraction,
)


def disk_pile(rng, ring, top, scalars, summands=3):
    """Direct sum of a few disks with the given scalars, topped at ``top``."""
    total = disk(ring, rng.randint(1, 2), top, scalars)
    for _ in range(summands - 1):
        deg = rng.randint(max(1, top - 3), top)
        total = direct_sum(total, disk(ring, rng.randint(1, 2), deg, scalars)).structure
    return total


def offset_cone(rng, ring, top, s, t):
    """Cone over a map of adjacent disks; the product scalar is s * t."""
    r = rng.randint(1, 2)
    a = disk(ring, r, top - 1, (s,))
    b = disk(ring, r, top, (t,))
    mat = Matrix.build(ring, r, r,
                       lambda i, j: ring.from_int(rng.randint(-2, 2)))
    arrow = ChainMap(a.complex, b.complex, 0, (Matrix.zeros(ring, 0, r), mat))
    return cone_mixed(arrow, a, b).structure


def contractible_structure(rng, ring, top, scalars):
    """Operators s_g . h on the cone of an identity map."""
    base = disk_pile(rng, ring, top - 1, tuple(ring.one() for _ in scalars),
                     summands=2).complex
    cone, _, _ = mapping_cone(identity_map(base))
    h = identity_cone_contraction(base)
    return structure_from_contraction(cone, h, scalars)


def random_structure(rng, ring, top, scalars):
    """A structure with the given scalars supported up to degree ``top``."""
    d = len(scalars)
    kinds = [0, 1, 3]
    if top >= d:
        kinds.append(2)
    kind = rng.choice(kinds)
    if kind == 0:
        return disk_pile(rng, ring, top, scalars)
    if kind == 1:
        return contractible_structure(rng, ring, top, scalars)
    if kind == 2:
        shifted = suspend(koszul(ring, scalars), top - d)
        if rng.random() < 0.5:
            shifted = module_tensor(rng.randint(1, 2), shifted)
        return shifted
    pile = disk_pile(rng, ring, top, scalars, summands=2)
    ones = tuple(ring.one() for _ in scalars)
    return restrict(pile, ones)


def split_row(rng, ring, sub, quot):
    """A split exact row with the given end structures, randomly twisted.

    Presents the direct sum of the two underlying complexes, composed with
    the shear automorphism [[id, 0], [v, id]] where v = d sigma + sigma d
    for a random degree +1 block sigma, so the arrows are not the plain
    block inclusions.  Returns ``(include, project)``.
    """
    a, c = sub.complex, quot.complex
    lo = min(a.min_degree, c.min_degree)
    hi = max(a.top_degree, c.top_degree)
    ranks = tuple(a.rank(i) + c.rank(i) for i in range(lo, hi + 1))
    diffs = tuple(
        Matrix.block([
            [a.diff(i), Matrix.zeros(ring, a.rank(i - 1), c.rank(i))],
            [Matrix.zeros(ring, c.rank(i - 1), a.rank(i)), c.diff(i)]])
        for i in range(lo + 1, hi + 1))
    total = GradedFreeComplex(ring, lo, ranks, diffs)
    sigma = {i: Matrix.build(ring, c.rank(i + 1), a.rank(i),
                             lambda r, s: ring.from_int(rng.randint(-1, 1)))
             for i in range(lo, hi + 1)}

    def sig(i):
        return sigma.get(i, Matrix.zeros(ring, c.rank(i + 1), a.rank(i)))

    def twist(i):
        return c.diff(i + 1) * sig(i) + sig(i - 1) * a.diff(i)

    include = ChainMap(a, total, 0, tuple(
        Matrix.vstack(Matrix.identity(ring, a.rank(i)), twist(i))
        for i in a.degrees()))
    project = ChainMap(total, c, 0, tuple(
        Matrix.hstack(-twist(i), Matrix.identity(ring, c.rank(i)))
        for i in total.degrees()))
    return include, project


def lift_pair_complex(t: int) -> GradedFreeComplex:
    """A 2-3-1 complex whose degree t operator has a free direction.

    The homology in degree 0 has t-torsion, so the least exponent is one,
    and a degree +2 operator sigma (degree 0 to 2) has two entries that
    e + d sigma - sigma d depends on, so searches with different seeds find
    different operators for the same scalar.
    """
    d1 = Matrix.from_rows(ZZ, [[t, 0, 0], [0, 0, 1]])
    d2 = Matrix.from_rows(ZZ, [[0], [1], [0]])
    return GradedFreeComplex(ZZ, 0, (2, 3, 1), (d1, d2))


def lift_pair(rng, t: int, tries: int = 12):
    """Two structures with the same scalar on the same complex, distinct ops."""
    x = lift_pair_complex(t)
    first = find_structure(x, (t,), rng=rng)
    if first.structure is None:
        raise AssertionError("expected a structure on the pair complex")
    for _ in range(tries):
        second = find_structure(x, (t,), rng=rng)
        if second.structure is not None and second.structure.ops != first.structure.ops:
            return first.structure, second.structure
    raise AssertionError("random lifts kept agreeing; widen the search")


# ---------------------------------------------------------------------------
# Certificate mutations.  Each operator is guaranteed to break the
# certificate, so a sound checker must reject every mutant.


def _mutable_steps(cert):
    return [i for i, s in enumerate(cert.steps)
            if isinstance(s, (ExactRow, Contractible, Isomorphism, SuspensionPair))
            and s.mult != 0]


def _iso_targets(cert):
    picks = []
    for i, s in enumerate(cert.steps):
        if isinstance(s, Isomorphism):
            for j, mat in enumerate(s.iso.mats):
                if mat.rows > 0:
                    picks.append((i, j))
    return picks


def _tamperable_names(cert):
    names = []
    for name, m in cert.registry:
        if any(r > 0 for r in m.complex.ranks):
            names.append(name)
    return names


def mutate_certificate(rng, cert: Certificate):
    """Return ``(mutant, description)``; the mutant is always invalid."""
    moves = ["claim_bump"]
    if cert.claim.terms:
        moves.append("claim_drop")
    if _mutable_steps(cert):
        moves += ["step_drop", "step_negate"]
    if _iso_targets(cert):
        moves.append("iso_break")
    if _tamperable_names(cert):
        moves.append("scalar_shift")
    move = rng.choice(moves)

    if move == "claim_bump":
        pool = [name for name, _ in cert.registry]
        name = rng.choice(sorted(set(pool)))
        claim = ClassExpr.build(list(cert.claim.terms) + [(name, 1)])
        return dataclasses.replace(cert, claim=claim), f"claim bumped at {name}"
    if move == "claim_drop":
        keep = list(cert.claim.terms)
        dropped = keep.pop(rng.randrange(len(keep)))
        return (dataclasses.replace(cert, claim=ClassExpr(tuple(keep))),
                f"claim dropped {dropped[0]}")
    if move == "step_drop":
        idx = rng.choice(_mutable_steps(cert))
        steps = cert.steps[:idx] + cert.steps[idx + 1:]
        return dataclasses.replace(cert, steps=steps), f"step {idx} dropped"
    if move == "step_negate":
        idx = rng.choice(_mutable_steps(cert))
        step = cert.steps[idx]
        step = dataclasses.replace(step, mult=-step.mult)
        steps = cert.steps[:idx] + (step,) + cert.steps[idx + 1:]
        return dataclasses.replace(cert, steps=steps), f"step {idx} negated"
    if move == "iso_break":
        idx, deg = rng.choice(_iso_targets(cert))
        step = cert.steps[idx]
        mat = step.iso.mats[deg]
        ring = mat.ring
        row = rng.randrange(mat.rows)
        wiped = Matrix.build(ring, mat.rows, mat.cols,
                             lambda i, j: ring.zero() if i == row
                             else mat.entry(i, j))
        mats = step.iso.mats[:deg] + (wiped,) + step.iso.mats[deg + 1:]
        iso = ChainMap(step.iso.source, step.iso.target, 0, mats)
        step = dataclasses.replace(step, iso=iso)
        steps = cert.steps[:idx] + (step,) + cert.steps[idx + 1:]
        return dataclasses.replace(cert, steps=steps), f"iso row wiped at step {idx}"
    name = rng.choice(_tamperable_names(cert))
    registry = []
    for reg_name, m in cert.registry:
        if reg_name == name:
            ring = m.complex.ring
            bumped = tuple(ring.add(s, ring.one()) for s in m.scalars)
            m = HomotopyStructure(m.complex, bumped, m.ops)
        registry.append((reg_name, m))
    return (dataclasses.replace(cert, registry=tuple(registry)),
            f"scalars shifted on {name}")


def _witness_matrices(cert):
    """Every (step index, field, degree slot) holding a nonempty witness matrix."""
    picks = []
    for i, s in enumerate(cert.steps):
        arrows = []
        if isinstance(s, ExactRow):
            arrows = [("include", s.include), ("project", s.project)]
        elif isinstance(s, Contractible):
            arrows = [("contraction", s.contraction)]
        elif isinstance(s, Isomorphism):
            arrows = [("iso", s.iso)]
        for field, f in arrows:
            for j, mat in enumerate(f.mats):
                if mat.rows > 0 and mat.cols > 0:
                    picks.append((i, field, j))
    return picks


def corrupt_witness_entry(rng, cert: Certificate):
    """Bump one random entry of one random witness matrix by a nonzero delta.

    Every degree 0 arrow the kernel verifies is rigid entry by entry: a
    change in column r breaks the chain-map check when d's column r is
    nonzero, and otherwise breaks equivariance, because d e + e d = s . id
    with s nonzero forces e's column r to be nonzero there.  Contraction
    witnesses are covered by the d h + h d = id recheck.
    """
    picks = _witness_matrices(cert)
    if not picks:
        raise ValueError("certificate has no witness matrices")
    idx, field, deg = rng.choice(picks)
    step = cert.steps[idx]
    f: ChainMap = getattr(step, field)
    mat = f.mats[deg]
    ring = mat.ring
    r = rng.randrange(mat.rows)
    c = rng.randrange(mat.cols)
    delta = ring.from_int(rng.choice((1, -1, 2)))
    if ring.is_zero(delta):  # 2 over Z/2; replaced after the draw, so the stream stays put
        delta = ring.one()
    bumped = mat.with_entry(r, c, ring.add(mat.entry(r, c), delta))
    mats = f.mats[:deg] + (bumped,) + f.mats[deg + 1:]
    arrow = ChainMap(f.source, f.target, f.shift, mats)
    step = dataclasses.replace(step, **{field: arrow})
    steps = cert.steps[:idx] + (step,) + cert.steps[idx + 1:]
    info = f"step {idx} {field} degree slot {deg} entry ({r},{c})"
    return dataclasses.replace(cert, steps=steps), info
