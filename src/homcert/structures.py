"""Scalar null-homotopy structures on bounded free complexes.

A structure fixes, for each generator g with scalar s_g, a degree +1
operator e_g satisfying d e_g + e_g d = s_g * id in every degree.  The
generators are independent: no relation between the e_g is imposed or
assumed.  An operator out of the top degree lands in the zero module, so
only degrees strictly below the top carry data.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Optional, Sequence

from .complexes import (
    ChainMap, GradedFreeComplex, boundary_map, homology_invariants,
    inverse_defect, solve_homotopy, split_defect, validate_complex,
)
from .exactalg import Matrix, ModularRing


@dataclass(frozen=True)
class HomotopyStructure:
    """A complex together with one null-homotopy operator per generator.

    ``ops[g][j]`` maps degree ``min_degree + j`` to ``min_degree + j + 1``
    (shape ranks[j+1] x ranks[j]); each generator grid has
    ``len(ranks) - 1`` matrices.
    """

    complex: GradedFreeComplex
    scalars: tuple
    ops: tuple

    def __post_init__(self):
        x = self.complex
        if len(self.scalars) != len(self.ops):
            raise ValueError("one scalar per operator grid")
        object.__setattr__(self, "scalars",
                           tuple(x.ring.normalize(s) for s in self.scalars))
        want = max(len(x.ranks) - 1, 0)
        for g, grid in enumerate(self.ops):
            if len(grid) != want:
                raise ValueError(f"generator {g}: expected {want} operator matrices")
            for j, e in enumerate(grid):
                if e.ring != x.ring:
                    raise ValueError(f"generator {g}: ring mismatch in degree slot {j}")
                if (e.rows, e.cols) != (x.ranks[j + 1], x.ranks[j]):
                    raise ValueError(
                        f"generator {g}: operator out of degree {x.min_degree + j} "
                        f"has shape {e.rows}x{e.cols}, expected "
                        f"{x.ranks[j + 1]}x{x.ranks[j]}")

    @property
    def ngens(self) -> int:
        return len(self.scalars)

    def op(self, g: int, i: int) -> Matrix:
        """Operator of generator ``g`` out of degree ``i`` (zero off window)."""
        x = self.complex
        j = i - x.min_degree
        if 0 <= j < len(self.ops[g]):
            return self.ops[g][j]
        return Matrix.zeros(x.ring, x.rank(i + 1), x.rank(i))

    def op_map(self, g: int) -> ChainMap:
        """The full operator of generator ``g`` as a degree +1 map."""
        x = self.complex
        mats = tuple(self.op(g, i) for i in x.degrees())
        return ChainMap(x, x, 1, mats)


def check_structure(m: HomotopyStructure, check_complex: bool = True) -> list[str]:
    """Report every violated axiom; an empty list means the structure is valid."""
    problems = []
    x = m.complex
    if check_complex:
        problems.extend(validate_complex(x, allow_negative=True))
    for g in range(m.ngens):
        s = m.scalars[g]
        for i in x.degrees():
            lhs = x.diff(i + 1) * m.op(g, i) + m.op(g, i - 1) * x.diff(i)
            if lhs != Matrix.scalar(x.ring, x.rank(i), s):
                problems.append(
                    f"generator {g}: d e + e d != {s} * id in degree {i}")
    return problems


def restrict(m: HomotopyStructure, factors: Sequence) -> HomotopyStructure:
    """Scale each generator: operator f_g * e_g has scalar f_g * s_g.

    This is the structure transport along a change of scalars; the
    underlying complex is untouched.
    """
    ring = m.complex.ring
    fs = tuple(ring.normalize(f) for f in factors)
    if len(fs) != m.ngens:
        raise ValueError("one factor per generator")
    return HomotopyStructure(
        m.complex,
        tuple(ring.mul(f, s) for f, s in zip(fs, m.scalars)),
        tuple(tuple(e.scale(f) for e in grid) for f, grid in zip(fs, m.ops)))


def structure_from_contraction(x: GradedFreeComplex, h: ChainMap,
                               scalars: Sequence) -> HomotopyStructure:
    """Turn a contraction d h + h d = id into the structure with e_g = s_g h."""
    ring = x.ring
    grids = []
    for s in scalars:
        c = ring.normalize(s)
        grids.append(tuple(h.mat(i).scale(c) for i in list(x.degrees())[:-1]))
    return HomotopyStructure(x, tuple(scalars), tuple(grids))


def equivariance_defect(f: ChainMap, mx: HomotopyStructure,
                        my: HomotopyStructure) -> Optional[tuple]:
    """The first (generator, degree) where f e_X != e_Y f, or None when the
    chain map intertwines every generator's operator.  The structures must
    have the same number of generators."""
    if f.shift != 0:
        raise ValueError("equivariance is only defined for degree 0 maps")
    if f.source != mx.complex or f.target != my.complex:
        raise ValueError("structures must live on the map's source and target")
    if mx.ngens != my.ngens:
        raise ValueError("structures have different generator counts")
    lo = min(f.source.min_degree, f.target.min_degree)
    hi = max(f.source.top_degree, f.target.top_degree)
    for g in range(mx.ngens):
        for i in range(lo, hi + 1):
            if f.mat(i + 1) * mx.op(g, i) != my.op(g, i) * f.mat(i):
                return g, i
    return None


def is_equivariant(f: ChainMap, mx: HomotopyStructure, my: HomotopyStructure) -> bool:
    """True when the chain map intertwines every generator's operator."""
    return mx.ngens == my.ngens and equivariance_defect(f, mx, my) is None


# -- relation checks: the certificate kernel and every construction's
# self-check run these; each returns None, or the first failure named with
# its check and degree.


def _connects(arrows) -> bool:
    """Every (map, source, target) is a degree 0 map between the objects' complexes."""
    return all(f.shift == 0 and f.source == a.complex and f.target == b.complex
               for f, a, b in arrows)


def _prefixed(prefix: str, why: Optional[str]) -> Optional[str]:
    return why and prefix + why


def _not_chain(label: str, f: ChainMap) -> Optional[str]:
    i = f.chain_defect()
    return None if i is None else f"{label} is not a chain map in degree {i}"


def _not_equivariant(label: str, f: ChainMap, mx, my) -> Optional[str]:
    bad = equivariance_defect(f, mx, my)
    return None if bad is None else \
        f"{label} is not equivariant for generator {bad[0]} in degree {bad[1]}"


def map_defect(label: str, f: ChainMap, mx, my) -> Optional[str]:
    """Why ``f`` is not an equivariant chain map from ``mx`` to ``my``."""
    return _not_chain(label, f) or _not_equivariant(label, f, mx, my)


@dataclass(frozen=True)
class Row:
    """A row sub >--> total -->> quotient of structures, with its splitting.

    ``section`` (quotient -> total) and ``retraction`` (total -> sub) split
    the row in every degree; they need not be chain maps.  ``defect`` says
    why the row is not split exact.
    """

    sub: HomotopyStructure
    total: HomotopyStructure
    quotient: HomotopyStructure
    include: ChainMap
    project: ChainMap
    section: ChainMap
    retraction: ChainMap

    @property
    def maps(self) -> tuple:
        """``(include, project, section, retraction)``."""
        return self.include, self.project, self.section, self.retraction

    def defect(self) -> Optional[str]:
        """Why this is not a split exact row of equivariant chain maps."""
        i, p, s, r = self.maps
        sub, total, quot = self.sub, self.total, self.quotient
        if not _connects(((i, sub, total), (p, total, quot), (s, quot, total), (r, total, sub))):
            return "row arrows do not connect the named objects"
        return (_not_chain("row inclusion", i) or _not_chain("row projection", p)
                or _prefixed("row is not split exact: ", split_defect(i, p, s, r))
                or _not_equivariant("row inclusion", i, sub, total)
                or _not_equivariant("row projection", p, total, quot))


def iso_defect(f: ChainMap, g: ChainMap, source, target) -> Optional[str]:
    """Why ``f`` is not an equivariant isomorphism with inverse ``g``."""
    if not _connects(((f, source, target), (g, target, source))):
        return "isomorphism does not connect the named objects"
    return (_not_chain("isomorphism", f)
            or _prefixed("isomorphism is not invertible: ", inverse_defect(f, g))
            or _not_equivariant("isomorphism", f, source, target))


@dataclass(frozen=True)
class StructureSearch:
    """Outcome of a per-generator least-exponent search.

    ``exponents[g]`` is the least k with d e + e d = t_g^k * id solvable,
    or None when there is no such k; ``obstructed[g]`` marks generators
    ruled out for every exponent by nonzero free homology.
    """

    structure: Optional[HomotopyStructure]
    exponents: tuple
    obstructed: tuple


def _least_power(x: GradedFreeComplex, t, b: int, composite: bool):
    """(k, t^k, e) for the least k with d e + e d = t^k * id, or None.

    Once gcd(t^k, b) stops growing, solvability cannot change.  Over Z and
    fields only the k with b | t^k is solved; over composite Z/m each k is.
    """
    power, reached = x.ring.one(), 0
    for k in itertools.count(1):
        power = x.ring.mul(power, t)
        g = math.gcd(int(power), b)  # b = 1 over fields
        if g == reached:
            return None
        reached = g
        if composite or g == b:
            e = solve_homotopy(x, power)
            if e is not None:
                return k, power, e
            if not composite:
                raise AssertionError(f"no null-homotopy of {power} * id, "
                                     "although it kills homology")


def find_structure(x: GradedFreeComplex, gens: Sequence,
                   rng: Optional[random.Random] = None) -> StructureSearch:
    """Search, per generator, for the least exponent of a null-homotopy.

    Every verdict is exact: None means that no power of the generator
    works.  With an ``rng`` each operator e becomes e + d sigma - sigma d,
    for one random degree +2 operator sigma per call, exhibiting different
    operator lifts for the same exponent.
    """
    problems = validate_complex(x, allow_negative=True)
    if problems:
        raise ValueError("not a complex: " + problems[0])
    ring = x.ring
    # Over Z and fields c * id is null-homotopic exactly when b | c and
    # (c = 0 or no homology is free), b the lcm of the torsion coefficients.
    # Over composite Z/m it depends only on gcd(c, b = m).
    composite = isinstance(ring, ModularRing) and not ring.is_field
    if composite:
        b, free = ring.modulus, False
    else:
        hom = homology_invariants(x).values()
        b, free = math.lcm(1, *(a for h in hom for a in h.torsion)), any(h.free_rank for h in hom)
    twist = None
    if rng is not None:
        sigma = ChainMap(x, x, 2, tuple(
            Matrix.build(ring, x.rank(i + 2), x.rank(i), lambda r, c: rng.randint(-2, 2))
            for i in x.degrees()))
        d = boundary_map(x)
        twist = d.compose(sigma) + sigma.compose(d).scale(-1)
    exponents, obstructed, powers, grids = [], [], [], []
    for t in map(ring.normalize, gens):
        obstructed.append(free and not ring.is_zero(t))
        hit = None if obstructed[-1] else _least_power(x, t, b, composite)
        if hit is None:
            exponents.append(None)
            continue
        k, power, e = hit
        e = e if twist is None else e + twist
        exponents.append(k)
        powers.append(power)
        grids.append(tuple(e.mat(i) for i in list(x.degrees())[:-1]))
    if None in exponents:
        return StructureSearch(None, tuple(exponents), tuple(obstructed))
    structure = HomotopyStructure(x, tuple(powers), tuple(grids))
    problems = check_structure(structure, check_complex=False)
    if problems:
        raise AssertionError("search output failed its own check: " + problems[0])
    return StructureSearch(structure, tuple(exponents), tuple(obstructed))
