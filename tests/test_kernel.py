"""The certificate kernel: witness checks in every ring, degree-named
rejections, acceptance that rests on matrix products alone, checked at
run time and from the syntax trees, and accepted Z claims that balance the
per-prime homology lengths."""

import ast
import dataclasses
import importlib.util
import inspect
import random
import re
import sys
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings, strategies as st
from sympy.matrices.normalforms import invariant_factors

from homcert import certificates, complexes, exactalg, kernel
from homcert.certificates import (
    disk_transport_certificate, extension_certificate, fold_defect_certificate,
    fold_row_certificates, peel_chain_certificate, structure_independence_certificate,
    sum_certificate,
)
from homcert.complexes import (
    ChainMap, GradedFreeComplex, check_ses, find_contraction, identity_map,
)
from homcert.constructions import (
    cone_same, disk, glue_extension, identity_cone_contraction, solve_splitting, suspend,
)
from homcert.exactalg import Matrix, QQ, ZZ, Zmod
from homcert.kernel import (
    Certificate, CheckResult, ClassExpr, Contractible, ExactRow, Isomorphism, Slot,
    check_certificate, check_structure, equivariance_defect, map_defect, split_defect,
)
from homcert.randgen import (
    contractible_structure, corrupt_witness_entry, disk_pile, lift_pair,
    mutate_certificate, random_structure, split_row,
)
from homcert.serialize import dumps, loads
from homcert.structures import HomotopyStructure, restrict

P31 = 2 ** 31 - 1
RINGS = [("Z", ZZ), ("Q", QQ), ("Z7", Zmod(7)), ("Zp31", Zmod(P31)),
         ("Z4", Zmod(4)), ("Z12", Zmod(12))]
FIELDS_AND_Z = RINGS[:4]


def glued_row(rng, ring, s, t):
    """A randomly twisted split row with end structures of scalars s and t,
    and the glued structure on its middle (scalar s t)."""
    sub = disk_pile(rng, ring, rng.randint(2, 3), (s,))
    quot = random_structure(rng, ring, rng.randint(2, 3), (t,))
    include, project = split_row(rng, ring, sub, quot)
    return include, project, sub, quot


def row_certificate(rng, ring, s=2, t=3):
    include, project, sub, quot = glued_row(rng, ring, s, t)
    glued = glue_extension(include, project, sub, quot)
    ceiling = max(sub.complex.top_degree, quot.complex.top_degree)
    return extension_certificate(include, project, restrict(sub, (t,)), glued,
                                 restrict(quot, (s,)), ceiling)


def ring_certificates(ring, seed):
    """Valid sum, fold-defect, fold-row, disk-transport and extension
    certificates over ``ring`` (plus the Z-only peel and independence)."""
    rng = random.Random(seed)
    s = rng.choice((2, 3))
    certs = [
        sum_certificate(disk_pile(rng, ring, 3, (s,)), random_structure(rng, ring, 3, (s,)), 3),
        fold_defect_certificate(random_structure(rng, ring, 3, (s,)), 3),
        *fold_row_certificates(disk_pile(rng, ring, 3, (s,)), 3),
        disk_transport_certificate(ring, 2, 3, (s,)),
        row_certificate(rng, ring),
    ]
    if ring == ZZ:
        certs.append(peel_chain_certificate(contractible_structure(rng, ZZ, 3, (s,)), 3))
        certs.append(structure_independence_certificate(*lift_pair(rng, 2), 3))
    return certs


@pytest.mark.parametrize("ring", [r for _, r in RINGS], ids=[n for n, _ in RINGS])
def test_certificates_accepted_in_every_ring(ring):
    for cert in ring_certificates(ring, 3):
        res = check_certificate(cert)
        assert res.accepted, (res.reason, res.step)


def test_composite_sum_certificate_accepted():
    # a split row of two Z/4 disks: homology over Z/4 is unsupported, the
    # splitting identities are not
    z4 = Zmod(4)
    cert = sum_certificate(disk(z4, 1, 2, (2,)), disk(z4, 1, 2, (2,)), 2)
    assert check_certificate(cert).accepted


def test_kernel_only_multiplies(monkeypatch):
    valid, mutants = [], []
    for k, (_, ring) in enumerate(RINGS):
        rng = random.Random(100 + k)
        for cert in ring_certificates(ring, k):
            valid.append(cert)
            mutants.append(corrupt_witness_entry(rng, cert)[0])
            mutants.append(mutate_certificate(rng, cert)[0])

    def forbidden(*args, **kwargs):
        raise AssertionError("the kernel must not eliminate")

    originals = [getattr(exactalg, name)
                 for name in ("smith_normal_form", "_row_reduce", "solve_right", "det",
                                  "SmithSolver")]
    originals.append(complexes.homology_invariants)
    patched = 0
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "homcert" or mod_name.startswith("homcert."):
            for attr, value in list(vars(mod).items()):
                if any(value is f for f in originals):
                    monkeypatch.setattr(mod, attr, forbidden)
                    patched += 1
    assert patched >= 8
    for cert in valid:
        res = check_certificate(cert)
        assert res.accepted, (res.reason, res.step)
    for cert in mutants:
        assert not check_certificate(cert).accepted


# -- soundness of the witness check against homology ------------------------


def scaled(f: ChainMap, c) -> ChainMap:
    return ChainMap(f.source, f.target, 0, tuple(m.scale(c) for m in f.mats))


def drop_top_generator(f: ChainMap) -> ChainMap:
    """Restrict f to the sub complex without the last generator of the
    source's top degree: still a chain map, and the row is no longer exact."""
    a = f.source
    ranks = a.ranks[:-1] + (a.ranks[-1] - 1,)

    def drop(m):
        return Matrix.from_ints(m.ring, m.rows, m.cols - 1, tuple(row[:-1] for row in m.ints), m.den)
    diffs = a.diffs[:-1] + tuple(drop(d) for d in a.diffs[-1:])
    sub = GradedFreeComplex(a.ring, a.min_degree, ranks, diffs)
    return ChainMap(sub, f.target, 0, f.mats[:-1] + (drop(f.mats[-1]),))


def has_splitting(include, project) -> bool:
    try:
        solve_splitting(include, project)
    except ValueError:
        return False
    return True


NON_UNITS = {"Z": (2, 3), "Q": (0,), "Z7": (0,), "Zp31": (0,), "Z4": (2,), "Z12": (2, 3, 4, 6)}


@settings(max_examples=60, deadline=None)
@given(ring_at=st.integers(0, len(RINGS) - 1), seed=st.integers(0, 10 ** 6),
       data=st.data())
def test_witness_check_matches_homology(ring_at, seed, data):
    name, ring = RINGS[ring_at]
    rng = random.Random(seed)
    include, project, _, _ = glued_row(rng, ring, 2, 3)
    section, retraction = solve_splitting(include, project)
    assert split_defect(include, project, section, retraction) is None
    c = data.draw(st.sampled_from(NON_UNITS[name]))
    bad = scaled(include, ring.from_int(c))
    # the given witnesses no longer split the row, in every ring
    assert split_defect(bad, project, section, retraction) is not None
    if ring in (r for _, r in FIELDS_AND_Z):
        assert check_ses(include, project) == []
        for row in ((bad, project), (drop_top_generator(include), project)):
            assert (check_ses(*row) == []) == has_splitting(*row)


# -- per-prime homology lengths balance every accepted Z claim ------------------


PRIMES = (2, 3, 5)


def chi_p(m: HomotopyStructure) -> tuple:
    """(chi_p for p in PRIMES), chi_p = sum_i (-1)^i length_p(H_i), from
    sympy's invariant factors; the nonzero scalar makes H finite, so
    H_i is the sum of Z/a over the nonzero invariant factors a of d_{i+1}."""
    x = m.complex
    factors = [[int(a) for a in invariant_factors(sympy.Matrix(d.entries)) if a]
               if d.rows and d.cols else [] for d in x.diffs] + [[]]
    for j, n in enumerate(x.ranks):
        assert n == len(factors[j]) + (len(factors[j - 1]) if j else 0), "H is not finite"
    return tuple(sum((-1) ** (x.min_degree + j) * sum(sympy.multiplicity(p, a) for a in f)
                     for j, f in enumerate(factors)) for p in PRIMES)


def chi_balance(claim: ClassExpr, chi: dict) -> tuple:
    return tuple(sum(n * chi[name][k] for name, n in claim.terms) for k in range(len(PRIMES)))


@pytest.mark.parametrize("seed", [3, 5, 8])
def test_accepted_z_claims_balance_per_prime_lengths(seed):
    moved = 0
    for cert in ring_certificates(ZZ, seed):
        assert check_certificate(cert).accepted
        chi = {name: chi_p(m) for name, m in cert.registry}
        assert chi_balance(cert.claim, chi) == (0, 0, 0)
        name = next((name for name, c in chi.items() if any(c)), None)
        if name is None:
            continue
        claim = ClassExpr.build(cert.claim.terms + ((name, 1),))
        assert chi_balance(claim, chi) != (0, 0, 0)
        assert not check_certificate(dataclasses.replace(cert, claim=claim)).accepted
        moved += 1
    assert moved


# -- fold defects: a suspension is a cone row and a contraction ------------------


@pytest.mark.parametrize("ring", [ZZ, QQ, Zmod(7), Zmod(12)], ids=["Z", "Q", "Z7", "Z12"])
def test_fold_defect_cone_rows_in_every_ring(ring):
    for seed in range(3):
        cert = fold_defect_certificate(random_structure(random.Random(seed), ring, 5, (2,)), 5)
        cones = [step for step in cert.steps if isinstance(step, ExactRow)
                 and step.total.startswith("cone_up_")]
        assert len(cones) == 3
        res = check_certificate(cert)
        assert res.accepted, (res.reason, res.step)
        assert loads(dumps(cert)) == cert
        # the claim the suspension pairs gave: [base] - [fold] - [block_up_0] = 0
        assert cert.claim.terms == (("base", 1), ("block_up_0", -1), ("fold", -1))
        mutant, where = corrupt_witness_entry(random.Random(seed), cert)
        assert not check_certificate(mutant).accepted, where
        if ring == ZZ:
            chi = {name: chi_p(m) for name, m in cert.registry}
            assert chi_balance(cert.claim, chi) == (0, 0, 0)


# -- extension certificates ----------------------------------------------------


@pytest.mark.parametrize("ring", [ZZ, QQ, Zmod(12)], ids=["Z", "Q", "Z12"])
def test_extension_certificate_accepted(ring):
    rng = random.Random(21)
    for _ in range(4):
        cert = row_certificate(rng, ring, rng.choice((2, 3)), rng.choice((2, 3)))
        res = check_certificate(cert)
        assert res.accepted, (res.reason, res.step)


def test_extension_certificate_needs_a_split_row():
    rng = random.Random(22)
    include, project, sub, quot = glued_row(rng, ZZ, 2, 3)
    glued = glue_extension(include, project, sub, quot)
    with pytest.raises(ValueError, match=r"in degree -?\d+"):
        extension_certificate(scaled(include, 2), project, restrict(sub, (3,)), glued,
                              restrict(quot, (2,)), 3)


# -- degree-named rejections ---------------------------------------------------


def with_entry_bumped(f: ChainMap, slot: int, r: int, c: int) -> ChainMap:
    m = f.mats[slot]
    bumped = m.with_entry(r, c, m.ring.add(m.entry(r, c), 1))
    return ChainMap(f.source, f.target, f.shift, f.mats[:slot] + (bumped,) + f.mats[slot + 1:])


def two_disk_sum():
    return sum_certificate(disk(ZZ, 1, 2, (2,)), disk(ZZ, 1, 2, (2,)), 2)


def bad_row_inclusion_chain():
    cert = two_disk_sum()
    (row,) = cert.steps
    return cert, ExactRow(row.sub, row.total, row.quotient,
                          with_entry_bumped(row.include, 0, 1, 0), row.project,
                          row.section, row.retraction)


def bad_row_projection_chain():
    cert = two_disk_sum()
    (row,) = cert.steps
    return cert, ExactRow(row.sub, row.total, row.quotient, row.include,
                          with_entry_bumped(row.project, 1, 0, 0),
                          row.section, row.retraction)


def bad_row_split():
    cert = two_disk_sum()
    (row,) = cert.steps
    return cert, ExactRow(row.sub, row.total, row.quotient, row.include, row.project,
                          with_entry_bumped(row.section, 0, 0, 0), row.retraction)


def bad_row_equivariance():
    # the same row, with another structure on the sub: not intertwined
    m1, m2 = lift_pair(random.Random(10), 2)
    cert = sum_certificate(m1, m1, 3)
    registry = (("left", m2),) + cert.registry[1:]
    return Certificate(cert.slot, registry, cert.steps, cert.claim), cert.steps[0]


def bad_row_projection_equivariance():
    m1, m2 = lift_pair(random.Random(10), 2)
    cert = sum_certificate(m1, m1, 3)
    registry = cert.registry[:1] + (("right", m2),) + cert.registry[2:]
    return Certificate(cert.slot, registry, cert.steps, cert.claim), cert.steps[0]


def bad_contraction():
    m = contractible_structure(random.Random(5), ZZ, 3, (6,))
    h = find_contraction(m.complex)
    cert = Certificate(Slot(m.scalars, 3), (("thing", m),), (), ClassExpr.build([]))
    return cert, Contractible("thing", with_entry_bumped(h, 0, 0, 0))


def iso_certificate(ma, mb, ceiling):
    return Certificate(Slot(ma.scalars, ceiling), (("a", ma), ("b", mb)), (),
                       ClassExpr.build([]))


def bad_iso_chain():
    m = disk(ZZ, 2, 2, (2,))
    swap = Matrix.from_rows(ZZ, [[0, 1], [1, 0]])
    f = ChainMap(m.complex, m.complex, 0, (swap, Matrix.identity(ZZ, 2)))
    return iso_certificate(m, m, 2), Isomorphism("a", "b", f, f.transpose())


def bad_iso_inverse():
    m = disk(ZZ, 2, 2, (2,))
    ident = identity_map(m.complex)
    return iso_certificate(m, m, 2), Isomorphism("a", "b", ident.scale(2), ident)


def bad_iso_equivariance():
    m1, m2 = lift_pair(random.Random(10), 2)
    ident = identity_map(m1.complex)
    return iso_certificate(m1, m2, 3), Isomorphism("a", "b", ident, ident)


@pytest.mark.parametrize("build, reason", [
    (bad_row_inclusion_chain, r"row inclusion is not a chain map in degree -?\d+"),
    (bad_row_projection_chain, r"row projection is not a chain map in degree -?\d+"),
    (bad_row_split, r"row is not split exact: (r·i|p·s|i·r \+ s·p) ≠ id in degree -?\d+"),
    (bad_row_equivariance,
     r"row inclusion is not equivariant for generator 0 in degree -?\d+"),
    (bad_row_projection_equivariance,
     r"row projection is not equivariant for generator 0 in degree -?\d+"),
    (bad_contraction, r"contraction identity fails in degree -?\d+"),
    (bad_iso_chain, r"isomorphism is not a chain map in degree -?\d+"),
    (bad_iso_inverse, r"isomorphism is not invertible: (f·g|g·f) ≠ id in degree -?\d+"),
    (bad_iso_equivariance, r"isomorphism is not equivariant for generator 0 in degree -?\d+"),
], ids=lambda v: getattr(v, "__name__", ""))
def test_rejection_names_step_check_and_degree(build, reason):
    cert, step = build()
    # a harmless first step, so the failing step is the second one
    name, m = cert.registry[0]
    ident = identity_map(m.complex)
    steps = (Isomorphism(name, name, ident, ident), step)
    res = check_certificate(Certificate(cert.slot, cert.registry, steps, cert.claim))
    assert not res.accepted and res.step == 1
    assert re.fullmatch(reason, res.reason), res.reason


# -- each witness identity is needed -------------------------------------------


def block_map(source, target, mat_at):
    """The degree 0 map with matrix ``mat_at(i)`` in each source degree."""
    return ChainMap(source.complex, target.complex, 0,
                    tuple(mat_at(i) for i in source.complex.degrees()))


def disk_rows(lower, middle, upper, lows=(1, 1, 1)):
    """Disks of ranks lower, middle, upper with bottom degrees ``lows``."""
    return tuple(disk(ZZ, r, low + 1, (2,)) for r, low in zip((lower, middle, upper), lows))


def shifted_identity(n, k, offset=0):
    """The n x k matrix with ones at (i, i + offset)."""
    return Matrix.build(ZZ, n, k, lambda i, j: int(j == i + offset))


def witness_row(lower, middle, upper, lows=(1, 1, 1)):
    """A row of disks whose arrows and witnesses are shifted identities:
    chain maps, equivariant, and split exactly when the ranks add up."""
    a, b, c = disk_rows(lower, middle, upper, lows)
    rank = {name: m.complex.rank for name, m in zip("abc", (a, b, c))}
    row = ExactRow(
        "a", "b", "c",
        block_map(a, b, lambda i: shifted_identity(rank["b"](i), rank["a"](i))),
        block_map(b, c, lambda i: shifted_identity(rank["c"](i), rank["b"](i), rank["a"](i))),
        block_map(c, b, lambda i: shifted_identity(rank["c"](i), rank["b"](i), rank["a"](i))
                  .transpose()),
        block_map(b, a, lambda i: shifted_identity(rank["a"](i), rank["b"](i))))
    ceiling = max(m.complex.top_degree for m in (a, b, c))
    claim = ClassExpr.build([("b", 1), ("a", -1), ("c", -1)])
    return Certificate(Slot((2,), ceiling), (("a", a), ("b", b), ("c", c)), (row,), claim)


@pytest.mark.parametrize("ranks, lows, reason", [
    ((2, 1, 0), (1, 1, 1), "row is not split exact: r·i ≠ id in degree 1"),
    ((0, 1, 2), (1, 1, 1), "row is not split exact: p·s ≠ id in degree 1"),
    ((0, 1, 0), (1, 1, 1), "row is not split exact: i·r + s·p ≠ id in degree 1"),
    ((1, 0, 0), (0, 2, 2), "row is not split exact: r·i ≠ id in degree 0"),
])
def test_each_splitting_identity_is_needed(ranks, lows, reason):
    # each row fails exactly one identity; the last one only below the total's window
    res = check_certificate(witness_row(*ranks, lows))
    assert (res.accepted, res.reason, res.step) == (False, reason, 0)


def test_split_row_of_shifted_identities_accepted():
    res = check_certificate(witness_row(1, 3, 2))
    assert res.accepted, res.reason


def test_one_sided_inverse_rejected():
    a, b, _ = disk_rows(2, 1, 0)
    f = block_map(a, b, lambda i: shifted_identity(1, 2))
    g = block_map(b, a, lambda i: shifted_identity(2, 1))
    cert = Certificate(Slot((2,), 2), (("a", a), ("b", b)), (Isomorphism("a", "b", f, g),),
                       ClassExpr.build([("a", 1), ("b", -1)]))
    res = check_certificate(cert)
    assert (res.accepted, res.reason) == (False, "isomorphism is not invertible: g·f ≠ id in degree 1")


def test_witness_on_the_wrong_objects_rejected():
    cert = sum_certificate(disk(ZZ, 1, 2, (2,)), disk(ZZ, 2, 2, (2,)), 2)
    (row,) = cert.steps
    bad = ExactRow(row.sub, row.total, row.quotient, row.include, row.project,
                   row.retraction, row.section)
    res = check_certificate(Certificate(cert.slot, cert.registry, (bad,), cert.claim))
    assert (res.accepted, res.reason) == (False, "row arrows do not connect the named objects")


# -- every rejection reason, with its step --------------------------------------


def with_registry(cert, registry):
    return Certificate(cert.slot, registry, cert.steps, cert.claim)


def with_slot(cert, scalars, ceiling):
    return Certificate(Slot(scalars, ceiling), cert.registry, cert.steps, cert.claim)


def with_claim(cert, *pairs):
    return Certificate(cert.slot, cert.registry, cert.steps, ClassExpr.build(pairs))


def one_step(registry, step, ceiling, scalars=(2,)):
    return Certificate(Slot(scalars, ceiling), registry, (step,), ClassExpr.build(step.terms))


def suspension_pair(base, shifted, ceiling):
    """[base] + [shifted] = 0 as the row base >--> cone(id) -->> shifted plus
    the cone's contraction; ``shifted`` need not be the cone's quotient."""
    cone = cone_same(identity_map(base.complex), base, base)
    steps = (ExactRow("base", "cone", "up", *cone.maps, mult=-1),
             Contractible("cone", identity_cone_contraction(base.complex)))
    return Certificate(Slot((2,), ceiling), (("base", base), ("cone", cone.total), ("up", shifted)),
                       steps, ClassExpr.build([("base", 1), ("up", 1)]))


def off_axiom_disk():
    # the operator 3 on the identity complex, with the scalar 2
    x = disk(ZZ, 1, 2, (2,)).complex
    return HomotopyStructure(x, (2,), ((Matrix.scalar(ZZ, 1, 3),),))


def other_lift_suspended():
    m1, m2 = lift_pair(random.Random(10), 2)
    return suspension_pair(m1, suspend(m2), 3)


D1, D2 = disk(ZZ, 1, 2, (2,)), disk(ZZ, 2, 2, (2,))
SUM = two_disk_sum()


@pytest.mark.parametrize("build, verdict", [
    (lambda: with_registry(SUM, (("left", D1), ("left", D1))),
     (False, "bad or duplicate name 'left'", None)),
    (lambda: with_registry(SUM, ((1, D1),)), (False, "bad or duplicate name 1", None)),
    (lambda: with_registry(SUM, (("bad", off_axiom_disk()),)),
     (False, "bad: generator 0: d e + e d != 2 * id in degree 1", None)),
    (lambda: with_registry(SUM, (("a", D1), ("b", disk(QQ, 1, 2, (2,))))),
     (False, "registry mixes ground rings", None)),
    (lambda: with_registry(SUM, ()), (False, "empty registry", None)),
    (lambda: Certificate(SUM.slot, SUM.registry, SUM.steps + ("row",), SUM.claim),
     (False, "unknown step kind str", 1)),
    (lambda: one_step((("a", D1),), Contractible("ghost", find_contraction(D1.complex)), 2),
     (False, "contraction references an unregistered name", 0)),
    (lambda: with_slot(SUM, (3,), 2), (False, "scalars do not match the slot", 0)),
    (lambda: with_slot(SUM, (2,), 1), (False, "support leaves the slot window", 0)),
    (lambda: one_step((("a", D1),), Contractible("a", find_contraction(D2.complex)), 2),
     (False, "contraction does not live on the named object", 0)),
    (lambda: one_step((("a", D1), ("b", D2)),
                      Isomorphism("a", "b", identity_map(D1.complex), identity_map(D1.complex)), 2),
     (False, "isomorphism does not connect the named objects", 0)),
    (lambda: suspension_pair(D1, suspend(D1), 3), (True, None, None)),
    # the differential keeps its sign; the degrees do not move; they move by two
    (lambda: suspension_pair(D1, disk(ZZ, 1, 3, (2,)), 3),
     (False, "row arrows do not connect the named objects", 0)),
    (lambda: suspension_pair(D1, D1, 3),
     (False, "row arrows do not connect the named objects", 0)),
    (lambda: suspension_pair(D1, suspend(D1, 2), 4),
     (False, "row arrows do not connect the named objects", 0)),
    # the suspension of another structure on the same complex
    (other_lift_suspended,
     (False, "row projection is not equivariant for generator 0 in degree 1", 0)),
    # the cone spans the supports of both ends, so it leaves the window first
    (lambda: suspension_pair(D1, suspend(D1), 2), (False, "support leaves the slot window", 0)),
    (lambda: with_claim(SUM, *SUM.claim.terms, ("ghost", 1)),
     (False, "claim references unregistered 'ghost'", None)),
    (lambda: with_claim(with_registry(SUM, SUM.registry + (("far", disk(ZZ, 1, 5, (2,))),)),
                        *SUM.claim.terms, ("far", 1)),
     (False, "claim term 'far': support leaves the slot window", None)),
    (lambda: with_claim(SUM, ("sum", 1), ("left", -1)),
     (False, "accumulated relations do not match the claim", None)),
])
def test_every_rejection_reason(build, verdict):
    res = check_certificate(build())
    assert (res.accepted, res.reason, res.step) == verdict


# -- checks that skip degrees agree with checks over every degree ---------------

CHECK_RINGS = [("Z", ZZ), ("Q", QQ), ("Z7", Zmod(7)), ("Z12", Zmod(12))]


def bumped(rng, mats: tuple) -> tuple:
    """``mats`` with one entry of one nonempty matrix moved by 1, if there is one."""
    spots = [j for j, m in enumerate(mats) if m.rows and m.cols]
    if not spots:
        return mats
    j = rng.choice(spots)
    m = mats[j]
    r, c = rng.randrange(m.rows), rng.randrange(m.cols)
    return mats[:j] + (m.with_entry(r, c, m.ring.add(m.entry(r, c), m.ring.one())),) + mats[j + 1:]


def every_degree(*windows) -> range:
    """The hull of the windows with two degrees to spare on each side."""
    return range(min(x.min_degree for x in windows) - 2, max(x.top_degree for x in windows) + 3)


def chain_failures(f: ChainMap) -> list:
    """Every source degree where f is not a chain map, checked one by one."""
    x, y, k = f.source, f.target, f.shift
    sgn = y.ring.from_int(-1 if k % 2 else 1)
    shifted = GradedFreeComplex(y.ring, y.min_degree - k, y.ranks, y.diffs)
    return [i for i in every_degree(x, shifted)
            if y.diff(i + k) * f.mat(i) != (f.mat(i - 1) * x.diff(i)).scale(sgn)]


def equivariance_failures(f: ChainMap, mx, my) -> list:
    return [(g, i) for g in range(mx.ngens) for i in every_degree(f.source, f.target)
            if f.mat(i + 1) * mx.op(g, i) != my.op(g, i) * f.mat(i)]


def structure_failures(m) -> list:
    """Every law that fails, in ``check_structure``'s order."""
    x = m.complex
    return ([f"d_{i} * d_{i + 1} != 0" for i in every_degree(x)
             if not (x.diff(i) * x.diff(i + 1)).is_zero()]
            + [f"generator {g}: d e + e d != {s} * id in degree {i}"
               for g, s in enumerate(m.scalars) for i in every_degree(x)
               if not (x.diff(i + 1) * m.op(g, i) + m.op(g, i - 1) * x.diff(i)).is_scalar(s)])


def perturbed(rng, m: HomotopyStructure) -> HomotopyStructure:
    """``m``, or ``m`` with one differential or operator entry moved."""
    x, ops = m.complex, m.ops
    move = rng.randrange(3)
    if move == 1:
        x = GradedFreeComplex(x.ring, x.min_degree, x.ranks, bumped(rng, x.diffs))
    elif move == 2:
        g = rng.randrange(m.ngens)
        ops = ops[:g] + (bumped(rng, ops[g]),) + ops[g + 1:]
    return HomotopyStructure(x, m.scalars, ops)


@settings(max_examples=60, deadline=None)
@given(ring=st.sampled_from(CHECK_RINGS), seed=st.integers(0, 10 ** 6),
       shift=st.integers(-3, 3), gap=st.sampled_from((0, 0, 1, -2, 40, -40)),
       aligned=st.booleans())
def test_checks_agree_with_a_check_of_every_degree(ring, seed, shift, gap, aligned):
    """``chain_defect``, ``equivariance_defect`` and ``check_structure``,
    which skip empty products, find what a check of every degree finds."""
    _, ring = ring
    rng = random.Random(seed)
    scalars = tuple(ring.from_int(rng.choice((1, 2, 3))) for _ in range(rng.randint(1, 2)))
    mx = perturbed(rng, suspend(random_structure(rng, ring, rng.randint(2, 3), scalars),
                                rng.randint(-4, 2)))
    x = mx.complex
    assert check_structure(mx) == structure_failures(mx)

    # a map of degree ``shift``: identities onto the suspension when aligned,
    # else small random entries onto a structure ``gap`` degrees away
    y = (suspend(mx, shift) if aligned else
         suspend(random_structure(rng, ring, 3, scalars), gap)).complex
    mats = tuple(Matrix.identity(ring, x.rank(i)) if aligned else
                 Matrix.build(ring, y.rank(i + shift), x.rank(i),
                              lambda r, c: ring.from_int(rng.choice((0, 0, 1, -1))))
                 for i in x.degrees())
    f = ChainMap(x, y, shift, bumped(rng, mats) if rng.random() < 0.5 else mats)
    assert f.chain_defect() == next(iter(chain_failures(f)), None)

    # a degree 0 map onto a structure with the same generator count
    my = perturbed(rng, mx) if aligned else suspend(random_structure(rng, ring, 3, scalars), gap)
    mats = tuple(Matrix.identity(ring, x.rank(i)) if aligned else
                 Matrix.build(ring, my.complex.rank(i), x.rank(i),
                              lambda r, c: ring.from_int(rng.choice((0, 1))))
                 for i in x.degrees())
    f = ChainMap(x, my.complex, 0, bumped(rng, mats) if rng.random() < 0.5 else mats)
    chain, equivariance = chain_failures(f), equivariance_failures(f, mx, my)
    assert equivariance_defect(f, mx, my) == next(iter(equivariance), None)
    assert (map_defect("f", f, mx, my) is None) == (not chain and not equivariance)


# -- derived row ends: the verdicts of checking every structure ------------------


def reference_check(cert: Certificate) -> CheckResult:
    """The kernel as it was when the registry pass checked every structure.

    The steps and the claim run through the kernel's own ``_RELATIONS`` and
    ``_support``, with the slot scalars normalized for every object."""
    reg: dict = {}
    ring = None
    for name, m in cert.registry:
        if not isinstance(name, str) or name in reg:
            return CheckResult(False, f"bad or duplicate name {kernel.brief(name)}")
        problems = check_structure(m)
        if problems:
            return CheckResult(False, f"{kernel.brief(name, str)}: {problems[0]}")
        if ring is None:
            ring = m.complex.ring
        elif m.complex.ring != ring:
            return CheckResult(False, "registry mixes ground rings")
        reg[name] = m
    if ring is None:
        return CheckResult(False, "empty registry")

    def fits(m):
        if m.scalars != tuple(ring.normalize(s) for s in cert.slot.scalars):
            return "scalars do not match the slot"
        span = kernel._support(m)
        if span is not None and (span[0] < 0 or span[1] > cert.slot.ceiling):
            return "support leaves the slot window"
        return None

    expr: dict = {}
    for idx, step in enumerate(cert.steps):
        if type(step) not in kernel._RELATIONS:
            return CheckResult(False, f"unknown step kind {type(step).__name__}", idx)
        kind, check = kernel._RELATIONS[type(step)]
        names = [name for name, _ in step.terms]
        if any(name not in reg for name in names):
            return CheckResult(False, f"{kind} references an unregistered name", idx)
        objs = [reg[name] for name in names]
        why = next(filter(None, map(fits, objs)), None) or check(step, *objs)
        if why:
            return CheckResult(False, why, idx)
        for name, coeff in step.terms:
            expr[name] = expr.get(name, 0) + coeff
    for name, coeff in cert.claim.terms:
        if name not in reg:
            return CheckResult(False, f"claim references unregistered {kernel.brief(name)}")
        why = fits(reg[name])
        if why:
            return CheckResult(False, f"claim term {kernel.brief(name)}: {why}")
    got = {name: coeff for name, coeff in expr.items() if coeff}
    if got != cert.claim.as_dict():
        return CheckResult(False, "accumulated relations do not match the claim")
    return CheckResult(True)


def derived_ends(cert) -> set:
    """The names that end some row and are the total of none."""
    rows = [step for step in cert.steps if isinstance(step, ExactRow)]
    return {n for row in rows for n in (row.sub, row.quotient)} - {row.total for row in rows}


def rehomed(step, old, new):
    """``step`` with every arrow from or to the complex ``old`` moved onto ``new``."""
    moved = {}
    for field in dataclasses.fields(step):
        f = getattr(step, field.name)
        if isinstance(f, ChainMap) and old in (f.source, f.target):
            moved[field.name] = ChainMap(new if f.source == old else f.source,
                                         new if f.target == old else f.target, f.shift, f.mats)
    return dataclasses.replace(step, **moved)


def with_row_end_bumped(rng, cert, part):
    """``cert`` with one entry of a row end's operators (``part`` "op") or
    differentials ("diff") moved by 1; the arrows that touch a moved complex
    move with it, so that only the end's laws can catch the change.  None
    when there is no row, or the chosen end has no such entry."""
    ends = sorted({n for s in cert.steps if isinstance(s, ExactRow) for n in (s.sub, s.quotient)})
    if not ends:
        return None
    name = rng.choice(ends)
    m = dict(cert.registry)[name]
    x, ops = m.complex, m.ops
    if part == "op":
        g = rng.randrange(m.ngens)
        ops = ops[:g] + (bumped(rng, ops[g]),) + ops[g + 1:]
        if ops == m.ops:
            return None
        steps = cert.steps
    else:
        x = GradedFreeComplex(x.ring, x.min_degree, x.ranks, bumped(rng, x.diffs))
        if x == m.complex:
            return None
        steps = tuple(rehomed(step, m.complex, x) for step in cert.steps)
    registry = tuple((n, HomotopyStructure(x, m.scalars, ops) if n == name else s)
                     for n, s in cert.registry)
    return Certificate(cert.slot, registry, steps, cert.claim)


@pytest.mark.parametrize("ring", [r for _, r in RINGS], ids=[n for n, _ in RINGS])
def test_derived_ends_keep_every_verdict(ring):
    """Skipping the registry check of derived row ends accepts exactly what
    checking every structure accepts, and rejects for the same reason at the
    same step unless the reference blamed a derived end's structure law;
    such an end is then rejected at a row step.  The cases are the
    ``ring_certificates`` of 20 seeds, each as built, under
    ``mutate_certificate`` and ``corrupt_witness_entry``, and with an entry
    of a row end's operators or differentials moved."""
    blamed = 0
    for seed in range(20):
        rng = random.Random(1000 + seed)
        for cert in ring_certificates(ring, seed):
            cases = [cert, mutate_certificate(rng, cert)[0], corrupt_witness_entry(rng, cert)[0],
                     with_row_end_bumped(rng, cert, "op"), with_row_end_bumped(rng, cert, "diff")]
            for case in filter(None, cases):
                want, got = reference_check(case), check_certificate(case)
                assert got.accepted == want.accepted, (want, got)
                derived = derived_ends(case)
                if want.reason and want.step is None and any(
                        want.reason.startswith(f"{n}: ") for n in derived):
                    blamed += 1
                    assert not got.accepted and got.step is not None, (want, got)
                else:
                    assert (got.reason, got.step) == (want.reason, want.step)
    assert blamed


def identity_row(m):
    """m >--id--> m -->> 0, with its splitting: m is both sub and total."""
    x = m.complex
    zero = HomotopyStructure(GradedFreeComplex(x.ring, 0, (0,), ()), m.scalars,
                             tuple(() for _ in m.scalars))
    into = ChainMap(x, zero.complex, 0, tuple(Matrix.zeros(x.ring, 0, r) for r in x.ranks))
    out = ChainMap(zero.complex, x, 0, (Matrix.zeros(x.ring, x.rank(0), 0),))
    step = ExactRow("a", "a", "zero", identity_map(x), into, out, identity_map(x))
    return one_step((("a", m), ("zero", zero)), step, x.top_degree, m.scalars)


def test_identity_row_still_checks_its_total():
    assert check_certificate(identity_row(D1)).accepted
    res = check_certificate(identity_row(off_axiom_disk()))
    assert (res.accepted, res.reason, res.step) == (
        False, "a: generator 0: d e + e d != 2 * id in degree 1", None)


def test_peel_chain_checks_every_stage(monkeypatch):
    """Each stage of a peel is the quotient of one row and the total of the
    next, so it reaches ``check_structure``; only the disks and the last
    stage are derived."""
    cert = peel_chain_certificate(contractible_structure(random.Random(4), ZZ, 4, (2,)), 4)
    rows = [step for step in cert.steps if isinstance(step, ExactRow)]
    assert len(rows) >= 2
    checked = []
    real = kernel.check_structure
    monkeypatch.setattr(kernel, "check_structure",
                        lambda m, *args, **kwargs: checked.append(m) or real(m, *args, **kwargs))
    assert check_certificate(cert).accepted
    names = [name for name, m in cert.registry if any(m is c for c in checked)]
    assert names == [f"stage_{k}" for k in range(len(rows))]
    assert len(checked) == len(rows)


def off_axiom_right_sum():
    """A valid sum of two disks whose ``right`` end carries the operator 3."""
    return with_registry(SUM, tuple((name, off_axiom_disk() if name == "right" else m)
                                    for name, m in SUM.registry))


def test_off_axiom_row_end_is_rejected_at_its_row():
    assert reference_check(off_axiom_right_sum()).reason == \
        "right: generator 0: d e + e d != 2 * id in degree 1"
    res = check_certificate(off_axiom_right_sum())
    assert (res.accepted, res.reason, res.step) == (
        False, "row projection is not equivariant for generator 0 in degree 1", 0)


# -- the kernel's boundary, from the syntax trees ----------------------------------

SRC = Path(__file__).resolve().parent.parent / "src" / "homcert"
ELIMINATION = {
    "smith_normal_form", "SmithSolver", "solve_right", "_solve_field", "_row_reduce", "rank",
    "det", "homology_invariants", "solve_homotopy", "reduce_units", "HomotopySystem",
    "find_contraction", "check_ses",
}
# The classes whose methods the kernel calls on the values it is handed.
VALUE_CLASSES = {
    "exactalg": ("Ring", "IntegerRing", "RationalRing", "ModularRing", "Matrix"),
    "complexes": ("GradedFreeComplex", "ChainMap"),
    "structures": ("HomotopyStructure",),
}


def module_tree(module: str) -> ast.Module:
    return ast.parse((SRC / f"{module}.py").read_text())


def runtime_homcert_imports(tree: ast.Module) -> set:
    """(module, name) for every homcert import outside ``if TYPE_CHECKING:``."""
    typing_only = {id(n) for node in ast.walk(tree)
                   if isinstance(node, ast.If) and isinstance(node.test, ast.Name)
                   and node.test.id == "TYPE_CHECKING"
                   for stmt in node.body for n in ast.walk(stmt)}
    found = set()
    for node in ast.walk(tree):
        if id(node) in typing_only:
            continue
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("homcert")):
            found |= {(node.module, a.name) for a in node.names}
        elif isinstance(node, ast.Import):
            found |= {(a.name, None) for a in node.names if a.name.startswith("homcert")}
    return found


def kernel_reach() -> dict:
    """(module, name) -> syntax tree for the kernel module, the value classes,
    and every module-level function they name, transitively."""
    trees = {}

    def top(module):
        if module not in trees:
            tree = module_tree(module)
            defs = {n.name: n for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
            imported = {a.asname or a.name: (node.module, a.name) for node in tree.body
                        if isinstance(node, ast.ImportFrom) and node.level for a in node.names}
            trees[module] = tree, defs, imported
        return trees[module]

    todo = [("kernel", "*", top("kernel")[0])]
    todo += [(module, name, top(module)[1][name])
             for module, names in VALUE_CLASSES.items() for name in names]
    reach = {}
    while todo:
        module, name, node = todo.pop()
        if (module, name) in reach:
            continue
        reach[module, name] = node
        _, _, imported = top(module)
        for ref in {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}:
            owner, attr = imported.get(ref, (module, ref))
            target = top(owner)[1].get(attr)
            if isinstance(target, ast.FunctionDef):
                todo.append((owner, attr, target))
    return reach


def test_kernel_imports_only_matrix():
    assert runtime_homcert_imports(module_tree("kernel")) == {("exactalg", "Matrix")}


def test_kernel_reaches_no_elimination():
    reach = kernel_reach()
    # the walk follows calls across modules and into the value classes
    assert {("exactalg", "is_prime"), ("exactalg", "_tuples"), ("complexes", "ChainMap")} <= set(reach)
    named = sorted((module, name, n.id) for (module, name), node in reach.items()
                   for n in ast.walk(node) if isinstance(n, ast.Name) and n.id in ELIMINATION)
    assert named == []


def test_kernel_checks_take_no_options():
    """Every kernel check, and ``ChainMap.chain_defect``, is a plain function
    of its inputs: no parameter has a default or is keyword-only, so no
    caller can narrow a check to some of the degrees."""
    # ``brief`` shortens values in messages; it checks nothing
    checks = [fn for fn in vars(kernel).values() if inspect.isfunction(fn)
              and fn.__module__ == kernel.__name__ and fn is not kernel.brief]
    checks += [kernel.Row.defect, complexes.ChainMap.chain_defect]
    assert {fn.__name__ for fn in checks} >= {
        "validate_complex", "check_structure", "equivariance_defect", "map_defect",
        "_not_chain", "_not_equivariant", "check_certificate", "defect", "chain_defect"}
    for fn in checks:
        for param in inspect.signature(fn).parameters.values():
            assert param.default is param.empty, f"{fn.__name__}({param.name}=...)"
            assert param.kind is not param.KEYWORD_ONLY, f"{fn.__name__}(*, {param.name})"


def test_tracer_restores_every_original():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", SRC.parent.parent / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    # every module first, so that install() adds no submodule to the package
    owners = [importlib.import_module("homcert")] + [
        importlib.import_module("homcert." + path.stem) for path in sorted(SRC.glob("*.py"))
        if path.stem not in ("__init__", "__main__")]
    owners += [exactalg.Matrix, exactalg.SmithSolver, exactalg.ModularRing,
               complexes.ChainMap, complexes.HomotopySystem]
    before = [dict(vars(owner)) for owner in owners]
    original = kernel.check_certificate
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert certificates.check_certificate is not original
    finally:
        tracer.uninstall()
    after = [dict(vars(owner)) for owner in owners]
    for owner, old, new in zip(owners, before, after):
        assert old.keys() == new.keys(), owner
        assert all(new[k] is v for k, v in old.items()), owner
    assert certificates.check_certificate is kernel.check_certificate
