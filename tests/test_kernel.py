"""The certificate kernel: witness checks in every ring, degree-named
rejections, and acceptance that rests on matrix products alone."""

import random
import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

from homcert import complexes, exactalg
from homcert.certificates import (
    Certificate, ClassExpr, Contractible, ExactRow, Isomorphism, Slot,
    check_certificate, disk_transport_certificate, extension_certificate,
    fold_defect_certificate, fold_row_certificates, peel_chain_certificate,
    structure_independence_certificate, sum_certificate,
)
from homcert.complexes import (
    ChainMap, GradedFreeComplex, check_ses, find_contraction, identity_map,
    split_defect,
)
from homcert.constructions import disk, glue_extension, solve_splitting
from homcert.exactalg import Matrix, QQ, ZZ, Zmod
from homcert.randgen import (
    contractible_structure, corrupt_witness_entry, disk_pile, lift_pair,
    mutate_certificate, random_structure, split_row,
)
from homcert.structures import restrict

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
                 for name in ("smith_normal_form", "_row_reduce", "solve_right", "det")]
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
