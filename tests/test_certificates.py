"""Certificate kernel semantics, builder acceptance, mutation rejection."""

import random
import re
from fractions import Fraction

import pytest

from homcert.complexes import ChainMap, GradedFreeComplex, find_contraction, identity_map
from homcert.constructions import (
    cone_mixed, cone_same, direct_sum, disk, identity_cone_contraction, mapping_cone,
    module_tensor, suspend,
)
from homcert.exactalg import Matrix, QQ, RationalRing, ZZ, Zmod
from homcert.certificates import (
    disk_transport_certificate,
    fold_defect_certificate,
    fold_identity_certificate,
    fold_row_certificates,
    peel_chain_certificate,
    structure_independence_certificate,
    sum_certificate,
)
from homcert.kernel import (
    Certificate, ClassExpr, Contractible, ExactRow, Isomorphism, Slot, check_certificate,
    check_structure,
)
from homcert.koszul import koszul
from homcert.randgen import (
    contractible_structure,
    corrupt_witness_entry,
    disk_pile,
    lift_pair,
    mutate_certificate,
    random_structure,
)
from homcert.serialize import dumps, loads
from homcert.structures import (
    HomotopyStructure, structure_from_contraction,
)


def test_sum_certificate_accepted():
    rng = random.Random(1)
    ma = disk_pile(rng, ZZ, 3, (2,))
    mb = disk_pile(rng, ZZ, 3, (2,))
    cert = sum_certificate(ma, mb, 4)
    res = check_certificate(cert)
    assert res.accepted, res.reason


def test_kernel_rejects_wrong_claim():
    rng = random.Random(2)
    cert = sum_certificate(disk_pile(rng, ZZ, 2, (3,)),
                           disk_pile(rng, ZZ, 2, (3,)), 3)
    bad = Certificate(cert.slot, cert.registry, cert.steps,
                      ClassExpr.build([("sum", 1), ("left", -1)]))
    res = check_certificate(bad)
    assert not res.accepted
    assert "claim" in res.reason or "match" in res.reason


def test_kernel_rejects_scalar_mismatch():
    rng = random.Random(3)
    cert = sum_certificate(disk_pile(rng, ZZ, 2, (3,)),
                           disk_pile(rng, ZZ, 2, (3,)), 3)
    bad = Certificate(Slot((ZZ.from_int(5),), 3), cert.registry,
                      cert.steps, cert.claim)
    res = check_certificate(bad)
    assert not res.accepted
    assert res.step == 0


def sum_by_hand(ma, mb, ceiling):
    """The certificate ``sum_certificate`` builds, without its window check."""
    ds = direct_sum(ma, mb)
    return Certificate(
        Slot(ma.scalars, ceiling), (("left", ma), ("right", mb), ("sum", ds.structure)),
        (ExactRow("left", "sum", "right", ds.include[0], ds.project[1],
                  ds.include[1], ds.project[0]),),
        ClassExpr.build([("sum", 1), ("left", -1), ("right", -1)]))


def test_kernel_rejects_support_above_ceiling():
    rng = random.Random(4)
    cert = sum_by_hand(disk_pile(rng, ZZ, 4, (2,)),
                       disk_pile(rng, ZZ, 4, (2,)), 3)
    res = check_certificate(cert)
    assert not res.accepted
    assert "window" in res.reason


def test_sum_certificate_refuses_support_outside_the_window():
    rng = random.Random(4)
    high, low = disk_pile(rng, ZZ, 4, (2,)), disk_pile(rng, ZZ, 2, (2,))
    assert sum_by_hand(low, low, 3) == sum_certificate(low, low, 3)
    for ma, mb in ((high, high), (low, high), (suspend(low, -2), low)):
        with pytest.raises(ValueError, match=r"leaves the window \[0, 3\]"):
            sum_certificate(ma, mb, 3)
        assert not check_certificate(sum_by_hand(ma, mb, 3)).accepted


def test_contractible_step_and_tamper():
    rng = random.Random(5)
    m = contractible_structure(rng, ZZ, 3, (6,))
    from homcert.complexes import find_contraction
    h = find_contraction(m.complex)
    cert = Certificate(
        Slot(m.scalars, 3), (("thing", m),),
        (Contractible("thing", h),),
        ClassExpr.build([("thing", 1)]))
    assert check_certificate(cert).accepted
    wrong = h.mats[0]
    bumped = wrong.with_entry(0, 0, ZZ.add(wrong.entries[0][0], ZZ.one()))
    bad_h = ChainMap(h.source, h.target, 1, (bumped,) + h.mats[1:])
    bad = Certificate(cert.slot, cert.registry,
                      (Contractible("thing", bad_h),), cert.claim)
    res = check_certificate(bad)
    assert not res.accepted and res.step == 0


def test_isomorphism_step_requires_invertibility():
    m = disk(ZZ, 2, 2, (2,))
    ident = identity_map(m.complex)
    cert = Certificate(
        Slot(m.scalars, 2), (("a", m), ("b", m)),
        (Isomorphism("a", "b", ident, ident),),
        ClassExpr.build([("a", 1), ("b", -1)]))
    assert check_certificate(cert).accepted
    squash = ChainMap(m.complex, m.complex, 0,
                      tuple(mat.scale(ZZ.from_int(2)) for mat in ident.mats))
    bad = Certificate(cert.slot, cert.registry,
                      (Isomorphism("a", "b", squash, ident),), cert.claim)
    res = check_certificate(bad)
    assert not res.accepted
    assert res.reason == "isomorphism is not invertible: f·g ≠ id in degree 1"


def test_suspension_pair_window_guard():
    # [up] = -[base] through the contractible cone of the identity, which
    # spans the supports of both
    base = disk(ZZ, 1, 2, (2,))
    cone = cone_same(identity_map(base.complex), base, base)
    registry = (("base", base), ("cone", cone.total), ("up", suspend(base, 1)))
    steps = (ExactRow("base", "cone", "up", *cone.maps, mult=-1),
             Contractible("cone", identity_cone_contraction(base.complex)))
    claim = ClassExpr.build([("up", 1), ("base", 1)])
    ok = Certificate(Slot(base.scalars, 3), registry, steps, claim)
    assert check_certificate(ok).accepted
    tight = Certificate(Slot(base.scalars, 2), registry, steps, claim)
    res = check_certificate(tight)
    assert (res.accepted, res.reason, res.step) == (False, "support leaves the slot window", 0)


def offset_cone(rng, ring, top, s, t):
    """Cone over a map of adjacent disks; the product scalar is s * t."""
    r = rng.randint(1, 2)
    a = disk(ring, r, top - 1, (s,))
    b = disk(ring, r, top, (t,))
    mat = Matrix.build(ring, r, r,
                       lambda i, j: ring.from_int(rng.randint(-2, 2)))
    arrow = ChainMap(a.complex, b.complex, 0, (Matrix.zeros(ring, 0, r), mat))
    return cone_mixed(arrow, a, b).total


def test_fold_row_certificates_accepted():
    rng = random.Random(6)
    cases = [
        disk_pile(rng, ZZ, 3, (2,)),
        offset_cone(rng, ZZ, 3, 2, 3),
        suspend(koszul(ZZ, (2, 3)), 1),
    ]
    for m in cases:
        n = m.complex.top_degree
        cert_a, cert_b = fold_row_certificates(m, n)
        res_a = check_certificate(cert_a)
        res_b = check_certificate(cert_b)
        assert res_a.accepted, res_a.reason
        assert res_b.accepted, res_b.reason


def test_fold_defect_certificate_accepted():
    rng = random.Random(7)
    cases = [
        (disk_pile(rng, ZZ, 3, (2,)), 3),
        (offset_cone(rng, ZZ, 4, 3, 2), 4),
        (suspend(koszul(ZZ, (2, 3)), 2), 4),
        (disk_pile(rng, ZZ, 2, (5,)), 3),      # below the ceiling
        (random_structure(rng, ZZ, 3, (2, 3)), 3),
    ]
    for m, n in cases:
        cert = fold_defect_certificate(m, n)
        res = check_certificate(cert)
        assert res.accepted, (res.reason, res.step)


def test_fold_defect_needs_ceiling_above_generators():
    m = disk(ZZ, 1, 2, (2, 3))
    with pytest.raises(ValueError, match="above the number d"):
        fold_defect_certificate(m, 2)
    with pytest.raises(ValueError, match="above the number d"):
        fold_defect_certificate(disk(ZZ, 1, 1, (2, 3)), 1)


def test_fold_identity_certificate_accepted():
    rng = random.Random(8)
    m = disk_pile(rng, ZZ, 2, (3,))
    cert = fold_identity_certificate(m, 4)
    res = check_certificate(cert)
    assert res.accepted, res.reason
    assert cert.slot.ceiling == 3


def test_peel_chain_certificate_accepted():
    rng = random.Random(9)
    m = contractible_structure(rng, ZZ, 3, (4,))
    cert = peel_chain_certificate(m, 3)
    res = check_certificate(cert)
    assert res.accepted, res.reason
    rows = [s for s in cert.steps if isinstance(s, ExactRow)]
    assert len(rows) == len(m.complex.ranks) - 1
    assert dict(cert.claim.terms)["stage_0"] == 1
    assert all(c == -1 for name, c in cert.claim.terms if name.startswith("disk_"))
    assert len(cert.claim.terms) == len(rows) + 1


PEEL_RINGS = {"Z": ZZ, "Z7": Zmod(7), "Z2^31-1": Zmod(2 ** 31 - 1), "Z4": Zmod(4),
              "Z8": Zmod(8), "Z9": Zmod(9)}


@pytest.mark.parametrize("ring", PEEL_RINGS.values(), ids=PEEL_RINGS.keys())
def test_peel_chain_certificate_in_every_prime_power_ring(ring):
    """Peeling splits the idempotent's image with the Smith form of Z or the
    local one of Z/p^e: every chain is accepted, and a copy with one
    witness entry bumped is rejected (tops 2-4, two scalar tuples, 10 seeds)."""
    for top in (2, 3, 4):
        for scalars in ((2,), (3, 2)):
            for seed in range(10):
                rng = random.Random(seed)
                cert = peel_chain_certificate(contractible_structure(rng, ring, top, scalars), top)
                res = check_certificate(cert)
                assert res.accepted, res.reason
                bad, info = corrupt_witness_entry(rng, cert)
                assert not check_certificate(bad).accepted, info


@pytest.mark.parametrize("ring", [QQ, Zmod(12)], ids=str)
def test_peel_refuses_rings_without_a_smith_form(ring):
    m = contractible_structure(random.Random(0), ring, 3, (2,))
    with pytest.raises(ValueError, match="smith_normal_form requires the ring Z or Z/p"):
        peel_chain_certificate(m, 3)


def _unimodular(rng, n):
    """A random integer matrix of determinant +-1 and its inverse."""
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    q = [row[:] for row in p]
    for _ in range(2 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((1, -1))
        p[i] = [a + c * b for a, b in zip(p[i], p[j])]
        for row in q:
            row[j] -= c * row[i]
    return Matrix.from_rows(ZZ, p), Matrix.from_rows(ZZ, q)


def random_basis_identity_cone(rng, base_ranks, scalar):
    """s.h on the cone of the identity of a three-term complex, with the base
    and then the cone written in random bases degree by degree."""
    lower, mid, upper = base_ranks
    pieces = [[rng.choice((1, -1, 2, 3)) if i == j else 0 for j in range(mid)]
              for i in range(lower)]
    tops = [[rng.choice((1, -1, 2, 3)) if i == lower + j else 0 for j in range(upper)]
            for i in range(mid)]
    bases = [_unimodular(rng, r) for r in base_ranks]
    d1 = bases[0][0] * Matrix.from_rows(ZZ, pieces) * bases[1][1]
    d2 = bases[1][0] * Matrix.from_rows(ZZ, tops) * bases[2][1]
    base = GradedFreeComplex(ZZ, 0, base_ranks, (d1, d2))
    cone, _, _ = mapping_cone(identity_map(base))
    m = structure_from_contraction(cone, identity_cone_contraction(base), (scalar,))
    x = m.complex
    p = {i: _unimodular(rng, x.rank(i)) for i in x.degrees()}
    diffs = tuple(p[i - 1][0] * x.diff(i) * p[i][1]
                  for i in range(x.min_degree + 1, x.top_degree + 1))
    ops = tuple(tuple(p[i + 1][0] * m.op(g, i) * p[i][1]
                      for i in range(x.min_degree, x.top_degree))
                for g in range(m.ngens))
    return HomotopyStructure(GradedFreeComplex(ZZ, x.min_degree, x.ranks, diffs),
                             m.scalars, ops)


@pytest.mark.parametrize("base_ranks", [(2, 4, 2), (4, 8, 4), (6, 12, 6)], ids=str)
def test_random_basis_identity_cone_peel_accepted(base_ranks):
    rng = random.Random(sum(base_ranks))
    for _ in range(2):
        m = random_basis_identity_cone(rng, base_ranks, rng.choice((2, 3)))
        n = m.complex.top_degree
        cert = peel_chain_certificate(m, n)
        res = check_certificate(cert)
        assert res.accepted, (res.reason, res.step)


def test_inexact_row_reason_names_the_degree():
    rng = random.Random(12)
    cert = sum_certificate(disk_pile(rng, ZZ, 3, (2,)), disk_pile(rng, ZZ, 3, (2,)), 3)
    (row,) = cert.steps
    # an identity projection kills nothing: with the identity as its section,
    # i·r + s·p = i·r + id, which is not id wherever A is nonzero
    f = row.include
    ident = identity_map(f.target)
    bad = ExactRow(row.sub, row.total, "sum", f, ident, ident, row.retraction)
    res = check_certificate(Certificate(cert.slot, cert.registry, (bad,), cert.claim))
    assert not res.accepted
    assert res.reason.startswith("row is not split exact: i·r + s·p ≠ id in degree ")


def test_structure_independence_certificate_accepted():
    rng = random.Random(10)
    m1, m2 = lift_pair(rng, 2)
    assert m1.ops != m2.ops
    cert = structure_independence_certificate(m1, m2, 3)
    res = check_certificate(cert)
    assert res.accepted, (res.reason, res.step)


@pytest.mark.parametrize("t", (2, 3))
def test_structure_independence_certificate_at_the_tight_ceiling(t):
    # n = top(X): four of the eight folds reach the fold ceiling n + 1
    for seed in range(3):
        m1, m2 = lift_pair(random.Random(seed), t)
        cert = structure_independence_certificate(m1, m2, m1.complex.top_degree)
        res = check_certificate(cert)
        assert res.accepted, (res.reason, res.step)


INDEPENDENCE_RINGS = {"Z": ZZ, "Q": QQ, "Z7": Zmod(7), "Z12": Zmod(12),
                      "Zp31": Zmod(2 ** 31 - 1)}


def homotopic_structure(rng, m):
    """``m`` with each e replaced by e + d σ - σ d for a random degree +2 map
    σ per generator, which keeps d e + e d = s."""
    x = m.complex
    ring = x.ring

    def entry(a, b):
        return Fraction(rng.randint(-3, 3), rng.choice((1, 2))) if ring == QQ \
            else rng.randint(-3, 3)

    ops = []
    for grid in m.ops:
        sigma = {i: Matrix.build(ring, x.rank(i + 2), x.rank(i), entry)
                 for i in range(x.min_degree - 1, x.top_degree)}
        ops.append(tuple(e + x.diff(i + 2) * sigma[i] - sigma[i - 1] * x.diff(i)
                         for i, e in zip(x.degrees(), grid)))
    return HomotopyStructure(x, m.scalars, tuple(ops))


@pytest.mark.parametrize("ring", INDEPENDENCE_RINGS.values(), ids=INDEPENDENCE_RINGS.keys())
def test_structure_independence_certificate_in_every_ring(ring):
    """Two homotopic structures have one class after rescaling, in every
    ring, and every corrupted witness entry of the certificate is caught."""
    rng = random.Random(36)
    for top in (2, 3):
        for scalars in ((2,), (3, 2), (6,)):
            for _ in range(6):
                m1 = random_structure(rng, ring, top, scalars)
                m2 = homotopic_structure(rng, m1)
                assert check_structure(m2) == []
                cert = structure_independence_certificate(m1, m2, top)
                res = check_certificate(cert)
                assert res.accepted, (top, scalars, res.reason, res.step)
                for _ in range(2):
                    mutant, where = corrupt_witness_entry(rng, cert)
                    assert not check_certificate(mutant).accepted, where


@pytest.mark.parametrize("ring", [ZZ, QQ, Zmod(7)], ids=str)
def test_structure_independence_splits_the_top_without_smith_or_peel(monkeypatch, ring):
    """The top disk splits off both cones by explicit blocks: no ``peel_top``
    and no Smith form of its own; over a field no Smith form at all."""
    import homcert.constructions as constructions_mod
    import homcert.exactalg as exactalg_mod

    def refuse(*args, **kwargs):
        raise AssertionError("called")
    rng = random.Random(10)
    m1 = random_structure(rng, ring, 3, (3, 2))
    m2 = homotopic_structure(rng, m1)
    patched = [(constructions_mod, "peel_top"), (constructions_mod, "smith_normal_form")]
    if ring.is_field:
        patched.append((exactalg_mod, "smith_normal_form"))
    for mod, name in patched:
        monkeypatch.setattr(mod, name, refuse)
    res = check_certificate(structure_independence_certificate(m1, m2, 3))
    assert res.accepted, (res.reason, res.step)


def test_mutations_rejected_smoke():
    rng = random.Random(11)
    m1, m2 = lift_pair(rng, 2)
    pool = [
        sum_certificate(disk_pile(rng, ZZ, 3, (2,)),
                        disk_pile(rng, ZZ, 3, (2,)), 3),
        fold_defect_certificate(disk_pile(rng, ZZ, 3, (2,)), 3),
        fold_identity_certificate(disk_pile(rng, ZZ, 2, (3,)), 4),
        peel_chain_certificate(contractible_structure(rng, ZZ, 3, (4,)), 3),
        structure_independence_certificate(m1, m2, 3),
    ]
    for cert in pool:
        assert check_certificate(cert).accepted
    for k in range(20):
        cert = pool[k % len(pool)]
        mutant, what = mutate_certificate(rng, cert)
        res = check_certificate(mutant)
        assert not res.accepted, f"mutation survived: {what}"


def test_witness_corruption_over_z2_always_rejected():
    # a delta of 2 is zero over Z/2; every corruption must still change an entry
    cert = disk_transport_certificate(Zmod(2), 2, 3, (1,))
    assert check_certificate(cert).accepted
    rng = random.Random(2)
    for _ in range(200):
        mutant, where = corrupt_witness_entry(rng, cert)
        assert not check_certificate(mutant).accepted, where


def rational_structure():
    """Scalar 2 over Q on Q^2 --d--> Q^2 (degrees 1, 2) with e = 2 d^-1;
    d and e carry entries over 2."""
    x = GradedFreeComplex(QQ, 1, (2, 2), (Matrix.from_rows(QQ, [[-2, Fraction(1, 2)], [0, -1]]),))
    return structure_from_contraction(x, find_contraction(x), (2,))


@pytest.mark.parametrize("build", [
    lambda: fold_defect_certificate(rational_structure(), 2),
    lambda: disk_transport_certificate(QQ, 2, 3, (2, Fraction(1, 2))),
], ids=["fold_defect", "disk_transport"])
def test_rational_certificates_with_denominators(build):
    cert = build()
    text = dumps(cert)
    assert re.search(r'"-?[0-9]+/[0-9]+"', text)   # real denominators in the document
    assert dumps(loads(text)) == text
    res = check_certificate(loads(text))
    assert res.accepted, (res.reason, res.step)
    rng = random.Random(5)
    for _ in range(20):
        mutant, where = corrupt_witness_entry(rng, cert)
        assert not check_certificate(mutant).accepted, where


def test_rational_check_makes_no_per_entry_ring_calls(monkeypatch):
    # integral Q fold defect on a Koszul tensor (d = 3, module rank 2)
    cert = fold_defect_certificate(suspend(module_tensor(2, koszul(QQ, (2, 3, 5))), 1), 5)
    scalars = len(cert.slot.scalars) + sum(m.ngens for _, m in cert.registry)
    entries = sum(a.rows * a.cols for _, m in cert.registry
                  for a in m.complex.diffs + tuple(e for grid in m.ops for e in grid))
    assert entries > 20 * scalars
    calls = {"add": 0, "mul": 0, "neg": 0}
    for name in calls:
        real = getattr(RationalRing, name)

        def counted(self, *args, real=real, name=name):
            calls[name] += 1
            return real(self, *args)
        monkeypatch.setattr(RationalRing, name, counted)
    assert check_certificate(cert).accepted
    assert sum(calls.values()) <= 3 * scalars, calls
