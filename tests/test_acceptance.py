"""Ship gate: one end-to-end check per advertised guarantee.

Each test prints a single ``ACxx PASS`` / ``ACxx FAIL`` verdict line; run
``pytest tests/test_acceptance.py -s`` to see them.  Inputs are drawn from
seeded generators so every run checks the same instances.
"""

import random
import time

from homcert.certificates import (
    disk_transport_certificate, fold_defect_certificate, fold_row_certificates,
    peel_chain_certificate, structure_independence_certificate,
)
from homcert.complexes import (
    ChainMap, GradedFreeComplex, boundary_map, check_ses, find_contraction,
    identity_map, is_contraction,
)
from homcert.constructions import (
    cone_mixed, cone_same, direct_sum, disk, glue_extension,
    identity_cone_contraction, mapping_cone, module_tensor, peel_to_disks,
    suspend,
)
from homcert.exactalg import Matrix, ZZ
from homcert.fold import disk_fold_iso, fold_general, fold_once
from homcert.kernel import check_certificate, check_structure, inverse_defect
from homcert.koszul import (
    counit_map, hodge_star, koszul, koszul_dual, unit_map, word_operator,
)
from homcert.randgen import (
    contractible_structure, corrupt_witness_entry, disk_pile, lift_pair,
    lift_pair_complex, random_structure, split_row,
)
from homcert.structures import (
    find_structure, is_equivariant, restrict, structure_from_contraction,
)


def criterion(label, blurb):
    """Print the verdict line for one acceptance criterion around a test."""
    def deco(fn):
        def run():
            try:
                fn()
            except BaseException:
                print(f"{label} FAIL - {blurb}")
                raise
            print(f"{label} PASS - {blurb}")
        run.__name__ = fn.__name__
        run.__doc__ = fn.__doc__
        return run
    return deco


def entries_bounded(m, bound=9):
    """Every differential and operator entry within [-bound, bound]."""
    mats = list(m.complex.diffs) + [mat for grid in m.ops for mat in grid]
    return all(abs(e) <= bound for mm in mats for row in mm.entries for e in row)


def bounded_structure(rng, s, top):
    """A valid one-generator structure with ranks <= 4, entries <= 6.

    Four families: sums of small disks, cones over maps of adjacent disks
    whose scalars factor ``s``, operators built on an identity cone, and
    shifted exterior blocks.  ``top`` must be at least 2.
    """
    kind = rng.randrange(4)
    if kind == 0:
        a = disk(ZZ, rng.randint(1, 2), top, (s,))
        b = disk(ZZ, rng.randint(1, 2), rng.randint(max(1, top - 2), top), (s,))
        return direct_sum(a, b).structure
    if kind == 1:
        t, u = rng.choice([(t, u) for t in (1, 2, 3, 6) for u in (1, 2, 3, 6)
                           if t * u == s])
        r = rng.randint(1, 2)
        a = disk(ZZ, r, top - 1, (t,))
        b = disk(ZZ, r, top, (u,))
        mat = Matrix.build(ZZ, r, r, lambda i, j: ZZ.from_int(rng.randint(-1, 1)))
        arrow = ChainMap(a.complex, b.complex, 0, (Matrix.zeros(ZZ, 0, r), mat))
        return cone_mixed(arrow, a, b).total
    if kind == 2:
        base = disk(ZZ, rng.randint(1, 2), top - 1, (1,)).complex
        cone, _, _ = mapping_cone(identity_map(base))
        return structure_from_contraction(
            cone, identity_cone_contraction(base), (s,))
    return module_tensor(rng.randint(1, 2), suspend(koszul(ZZ, (s,)), top - 1))


def boundary_built_map(rng, x, y):
    """A guaranteed chain map x -> y: the boundary of a random degree +1 block."""
    lo, hi = min(x.min_degree, y.min_degree), max(x.top_degree, y.top_degree)
    sigma = {i: Matrix.build(ZZ, y.rank(i + 1), x.rank(i),
                             lambda r, c: ZZ.from_int(rng.randint(-2, 2)))
             for i in range(lo, hi + 1)}

    def sig(i):
        return sigma.get(i, Matrix.zeros(ZZ, y.rank(i + 1), x.rank(i)))

    mats = tuple(y.diff(i + 1) * sig(i) + sig(i - 1) * x.diff(i)
                 for i in x.degrees())
    return ChainMap(x, y, 0, mats)


@criterion("AC01", "200 randomized bounded structures fold with the scalar squared")
def test_bulk_fold_squares_scalar():
    rng = random.Random(101)
    start = time.monotonic()
    for _ in range(200):
        s = rng.choice((2, 3, 6))
        m = bounded_structure(rng, s, rng.randint(2, 4))
        assert check_structure(m) == []
        assert entries_bounded(m)
        assert max(m.complex.ranks) <= 4 and len(m.complex.ranks) <= 5
        folded = fold_once(m, m.complex.top_degree)
        assert folded.scalars == (s * s,)
        assert check_structure(folded) == []
    assert time.monotonic() - start < 30.0


@criterion("AC02", "folded disks match their shifted coefficient blocks in 72 cells")
def test_folded_disk_matches_shifted_block_grid():
    cells = 0
    for choices in (((2,), (3,), (6,)), ((2, 3), (2, 2), (3, 6))):
        for scalars in choices:
            for n in range(2, 6):
                for rank in (1, 2, 3):
                    data, target, iso = disk_fold_iso(ZZ, rank, n, scalars)
                    assert check_structure(data.structure) == []
                    assert check_structure(target) == []
                    assert iso.is_chain_map()
                    assert inverse_defect(iso, iso.transpose()) is None
                    assert is_equivariant(iso, data.structure, target)
                    cells += 1
    assert cells == 72


@criterion("AC03", "both fold rows are exact with equivariant arrows and certified")
def test_fold_rows_exact_and_certified():
    rng = random.Random(33)
    for _ in range(40):
        scalars = rng.choice(((2,), (3,), (6,), (2, 3), (2, 2)))
        d = len(scalars)
        top = rng.randint(max(d, 2), 4)
        m = random_structure(rng, ZZ, top, scalars)
        n = min(5, max(top, d + 1) + rng.randint(0, 1))
        data = fold_general(m, n)
        assert check_ses(data.coefficient_row.include, data.coefficient_row.project) == []
        assert check_ses(data.disk_row.include, data.disk_row.project) == []
        assert is_equivariant(data.coefficient_row.include,
                              data.coefficient_row.sub, data.disk_row.total)
        assert is_equivariant(data.coefficient_row.project, data.disk_row.total, data.coefficient_row.quotient)
        assert is_equivariant(data.disk_row.include, data.disk_row.sub, data.disk_row.total)
        assert is_equivariant(data.disk_row.project, data.disk_row.total, data.structure)
        for cert in fold_row_certificates(m, n):
            assert check_certificate(cert).accepted
        assert check_certificate(fold_defect_certificate(m, n)).accepted


@criterion("AC04", "200 split rows glue to the product scalar with both compatibilities")
def test_glued_extensions_satisfy_axiom_and_compatibilities():
    rng = random.Random(44)
    for _ in range(200):
        s, t = rng.choice((2, 3, 6)), rng.choice((2, 3, 6))
        sub = random_structure(rng, ZZ, rng.randint(2, 3), (s,))
        quot = random_structure(rng, ZZ, rng.randint(2, 3), (t,))
        incl, proj = split_row(rng, ZZ, sub, quot)
        glued = glue_extension(incl, proj, sub, quot)
        assert glued.scalars == (s * t,)
        assert check_structure(glued) == []
        assert is_equivariant(incl, restrict(sub, (t,)), glued)
        assert is_equivariant(proj, glued, restrict(quot, (s,)))


@criterion("AC05", "mixed and same-scalar cones validate; identity cones contract")
def test_cones_valid_and_identity_cone_contracts():
    rng = random.Random(55)
    for _ in range(60):
        s, t = rng.choice((2, 3, 6)), rng.choice((2, 3))
        mx = random_structure(rng, ZZ, rng.randint(2, 3), (s,))
        my = random_structure(rng, ZZ, rng.randint(2, 3), (t,))
        f = boundary_built_map(rng, mx.complex, my.complex)
        cone = cone_mixed(f, mx, my)
        assert cone.total.scalars == (s * t,)
        assert check_structure(cone.total) == []
    for _ in range(40):
        s = rng.choice((2, 3, 6))
        m = random_structure(rng, ZZ, rng.randint(2, 3), (s,))
        choice = rng.randrange(3)
        if choice == 0:
            f, mx, my = identity_map(m.complex), m, m
        elif choice == 1:
            f = identity_map(m.complex).scale(ZZ.from_int(rng.randint(-3, 3)))
            mx, my = m, m
        else:
            other = random_structure(rng, ZZ, rng.randint(2, 3), (s,))
            ds = direct_sum(m, other)
            f, mx, my = ds.include[0], m, ds.structure
        assert is_equivariant(f, mx, my)
        assert check_structure(cone_same(f, mx, my).total) == []
    for _ in range(20):
        if rng.random() < 0.5:
            base = disk_pile(rng, ZZ, rng.randint(1, 3),
                             (rng.choice((2, 3)),), summands=2).complex
        else:
            base = lift_pair_complex(rng.choice((2, 3)))
        cone, _, _ = mapping_cone(identity_map(base))
        h = find_contraction(cone)
        assert h is not None and is_contraction(h)


@criterion("AC06", "contractible structures peel to disks in window-length steps, certified")
def test_contractible_peels_in_window_length_steps():
    rng = random.Random(66)
    for _ in range(30):
        s = rng.choice((2, 3, 6))
        if rng.random() < 0.5:
            m = contractible_structure(rng, ZZ, rng.randint(2, 4), (s,))
        else:
            m0 = disk_pile(rng, ZZ, rng.randint(1, 3), (s,), summands=2)
            m = cone_same(identity_map(m0.complex), m0, m0).total
        x = m.complex
        chain = peel_to_disks(m)
        assert len(chain) == x.top_degree - x.min_degree
        assert all(check_structure(p.sub) == [] for p in chain)
        cert = peel_chain_certificate(m, x.top_degree)
        assert check_certificate(cert).accepted
        claim = cert.claim.as_dict()
        assert claim.pop("stage_0") == 1
        assert sorted(claim) == [f"disk_{k}" for k in range(len(chain))]
        assert set(claim.values()) <= {-1}


@criterion("AC07", "exterior models, complementation signs, boundary rule, comparison maps")
def test_exterior_calculus_suite():
    rng = random.Random(77)
    for d in (1, 2, 3):
        for _ in range(2):
            scalars = tuple(rng.randint(-3, 4) for _ in range(d))
            k = koszul(ZZ, scalars)
            o = koszul_dual(ZZ, scalars)
            star = hodge_star(ZZ, scalars)
            assert star.source == k.complex and star.target == o.complex
            assert star.is_chain_map()
            assert inverse_defect(star, star.transpose()) is None
            assert is_equivariant(star, k, o)
            for j in range(d + 1):
                sgn = ZZ.from_int(-1 if (j * (d - j)) % 2 else 1)
                assert star.mat(d - j) * star.mat(j) == \
                    Matrix.identity(ZZ, k.complex.rank(j)).scale(sgn)
            for m in (k, o, disk(ZZ, 2, d + 1, scalars), suspend(k, 1)):
                bdry = boundary_map(m.complex)
                for _ in range(3):
                    word = tuple(rng.randint(1, d)
                                 for _ in range(rng.randint(1, 3)))
                    lhs = bdry.compose(word_operator(m, word))
                    sign = ZZ.from_int(-1 if len(word) % 2 else 1)
                    rhs = word_operator(m, word).compose(bdry).scale(sign)
                    for a in range(len(word)):
                        rest = word[:a] + word[a + 1:]
                        c = m.scalars[word[a] - 1] * (1 if a % 2 == 0 else -1)
                        rhs = rhs + word_operator(m, rest).scale(ZZ.from_int(c))
                    assert lhs == rhs
                f_in, source = unit_map(m)
                assert f_in.is_chain_map() and check_structure(source) == []
                f_out, target = counit_map(m)
                assert f_out.is_chain_map() and check_structure(target) == []


@criterion("AC08", "independent operator lifts certify to equal classes after rescaling")
def test_independent_lifts_certified_equal():
    rng = random.Random(88)
    accepted = 0
    for _ in range(8):
        m1, m2 = lift_pair(rng, rng.choice((2, 3)))
        assert m1.ops != m2.ops
        cert = structure_independence_certificate(m1, m2, 3)
        assert check_certificate(cert).accepted
        accepted += 1
    for _ in range(4):
        s = rng.choice((2, 3, 6))
        base = disk_pile(rng, ZZ, rng.randint(1, 2), (s,), summands=2).complex
        cone, _, _ = mapping_cone(identity_map(base))
        h1 = identity_cone_contraction(base)
        h2 = find_contraction(cone)
        m1 = structure_from_contraction(cone, h1, (s,))
        m2 = structure_from_contraction(cone, h2, (s,))
        cert = structure_independence_certificate(m1, m2, cone.top_degree + 1)
        assert check_certificate(cert).accepted
        accepted += 1
    assert accepted == 12


@criterion("AC09", "single-entry corruption of any witness is rejected, 100/100")
def test_corrupted_witness_always_rejected():
    rng = random.Random(99)
    pool = []
    draws = 0
    while len(pool) < 100:
        # by draw, not by pool size: the rows come in pairs
        roll = draws % 5
        draws += 1
        if roll == 0:
            m = random_structure(rng, ZZ, rng.randint(2, 3),
                                 (rng.choice((2, 3, 6)),))
            pool.append(fold_defect_certificate(m, m.complex.top_degree))
        elif roll == 1:
            m = random_structure(rng, ZZ, rng.randint(2, 3),
                                 (rng.choice((2, 3)),))
            pool.extend(fold_row_certificates(m, m.complex.top_degree))
        elif roll == 3:
            m = contractible_structure(rng, ZZ, rng.randint(2, 4),
                                       (rng.choice((2, 3, 6)),))
            pool.append(peel_chain_certificate(m, m.complex.top_degree))
        elif roll == 4:
            m1, m2 = lift_pair(rng, rng.choice((2, 3)))
            pool.append(structure_independence_certificate(m1, m2, 3))
        else:
            pool.append(disk_transport_certificate(
                ZZ, rng.randint(1, 2), rng.randint(3, 4),
                (rng.choice((2, 3)),)))
    pool = pool[:100]
    survivors, fields = [], set()
    for idx, cert in enumerate(pool):
        assert check_certificate(cert).accepted
        mutant, where = corrupt_witness_entry(rng, cert)
        fields.add(where.split()[2])
        if check_certificate(mutant).accepted:
            survivors.append((idx, where))
    assert survivors == []
    assert fields == {"include", "project", "section", "retraction", "contraction",
                      "iso", "inverse"}


@criterion("AC10", "least exponents are exact through 8; rational homology flags the rest")
def test_least_exponent_exact_and_obstruction_flagged():
    for t in (2, 3):
        for k in range(1, 9):
            x = GradedFreeComplex(ZZ, 0, (1, 1),
                                  (Matrix.from_rows(ZZ, [[t ** k]]),))
            res = find_structure(x, (t,))
            assert res.exponents == (k,)
            assert res.obstructed == (False,)
            assert res.structure is not None
            assert res.structure.scalars == (t ** k,)
            assert check_structure(res.structure) == []
    for diffs in ([[0]], [[2, 0]]):
        rows = len(diffs)
        x = GradedFreeComplex(ZZ, 0, (rows, len(diffs[0])),
                              (Matrix.from_rows(ZZ, diffs),))
        res = find_structure(x, (2,))
        assert res.structure is None
        assert res.exponents == (None,)
        assert res.obstructed == (True,)
