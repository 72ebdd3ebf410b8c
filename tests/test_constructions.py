"""Suspension, duals, disks, cones, gluing, peeling, tensor products."""

import dataclasses
import random

import pytest

from homcert.complexes import (
    ChainMap, GradedFreeComplex, check_ses, concentrated, find_contraction,
    identity_map, is_contraction, zero_map,
)
from homcert.constructions import (
    cone_mixed, cone_same, direct_sum, disk, dual, glue_extension,
    identity_cone_contraction, mapping_cone, module_tensor, peel_to_disks,
    peel_top, split_top_disk, suspend, suspend_complex, tensor_module,
)
from homcert.exactalg import Matrix, QQ, ZZ, Zmod, solve_right
from homcert.fold import fold_general
from homcert.kernel import Row, check_structure, validate_complex
from homcert.koszul import koszul
from homcert.randgen import contractible_structure, disk_pile, random_structure
from homcert.structures import (
    HomotopyStructure, find_structure, is_equivariant, restrict, structure_from_contraction,
)


def two_term(entry, ring=ZZ):
    return GradedFreeComplex(ring, 0, (1, 1), (Matrix.from_rows(ring, [[entry]]),))


def staircase_structure(scalars=(2,)):
    x = GradedFreeComplex(
        ZZ, 0, (1, 2, 1),
        (Matrix.from_rows(ZZ, [[0, 1]]), Matrix.from_rows(ZZ, [[1], [0]])))
    return structure_from_contraction(x, find_contraction(x), scalars)


# -- regrading and duality --------------------------------------------


def test_suspend_complex_signs():
    x = two_term(2)
    s = suspend_complex(x)
    assert s.min_degree == 1 and s.diff(2).entry(0, 0) == -2
    assert suspend_complex(s).min_degree == 2
    assert suspend_complex(x, 2).diff(3).entry(0, 0) == 2
    assert suspend_complex(s, -1) == x


def test_suspend_structure_axiom():
    m = staircase_structure((3,))
    sm = suspend(m)
    assert check_structure(sm) == []
    assert sm.scalars == m.scalars
    assert suspend(sm, -1) == m


def test_dual_reflects_and_transposes():
    m = staircase_structure((2,))
    d = dual(m)
    assert check_structure(d) == []
    assert dual(d) == m
    y = dual(structure_from_contraction(
        two_term(1), find_contraction(two_term(1)), (4,)))
    assert y.complex.diff(1) == Matrix.from_rows(ZZ, [[1]])
    assert check_structure(y) == []
    asym = GradedFreeComplex(ZZ, 0, (1, 2), (Matrix.from_rows(ZZ, [[3, 5]]),))
    md = dual(HomotopyStructure(asym, (), ()))
    assert md.complex.ranks == (2, 1)
    assert md.complex.diff(1) == Matrix.from_rows(ZZ, [[3], [5]])


def test_disk_shape_and_contractibility():
    m = disk(ZZ, 3, 5, (2, 7))
    assert m.complex.min_degree == 4 and m.complex.top_degree == 5
    assert check_structure(m) == []
    assert find_contraction(m.complex) is not None
    assert m.op(0, 4) == Matrix.scalar(ZZ, 3, 2)
    assert m.op(1, 4) == Matrix.scalar(ZZ, 3, 7)


@pytest.mark.parametrize("ring", [ZZ, QQ, Zmod(7)], ids=["Z", "Q", "Z7"])
def test_random_structure_at_top_one(ring):
    for seed in range(50):
        rng = random.Random(seed)
        scalars = tuple(ring.from_int(s) for s in rng.choice(((2,), (3,), (2, 3))))
        m = random_structure(rng, ring, 1, scalars)
        assert check_structure(m) == []
        x = m.complex
        assert all(x.rank(i) == 0 for i in x.degrees() if not 0 <= i <= 1)
    with pytest.raises(ValueError, match="top=0"):
        disk_pile(random.Random(0), ring, 0, (2,))
    with pytest.raises(ValueError, match="top=1"):
        contractible_structure(random.Random(0), ring, 1, (2,))


# -- direct sums ------------------------------------------------------


def test_direct_sum_structure_and_ses():
    a = disk(ZZ, 1, 1, (6,))
    b = restrict(staircase_structure((2,)), (3,))
    s = direct_sum(a, b)
    assert check_structure(s.structure) == []
    ia, ib = s.include
    pa, pb = s.project
    for f in (ia, ib, pa, pb):
        assert f.is_chain_map()
    assert is_equivariant(ia, a, s.structure)
    assert is_equivariant(pb, s.structure, b)
    assert check_ses(ia, pb) == []
    assert check_ses(ib, pa) == []


def _block_sum(ma, mb):
    """A + B written out block by block: [[d_A, 0], [0, d_B]], diag(e_A, e_B),
    the inclusions [I; 0], [0; I] and the projections [I 0], [0 I]."""
    a, b = ma.complex, mb.complex
    ring = a.ring
    lo, hi = min(a.min_degree, b.min_degree), max(a.top_degree, b.top_degree)

    def diag(p, q):
        return Matrix.block([[p, Matrix.zeros(ring, p.rows, q.cols)],
                             [Matrix.zeros(ring, q.rows, p.cols), q]])

    total = GradedFreeComplex(ring, lo, tuple(a.rank(i) + b.rank(i) for i in range(lo, hi + 1)),
                              tuple(diag(a.diff(i), b.diff(i)) for i in range(lo + 1, hi + 1)))
    ops = tuple(tuple(diag(ma.op(g, i), mb.op(g, i)) for i in range(lo, hi))
                for g in range(ma.ngens))

    def unit(r, before, after):  # [0 I 0] with I of size r
        return Matrix.block([[Matrix.zeros(ring, r, before), Matrix.identity(ring, r),
                              Matrix.zeros(ring, r, after)]])

    include = (ChainMap(a, total, 0, tuple(unit(a.rank(i), 0, b.rank(i)).transpose()
                                           for i in a.degrees())),
               ChainMap(b, total, 0, tuple(unit(b.rank(i), a.rank(i), 0).transpose()
                                           for i in b.degrees())))
    project = (ChainMap(total, a, 0, tuple(unit(a.rank(i), 0, b.rank(i))
                                           for i in total.degrees())),
               ChainMap(total, b, 0, tuple(unit(b.rank(i), a.rank(i), 0)
                                           for i in total.degrees())))
    return HomotopyStructure(total, ma.scalars, ops), include, project


@pytest.mark.parametrize("ring", [ZZ, QQ, Zmod(7), Zmod(12)], ids=["Z", "Q", "Z7", "Z12"])
def test_direct_sum_is_the_block_layout(ring):
    """The layout that ``sum_fold_iso`` (in test_fold.py) relies on, in
    windows that differ and reach below degree 0."""
    rng = random.Random(20)
    for _ in range(6):
        scalars = (ring.from_int(rng.choice((2, 3, 5))),)
        ma = suspend(random_structure(rng, ring, rng.randint(2, 4), scalars), rng.randint(-4, 1))
        mb = suspend(disk_pile(rng, ring, rng.randint(1, 4), scalars), rng.randint(-4, 1))
        s = direct_sum(ma, mb)
        structure, include, project = _block_sum(ma, mb)
        assert s.structure == structure
        assert s.include == include and s.project == project
        row = Row(ma, s.structure, mb, s.include[0], s.project[1], s.include[1], s.project[0])
        assert row.defect() is None


def test_direct_sum_rejects_mismatched_scalars():
    with pytest.raises(ValueError):
        direct_sum(disk(ZZ, 1, 1, (2,)), disk(ZZ, 1, 1, (3,)))


# -- cones ------------------------------------------------------------


def test_mapping_cone_of_identity_is_contractible():
    m = staircase_structure((2,))
    cone, incl, proj = mapping_cone(identity_map(m.complex))
    assert validate_complex(cone) == []
    assert incl.is_chain_map() and proj.is_chain_map()
    assert check_ses(incl, proj) == []
    h = identity_cone_contraction(m.complex)
    assert is_contraction(h)


def test_cone_mixed_structure_and_ses():
    mx = disk(ZZ, 2, 1, (3,))
    my = staircase_structure((2,))
    f = zero_map(mx.complex, my.complex)
    data = cone_mixed(f, mx, my)
    assert check_structure(data.total) == []
    assert data.total.scalars == (6,)
    assert check_ses(data.include, data.project) == []
    assert is_equivariant(data.include, data.sub, data.total)
    assert is_equivariant(data.project, data.total, data.quotient)


def test_cone_mixed_nonzero_map():
    my = staircase_structure((2,))
    mx = staircase_structure((3,))
    f = ChainMap(mx.complex, my.complex, 0, identity_map(my.complex).mats)
    data = cone_mixed(f, mx, my)
    assert check_structure(data.total) == []
    assert data.total.scalars == (6,)
    assert check_ses(data.include, data.project) == []
    assert is_equivariant(data.include, data.sub, data.total)
    assert is_equivariant(data.project, data.total, data.quotient)


def test_cone_same_keeps_scalars():
    m = staircase_structure((2,))
    data = cone_same(identity_map(m.complex), m, m)
    assert data.total.scalars == (2,)
    assert check_structure(data.total) == []
    assert check_ses(data.include, data.project) == []
    assert is_equivariant(data.include, data.sub, data.total)
    assert is_equivariant(data.project, data.total, data.quotient)
    assert find_contraction(data.total.complex) is not None


def test_cone_same_requires_equivariance():
    m = staircase_structure((2,))
    other = restrict(m, (1,))
    bad = ChainMap(
        m.complex, m.complex, 0,
        tuple(Matrix.zeros(ZZ, m.complex.rank(i), m.complex.rank(i)) if i == 0
              else Matrix.identity(ZZ, m.complex.rank(i))
              for i in m.complex.degrees()))
    with pytest.raises(ValueError):
        cone_same(bad, m, other)


# -- gluing -----------------------------------------------------------


def test_glue_split_extension():
    a = disk(ZZ, 1, 1, (2,))
    c = restrict(staircase_structure((1,)), (3,))
    # the sum is only used for its complex and arrows, so unit scalars do
    s = direct_sum(disk(ZZ, 1, 1, (1,)), staircase_structure((1,)))
    ia, _ = s.include
    _, pc = s.project
    glued = glue_extension(ia, pc, a, c)
    assert glued.scalars == (6,)
    assert check_structure(glued) == []


def test_glue_conjugated_extension():
    a = disk(ZZ, 1, 2, (2,))
    c = disk(ZZ, 1, 2, (3,))
    s = direct_sum(disk(ZZ, 1, 2, (1,)), disk(ZZ, 1, 2, (1,)))
    ia, _ = s.include
    _, pc = s.project
    b = s.structure.complex
    u_mats = tuple(
        Matrix.from_rows(ZZ, [[1, 1], [0, 1]]) if b.rank(i) == 2
        else Matrix.identity(ZZ, b.rank(i))
        for i in b.degrees())
    conj = ChainMap(b, b, 0, u_mats)
    assert conj.is_chain_map()
    incl = conj.compose(ia)
    inverses = tuple(solve_right(mm, Matrix.identity(ZZ, mm.rows)) for mm in u_mats)
    proj = pc.compose(ChainMap(b, b, 0, inverses))
    assert check_ses(incl, proj) == []
    glued = glue_extension(incl, proj, a, c)
    assert glued.scalars == (6,)


def test_glue_on_cone_ses():
    mx = staircase_structure((2,))
    my = disk(ZZ, 1, 1, (3,))
    f = zero_map(mx.complex, my.complex)
    data = cone_mixed(f, mx, my)
    glued = glue_extension(data.include, data.project, my, suspend(mx))
    assert glued.scalars == (6,)
    assert check_structure(glued) == []


# -- rows -------------------------------------------------------------


@pytest.mark.parametrize("ring", [ZZ, QQ, Zmod(7)], ids=["Z", "Q", "Z7"])
def test_every_constructed_row_passes_its_check(ring):
    """Cones, fold rows and (over Z) peels are split exact rows of
    structures; for the cones the splitting is the pair of transposes."""
    rng = random.Random(8)
    rows = []
    for m in (suspend(koszul(ring, (2, 3)), 1), random_structure(rng, ring, 3, (2, 3))):
        summand = disk_pile(rng, ring, 2, (2, 3))
        total = direct_sum(m, summand)
        onto = total.project[1]  # equivariant from the sum onto the summand
        rows.append(cone_mixed(onto, total.structure, restrict(summand, (3, 5))))
        rows.append(cone_same(onto, total.structure, summand))
        data = fold_general(m, 3)
        rows += [data.coefficient_row, data.disk_row]
    if ring == ZZ:
        rows += peel_to_disks(contractible_structure(rng, ZZ, 3, (6,)))  # peel_top each
    for row in rows:
        assert row.defect() is None
        for part in (row.sub, row.total, row.quotient):
            assert check_structure(part) == []


# -- peeling ----------------------------------------------------------


def test_peel_two_term_disk():
    m = disk(ZZ, 2, 3, (5,))
    step = peel_top(m)
    assert step.sub == m
    assert step.quotient.complex.ranks == (0,)
    assert step.quotient.complex.min_degree == 2


def test_peel_staircase():
    m = staircase_structure((2,))
    step = peel_top(m)
    assert step.sub.complex.ranks == (1, 1)
    assert step.quotient.complex.top_degree == 1
    assert check_structure(step.quotient) == []
    assert check_ses(step.include, step.project) == []


def test_peel_to_disks_counts():
    m3 = staircase_structure((3,))
    for m in (staircase_structure((2,)),
              cone_same(identity_map(m3.complex), m3, m3).total,
              disk(ZZ, 3, 4, (2,))):
        x = m.complex
        steps = peel_to_disks(m)
        assert len(steps) == x.top_degree - x.min_degree
        assert sum(sum(s.sub.complex.ranks) for s in steps) >= x.rank(x.top_degree)


def test_composite_search_builds_systems_on_the_reduced_complex(monkeypatch):
    import homcert.complexes as complexes_mod
    import homcert.exactalg as exactalg_mod
    rng, r9 = random.Random(9), Zmod(9)

    def unimodular(n):
        up = Matrix.build(r9, n, n, lambda i, j: 1 if i == j else rng.randint(0, 8) * (i < j))
        low = Matrix.build(r9, n, n, lambda i, j: 1 if i == j else rng.randint(0, 8) * (i > j))
        return up * low
    pieces = Matrix.build(r9, 4, 4, lambda i, j: (2, 4, 6, 8)[i] * (i == j))  # 6: the non-unit
    x = GradedFreeComplex(r9, 0, (4, 4), (unimodular(4) * pieces * unimodular(4),))
    # Z/9 --3--> Z/9 --3--> Z/9, where c * id is null-homotopic only for
    # c = 0, beside the unit pieces 2 and 4 and a piece 6, in a random basis
    p = [unimodular(n) for n in (3, 4, 2)]
    q = [solve_right(m, Matrix.identity(r9, m.rows)) for m in p]
    d1 = Matrix.from_rows(r9, [[3, 0, 0, 0], [0, 2, 0, 0], [0, 0, 0, 6]])
    d2 = Matrix.from_rows(r9, [[3, 0], [0, 0], [0, 4], [0, 0]])
    z = GradedFreeComplex(r9, 0, (3, 4, 2), (p[0] * d1 * q[1], p[1] * d2 * q[2]))
    sizes, calls = [], {"reduce_units": 0, "smith_normal_form": 0}
    real = complexes_mod.HomotopySystem.__init__

    def counted(self, y):
        sizes.append(sum(y.ranks))
        real(self, y)
    monkeypatch.setattr(complexes_mod.HomotopySystem, "__init__", counted)
    for mod, name in ((complexes_mod, "reduce_units"), (exactalg_mod, "smith_normal_form")):
        def tally(*args, real=getattr(mod, name), name=name):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(mod, name, tally)
    for y, gens, exponents, reduced in ((x, (3,), (1,), 2), (z, (3, 6), (2, 2), 5)):
        sizes.clear()
        calls.update(dict.fromkeys(calls, 0))
        res = find_structure(y, gens)
        assert res.exponents == exponents and check_structure(res.structure) == []
        assert calls == {"reduce_units": 1, "smith_normal_form": 1}
        assert sizes and max(sizes) <= reduced


def test_peel_rejects_non_contractible():
    x = two_term(2)
    m = HomotopyStructure(x, (2,), ((Matrix.from_rows(ZZ, [[1]]),),))
    with pytest.raises(ValueError):
        peel_top(m)


@pytest.mark.parametrize("ring", [ZZ, QQ, Zmod(7), Zmod(12)], ids=str)
def test_top_disk_rows_split_in_every_ring(ring):
    """The fold's disk rows in every ring, and the peel rows over Z, are the
    rows ``split_top_disk`` builds from their degree n - 1 blocks, and split
    exact.  One entry more in the complement basis breaks only the
    splitting, as the section need not be a chain map."""
    rng = random.Random(31)
    rows = [fold_general(m, n).disk_row for m, n in (
        (disk(ring, 2, 3, (2,)), 3),
        (suspend(koszul(ring, (2, 3)), 2), 4),
        (disk_pile(rng, ring, 3, (3,)), 3),
        (disk(ring, 2, 2, (2,)), 3))]  # below the ceiling, the disk is empty
    if ring == ZZ:
        rows += peel_to_disks(contractible_structure(rng, ZZ, 3, (2,)))
    for row in rows:
        n = row.sub.complex.top_degree
        basis = row.section.mat(n - 1)
        assert row == split_top_disk(row.total, row.sub, row.include.mat(n - 1),
                                     row.retraction.mat(n - 1), basis, row.project.mat(n - 1))
        assert row.defect() is None
        if not basis.cols:
            continue  # the last peel leaves a zero quotient
        bumped = basis.with_entry(0, 0, ring.add(basis.entry(0, 0), ring.one()))
        s = row.section
        mats = tuple(bumped if i == n - 1 else e for i, e in zip(s.source.degrees(), s.mats))
        bad = dataclasses.replace(row, section=ChainMap(s.source, s.target, 0, mats))
        assert bad.defect().startswith("row is not split exact: ")


# -- tensor products --------------------------------------------------


def tensor_complexes(x, y):
    """Total complex of the product, left factor first and sign (-1)^i on
    the right differential; summands are ordered by ascending left degree."""
    ring = x.ring
    lo = x.min_degree + y.min_degree
    hi = x.top_degree + y.top_degree

    def summands(n):
        return [(i, n - i) for i in x.degrees() if y.min_degree <= n - i <= y.top_degree]

    ranks = tuple(sum(x.rank(i) * y.rank(j) for i, j in summands(n))
                  for n in range(lo, hi + 1))
    diffs = []
    for n in range(lo + 1, hi + 1):
        rows_ix = summands(n - 1)
        cols_ix = summands(n)
        if not rows_ix or not cols_ix:
            diffs.append(Matrix.zeros(ring, sum(x.rank(i) * y.rank(j) for i, j in rows_ix),
                                      sum(x.rank(i) * y.rank(j) for i, j in cols_ix)))
            continue
        grid = []
        for (ri, rj) in rows_ix:
            row = []
            for (ci, cj) in cols_ix:
                shape = (x.rank(ri) * y.rank(rj), x.rank(ci) * y.rank(cj))
                if (ri, rj) == (ci - 1, cj):
                    row.append(x.diff(ci).kron(Matrix.identity(ring, y.rank(cj))))
                elif (ri, rj) == (ci, cj - 1):
                    sgn = ring.from_int(-1 if ci % 2 else 1)
                    row.append(Matrix.identity(ring, x.rank(ci))
                               .kron(y.diff(cj)).scale(sgn))
                else:
                    row.append(Matrix.zeros(ring, *shape))
            grid.append(row)
        diffs.append(Matrix.block(grid))
    return GradedFreeComplex(ring, lo, ranks, tuple(diffs))


def test_tensor_two_by_two_frozen():
    x = two_term(2)
    y = two_term(3)
    z = tensor_complexes(x, y)
    assert z.ranks == (1, 2, 1)
    assert z.diff(1) == Matrix.from_rows(ZZ, [[3, 2]])
    assert z.diff(2) == Matrix.from_rows(ZZ, [[2], [-3]])
    assert validate_complex(z) == []


def test_tensor_is_a_complex_and_euler_multiplicative():
    rng = random.Random(7)
    stair = staircase_structure((1,)).complex
    for _ in range(10):
        x = two_term(rng.randint(-3, 3))
        z = tensor_complexes(x, stair)
        assert validate_complex(z) == []
        assert z.euler_characteristic() == \
            x.euler_characteristic() * stair.euler_characteristic()
    w = tensor_complexes(stair, stair)
    assert validate_complex(w) == []
    assert sum(w.ranks) == sum(stair.ranks) ** 2


def test_module_tensor_matches_tensor_complexes():
    m = staircase_structure((2,))
    p = 2
    left = module_tensor(p, m)
    assert check_structure(left) == []
    assert left.complex == tensor_complexes(concentrated(ZZ, 0, p), m.complex)
    right = tensor_module(m, p)
    assert check_structure(right) == []
    assert right.complex == tensor_complexes(m.complex, concentrated(ZZ, 0, p))
    assert module_tensor(1, m).complex == m.complex
    assert tensor_module(m, 1) == m
