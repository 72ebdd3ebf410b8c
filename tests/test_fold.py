"""Fold construction: cone route, direct reference model, disk identification, sums."""

import dataclasses
import importlib
import random

import pytest

from homcert.complexes import ChainMap, GradedFreeComplex, check_ses, identity_map
from homcert.constructions import (
    cone_mixed, direct_sum, disk, identity_cone_contraction, mapping_cone,
    module_tensor, suspend,
)
from homcert.exactalg import Matrix, QQ, ZZ, Zmod
from homcert.fold import (
    disk_fold_iso,
    fold,
    fold_block_map,
    fold_general,
    fold_map,
    fold_once,
)
from homcert.kernel import check_structure, iso_defect
from homcert.koszul import exterior_basis, koszul, koszul_dual
from homcert.structures import (
    HomotopyStructure, find_structure, is_equivariant, restrict, structure_from_contraction,
)

fold_module = importlib.import_module("homcert.fold")  # the package exports a function `fold`


def two_term(entry, scalar, bottom=0):
    x = GradedFreeComplex(ZZ, bottom, (1, 1), (Matrix.from_rows(ZZ, [[entry]]),))
    res = find_structure(x, (scalar,))
    assert res.structure is not None
    return res.structure


def disk_pile(rng, ring, top, scalars, length=3):
    """Direct sum of a few disks with the given scalars, topped at ``top``."""
    total = disk(ring, rng.randint(1, 2), top, scalars)
    for _ in range(length - 1):
        deg = rng.randint(top - 3, top)
        total = direct_sum(total, disk(ring, rng.randint(1, 2), deg, scalars)).structure
    return total


def shifted_cone(rng, ring, top, s, t):
    """Cone on a map between two disks; its operators have corner terms."""
    r = rng.randint(1, 2)
    a = disk(ring, r, top - 1, (s,))
    b = disk(ring, r, top, (t,))
    mat = Matrix.build(ring, r, r,
                       lambda i, j: ring.from_int(rng.randint(-2, 2)))
    arrow = ChainMap(a.complex, b.complex, 0,
                     (Matrix.zeros(ring, 0, r), mat))
    assert arrow.is_chain_map()
    return cone_mixed(arrow, a, b).total


def test_fold_once_frozen_two_term():
    m = two_term(2, 2, bottom=1)
    g = fold_once(m, 2)
    assert g.complex.min_degree == 0
    assert g.complex.ranks == (1, 1)
    assert g.complex.diff(1) == Matrix.from_rows(ZZ, [[1]])
    assert g.op(0, 0) == Matrix.from_rows(ZZ, [[4]])
    assert g.scalars == (ZZ.from_int(4),)
    assert check_structure(g) == []


def test_fold_once_below_ceiling_pads_and_rescales():
    m = two_term(3, 3)
    g = fold_once(m, 4)
    scaled = restrict(m, m.scalars)
    assert g.scalars == (ZZ.from_int(9),)
    assert g.complex.min_degree == 0
    assert g.complex.top_degree == 3
    for i in g.complex.degrees():
        assert g.complex.rank(i) == m.complex.rank(i)
        assert g.complex.diff(i) == m.complex.diff(i)
        assert g.op(0, i) == scaled.op(0, i)


def test_fold_once_axioms_many():
    rng = random.Random(11)
    for trial in range(25):
        n = rng.randint(2, 5)
        s = rng.choice([2, 3, 5, -2])
        kind = trial % 3
        if kind == 0:
            m = disk_pile(rng, ZZ, n, (s,))
        elif kind == 1:
            m = shifted_cone(rng, ZZ, n, s, rng.choice([2, 3]))
        else:
            m = suspend(two_term(s, s), n - 1)
        g = fold_once(m, n)
        assert check_structure(g) == []
        assert g.scalars[0] == ZZ.mul(m.scalars[0], m.scalars[0])
        assert g.complex.rank(n - 2) == (m.complex.rank(n - 2)
                                         + m.complex.rank(n))


def direct_fold_reference(m, n):
    """Single-generator fold at the ceiling ``n``, from explicit block matrices.

    The degree ``n`` part is folded onto degree ``n - 2`` using the homotopy
    operator itself as the connecting differential; the result has scalar
    ``s**2`` and is checked to be a structure.
    """
    x = m.complex
    ring = x.ring
    if m.ngens != 1 or n < 2 or x.top_degree != n:
        raise ValueError("direct fold needs one generator reaching a ceiling >= 2")
    s = m.scalars[0]
    lo = min(x.min_degree, n - 2)
    ranks = []
    for i in range(lo, n):
        if i == n - 2:
            ranks.append(x.rank(n - 2) + x.rank(n))
        else:
            ranks.append(x.rank(i))
    diffs = []
    for i in range(lo + 1, n):
        if i == n - 1:
            diffs.append(Matrix.vstack(x.diff(n - 1), m.op(0, n - 1)))
        elif i == n - 2:
            diffs.append(Matrix.hstack(
                x.diff(n - 2),
                Matrix.zeros(ring, x.rank(n - 3), x.rank(n))))
        else:
            diffs.append(x.diff(i))
    ops = []
    for i in range(lo, n - 1):
        if i == n - 2:
            corner = (m.op(0, n - 2).scale(s)
                      - m.op(0, n - 2) * m.op(0, n - 3) * x.diff(n - 2))
            ops.append(Matrix.hstack(corner, x.diff(n).scale(s)))
        elif i == n - 3:
            ops.append(Matrix.vstack(
                m.op(0, n - 3).scale(s),
                Matrix.zeros(ring, x.rank(n), x.rank(n - 3))))
        else:
            ops.append(m.op(0, i).scale(s))
    folded = HomotopyStructure(
        GradedFreeComplex(ring, lo, tuple(ranks), tuple(diffs)),
        (ring.mul(s, s),),
        (tuple(ops),),
    )
    problems = check_structure(folded)
    if problems:
        raise AssertionError("fold output is not a structure: " + problems[0])
    return folded


def fold_once_match_iso(m, n):
    """Equivariant isomorphism from the general fold onto the direct model.

    Only defined for a single homotopy generator with the complex reaching
    the ceiling: the general fold stores the folded top block first with a
    parity sign, the direct model stores it last.
    """
    x = m.complex
    ring = x.ring
    if m.ngens != 1 or x.top_degree != n:
        raise ValueError("match iso needs one generator reaching the ceiling")
    gen = fold_general(m, n).structure
    small = direct_fold_reference(m, n)
    gx, sx = gen.complex, small.complex
    sign = ring.one() if n % 2 == 0 else ring.neg(ring.one())
    mats = []
    for i in gx.degrees():
        if i == n - 2:
            pn = x.rank(n)
            pl = x.rank(n - 2)
            mats.append(Matrix.block([
                [Matrix.zeros(ring, pl, pn), Matrix.identity(ring, pl)],
                [Matrix.identity(ring, pn).scale(sign), Matrix.zeros(ring, pn, pl)],
            ]))
        else:
            mats.append(Matrix.identity(ring, gx.rank(i)))
    iso = ChainMap(gx, sx, 0, tuple(mats))
    assert iso_defect(iso, iso.transpose(), gen, small) is None
    return iso


def test_fold_general_matches_direct_model():
    for ring in (ZZ, QQ, Zmod(7), Zmod(12)):
        rng = random.Random(5)
        for trial in range(10):
            n = rng.randint(2, 4)
            s = ring.from_int(rng.choice([2, 3, -2]))
            if trial % 2 == 0:
                m = disk_pile(rng, ring, n, (s,))
            else:
                m = shifted_cone(rng, ring, n, s, ring.from_int(3))
            iso = fold_once_match_iso(m, n)
            assert iso.source == fold_general(m, n).structure.complex
            assert iso.target == direct_fold_reference(m, n).complex


def coefficient_block(ring, rank: int, scalars: tuple) -> HomotopyStructure:
    """Exterior-coefficient columns on a rank ``rank`` module, rescaled.

    This is the unshifted model of the coefficient end of the fold: the
    dual exterior complex tensored on the right of the module, with each
    homotopy operator rescaled by its own scalar.
    """
    return restrict(module_tensor(rank, koszul_dual(ring, scalars)), scalars)


def test_fold_general_exact_rows():
    rng = random.Random(7)
    cases = [
        disk_pile(rng, ZZ, 3, (2,)),
        shifted_cone(rng, ZZ, 3, 3, 2),
        suspend(koszul(ZZ, (2, 3)), 1),
        restrict(disk_pile(rng, ZZ, 4, (2, 5)), (1, 1)),
    ]
    for m in cases:
        n = m.complex.top_degree
        data = fold_general(m, n)
        for part in (data.structure, data.disk_row.total, data.coefficient_row.sub,
                     data.coefficient_row.quotient, data.disk_row.sub):
            assert check_structure(part) == []
        assert check_ses(data.coefficient_row.include, data.coefficient_row.project) == []
        assert check_ses(data.disk_row.include, data.disk_row.project) == []
        assert is_equivariant(data.coefficient_row.include,
                              data.coefficient_row.sub, data.disk_row.total)
        assert is_equivariant(data.coefficient_row.project, data.disk_row.total, data.coefficient_row.quotient)
        assert is_equivariant(data.disk_row.include, data.disk_row.sub, data.disk_row.total)
        # The coefficient row is the shifted rescaled exterior block, and the
        # base row is the input rescaled by its own scalars, on the nose.
        d = m.ngens
        p = m.complex.rank(n)
        assert data.coefficient_row.sub == suspend(
            coefficient_block(ZZ, p, m.scalars), n - d - 1)
        assert data.coefficient_row.quotient == restrict(m, m.scalars)


def fold_inputs():
    rng = random.Random(11)
    return [disk_pile(rng, ZZ, 3, (2,)), shifted_cone(rng, ZZ, 4, 3, 2),
            suspend(koszul(ZZ, (2, 3)), 2), koszul(Zmod(12), (2, 3, 5))]


@pytest.mark.parametrize("case", range(4))
def test_fold_is_the_cone_below_degree_n_minus_2(case):
    """The fold is built on the cone's own matrices: the differentials out
    of degrees <= n - 2 and the operators out of degrees < n - 2 are the
    cone's objects, and the projection is the identity there."""
    m = fold_inputs()[case]
    n = m.complex.top_degree
    data = fold_general(m, n)
    fold_, cone, proj = data.structure, data.disk_row.total, data.disk_row.project
    gx, cx = fold_.complex, cone.complex
    assert gx.min_degree == cx.min_degree <= n - 2
    for i in range(gx.min_degree, n - 1):
        assert gx.rank(i) == cx.rank(i) and proj.mat(i).is_identity()
        assert i == gx.min_degree or gx.diff(i) is cx.diff(i)
        if i < n - 2:
            assert all(fold_.op(g, i) is cone.op(g, i) for g in range(m.ngens))


def bump(e: Matrix) -> Matrix:
    return e.with_entry(0, 0, e.ring.add(e.entry(0, 0), e.ring.one()))


def test_fold_rejects_a_corrupt_cone_operator_below_the_top(monkeypatch):
    """An operator the fold shares with the cone is caught by the cone's check."""
    m, n = suspend(koszul(ZZ, (2, 3)), 2), 4
    real = fold_module.cone_mixed

    def corrupt(f, mx, my):
        row = real(f, mx, my)
        c = row.total
        grid = c.ops[0]
        j = next(j for j, e in enumerate(grid) if e.rows and e.cols)
        assert c.complex.min_degree + j - 1 < n - 2  # shared with the fold once desuspended
        ops = (grid[:j] + (bump(grid[j]),) + grid[j + 1:],) + c.ops[1:]
        return dataclasses.replace(row, total=HomotopyStructure(c.complex, c.scalars, ops))

    monkeypatch.setattr(fold_module, "cone_mixed", corrupt)
    with pytest.raises(AssertionError, match="cone is not a structure"):
        fold_general(m, n)


def test_fold_rejects_a_corrupt_top_operator(monkeypatch):
    """The fold's own top operator is caught by the disk row's check."""
    m, n = suspend(koszul(ZZ, (2, 3)), 2), 4
    real = fold_module.split_cone_top
    tops = []

    def corrupt(*parts):
        row = real(*parts)
        q = row.quotient
        grid = q.ops[0]
        tops.append((q.complex.top_degree, grid[-1].rows * grid[-1].cols))
        ops = (grid[:-1] + (bump(grid[-1]),),) + q.ops[1:]
        return dataclasses.replace(row, quotient=HomotopyStructure(q.complex, q.scalars, ops))

    monkeypatch.setattr(fold_module, "split_cone_top", corrupt)
    with pytest.raises(AssertionError) as raised:
        fold_general(m, n)
    assert len(tops) == 1 and tops[0][0] == n - 1 and tops[0][1] > 0  # a nonempty top operator
    assert str(raised.value).startswith("fold")


@pytest.mark.parametrize("witness", ["section", "retraction"])
def test_fold_rejects_a_corrupt_disk_row_splitting(monkeypatch, witness):
    """The disk row's section and retraction are checked with the row: one
    entry moved breaks a split identity, since i is injective and p onto."""
    m, n = suspend(koszul(ZZ, (2, 3)), 2), 4
    real = fold_module.split_cone_top

    def corrupt(*parts):
        row = real(*parts)
        f = getattr(row, witness)
        j = next(j for j, e in enumerate(f.mats) if e.rows and e.cols)
        mats = f.mats[:j] + (bump(f.mats[j]),) + f.mats[j + 1:]
        return dataclasses.replace(row, **{witness: ChainMap(f.source, f.target, 0, mats)})

    monkeypatch.setattr(fold_module, "split_cone_top", corrupt)
    with pytest.raises(AssertionError, match="^fold disk row is not split exact: "):
        fold_general(m, n)


def test_fold_rejects_a_disk_in_other_scalars(monkeypatch):
    """``Row.defect`` compares no scalars, and below the ceiling the disk is
    empty, so only the fold's own scalar check sees a wrong disk."""
    real = fold_module.disk
    monkeypatch.setattr(fold_module, "disk", lambda ring, rank, top, scalars: real(
        ring, rank, top, tuple(ring.add(s, s) for s in scalars)))
    with pytest.raises(AssertionError, match="^fold disk, cone and fold differ in scalars$"):
        fold_general(two_term(2, 2), 4)


def test_fold_general_below_ceiling_is_rescaling():
    m = two_term(2, 2)
    data = fold_general(m, 4)
    scaled = restrict(m, m.scalars)
    assert data.structure.scalars == scaled.scalars
    for i in data.structure.complex.degrees():
        assert data.structure.complex.rank(i) == m.complex.rank(i)
        assert data.structure.complex.diff(i) == m.complex.diff(i)
        assert data.structure.op(0, i) == scaled.op(0, i)
    assert data.disk_row.sub.complex.rank(4) == 0


def test_fold_rejects_bad_windows():
    m = two_term(2, 2, bottom=3)
    with pytest.raises(ValueError):
        fold_once(m, 3)
    with pytest.raises(ValueError):
        fold_general(m, 3)
    k = koszul(ZZ, (2, 3))
    with pytest.raises(ValueError):
        fold_general(suspend(k, 1), 2)
    with pytest.raises(ValueError):
        fold_once(k, 4)


def test_disk_fold_frozen_smallest():
    data, target, iso = disk_fold_iso(ZZ, 1, 2, (3,))
    g = data.structure
    assert g.complex.min_degree == 0
    assert g.complex.ranks == (1, 1)
    assert g.complex.diff(1) == Matrix.from_rows(ZZ, [[3]])
    assert g.op(0, 0) == Matrix.from_rows(ZZ, [[3]])
    assert g.scalars == (ZZ.from_int(9),)
    assert iso.mat(0) == Matrix.from_rows(ZZ, [[1]])
    assert iso.mat(1) == Matrix.from_rows(ZZ, [[1]])


def test_disk_fold_iso_grid():
    rng = random.Random(13)
    for d in (1, 2):
        for n in range(d + 1, 5):
            for rank in (1, 2):
                scalars = tuple(rng.choice([2, 3, 5, -2]) for _ in range(d))
                data, target, iso = disk_fold_iso(ZZ, rank, n, scalars)
                assert iso.source == data.structure.complex
                assert iso.target == target.complex


def test_disk_fold_iso_modular():
    disk_fold_iso(Zmod(12), 2, 3, (6,))
    disk_fold_iso(Zmod(8), 1, 4, (2, 3))


def test_fold_map_identity_and_inclusion():
    rng = random.Random(3)
    s = 2
    ma = disk_pile(rng, ZZ, 3, (s,))
    mb = disk_pile(rng, ZZ, 3, (s,))
    summed = direct_sum(ma, mb)
    fa = fold_general(ma, 3)
    fab = fold_general(summed.structure, 3)
    pushed = fold_map(summed.include[0], fa.structure, fab.structure, 3)
    assert pushed.is_chain_map()
    ident = fold_map(identity_map(ma.complex), fa.structure, fa.structure, 3)
    for i in fa.structure.complex.degrees():
        assert ident.mat(i) == Matrix.identity(ZZ, fa.structure.complex.rank(i))


def test_fold_map_composes():
    rng = random.Random(9)
    s = 3
    ma = disk(ZZ, 2, 3, (s,))
    mb = disk_pile(rng, ZZ, 3, (s,))
    summed = direct_sum(ma, mb)
    fa = fold_general(ma, 3)
    fab = fold_general(summed.structure, 3)
    incl = fold_map(summed.include[0], fa.structure, fab.structure, 3)
    proj = fold_map(summed.project[0], fab.structure, fa.structure, 3)
    back = proj.compose(incl)
    for i in fa.structure.complex.degrees():
        assert back.mat(i) == Matrix.identity(ZZ, fa.structure.complex.rank(i))


def block_formula(phi, fold_x, n):
    """``fold_block_map``'s block sum, built in every degree of the fold."""
    ring, d = phi.source.ring, fold_x.ngens
    top = phi.mat(n)
    mats = []
    for i in fold_x.complex.degrees():
        if i == n - 1:
            mats.append(phi.mat(i))
            continue
        w = len(exterior_basis(d, n - 1 - i))
        mats.append(Matrix.block([
            [top.kron(Matrix.identity(ring, w)),
             Matrix.zeros(ring, top.rows * w, phi.source.rank(i))],
            [Matrix.zeros(ring, phi.target.rank(i), top.cols * w), phi.mat(i)]]))
    return mats


@pytest.mark.parametrize("ring", [ZZ, QQ, Zmod(7), Zmod(12)], ids=str)
def test_fold_block_map_below_the_ceiling_is_phi(ring):
    rng = random.Random(31)
    # (scalars, top of A, top of B, n): both below n, at n, and A at n with B below
    for scalars, top_a, top_b, n in (((2,), 2, 2, 4), ((3, 2), 2, 1, 3), ((5,), 3, 3, 3),
                                     ((2,), 3, 2, 3)):
        ma = disk_pile(rng, ring, top_a, scalars, length=2)
        mb = disk_pile(rng, ring, top_b, scalars, length=2)
        summed = direct_sum(ma, mb)
        fa, fb, fab = fold(ma, n), fold(mb, n), fold(summed.structure, n)
        for phi, fx, fy in ((summed.include[0], fa, fab), (summed.project[0], fab, fa),
                            (summed.include[1], fb, fab), (summed.project[1], fab, fb)):
            got = fold_block_map(phi, fx, fy, n)
            assert list(got.mats) == block_formula(phi, fx, n)
            if max(phi.source.top_degree, phi.target.top_degree) < n:
                assert all(got.mat(i) == phi.mat(i) for i in fx.complex.degrees())


def sum_fold_iso(ma, mb, n):
    """Identify the fold of a direct sum with the sum of the folds.

    Returns the basis-permutation isomorphism from ``fold(ma + mb)`` onto
    ``fold(ma) + fold(mb)``; no signs are involved.
    """
    summed = direct_sum(ma, mb)
    fab = fold_general(summed.structure, n)
    fa = fold_general(ma, n)
    fb = fold_general(mb, n)
    target = direct_sum(fa.structure, fb.structure)
    ring = ma.complex.ring
    d = ma.ngens
    pa = ma.complex.rank(n)
    pb = mb.complex.rank(n)
    gx = fab.structure.complex
    tx = target.structure.complex
    mats = []
    for i in gx.degrees():
        if i == n - 1:
            mats.append(Matrix.identity(ring, gx.rank(i)))
            continue
        w = len(exterior_basis(d, n - 1 - i))
        ra = ma.complex.rank(i)
        rb = mb.complex.rank(i)

        def entry(r, c, w=w, ra=ra, rb=rb):
            # source columns: [A_n ⊗ coeff | B_n ⊗ coeff | A_i | B_i]
            # target rows:    [A_n ⊗ coeff | A_i | B_n ⊗ coeff | B_i]
            if r < pa * w:
                src = r
            elif r < pa * w + ra:
                src = (pa + pb) * w + (r - pa * w)
            elif r < (pa + pb) * w + ra:
                src = pa * w + (r - pa * w - ra)
            else:
                src = r
            return ring.one() if src == c else ring.zero()

        mats.append(Matrix.build(ring, tx.rank(i), gx.rank(i), entry))
    iso = ChainMap(gx, tx, 0, tuple(mats))
    assert iso_defect(iso, iso.transpose(), fab.structure, target.structure) is None
    return iso


def test_sum_fold_iso_permutes():
    rng = random.Random(21)
    for _ in range(4):
        s = rng.choice([2, 3, 5])
        ma = disk_pile(rng, ZZ, 3, (s,), length=2)
        mb = disk_pile(rng, ZZ, 3, (s,), length=2)
        iso = sum_fold_iso(ma, mb, 3)
        for i in iso.source.degrees():
            assert iso.mat(i).rows == iso.mat(i).cols


def test_fold_of_contractible_cone():
    rng = random.Random(17)
    base = disk_pile(rng, ZZ, 2, (1,)).complex
    cone, _, _ = mapping_cone(identity_map(base))
    h = identity_cone_contraction(base)
    m = structure_from_contraction(cone, h, (4,))
    g = fold(m, cone.top_degree)
    assert check_structure(g) == []
    assert g.scalars == (ZZ.from_int(16),)
