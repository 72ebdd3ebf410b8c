"""Fold construction: push a structured complex below a degree ceiling.

Given a null-homotopy structure on a complex concentrated in degrees at most
``n``, the fold removes the degree ``n`` part at the cost of squaring every
homotopy scalar.  The general construction runs through the coevaluation
comparison map into a shifted exterior-coefficient complex, takes its mapping
cone, and divides out a canonical disk; everything the surrounding theory
needs (both short exact sequence presentations and their arrows) is returned
alongside the fold itself.

For a single homotopy generator there is also a small direct model built from
explicit block matrices; ``fold_once_match_iso`` exhibits the canonical
isomorphism between the two.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import ChainMap, GradedFreeComplex
from .constructions import (
    cone_mixed,
    desuspend,
    direct_sum,
    disk,
    shift_map,
    suspend,
    tensor_module,
    module_tensor,
)
from .exactalg import Matrix
from .koszul import counit_map, exterior_basis, hodge_star, koszul, koszul_dual
from .structures import HomotopyStructure, check_structure, is_equivariant, restrict


def squared_scalars(m: HomotopyStructure) -> tuple:
    ring = m.complex.ring
    return tuple(ring.mul(s, s) for s in m.scalars)


def _padded_restrict(m: HomotopyStructure, n: int) -> HomotopyStructure:
    """Rescale by the structure scalars and extend the window up to n - 1.

    Used when the input already lives strictly below the ceiling: the fold
    does nothing except square the scalars, but the ambient construction
    still reports the window [n - d - 1, n - 1], so zero-rank degrees are
    appended to keep every code path shape-uniform.
    """
    x = m.complex
    d = m.ngens
    scaled = restrict(m, m.scalars)
    lo = min(x.min_degree, n - d - 1)
    hi = max(x.min_degree + len(x.ranks) - 1, n - 1)
    ranks = tuple(x.rank(i) for i in range(lo, hi + 1))
    diffs = tuple(x.diff(i) for i in range(lo + 1, hi + 1))
    cx = GradedFreeComplex(x.ring, lo, ranks, diffs)
    ops = tuple(
        tuple(scaled.op(g, i) for i in range(lo, hi))
        for g in range(d)
    )
    return HomotopyStructure(cx, scaled.scalars, ops)


def fold_once(m: HomotopyStructure, n: int) -> HomotopyStructure:
    """Direct single-generator fold below the ceiling ``n``.

    The degree ``n`` part is folded onto degree ``n - 2`` using the homotopy
    operator itself as the connecting differential.  Requires exactly one
    homotopy generator; the resulting structure has scalar ``s**2``.
    """
    if m.ngens != 1:
        raise ValueError("direct fold needs exactly one homotopy generator")
    x = m.complex
    ring = x.ring
    top = x.min_degree + len(x.ranks) - 1
    if n < 2:
        raise ValueError("fold ceiling must be at least 2")
    if top > n:
        raise ValueError("complex exceeds the fold ceiling")
    if top < n:
        return _padded_restrict(m, n)

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


@dataclass(frozen=True)
class FoldData:
    """The general fold together with its two exact presentations.

    ``structure`` is the fold itself.  ``cone`` is the (desuspended) mapping
    cone of the comparison map; it sits in two short exact sequences::

        coefficient_end >--> cone -->> base_end        (coefficient rows)
        disk_end        >--> cone -->> structure       (canonical disk)

    ``base_end`` is the input rescaled by its own scalars, ``coefficient_end``
    is a shifted block of exterior-coefficient columns, and ``disk_end`` is a
    two-term disk on the top-degree part of the input.
    """

    structure: HomotopyStructure
    cone: HomotopyStructure
    coefficient_end: HomotopyStructure
    base_end: HomotopyStructure
    coefficient_include: ChainMap
    base_project: ChainMap
    disk_end: HomotopyStructure
    disk_include: ChainMap
    fold_project: ChainMap


def fold_general(m: HomotopyStructure, n: int) -> FoldData:
    """Fold ``m`` below the ceiling ``n`` through the comparison-cone route.

    Requires ``n >= d`` (for ``d`` homotopy generators) and that the
    complex is concentrated in degrees at most ``n``.  For ``n == d`` the
    output reaches degree ``-1``.
    """
    x = m.complex
    ring = x.ring
    d = m.ngens
    if d == 0:
        raise ValueError("fold needs at least one homotopy generator")
    top = x.min_degree + len(x.ranks) - 1
    if top > n:
        raise ValueError("complex exceeds the fold ceiling")
    if n < d:
        raise ValueError("fold ceiling must be at least the generator count")

    f, coeff = counit_map(m, ambient=n)
    cone = cone_mixed(f, m, coeff)
    c = cone.structure
    cx = c.complex
    p = x.rank(n)

    # Canonical disk through the top of the cone: degree n + 1 is the
    # suspended top of the input, and its boundary lands as [I; -d_n].
    dsk = disk(ring, p, n + 1, squared_scalars(m))
    incl_n = Matrix.vstack(Matrix.identity(ring, p),
                           x.diff(n).scale(ring.neg(ring.one())))
    disk_incl = ChainMap(dsk.complex, cx, 0,
                         (incl_n, Matrix.identity(ring, cx.rank(n + 1))))
    if not disk_incl.is_chain_map():
        raise AssertionError("disk inclusion is not a chain map")
    if not is_equivariant(disk_incl, dsk, c):
        raise AssertionError("disk inclusion is not equivariant")

    # Quotient of the cone by the disk: drop degree n + 1 and the
    # coefficient block in degree n.
    lo = cx.min_degree
    keep = Matrix.vstack(Matrix.zeros(ring, p, x.rank(n - 1)),
                         Matrix.identity(ring, x.rank(n - 1)))
    q_top = Matrix.hstack(x.diff(n), Matrix.identity(ring, x.rank(n - 1)))
    ranks = tuple(cx.rank(i) for i in range(lo, n)) + (x.rank(n - 1),)
    diffs = tuple(cx.diff(i) for i in range(lo + 1, n)) + (cx.diff(n) * keep,)
    qx = GradedFreeComplex(ring, lo, ranks, diffs)
    ops = []
    for g in range(d):
        col = [c.op(g, i) for i in range(lo, n - 1)]
        col.append(q_top * c.op(g, n - 1))
        ops.append(tuple(col))
    q = HomotopyStructure(qx, c.scalars, tuple(ops))
    proj_mats = []
    for i in range(lo, lo + len(cx.ranks)):
        if i < n:
            proj_mats.append(Matrix.identity(ring, cx.rank(i)))
        elif i == n:
            proj_mats.append(q_top)
        else:
            proj_mats.append(Matrix.zeros(ring, 0, cx.rank(i)))
    proj = ChainMap(cx, qx, 0, tuple(proj_mats))

    data = FoldData(
        structure=desuspend(q),
        cone=desuspend(c),
        coefficient_end=desuspend(cone.sub),
        base_end=desuspend(cone.quotient),
        coefficient_include=shift_map(cone.include, -1),
        base_project=shift_map(cone.project, -1),
        disk_end=desuspend(dsk),
        disk_include=shift_map(disk_incl, -1),
        fold_project=shift_map(proj, -1),
    )
    for name, struct in (("fold", data.structure), ("cone", data.cone)):
        problems = check_structure(struct)
        if problems:
            raise AssertionError(f"{name} is not a structure: " + problems[0])
    if not data.fold_project.is_chain_map():
        raise AssertionError("fold projection is not a chain map")
    if not is_equivariant(data.fold_project, data.cone, data.structure):
        raise AssertionError("fold projection is not equivariant")
    return data


def fold(m: HomotopyStructure, n: int) -> HomotopyStructure:
    """The fold below ``n`` (general route), without the exact presentations."""
    return fold_general(m, n).structure


def fold_map(phi: ChainMap, fold_x: FoldData, fold_y: FoldData, n: int) -> ChainMap:
    """Push an equivariant degree 0 map through the fold below ``n``.

    ``phi`` must be a chain map between the inputs of the two folds that
    commutes with every homotopy operator; the result commutes with the
    folded operators.
    """
    gx = fold_x.structure.complex
    gy = fold_y.structure.complex
    ring = gx.ring
    x, y = phi.source, phi.target
    d = len(fold_x.structure.scalars)
    if len(fold_y.structure.scalars) != d:
        raise ValueError("folds have different generator counts")
    top_mat = phi.mat(n)
    mats = []
    for i in range(gx.min_degree, gx.min_degree + len(gx.ranks)):
        if i == n - 1:
            mats.append(phi.mat(n - 1))
        else:
            width = len(exterior_basis(d, n - 1 - i))
            mats.append(Matrix.block([
                [top_mat.kron(Matrix.identity(ring, width)),
                 Matrix.zeros(ring, top_mat.rows * width, x.rank(i))],
                [Matrix.zeros(ring, y.rank(i), top_mat.cols * width),
                 phi.mat(i)],
            ]))
    out = ChainMap(gx, gy, 0, tuple(mats))
    if not out.is_chain_map():
        raise AssertionError("folded map is not a chain map")
    if not is_equivariant(out, fold_x.structure, fold_y.structure):
        raise AssertionError("folded map is not equivariant")
    return out


def fold_once_match_iso(m: HomotopyStructure, n: int) -> ChainMap:
    """Equivariant isomorphism from the general fold onto the direct model.

    Only defined for a single homotopy generator with the complex reaching
    the ceiling: the general fold stores the folded top block first with a
    parity sign, the direct model stores it last.
    """
    x = m.complex
    ring = x.ring
    top = x.min_degree + len(x.ranks) - 1
    if m.ngens != 1 or top != n:
        raise ValueError("match iso needs one generator reaching the ceiling")
    gen = fold_general(m, n).structure
    small = fold_once(m, n)
    gx, sx = gen.complex, small.complex
    sign = ring.one() if n % 2 == 0 else ring.neg(ring.one())
    mats = []
    for i in range(gx.min_degree, gx.min_degree + len(gx.ranks)):
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
    if not iso.is_chain_map():
        raise AssertionError("match iso is not a chain map")
    if not iso.is_degreewise_invertible():
        raise AssertionError("match iso is not invertible")
    if not is_equivariant(iso, gen, small):
        raise AssertionError("match iso is not equivariant")
    return iso


def coefficient_block(ring, rank: int, scalars: tuple) -> HomotopyStructure:
    """Exterior-coefficient columns on a rank ``rank`` module, rescaled.

    This is the unshifted model of the coefficient end of the fold: the
    dual exterior complex tensored on the right of the module, with each
    homotopy operator rescaled by its own scalar.
    """
    return restrict(module_tensor(rank, koszul_dual(ring, scalars)), scalars)


def disk_fold_iso(ring, rank: int, n: int, scalars: tuple):
    """Fold a disk and identify it with a shifted exterior complex.

    Returns ``(fold_data, target, iso)`` where ``target`` is the rescaled
    exterior complex on the disk's module, shifted up by ``n - d - 1``, and
    ``iso`` is an equivariant isomorphism from the fold onto it.
    """
    d = len(scalars)
    dsk = disk(ring, rank, n, scalars)
    data = fold_general(dsk, n)
    expected = suspend(coefficient_block(ring, rank, scalars), n - d - 1)
    if data.structure != expected:
        raise AssertionError("disk fold differs from the shifted coefficient block")
    target = suspend(restrict(tensor_module(koszul(ring, scalars), rank), scalars),
                     n - d - 1)
    star = hodge_star(ring, scalars)
    gx = data.structure.complex
    tx = target.complex
    mats = []
    for i in range(gx.min_degree, gx.min_degree + len(gx.ranks)):
        k = i - gx.min_degree
        unstar = star.mat(k).transpose()  # a signed permutation
        low = exterior_basis(d, d - k)
        nb = len(low)
        high = len(exterior_basis(d, k))

        def entry(r, c, unstar=unstar, nb=nb, high=high):
            i_idx, j_row = divmod(r, rank)
            j_col, jj = divmod(c, nb)
            if j_row != j_col:
                return ring.zero()
            return unstar.entry(i_idx, jj)

        mats.append(Matrix.build(ring, high * rank, rank * nb, entry))
    iso = ChainMap(gx, tx, 0, tuple(mats))
    if not iso.is_chain_map():
        raise AssertionError("disk fold iso is not a chain map")
    if not iso.is_degreewise_invertible():
        raise AssertionError("disk fold iso is not invertible")
    if not is_equivariant(iso, data.structure, target):
        raise AssertionError("disk fold iso is not equivariant")
    return data, target, iso


def sum_fold_iso(ma: HomotopyStructure, mb: HomotopyStructure, n: int) -> ChainMap:
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
    for i in range(gx.min_degree, gx.min_degree + len(gx.ranks)):
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
    if not iso.is_chain_map():
        raise AssertionError("sum fold iso is not a chain map")
    if not iso.is_degreewise_invertible():
        raise AssertionError("sum fold iso is not invertible")
    if not is_equivariant(iso, fab.structure, target.structure):
        raise AssertionError("sum fold iso is not equivariant")
    return iso
