"""Constructions on complexes with null-homotopy structures.

Everything here is matrix-level and exact: suspension and duality,
rank-one-window disks, direct sums, mapping cones together with their
canonical short exact sequences, transporting a structure across an
extension, splitting off the top degree as a disk, and tensor products.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .complexes import (
    ChainMap, GradedFreeComplex, find_contraction, identity_map, is_contraction,
)
from .exactalg import Matrix, ZZ, smith_normal_form, solve_right
from .structures import (
    HomotopyStructure, check_structure, is_equivariant, restrict,
)


# -- regrading --------------------------------------------------------


def suspend_complex(x: GradedFreeComplex, k: int = 1) -> GradedFreeComplex:
    """Shift degrees up by ``k`` and scale the differential by (-1)^k."""
    sign = x.ring.from_int(-1 if k % 2 else 1)
    return GradedFreeComplex(x.ring, x.min_degree + k, x.ranks,
                             tuple(d.scale(sign) for d in x.diffs))


def suspend(m: HomotopyStructure, k: int = 1) -> HomotopyStructure:
    """Suspend the complex and every operator; scalars are unchanged."""
    sign = m.complex.ring.from_int(-1 if k % 2 else 1)
    return HomotopyStructure(
        suspend_complex(m.complex, k), m.scalars,
        tuple(tuple(e.scale(sign) for e in grid) for grid in m.ops))


def desuspend(m: HomotopyStructure) -> HomotopyStructure:
    return suspend(m, -1)


def shift_map(f: ChainMap, k: int) -> ChainMap:
    """Reindex a degree 0 chain map along suspension; matrices are unchanged."""
    if f.shift != 0:
        raise ValueError("only degree 0 maps are reindexed")
    return ChainMap(suspend_complex(f.source, k), suspend_complex(f.target, k),
                    0, f.mats)


def dual(m: HomotopyStructure) -> HomotopyStructure:
    """Reflect degrees through the window and transpose all matrices.

    Degree i of the dual is the dual of degree lo + hi - i, so the window
    is preserved; transposing the axiom shows no signs are needed.
    """
    x = m.complex
    last = len(x.ranks) - 2
    xd = GradedFreeComplex(
        x.ring, x.min_degree, tuple(reversed(x.ranks)),
        tuple(x.diffs[last - j].transpose() for j in range(last + 1)))
    ops = tuple(
        tuple(grid[last - j].transpose() for j in range(last + 1))
        for grid in m.ops)
    return HomotopyStructure(xd, m.scalars, ops)


# -- disks ------------------------------------------------------------


def disk(ring, rank: int, n: int, scalars: Sequence) -> HomotopyStructure:
    """The identity complex in degrees n-1, n with operators s_g * id."""
    x = GradedFreeComplex(ring, n - 1, (rank, rank), (Matrix.identity(ring, rank),))
    ops = tuple((Matrix.scalar(ring, rank, ring.normalize(s)),) for s in scalars)
    return HomotopyStructure(x, tuple(scalars), ops)


# -- direct sums ------------------------------------------------------


@dataclass(frozen=True)
class DirectSum:
    structure: HomotopyStructure
    include: tuple    # (A -> A+B, B -> A+B)
    project: tuple    # (A+B -> A, A+B -> B)


def direct_sum(ma: HomotopyStructure, mb: HomotopyStructure) -> DirectSum:
    """Blockwise sum of two structures with the same scalars."""
    if ma.scalars != mb.scalars:
        raise ValueError("direct sum needs matching scalar tuples")
    a, b = ma.complex, mb.complex
    ring = a.ring
    lo = min(a.min_degree, b.min_degree)
    hi = max(a.top_degree, b.top_degree)
    ranks = tuple(a.rank(i) + b.rank(i) for i in range(lo, hi + 1))
    diffs = tuple(
        Matrix.block([
            [a.diff(i), Matrix.zeros(ring, a.rank(i - 1), b.rank(i))],
            [Matrix.zeros(ring, b.rank(i - 1), a.rank(i)), b.diff(i)]])
        for i in range(lo + 1, hi + 1))
    total = GradedFreeComplex(ring, lo, ranks, diffs)
    ops = tuple(
        tuple(Matrix.block([
            [ma.op(g, i), Matrix.zeros(ring, a.rank(i + 1), b.rank(i))],
            [Matrix.zeros(ring, b.rank(i + 1), a.rank(i)), mb.op(g, i)]])
            for i in range(lo, hi))
        for g in range(ma.ngens))
    structure = HomotopyStructure(total, ma.scalars, ops)
    ia = ChainMap(a, total, 0, tuple(
        Matrix.block([[Matrix.identity(ring, a.rank(i))],
                      [Matrix.zeros(ring, b.rank(i), a.rank(i))]])
        for i in a.degrees()))
    ib = ChainMap(b, total, 0, tuple(
        Matrix.block([[Matrix.zeros(ring, a.rank(i), b.rank(i))],
                      [Matrix.identity(ring, b.rank(i))]])
        for i in b.degrees()))
    pa = ChainMap(total, a, 0, tuple(
        Matrix.block([[Matrix.identity(ring, a.rank(i)),
                       Matrix.zeros(ring, a.rank(i), b.rank(i))]])
        for i in total.degrees()))
    pb = ChainMap(total, b, 0, tuple(
        Matrix.block([[Matrix.zeros(ring, b.rank(i), a.rank(i)),
                       Matrix.identity(ring, b.rank(i))]])
        for i in total.degrees()))
    return DirectSum(structure, (ia, ib), (pa, pb))


# -- mapping cones ----------------------------------------------------


def mapping_cone(f: ChainMap):
    """Cone complex C with C_i = Y_i + X_{i-1}, plus Y -> C -> suspend(X)."""
    if f.shift != 0:
        raise ValueError("cones are taken over degree 0 maps")
    x, y = f.source, f.target
    ring = y.ring
    lo = min(y.min_degree, x.min_degree + 1)
    hi = max(y.top_degree, x.top_degree + 1)
    ranks = tuple(y.rank(i) + x.rank(i - 1) for i in range(lo, hi + 1))
    neg = ring.from_int(-1)
    diffs = tuple(
        Matrix.block([
            [y.diff(i), f.mat(i - 1)],
            [Matrix.zeros(ring, x.rank(i - 2), y.rank(i)), x.diff(i - 1).scale(neg)]])
        for i in range(lo + 1, hi + 1))
    cone = GradedFreeComplex(ring, lo, ranks, diffs)
    incl = ChainMap(y, cone, 0, tuple(
        Matrix.block([[Matrix.identity(ring, y.rank(i))],
                      [Matrix.zeros(ring, x.rank(i - 1), y.rank(i))]])
        for i in y.degrees()))
    sx = suspend_complex(x)
    proj = ChainMap(cone, sx, 0, tuple(
        Matrix.block([[Matrix.zeros(ring, x.rank(i - 1), y.rank(i)),
                       Matrix.identity(ring, x.rank(i - 1))]])
        for i in cone.degrees()))
    return cone, incl, proj


@dataclass(frozen=True)
class ConeData:
    """A cone structure with its canonical short exact sequence.

    ``include`` and ``project`` are the arrows of
    target -> cone -> suspended source, and ``sub`` / ``quotient`` are the
    structures (at the cone's scalars) making both arrows equivariant.
    """

    structure: HomotopyStructure
    include: ChainMap
    project: ChainMap
    sub: HomotopyStructure
    quotient: HomotopyStructure


def cone_mixed(f: ChainMap, mx: HomotopyStructure, my: HomotopyStructure) -> ConeData:
    """Cone of any chain map between structured complexes.

    Generator g acts by [[t_g e_Y, e_Y f e_X], [0, -s_g e_X]] where s_g,
    t_g are the scalars on the target and the source; the cone carries the
    product scalars s_g * t_g.
    """
    if mx.ngens != my.ngens:
        raise ValueError("source and target need the same number of generators")
    x, y = f.source, f.target
    ring = y.ring
    cone, incl, proj = mapping_cone(f)
    ops = []
    for g in range(mx.ngens):
        t, s = mx.scalars[g], my.scalars[g]
        grid = []
        for i in list(cone.degrees())[:-1]:
            ey, ex = my.op(g, i), mx.op(g, i - 1)
            grid.append(Matrix.block([
                [ey.scale(t), my.op(g, i) * f.mat(i) * mx.op(g, i - 1)],
                [Matrix.zeros(ring, x.rank(i), y.rank(i)),
                 ex.scale(ring.neg(s))]]))
        ops.append(tuple(grid))
    scalars = tuple(ring.mul(my.scalars[g], mx.scalars[g]) for g in range(mx.ngens))
    structure = HomotopyStructure(cone, scalars, tuple(ops))
    sub = restrict(my, mx.scalars)
    quotient = restrict(suspend(mx), my.scalars)
    return ConeData(structure, incl, proj, sub, quotient)


def cone_same(f: ChainMap, mx: HomotopyStructure, my: HomotopyStructure) -> ConeData:
    """Cone of an equivariant map between structures with equal scalars.

    The diagonal operator [[e_Y, 0], [0, -e_X]] keeps the original scalars
    instead of squaring them; the map must intertwine the operators.
    """
    if mx.scalars != my.scalars:
        raise ValueError("cone_same needs equal scalar tuples")
    if not is_equivariant(f, mx, my):
        raise ValueError("cone_same needs an equivariant map")
    x, y = f.source, f.target
    ring = y.ring
    cone, incl, proj = mapping_cone(f)
    ops = tuple(
        tuple(Matrix.block([
            [my.op(g, i), Matrix.zeros(ring, y.rank(i + 1), x.rank(i - 1))],
            [Matrix.zeros(ring, x.rank(i), y.rank(i)),
             mx.op(g, i - 1).scale(ring.from_int(-1))]])
            for i in list(cone.degrees())[:-1])
        for g in range(mx.ngens))
    structure = HomotopyStructure(cone, mx.scalars, ops)
    return ConeData(structure, incl, proj, my, suspend(mx))


def identity_cone_contraction(x: GradedFreeComplex) -> ChainMap:
    """The closed-form contraction h(y, sx) = (0, sy) of the cone of id."""
    cone, _, _ = mapping_cone(identity_map(x))
    ring = x.ring
    mats = []
    for i in cone.degrees():
        mats.append(Matrix.block([
            [Matrix.zeros(ring, x.rank(i + 1), x.rank(i)),
             Matrix.zeros(ring, x.rank(i + 1), x.rank(i - 1))],
            [Matrix.identity(ring, x.rank(i)),
             Matrix.zeros(ring, x.rank(i), x.rank(i - 1))]]))
    h = ChainMap(cone, cone, 1, tuple(mats))
    if not is_contraction(h):
        raise AssertionError("identity cone contraction failed its own check")
    return h


# -- gluing a structure across an extension ---------------------------


def glue_extension(incl: ChainMap, proj: ChainMap, m_sub: HomotopyStructure,
                   m_quot: HomotopyStructure) -> HomotopyStructure:
    """Transport structures on the ends of an extension onto the middle.

    Given A -> B -> C degreewise split exact, with structures on A and C,
    produce operators z_g on B with scalar s_g t_g such that the inclusion
    and projection are equivariant after rescaling the ends.  The three
    defining identities are verified and a failure raises.
    """
    a, b, c = incl.source, incl.target, proj.target
    if proj.source != b or m_sub.complex != a or m_quot.complex != c:
        raise ValueError("maps and structures do not line up")
    if m_sub.ngens != m_quot.ngens:
        raise ValueError("ends need the same number of generators")
    ring = b.ring
    sigma = {}
    retract = {}
    for i in b.degrees():
        sec = solve_right(proj.mat(i), Matrix.identity(ring, c.rank(i)))
        if sec is None:
            raise ValueError(f"projection is not split surjective in degree {i}")
        sigma[i] = sec
        rem = Matrix.identity(ring, b.rank(i)) - sec * proj.mat(i)
        r = solve_right(incl.mat(i), rem)
        if r is None:
            raise ValueError(f"sequence is not exact as a split pair in degree {i}")
        retract[i] = r

    def sig(i):
        return sigma.get(i, Matrix.zeros(ring, b.rank(i), c.rank(i)))

    def ret(i):
        return retract.get(i, Matrix.zeros(ring, a.rank(i), b.rank(i)))

    grids = []
    for g in range(m_sub.ngens):
        s, t = m_sub.scalars[g], m_quot.scalars[g]
        # e'' = section . e_C . projection, then push the defect into A
        e2 = {i: sig(i + 1) * m_quot.op(g, i) * proj.mat(i) for i in b.degrees()}

        def e2_at(i):
            return e2.get(i, Matrix.zeros(ring, b.rank(i + 1), b.rank(i)))

        grid = []
        for i in list(b.degrees())[:-1]:
            defect = (b.diff(i + 1) * e2_at(i) + e2_at(i - 1) * b.diff(i)
                      - Matrix.scalar(ring, b.rank(i), t))
            lift = ret(i) * defect
            z = e2_at(i).scale(s) - incl.mat(i + 1) * m_sub.op(g, i) * lift
            grid.append(z)
        grids.append(tuple(grid))
    scalars = tuple(ring.mul(m_sub.scalars[g], m_quot.scalars[g])
                    for g in range(m_sub.ngens))
    glued = HomotopyStructure(b, scalars, tuple(grids))
    problems = check_structure(glued, check_complex=False)
    if problems:
        raise ValueError("glued operator violates the axiom: " + problems[0])
    if not is_equivariant(incl, restrict(m_sub, m_quot.scalars), glued):
        raise ValueError("glued operator is not compatible with the inclusion")
    if not is_equivariant(proj, glued, restrict(m_quot, m_sub.scalars)):
        raise ValueError("glued operator is not compatible with the projection")
    return glued


# -- peeling the top disk ---------------------------------------------


@dataclass(frozen=True)
class PeelStep:
    """One top-degree split: disk -> total -> quotient."""

    disk: HomotopyStructure
    include: ChainMap
    quotient: HomotopyStructure
    project: ChainMap
    contraction: ChainMap


def peel_top(m: HomotopyStructure,
             contraction: Optional[ChainMap] = None) -> PeelStep:
    """Split the top degree of a contractible structure off as a disk.

    Uses a contraction h to form the idempotent id - d h on the next
    degree, splits its image off over Z with one Smith form, and carries
    the operators over; the complement is the included disk on the top
    rank.  Needs at least a two-degree window.
    """
    x = m.complex
    if x.ring != ZZ:
        raise ValueError("peeling uses integral Smith splitting")
    if len(x.ranks) < 2:
        raise ValueError("nothing to peel in a one-degree window")
    h = contraction if contraction is not None else find_contraction(x)
    if h is None or not is_contraction(h):
        raise ValueError("peeling needs a contractible complex")
    n = x.top_degree
    ring = x.ring
    dn = x.diff(n)
    proj_top = dn * h.mat(n - 1)             # idempotent with image d_n(X_n)
    compl = Matrix.identity(ring, x.rank(n - 1)) - proj_top
    # U * compl * V = diag(1^r, 0): the first r columns of compl * V are a
    # basis of the image, and the first r rows of U * compl its coordinates.
    u, dd, v = smith_normal_form(compl)
    r = sum(1 for i in range(min(dd.rows, dd.cols)) if dd.ints[i][i] != 0)
    if any(dd.ints[i][i] != 1 for i in range(r)):
        raise ValueError("idempotent image is not a direct summand")
    basis = Matrix.from_ints(ring, compl.rows, r, tuple(row[:r] for row in (compl * v).ints))
    q = Matrix.from_ints(ring, r, compl.cols, (u * compl).ints[:r])
    if (basis * q != compl or q * basis != Matrix.identity(ring, r)
            or not (q * dn).is_zero()):
        raise ValueError("splitting of the idempotent failed")

    top_disk = disk(ring, x.rank(n), n, m.scalars)
    incl = ChainMap(top_disk.complex, x, 0, (dn, Matrix.identity(ring, x.rank(n))))

    ranks = x.ranks[:-2] + (r,)
    diffs = list(x.diffs[:-2])
    if len(x.ranks) >= 3:
        diffs.append(x.diff(n - 1) * basis)
    quot_cx = GradedFreeComplex(ring, x.min_degree, ranks, tuple(diffs))
    grids = []
    for g in range(m.ngens):
        grid = list(m.ops[g][:-1])
        if grid:
            grid[-1] = q * grid[-1]
        grids.append(tuple(grid))
    quotient = HomotopyStructure(quot_cx, m.scalars, tuple(grids))
    proj_mats = [Matrix.identity(ring, x.rank(i)) for i in range(x.min_degree, n - 1)]
    proj_mats.append(q)
    proj_mats.append(Matrix.zeros(ring, 0, x.rank(n)))
    proj = ChainMap(x, quot_cx, 0, tuple(proj_mats))

    bad = check_structure(quotient)
    if bad:
        raise AssertionError("peeled quotient lost the axiom: " + bad[0])
    if not (incl.is_chain_map() and proj.is_chain_map()):
        raise AssertionError("peel arrows are not chain maps")
    if not (is_equivariant(incl, top_disk, m) and is_equivariant(proj, m, quotient)):
        raise AssertionError("peel arrows are not equivariant")
    return PeelStep(top_disk, incl, quotient, proj, h)


def peel_to_disks(m: HomotopyStructure) -> list:
    """Peel a contractible structure down to nothing, one disk per degree.

    Returns exactly top - min steps; the final quotient is the zero module
    concentrated in the bottom degree.
    """
    steps = []
    current = m
    while len(current.complex.ranks) > 1:
        step = peel_top(current)
        steps.append(step)
        current = step.quotient
    if current.complex.ranks != (0,):
        raise ValueError("structure did not peel away completely")
    return steps


# -- tensor products --------------------------------------------------


def tensor_complexes(x: GradedFreeComplex, y: GradedFreeComplex) -> GradedFreeComplex:
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


def module_tensor(rank: int, m: HomotopyStructure) -> HomotopyStructure:
    """R^rank (x) M for a degree-0 module: every matrix becomes I (x) mat."""
    x = m.complex
    ring = x.ring
    ident = Matrix.identity(ring, rank)
    cx = GradedFreeComplex(ring, x.min_degree,
                           tuple(rank * r for r in x.ranks),
                           tuple(ident.kron(d) for d in x.diffs))
    ops = tuple(tuple(ident.kron(e) for e in grid) for grid in m.ops)
    return HomotopyStructure(cx, m.scalars, ops)


def tensor_module(m: HomotopyStructure, rank: int) -> HomotopyStructure:
    """M (x) R^rank for a degree-0 module: every matrix becomes mat (x) I."""
    x = m.complex
    ring = x.ring
    ident = Matrix.identity(ring, rank)
    cx = GradedFreeComplex(ring, x.min_degree,
                           tuple(rank * r for r in x.ranks),
                           tuple(d.kron(ident) for d in x.diffs))
    ops = tuple(tuple(e.kron(ident) for e in grid) for grid in m.ops)
    return HomotopyStructure(cx, m.scalars, ops)
