"""Constructions on complexes with null-homotopy structures.

Everything here is matrix-level and exact: suspension and duality,
rank-one-window disks, direct sums, mapping cones together with their
canonical short exact sequences, transporting a structure across an
extension, splitting off the top degree as a disk, and tensor products.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .complexes import (
    ChainMap, GradedFreeComplex, find_contraction, identity_map, is_contraction, zero_map,
)
from .exactalg import Matrix, smith_normal_form, solve_right
from .kernel import Row, check_structure, split_defect
from .structures import HomotopyStructure, is_equivariant, restrict


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
    """Blockwise sum of two structures with the same scalars.

    A + B is the cone row of the zero map from the desuspension of B to A:
    the desuspension and the cone each negate d_B, so the blocks are
    diagonal with the original matrices, and the transposes that split the
    cone's row are the other inclusion and projection.
    """
    if ma.scalars != mb.scalars:
        raise ValueError("direct sum needs matching scalar tuples")
    f = zero_map(suspend_complex(mb.complex, -1), ma.complex)
    row = _cone_row(f, ma, mb, _zero_corner(f))
    return DirectSum(row.total, (row.include, row.section), (row.retraction, row.project))


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
    # The -d_X block is the differential of the suspended source.
    sx = suspend_complex(x)
    diffs = tuple(
        Matrix.block([
            [y.diff(i), f.mat(i - 1)],
            [Matrix.zeros(ring, x.rank(i - 2), y.rank(i)), sx.diff(i)]])
        for i in range(lo + 1, hi + 1))
    cone = GradedFreeComplex(ring, lo, ranks, diffs)
    incl = ChainMap(y, cone, 0, tuple(
        Matrix.block([[Matrix.identity(ring, y.rank(i))],
                      [Matrix.zeros(ring, x.rank(i - 1), y.rank(i))]])
        for i in y.degrees()))
    proj = ChainMap(cone, sx, 0, tuple(
        Matrix.block([[Matrix.zeros(ring, x.rank(i - 1), y.rank(i)),
                       Matrix.identity(ring, x.rank(i - 1))]])
        for i in cone.degrees()))
    return cone, incl, proj


def _cone_row(f: ChainMap, sub: HomotopyStructure, quot: HomotopyStructure,
              corner) -> Row:
    """The canonical row sub >--> cone(f) -->> quot, unchecked: ``sub`` lives
    on the target of f, ``quot`` on the suspended source, with one scalar
    tuple.  Generator g acts out of degree i by [[e_sub, corner(g, i)],
    [0, e_quot]], the triangular shape of the cone's differential, and the
    transposes split the row: the section x -> (0, x), the retraction
    (y, x) -> y."""
    cone, incl, proj = mapping_cone(f)
    ops = tuple(tuple(
        Matrix.block([[sub.op(g, i), corner(g, i)],
                      [Matrix.zeros(cone.ring, quot.complex.rank(i + 1), sub.complex.rank(i)),
                       quot.op(g, i)]])
        for i in list(cone.degrees())[:-1]) for g in range(sub.ngens))
    return Row(sub, HomotopyStructure(cone, sub.scalars, ops), quot,
               incl, proj, proj.transpose(), incl.transpose())


def _zero_corner(f: ChainMap):
    """The corner of a diagonal cone operator: zero from X_(i-1) to Y_(i+1)."""
    return lambda g, i: Matrix.zeros(f.source.ring, f.target.rank(i + 1), f.source.rank(i - 1))


def cone_mixed(f: ChainMap, mx: HomotopyStructure, my: HomotopyStructure) -> Row:
    """Cone of any chain map between structured complexes, as the total of
    its canonical row target >--> cone -->> suspended source.

    Generator g acts by [[t_g e_Y, e_Y f e_X], [0, -s_g e_X]] where s_g,
    t_g are the scalars on the target and the source; the cone carries the
    product scalars s_g * t_g, and the ends are rescaled to match: their
    operators are the diagonal blocks t_g e_Y and -s_g e_X themselves.

    No self-check: the ends' laws and f being a chain map prove the
    output.  D = [[d_Y, f], [0, -d_X]] squares to zero, the diagonal blocks
    of D E + E D are t_g s_g, and substituting d_Y e_Y = s_g - e_Y d_Y,
    e_X d_X = t_g - d_X e_X and d_Y f = f d_X turns the off-diagonal block
    d_Y e_Y f e_X - e_Y f e_X d_X + t_g e_Y f - s_g f e_X into zero.
    """
    if mx.ngens != my.ngens:
        raise ValueError("source and target need the same number of generators")
    sub, neg = restrict(my, mx.scalars), mx.complex.ring.neg
    quot = HomotopyStructure(suspend_complex(mx.complex), sub.scalars, tuple(
        tuple(e.scale(neg(s)) for e in grid) for s, grid in zip(my.scalars, mx.ops)))
    return _cone_row(f, sub, quot, lambda g, i: my.op(g, i) * f.mat(i) * mx.op(g, i - 1))


def cone_same(f: ChainMap, mx: HomotopyStructure, my: HomotopyStructure) -> Row:
    """Cone of an equivariant map between structures with equal scalars,
    as the total of its canonical row (see ``cone_mixed``).

    The diagonal operator [[e_Y, 0], [0, -e_X]] keeps the original scalars
    instead of squaring them; the map must intertwine the operators.  The
    cone of the zero map is the direct sum (see ``direct_sum``).
    """
    if mx.scalars != my.scalars:
        raise ValueError("cone_same needs equal scalar tuples")
    if not is_equivariant(f, mx, my):
        raise ValueError("cone_same needs an equivariant map")
    return _cone_row(f, my, suspend(mx), _zero_corner(f))


def identity_cone_contraction(x: GradedFreeComplex) -> ChainMap:
    """The contraction h(y, sx) = (0, sy) of the cone of id: its row's own
    splitting, h_i = s_(i+1) r_i for the section s and retraction r."""
    cone, incl, proj = mapping_cone(identity_map(x))
    s, r = proj.transpose(), incl.transpose()
    h = ChainMap(cone, cone, 1, tuple(s.mat(i + 1) * r.mat(i) for i in cone.degrees()))
    if not is_contraction(h):
        raise AssertionError("identity cone contraction failed its own check")
    return h


# -- gluing a structure across an extension ---------------------------


def solve_splitting(include: ChainMap, project: ChainMap):
    """A degreewise splitting ``(section, retraction)`` of A -> B -> C.

    Solves p s = id on C and then i r = id - s p on B, degree by degree, and
    verifies the three splitting identities (``split_defect``); a row that
    is not degreewise split exact raises a ValueError naming the degree.
    """
    a, b, c = include.source, include.target, project.target
    ring = b.ring
    sections = []
    for i in c.degrees():
        sec = solve_right(project.mat(i), Matrix.identity(ring, c.rank(i)))
        if sec is None:
            raise ValueError(f"projection is not split surjective in degree {i}")
        sections.append(sec)
    section = ChainMap(c, b, 0, tuple(sections))
    retractions = []
    for i in b.degrees():
        r = solve_right(include.mat(i),
                        Matrix.identity(ring, b.rank(i)) - section.mat(i) * project.mat(i))
        if r is None:
            raise ValueError(f"sequence is not exact as a split pair in degree {i}")
        retractions.append(r)
    retraction = ChainMap(b, a, 0, tuple(retractions))
    why = split_defect(include, project, section, retraction)
    if why:
        raise ValueError("row is not split exact: " + why)
    return section, retraction


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
    section, retraction = solve_splitting(incl, proj)
    sig, ret = section.mat, retraction.mat

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
    problems = check_structure(glued)
    if problems:
        raise ValueError("glued structure is not valid: " + problems[0])
    if not is_equivariant(incl, restrict(m_sub, m_quot.scalars), glued):
        raise ValueError("glued operator is not compatible with the inclusion")
    if not is_equivariant(proj, glued, restrict(m_quot, m_sub.scalars)):
        raise ValueError("glued operator is not compatible with the projection")
    return glued


# -- peeling the top disk ---------------------------------------------


def split_top_disk(m: HomotopyStructure, dsk: HomotopyStructure, include: Matrix,
                   retract: Matrix, basis: Matrix, q: Matrix) -> Row:
    """The row dsk >--> m -->> quotient that splits a disk off the top of
    ``m``, unchecked.

    ``dsk`` sits in degrees n - 1, n and is all of ``m`` in degree n.  In
    degree n - 1 it enters by ``include`` and leaves by ``retract``, and
    ``basis`` and ``q`` span the complement: include retract + basis q = id.
    The quotient keeps every matrix below n - 1; its differential into
    degree n - 1 is d_(n-1) basis, and its operators out of n - 2 are q e.
    """
    x = m.complex
    ring = x.ring
    n, lo = dsk.complex.top_degree, x.min_degree
    qx = GradedFreeComplex(ring, lo, tuple(x.rank(i) for i in range(lo, n - 1)) + (q.rows,),
                           tuple(x.diff(i) * basis if i == n - 1 else x.diff(i)
                                 for i in range(lo + 1, n)))
    quotient = HomotopyStructure(qx, m.scalars, tuple(
        tuple(q * m.op(g, i) if i == n - 2 else m.op(g, i) for i in range(lo, n - 1))
        for g in range(m.ngens)))
    top = Matrix.identity(ring, x.rank(n))
    incl = ChainMap(dsk.complex, x, 0, (include, top))
    proj = ChainMap(x, qx, 0, tuple(
        Matrix.identity(ring, x.rank(i)) if i < n - 1 else q if i == n - 1
        else Matrix.zeros(ring, 0, x.rank(i)) for i in x.degrees()))
    section = ChainMap(qx, x, 0, tuple(
        basis if i == n - 1 else Matrix.identity(ring, x.rank(i)) for i in qx.degrees()))
    retraction = ChainMap(x, dsk.complex, 0, tuple(
        retract if i == n - 1 else top if i == n
        else Matrix.zeros(ring, 0, x.rank(i)) for i in x.degrees()))
    return Row(dsk, m, quotient, incl, proj, section, retraction)


def split_cone_top(m: HomotopyStructure, dsk: HomotopyStructure, dn: Matrix) -> Row:
    """``split_top_disk`` for a cone whose top differential is [I; -d_n],
    unchecked: the disk enters as [I; -d_n] and leaves by [I | 0], and
    [0; I] against [d_n | I] spans the complement."""
    ring = m.complex.ring
    eye_p, eye = Matrix.identity(ring, dn.cols), Matrix.identity(ring, dn.rows)
    zero = Matrix.zeros(ring, dn.cols, dn.rows)
    return split_top_disk(m, dsk, Matrix.vstack(eye_p, -dn), Matrix.hstack(eye_p, zero),
                          Matrix.vstack(zero, eye), Matrix.hstack(dn, eye))


def peel_top(m: HomotopyStructure) -> Row:
    """Split the top degree of a contractible structure off as a disk: the
    row disk >--> input -->> quotient, with its splitting.

    Finds a contraction h to form the idempotent id - d h on the next
    degree and splits its image off with one Smith form; that image is the
    complement of the disk, which enters by d_n and leaves by h.
    ``split_top_disk`` builds the row, which is then checked.  Needs at
    least a two-degree window, and a ring with a Smith form: Z or Z/p^e,
    where the image of an idempotent is free.  ``smith_normal_form``
    refuses Q and a composite Z/m.
    """
    x = m.complex
    if len(x.ranks) < 2:
        raise ValueError("nothing to peel in a one-degree window")
    h = find_contraction(x)  # checks its own output
    if h is None:
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
    # In degree n - 1, h d_n = id (the contraction at the top) and
    # d_n h + basis q = id split the row.
    row = split_top_disk(m, disk(ring, x.rank(n), n, m.scalars), dn, h.mat(n - 1), basis, q)

    bad = check_structure(row.quotient)
    if bad:
        raise AssertionError("peeled quotient lost the axiom: " + bad[0])
    why = row.defect()
    if why:
        raise AssertionError("peel " + why)
    return row


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


def module_tensor(rank: int, m: HomotopyStructure) -> HomotopyStructure:
    """R^rank (x) M for a degree-0 module: every matrix becomes I (x) mat,
    module index first.  For rank 1 that is ``m`` itself."""
    return _tensor(m, rank, module_first=True)


def tensor_module(m: HomotopyStructure, rank: int) -> HomotopyStructure:
    """M (x) R^rank for a degree-0 module: every matrix becomes mat (x) I,
    basis index of M first.  For rank 1 that is ``m`` itself."""
    return _tensor(m, rank, module_first=False)


def _tensor(m: HomotopyStructure, rank: int, module_first: bool) -> HomotopyStructure:
    """The body of both tensors with R^rank: they differ only in the order
    of the Kronecker factors.  A module of rank 1 returns ``m``, and no
    matrix is copied."""
    if rank == 1:
        return m
    x = m.complex
    ident = Matrix.identity(x.ring, rank)

    def tensor(a: Matrix) -> Matrix:
        return ident.kron(a) if module_first else a.kron(ident)

    cx = GradedFreeComplex(x.ring, x.min_degree, tuple(rank * r for r in x.ranks),
                           tuple(map(tensor, x.diffs)))
    return HomotopyStructure(cx, m.scalars, tuple(tuple(map(tensor, grid)) for grid in m.ops))
