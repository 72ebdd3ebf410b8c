"""Fold construction: push a structured complex below a degree ceiling.

Given a null-homotopy structure on a complex concentrated in degrees at most
``n``, the fold removes the degree ``n`` part at the cost of squaring every
homotopy scalar.  The general construction takes the mapping cone of the
coevaluation comparison map into a shifted exterior-coefficient complex,
built one degree down where the fold sits, and divides out a canonical disk;
each object is built once, and the two split exact rows through that cone
are returned alongside the fold itself.  The disk row comes from
``constructions.split_cone_top``, as the independence certificate's rows
do.  The fold is checked through that row, as the kernel checks a derived
row end.

Below the ceiling (top degree < n) the degree ``n`` part is zero and the
fold is the input rescaled by its own scalars, on a window widened down to
degree n - d - 1.  ``fold`` builds that case directly and checks it once,
instead of building the cone and both rows; ``fold_general`` builds the
rows on either side of the ceiling, for the certificates that carry them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import ChainMap, GradedFreeComplex
from .constructions import (
    cone_mixed,
    desuspend,
    disk,
    split_cone_top,
    suspend,
    tensor_module,
)
from .exactalg import Matrix
from .koszul import (
    counit_map, exterior_basis, interleave_rows, koszul, star_matrices,
)
from .kernel import Row, check_structure, iso_defect, map_defect
from .structures import HomotopyStructure, restrict


def squared_scalars(m: HomotopyStructure) -> tuple:
    ring = m.complex.ring
    return tuple(ring.mul(s, s) for s in m.scalars)


def fold_once(m: HomotopyStructure, n: int) -> HomotopyStructure:
    """The fold of a single-generator structure below the ceiling ``n``.

    Refuses a generator count other than one and a ceiling below 2; it is
    otherwise ``fold(m, n)``, with scalar ``s**2``, and so folds through the
    comparison cone when the complex reaches ``n``.
    """
    if m.ngens != 1:
        raise ValueError("direct fold needs exactly one homotopy generator")
    if n < 2:
        raise ValueError("fold ceiling must be at least 2")
    return fold(m, n)


@dataclass(frozen=True)
class FoldData:
    """The general fold together with its two split exact rows.

    Both rows share their total, the mapping cone of minus the comparison
    map between the desuspended ends::

        coefficient block >--> cone -->> rescaled input   (coefficient_row)
        top disk          >--> cone -->> fold             (disk_row)

    The coefficient block is a shifted block of exterior-coefficient
    columns, the rescaled input is the input times its own scalars, and the
    top disk is a two-term disk on the top-degree part of the input.
    """

    coefficient_row: Row
    disk_row: Row

    @property
    def structure(self) -> HomotopyStructure:
        """The fold itself, the quotient of the disk row."""
        return self.disk_row.quotient


def fold_general(m: HomotopyStructure, n: int) -> FoldData:
    """Fold ``m`` below the ceiling ``n`` through the comparison-cone route.

    Requires ``n >= d`` (for ``d`` homotopy generators) and that the
    complex is concentrated in degrees at most ``n``.  For ``n == d`` the
    output reaches degree ``-1``.

    The cone sits where the fold uses it: the desuspended cone of the
    comparison f is the cone of -f between the desuspended ends, and its
    ``cone_mixed`` row is the coefficient row.  The fold is its quotient by
    the top disk, and ``split_cone_top`` builds that disk row on the cone's
    own matrices: below degree n - 2 the fold's differentials and operators
    are the cone's ``Matrix`` objects, and the fold projection is the
    identity.

    The comparison is taken of the desuspended input, at ambient n - 1, and
    is the comparison of ``m`` at n between the desuspended ends.  A word of
    k desuspended operators is (-1)^k times the word, and the counit sign
    (-1)^((n-1-d)k) is (-1)^k times (-1)^((n-d)k); the two signs cancel, so
    the map has the same matrices.  Its target is the desuspended wedge
    model: the wedge model suspended once, by n - d - 1, which scales no
    matrix when n - d - 1 is even.

    The cone is checked in full, then the disk row and its one scalar
    tuple; the fold's law follows, as for a derived row end in
    ``check_certificate``.  A caller that needs no row folds through
    ``fold``, which skips the cone below the ceiling.
    """
    x = m.complex
    ring = x.ring
    _refuse_fold(m, n)

    mx = desuspend(m)
    f, my = counit_map(mx, ambient=n - 1)
    coefficient_row = cone_mixed(
        ChainMap(mx.complex, my.complex, 0, tuple(-a for a in f.mats)), mx, my)
    c = coefficient_row.total

    # Canonical disk through the top of the cone: degree n holds the top of
    # the input, and the fold keeps the input's block in degree n - 1.
    dsk = desuspend(disk(ring, x.rank(n), n + 1, squared_scalars(m)))
    disk_row = split_cone_top(c, dsk, x.diff(n))

    problems = check_structure(c)
    if problems:
        raise AssertionError("fold cone is not a structure: " + problems[0])
    if not dsk.scalars == c.scalars == disk_row.quotient.scalars:
        raise AssertionError("fold disk, cone and fold differ in scalars")
    why = disk_row.defect()
    if why:
        raise AssertionError("fold disk " + why)
    return FoldData(coefficient_row, disk_row)


def _refuse_fold(m: HomotopyStructure, n: int) -> None:
    """Refuse input no fold below ``n`` takes, with the same message on
    either route."""
    if m.ngens == 0:
        raise ValueError("fold needs at least one homotopy generator")
    if m.complex.top_degree > n:
        raise ValueError("complex exceeds the fold ceiling")
    if n < m.ngens:
        raise ValueError("fold ceiling must be at least the generator count")


def fold(m: HomotopyStructure, n: int) -> HomotopyStructure:
    """The fold below ``n``, without its rows.

    At the ceiling (top degree n) it is ``fold_general(m, n).structure``.
    Below it the fold is the input rescaled by its own scalars, built
    directly: the window is [min(min_degree, n - d - 1), n - 1], the
    differentials are the input's, each operator is multiplied by its own
    scalar and the scalars are squared.  That is the general route's fold
    matrix for matrix, and it is checked once, in full.
    """
    x = m.complex
    if x.top_degree >= n:
        return fold_general(m, n).structure
    _refuse_fold(m, n)
    lo = min(x.min_degree, n - m.ngens - 1)
    cx = GradedFreeComplex(x.ring, lo, tuple(x.rank(i) for i in range(lo, n)),
                           tuple(x.diff(i) for i in range(lo + 1, n)))
    ops = tuple(tuple(m.op(g, i).scale(s) for i in range(lo, n - 1))
                for g, s in enumerate(m.scalars))
    folded = HomotopyStructure(cx, squared_scalars(m), ops)
    problems = check_structure(folded)
    if problems:
        raise AssertionError("fold output is not a structure: " + problems[0])
    return folded


def fold_block_map(phi: ChainMap, fold_x: HomotopyStructure, fold_y: HomotopyStructure,
                   n: int) -> ChainMap:
    """The degree 0 map the fold below ``n`` induces from ``phi``, unchecked.

    ``fold_x`` and ``fold_y`` are the folds of the source and the target
    (``fold``, or a ``FoldData.structure``).  In degree n - 1 it is phi
    itself, and below it the block sum of phi_n (x) id on the coefficient
    columns and phi_i.  The formula is additive, multiplicative and unital
    degree by degree, so it carries splitting identities over, also for
    maps that are not chain maps.  When both inputs stop below n, phi_n
    is 0 x 0 and the block sum is phi_i itself in every degree.
    """
    gx = fold_x.complex
    gy = fold_y.complex
    ring = gx.ring
    x, y = phi.source, phi.target
    d = fold_x.ngens
    if fold_y.ngens != d:
        raise ValueError("folds have different generator counts")
    top_mat = phi.mat(n)
    if not (top_mat.rows or top_mat.cols):
        return ChainMap(gx, gy, 0, tuple(phi.mat(i) for i in gx.degrees()))
    mats = []
    for i in gx.degrees():
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
    return ChainMap(gx, gy, 0, tuple(mats))


def fold_map(phi: ChainMap, fold_x: HomotopyStructure, fold_y: HomotopyStructure,
             n: int) -> ChainMap:
    """Push an equivariant degree 0 map through the fold below ``n``.

    ``fold_x`` and ``fold_y`` are the folds of the source and the target
    (see ``fold_block_map``).  ``phi`` must be a chain map between the
    inputs of the two folds that commutes with every homotopy operator; the
    result commutes with the folded operators, and is checked to.
    """
    out = fold_block_map(phi, fold_x, fold_y, n)
    why = map_defect("folded map", out, fold_x, fold_y)
    if why:
        raise AssertionError(why)
    return out


def disk_fold_iso(ring, rank: int, n: int, scalars: tuple):
    """Fold a disk and identify it with a shifted exterior complex.

    Returns ``(fold_data, target, iso)`` where ``target`` is the rescaled
    exterior complex on the disk's module, shifted up by ``n - d - 1``, and
    ``iso`` is an equivariant isomorphism from the fold onto it.
    """
    d = len(scalars)
    data = fold_general(disk(ring, rank, n, scalars), n)
    # The coefficient row's sub is the shifted coefficient block, built once.
    if data.structure != data.coefficient_row.sub:
        raise AssertionError("disk fold differs from the shifted coefficient block")
    target = suspend(restrict(tensor_module(koszul(ring, scalars), rank), scalars),
                     n - d - 1)
    # Row (a, j) of the iso is row (j, a) of id (x) unstar, where unstar, the
    # transposed star in that degree, is a signed permutation.
    ident = Matrix.identity(ring, rank)
    iso = ChainMap(data.structure.complex, target.complex, 0, tuple(
        interleave_rows(ident.kron(star.transpose()), star.cols)
        for star in star_matrices(ring, d)))
    # self-check: a chain map, inverted by its transpose, and equivariant
    why = iso_defect(iso, iso.transpose(), data.structure, target)
    if why:
        raise AssertionError(f"disk fold iso: {why}")
    return data, target, iso
