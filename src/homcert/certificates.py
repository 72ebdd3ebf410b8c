"""Certificate builders: identities between classes of structured complexes.

The ambient group for a certificate is spanned by structures with a fixed
tuple of homotopy scalars, supported in degrees ``[0, ceiling]``, modulo
the relations generated by short exact rows, contractible objects and
equivariant isomorphisms.  A certificate names its objects in a registry,
lists evidence steps, and claims that a particular integer combination of
registered classes is zero.

Each builder returns a Certificate that ``kernel.check_certificate``
accepts, re-exported here, or raises a ValueError on input that leaves the
window; none is trusted by the checker.
"""

from __future__ import annotations

from .complexes import ChainMap, find_contraction, identity_map
from .constructions import (
    cone_same, direct_sum, disk, glue_extension, identity_cone_contraction,
    peel_to_disks, solve_splitting, split_cone_top, suspend,
)
from .fold import (
    disk_fold_iso, fold, fold_block_map, fold_general, fold_map, squared_scalars,
)
from .kernel import (
    Certificate, ClassExpr, Contractible, ExactRow, Isomorphism, Slot, _support,
    check_certificate,
)
from .structures import HomotopyStructure, restrict

__all__ = ["check_certificate", "disk_transport_certificate", "extension_certificate",
           "fold_defect_certificate", "fold_identity_certificate", "fold_row_certificates",
           "peel_chain_certificate", "structure_independence_certificate", "sum_certificate"]


def _in_window(ceiling: int, *structures: HomotopyStructure) -> None:
    """Refuse a structure supported outside [0, ceiling]: the kernel rejects it."""
    for m in structures:
        span = _support(m)
        if span and (span[0] < 0 or span[1] > ceiling):
            raise ValueError(f"support {span[0]}..{span[1]} leaves the window [0, {ceiling}]")


def _fold_window(m: HomotopyStructure, n: int) -> None:
    """Refuse a fold below ``n`` whose rows leave the window [0, n]: the input
    must lie in it, and the coefficient block starts in degree n - d - 1."""
    if n <= m.ngens:
        raise ValueError(f"a fold's ceiling must be above the number d of "
                         f"generators, got ceiling {n} with d = {m.ngens}")
    _in_window(n, m)


def sum_certificate(ma: HomotopyStructure, mb: HomotopyStructure,
                    ceiling: int) -> Certificate:
    """[A + B] = [A] + [B] through the split exact row."""
    _in_window(ceiling, ma, mb)
    ds = direct_sum(ma, mb)
    registry = (("left", ma), ("right", mb), ("sum", ds.structure))
    row = ExactRow("left", "sum", "right", ds.include[0], ds.project[1],
                   ds.include[1], ds.project[0])
    claim = ClassExpr.build([("sum", 1), ("left", -1), ("right", -1)])
    return Certificate(Slot(ma.scalars, ceiling), registry, (row,), claim)


def extension_certificate(include: ChainMap, project: ChainMap,
                          m_sub: HomotopyStructure,
                          m_total: HomotopyStructure,
                          m_quot: HomotopyStructure,
                          ceiling: int) -> Certificate:
    """[total] = [sub] + [quotient] for any degreewise split exact row.

    The splitting is solved here (``solve_splitting``); a row without one
    raises a ValueError naming the degree.
    """
    _in_window(ceiling, m_sub, m_total, m_quot)
    registry = (("sub", m_sub), ("total", m_total), ("quotient", m_quot))
    row = ExactRow("sub", "total", "quotient", include, project,
                   *solve_splitting(include, project))
    claim = ClassExpr.build([("total", 1), ("sub", -1), ("quotient", -1)])
    return Certificate(Slot(m_total.scalars, ceiling), registry, (row,), claim)


def fold_row_certificates(m: HomotopyStructure, n: int):
    """The two exact rows of the fold construction, certified separately.

    First the coefficient row (shifted exterior block into the comparison
    cone onto the rescaled input), then the disk row (top disk into the
    comparison cone onto the fold).  Requires n > d and the input in [0, n].
    """
    _fold_window(m, n)
    data = fold_general(m, n)
    slot = Slot(squared_scalars(m), n)
    certs = []
    for names, row in ((("coefficient", "cone", "base"), data.coefficient_row),
                       (("top_disk", "cone", "fold"), data.disk_row)):
        sub, total, quotient = names
        registry = tuple(zip(names, (row.sub, row.total, row.quotient)))
        claim = ClassExpr.build([(total, 1), (sub, -1), (quotient, -1)])
        certs.append(Certificate(slot, registry, (ExactRow(*names, *row.maps),), claim))
    return tuple(certs)


def fold_defect_certificate(m: HomotopyStructure, n: int) -> Certificate:
    """[rescaled input] - [fold] - (-1)^(n-d) [coefficient block] = 0.

    Works for any structure supported in degrees within [0, n] with n > d;
    the coefficient block is taken on the degree n part of the input.
    """
    d = m.ngens
    _fold_window(m, n)
    data = fold_general(m, n)
    coeff_row, disk_row = data.coefficient_row, data.disk_row
    # the coefficient row's sub is the block shifted up by n - d - 1
    shifts = [suspend(coeff_row.sub, j - (n - d - 1)) for j in range(n - d)]
    top_name = f"block_up_{n - d - 1}"
    registry = [("base", coeff_row.quotient),
                ("fold", data.structure),
                ("cone", coeff_row.total),
                ("top_disk", disk_row.sub)]
    registry += [(f"block_up_{j}", shifts[j]) for j in range(n - d)]

    steps = [
        ExactRow(top_name, "cone", "base", *coeff_row.maps, mult=-1),
        ExactRow("top_disk", "cone", "fold", *disk_row.maps, mult=1),
    ]
    h = find_contraction(disk_row.sub.complex)
    if h is None:
        raise AssertionError("top disk has no contraction")
    steps.append(Contractible("top_disk", h, mult=1))
    # [block_up_j] = -[block_up_{j+1}] through the cone of the identity,
    # which is contractible: block_up_j >--> cone_up_j -->> block_up_{j+1}.
    coeff = 1
    for j in range(n - d - 2, -1, -1):
        b = shifts[j]
        cone = cone_same(identity_map(b.complex), b, b)
        registry.append((f"cone_up_{j}", cone.total))
        steps += [ExactRow(f"block_up_{j}", f"cone_up_{j}", f"block_up_{j + 1}",
                           *cone.maps, mult=coeff),
                  Contractible(f"cone_up_{j}", identity_cone_contraction(b.complex),
                               mult=-coeff)]
        coeff = -coeff
    claim = ClassExpr.build([("base", 1), ("fold", -1), ("block_up_0", coeff)])
    return Certificate(Slot(squared_scalars(m), n), tuple(registry),
                       tuple(steps), claim)


def fold_identity_certificate(m: HomotopyStructure, n: int) -> Certificate:
    """Below the ceiling the fold is plain rescaling: [fold] = [base].

    Requires the input to be supported in degrees within [0, n - 1]; the
    certificate lives one ceiling lower than the fold was taken at.
    """
    _in_window(n - 1, m)
    folded = fold(m, n)
    base = restrict(m, m.scalars)
    g = folded.complex
    iso = ChainMap(g, base.complex, 0, identity_map(g).mats)
    registry = (("fold", folded), ("base", base))
    step = Isomorphism("fold", "base", iso, iso.transpose())
    claim = ClassExpr.build([("fold", 1), ("base", -1)])
    return Certificate(Slot(squared_scalars(m), n - 1), registry, (step,), claim)


def disk_transport_certificate(ring, rank: int, n: int, scalars) -> Certificate:
    """The folded disk is the shifted coefficient block, by explicit iso.

    Requires ``n >= len(scalars) + 1`` so the shifted block stays in
    nonnegative degrees.
    """
    d = len(scalars)
    if n < d + 1:
        raise ValueError("ceiling too low for a nonnegative shifted block")
    data, target, iso = disk_fold_iso(ring, rank, n, scalars)
    registry = (("fold", data.structure), ("shifted_block", target))
    step = Isomorphism("fold", "shifted_block", iso, iso.transpose())
    claim = ClassExpr.build([("fold", 1), ("shifted_block", -1)])
    return Certificate(Slot(data.structure.scalars, n - 1), registry,
                       (step,), claim)


def peel_chain_certificate(m: HomotopyStructure, ceiling: int) -> Certificate:
    """A contractible structure is the sum of the disks peeled off its top.

    Splits one disk off the top at a time; each split is an exact row, so
    the telescoping sum expresses [input] as the sum of the disk classes
    once the zero-ranked remainder is discharged.
    """
    _in_window(ceiling, m)
    steps = []
    registry = [("stage_0", m)]
    chain = peel_to_disks(m)
    claim_terms = [("stage_0", 1)]
    for k, peel in enumerate(chain):
        registry.append((f"disk_{k}", peel.sub))
        registry.append((f"stage_{k + 1}", peel.quotient))
        steps.append(ExactRow(f"disk_{k}", f"stage_{k}", f"stage_{k + 1}", *peel.maps))
        claim_terms.append((f"disk_{k}", -1))
    last = chain[-1].quotient if chain else m
    h = find_contraction(last.complex)
    if h is None:
        raise AssertionError("peel remainder has no contraction")
    steps.append(Contractible(f"stage_{len(chain)}", h, mult=1))
    claim = ClassExpr.build(claim_terms)
    return Certificate(Slot(m.scalars, ceiling), tuple(registry),
                       tuple(steps), claim)


def structure_independence_certificate(m1: HomotopyStructure,
                                       m2: HomotopyStructure,
                                       n: int) -> Certificate:
    """Two structures on one complex agree after rescaling by scalars cubed.

    Claims [restrict(m1, s^3)] = [restrict(m2, s^3)] at ceiling ``n``.  Both
    sides are glued onto the contractible cone of the identity, folded below
    ``n + 1``, and compared through the shared quotient; the folded cones
    are then emptied out against the same folded top disk.  The cone's top
    differential is [I; -d_top], so ``split_cone_top`` splits that disk off
    both cones in every ring, with no Smith form, and each row is checked
    with ``Row.defect``.  No row of a fold is used, so each object folds
    through ``fold``: the four that stop below degree n + 1 are rescaled
    directly, and only those that reach it (at n = top(X): the shared
    quotient, both cones and the top disk) build the comparison cone.
    """
    x = m1.complex
    if m2.complex != x:
        raise ValueError("the structures must live on the same complex")
    if m1.scalars != m2.scalars:
        raise ValueError("the structures must share their scalars")
    s = m1.scalars
    ceiling = n + 1
    _in_window(n, m1)

    left = restrict(m1, s)
    right = restrict(m2, s)
    shared = suspend(right, 1)
    # Both middles live on the cone of the identity and share its arrows.
    plain = cone_same(identity_map(x), right, right)
    glued = glue_extension(plain.include, plain.project, m1, suspend(m2))

    f_left = fold(left, ceiling)
    f_right = fold(right, ceiling)
    f_shared = fold(shared, ceiling)
    f_glued = fold(glued, ceiling)
    f_plain = fold(plain.total, ceiling)

    top = x.top_degree
    dsk = disk(x.ring, x.rank(top), top + 1, glued.scalars)
    peel_g, peel_p = (split_cone_top(c, dsk, x.diff(top)) for c in (glued, plain.total))
    for row in (peel_g, peel_p):
        why = row.defect()
        if why:
            raise AssertionError("top disk " + why)
    f_disk = fold(dsk, ceiling)
    f_tail_g = fold(peel_g.quotient, ceiling)
    f_tail_p = fold(peel_p.quotient, ceiling)

    registry = (
        ("left_end", f_left),
        ("right_end", f_right),
        ("shared_quotient", f_shared),
        ("glued_fold", f_glued),
        ("cone_fold", f_plain),
        ("disk_fold", f_disk),
        ("tail_glued", f_tail_g),
        ("tail_cone", f_tail_p),
    )
    _in_window(n, *(struct for _, struct in registry))  # a fold may reach degree n - d

    def folded_row(names, arrows, folds, mult):
        # The splitting goes through the same block formula as the arrows.
        (include, project, section, retraction), (f_sub, f_tot, f_quot) = arrows, folds
        return ExactRow(*names,
                        fold_map(include, f_sub, f_tot, ceiling),
                        fold_map(project, f_tot, f_quot, ceiling),
                        fold_block_map(section, f_quot, f_tot, ceiling),
                        fold_block_map(retraction, f_tot, f_sub, ceiling), mult=mult)

    steps = [
        folded_row(("left_end", "glued_fold", "shared_quotient"), plain.maps,
                   (f_left, f_glued, f_shared), -1),
        folded_row(("right_end", "cone_fold", "shared_quotient"), plain.maps,
                   (f_right, f_plain, f_shared), 1),
        folded_row(("disk_fold", "glued_fold", "tail_glued"), peel_g.maps,
                   (f_disk, f_glued, f_tail_g), 1),
        folded_row(("disk_fold", "cone_fold", "tail_cone"), peel_p.maps,
                   (f_disk, f_plain, f_tail_p), -1),
    ]
    for name, struct, mult in (("tail_glued", f_tail_g, 1), ("tail_cone", f_tail_p, -1)):
        h = find_contraction(struct.complex)
        if h is None:
            raise AssertionError(f"{name} has no contraction")
        steps.append(Contractible(name, h, mult=mult))

    claim = ClassExpr.build([("left_end", 1), ("right_end", -1)])
    return Certificate(Slot(f_left.scalars, n), tuple(registry),
                       tuple(steps), claim)
