"""The cone row builders against the routes they replaced.

``cone_mixed``, ``cone_same`` and ``direct_sum`` now build their row
through one cone-row builder, the contraction of the cone of the identity
is that row's own splitting, and ``split_row`` takes its total complex from
the cone of a zero map.  Each ``*_reference`` below is the earlier
construction, kept here as the oracle: the mixed cone with its operator,
sub and quotient blocks written out, the same-scalar cone with its
diagonal blocks, the contraction assembled from identity and zero blocks,
and the split row over the block-diagonal sum of the two complexes.  The
current code must agree with each of them exactly, in every ring.
"""

import random
from fractions import Fraction

import pytest

from homcert.complexes import ChainMap, GradedFreeComplex, identity_map, zero_map
from homcert.constructions import (
    cone_mixed, cone_same, desuspend, direct_sum, disk, glue_extension,
    identity_cone_contraction, mapping_cone, suspend,
)
from homcert.exactalg import Matrix, QQ, ZZ, Zmod
from homcert.kernel import Row, check_structure
from homcert.randgen import random_structure, split_row
from homcert.structures import HomotopyStructure, restrict

RINGS = {"Z": ZZ, "Q": QQ, "Z7": Zmod(7), "Z12": Zmod(12)}
SCALARS = {"Z": (2, 3, -2, 5), "Q": (2, Fraction(1, 2), -3, Fraction(5, 3)),
           "Z7": (2, 3, 5, 6), "Z12": (2, 3, 5, 7)}


def cone_mixed_reference(f, mx, my):
    """``cone_mixed`` with every block of its operators and ends written out."""
    x, y = f.source, f.target
    ring = y.ring
    cone, incl, proj = mapping_cone(f)
    degrees = list(cone.degrees())[:-1]
    ops, sub_ops, quot_ops = [], [], []
    for g in range(mx.ngens):
        t, s = mx.scalars[g], my.scalars[g]
        ey = {i: my.op(g, i).scale(t) for i in degrees}
        ex = {i: mx.op(g, i - 1).scale(ring.neg(s)) for i in degrees}
        ops.append(tuple(Matrix.block([
            [ey[i], my.op(g, i) * f.mat(i) * mx.op(g, i - 1)],
            [Matrix.zeros(ring, x.rank(i), y.rank(i)), ex[i]]]) for i in degrees))
        sub_ops.append(tuple(ey[i] for i in list(my.complex.degrees())[:-1]))
        quot_ops.append(tuple(ex[i] for i in list(proj.target.degrees())[:-1]))
    scalars = tuple(ring.mul(my.scalars[g], mx.scalars[g]) for g in range(mx.ngens))
    return Row(HomotopyStructure(my.complex, scalars, tuple(sub_ops)),
               HomotopyStructure(cone, scalars, tuple(ops)),
               HomotopyStructure(proj.target, scalars, tuple(quot_ops)),
               incl, proj, proj.transpose(), incl.transpose())


def cone_same_reference(f, mx, my):
    """``cone_same`` without its input checks, with diagonal blocks."""
    x, y = f.source, f.target
    ring = y.ring
    cone, incl, proj = mapping_cone(f)
    degrees = list(cone.degrees())[:-1]
    neg = ring.from_int(-1)
    ops, quot_ops = [], []
    for g in range(mx.ngens):
        ex = {i: mx.op(g, i - 1).scale(neg) for i in degrees}
        ops.append(tuple(Matrix.block([
            [my.op(g, i), Matrix.zeros(ring, y.rank(i + 1), x.rank(i - 1))],
            [Matrix.zeros(ring, x.rank(i), y.rank(i)), ex[i]]]) for i in degrees))
        quot_ops.append(tuple(ex[i] for i in list(proj.target.degrees())[:-1]))
    return Row(my, HomotopyStructure(cone, mx.scalars, tuple(ops)),
               HomotopyStructure(proj.target, mx.scalars, tuple(quot_ops)),
               incl, proj, proj.transpose(), incl.transpose())


def direct_sum_reference(ma, mb):
    """A + B as the same-scalar cone of the zero map from the desuspension of B."""
    mx = desuspend(mb)
    row = cone_same_reference(zero_map(mx.complex, ma.complex), mx, ma)
    return row.total, (row.include, row.section), (row.retraction, row.project)


def identity_cone_contraction_reference(x):
    """h(y, sx) = (0, sy) on the cone of id, assembled from blocks."""
    cone, _, _ = mapping_cone(identity_map(x))
    ring = x.ring
    return ChainMap(cone, cone, 1, tuple(
        Matrix.block([
            [Matrix.zeros(ring, x.rank(i + 1), x.rank(i)),
             Matrix.zeros(ring, x.rank(i + 1), x.rank(i - 1))],
            [Matrix.identity(ring, x.rank(i)),
             Matrix.zeros(ring, x.rank(i), x.rank(i - 1))]])
        for i in cone.degrees()))


def split_row_reference(rng, ring, sub, quot):
    """``split_row`` over the block-diagonal sum of the two complexes."""
    a, c = sub.complex, quot.complex
    lo = min(a.min_degree, c.min_degree)
    hi = max(a.top_degree, c.top_degree)
    ranks = tuple(a.rank(i) + c.rank(i) for i in range(lo, hi + 1))
    diffs = tuple(
        Matrix.block([
            [a.diff(i), Matrix.zeros(ring, a.rank(i - 1), c.rank(i))],
            [Matrix.zeros(ring, c.rank(i - 1), a.rank(i)), c.diff(i)]])
        for i in range(lo + 1, hi + 1))
    total = GradedFreeComplex(ring, lo, ranks, diffs)
    sigma = {i: Matrix.build(ring, c.rank(i + 1), a.rank(i),
                             lambda r, s: ring.from_int(rng.randint(-1, 1)))
             for i in range(lo, hi + 1)}

    def sig(i):
        return sigma.get(i, Matrix.zeros(ring, c.rank(i + 1), a.rank(i)))

    def twist(i):
        return c.diff(i + 1) * sig(i) + sig(i - 1) * a.diff(i)

    include = ChainMap(a, total, 0, tuple(
        Matrix.vstack(Matrix.identity(ring, a.rank(i)), twist(i))
        for i in a.degrees()))
    project = ChainMap(total, c, 0, tuple(
        Matrix.hstack(-twist(i), Matrix.identity(ring, c.rank(i)))
        for i in total.degrees()))
    return include, project


def assert_same_row(row, ref):
    for name in ("sub", "total", "quotient", "include", "project", "section", "retraction"):
        assert getattr(row, name) == getattr(ref, name), name


def structures(rname, seed):
    """Random structures with 0-2 generators, some shifted, some padded by
    rank-0 degrees at either end of the window."""
    ring, rng = RINGS[rname], random.Random(f"{rname}/{seed}")
    scalars = SCALARS[rname][:seed % 3]
    out = []
    for _ in range(3):
        m = random_structure(rng, ring, rng.randint(1, 3), scalars)
        k = rng.choice((-2, -1, 0, 0, 2))
        if k:
            m = suspend(m, k)
        pad = rng.choice((None, m.complex.top_degree + 2, m.complex.min_degree - 1))
        if pad is not None:
            m = direct_sum(m, disk(ring, 0, pad, scalars)).structure
        out.append(m)
    return ring, rng, scalars, out


CASES = [(rname, seed) for rname in RINGS for seed in range(6)]


def twisted(rng, m):
    """``m`` with each operator e moved to e + d sigma - sigma d for a random
    degree +2 map sigma: a second structure on the same complex, with the
    same scalars, that the identity does not intertwine with the first."""
    x, ring = m.complex, m.complex.ring

    def sigma(i):
        return Matrix.build(ring, x.rank(i + 2), x.rank(i),
                            lambda r, c: ring.from_int(rng.randint(-1, 1)))

    grids = []
    for g in range(m.ngens):
        sig = {i: sigma(i) for i in range(x.min_degree - 1, x.top_degree)}
        grids.append(tuple(m.op(g, i) + x.diff(i + 2) * sig[i] - sig[i - 1] * x.diff(i)
                           for i in list(x.degrees())[:-1]))
    return HomotopyStructure(x, m.scalars, tuple(grids))


@pytest.mark.parametrize("rname", RINGS)
def test_cone_mixed_matches_the_written_out_blocks(rname):
    corners = 0
    for seed in range(12):
        ring, rng, scalars, (a, b, c) = structures(rname, seed)
        other = SCALARS[rname][1:1 + len(scalars)]
        include, project = split_row(rng, ring, b, c)
        glued = glue_extension(include, project, b, c)
        cases = [(zero_map(a.complex, b.complex), a, restrict(b, other)),
                 (zero_map(b.complex, c.complex), b, c),
                 (identity_map(a.complex), a, a),
                 (identity_map(a.complex), twisted(rng, a), a),
                 (identity_map(c.complex), restrict(c, other), twisted(rng, c)),
                 (include, b, glued),
                 (project, glued, c)]
        for f, mx, my in cases:
            assert check_structure(mx) == [] and check_structure(my) == []
            assert_same_row(cone_mixed(f, mx, my), cone_mixed_reference(f, mx, my))
            corners += any(not (my.op(g, i) * f.mat(i) * mx.op(g, i - 1)).is_zero()
                           for g in range(mx.ngens) for i in f.target.degrees())
    # the off-diagonal block is exercised, not only the diagonal ones
    assert corners >= 4


@pytest.mark.parametrize("rname, seed", CASES)
def test_cone_same_matches_the_diagonal_blocks(rname, seed):
    ring, _, _, (a, b, c) = structures(rname, seed)
    ds = direct_sum(a, b)
    cases = [(zero_map(a.complex, b.complex), a, b),
             (zero_map(c.complex, c.complex), c, c),
             (identity_map(a.complex), a, a),
             (ds.project[1], ds.structure, b),
             (ds.include[0], a, ds.structure)]
    for f, mx, my in cases:
        assert_same_row(cone_same(f, mx, my), cone_same_reference(f, mx, my))


@pytest.mark.parametrize("rname, seed", CASES)
def test_direct_sum_matches_the_same_scalar_cone(rname, seed):
    ring, _, scalars, (a, b, c) = structures(rname, seed)
    empty = disk(ring, 0, 1, scalars)
    for ma, mb in ((a, b), (b, a), (c, c), (a, empty), (empty, c)):
        ds = direct_sum(ma, mb)
        assert (ds.structure, ds.include, ds.project) == direct_sum_reference(ma, mb)


@pytest.mark.parametrize("rname, seed", CASES)
def test_identity_cone_contraction_matches_the_blocks(rname, seed):
    ring, _, _, ms = structures(rname, seed)
    for x in [m.complex for m in ms] + [GradedFreeComplex(ring, 2, (0,), ())]:
        assert identity_cone_contraction(x) == identity_cone_contraction_reference(x)


@pytest.mark.parametrize("rname, seed", CASES)
def test_split_row_matches_the_block_total(rname, seed):
    ring, rng, _, (a, b, c) = structures(rname, seed)
    for sub, quot in ((a, b), (b, c), (c, a)):
        state = rng.getstate()
        include, project = split_row(rng, ring, sub, quot)
        after = rng.getstate()
        rng.setstate(state)
        assert (include, project) == split_row_reference(rng, ring, sub, quot)
        assert rng.getstate() == after
