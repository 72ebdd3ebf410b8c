"""The one-pass test for sums of products, against products built as matrices.

``Matrix.is_scalar_sum`` decides whether a sum of products is c * id
without building a product or a sum; ``check_law``, ``contraction_defect``
and the retraction check of ``reduce_units`` use it on the stored matrices
of their input.  Each ``*_reference`` below is the earlier route, kept here
as the oracle: every degree of the window, with the zero matrices off the
window's ends, multiplied and added by ``Matrix`` and then compared with
``is_scalar`` or ``is_identity``.  The current code must give the same
verdicts and messages in every ring.
"""

import random
from fractions import Fraction

import pytest

from homcert.complexes import (
    ChainMap, GradedFreeComplex, _retraction_defect, boundary_map, find_contraction,
    null_homotopies, reduce_units,
)
from homcert.exactalg import Matrix, QQ, ZZ, Zmod
from homcert.kernel import check_law, contraction_defect
from homcert.structures import HomotopyStructure

RINGS = {"Z": ZZ, "Q": QQ, "Z7": Zmod(7), "Z12": Zmod(12), "Zp31": Zmod(2 ** 31 - 1)}


def entry(rng, ring):
    """A small ring element; over Q a fraction, often not an integer."""
    if ring == QQ:
        return Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3)))
    return rng.randint(-3, 3)


def scalar(rng, ring):
    return Fraction(rng.choice((0, 1, 2, 3, -1, 6)), rng.choice((1, 1, 2))) \
        if ring == QQ else rng.choice((0, 1, 2, 3, -1, 6))


def random_matrix(rng, ring, rows, cols):
    return Matrix.build(ring, rows, cols, lambda i, j: entry(rng, ring))


def bumped(rng, a):
    """``a`` with one entry changed by a nonzero amount, or ``a`` when empty."""
    if not (a.rows and a.cols):
        return a
    i, j = rng.randrange(a.rows), rng.randrange(a.cols)
    return a.with_entry(i, j, a.entry(i, j) + rng.choice((1, 2, -1)))


def bumped_map(rng, a):
    """The chain map ``a`` with one of its matrices bumped."""
    j = rng.randrange(len(a.mats))
    return ChainMap(a.source, a.target, a.shift,
                    a.mats[:j] + (bumped(rng, a.mats[j]),) + a.mats[j + 1:])


def random_complex(rng, ring, contractible=False):
    """Pieces R --a--> R and lone copies of R, written in a random basis of
    every degree, over a window of 1-6 degrees: ranks 0 at the ends and
    inside come up often, and so do homology and torsion, unless the
    complex is to be ``contractible``."""
    length = rng.randint(1, 6)
    entries, lones = ((1, -1), (0,)) if contractible else ((1, 1, -1, 2, 3), (0, 0, 0, 1))
    pieces = [[rng.choice(entries) for _ in range(rng.choice((0, 0, 1, 2)))]
              for _ in range(length - 1)]
    lone = [rng.choice(lones) for _ in range(length)]
    below = [len(pieces[j]) if j < length - 1 else 0 for j in range(length)]
    above = [len(pieces[j - 1]) if j else 0 for j in range(length)]
    ranks = [sum(parts) for parts in zip(lone, below, above)]
    d = [[[0] * ranks[j + 1] for _ in range(ranks[j])] for j in range(length - 1)]
    for j, ps in enumerate(pieces):
        for p, a in enumerate(ps):
            d[j][lone[j] + p][lone[j + 1] + below[j + 1] + p] = a
    # g = 1 + c e_kl in degree j: g d into degree j, d g^-1 out of degree j
    for j, n in enumerate(ranks):
        for _ in range(2 * n if n > 1 else 0):
            k, l = rng.sample(range(n), 2)
            c = entry(rng, ring)
            if j < length - 1:
                d[j][k] = [x + c * y for x, y in zip(d[j][k], d[j][l])]
            if j:
                for row in d[j - 1]:
                    row[l] -= c * row[k]
    diffs = tuple(Matrix(ring, ranks[j], ranks[j + 1], d[j]) for j in range(length - 1))
    return GradedFreeComplex(ring, rng.randint(-3, 3), tuple(ranks), diffs)


def twisted(rng, e):
    """e + d sigma - sigma d for a random degree +2 operator sigma: the same
    d e + e d, with denser matrices."""
    x = e.source
    sigma = ChainMap(x, x, 2, tuple(random_matrix(rng, x.ring, x.rank(i + 2), x.rank(i))
                                    for i in x.degrees()))
    d = boundary_map(x)
    return e + d.compose(sigma) + sigma.compose(d).scale(-1)


# -- the test itself ----------------------------------------------------------


def scalar_sum_reference(terms, c, n, ring):
    total = Matrix.zeros(ring, n, n)
    for x, y in terms:
        total = total + x * y
    return total.is_scalar(c)


@pytest.mark.parametrize("ring", RINGS.values(), ids=RINGS.keys())
def test_scalar_sum_matches_the_built_sum(ring):
    """0-3 terms with inner dimensions 0-3, n = 0..3; half the cases get a
    last term that makes the sum c * id, and some of those are bumped."""
    rng = random.Random(f"scalar-sum/{ring}")
    verdicts = []
    for _ in range(300):
        n, c = rng.randint(0, 3), scalar(rng, ring)
        terms = []
        for _ in range(rng.randint(0, 3)):
            k = rng.choice((0, 0, 1, 2, 3))
            terms.append((random_matrix(rng, ring, n, k), random_matrix(rng, ring, k, n)))
        if rng.random() < 0.5:
            rest = Matrix.scalar(ring, n, c)
            for x, y in terms:
                rest = rest - x * y
            if rng.random() < 0.3:
                rest = bumped(rng, rest)
            one = Matrix.identity(ring, n)
            terms.append((rest, one) if rng.random() < 0.5 else (one, rest))
            rng.shuffle(terms)
        want = scalar_sum_reference(terms, c, n, ring)
        assert Matrix.is_scalar_sum(terms, c, n, ring) is want
        assert Matrix.is_scalar_sum(iter(terms), c, n, ring) is want
        verdicts.append(want)
    assert verdicts.count(True) >= 50 and verdicts.count(False) >= 50


def test_scalar_sum_without_terms_or_inner_dimension():
    """An empty sum is zero: c * id exactly when c = 0 or n = 0."""
    for ring in RINGS.values():
        empty = [(Matrix.zeros(ring, 2, 0), Matrix.zeros(ring, 0, 2))]
        for terms in ([], empty, empty * 3):
            assert Matrix.is_scalar_sum(terms, 0, 2, ring)
            assert not Matrix.is_scalar_sum(terms, 3, 2, ring)
        assert Matrix.is_scalar_sum([], 5, 0, ring)
        assert Matrix.is_scalar_sum([(Matrix.zeros(ring, 0, 2), Matrix.zeros(ring, 2, 0))],
                                    5, 0, ring)
    # over Q a c that no sum over the terms' denominators reaches
    half = Matrix.scalar(QQ, 1, Fraction(1, 2))
    assert Matrix.is_scalar_sum([(half, half)], Fraction(1, 4), 1, QQ)
    assert not Matrix.is_scalar_sum([(half, half)], Fraction(1, 3), 1, QQ)
    assert not Matrix.is_scalar_sum([(half, half), (half, half)], Fraction(1, 4), 1, QQ)


def test_scalar_sum_refuses_bad_shapes_and_rings():
    a, b = Matrix.zeros(ZZ, 2, 3), Matrix.zeros(ZZ, 3, 2)
    assert Matrix.is_scalar_sum([(a, b)], 0, 2, ZZ)
    for terms, n in (([(a, b)], 3), ([(a, a)], 2), ([(b, a)], 2), ([(a, b), (b, a)], 2),
                     ([(Matrix.zeros(ZZ, 2, 0), Matrix.zeros(ZZ, 0, 3))], 2)):
        with pytest.raises(ValueError):
            Matrix.is_scalar_sum(terms, 0, n, ZZ)
    for terms, ring in (([(a, b)], Zmod(7)), ([(a, Matrix.zeros(QQ, 3, 2))], ZZ)):
        with pytest.raises(ValueError):
            Matrix.is_scalar_sum(terms, 0, 2, ring)


# -- check_law ----------------------------------------------------------------


def check_law_reference(m):
    """d e + e d = s * id in every degree of the window, the zero matrices at
    its ends included."""
    x = m.complex
    return [f"generator {g}: d e + e d != {s} * id in degree {i}"
            for g, s in enumerate(m.scalars) for i in x.degrees()
            if not (x.diff(i + 1) * m.op(g, i) + m.op(g, i - 1) * x.diff(i)).is_scalar(s)]


def law_structure(rng, ring):
    """0-3 generators on a random complex: a solved and twisted operator
    where s * id is null-homotopic, random matrices where it is not, and a
    quarter of the structures with one operator or differential bumped."""
    x = random_complex(rng, ring)
    solve = null_homotopies(x)[2]
    scalars, grids = [], []
    for _ in range(rng.randint(0, 3)):
        s = scalar(rng, ring)
        e = solve(s)
        if e is None:
            e = ChainMap(x, x, 1, tuple(random_matrix(rng, ring, x.rank(i + 1), x.rank(i))
                                        for i in x.degrees()))
        else:
            e = twisted(rng, e)
        scalars.append(s)
        grids.append(list(e.mats[:-1]))
    if rng.random() < 0.25:
        slots = [(g, j) for g, grid in enumerate(grids) for j, a in enumerate(grid)
                 if a.rows and a.cols]
        if slots and rng.random() < 0.7:
            g, j = rng.choice(slots)
            grids[g][j] = bumped(rng, grids[g][j])
        elif x.diffs:
            j = rng.randrange(len(x.diffs))
            diffs = list(x.diffs)
            diffs[j] = bumped(rng, diffs[j])
            x = GradedFreeComplex(ring, x.min_degree, x.ranks, tuple(diffs))
    return HomotopyStructure(x, tuple(scalars), tuple(map(tuple, grids)))


@pytest.mark.parametrize("ring", RINGS.values(), ids=RINGS.keys())
def test_check_law_pairs_stored_matrices(ring):
    """Pairing the stored differentials and operators gives the messages of
    the loop over every degree: 200 structures per ring with 0-3
    generators, law-abiding ones and failing ones."""
    rng = random.Random(f"law/{ring}")
    failing = passing = 0
    for _ in range(200):
        m = law_structure(rng, ring)
        want = check_law_reference(m)
        assert check_law(m) == want
        failing += bool(want)
        passing += bool(m.ngens) and not want
    assert failing >= 20 and passing >= 20


@pytest.mark.parametrize("ring", RINGS.values(), ids=RINGS.keys())
def test_check_law_on_one_degree_windows(ring):
    """No operator and no differential: the law holds exactly for s = 0 or
    rank 0."""
    for rank in (0, 2):
        x = GradedFreeComplex(ring, 1, (rank,), ())
        m = HomotopyStructure(x, (0, 3), ((), ()))
        want = [] if rank == 0 else ["generator 1: d e + e d != 3 * id in degree 1"]
        assert check_law(m) == check_law_reference(m) == want


# -- contractions ----------------------------------------------------------------


def contraction_defect_reference(h):
    x = h.source
    for i in x.degrees():
        if not (x.diff(i + 1) * h.mat(i) + h.mat(i - 1) * x.diff(i)).is_identity():
            return i
    return None


@pytest.mark.parametrize("ring", RINGS.values(), ids=RINGS.keys())
def test_contraction_defect_pairs_stored_matrices(ring):
    """Contractions twisted by d sigma - sigma d and then, half the time,
    bumped in one degree, and random operators on complexes with homology."""
    rng = random.Random(f"contraction/{ring}")
    failing = passing = 0
    for _ in range(200):
        x = random_complex(rng, ring, rng.random() < 0.5)
        h = find_contraction(x)
        if h is None:
            h = ChainMap(x, x, 1, tuple(random_matrix(rng, ring, x.rank(i + 1), x.rank(i))
                                        for i in x.degrees()))
        else:
            h = twisted(rng, h)
            if rng.random() < 0.5:
                h = bumped_map(rng, h)
        want = contraction_defect_reference(h)
        assert contraction_defect(h) == want
        failing += want is not None
        passing += want is None and any(x.ranks)
    assert failing >= 20 and passing >= 20


# -- the retraction check of reduce_units ------------------------------------------


def retraction_defect_reference(f, g, h):
    for name, m in (("f", f), ("g", g)):
        i = m.chain_defect()
        if i is not None:
            return f"{name} is not a chain map in degree {i}"
    x = f.source
    for i in x.degrees():
        if not (f.mat(i) * g.mat(i)).is_identity():
            return f"f·g ≠ id in degree {i}"
        total = g.mat(i) * f.mat(i) + x.diff(i + 1) * h.mat(i) + h.mat(i - 1) * x.diff(i)
        if not total.is_identity():
            return f"g·f + dh + hd ≠ id in degree {i}"
    return None


@pytest.mark.parametrize("mod", (4, 8, 9, 12, 36))
def test_retraction_defect_pairs_stored_matrices(mod):
    """The unit reduction's output, whole and with one matrix of f, g or h
    bumped in one degree."""
    ring = Zmod(mod)
    rng = random.Random(f"retraction/{mod}")
    failing = 0
    for _ in range(100):
        x = random_complex(rng, ring)
        _, f, g, h = reduce_units(x)
        assert _retraction_defect(f, g, h) is retraction_defect_reference(f, g, h) is None
        maps = [f, g, h]
        k = rng.randrange(3)
        maps[k] = bumped_map(rng, maps[k])
        want = retraction_defect_reference(*maps)
        assert _retraction_defect(*maps) == want
        failing += want is not None
    assert failing >= 20
