"""Complex validation, homology, contractions, short exact sequences."""

import itertools
import math
import random
import sys
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st
from sympy import GF
from sympy.polys.matrices import DomainMatrix

import homcert.complexes
import homcert.exactalg
from homcert.complexes import (
    ChainMap, GradedFreeComplex, HomotopySystem, boundary_map, check_ses, concentrated,
    find_contraction, homology_invariants, identity_map, is_contraction, null_homotopies,
    reduce_units, solve_homotopy, zero_map,
)
from homcert.exactalg import Matrix, ModularRing, QQ, ZZ, Zmod
from homcert.kernel import inverse_defect, validate_complex
from homcert.structures import find_structure


def cx(ranks, diffs, ring=ZZ, min_degree=0):
    return GradedFreeComplex(ring, min_degree, tuple(ranks),
                             tuple(Matrix.from_rows(ring, d) if d or True else d for d in diffs))


def is_exact(x):
    """Every homology group vanishes (the homology-based reference)."""
    return all(h.is_trivial() for h in homology_invariants(x).values())


def two_term(entry, ring=ZZ):
    """0 -> R --entry--> R -> 0 in degrees 1, 0."""
    return GradedFreeComplex(ring, 0, (1, 1), (Matrix.from_rows(ring, [[entry]]),))


def random_complex(rng, ring=ZZ, max_rank=3, length=3):
    """Random valid complex built as a cone-like staircase (d^2 = 0 by design)."""
    # pick ranks, then write each differential as [A 0; 0 0]-conjugated data:
    # easiest valid family: d_{j+1} = P_j * E_j where E_j * P_{j-1} = 0 via
    # alternating [I 0] / [0; I] shapes.
    n = rng.randint(2, max_rank)
    m = rng.randint(0, n)
    d1 = Matrix.build(ring, n, m, lambda i, j: ring.from_int(rng.randint(-3, 3) if i < m else 0))
    # two-step complex X_1 -> X_0 always valid; extend by zero top
    return GradedFreeComplex(ring, 0, (n, m), (d1,))


def random_split_complex(rng, ring, length=4, pieces=None):
    """Pieces R --a--> R and lone copies of R summed up, then written in a
    random basis in every degree (d^2 = 0 by design).  ``pieces[j]`` lists
    the entries a of the pieces of diffs[j] (by default up to two, each in
    -4..4).  Basis of degree j: lone generators, then targets of the pieces
    of diffs[j], then sources of the pieces of diffs[j - 1]."""
    if pieces is None:
        pieces = [[rng.randint(-4, 4) for _ in range(rng.randint(0, 2))]
                  for _ in range(length - 1)]
    lone = [rng.randint(0, 1) for _ in range(length)]
    below = [len(pieces[j]) if j < length - 1 else 0 for j in range(length)]
    above = [len(pieces[j - 1]) if j else 0 for j in range(length)]
    ranks = [lone[j] + below[j] + above[j] for j in range(length)]
    d = [[[0] * ranks[j + 1] for _ in range(ranks[j])] for j in range(length - 1)]
    for j, ps in enumerate(pieces):
        for p, a in enumerate(ps):
            d[j][lone[j] + p][lone[j + 1] + below[j + 1] + p] = a
    # g = 1 + c*e_kl in degree j: g*d into degree j, d*g^-1 out of degree j.
    for j, n in enumerate(ranks):
        for _ in range(2 * n if n > 1 else 0):
            k, l = rng.sample(range(n), 2)
            c = Fraction(rng.randint(-2, 2), rng.randint(1, 2)) if ring == QQ else rng.randint(-2, 2)
            if j < length - 1:
                d[j][k] = [x + c * y for x, y in zip(d[j][k], d[j][l])]
            if j:
                for row in d[j - 1]:
                    row[l] -= c * row[k]
    diffs = tuple(Matrix.from_rows(ring, m) if m else Matrix(ring, 0, ranks[j + 1], ())
                  for j, m in enumerate(d))
    return GradedFreeComplex(ring, 0, tuple(ranks), diffs)


def test_validate_examples():
    assert validate_complex(concentrated(ZZ, 0, 0)) == []
    assert validate_complex(two_term(2)) == []
    bad = cx([1, 1, 1], [[[1]], [[1]]])
    rep = validate_complex(bad)
    assert rep and "d_1 * d_2" in rep[0]


def test_validate_negative_degrees():
    """``validate_complex`` checks d² = 0 alone; ``homcert validate`` owns
    the negative-degree rule for documents."""
    x = GradedFreeComplex(ZZ, -1, (1, 1), (Matrix.from_rows(ZZ, [[3]]),))
    assert validate_complex(x) == []


def validate_complex_reference(x):
    """d² = 0 checked over every degree of the window, the zero maps at its
    ends included."""
    return [f"d_{i} * d_{i + 1} != 0" for i in x.degrees()
            if not (x.diff(i) * x.diff(i + 1)).is_zero()]


@pytest.mark.parametrize("ring", [ZZ, QQ, Zmod(7), Zmod(12)], ids=["Z", "Q", "Z7", "Z12"])
def test_validate_complex_pairs_stored_differentials(ring):
    """Pairing the stored differentials gives the messages of the loop over
    every degree: complexes failing d² = 0, one-degree windows, and zero
    ranks at the ends and inside."""
    rng = random.Random(f"validate/{ring}")
    failing = 0
    for _ in range(200):
        ranks = [rng.choice((0, 0, 1, 2, 3)) for _ in range(rng.randint(1, 6))]
        diffs = tuple(Matrix.build(ring, r, s, lambda i, j: ring.from_int(rng.randint(-2, 2)))
                      for r, s in zip(ranks, ranks[1:]))
        x = GradedFreeComplex(ring, rng.randint(-3, 3), tuple(ranks), diffs)
        want = validate_complex_reference(x)
        assert validate_complex(x) == want
        failing += bool(want)
    assert failing >= 20


def test_signs_in_negative_degrees_are_integers(monkeypatch):
    chi = concentrated(ZZ, -1, 2).euler_characteristic()
    assert chi == -2 and type(chi) is int
    signs = []
    real = Matrix.scale
    monkeypatch.setattr(Matrix, "scale", lambda m, c: signs.append(c) or real(m, c))
    # the differential as a map of shift -1 checks with the sign -1, in
    # degree -1, the one degree where both sides are nonempty
    x = GradedFreeComplex(ZZ, -3, (1, 1, 1), (Matrix.from_rows(ZZ, [[3]]),
                                               Matrix.from_rows(ZZ, [[0]])))
    assert boundary_map(x).chain_defect() is None
    assert signs and all(c == -1 and type(c) is int for c in signs)


def test_rank_and_diff_accessors_off_window():
    x = two_term(5)
    assert x.rank(7) == 0 and x.rank(-3) == 0
    assert x.diff(0).rows == 0 and x.diff(2).cols == 0
    assert x.diff(1).entry(0, 0) == 5
    assert x.euler_characteristic() == 0


# -- homology ---------------------------------------------------------


def test_homology_frozen_two_term():
    h1 = homology_invariants(two_term(1))
    assert all(s.is_trivial() for s in h1.values())
    assert is_exact(two_term(1))

    h2 = homology_invariants(two_term(2))
    assert h2[0].free_rank == 0 and h2[0].torsion == (2,)
    assert h2[1].is_trivial()

    h0 = homology_invariants(two_term(0))
    assert h0[0].free_rank == 1 and h0[0].torsion == ()
    assert h0[1].free_rank == 1


def test_homology_fields():
    assert is_exact(two_term(2, ring=QQ))
    h = homology_invariants(two_term(2, ring=Zmod(5)))
    assert all(s.is_trivial() for s in h.values())
    h2 = homology_invariants(two_term(5, ring=Zmod(5)))
    assert h2[0].free_rank == 1 and h2[1].free_rank == 1
    with pytest.raises(ValueError):
        homology_invariants(two_term(2, ring=Zmod(12)))


def sympy_betti(x, i):
    """Independent homology oracle: rank and torsion via sympy, over Z, Q
    or Z/p (the rank over GF(p) through sympy's DomainMatrix)."""
    def plain(d):
        return sympy.Matrix([[sympy.Rational(e.numerator, e.denominator) for e in row]
                             for row in d.entries]) \
            if d.rows and d.cols else sympy.zeros(d.rows, d.cols)

    def rank(m):
        if x.ring in (ZZ, QQ) or 0 in m.shape:
            return m.rank()
        return DomainMatrix.from_Matrix(m).convert_to(GF(x.ring.modulus)).rank()
    din, dout = plain(x.diff(i + 1)), plain(x.diff(i))
    free = x.rank(i) - rank(din) - rank(dout)
    if x.ring != ZZ:
        return free, ()
    from sympy.matrices.normalforms import invariant_factors
    tors = tuple(int(t) for t in invariant_factors(din) if int(t) > 1)
    return free, tors


def test_homology_random_vs_sympy():
    rng = random.Random(41)
    for _ in range(25):
        x = random_complex(rng)
        for i in x.degrees():
            s = homology_invariants(x)[i]
            assert (s.free_rank, s.torsion) == sympy_betti(x, i)
    for ring in (ZZ, QQ, Zmod(2), Zmod(5), Zmod(2 ** 31 - 1)):
        for _ in range(15):
            x = random_split_complex(rng, ring, rng.randint(2, 5))
            assert validate_complex(x) == []
            h = homology_invariants(x)
            for i in x.degrees():
                assert (h[i].free_rank, h[i].torsion) == sympy_betti(x, i)


def test_homology_factors_each_differential_once(monkeypatch):
    calls = []
    real = homcert.exactalg.smith_normal_form

    def counting(a):
        calls.append((a.rows, a.cols))
        return real(a)
    monkeypatch.setattr(homcert.exactalg, "smith_normal_form", counting)
    rng = random.Random(8)
    for _ in range(10):
        x = random_split_complex(rng, ZZ, 5)
        calls.clear()
        h = homology_invariants(x)
        assert len(calls) <= len(x.diffs)
        for i in x.degrees():
            assert (h[i].free_rank, h[i].torsion) == sympy_betti(x, i)


# -- chain maps -------------------------------------------------------


def test_chain_map_basics():
    x = two_term(3)
    ident = identity_map(x)
    assert ident.is_chain_map()
    z = zero_map(x, x)
    assert z.is_chain_map()
    assert (ident.compose(ident)) == ident
    doubled = ident + ident
    assert doubled.mat(0).entry(0, 0) == 2
    assert inverse_defect(ident, ident.transpose()) is None
    assert inverse_defect(z, z.transpose()) == "f·g ≠ id in degree 0"


def test_chain_map_shape_check():
    x = two_term(3)
    with pytest.raises(ValueError):
        ChainMap(x, x, 0, (Matrix.zeros(ZZ, 2, 1), Matrix.identity(ZZ, 1)))


def test_non_chain_map_detected():
    x = two_term(2)
    y = two_term(3)
    f = ChainMap(x, y, 0, (Matrix.identity(ZZ, 1), Matrix.identity(ZZ, 1)))
    assert not f.is_chain_map()  # 3*1 != 1*2


# -- contractions -----------------------------------------------------


def test_contraction_frozen():
    h = find_contraction(two_term(1))
    assert h is not None
    assert h.mat(0) == Matrix.identity(ZZ, 1)
    assert find_contraction(two_term(2)) is None
    assert find_contraction(two_term(2, ring=QQ)) is not None
    assert find_contraction(concentrated(ZZ, 0, 0)) is not None


def test_contraction_zmod_composite():
    # over Z/12, multiplication by 5 is invertible, so the two-term complex splits
    assert find_contraction(two_term(5, ring=Zmod(12))) is not None
    assert find_contraction(two_term(4, ring=Zmod(12))) is None


def unimodular(rng, n, ring=ZZ):
    """Random product of elementary row operations applied to the identity."""
    m = Matrix.identity(ring, n)
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if i == j:
            continue
        c = ring.from_int(rng.randint(-2, 2))
        add = Matrix.build(ring, n, n, lambda r, s:
                           ring.one() if r == s else (c if (r, s) == (i, j) else ring.zero()))
        m = add * m
    return m


def test_contraction_iff_exact():
    rng = random.Random(17)
    hits = 0
    for k in range(30):
        if k % 2:
            n = rng.randint(1, 3)
            x = GradedFreeComplex(ZZ, 0, (n, n), (unimodular(rng, n),))
        else:
            x = random_complex(rng)
        h = find_contraction(x)
        assert (h is not None) == is_exact(x)
        if h is not None:
            hits += 1
            assert is_contraction(h)
    assert 0 < hits  # the family does produce exact instances


def test_homotopy_system_scalar_rhs():
    # d*h + h*d = 4 on [Z --2--> Z] is solvable (h = [[2]]), = 3 is not
    x = two_term(2)
    h4 = solve_homotopy(x, 4)
    assert h4 is not None and h4.mat(0) == Matrix.from_rows(ZZ, [[2]])
    assert solve_homotopy(x, 3) is None
    assert solve_homotopy(x, 0) is not None  # h = 0
    # composite Z/m, non-unit scalars: the coupled system decides.  On the
    # Z/12 complex a bottom-up solve finds nothing for c = 4 and c = 8.
    y = two_term(2, ring=Zmod(8))
    z = cx((1, 3, 2), ([[10, 6, 6]], [[0, 3], [0, 10], [2, 9]]), ring=Zmod(12))
    for x, c, solvable in ((y, 2, True), (y, 4, True), (y, 6, True), (y, 0, True),
                           (y, 3, False), (two_term(4, ring=Zmod(8)), 2, False),
                           (z, 4, True), (z, 8, True), (z, 3, False)):
        h = solve_homotopy(x, c)
        assert (h is not None) == solvable
        if h is not None:
            for i in x.degrees():
                lhs = x.diff(i + 1) * h.mat(i) + h.mat(i - 1) * x.diff(i)
                assert lhs == Matrix.scalar(x.ring, x.rank(i), c)
    assert HomotopySystem(y).solve(2) is not None


# -- unit reduction ----------------------------------------------------


def zmod_pieces_complex(rng, mod):
    """A split complex over Z/mod of length 2 to 4 and ranks up to 8, in a
    random basis; each piece R --a--> R has a unit or a non-unit a, with
    even odds."""
    units = [a for a in range(1, mod) if math.gcd(a, mod) == 1]
    non_units = [a for a in range(mod) if math.gcd(a, mod) > 1]
    counts = []
    for _ in range(rng.randint(1, 3)):
        counts.append(rng.randint(0, min(4, 7 - (counts[-1] if counts else 0))))
    pieces = [[rng.choice(units if rng.random() < 0.5 else non_units) for _ in range(k)]
              for k in counts]
    return random_split_complex(rng, Zmod(mod), len(counts) + 1, pieces)


ZMOD_CASES = [pytest.param(zmod_pieces_complex(random.Random(100 * mod + k), mod),
                           id=f"Z{mod}-{k}")
              for mod in (4, 8, 9, 12, 36) for k in range(5)]


@pytest.mark.parametrize("x", ZMOD_CASES)
def test_reduce_units_is_a_deformation_retraction(x):
    y, f, g, h = reduce_units(x)
    assert (f.source, f.target, g.source, g.target) == (x, y, y, x)
    assert f.is_chain_map() and g.is_chain_map()
    assert (h.source, h.target, h.shift) == (x, x, 1)
    for i in x.degrees():
        assert (f.mat(i) * g.mat(i)).is_identity()
        assert (g.mat(i) * f.mat(i) + x.diff(i + 1) * h.mat(i)
                + h.mat(i - 1) * x.diff(i)).is_identity()
    assert validate_complex(y) == []
    assert not any(y.ring.is_unit(a) for d in y.diffs for row in d.ints for a in row)
    m = x.ring.modulus
    if m in (4, 8, 9):
        # over a local ring the result is minimal: d = 0 mod p, so its ranks
        # are the dimensions of the homology of x mod p
        fp = Zmod(2 if m % 2 == 0 else 3)
        xp = GradedFreeComplex(fp, x.min_degree, x.ranks,
                               tuple(Matrix(fp, d.rows, d.cols, d.ints) for d in x.diffs))
        assert y.ranks == tuple(hom.free_rank for hom in homology_invariants(xp).values())


def test_reduce_units_checks_its_output(monkeypatch):
    x = random_split_complex(random.Random(3), Zmod(9), 3, [[1, 3], [2]])
    real = homcert.complexes._unit_inverse
    monkeypatch.setattr(homcert.complexes, "_unit_inverse",
                        lambda ring, a: ring.mul(2, real(ring, a)))
    with pytest.raises(AssertionError, match="unit reduction failed its own check"):
        reduce_units(x)


def reference_reduce_units(x):
    """Unit reduction on ring elements: ``ring.is_unit`` finds each pivot and
    ``ring.normalize`` reduces every new entry (the library runs the same
    elimination on stored residues, and must give the same y, f, g, h)."""
    ring, norm, n = x.ring, x.ring.normalize, len(x.ranks)
    d = [[list(row) for row in m.entries] for m in x.diffs]
    f = [[[int(p == q) for q in range(r)] for p in range(r)] for r in x.ranks]
    g = [[row[:] for row in fj] for fj in f]
    h = [[[0] * x.ranks[j] for _ in range(x.rank(x.min_degree + j + 1))] for j in range(n)]
    for j in range(n - 1):
        while True:
            pivot = next(((r, s) for r, row in enumerate(d[j]) for s, a in enumerate(row)
                          if ring.is_unit(a)), None)
            if pivot is None:
                break
            r, s = pivot
            inv = pow(d[j][r][s], -1, ring.modulus)
            delta = [norm(inv * v) for v in d[j][r]]
            gamma = [row[s] for row in d[j]]
            f_r = [norm(inv * v) for v in f[j][r]]
            g_s = g[j + 1][s]
            h[j] = [[norm(v + c * w) for v, w in zip(row, f_r)] for row, c in zip(h[j], g_s)]
            d[j] = [[norm(v - c * w) for k, (v, w) in enumerate(zip(row, delta)) if k != s]
                    for q, (row, c) in enumerate(zip(d[j], gamma)) if q != r]
            f[j] = [[norm(v - c * w) for v, w in zip(row, f_r)]
                    for q, (row, c) in enumerate(zip(f[j], gamma)) if q != r]
            g[j + 1] = [[norm(v - t * w) for v, w in zip(col, g_s)]
                        for k, (col, t) in enumerate(zip(g[j + 1], delta)) if k != s]
            del f[j + 1][s], g[j][r]
            if j + 1 < n - 1:
                del d[j + 1][s]
            if j:
                for row in d[j - 1]:
                    del row[r]
    ranks = tuple(map(len, f))
    y = GradedFreeComplex(ring, x.min_degree, ranks, tuple(
        Matrix(ring, ranks[j], ranks[j + 1], d[j]) for j in range(n - 1)))
    fm = ChainMap(x, y, 0, tuple(Matrix(ring, ranks[j], x.ranks[j], f[j]) for j in range(n)))
    gm = ChainMap(y, x, 0, tuple(Matrix(ring, ranks[j], x.ranks[j], g[j]).transpose()
                                 for j in range(n)))
    hm = ChainMap(x, x, 1, tuple(Matrix(ring, len(h[j]), x.ranks[j], h[j]) for j in range(n)))
    return y, fm, gm, hm


@st.composite
def small_zmod_complexes(draw):
    """A complex over Z/4, Z/8, Z/9, Z/12 or Z/36 with two to four degrees
    and ranks at most 6: split pieces in a random basis, or arbitrary
    entries in every other differential and zeros in the rest."""
    mod = draw(st.sampled_from((4, 8, 9, 12, 36)))
    ring, length = Zmod(mod), draw(st.integers(2, 4))
    entry = st.integers(0, mod - 1)
    if draw(st.booleans()):
        pieces = [draw(st.lists(entry, max_size=2)) for _ in range(length - 1)]
        return random_split_complex(random.Random(draw(st.integers(0, 9999))), ring, length,
                                    pieces)
    ranks = draw(st.lists(st.integers(0, 6), min_size=length, max_size=length))
    diffs = []
    for j in range(length - 1):
        r, c = ranks[j], ranks[j + 1]
        flat = [0] * (r * c) if j % 2 else draw(st.lists(entry, min_size=r * c, max_size=r * c))
        diffs.append(Matrix.from_ints(ring, r, c, tuple(tuple(flat[i * c:(i + 1) * c])
                                                        for i in range(r))))
    return GradedFreeComplex(ring, draw(st.integers(-2, 2)), tuple(ranks), tuple(diffs))


@settings(max_examples=150, deadline=None)
@given(small_zmod_complexes())
def test_reduce_units_matches_the_element_reference(x):
    assert reduce_units(x) == reference_reduce_units(x)


def test_reduce_units_eliminates_on_residues(monkeypatch):
    """No ``normalize`` or ``is_unit`` call outside the output check, whose
    ``Matrix.scale`` and ``is_identity`` normalize their scalars."""
    check = homcert.complexes._retraction_defect.__code__
    inside, outside = [], []

    def counted(name, real):
        def wrapper(self, *args):
            frame = sys._getframe(1)
            while frame is not None and frame.f_code is not check:
                frame = frame.f_back
            (outside if frame is None else inside).append(name)
            return real(self, *args)
        return wrapper

    cases = [zmod_pieces_complex(random.Random(100 * mod + k), mod)
             for mod in (4, 8, 9, 12, 36) for k in range(5)]
    for name in ("normalize", "is_unit"):
        monkeypatch.setattr(ModularRing, name, counted(name, getattr(ModularRing, name)))
    for x in cases:
        reduce_units(x)
    assert outside == [] and "normalize" in inside


@pytest.mark.parametrize("ring", [ZZ, QQ], ids=str)
def test_reduce_units_refuses_rings_other_than_z_mod_m(ring):
    with pytest.raises(ValueError, match="Z/m only"):
        reduce_units(two_term(1, ring=ring))


@pytest.mark.parametrize("x", ZMOD_CASES)
def test_reduced_solve_matches_the_unreduced_system(x):
    # The unreduced system is solved once per ideal (c) = (gcd(c, m)): every c
    # is a unit u times gcd(c, m), and e solves c exactly when u e solves u c.
    ring, m = x.ring, x.ring.modulus
    system = HomotopySystem(x)
    solvable = {g % m: system.solve(g) is not None for g in range(1, m + 1) if m % g == 0}
    b, free, _ = null_homotopies(x)
    assert m % b == 0 and not free
    for c in range(m):
        e = solve_homotopy(x, c)
        assert (e is not None) == solvable[math.gcd(c, m) % m] == (c % b == 0)
        if e is not None:
            for i in x.degrees():
                assert (x.diff(i + 1) * e.mat(i) + e.mat(i - 1) * x.diff(i)
                        == Matrix.scalar(ring, x.rank(i), c))


def trial_exponent(x, t):
    """The least k with t^k * id null-homotopic, by solving each k = 1, 2, ...
    until gcd(t^k, m) stops growing, or None."""
    m, power, reached = x.ring.modulus, 1, 0
    for k in itertools.count(1):
        power = power * t % m
        g = math.gcd(power, m)
        if g == reached:
            return None
        reached = g
        if solve_homotopy(x, power) is not None:
            return k


@pytest.mark.parametrize("x", ZMOD_CASES)
def test_search_exponent_matches_the_per_exponent_trial(x):
    for t in range(x.ring.modulus):
        assert find_structure(x, (t,)).exponents == (trial_exponent(x, t),)


# -- short exact sequences --------------------------------------------


def split_ses(a, c):
    """Canonical 0 -> A -> A (+) C -> C -> 0 in matching windows."""
    ring = a.ring
    lo = min(a.min_degree, c.min_degree)
    hi = max(a.top_degree, c.top_degree)
    ranks = tuple(a.rank(i) + c.rank(i) for i in range(lo, hi + 1))
    diffs = []
    for i in range(lo + 1, hi + 1):
        diffs.append(Matrix.block([
            [a.diff(i), Matrix.zeros(ring, a.rank(i - 1), c.rank(i))],
            [Matrix.zeros(ring, c.rank(i - 1), a.rank(i)), c.diff(i)]]))
    b = GradedFreeComplex(ring, lo, ranks, tuple(diffs))
    incl = ChainMap(a, b, 0, tuple(
        Matrix.block([[Matrix.identity(ring, a.rank(i))],
                      [Matrix.zeros(ring, c.rank(i), a.rank(i))]])
        for i in a.degrees()))
    proj = ChainMap(b, c, 0, tuple(
        Matrix.block([[Matrix.zeros(ring, c.rank(i), a.rank(i)),
                       Matrix.identity(ring, c.rank(i))]])
        for i in b.degrees()))
    return incl, proj


def test_check_ses_accepts_split():
    rng = random.Random(29)
    for _ in range(15):
        a = random_complex(rng)
        c = random_complex(rng)
        incl, proj = split_ses(a, c)
        assert check_ses(incl, proj) == []


def test_check_ses_zero_sub():
    c = two_term(3)
    incl, proj = split_ses(concentrated(ZZ, 0, 0), c)
    assert check_ses(incl, proj) == []


def test_check_ses_rejects_non_exact():
    x = two_term(2)
    ident = identity_map(x)
    rep = check_ses(ident, ident)
    assert rep != []
    # inclusion with cokernel torsion must fail even though ranks add up
    a = concentrated(ZZ, 0, 1)
    b = concentrated(ZZ, 0, 1)
    f = ChainMap(a, b, 0, (Matrix.from_rows(ZZ, [[2]]),))
    g = zero_map(b, concentrated(ZZ, 0, 0))
    assert any("middle" in r or "surjective" in r for r in check_ses(f, g))


def test_check_ses_euler_additivity():
    rng = random.Random(37)
    for _ in range(10):
        a = random_complex(rng)
        c = random_complex(rng)
        incl, proj = split_ses(a, c)
        b = incl.target
        assert b.euler_characteristic() == a.euler_characteristic() + c.euler_characteristic()
