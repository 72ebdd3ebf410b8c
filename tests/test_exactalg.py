"""Core exact linear algebra: rings, Smith form, solving."""

import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st
from sympy import GF
from sympy.matrices.normalforms import invariant_factors
from sympy.polys.matrices import DomainMatrix

from homcert.exactalg import (
    MODULUS_LIMIT, Matrix, ModularRing, QQ, SmithSolver, ZZ, Zmod, det,
    elementary_divisors, is_invertible, is_prime, rank,
    smith_normal_form, solve_right,
)


def mat(rows, ring=ZZ):
    return Matrix.from_rows(ring, rows)


def random_matrix(rng, ring, rows, cols, lo=-9, hi=9):
    return Matrix.build(ring, rows, cols, lambda i, j: ring.from_int(rng.randint(lo, hi)))


# -- rings ------------------------------------------------------------


@pytest.mark.parametrize("ring", [ZZ, QQ, Zmod(12), Zmod(7)])
def test_ring_axioms_random(ring):
    rng = random.Random(11)
    for _ in range(300):
        a, b, c = (ring.from_int(rng.randint(-30, 30)) for _ in range(3))
        assert ring.add(a, b) == ring.add(b, a)
        assert ring.add(ring.add(a, b), c) == ring.add(a, ring.add(b, c))
        assert ring.mul(a, b) == ring.mul(b, a)
        assert ring.mul(ring.mul(a, b), c) == ring.mul(a, ring.mul(b, c))
        assert ring.mul(a, ring.add(b, c)) == ring.add(ring.mul(a, b), ring.mul(a, c))
        assert ring.add(a, ring.neg(a)) == ring.zero()
        assert ring.mul(a, ring.one()) == a


def test_field_flags():
    assert QQ.is_field and not ZZ.is_field
    assert Zmod(7).is_field and not Zmod(12).is_field
    assert Zmod(2).is_field and not Zmod(9).is_field


def test_is_prime_matches_sympy_below_20000():
    assert [m for m in range(20000) if is_prime(m)] == list(sympy.primerange(20000))


@pytest.mark.parametrize("m, prime", [
    (3215031751, False),           # strong pseudoprime to bases 2, 3, 5, 7
    (3825123056546413051, False),  # strong pseudoprime to every base up to 23
    (2 ** 31 - 1, True),
    (2 ** 61 - 1, True),
])
def test_is_prime_large_moduli(m, prime):
    assert is_prime(m) == prime == sympy.isprime(m)
    assert Zmod(m).is_field == prime


def test_modulus_beyond_primality_bound_rejected():
    assert 2 ** 89 - 1 >= MODULUS_LIMIT
    with pytest.raises(ValueError):
        Zmod(2 ** 89 - 1)
    with pytest.raises(ValueError):
        is_prime(MODULUS_LIMIT)
    assert not Zmod(MODULUS_LIMIT - 1).is_field


def test_is_field_is_a_plain_property():
    assert type(ModularRing.__dict__["is_field"]) is property


def test_zmod_normalization():
    r = Zmod(5)
    assert r.normalize(-3) == 2
    assert r.from_int(12) == 2
    assert r.is_unit(3) and not r.is_unit(0)
    assert not Zmod(12).is_unit(8)


# -- matrix plumbing --------------------------------------------------


def test_matrix_shapes_and_blocks():
    a = mat([[1, 2], [3, 4]])
    b = Matrix.identity(ZZ, 2)
    assert (a * b) == a
    assert a.transpose().entries == ((1, 3), (2, 4))
    big = Matrix.block([[a, Matrix.zeros(ZZ, 2, 1)], [Matrix.zeros(ZZ, 1, 2), Matrix.identity(ZZ, 1)]])
    assert big.rows == 3 and big.cols == 3
    assert big.entry(2, 2) == 1 and big.entry(0, 2) == 0


def test_zero_dimensional_matrices():
    e = Matrix.zeros(ZZ, 0, 3)
    f = Matrix.zeros(ZZ, 3, 0)
    assert (e * f).rows == 0 and (e * f).cols == 0
    assert (f * e) == Matrix.zeros(ZZ, 3, 3)
    assert e.transpose().rows == 3 and e.transpose().cols == 0
    assert e.is_zero() and f.is_zero()
    assert Matrix.identity(ZZ, 0).is_identity()


PRODUCT_RINGS = [ZZ, QQ, Zmod(7), Zmod(12), Zmod(2 ** 31 - 1), Zmod(2 ** 61 - 1)]


def naive_product(a, b):
    """Reference A * B with one ring callback per multiply-add."""
    ring = a.ring
    out = []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            acc = ring.zero()
            for k in range(a.cols):
                acc = ring.add(acc, ring.mul(a.entries[i][k], b.entries[k][j]))
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def assert_canonical(m):
    """ints / den in lowest terms: den 1 outside Q, residues over Z/m, and
    gcd(den, all ints) = 1 over Q; ``entries`` gives the values."""
    assert len(m.ints) == m.rows and all(len(row) == m.cols for row in m.ints)
    assert all(type(x) is int for row in m.ints for x in row)
    assert type(m.den) is int and m.den > 0
    if m.ring == QQ:
        assert math.gcd(m.den, *(x for row in m.ints for x in row)) == 1
        want = tuple(tuple(x if m.den == 1 else Fraction(x, m.den) for x in row) for row in m.ints)
        assert m.entries == want
        assert all(type(x) is (int if m.den == 1 else Fraction) for row in m.entries for x in row)
    else:
        assert m.den == 1 and m.entries is m.ints
        if m.ring != ZZ:
            assert all(0 <= x < m.ring.modulus for row in m.ints for x in row)


def reduced(ring, rows):
    """Naive reference values, computed with plain int/Fraction arithmetic, put into ``ring``."""
    if isinstance(ring, ModularRing):
        return tuple(tuple(x % ring.modulus for x in row) for row in rows)
    return tuple(tuple(row) for row in rows)


@st.composite
def product_operands(draw, ring):
    """A k x l and an l x n matrix and a second k x l one over ``ring``, and
    a scalar; entries of up to 130 bits, negative ones, zero matrices, and
    over Q both Fractions (mixed denominators) and plain ints."""
    r, k, c = (draw(st.integers(0, 4)) for _ in range(3))
    ints = st.integers(-2 ** 130, 2 ** 130)

    def entry():
        n = draw(ints)
        if ring == QQ:
            return draw(st.sampled_from((n, Fraction(n, draw(st.integers(1, 2 ** 100))),
                                         Fraction(n, draw(st.sampled_from((2, 3, 4, 6)))))))
        return ring.from_int(n)

    def matrix(rows, cols):
        if draw(st.integers(0, 5)) == 0:
            return Matrix.zeros(ring, rows, cols)
        return Matrix(ring, rows, cols, tuple(tuple(entry() for _ in range(cols))
                                              for _ in range(rows)))
    return matrix(r, k), matrix(k, c), matrix(r, k), entry()


@pytest.mark.parametrize("ring", PRODUCT_RINGS, ids=str)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_product_matches_naive_reference(ring, data):
    a, b, a2, s = data.draw(product_operands(ring))
    p = a * b
    assert (p.rows, p.cols) == (a.rows, b.cols)
    assert p.entries == naive_product(a, b)
    for m in (a, b, a2, p):
        assert_canonical(m)

    # Every entrywise operation against plain int/Fraction arithmetic on the values.
    va, vb, v2 = a.entries, b.entries, a2.entries
    s = ring.normalize(s)
    vat = [[va[i][j] for i in range(a.rows)] for j in range(a.cols)]
    vbt = [[vb[i][j] for i in range(b.rows)] for j in range(b.cols)]
    expected = [
        (a + a2, [[x + y for x, y in zip(ra, r2)] for ra, r2 in zip(va, v2)]),
        (a - a2, [[x - y for x, y in zip(ra, r2)] for ra, r2 in zip(va, v2)]),
        (-a, [[-x for x in ra] for ra in va]),
        (a.scale(s), [[s * x for x in ra] for ra in va]),
        (a.kron(b), [[x * y for x in ra for y in rb] for ra in va for rb in vb]),
        (a.transpose(), vat),
        (Matrix.block([[a, a2], [a2, a]]),
         [list(ra) + list(r2) for ra, r2 in zip(va, v2)]
         + [list(r2) + list(ra) for ra, r2 in zip(va, v2)]),
        (Matrix.block([[a], [b.transpose()]]), [*va, *vbt]),
    ]
    for got, want in expected:
        assert got.entries == reduced(ring, want)
        assert_canonical(got)
    assert (a == a2) == (va == v2)
    assert a.is_zero() == (a == Matrix.zeros(ring, a.rows, a.cols))

    # Equal values give equal matrices and equal hashes, whatever the path.
    same = [(a + a2) - a2, -(-a), a.transpose().transpose(), Matrix(ring, a.rows, a.cols, va),
            Matrix.block([[a]]), a + Matrix.zeros(ring, a.rows, a.cols),
            a.kron(Matrix.identity(ring, 1)), Matrix.identity(ring, a.rows) * a]
    if ring == QQ:
        same.append(a.scale(Fraction(1, 2)).scale(2))
    elif ring != ZZ and ring.is_unit(2):
        same.append(a.scale(pow(2, -1, ring.modulus)).scale(2))
    for m in same:
        assert m == a and hash(m) == hash(a)
        assert_canonical(m)


@pytest.mark.parametrize("ring", PRODUCT_RINGS, ids=str)
def test_product_empty_and_wide_entries(ring):
    for r, k, c in ((0, 3, 2), (2, 0, 3), (3, 2, 0), (0, 0, 0)):
        a, b = Matrix.zeros(ring, r, k), Matrix.zeros(ring, k, c)
        p = a * b
        assert p == Matrix.zeros(ring, r, c) and p.entries == naive_product(a, b)
        assert_canonical(p)
    big = 2 ** 127 - 1
    a = Matrix.from_rows(ring, [[big, -big], [-3, 1]])
    b = Matrix.from_rows(ring, [[big], [5]])
    assert (a * b).entries == naive_product(a, b)
    if ring == QQ:
        mixed = Matrix(QQ, 1, 2, ((Fraction(1, 3), 2),))
        assert (mixed * Matrix(QQ, 2, 1, ((3,), (Fraction(-1, 4),)))).entries == ((Fraction(1, 2),),)


def test_kron_matches_blockwise_definition():
    rng = random.Random(5)
    a = random_matrix(rng, ZZ, 2, 3)
    b = random_matrix(rng, ZZ, 3, 2)
    k = a.kron(b)
    for i in range(a.rows):
        for j in range(a.cols):
            for p in range(b.rows):
                for q in range(b.cols):
                    assert k.entry(i * b.rows + p, j * b.cols + q) == a.entry(i, j) * b.entry(p, q)


def test_mixed_ring_rejected():
    a = mat([[1]])
    b = mat([[1]], ring=QQ)
    with pytest.raises(ValueError):
        a * b
    with pytest.raises(ValueError):
        a + b


# -- Smith normal form ------------------------------------------------


def minors_gcd_divisors(a):
    """Independent oracle: d_k = gcd of all k x k minors (via sympy minors)."""
    m = sympy.Matrix([[int(x) for x in row] for row in a.entries])
    n = min(a.rows, a.cols)
    prev = 1
    out = []
    import itertools
    for k in range(1, n + 1):
        vals = []
        for rs in itertools.combinations(range(a.rows), k):
            for cs in itertools.combinations(range(a.cols), k):
                vals.append(int(m[rs, cs].det()))
        g = 0
        for x in vals:
            g = math.gcd(g, x)
        if g == 0:
            out.extend([0] * (n - k + 1))
            break
        out.append(g // prev)
        prev = g
    return out


def check_snf_contract(a):
    u, d, v = smith_normal_form(a)
    assert (u * a * v) == d
    assert det(u) in (1, -1) and det(v) in (1, -1)
    diag = [d.entries[i][i] for i in range(min(a.rows, a.cols))]
    for i in range(a.rows):
        for j in range(a.cols):
            if i != j:
                assert d.entry(i, j) == 0
    for x in diag:
        assert x >= 0
    nz = [x for x in diag if x != 0]
    assert diag[:len(nz)] == nz, "zeros must trail"
    for x, y in zip(nz, nz[1:]):
        assert y % x == 0
    return diag


def test_snf_frozen_cases():
    # 2x2 diagonal: divisors by the minors-gcd oracle are (gcd, det/gcd)
    diag = check_snf_contract(mat([[2, 0], [0, 3]]))
    assert diag == [1, 6]
    assert minors_gcd_divisors(mat([[2, 0], [0, 3]])) == [1, 6]
    assert check_snf_contract(mat([[0, 0], [0, 0]])) == [0, 0]
    assert check_snf_contract(mat([[1]])) == [1]
    assert check_snf_contract(mat([[4, 6], [6, 9]])) == minors_gcd_divisors(mat([[4, 6], [6, 9]]))


def test_snf_random_vs_sympy():
    rng = random.Random(23)
    for _ in range(60):
        r = rng.randint(1, 5)
        c = rng.randint(1, 5)
        a = random_matrix(rng, ZZ, r, c, -9, 9)
        diag = check_snf_contract(a)
        expected = [int(x) for x in invariant_factors(sympy.Matrix([[int(e) for e in row] for row in a.entries]))]
        expected = expected + [0] * (min(r, c) - len(expected))
        assert diag == expected


def sympy_factors(a, n):
    """sympy's invariant factors of ``a``, padded with zeros to length n."""
    out = [int(x) for x in invariant_factors(a)]
    return out + [0] * (n - len(out))


def test_snf_stays_diagonal_vs_sympy():
    rng = random.Random(5)
    for _ in range(30):
        r, c = rng.randint(4, 8), rng.randint(4, 8)
        a = random_matrix(rng, ZZ, r, c, -4, 4)
        expected = sympy_factors(sympy.Matrix([list(row) for row in a.entries]), min(r, c))
        assert check_snf_contract(a) == expected
    # Homotopy systems [d (x) I; I (x) d^T] of d = P diag(p) Q, with P, Q
    # unimodular and p of several powers of 2 and 3.  e -> (d e, e d) is
    # equivalent to e' -> (diag(p) e', e' diag(p)), which splits entry by
    # entry, so the invariant factors are those of diag(gcd(p_i, p_j)).
    n = 6
    for _ in range(8):
        pieces = [2 ** rng.randint(0, 4) * 3 ** rng.randint(0, 3) for _ in range(n)]
        p, q = (Matrix.identity(ZZ, n) for _ in range(2))
        for _ in range(2 * n):
            i, j = rng.sample(range(n), 2)
            e = Matrix.identity(ZZ, n).with_entry(i, j, rng.choice((1, -1, 2)))
            p, q = e * p, q * e.transpose()
        d = p * Matrix.build(ZZ, n, n, lambda i, j: pieces[i] if i == j else 0) * q
        eye = Matrix.identity(ZZ, n)
        system = d.kron(eye).vstack(eye.kron(d.transpose()))
        gcds = sympy.diag(*[math.gcd(x, y) for x in pieces for y in pieces])
        assert check_snf_contract(system) == sympy_factors(gcds, n * n)


def test_snf_small_vs_minors_oracle():
    rng = random.Random(31)
    for _ in range(25):
        a = random_matrix(rng, ZZ, rng.randint(1, 3), rng.randint(1, 3), -6, 6)
        assert check_snf_contract(a) == minors_gcd_divisors(a)


def test_elementary_divisors():
    assert elementary_divisors(mat([[2, 0], [0, 3]])) == [6]
    assert elementary_divisors(mat([[1, 0], [0, 1]])) == []
    assert elementary_divisors(mat([[4]])) == [4]


# -- solving ----------------------------------------------------------


def test_solve_right_frozen():
    # identity: the only solution of I*x = b is b itself
    b = mat([[5], [7]])
    assert solve_right(Matrix.identity(ZZ, 2), b) == b
    # 2x = 4 has the integer solution 2; brute scan confirms uniqueness
    sols = [x for x in range(-10, 11) if 2 * x == 4]
    assert sols == [2]
    assert solve_right(mat([[2]]), mat([[4]])) == mat([[2]])
    # 2x = 3 has no integer solution (parity scan)
    assert all(2 * x != 3 for x in range(-10, 11))
    assert solve_right(mat([[2]]), mat([[3]])) is None


@pytest.mark.parametrize("ring", [ZZ, QQ, Zmod(12), Zmod(5)])
def test_solve_right_roundtrip_random(ring):
    rng = random.Random(7)
    for _ in range(40):
        r, c, k = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 2)
        a = random_matrix(rng, ring, r, c, -5, 5)
        x0 = random_matrix(rng, ring, c, k, -5, 5)
        b = a * x0
        x = solve_right(a, b)
        assert x is not None
        assert (a * x) == b


def test_solve_right_absent_brute_force():
    rng = random.Random(13)
    checked = 0
    while checked < 10:
        a = random_matrix(rng, ZZ, 2, 2, -3, 3)
        b = random_matrix(rng, ZZ, 2, 1, -3, 3)
        span = range(-12, 13)
        has = any((a * mat([[x], [y]])) == b for x in span for y in span)
        x = solve_right(a, b)
        if x is None:
            # brute force must agree there is no small solution; and since a
            # solution's entries are bounded by Cramer-style bounds at these
            # sizes, absence on the grid means absence.
            assert not has
            checked += 1
        else:
            assert (a * x) == b


def test_solve_right_zmod_composite_lifting():
    ring = Zmod(12)
    a = Matrix.from_rows(ring, [[4]])
    assert solve_right(a, Matrix.from_rows(ring, [[8]])) is not None
    # 4x = 2 mod 12 has no solution: 4x only hits {0,4,8}
    assert all((4 * x) % 12 != 2 for x in range(12))
    assert solve_right(a, Matrix.from_rows(ring, [[2]])) is None


def test_smith_solver_reuse_and_kernel():
    a = mat([[2, 4], [1, 2]])
    solver = SmithSolver(a)
    sol = solver.solve(mat([[6], [3]]))
    assert sol is not None and (a * sol) == mat([[6], [3]])
    assert solver.solve(mat([[1], [1]])) is None


def test_rank_and_inverse():
    assert rank(mat([[2, 4], [1, 2]])) == 1
    assert rank(mat([[1, 0], [0, 1]], ring=QQ)) == 2
    assert rank(Matrix.from_rows(Zmod(5), [[1, 2], [2, 4]])) == 1
    u = mat([[1, 1], [0, 1]])
    assert is_invertible(u)
    assert solve_right(u, Matrix.identity(ZZ, 2)) * u == Matrix.identity(ZZ, 2)
    assert not is_invertible(mat([[2]]))
    assert is_invertible(Matrix.from_rows(Zmod(12), [[5]]))
    assert solve_right(mat([[2]]), Matrix.identity(ZZ, 1)) is None


def sympy_field_rank(a):
    if a.rows == 0 or a.cols == 0:
        return 0
    m = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in a.entries])
    if a.ring == QQ:
        return m.rank()
    return DomainMatrix.from_Matrix(m).convert_to(GF(a.ring.modulus)).rank()


@pytest.mark.parametrize("ring", [QQ, Zmod(2), Zmod(7), Zmod(2 ** 31 - 1)], ids=str)
def test_field_rank_and_solve_vs_sympy(ring):
    rng = random.Random(17)
    for _ in range(40):
        r, c = rng.randint(0, 5), rng.randint(0, 5)
        # low rank on purpose: a product through an inner dimension of 0..3
        k = rng.randint(0, 3)
        a = random_matrix(rng, ring, r, k, -4, 4) * random_matrix(rng, ring, k, c, -4, 4)
        if ring == QQ:
            a = a * Matrix.scalar(QQ, c, Fraction(1, rng.randint(1, 6)))
        assert rank(a) == sympy_field_rank(a)
        b = random_matrix(rng, ring, r, 2, -4, 4)
        x = solve_right(a, b)
        solvable = sympy_field_rank(a) == sympy_field_rank(a.hstack(b))
        assert (x is not None) == solvable
        if x is not None:
            assert a * x == b
            assert_canonical(x)


def test_det_values():
    assert det(mat([[2, 1], [1, 1]])) == 1
    assert det(mat([[1, 2], [2, 4]])) == 0
    assert det(Matrix.identity(QQ, 3)) == Fraction(1)
    assert det(Matrix.from_rows(Zmod(6), [[4, 1], [1, 1]])) == 3
    rng = random.Random(3)
    for _ in range(20):
        a = random_matrix(rng, ZZ, 3, 3, -6, 6)
        s = sympy.Matrix([[int(x) for x in row] for row in a.entries])
        assert det(a) == int(s.det())
    for _ in range(40):
        n = rng.randint(1, 5)
        rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(n)]
                for _ in range(n)]
        if rng.random() < 0.25:
            rows[-1] = [2 * x for x in rows[0]]      # singular when n > 1
        if rng.random() < 0.25:
            rows[0][0] = Fraction(0)                 # forces a row swap
        want = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                             for row in rows]).det()
        got = det(mat(rows, ring=QQ))
        assert isinstance(got, Fraction) and got == Fraction(int(want.p), int(want.q))
