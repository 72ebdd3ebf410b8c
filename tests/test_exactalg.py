"""Core exact linear algebra: rings, Smith form, solving."""

import itertools
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
    is_prime, rank, smith_normal_form, solve_right,
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


def test_block_joins_empty_blocks_and_fractions():
    a = mat([[1, 2], [3, 4]])
    # zero-height and zero-width blocks join, and leave the others as they are
    assert Matrix.block([[a, Matrix.zeros(ZZ, 2, 0)], [Matrix.zeros(ZZ, 0, 2),
                                                        Matrix.zeros(ZZ, 0, 0)]]) == a
    tall = Matrix.block([[Matrix.zeros(ZZ, 0, 3)], [Matrix.zeros(ZZ, 2, 3)]])
    assert (tall.rows, tall.cols) == (2, 3) and tall.is_zero()
    wide = Matrix.block([[Matrix.zeros(ZZ, 0, 2), Matrix.zeros(ZZ, 0, 1)]])
    assert (wide.rows, wide.cols, wide.ints) == (0, 3, ())
    # over Q the blocks meet at the lcm of their denominators, in lowest terms
    half, third = Matrix.scalar(QQ, 1, Fraction(1, 2)), Matrix.scalar(QQ, 1, Fraction(1, 3))
    joined = Matrix.block([[half, third], [Matrix.identity(QQ, 1), Matrix.zeros(QQ, 1, 1)]])
    assert joined == Matrix.from_rows(QQ, [[Fraction(1, 2), Fraction(1, 3)], [1, 0]])
    assert (joined.ints, joined.den) == (((3, 2), (6, 0)), 6)


@pytest.mark.parametrize("grid, message", [
    ([], "empty block grid"),
    ([[]], "empty block grid"),
    ([["a", "a"], ["a", "a", "a"]], "ragged block grid"),
    ([["a", "a", "a"], ["a", "a"]], "ragged block grid"),
    ([["a"], []], "ragged block grid"),
    ([["a", "a21"]], "inconsistent block heights"),
    ([["a", "a"], ["a12", "a12"]], "inconsistent block widths"),
    ([["a", "z0x1"]], "inconsistent block heights"),
    ([["z0x1"], ["z1x0"]], "inconsistent block widths"),
    ([["z0x1", "z1x0"]], "inconsistent block heights"),
    ([["a", "q"]], "mixed rings in block grid"),
    ([["a"], ["z7"]], "mixed rings in block grid"),
])
def test_block_refuses_a_bad_grid(grid, message):
    blocks = {"a": Matrix.identity(ZZ, 1), "a12": Matrix.zeros(ZZ, 1, 2),
              "a21": Matrix.zeros(ZZ, 2, 1),
              "z0x1": Matrix.zeros(ZZ, 0, 1), "z1x0": Matrix.zeros(ZZ, 1, 0),
              "q": Matrix.identity(QQ, 1), "z7": Matrix.identity(Zmod(7), 1)}
    with pytest.raises(ValueError, match=message):
        Matrix.block([[blocks[name] for name in brow] for brow in grid])


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


def unit_entries(ring):
    """1, -1 and, over Z/m, m - 1: the entries of identity and sign blocks."""
    return (1, -1) + ((ring.modulus - 1,) if isinstance(ring, ModularRing) else ())


@st.composite
def product_operands(draw, ring):
    """A k x l and an l x n matrix and a second k x l one over ``ring``, and
    a scalar; entries of up to 130 bits, negative ones, zero matrices, and
    over Q both Fractions (mixed denominators) and plain ints.  Half the
    time the shapes go up to 10 and each row has a drawn number of nonzero
    entries (none, exactly half, one either side of half, all, or any),
    many of them 1, -1 or m - 1, so that rows on both sides of the switch
    between summing rows and taking dot products are met."""
    sparse = draw(st.booleans())
    r, k, c = (draw(st.integers(0, 10 if sparse else 4)) for _ in range(3))
    ints = st.integers(-2 ** 130, 2 ** 130)

    def entry():
        n = draw(ints)
        if ring == QQ:
            return draw(st.sampled_from((n, Fraction(n, draw(st.integers(1, 2 ** 100))),
                                         Fraction(n, draw(st.sampled_from((2, 3, 4, 6)))))))
        return ring.from_int(n)

    def nonzero():
        if draw(st.booleans()):
            return draw(st.sampled_from(unit_entries(ring)))
        e = entry()
        return e if ring.normalize(e) else 1

    def sparse_row(cols):
        half = cols // 2
        count = draw(st.one_of(st.sampled_from((0, half, half + 1, max(half - 1, 0), cols)),
                               st.integers(0, cols)))
        at = set(draw(st.permutations(range(cols)))[:count])
        return tuple(nonzero() if j in at else 0 for j in range(cols))

    def matrix(rows, cols):
        if draw(st.integers(0, 5)) == 0:
            return Matrix.zeros(ring, rows, cols)
        row = sparse_row if sparse else lambda cols: tuple(entry() for _ in range(cols))
        return Matrix(ring, rows, cols, tuple(row(cols) for _ in range(rows)))
    return matrix(r, k), matrix(k, c), matrix(r, k), entry()


@pytest.mark.parametrize("ring", PRODUCT_RINGS, ids=str)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_product_matches_naive_reference(ring, data):
    a, b, a2, s = data.draw(product_operands(ring))
    p = a * b
    assert (p.rows, p.cols) == (a.rows, b.cols)
    assert p.entries == naive_product(a, b)
    # the transposed product meets the rows of b where a * b meets its columns
    assert p == (b.transpose() * a.transpose()).transpose()
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


@pytest.mark.parametrize("ring", PRODUCT_RINGS, ids=str)
def test_product_at_every_row_density(ring):
    # row i of a has i nonzero entries, so every count from none to all,
    # exactly half included, meets both the row sums and the dot products
    rng = random.Random(13)
    units = unit_entries(ring)
    for k in range(11):
        for n in (1, 3, 10):
            a = Matrix(ring, k + 1, k, tuple(
                tuple(rng.choice(units) if j < i else 0 for j in rng.sample(range(k), k))
                for i in range(k + 1)))
            b = Matrix.build(ring, k, n, lambda *_: rng.choice(units + (0, 0, rng.randint(-99, 99))))
            pairs = [(a, b), (a.scale(rng.randint(2, 9)), b), (b.transpose(), a.transpose())]
            if ring == QQ:
                pairs.append((a.scale(Fraction(1, 2)), b))
            for left, right in pairs:
                p = left * right
                assert p.entries == naive_product(left, right)
                assert_canonical(p)


@pytest.mark.parametrize("ring", PRODUCT_RINGS, ids=str)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_is_scalar_agrees_with_the_scalar_matrix(ring, data):
    n = data.draw(st.integers(0, 4))
    values = st.one_of(st.sampled_from((0, 1, -1, 2)), st.integers(-2 ** 70, 2 ** 70))
    if ring == QQ:
        values = st.one_of(values, st.fractions(max_denominator=2 ** 40))
    c, other = data.draw(values), data.draw(values)
    candidates = [Matrix.scalar(ring, n, c), Matrix.scalar(ring, n, other),
                  Matrix.identity(ring, n), Matrix.zeros(ring, n, n), Matrix.zeros(ring, n, n + 1)]
    if n:
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        candidates.append(Matrix.scalar(ring, n, c).with_entry(i, j, data.draw(values)))
    candidates.append(data.draw(product_operands(ring))[0])
    for m in candidates:
        for s in (c, other, 0, 1):
            assert m.is_scalar(s) == (m == Matrix.scalar(ring, m.rows, s)), (m, s)
        assert m.is_identity() == m.is_scalar(1) == (m == Matrix.identity(ring, m.rows))


GATHER_RINGS = [ZZ, QQ, Zmod(7), Zmod(12), Zmod(2 ** 31 - 1)]


def plain_product(a, b):
    """Reference A * B: a triple loop on int/Fraction values, reduced into the ring."""
    va, vb = a.entries, b.entries
    return reduced(a.ring, [[sum(va[i][t] * vb[t][j] for t in range(a.cols))
                             for j in range(b.cols)] for i in range(a.rows)])


@st.composite
def structured_matrix(draw, ring, rows, cols):
    """A ``rows`` x ``cols`` matrix that is, by draw: the identity or a
    permutation (square shapes only), a selection with zero rows or columns,
    rows or columns with at most one scaled nonzero, a scalar matrix, all
    zeros, or dense."""
    values = st.one_of(st.sampled_from(unit_entries(ring) + (2, 3)),
                       st.integers(-2 ** 70, 2 ** 70))
    if ring == QQ:
        values = st.one_of(values, st.fractions(max_denominator=2 ** 20))
    kinds = ["selection", "one per row", "one per column", "zeros", "dense"]
    if rows == cols:
        kinds += ["identity", "permutation", "scalar"]
    kind = draw(st.sampled_from(kinds))
    if kind == "identity":
        return Matrix.identity(ring, rows)
    if kind == "scalar":
        return Matrix.scalar(ring, rows, draw(values))
    if kind == "zeros":
        return Matrix.zeros(ring, rows, cols)
    if kind == "dense":
        return Matrix(ring, rows, cols, [[draw(values) for _ in range(cols)] for _ in range(rows)])
    grid = [[0] * cols for _ in range(rows)]
    if kind == "permutation":
        for i, j in enumerate(draw(st.permutations(range(cols)))):
            grid[i][j] = 1
    elif kind == "selection":
        # a partial injection: [I; 0], [0 I] and their permuted kin
        targets = draw(st.permutations(range(cols)))
        for i in range(rows):
            if i < cols and draw(st.booleans()):
                grid[i][targets[i]] = 1
    else:
        per_row = kind == "one per row"
        span = cols if per_row else rows
        for t in range(rows if per_row else cols):
            if span and draw(st.integers(0, 3)):
                at = draw(st.integers(0, span - 1))
                i, j = (t, at) if per_row else (at, t)
                grid[i][j] = draw(values)
    return Matrix(ring, rows, cols, grid)


@pytest.mark.parametrize("ring", GATHER_RINGS, ids=str)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_structured_products_match_a_plain_reference(ring, data):
    r, k, c = (data.draw(st.integers(0, 6)) for _ in range(3))
    if data.draw(st.booleans()):
        k = r  # square left factors: identities, permutations, scalars
    a = data.draw(structured_matrix(ring, r, k))
    b = data.draw(structured_matrix(ring, k, c))
    for left, right in ((a, b), (b.transpose(), a.transpose())):
        p = left * right
        assert (p.rows, p.cols) == (left.rows, right.cols)
        assert p.entries == plain_product(left, right)
        assert_canonical(p)


@pytest.mark.parametrize("ring", GATHER_RINGS, ids=str)
def test_identity_products_at_the_edges(ring):
    rng = random.Random(7)
    for n in (0, 1, 3):
        eye = Matrix.identity(ring, n)
        assert eye.ints is Matrix.identity(QQ, n).ints  # one tuple per size, in every ring
        for m in (0, 2, 3):
            wide = Matrix.build(ring, n, m, lambda *_: ring.from_int(rng.randint(-5, 5)))
            assert eye * wide == wide and wide.transpose() * eye == wide.transpose()
            # a 0 x n matrix stores the empty tuple, like the 0 x 0 identity
            for left, right in ((Matrix.zeros(ring, 0, n), wide),
                                (Matrix.zeros(ring, m, 0), Matrix.zeros(ring, 0, n)),
                                (Matrix.identity(ring, m), Matrix.zeros(ring, m, 0)),
                                (Matrix.zeros(ring, m, 0), Matrix.identity(ring, 0))):
                p = left * right
                assert (p.rows, p.cols) == (left.rows, right.cols)
                assert p.entries == plain_product(left, right)
        with pytest.raises(ValueError, match="cannot multiply"):
            eye * Matrix.zeros(ring, n + 1, 2)
        # an empty side is no excuse for disagreeing inner dimensions
        for left, right in ((Matrix.zeros(ring, 0, n), Matrix.zeros(ring, n + 1, 2)),
                            (Matrix.zeros(ring, 2, n + 1), Matrix.zeros(ring, n, 0)),
                            (Matrix.zeros(ring, 2, 0), Matrix.zeros(ring, 1, 3))):
            with pytest.raises(ValueError, match="cannot multiply"):
                left * right
    if ring == QQ:
        half = Matrix.scalar(QQ, 3, Fraction(1, 2))  # the identity's ints over 2
        x = Matrix.build(QQ, 3, 3, lambda i, j: Fraction(i - j, 3))
        assert (half * x).entries == (x * half).entries == plain_product(x, half)
    other = ZZ if ring != ZZ else QQ
    for left, right in ((Matrix.identity(ring, 2), Matrix.identity(other, 2)),
                        (Matrix.identity(ring, 2), Matrix.zeros(other, 2, 3)),
                        (Matrix.zeros(other, 3, 2), Matrix.identity(ring, 2)),
                        (Matrix.zeros(ring, 0, 2), Matrix.zeros(other, 2, 3)),
                        (Matrix.zeros(ring, 2, 0), Matrix.zeros(other, 0, 3)),
                        (Matrix.zeros(other, 3, 2), Matrix.zeros(ring, 2, 0))):
        with pytest.raises(ValueError, match="mixed rings"):
            left * right


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


def test_snf_of_a_divisibility_chain_keeps_identity_multipliers():
    # Already diagonal with d_1 | d_2 | ... and trailing zeros: elimination
    # moves nothing, so U and V hold the shared identity ints.
    for rows in ([[1, 0, 0], [0, 2, 0]], [[2, 0], [0, 6], [0, 0]], [[3]], [[0, 0]]):
        a = mat(rows)
        u, d, v = smith_normal_form(a)
        assert d == a
        assert u.ints is Matrix.identity(ZZ, a.rows).ints
        assert v.ints is Matrix.identity(ZZ, a.cols).ints
    # a broken chain or a negative entry moves U
    for rows in ([[2, 0], [0, 3]], [[-1, 0], [0, 2]]):
        u, d, v = smith_normal_form(mat(rows))
        assert u.ints is not Matrix.identity(ZZ, 2).ints and not u.is_identity()
        check_snf_contract(mat(rows))


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
    # against exhaustive enumeration of X, through solve_right and through
    # one SmithSolver reused for every right-hand side
    rng = random.Random(12)
    for m in (4, 6, 8, 12):
        ring = Zmod(m)
        for cols in (2, 1) * 5:
            a = random_matrix(rng, ring, 2, cols, 0, m - 1)
            images = {a * Matrix.from_rows(ring, [[v] for v in xs])
                      for xs in itertools.product(range(m), repeat=cols)}
            solver = SmithSolver(a)
            for b in [random_matrix(rng, ring, 2, 1, 0, m - 1) for _ in range(6)] + sorted(
                    images, key=lambda img: img.ints)[:3]:
                for x in (solve_right(a, b), solver.solve(b)):
                    assert (x is not None) == (b in images)
                    assert x is None or a * x == b


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
    assert solve_right(u, Matrix.identity(ZZ, 2)) * u == Matrix.identity(ZZ, 2)
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
