"""The field elimination (rank, solve_right, SmithSolver over Q and Z/p)
against sympy and against a Gauss-Jordan on Fractions.

The reference below is the elimination as it ran on ``Fraction`` entries
over Q: every pivot row divided by its pivot, then subtracted from every
other row.  The library now eliminates fraction-free on the stored
integers; the solution with zero free variables is unique, so both must
return the same X, entry for entry.
"""

import random
from fractions import Fraction

import pytest
import sympy
from sympy import GF
from sympy.polys.matrices import DomainMatrix

from homcert.exactalg import (
    Matrix, ModularRing, QQ, RationalRing, SmithSolver, Zmod, _row_reduce, rank, solve_right,
)

FIELDS = [QQ, Zmod(2), Zmod(7), Zmod(2 ** 31 - 1)]


def reference_row_reduce(ring, m, ncols):
    """Gauss-Jordan on canonical entries (Fractions over Q, residues over
    Z/p): afterwards row k holds a 1 in column pivots[k]."""
    p = ring.modulus if isinstance(ring, ModularRing) else None
    n = len(m)
    pivots = []
    for col in range(ncols):
        rk = len(pivots)
        sel = next((i for i in range(rk, n) if m[i][col]), None)
        if sel is None:
            continue
        m[rk], m[sel] = m[sel], m[rk]
        piv = m[rk][col:]
        if p is None:
            f = 1 / piv[0]
            piv = m[rk][col:] = [f * x for x in piv]
        else:
            f = pow(piv[0], -1, p)
            piv = m[rk][col:] = [f * x % p for x in piv]
        for i in range(n):
            g = m[i][col]
            if i != rk and g:
                if p is None:
                    m[i][col:] = [x - g * y for x, y in zip(m[i][col:], piv)]
                else:
                    m[i][col:] = [(x - g * y) % p for x, y in zip(m[i][col:], piv)]
        pivots.append(col)
        if rk + 1 == n:
            break
    return pivots


def reference_solve(a, b):
    """X with A*X = B and zero free variables, on Fractions, or None."""
    ring = a.ring
    c, k = a.cols, b.cols
    da, db = a.den, b.den
    aug = [list(map(ring.normalize, (*map(db.__mul__, row_a), *map(da.__mul__, row_b))))
           for row_a, row_b in zip(a.ints, b.ints)]
    pivots = reference_row_reduce(ring, aug, c)
    if any(any(row[c:]) for row in aug[len(pivots):]):
        return None
    x = [(ring.zero(),) * k] * c
    for row, col in zip(aug, pivots):
        x[col] = tuple(row[c:])
    return Matrix(ring, c, k, tuple(x))


def reference_rank(a):
    return len(reference_row_reduce(a.ring, [list(map(a.ring.normalize, row))
                                             for row in a.entries], a.cols))


def sympy_rank(a):
    if a.rows == 0 or a.cols == 0:
        return 0
    rows = [[sympy.Rational(x.numerator, x.denominator) for x in row] for row in a.entries]
    dm = DomainMatrix.from_Matrix(sympy.Matrix(rows))
    return (dm.convert_to(sympy.QQ) if a.ring == QQ else dm.convert_to(GF(a.ring.modulus))).rank()


def random_entry(rng, ring):
    if ring == QQ:
        return Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 4, 6, 7)))
    return rng.randrange(ring.modulus) if rng.random() < 0.5 else rng.randint(-3, 3)


def random_matrix(rng, ring, rows, cols):
    return Matrix(ring, rows, cols, [[random_entry(rng, ring) for _ in range(cols)]
                                     for _ in range(rows)])


def low_rank(rng, ring, rows, cols):
    """A random rows x cols matrix of rank at most an inner dimension that
    is often below min(rows, cols), some of its rows zero."""
    inner = rng.randint(0, min(rows, cols) + 1)
    a = random_matrix(rng, ring, rows, inner) * random_matrix(rng, ring, inner, cols)
    if rows and rng.random() < 0.3:
        ints = list(a.ints)
        ints[rng.randrange(rows)] = (0,) * cols
        a = Matrix.from_ints(ring, rows, cols, tuple(ints), a.den)
    return a


def check_case(a, b):
    want = reference_solve(a, b)
    assert rank(a) == reference_rank(a) == sympy_rank(a)
    solvable = sympy_rank(a) == sympy_rank(a.hstack(b))
    assert (want is not None) == solvable
    solver = SmithSolver(a)
    assert solver.rank == rank(a)
    for got in (solve_right(a, b), solver.solve(b)):
        assert got == want
        if got is not None:
            assert a * got == b
            assert got.den > 0 and all(type(v) is int for row in got.ints for v in row)


@pytest.mark.parametrize("ring", FIELDS, ids=str)
def test_elimination_matches_the_fraction_reference_and_sympy(ring):
    rng = random.Random(2024)
    for rows in range(13):
        for cols in range(13):
            a = low_rank(rng, ring, rows, cols)
            k = rng.choice((0, 1, 3))
            # consistent (B in the column space), arbitrary (often not), and empty B
            check_case(a, a * random_matrix(rng, ring, cols, k))
            check_case(a, random_matrix(rng, ring, rows, k))
            check_case(a, Matrix.zeros(ring, rows, 0))


def test_dense_40_by_40_over_q():
    rng = random.Random(40)
    a = random_matrix(rng, QQ, 40, 40)
    b = random_matrix(rng, QQ, 40, 2)
    check_case(a, b)
    x = solve_right(a, b)
    assert x is not None and x.den > 1


@pytest.mark.parametrize("ring", FIELDS, ids=str)
def test_row_reduce_keeps_stored_ints(ring):
    rng = random.Random(5)
    for _ in range(30):
        a = low_rank(rng, ring, rng.randint(0, 8), rng.randint(0, 8))
        rows = [list(row) for row in a.ints]
        pivots = _row_reduce(ring, rows, a.cols)
        assert len(pivots) == sympy_rank(a)
        assert all(type(v) is int for row in rows for v in row)
        for k, col in enumerate(pivots):
            assert rows[k][col] != 0 and all(row[col] == 0 for i, row in enumerate(rows) if i != k)
            if ring != QQ:
                assert rows[k][col] == 1
        assert not any(map(any, rows[len(pivots):]))


def test_q_elimination_calls_no_normalize(monkeypatch):
    rng = random.Random(8)
    cases = [(low_rank(rng, QQ, 6, 5), random_matrix(rng, QQ, 6, 2)) for _ in range(10)]
    cases.append((random_matrix(rng, QQ, 7, 7), random_matrix(rng, QQ, 7, 1)))
    calls = []
    real = RationalRing.normalize
    monkeypatch.setattr(RationalRing, "normalize",
                        lambda self, v: calls.append(v) or real(self, v))
    for a, b in cases:
        rank(a)
        solve_right(a, b)
        SmithSolver(a).solve(b)
    assert calls == []
