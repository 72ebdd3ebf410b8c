"""Composite Z/m without integer lifts.

Z/m splits by the Chinese remainder theorem into the local rings Z/p^e,
and each is factored by the local Smith form on residues.  The reference
is the solver this replaced: the Smith form over Z of the integer lift
[A | m*I], on the Kronecker assembly of the homotopy system.  Every
verdict must match it, and every solution is checked again.
"""

import json
import math
import random
import time

import pytest
import sympy
from sympy.matrices.normalforms import invariant_factors

from homcert.cli import main
from homcert.complexes import (
    GradedFreeComplex, HomotopySystem, find_contraction, is_contraction, null_homotopies,
    reduce_units,
)
from homcert.exactalg import (
    MODULUS_LIMIT, Matrix, SmithSolver, ZZ, Zmod, det, factorize, is_prime, smith_normal_form,
    solve_right,
)
from homcert.kernel import check_structure
from homcert.serialize import dumps, structure_from_json

MODULI = (4, 8, 9, 12, 36, 60, 2 ** 32, 2 * (2 ** 31 - 1))


class LiftSolver:
    """The reference: A*X = B mod m exactly when A*X + m*W = B over Z for
    some W, so [A | m*I] is factored once over Z and a solution of the
    lift, cut to its first A.cols rows, solves A*X = B."""

    def __init__(self, a):
        m = a.ring.modulus
        lift = Matrix.from_ints(ZZ, a.rows, a.cols, a.ints).hstack(Matrix.scalar(ZZ, a.rows, m))
        self.a = a
        self.u, d, v = smith_normal_form(lift)
        self.v = Matrix.from_ints(ZZ, a.cols, lift.cols, v.ints[:a.cols])
        self.diag = [d.ints[i][i] for i in range(min(lift.rows, lift.cols))]

    def solve(self, b):
        cb = self.u * Matrix.from_ints(ZZ, b.rows, b.cols, b.ints)
        if any(v % d for d, row in zip(self.diag, cb.ints) for v in row):
            return None
        y = tuple(tuple(v // d for v in row) for d, row in zip(self.diag, cb.ints))
        y += ((0,) * b.cols,) * (self.v.cols - len(y))
        return (self.v * Matrix.from_ints(ZZ, self.v.cols, b.cols, y)).over(self.a.ring)

    def divisor(self, column):
        """The least b | m with A*X = c*column solvable exactly when b | c:
        row i of the lift asks d_i | c * (U column)_i."""
        uv = self.u * Matrix.from_ints(ZZ, column.rows, 1, column.ints)
        return math.lcm(1, *(d // math.gcd(d, w) for d, (w,) in zip(self.diag, uv.ints)))


def kron_system(x):
    """d*e + e*d as one Kronecker-assembled matrix: row block i holds
    d_(i+1) (x) I beside I (x) d_i^T."""
    ring, degs = x.ring, list(x.degrees())
    shapes = [(x.rank(j + 1), x.rank(j)) for j in degs[:-1]]
    rows = []
    for i in degs:
        n, eye = x.rank(i), Matrix.identity(ring, x.rank(i))
        blocks = [x.diff(i + 1).kron(eye) if j == i
                  else eye.kron(x.diff(i).transpose()) if j == i - 1
                  else Matrix.zeros(ring, n * n, r * c)
                  for j, (r, c) in zip(degs, shapes)]
        rows.append(Matrix.block([blocks]) if blocks else Matrix.zeros(ring, n * n, 0))
    return Matrix.block([[m] for m in rows])


def reference_b(x):
    """b of ``null_homotopies`` by the lift of the unreduced system."""
    system = HomotopySystem(x)
    assert system.system == kron_system(x)
    return LiftSolver(system.system).divisor(system.unit)


def random_complex(rng, m, length=3, size=3, p=None):
    """A sum of pieces R --a--> R, coupled pieces R --a--> R --b--> R with
    a * b = 0 mod m, and lone copies of R, written in a random basis in
    every degree.  With ``p`` every entry is a multiple of p."""
    step = p or 1
    ranks = [0] * length
    cells = []  # (degree of the source, entry, row, column) of the differential out of it

    def fresh(j):
        ranks[j] += 1
        return ranks[j] - 1
    for _ in range(rng.randint(1, size)):
        kind = rng.random()
        if kind < 0.1:
            fresh(rng.randrange(length))
        elif length > 2 and kind < 0.4:
            a = step * rng.randrange(1, m // step)
            unit = math.lcm(m // math.gcd(a, m), step)
            top, mid, bottom = fresh(2), fresh(1), fresh(0)
            cells += [(2, unit * rng.randrange(m // unit), mid, top), (1, a, bottom, mid)]
        else:
            j = rng.randrange(1, length)
            src, tgt = fresh(j), fresh(j - 1)
            cells.append((j, step * rng.randrange(m // step), tgt, src))
    d = [[[0] * ranks[j + 1] for _ in range(ranks[j])] for j in range(length - 1)]
    for j, a, r, c in cells:
        d[j - 1][r][c] = a
    # g = 1 + c e_kl in degree j: g d into degree j, d g^-1 out of degree j
    for j, n in enumerate(ranks):
        for _ in range(2 * n if n > 1 else 0):
            k, l = rng.sample(range(n), 2)
            c = step * rng.randint(-2, 2) if p else rng.randint(-2, 2)
            if j < length - 1:
                d[j][k] = [x + c * y for x, y in zip(d[j][k], d[j][l])]
            if j:
                for row in d[j - 1]:
                    row[l] -= c * row[k]
    ring = Zmod(m)
    return GradedFreeComplex(ring, 0, tuple(ranks), tuple(
        Matrix.from_ints(ring, ranks[j], ranks[j + 1], tuple(tuple(v % m for v in row)
                                                            for row in d[j]))
        for j in range(length - 1)))


def assert_null_homotopy(x, e, c):
    for i in x.degrees():
        lhs = x.diff(i + 1) * e.mat(i) + e.mat(i - 1) * x.diff(i)
        assert lhs == Matrix.scalar(x.ring, x.rank(i), c)


def check_against_the_lift(x, rng):
    b, free, solve = null_homotopies(x)
    m = x.ring.modulus
    assert not free and m % b == 0
    assert b == reference_b(x)
    for c in {0, 1, b, m - b, rng.randrange(m), b * rng.randrange(m) % m}:
        e = solve(c)
        assert (e is not None) == (c % b == 0)
        if e is not None:
            assert_null_homotopy(x, e, c)


# -- factoring m ---------------------------------------------------------


def test_factorize_matches_sympy():
    rng = random.Random(1)
    cases = list(range(1, 3000)) + [rng.randrange(2, MODULUS_LIMIT) for _ in range(40)]
    cases += [2 ** 81, 3 ** 51, 1009 ** 2 * 1013, 999983 * 1000003 * 1000033, 2 * (2 ** 31 - 1)]
    for m in cases:
        assert factorize(m) == tuple(sorted(sympy.factorint(m).items())), m


@pytest.mark.parametrize("m, want", [
    # two primes just below sqrt(MODULUS_LIMIT), the worst case for rho
    (1821275395031 * 1821275395019, ((1821275395019, 1), (1821275395031, 1))),
    (1821275395031 ** 2, ((1821275395031, 2),)),
    (3317044064679887385961813, ((3317044064679887385961813, 1),)),
], ids=["semiprime", "prime-square", "prime"])
def test_factorize_is_fast_at_the_worst_moduli(m, want):
    assert m < MODULUS_LIMIT and all(is_prime(p) for p, _ in want)
    start = time.perf_counter()
    assert factorize(m) == want
    assert time.perf_counter() - start < 15


def test_a_ring_factors_its_modulus_once():
    ring = Zmod(60)
    assert ring.factors == ((2, 2), (3, 1), (5, 1)) and ring.factors is ring.factors


# -- the local Smith form -------------------------------------------------


def valuation(x, p, e):
    """v_p(x) capped at e; x = 0 gives e."""
    v = 0
    while x and x % p == 0 and v < e:
        x, v = x // p, v + 1
    return v if x else e


@pytest.mark.parametrize("p, e", [(2, 1), (7, 1), (2 ** 31 - 1, 1), (2, 2), (2, 3), (3, 2),
                                  (5, 2), (3, 3), (7, 3), (2, 32)])
def test_local_smith_form_matches_the_integer_invariant_factors(p, e):
    rng, q = random.Random(100 * p + e), p ** e
    ring = Zmod(q)
    for _ in range(25):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        scale = [p ** rng.randint(0, e) for _ in range(r)]  # rows of mixed valuation
        a = Matrix.build(ring, r, c, lambda i, j: scale[i] * rng.randrange(q))
        u, d, v = smith_normal_form(a)
        assert u * a * v == d
        for w in (u, d, v):
            assert all(0 <= x < q for row in w.ints for x in row)
        assert math.gcd(det(u), p) == 1 and math.gcd(det(v), p) == 1
        diag = [d.ints[i][i] for i in range(min(r, c))]
        assert all(d.ints[i][j] == 0 for i in range(r) for j in range(c) if i != j)
        exps = [valuation(x, p, e) for x in diag]
        assert exps == sorted(exps) and all(x == p ** k for x, k in zip(diag, exps) if k < e)
        lift = sympy.Matrix([list(row) for row in a.ints])
        assert exps == [valuation(int(s), p, e) for s in invariant_factors(lift)]


# -- solving over Z/m ----------------------------------------------------


@pytest.mark.parametrize("m", MODULI)
def test_solve_right_matches_the_lift(m):
    rng, ring = random.Random(m), Zmod(m)
    p = factorize(m)[0][0]
    for k in range(30):
        r, c = rng.randint(1, 4), rng.randint(1, 4)
        step = p if k % 2 else 1  # every other A has no unit entry
        a = Matrix.build(ring, r, c, lambda i, j: step * rng.randrange(m))
        solver, lift = SmithSolver(a), LiftSolver(a)
        image = a * Matrix.build(ring, c, 2, lambda i, j: rng.randrange(m))
        for b in (image, Matrix.build(ring, r, 2, lambda i, j: rng.randrange(m)),
                  image.scale(p) + Matrix.build(ring, r, 2, lambda i, j: rng.choice((0, 1)))):
            want = lift.solve(b)
            for x in (solver.solve(b), solve_right(a, b)):
                assert (x is None) == (want is None)
                assert x is None or a * x == b
            assert want is None or a * want == b


# -- null-homotopies -----------------------------------------------------


@pytest.mark.parametrize("m", MODULI)
def test_null_homotopies_match_the_lift(m):
    rng = random.Random(7 * m)
    p = factorize(m)[0][0]
    small = m > 1000  # the lift's integer Smith form grows with m
    for k in range(12):
        length = 2 if small and k % 2 else 3
        x = random_complex(rng, m, length, 2 if small else 4, p if k % 3 == 0 else None)
        check_against_the_lift(x, rng)


def test_three_term_complexes_over_z_mod_2_to_the_e_match_the_lift():
    rng = random.Random(600)
    for k in range(600):
        e = 2 + k % 9
        check_against_the_lift(random_complex(rng, 2 ** e, 3, 3, 2 if k % 4 == 0 else None), rng)


def test_coupled_z4_has_no_nonzero_null_homotopic_scalar():
    # Z/4 --2--> Z/4 --2--> Z/4: c = 2a, c = 2a + 2b and c = 2b force c = 0.
    # Over Z/12 the same Z/4 factor beside a contractible Z/3 factor keeps
    # b = 4; beside Z/3 with homology, b_3 = 3 joins it.
    for m, d1, d2, want in ((4, [[2]], [[2]], 4), (12, [[10, 0]], [[6], [4]], 4),
                            (12, [[6]], [[6]], 12), (12, [[2]], [[6]], 12)):
        ring = Zmod(m)
        x = GradedFreeComplex(ring, 0, (1, len(d2), 1), (Matrix.from_rows(ring, d1),
                                                          Matrix.from_rows(ring, d2)))
        b, free, solve = null_homotopies(x)
        assert (b, free) == (want, False) and reference_b(x) == want
        assert_null_homotopy(x, solve(0), 0)
        assert all(solve(c) is None for c in range(1, m) if c % want)
        assert_null_homotopy(x, solve(want % m), want % m)


def block_complex(n):
    """Z/12^n --d--> Z/12^n, d block-diagonal in [[9, 4], [4, 9]]: no entry
    is a unit mod 12, but each is a unit or zero mod 4 and mod 3."""
    ring = Zmod(12)
    d = Matrix.build(ring, n, n, lambda i, j: (9 if i == j else 4) if i // 2 == j // 2 else 0)
    return GradedFreeComplex(ring, 0, (n, n), (d,))


def test_the_z12_block_complex_cancels_entirely_after_the_split():
    x = block_complex(10)
    for q in (4, 3):
        part = GradedFreeComplex(Zmod(q), 0, x.ranks, tuple(d.over(Zmod(q)) for d in x.diffs))
        y = reduce_units(part)[0]
        assert y.is_zero()
    h = find_contraction(x)
    assert h is not None and is_contraction(h)
    assert null_homotopies(x)[0] == 1


@pytest.mark.parametrize("x, gens", [
    (block_complex(6), "6"),
    (GradedFreeComplex(Zmod(2 ** 32), 0, (4, 4), (Matrix.build(
        Zmod(2 ** 32), 4, 4, lambda i, j: 2 * (1 + 3 * i + 5 * j) ** 7),)), "2"),
], ids=["Z12-block-6", "Z2^32-no-unit-4"])
def test_cli_finds_structures_on_composite_complexes(tmp_path, capsys, x, gens):
    path = tmp_path / "x.json"
    path.write_text(dumps(x))
    assert main(["homotopy", "find", str(path), "--gens", gens]) == 0
    assert check_structure(structure_from_json(json.loads(capsys.readouterr().out))) == []
