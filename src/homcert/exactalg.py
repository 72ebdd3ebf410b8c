"""Exact dense linear algebra over Z, Q and Z/m.

Everything downstream (homology, contraction search, homotopy-operator
search, gluing) reduces to right-solving A*X = B over one of these rings,
so this module concentrates all the number crunching: a small immutable
matrix type, Smith normal form with unimodular witnesses over Z, and a
complete solver for each supported ring (Z/m composite included, via
lifting through the integers).

A matrix stores canonical Python ints in every ring (residues over Z/m,
one integer matrix over one common denominator over Q), so products,
sums, scaling, Kronecker products and comparisons run on ints; ring
callbacks are used for scalars only.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from itertools import chain
from typing import Callable, Optional


class Ring:
    """A commutative coefficient ring with exact element arithmetic.

    Elements are plain Python objects (int for Z and Z/m, Fraction for Q);
    the ring object supplies the operations and canonical forms.
    """

    tag: str = "?"
    # Matrix entries are reduced mod this; 0 means no reduction (Z and Q).
    _mod: int = 0

    def zero(self):
        return self.from_int(0)

    def one(self):
        return self.from_int(1)

    def from_int(self, n: int):
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def is_zero(self, a) -> bool:
        return a == self.zero()

    def is_unit(self, a) -> bool:
        raise NotImplementedError

    def normalize(self, a):
        """Canonical representative of ``a`` (used when parsing raw input)."""
        raise NotImplementedError

    @property
    def is_field(self) -> bool:
        return False

    def __repr__(self):
        return self.tag


class IntegerRing(Ring):
    tag = "Z"

    def from_int(self, n):
        return int(n)

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def is_unit(self, a):
        return a in (1, -1)

    def normalize(self, a):
        if isinstance(a, Fraction):
            if a.denominator != 1:
                raise ValueError(f"not an integer: {a}")
            return int(a)
        return int(a)

    def __eq__(self, other):
        return isinstance(other, IntegerRing)

    def __hash__(self):
        return hash("Z")


class RationalRing(Ring):
    tag = "Q"

    def from_int(self, n):
        return Fraction(n)

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def is_unit(self, a):
        return a != 0

    def normalize(self, a):
        return Fraction(a)

    @property
    def is_field(self):
        return True

    def __eq__(self, other):
        return isinstance(other, RationalRing)

    def __hash__(self):
        return hash("Q")


# Miller-Rabin with the first 13 prime bases decides primality for every
# m below the least strong pseudoprime to all of them, psi_13 (Sorenson and
# Webster, Math. Comp. 86 (2017)).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MODULUS_LIMIT = 3317044064679887385961981


def is_prime(m: int) -> bool:
    """Deterministic primality test for 0 <= m < MODULUS_LIMIT."""
    if m >= MODULUS_LIMIT:
        raise ValueError(f"primality is decided only below {MODULUS_LIMIT}")
    if m < 2:
        return False
    for p in _MR_BASES:
        if m % p == 0:
            return m == p
    d, s = m - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


class ModularRing(Ring):
    """Z/m with canonical representatives 0..m-1; m need not be prime."""

    def __init__(self, modulus: int):
        if modulus < 2:
            raise ValueError("modulus must be >= 2")
        if modulus >= MODULUS_LIMIT:
            raise ValueError(f"modulus must be below {MODULUS_LIMIT}")
        self.modulus = self._mod = int(modulus)
        self.tag = f"Z/{self.modulus}"
        self._prime = is_prime(self.modulus)

    def from_int(self, n):
        return int(n) % self.modulus

    def add(self, a, b):
        return (a + b) % self.modulus

    def mul(self, a, b):
        return (a * b) % self.modulus

    def neg(self, a):
        return (-a) % self.modulus

    def is_unit(self, a):
        return math.gcd(int(a), self.modulus) == 1

    def normalize(self, a):
        if isinstance(a, Fraction):
            if a.denominator != 1:
                raise ValueError(f"not an integer: {a}")
            a = int(a)
        return int(a) % self.modulus

    @property
    def is_field(self):
        # Only prime moduli give a field; callers that need elimination
        # (rank, solve, homology) must check this.
        return self._prime

    def __eq__(self, other):
        return isinstance(other, ModularRing) and other.modulus == self.modulus

    def __hash__(self):
        return hash(("Zmod", self.modulus))


ZZ = IntegerRing()
QQ = RationalRing()

_zmod_cache: dict[int, ModularRing] = {}


def Zmod(m: int) -> ModularRing:
    if m not in _zmod_cache:
        _zmod_cache[m] = ModularRing(m)
    return _zmod_cache[m]


def _tuples(rows, m: int) -> tuple:
    """Rows of ints as nested tuples, each entry reduced mod ``m`` unless m is 0."""
    if m:
        return tuple(tuple(x % m for x in row) for row in rows)
    return tuple(map(tuple, rows))


def _times(ints: tuple, f: int) -> tuple:
    return ints if f == 1 else tuple(tuple(map(f.__mul__, row)) for row in ints)


class Matrix:
    """Immutable dense matrix over an exact ring.

    The entry (i, j) is ``ints[i][j] / den``, stored as canonical Python
    ints: over Z ``den`` is 1; over Z/m ``den`` is 1 and ``ints`` holds
    residues 0..m-1; over Q ``den`` is positive and gcd(den, all ints) = 1,
    so the zero matrix has den 1.  Equal matrices therefore have equal
    fields.  ``ints`` is row-major nested tuples; zero-dimensional shapes
    (0 x c, r x 0) are legal and arise constantly from empty degrees of
    complexes.

    ``Matrix(ring, rows, cols, entries)`` takes entry values (ring elements
    or ints); ``from_ints`` takes the stored form directly.
    """

    __slots__ = ("ring", "rows", "cols", "ints", "den")

    def __init__(self, ring: Ring, rows: int, cols: int, entries):
        if ring == QQ:
            vals = [[x if isinstance(x, (int, Fraction)) else Fraction(x) for x in row]
                    for row in entries]
            # Each Fraction is in lowest terms, so over the lcm of the
            # denominators the gcd is already 1.
            den = math.lcm(*(x.denominator for row in vals for x in row))
            ints = tuple(tuple(x.numerator * (den // x.denominator) for x in row) for row in vals)
        else:
            ints, den = tuple(tuple(map(ring.normalize, row)) for row in entries), 1
        self.ring, self.rows, self.cols, self.ints, self.den = ring, rows, cols, ints, den

    # -- construction -------------------------------------------------

    @staticmethod
    def from_ints(ring: Ring, rows: int, cols: int, ints: tuple, den: int = 1) -> "Matrix":
        """The matrix ints / den; ``ints`` must be residues over Z/m, and
        over Q the fraction is reduced here."""
        if den != 1:
            g = math.gcd(den, *chain.from_iterable(ints))
            if g != 1:
                ints, den = tuple(tuple(x // g for x in row) for row in ints), den // g
        a = object.__new__(Matrix)
        a.ring, a.rows, a.cols, a.ints, a.den = ring, rows, cols, ints, den
        return a

    @staticmethod
    def from_rows(ring: Ring, data) -> "Matrix":
        rows = len(data)
        cols = len(data[0]) if rows else 0
        if any(len(row) != cols for row in data):
            raise ValueError("ragged rows")
        return Matrix(ring, rows, cols, data)

    @staticmethod
    def zeros(ring: Ring, rows: int, cols: int) -> "Matrix":
        return Matrix.from_ints(ring, rows, cols, ((0,) * cols,) * rows)

    @staticmethod
    def identity(ring: Ring, n: int) -> "Matrix":
        return Matrix.scalar(ring, n, 1)

    @staticmethod
    def scalar(ring: Ring, n: int, c) -> "Matrix":
        c = ring.normalize(c)
        num = c.numerator
        return Matrix.from_ints(ring, n, n, tuple(tuple(num if i == j else 0 for j in range(n))
                                                  for i in range(n)), c.denominator)

    @staticmethod
    def build(ring: Ring, rows: int, cols: int, fn: Callable[[int, int], object]) -> "Matrix":
        return Matrix(ring, rows, cols, tuple(tuple(fn(i, j) for j in range(cols)) for i in range(rows)))

    @staticmethod
    def block(grid) -> "Matrix":
        """Assemble a matrix from a 2-d grid of compatible blocks."""
        if not grid or not grid[0]:
            raise ValueError("empty block grid")
        ring = grid[0][0].ring
        for brow in grid:
            heights = {b.rows for b in brow}
            if len(heights) != 1:
                raise ValueError("inconsistent block heights")
            if any(b.ring != ring for b in brow):
                raise ValueError("mixed rings in block grid")
        for j in range(len(grid[0])):
            widths = {brow[j].cols for brow in grid}
            if len(widths) != 1:
                raise ValueError("inconsistent block widths")
        den = math.lcm(*(b.den for brow in grid for b in brow))
        out = []
        for brow in grid:
            parts = [_times(b.ints, den // b.den) for b in brow]
            out.extend(tuple(chain.from_iterable(pieces)) for pieces in zip(*parts))
        cols = sum(b.cols for b in grid[0])
        return Matrix.from_ints(ring, len(out), cols, tuple(out), den)

    # -- arithmetic ----------------------------------------------------

    def _check_same_shape(self, other: "Matrix"):
        if self.ring != other.ring:
            raise ValueError(f"mixed rings: {self.ring} vs {other.ring}")
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}")

    def _combine(self, other: "Matrix", op) -> "Matrix":
        """Entrywise ``op`` (add or sub) in one pass, over a common denominator."""
        self._check_same_shape(other)
        a, b, den = self.ints, other.ints, self.den
        if other.den != den:
            den = math.lcm(den, other.den)
            a, b = _times(a, den // self.den), _times(b, den // other.den)
        ints = _tuples((map(op, ra, rb) for ra, rb in zip(a, b)), self.ring._mod)
        return Matrix.from_ints(self.ring, self.rows, self.cols, ints, den)

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._combine(other, operator.add)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._combine(other, operator.sub)

    def __neg__(self) -> "Matrix":
        ints = _tuples((map(operator.neg, row) for row in self.ints), self.ring._mod)
        return Matrix.from_ints(self.ring, self.rows, self.cols, ints, self.den)

    def __mul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.ring != other.ring:
            raise ValueError(f"mixed rings: {self.ring} vs {other.ring}")
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        cols = tuple(zip(*other.ints)) if other.rows else ((),) * other.cols
        mul, m = operator.mul, self.ring._mod
        if m:
            ints = tuple(tuple(sum(map(mul, row, col)) % m for col in cols) for row in self.ints)
        else:
            ints = tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in self.ints)
        return Matrix.from_ints(self.ring, self.rows, other.cols, ints, self.den * other.den)

    def scale(self, c) -> "Matrix":
        c = self.ring.normalize(c)
        ints = _tuples((map(c.numerator.__mul__, row) for row in self.ints), self.ring._mod)
        return Matrix.from_ints(self.ring, self.rows, self.cols, ints, self.den * c.denominator)

    def transpose(self) -> "Matrix":
        ints = tuple(zip(*self.ints)) if self.rows else ((),) * self.cols
        return Matrix.from_ints(self.ring, self.cols, self.rows, ints, self.den)

    def kron(self, other: "Matrix") -> "Matrix":
        """Kronecker product, row-major convention."""
        if self.ring != other.ring:
            raise ValueError("mixed rings")
        ints = _tuples(([a * b for a in ra for b in rb] for ra in self.ints for rb in other.ints),
                       self.ring._mod)
        return Matrix.from_ints(self.ring, self.rows * other.rows, self.cols * other.cols,
                                ints, self.den * other.den)

    # -- queries -------------------------------------------------------

    @property
    def entries(self) -> tuple:
        """Entry values, row-major: ints, or Fractions when ``den`` is not 1."""
        if self.den == 1:
            return self.ints
        den = self.den
        return tuple(tuple(Fraction(x, den) for x in row) for row in self.ints)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.den == other.den and self.rows == other.rows and self.cols == other.cols
                and self.ring == other.ring and self.ints == other.ints)

    def __hash__(self) -> int:
        return hash((self.ring, self.rows, self.cols, self.ints, self.den))

    def is_zero(self) -> bool:
        return not any(map(any, self.ints))

    def is_identity(self) -> bool:
        return self.rows == self.cols and self == Matrix.identity(self.ring, self.rows)

    def entry(self, i: int, j: int):
        x = self.ints[i][j]
        return x if self.den == 1 else Fraction(x, self.den)

    def hstack(self, other: "Matrix") -> "Matrix":
        return Matrix.block([[self, other]])

    def vstack(self, other: "Matrix") -> "Matrix":
        return Matrix.block([[self], [other]])

    def with_entry(self, i: int, j: int, value) -> "Matrix":
        rows = [list(r) for r in self.entries]
        rows[i][j] = self.ring.normalize(value)
        return Matrix(self.ring, self.rows, self.cols, rows)

    def __repr__(self):
        if self.rows == 0 or self.cols == 0:
            return f"Matrix({self.ring}, {self.rows}x{self.cols})"
        body = "; ".join(" ".join(str(a) for a in row) for row in self.entries)
        return f"Matrix({self.ring}, [{body}])"


# ---------------------------------------------------------------------
# Smith normal form over Z
# ---------------------------------------------------------------------


def smith_normal_form(a: Matrix) -> tuple[Matrix, Matrix, Matrix]:
    """Smith normal form with unimodular witnesses, U * A * V = D.

    D is diagonal with nonnegative entries d_1 | d_2 | ... and trailing
    zeros; U and V have determinant +-1.

    Example:
        >>> from homcert.exactalg import Matrix, ZZ, smith_normal_form
        >>> a = Matrix.from_rows(ZZ, [[2, 0], [0, 3]])
        >>> u, d, v = smith_normal_form(a)
        >>> d.entries
        ((1, 0), (0, 6))
        >>> (u * a * v) == d
        True
    """
    if a.ring != ZZ:
        raise ValueError("smith_normal_form requires the ring Z")
    r, c = a.rows, a.cols
    d = [list(row) for row in a.ints]
    u = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
    v = [[1 if i == j else 0 for j in range(c)] for i in range(c)]

    def row_sub(i, k, q):  # row i -= q * row k
        d[i] = [x - q * y for x, y in zip(d[i], d[k])]
        u[i] = [x - q * y for x, y in zip(u[i], u[k])]

    def col_sub(j, k, q):  # col j -= q * col k
        for row in d:
            row[j] -= q * row[k]
        for row in v:
            row[j] -= q * row[k]

    def row_swap(i, k):
        d[i], d[k] = d[k], d[i]
        u[i], u[k] = u[k], u[i]

    def col_swap(j, k):
        for row in d:
            row[j], row[k] = row[k], row[j]
        for row in v:
            row[j], row[k] = row[k], row[j]

    def pivot_at(t):
        """Clear row t and column t except for the (t, t) entry."""
        while True:
            # smallest nonzero magnitude in the trailing block -> (t, t)
            best = None
            for i in range(t, r):
                for j in range(t, c):
                    if d[i][j] != 0 and (best is None or abs(d[i][j]) < abs(d[best[0]][best[1]])):
                        best = (i, j)
            if best is None:
                return False
            if best != (t, t):
                if best[0] != t:
                    row_swap(t, best[0])
                if best[1] != t:
                    col_swap(t, best[1])
            dirty = False
            for i in range(t + 1, r):
                if d[i][t] != 0:
                    q = d[i][t] // d[t][t]
                    row_sub(i, t, q)
                    if d[i][t] != 0:
                        dirty = True
            for j in range(t + 1, c):
                if d[t][j] != 0:
                    q = d[t][j] // d[t][t]
                    col_sub(j, t, q)
                    if d[t][j] != 0:
                        dirty = True
            if not dirty:
                return True

    t = 0
    while t < min(r, c) and pivot_at(t):
        t += 1
    rank = t

    # Divisibility chain: D is diagonal now, and each repair touches only
    # rows and columns k, k+1, turning diag(s, t) into diag(g, st/g) with
    # g = gcd(s, t) = x*s + y*t:
    #   [[x, y], [-t/g, s/g]] * diag(s, t) * [[1, -y*t/g], [1, x*s/g]].
    # Per prime this is a compare-exchange of exponents, so the sweeps stop.
    stable = False
    while not stable:
        stable = True
        for k in range(rank - 1):
            s, t = d[k][k], d[k + 1][k + 1]
            if t % s == 0:
                continue
            g = math.gcd(s, t)
            sg, tg = s // g, t // g
            x = pow(sg, -1, abs(tg))
            y = (g - x * s) // t
            for m in (d, u):
                m[k], m[k + 1] = ([x * p + y * q for p, q in zip(m[k], m[k + 1])],
                                  [-tg * p + sg * q for p, q in zip(m[k], m[k + 1])])
            for m in (d, v):
                for row in m:
                    p, q = row[k], row[k + 1]
                    row[k], row[k + 1] = p + q, -y * tg * p + x * sg * q
            stable = False

    for k in range(rank):
        if d[k][k] < 0:
            d[k] = [-x for x in d[k]]
            u[k] = [-x for x in u[k]]

    U = Matrix.from_ints(ZZ, r, r, tuple(map(tuple, u)))
    V = Matrix.from_ints(ZZ, c, c, tuple(map(tuple, v)))
    D = Matrix.from_ints(ZZ, r, c, tuple(map(tuple, d)))
    return U, D, V


def det(a: Matrix):
    """Determinant of a square matrix (exact, fraction-free Bareiss).

    Every ring runs the same integer elimination on ``ints``; over Q the
    result is divided by den^n.
    """
    if a.rows != a.cols:
        raise ValueError("determinant of a non-square matrix")
    n = a.rows
    if n == 0:
        return a.ring.one()
    m = [list(row) for row in a.ints]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return a.ring.zero()
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    value = sign * m[n - 1][n - 1]
    return Fraction(value, a.den ** n) if a.ring == QQ else a.ring.from_int(value)


def is_invertible(a: Matrix) -> bool:
    if a.rows != a.cols:
        return False
    return a.ring.is_unit(det(a))


# ---------------------------------------------------------------------
# Right-solving
# ---------------------------------------------------------------------


def _row_reduce(ring: Ring, m: list, ncols: int) -> list:
    """Gauss-Jordan elimination over Q or Z/p, in place on the rows ``m``.

    Pivots are taken in the first ``ncols`` columns only (the rest is an
    augmented part); returns the pivot columns, and afterwards row k holds a
    1 in column pivots[k] and every other row a 0 there.  Entries must be
    canonical: Fractions over Q, ints in 0..p-1 over Z/p.
    """
    p = ring.modulus if isinstance(ring, ModularRing) else None
    n = len(m)
    pivots = []
    for col in range(ncols):
        rk = len(pivots)
        sel = next((i for i in range(rk, n) if m[i][col]), None)
        if sel is None:
            continue
        m[rk], m[sel] = m[sel], m[rk]
        # Entries left of col are zero in the pivot row, so rows change from col on.
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


def _solve_field(a: Matrix, b: Matrix) -> Optional[Matrix]:
    """Gauss-Jordan over Q or Z/p; free variables are left zero."""
    ring = a.ring
    c, k = a.cols, b.cols
    # [A | B] times a.den * b.den has the same solutions and integer
    # entries; normalize makes them Fractions over Q, residues over Z/p.
    da, db = a.den, b.den
    aug = [list(map(ring.normalize, (*map(db.__mul__, row_a), *map(da.__mul__, row_b))))
           for row_a, row_b in zip(a.ints, b.ints)]
    pivots = _row_reduce(ring, aug, c)
    if any(any(row[c:]) for row in aug[len(pivots):]):
        return None
    zero = (ring.zero(),) * k
    x = [zero] * c
    for row, col in zip(aug, pivots):
        x[col] = tuple(row[c:])
    return Matrix(ring, c, k, tuple(x))


class SmithSolver:
    """Factor A over Z once; then solve A*X = B repeatedly.

    A solution has zero coordinates along ker(A) in the basis of V's
    columns, so every solution lies in one fixed complement of ker(A).
    """

    def __init__(self, a: Matrix):
        if a.ring != ZZ:
            raise ValueError("SmithSolver requires the ring Z")
        self.a = a
        self.u, self.d, self.v = smith_normal_form(a)
        self.diag = [self.d.ints[i][i] for i in range(min(a.rows, a.cols))]
        self.rank = sum(1 for x in self.diag if x != 0)

    def solve(self, b: Matrix) -> Optional[Matrix]:
        if b.rows != self.a.rows:
            raise ValueError("shape mismatch in solve")
        cb = self.u * b
        y_rows = []
        for i in range(self.a.cols):
            if i < len(self.diag) and self.diag[i] != 0:
                di = self.diag[i]
                row = []
                for j in range(b.cols):
                    q, rem = divmod(cb.ints[i][j], di)
                    if rem:
                        return None
                    row.append(q)
                y_rows.append(row)
            else:
                y_rows.append([0] * b.cols)
        for i in range(self.a.rows):
            if i >= len(self.diag) or self.diag[i] == 0:
                if any(cb.ints[i]):
                    return None
        return self.v * Matrix.from_ints(ZZ, self.a.cols, b.cols, tuple(map(tuple, y_rows)))


def solve_right(a: Matrix, b: Matrix) -> Optional[Matrix]:
    """One solution X of A*X = B, or None when no solution exists.

    Complete over Z (Smith form), over the fields Q and Z/p (the shared
    Gauss-Jordan elimination), and over composite Z/m (lift to an
    augmented integer system A*X + m*W = B).

    Example:
        >>> from homcert.exactalg import Matrix, ZZ, solve_right
        >>> a = Matrix.from_rows(ZZ, [[2]])
        >>> solve_right(a, Matrix.from_rows(ZZ, [[4]])).entries
        ((2,),)
        >>> solve_right(a, Matrix.from_rows(ZZ, [[3]])) is None
        True
    """
    if a.ring != b.ring:
        raise ValueError("mixed rings in solve_right")
    if a.rows != b.rows:
        raise ValueError(f"shape mismatch: A has {a.rows} rows, B has {b.rows}")
    ring = a.ring
    if ring == ZZ:
        return SmithSolver(a).solve(b)
    if ring.is_field:
        return _solve_field(a, b)
    if isinstance(ring, ModularRing):
        m = ring.modulus
        # Entries are ints, so lifting to Z only changes the ring.
        lift_a = Matrix.from_ints(ZZ, a.rows, a.cols, a.ints)
        lift_b = Matrix.from_ints(ZZ, b.rows, b.cols, b.ints)
        sol = solve_right(lift_a.hstack(Matrix.scalar(ZZ, a.rows, m)), lift_b)
        if sol is None:
            return None
        return Matrix.from_ints(ring, a.cols, b.cols, _tuples(sol.ints[:a.cols], m))
    raise ValueError(f"unsupported ring: {ring}")


def rank(a: Matrix) -> int:
    """Rank over Z (via Smith form) or over a field (via elimination)."""
    ring = a.ring
    if ring == ZZ:
        _, d, _ = smith_normal_form(a)
        return sum(1 for i in range(min(a.rows, a.cols)) if d.ints[i][i] != 0)
    if ring.is_field:
        return len(_row_reduce(ring, [list(map(ring.normalize, row)) for row in a.ints], a.cols))
    raise ValueError(f"rank is not supported over {ring}")


def elementary_divisors(a: Matrix) -> list[int]:
    """Nontrivial invariant factors (> 1) of an integer matrix."""
    _, d, _ = smith_normal_form(a)
    out = []
    for i in range(min(a.rows, a.cols)):
        x = d.ints[i][i]
        if x > 1:
            out.append(x)
    return out
