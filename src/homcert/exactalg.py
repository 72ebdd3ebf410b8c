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
from itertools import chain, compress
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
        if type(a) is int:
            return a
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
        if type(a) is int:
            return a % self.modulus
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


# The stored ints of the n x n identity, one tuple per n: every identity
# shares it, so ``Matrix.__mul__`` recognises an identity factor by ``is``.
_EYE: dict[int, tuple] = {}


def _eye(n: int) -> tuple:
    ints = _EYE.get(n)
    if ints is None:
        ints = _EYE[n] = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    return ints


def _product_rows(a: tuple, b: tuple, n: int, m: int) -> list:
    """The stored ints of A·B, one tuple per row of ``a``: ``a`` has rows,
    each of k > 0 entries, and ``b`` has k rows of n > 0 entries.  Every
    entry is reduced mod ``m``, unless m is 0.

    A row of ``a`` that is all zeros gives zeros; a row with one nonzero x,
    at index t, gives row t of ``b`` times x (as it is for x = 1); a row
    with at most half of its entries nonzero sums the rows of ``b`` that its
    nonzero entries select, each times its entry; a denser row takes a dot
    product with each column of ``b``, the columns being transposed once,
    for the first such row.

    Exactness: entry (i, j) is the sum S of a[i][t] * b[t][j] over the t
    with a[i][t] != 0, and every route computes S on the stored ints.  An
    all-zero row has no term and a row with one nonzero has one; a sparse
    row adds its terms row by row; a dot product adds all k products, the
    zero ones included.  Reducing S mod m once, or after adding it to other
    such sums, gives the same residue (a term times 1 is a stored residue
    already).  So both callers are exact and identical in every ring:
    ``Matrix.__mul__`` reduces here and stores the rows over the product of
    the factors' denominators; ``Matrix.is_scalar_sum`` passes m = 0, brings
    each product to one common denominator, adds them and reduces the sum.
    """
    k = len(a[0])
    cols, out = None, []
    add, mul, zero = operator.add, operator.mul, (0,) * n
    for row in a:
        zeros = row.count(0)
        if zeros == k:
            out.append(zero)
        elif zeros == k - 1:
            x = next(filter(None, row))
            brow = b[row.index(x)]
            if x == 1:
                out.append(brow)
            elif m:
                out.append(tuple(map(m.__rmod__, map(x.__mul__, brow))))
            else:
                out.append(tuple(map(x.__mul__, brow)))
        elif 2 * zeros >= k:
            acc = None
            for x, brow in compress(zip(row, b), row):
                term = brow if x == 1 else map(x.__mul__, brow)
                # one tuple per term: a chain of lazy maps, one per
                # term, overflows the C stack on long rows
                acc = term if acc is None else tuple(map(add, acc, term))
            out.append(tuple(map(m.__rmod__, acc)) if m else tuple(acc))
        else:
            if cols is None:
                cols = tuple(zip(*b))
            if m:
                out.append(tuple(sum(map(mul, row, col)) % m for col in cols))
            else:
                out.append(tuple(sum(map(mul, row, col)) for col in cols))
    return out


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
        ints = _eye(n) if num == 1 else tuple(tuple(num if i == j else 0 for j in range(n))
                                               for i in range(n))
        return Matrix.from_ints(ring, n, n, ints, c.denominator)

    @staticmethod
    def build(ring: Ring, rows: int, cols: int, fn: Callable[[int, int], object]) -> "Matrix":
        return Matrix(ring, rows, cols, tuple(tuple(fn(i, j) for j in range(cols)) for i in range(rows)))

    @staticmethod
    def block(grid) -> "Matrix":
        """Assemble a matrix from a 2-d grid of blocks.

        Every grid row has as many blocks as the first, the blocks of a grid
        row share their height, those of a grid column their width, and all
        share the ring; one pass checks this.  The stored rows are joined as
        they are when every denominator is 1; only over Q, with fractions,
        is each block first brought to the lcm of the denominators.
        """
        if not grid or not grid[0]:
            raise ValueError("empty block grid")
        widths = [b.cols for b in grid[0]]
        ring, den = grid[0][0].ring, 1
        for brow in grid:
            if len(brow) != len(widths):
                raise ValueError("ragged block grid")
            height = brow[0].rows
            for b, width in zip(brow, widths):
                if b.rows != height:
                    raise ValueError("inconsistent block heights")
                if b.cols != width:
                    raise ValueError("inconsistent block widths")
                if b.ring is not ring and b.ring != ring:
                    raise ValueError("mixed rings in block grid")
                if b.den != 1:
                    den = math.lcm(den, b.den)
        out = []
        for brow in grid:
            parts = [_times(b.ints, den // b.den) for b in brow]
            if len(parts) == 1:
                out.extend(parts[0])
            else:
                out.extend(tuple(chain.from_iterable(pieces)) for pieces in zip(*parts))
        return Matrix.from_ints(ring, len(out), sum(widths), tuple(out), den)

    # -- arithmetic ----------------------------------------------------

    def _check_same_shape(self, other: "Matrix"):
        if self.ring is not other.ring and self.ring != other.ring:
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
        """The product: the zero matrix when a dimension is 0, the other
        factor when one factor is the identity, and otherwise the rows of
        ``_product_rows`` over the denominator ``self.den * other.den``,
        which ``from_ints`` reduces.

        A factor is the identity when it stores the shared identity ints
        (``_eye``) over denominator 1; the other factor is then the product,
        its stored entries being residues already over Z/m.
        """
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.ring is not other.ring and self.ring != other.ring:
            raise ValueError(f"mixed rings: {self.ring} vs {other.ring}")
        k, n = self.cols, other.cols
        if k != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{k} by {other.rows}x{n}")
        if not (self.rows and k and n):
            return Matrix.zeros(self.ring, self.rows, n)
        if other.ints is _EYE.get(n) and other.den == 1:
            return self
        if self.ints is _EYE.get(k) and self.den == 1:
            return other
        ints = tuple(_product_rows(self.ints, other.ints, n, self.ring._mod))
        return Matrix.from_ints(self.ring, self.rows, n, ints, self.den * other.den)

    @staticmethod
    def is_scalar_sum(terms, c, n: int, ring: Ring) -> bool:
        """True when the sum of x * y over the pairs (x, y) of ``terms`` is
        the n x n matrix c * id, with no product or sum built as a matrix.

        Each x is n x k and each y is k x n over ``ring``, for any k.  The
        rows of every product come from ``_product_rows``, unreduced.  Over Q
        each product is brought to the lcm L of the terms' denominators, as
        ``_combine`` does, and the sum must store c * L on its diagonal, so
        a c with c * L no integer fails when n > 0.  Over Z/m each entry of
        the sum is reduced once, at the end.  A term with k = 0 adds
        nothing; with no term left the sum is zero, which is c * id when
        c = 0 or n = 0.
        """
        kept = []
        for x, y in terms:
            for a in (x, y):
                if a.ring is not ring and a.ring != ring:
                    raise ValueError(f"mixed rings: {ring} vs {a.ring}")
            if x.rows != n or x.cols != y.rows or y.cols != n:
                raise ValueError(f"cannot add {x.rows}x{x.cols} by {y.rows}x{y.cols} "
                                 f"products to a {n}x{n} sum")
            if x.cols:
                kept.append((x, y))
        c = ring.normalize(c)
        if not n:
            return True
        den = math.lcm(*(x.den * y.den for x, y in kept))
        num, rest = divmod(c.numerator * den, c.denominator)
        if rest:
            return False
        acc = None
        for x, y in kept:
            rows = _times(_product_rows(x.ints, y.ints, n, 0), den // (x.den * y.den))
            acc = rows if acc is None else [tuple(map(operator.add, r, t))
                                            for r, t in zip(acc, rows)]
        if acc is None:
            return not num
        if ring._mod:
            acc = _tuples(acc, ring._mod)
        zeros = n - 1 if num else n
        return all(row[i] == num and row.count(0) == zeros for i, row in enumerate(acc))

    def scale(self, c) -> "Matrix":
        c = self.ring.normalize(c)
        if c == 1:
            return self
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

    def is_scalar(self, c) -> bool:
        """True when this is the square matrix c * id, without building it."""
        # c * id stores the numerator of c on the diagonal over its
        # denominator; only the 0 x 0 matrix, stored over 1, is c * id for every c.
        c = self.ring.normalize(c)
        num, n = c.numerator, self.cols
        zeros = n - 1 if num else n
        return (self.rows == n and (self.den == c.denominator or not n)
                and all(row[i] == num and row.count(0) == zeros
                        for i, row in enumerate(self.ints)))

    def is_identity(self) -> bool:
        return self.is_scalar(1)

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

    D = Matrix.from_ints(ZZ, r, c, tuple(map(tuple, d)))
    return _unimodular(u), D, _unimodular(v)


def _unimodular(rows: list) -> Matrix:
    """A square Smith multiplier; one left as the identity shares the
    identity's ints, so the products of ``SmithSolver.solve`` skip it."""
    n, ints = len(rows), tuple(map(tuple, rows))
    return Matrix.identity(ZZ, n) if ints == _eye(n) else Matrix.from_ints(ZZ, n, n, ints)


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


# ---------------------------------------------------------------------
# Right-solving
# ---------------------------------------------------------------------


def _row_reduce(ring: Ring, m: list, ncols: int) -> list:
    """Gauss-Jordan elimination over Q or Z/p, in place on the int rows ``m``.

    Pivots are taken in the first ``ncols`` columns only (the rest is an
    augmented part); returns the pivot columns, and afterwards row k holds a
    nonzero pivot value in column pivots[k] and every other row a 0 there.
    Over Z/p the entries are residues 0..p-1 and each pivot value is 1.
    Over Q the entries are integers (a rational system times a common
    denominator) and the elimination is fraction-free (Bareiss 1968): a
    row is cleared by cross-multiplying it with the pivot row, and then
    divided by the gcd of its entries instead of by the previous pivot.
    Every row stays a nonzero multiple of the row that Gauss-Jordan on
    Fractions would hold, so a pivot value is any nonzero integer, and no
    Fraction is made.
    """
    p = ring._mod
    n = len(m)
    pivots = []
    for col in range(ncols):
        rk = len(pivots)
        sel = next((i for i in range(rk, n) if m[i][col]), None)
        if sel is None:
            continue
        m[rk], m[sel] = m[sel], m[rk]
        piv = m[rk]
        if p:
            # Entries left of col are zero in the pivot row, so rows change from col on.
            f = pow(piv[col], -1, p)
            piv = m[rk][col:] = [f * x % p for x in piv[col:]]
            for i in range(n):
                g = m[i][col]
                if i != rk and g:
                    m[i][col:] = [(x - g * y) % p for x, y in zip(m[i][col:], piv)]
        else:
            a = piv[col]
            for i in range(n):
                g = m[i][col]
                if i != rk and g:
                    row = [a * x - g * y for x, y in zip(m[i], piv)]
                    c = math.gcd(*row)
                    m[i] = [x // c for x in row] if c > 1 else row
        pivots.append(col)
        if rk + 1 == n:
            break
    return pivots


def _solve_field(a: Matrix, b: Matrix) -> Optional[Matrix]:
    """Gauss-Jordan over Q or Z/p on stored ints; free variables are left zero.

    [A | B] times a.den * b.den has the same solutions and integer
    entries (residues over Z/p, where both denominators are 1).  Over Q a
    pivot row holds its pivot value v, so its row of X is the row's
    augmented part over v; X is written over the lcm of the pivot values.
    """
    ring = a.ring
    c, k = a.cols, b.cols
    da, db = a.den, b.den
    aug = [[*map(db.__mul__, row_a), *map(da.__mul__, row_b)]
           for row_a, row_b in zip(a.ints, b.ints)]
    pivots = _row_reduce(ring, aug, c)
    if any(any(row[c:]) for row in aug[len(pivots):]):
        return None
    values = [row[col] for row, col in zip(aug, pivots)]
    den = math.lcm(*values)
    x = [(0,) * k] * c
    for row, col, v in zip(aug, pivots, values):
        x[col] = tuple(row[c:]) if v == den else tuple(map((den // v).__mul__, row[c:]))
    return Matrix.from_ints(ring, c, k, tuple(x), den)


class SmithSolver:
    """Factor A once; then solve A*X = B repeatedly.

    Over Z, U * A * V = D is the Smith form of A.  A solution has zero
    coordinates along ker(A) in the basis of V's columns, so every
    solution lies in one fixed complement of ker(A).

    Over a field (Q, Z/p) the Smith form is diag(1, ..., 1, 0, ...), so
    only the rank is kept, by one elimination, and ``diag`` is ``rank``
    ones; each solve is the Gauss-Jordan of ``solve_right``, whose zero
    free variables put every solution in one fixed complement of ker(A).

    Over composite Z/m the factored matrix is the integer lift [A | m*I]:
    A*X = B mod m exactly when A*X + m*W = B over Z for some W, so a
    solution of the lift, cut to its first A.cols rows and reduced mod m,
    solves A*X = B.  ``v`` keeps only those rows of V; ``diag`` and
    ``rank`` describe the lift, which has full row rank.
    """

    def __init__(self, a: Matrix):
        ring = a.ring
        self.a = a
        if ring.is_field:
            self.rank = len(_row_reduce(ring, list(map(list, a.ints)), a.cols))
            self.diag = [1] * self.rank
            return
        lift = a if ring == ZZ else Matrix.from_ints(ZZ, a.rows, a.cols, a.ints).hstack(
            Matrix.scalar(ZZ, a.rows, ring.modulus))
        self.u, d, v = smith_normal_form(lift)
        self.v = v if lift is a else Matrix.from_ints(ZZ, a.cols, lift.cols, v.ints[:a.cols])
        self.diag = [d.ints[i][i] for i in range(min(lift.rows, lift.cols))]
        self.rank = sum(1 for x in self.diag if x != 0)

    def solve(self, b: Matrix) -> Optional[Matrix]:
        ring = self.a.ring
        if b.ring != ring:
            raise ValueError(f"mixed rings: {ring} vs {b.ring}")
        if b.rows != self.a.rows:
            raise ValueError("shape mismatch in solve")
        if ring.is_field:
            return _solve_field(self.a, b)
        # D is nonzero exactly on its first ``rank`` diagonal entries.
        lift = b if ring == ZZ else Matrix.from_ints(ZZ, b.rows, b.cols, b.ints)
        cb, r = self.u * lift, self.rank
        top = tuple(zip(self.diag, cb.ints[:r]))
        if any(v % d for d, row in top for v in row) or any(map(any, cb.ints[r:])):
            return None
        y = tuple(tuple(v // d for v in row) for d, row in top) + ((0,) * b.cols,) * (self.v.cols - r)
        x = self.v * Matrix.from_ints(ZZ, self.v.cols, b.cols, y)
        return x if ring == ZZ else Matrix.from_ints(ring, x.rows, x.cols, _tuples(x.ints, ring._mod))


def solve_right(a: Matrix, b: Matrix) -> Optional[Matrix]:
    """One solution X of A*X = B, or None when no solution exists.

    Complete over the fields Q and Z/p (the shared Gauss-Jordan
    elimination) and over Z and composite Z/m (``SmithSolver``).

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
    if a.ring.is_field:
        return _solve_field(a, b)
    return SmithSolver(a).solve(b)


def rank(a: Matrix) -> int:
    """Rank over Z (its Smith form) or over a field (one elimination): ``SmithSolver``'s."""
    if isinstance(a.ring, ModularRing) and not a.ring.is_field:
        raise ValueError(f"rank is not supported over {a.ring}")
    return SmithSolver(a).rank
