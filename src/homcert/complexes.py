"""Bounded complexes of finitely generated free modules, and chain maps.

Degrees run over a finite window [min_degree, top_degree]; everything
outside the window is the zero module, and accessors hand back correctly
shaped zero matrices so that degreewise formulas never special-case the
boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, islice
from typing import Optional

from .exactalg import Matrix, ModularRing, Ring, SmithSolver, Zmod, crt
from .kernel import _law_terms, contraction_defect


@dataclass(frozen=True)
class GradedFreeComplex:
    """Free modules R^{ranks[i]} in degrees min_degree + i, with differentials.

    ``diffs[j]`` is the differential out of degree ``min_degree + j + 1``
    into degree ``min_degree + j`` (shape ranks[j] x ranks[j+1]); there are
    ``len(ranks) - 1`` of them.
    """

    ring: Ring
    min_degree: int
    ranks: tuple
    diffs: tuple

    def __post_init__(self):
        if len(self.ranks) == 0:
            raise ValueError("a complex needs at least one degree slot")
        if len(self.diffs) != len(self.ranks) - 1:
            raise ValueError("need exactly len(ranks) - 1 differentials")
        for j, d in enumerate(self.diffs):
            if d.ring != self.ring:
                raise ValueError("differential over the wrong ring")
            if (d.rows, d.cols) != (self.ranks[j], self.ranks[j + 1]):
                raise ValueError(
                    f"differential {j} has shape {d.rows}x{d.cols}, "
                    f"expected {self.ranks[j]}x{self.ranks[j + 1]}")

    @property
    def top_degree(self) -> int:
        return self.min_degree + len(self.ranks) - 1

    def degrees(self) -> range:
        return range(self.min_degree, self.top_degree + 1)

    def rank(self, i: int) -> int:
        if self.min_degree <= i <= self.top_degree:
            return self.ranks[i - self.min_degree]
        return 0

    def diff(self, i: int) -> Matrix:
        """The differential d_i : degree i -> degree i - 1 (zero off-window)."""
        j = i - self.min_degree - 1
        if 0 <= j < len(self.diffs):
            return self.diffs[j]
        return Matrix.zeros(self.ring, self.rank(i - 1), self.rank(i))

    def euler_characteristic(self) -> int:
        return sum(-self.rank(i) if i % 2 else self.rank(i) for i in self.degrees())

    def is_zero(self) -> bool:
        return all(r == 0 for r in self.ranks)


def concentrated(ring: Ring, degree: int, rank: int) -> GradedFreeComplex:
    """R^rank sitting in a single degree with no differential."""
    return GradedFreeComplex(ring, degree, (rank,), ())


@dataclass(frozen=True)
class HomologySummary:
    free_rank: int
    torsion: tuple

    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion


def homology_invariants(x: GradedFreeComplex) -> dict:
    """Homology in each window degree.

    Over Z the summary at degree i is (free rank, invariant factors > 1);
    over Q and Z/p torsion is empty and free_rank is the dimension.
    Composite Z/m is not supported here.
    """
    ring = x.ring
    if isinstance(ring, ModularRing) and not ring.is_field:
        raise ValueError("homology over composite Z/m is not supported")
    return _homology(x, [SmithSolver(d) for d in x.diffs])


def _homology(x: GradedFreeComplex, solvers: list) -> dict:
    """Homology from one ``SmithSolver`` per differential, each serving the
    degrees on both of its sides; over a field its ``diag`` is all ones."""
    # (rank, invariant factors > 1) of diffs[j], the map out of degree min_degree + j + 1
    facts = [(s.rank, tuple(a for a in s.diag if a > 1)) for s in solvers] + [(0, ())]
    out = {}
    for j, i in enumerate(x.degrees()):
        r_in, torsion = facts[j]
        r_out = facts[j - 1][0] if j else 0
        out[i] = HomologySummary(x.rank(i) - r_in - r_out, torsion)
    return out


@dataclass(frozen=True)
class ChainMap:
    """A degree-homogeneous map of complexes; ``mats[j]`` acts on source
    degree ``source.min_degree + j`` and lands in degree + shift of the target.
    """

    source: GradedFreeComplex
    target: GradedFreeComplex
    shift: int
    mats: tuple

    def __post_init__(self):
        if self.source.ring != self.target.ring:
            raise ValueError("chain map between complexes over different rings")
        if len(self.mats) != len(self.source.ranks):
            raise ValueError("need one matrix per source degree")
        for j, m in enumerate(self.mats):
            i = self.source.min_degree + j
            want = (self.target.rank(i + self.shift), self.source.rank(i))
            if (m.rows, m.cols) != want:
                raise ValueError(f"component at degree {i} has shape "
                                 f"{m.rows}x{m.cols}, expected {want[0]}x{want[1]}")

    def mat(self, i: int) -> Matrix:
        j = i - self.source.min_degree
        if 0 <= j < len(self.mats):
            return self.mats[j]
        return Matrix.zeros(self.source.ring, self.target.rank(i + self.shift), self.source.rank(i))

    def chain_defect(self) -> Optional[int]:
        """The first source degree i with d_target f_i != (-1)^shift f_{i-1} d_i,
        or None for a chain map.  A degree where both sides are empty (no
        source generators in degree i, or no target generators in degree
        i + shift - 1) is skipped."""
        x, y, k = self.source, self.target, self.shift
        minus = y.ring.from_int(-1)
        for i in x.degrees():
            if not (x.rank(i) and y.rank(i + k - 1)):
                continue
            lhs = y.diff(i + k) * self.mat(i)
            rhs = self.mat(i - 1) * x.diff(i)
            if k % 2:
                rhs = rhs.scale(minus)
            if lhs != rhs:
                return i
        return None

    def is_chain_map(self) -> bool:
        """d_target o f = (-1)^shift f o d_source in every degree."""
        return self.chain_defect() is None

    def compose(self, other: "ChainMap") -> "ChainMap":
        """self o other (apply ``other`` first)."""
        if other.target is not self.source and other.target != self.source:
            raise ValueError("composition mismatch")
        mats = tuple(self.mat(other.source.min_degree + j + other.shift) * other.mats[j]
                     for j in range(len(other.mats)))
        return ChainMap(other.source, self.target, self.shift + other.shift, mats)

    def __add__(self, other: "ChainMap") -> "ChainMap":
        if (other.source != self.source or other.target != self.target
                or other.shift != self.shift):
            raise ValueError("chain map addition mismatch")
        return ChainMap(self.source, self.target, self.shift,
                        tuple(a + b for a, b in zip(self.mats, other.mats)))

    def scale(self, c) -> "ChainMap":
        return ChainMap(self.source, self.target, self.shift,
                        tuple(m.scale(c) for m in self.mats))

    def transpose(self) -> "ChainMap":
        """The degree 0 map target -> source with every matrix transposed.

        For a signed permutation this is the inverse, and for the arrows of
        a mapping cone it is the canonical splitting; it need not be a chain
        map.
        """
        if self.shift != 0:
            raise ValueError("only degree 0 maps are transposed")
        return ChainMap(self.target, self.source, 0,
                        tuple(self.mat(i).transpose() for i in self.target.degrees()))


def identity_map(x: GradedFreeComplex) -> ChainMap:
    return ChainMap(x, x, 0, tuple(Matrix.identity(x.ring, r) for r in x.ranks))


def zero_map(x: GradedFreeComplex, y: GradedFreeComplex, shift: int = 0) -> ChainMap:
    return ChainMap(x, y, shift,
                    tuple(Matrix.zeros(x.ring, y.rank(x.min_degree + j + shift), x.ranks[j])
                          for j in range(len(x.ranks))))


def boundary_map(x: GradedFreeComplex) -> ChainMap:
    """The differential packaged as a degree -1 map of the complex."""
    return ChainMap(x, x, -1, tuple(x.diff(i) for i in x.degrees()))


# ---------------------------------------------------------------------
# Null-homotopies: solve d*e + e*d = c * id
# ---------------------------------------------------------------------


class HomotopySystem:
    """The coupled linear system d*e + e*d = c * id on a fixed complex.

    Unknowns are the entries of e out of each degree below the top,
    row-major; equations are the entries of each degree's identity,
    row-major, so the right-hand side is c times the column ``unit``.  The
    rows are written from the differentials' stored ints: in degree i,
    equation (r, s) has coefficient d_(i+1)[r][t] on e_i[t][s] and d_i[t][s]
    on e_(i-1)[r][t].  ``system`` is factored once, by ``SmithSolver``, and
    every ``solve`` reuses that factorisation.  ``null_homotopies`` builds
    it only over Z/p^e, e >= 2, where the factorisation is the local Smith
    form, on the output of ``reduce_units``, a complex with no unit entry.
    """

    def __init__(self, x: GradedFreeComplex):
        self.x = x
        ranks, diffs = x.ranks, x.diffs
        # e out of slot j is ranks[j + 1] x ranks[j]; diffs[j] maps slot j + 1 to slot j
        self.shapes = [(ranks[j + 1], ranks[j]) for j in range(len(diffs))]
        offsets = list(accumulate((r * k for r, k in self.shapes), initial=0))
        width, rows, unit = offsets[-1], [], []
        for j, n in enumerate(ranks):
            for r in range(n):
                for s in range(n):
                    row = [0] * width
                    if j < len(diffs):  # d_(i+1) e_i
                        row[offsets[j] + s:offsets[j + 1]:n] = diffs[j].ints[r]
                    if j:  # e_(i-1) d_i
                        start = offsets[j - 1] + r * ranks[j - 1]
                        row[start:start + ranks[j - 1]] = [a[s] for a in diffs[j - 1].ints]
                    rows.append(tuple(row))
                    unit.append((int(r == s),))
        self.system = Matrix.from_ints(x.ring, len(rows), width, tuple(rows))
        self.unit = Matrix.from_ints(x.ring, len(rows), 1, tuple(unit))
        self.solver = SmithSolver(self.system)

    def solve(self, c) -> Optional[ChainMap]:
        x, ring = self.x, self.x.ring
        vec = self.solver.solve(self.unit.scale(c))
        if vec is None:
            return None
        flat = iter(row[0] for row in vec.ints)
        mats = [Matrix.from_ints(ring, r, k, tuple(tuple(islice(flat, k)) for _ in range(r)))
                for r, k in self.shapes]
        mats.append(Matrix.zeros(ring, 0, x.rank(x.top_degree)))
        return ChainMap(x, x, 1, tuple(mats))


def _unit_inverse(ring: ModularRing, a: int) -> int:
    return pow(a, -1, ring.modulus)


def reduce_units(x: GradedFreeComplex) -> tuple:
    """Cancel unit entries of the differentials until none is left.

    Returns (y, f, g, h): the reduced complex y, chain maps f: x -> y and
    g: y -> x with f g = 1, and a degree +1 operator h on x with
    g f + d h + h d = 1, so y is homotopy equivalent to x (Kaczynski,
    Mrozek and Ślusarek 1998; Sköldberg 2006).  Only Z/m is supported (the
    search calls this for composite m); any other ring raises ``ValueError``.

    A unit a = d_i[r][s] splits X_i = <s> + B and X_{i-1} = <r> + A.  With
    gamma = d_i[A, s] and delta = d_i[r, B], the pair r, s is cancelled by
    d'_i = d_i[A, B] - gamma a^-1 delta, while d_{i+1} keeps its rows B
    and d_{i-1} its columns A.  The step's maps are f_{i-1} =
    [-gamma a^-1 | 1], f_i the projection onto B, g_{i-1} the inclusion of
    A, g_i = [-a^-1 delta ; 1] and h_{i-1} = a^-1 at (s, r); each step
    composes into the running ones by f <- f' f, g <- g g',
    h <- h + g h' f.  Cancelling in d_i only deletes rows and columns of
    its neighbours, so one pass over the differentials finds every unit.
    The elimination runs on the stored residues: an entry a is a unit when
    gcd(a, m) = 1, and every new entry is reduced mod m once.  The output
    is checked once; a failed check raises ``AssertionError``.

    Example:
        >>> from homcert.complexes import GradedFreeComplex, reduce_units
        >>> from homcert.exactalg import Matrix, Zmod
        >>> r = Zmod(4)
        >>> x = GradedFreeComplex(r, 0, (2, 2), (Matrix.from_rows(r, [[3, 2], [1, 0]]),))
        >>> y, f, g, h = reduce_units(x)
        >>> y.ranks, y.diffs[0].entries
        ((1, 1), ((2,),))
        >>> h.mat(0).entries
        ((3, 0), (0, 0))
    """
    ring, n = x.ring, len(x.ranks)
    if not isinstance(ring, ModularRing):
        raise ValueError(f"unit reduction runs over Z/m only, not over {ring}")
    m, gcd = ring.modulus, math.gcd
    d = [list(map(list, a.ints)) for a in x.diffs]
    # f[j]: the rows of f out of slot j (degree min_degree + j); g[j]: the
    # columns of g into slot j; h[j]: h out of slot j.
    f = [[[int(p == q) for q in range(r)] for p in range(r)] for r in x.ranks]
    g = [[row[:] for row in fj] for fj in f]
    h = [[[0] * x.ranks[j] for _ in range(x.rank(x.min_degree + j + 1))] for j in range(n)]
    for j in range(n - 1):  # d[j] maps slot j + 1 to slot j
        while True:
            pivot = next(((r, s) for r, row in enumerate(d[j]) for s, a in enumerate(row)
                          if gcd(a, m) == 1), None)
            if pivot is None:
                break
            r, s = pivot
            inv = _unit_inverse(ring, d[j][r][s])
            delta = [inv * v % m for v in d[j][r]]  # a^-1 row r: 1 at s, a^-1 delta on B
            gamma = [row[s] for row in d[j]]
            f_r = [inv * v % m for v in f[j][r]]
            g_s = g[j + 1][s]
            h[j] = [[(v + c * w) % m for v, w in zip(row, f_r)] for row, c in zip(h[j], g_s)]
            d[j] = [[(v - c * w) % m for k, (v, w) in enumerate(zip(row, delta)) if k != s]
                    for q, (row, c) in enumerate(zip(d[j], gamma)) if q != r]
            f[j] = [[(v - c * w) % m for v, w in zip(row, f_r)]
                    for q, (row, c) in enumerate(zip(f[j], gamma)) if q != r]
            g[j + 1] = [[(v - t * w) % m for v, w in zip(col, g_s)]
                        for k, (col, t) in enumerate(zip(g[j + 1], delta)) if k != s]
            del f[j + 1][s], g[j][r]
            if j + 1 < n - 1:
                del d[j + 1][s]
            if j:
                for row in d[j - 1]:
                    del row[r]

    def mat(rows: int, cols: int, ints: list) -> Matrix:
        return Matrix.from_ints(ring, rows, cols, tuple(map(tuple, ints)))

    ranks = tuple(map(len, f))
    y = GradedFreeComplex(ring, x.min_degree, ranks, tuple(
        mat(ranks[j], ranks[j + 1], d[j]) for j in range(n - 1)))
    fm = ChainMap(x, y, 0, tuple(mat(ranks[j], x.ranks[j], f[j]) for j in range(n)))
    gm = ChainMap(y, x, 0, tuple(mat(ranks[j], x.ranks[j], g[j]).transpose() for j in range(n)))
    hm = ChainMap(x, x, 1, tuple(mat(len(h[j]), x.ranks[j], h[j]) for j in range(n)))
    problem = _retraction_defect(fm, gm, hm)
    if problem is not None:
        raise AssertionError("unit reduction failed its own check: " + problem)
    return y, fm, gm, hm


def _retraction_defect(f: ChainMap, g: ChainMap, h: ChainMap) -> Optional[str]:
    """The first failing law of a deformation retraction of x = f.source onto
    y = f.target: f and g chain maps, f·g = id, g·f + dh + hd = id."""
    for name, m in (("f", f), ("g", g)):
        i = m.chain_defect()
        if i is not None:
            return f"{name} is not a chain map in degree {i}"
    x, y = f.source, f.target
    for j, i in enumerate(x.degrees()):
        if not Matrix.is_scalar_sum([(f.mat(i), g.mat(i))], 1, y.rank(i), x.ring):
            return f"f·g ≠ id in degree {i}"
        terms = [(g.mat(i), f.mat(i))] + _law_terms(x.diffs, h.mats, j)
        if not Matrix.is_scalar_sum(terms, 1, x.rank(i), x.ring):
            return f"g·f + dh + hd ≠ id in degree {i}"
    return None


def solve_homotopy(x: GradedFreeComplex, c) -> Optional[ChainMap]:
    """A degree +1 operator e with d*e + e*d = c * id, or None if there is none."""
    return null_homotopies(x)[2](c)


def null_homotopies(x: GradedFreeComplex) -> tuple:
    """(b, free, solve): c * id is null-homotopic exactly when b | c and
    (c = 0 or not free); ``solve(c)`` is an e with d*e + e*d = c * id, or None.

    Over Z and fields each differential is factored once, by a
    ``SmithSolver``; b is the lcm of the homology's torsion coefficients
    (1 over a field) and free says whether any homology is free.  ``solve``
    takes d_{i+1} e_i = c - e_{i-1} d_i from the bottom degree up, on the
    same solvers; in the top degree d_{i+1} = 0, so the right-hand side
    must vanish and e_top is empty.  The right-hand side is always a matrix
    of cycles, and this order is complete: each solution e_i lies in one
    fixed complement C of the cycles (zero coordinates along ker d_{i+1},
    in the Smith V basis over Z, as zero free variables over a field).  The
    next right-hand side then sends a cycle z to c z and C to cycles in C,
    that is to 0; it is made of boundaries exactly when c kills the
    homology, which c * id being null-homotopic requires.

    Over composite Z/m cycles need not have a complement (Z/4 --2--> Z/4
    --2--> Z/4), so the degrees are coupled and free is False.  Z/m is the
    product of the rings Z/q over its prime powers q (the Chinese remainder
    theorem), and c * id is null-homotopic over Z/m exactly when it is over
    every Z/q, so x is split into its images x_q, before any unit is
    cancelled, and b = prod_q b_q: a prime q = p takes the field path
    above, and b_p is p when x_p has homology, else 1; over q = p^e, e >= 2,
    the unit entries are cancelled once (``reduce_units`` gives y, f, g, h)
    and the ``HomotopySystem`` of y is factored once by the local Smith
    form U * S * V = D.  With w = U v for the identity column v, the system
    D * Y = c * w asks d | c * w_i of row i, where d is its entry of D, or
    q for a zero row; d is a power of p, so that is d / gcd(d, w_i) | c,
    and b_q is the lcm of these, a divisor of q.  There
    ``solve`` turns the solution e' on y into e = g e' f + c h: if
    d e' + e' d = c on y then d e + e d = c (g f + d h + h d) = c on x, and
    if e works on x then f e g works on y.  ``solve`` glues the factors'
    solutions by ``crt``.
    """
    ring = x.ring
    if not isinstance(ring, ModularRing) or ring.is_field:
        solvers = [SmithSolver(d) for d in x.diffs]
        hom = _homology(x, solvers).values()

        def solve(c):
            c = ring.normalize(c)
            e, mats = Matrix.zeros(ring, x.ranks[0], 0), []  # out of the zero module below
            for i, s in zip(x.degrees(), solvers):
                e = s.solve(Matrix.scalar(ring, s.a.rows, c) - e * x.diff(i))
                if e is None:
                    return None
                mats.append(e)
            if not Matrix.is_scalar_sum([(e, x.diff(x.top_degree))], c, x.ranks[-1], ring):
                return None
            return ChainMap(x, x, 1, tuple(mats) + (Matrix.zeros(ring, 0, x.ranks[-1]),))
        return (math.lcm(1, *(a for h in hom for a in h.torsion)),
                any(h.free_rank for h in hom), solve)
    qs = [p ** e for p, e in ring.factors]
    if len(qs) > 1:
        factors = [null_homotopies(GradedFreeComplex(
            Zmod(q), x.min_degree, x.ranks, tuple(d.over(Zmod(q)) for d in x.diffs)))
            for q in qs]

        def glued(c):
            es = [solve(c) for _, _, solve in factors]
            if any(e is None for e in es):
                return None
            return ChainMap(x, x, 1, tuple(crt(ring, mats) for mats in zip(*(e.mats for e in es))))
        return math.prod(q if free else b for q, (b, free, _) in
                         zip(qs, factors)), False, glued
    y, f, g, h = reduce_units(x)
    system = HomotopySystem(y)
    s, m = system.solver, ring.modulus
    uv = s.u * system.unit
    ds = s.diag + [m] * (uv.rows - len(s.diag))  # a zero row of D asks m | c * w
    b = math.lcm(1, *(d // math.gcd(d, w) for d, (w,) in zip(ds, uv.ints)))

    def solve(c):
        e = system.solve(ring.normalize(c))
        return None if e is None else g.compose(e.compose(f)) + h.scale(c)
    return b, False, solve


def is_contraction(h: ChainMap) -> bool:
    return contraction_defect(h) is None


def find_contraction(x: GradedFreeComplex) -> Optional[ChainMap]:
    """A degree +1 operator h with d*h + h*d = id, or None.

    None is a complete verdict over Z, Q and every Z/m (see
    ``null_homotopies``).
    """
    h = solve_homotopy(x, x.ring.one())
    if h is not None and not is_contraction(h):
        raise AssertionError("contraction failed its own check")
    return h


# ---------------------------------------------------------------------
# Short exact sequences, by homology
# ---------------------------------------------------------------------


def check_ses(f: ChainMap, g: ChainMap) -> list[str]:
    """Diagnostics for 0 -> A -f-> B -g-> C -> 0; empty list means exact.

    Exactness in each degree is homology of the three-term complex
    C <- B <- A, which covers injectivity, surjectivity and ker g = im f
    (including torsion) uniformly over Z and over fields; composite Z/m is
    not supported.  The certificate kernel does not use it (it checks
    carried splittings with ``kernel.split_defect``); it is the independent
    reference the tests compare that check against.
    """
    report = []
    if f.shift != 0 or g.shift != 0:
        report.append("arrows must have shift 0")
        return report
    if f.target != g.source:
        report.append("middle complexes disagree")
        return report
    if not f.is_chain_map():
        report.append("inclusion is not a chain map")
    if not g.is_chain_map():
        report.append("projection is not a chain map")
    if report:
        return report
    a, b, c = f.source, f.target, g.target
    lo = min(a.min_degree, b.min_degree, c.min_degree)
    hi = max(a.top_degree, b.top_degree, c.top_degree)
    for i in range(lo, hi + 1):
        gf = g.mat(i) * f.mat(i)
        if not gf.is_zero():
            report.append(f"g o f != 0 in degree {i}")
            continue
        three = GradedFreeComplex(a.ring, 0, (c.rank(i), b.rank(i), a.rank(i)),
                                  (g.mat(i), f.mat(i)))
        hom = homology_invariants(three)
        if not hom[2].is_trivial():
            report.append(f"inclusion not injective in degree {i}")
        if not hom[1].is_trivial():
            report.append(f"not exact at the middle in degree {i}")
        if not hom[0].is_trivial():
            report.append(f"projection not surjective in degree {i}")
    return report
