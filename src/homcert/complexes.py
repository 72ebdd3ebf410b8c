"""Bounded complexes of finitely generated free modules, and chain maps.

Degrees run over a finite window [min_degree, top_degree]; everything
outside the window is the zero module, and accessors hand back correctly
shaped zero matrices so that degreewise formulas never special-case the
boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .exactalg import (
    Matrix, Ring, ZZ, ModularRing, rank as matrix_rank, smith_normal_form,
    solve_right,
)


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

    def total_rank(self) -> int:
        return sum(self.ranks)

    def euler_characteristic(self) -> int:
        return sum((-1) ** i * self.rank(i) for i in self.degrees())

    def is_zero(self) -> bool:
        return all(r == 0 for r in self.ranks)


def zero_complex(ring: Ring, degree: int = 0) -> GradedFreeComplex:
    return GradedFreeComplex(ring, degree, (0,), ())


def concentrated(ring: Ring, degree: int, rank: int) -> GradedFreeComplex:
    """R^rank sitting in a single degree with no differential."""
    return GradedFreeComplex(ring, degree, (rank,), ())


def validate_complex(x: GradedFreeComplex, allow_negative: bool = False) -> list[str]:
    """Diagnostics for the complex laws; empty list means valid.

    ``allow_negative`` permits nonzero modules in negative degrees, which
    internal desuspensions need; external inputs keep the default.
    """
    report = []
    if not allow_negative and x.min_degree < 0:
        if any(x.rank(i) > 0 for i in range(x.min_degree, 0)):
            report.append("nonzero module in negative degree")
    for i in x.degrees():
        prod = x.diff(i) * x.diff(i + 1)
        if not prod.is_zero():
            report.append(f"d_{i} * d_{i + 1} != 0")
    return report


def trim(x: GradedFreeComplex) -> GradedFreeComplex:
    """Drop zero-rank slots at both ends of the window (zero complex stays one slot)."""
    lo, hi = 0, len(x.ranks) - 1
    while lo < hi and x.ranks[lo] == 0:
        lo += 1
    while hi > lo and x.ranks[hi] == 0:
        hi -= 1
    if x.ranks[lo] == 0:
        return zero_complex(x.ring, x.min_degree)
    return GradedFreeComplex(x.ring, x.min_degree + lo, x.ranks[lo:hi + 1], x.diffs[lo:hi])


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
    Composite Z/m is not supported here.  Each differential is factored
    once and serves the degrees on both of its sides.
    """
    ring = x.ring
    if isinstance(ring, ModularRing) and not ring.is_field:
        raise ValueError("homology over composite Z/m is not supported")
    # (rank, invariant factors > 1) of diffs[j], the map out of degree min_degree + j + 1
    facts = [_rank_and_torsion(d) for d in x.diffs] + [(0, ())]
    out = {}
    for j, i in enumerate(x.degrees()):
        r_in, torsion = facts[j]
        r_out = facts[j - 1][0] if j else 0
        out[i] = HomologySummary(x.rank(i) - r_in - r_out, torsion)
    return out


def _rank_and_torsion(d: Matrix) -> tuple:
    """Rank and invariant factors > 1 of d: one Smith form over Z, one elimination over a field."""
    if d.ring != ZZ:
        return matrix_rank(d), ()
    _, s, _ = smith_normal_form(d)
    diag = [s.ints[k][k] for k in range(min(d.rows, d.cols))]
    return sum(1 for a in diag if a), tuple(a for a in diag if a > 1)


def is_exact(x: GradedFreeComplex) -> bool:
    return all(h.is_trivial() for h in homology_invariants(x).values())


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

    def is_chain_map(self) -> bool:
        """d_target o f = (-1)^shift f o d_source in every degree."""
        sgn = (-1) ** self.shift
        for i in range(min(self.source.min_degree, self.target.min_degree - self.shift) - 1,
                       max(self.source.top_degree, self.target.top_degree - self.shift) + 2):
            lhs = self.target.diff(i + self.shift) * self.mat(i)
            rhs = (self.mat(i - 1) * self.source.diff(i)).scale(sgn)
            if lhs != rhs:
                return False
        return True

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

    def is_degreewise_invertible(self) -> bool:
        from .exactalg import is_invertible
        if self.shift != 0:
            return False
        lo = min(self.source.min_degree, self.target.min_degree)
        hi = max(self.source.top_degree, self.target.top_degree)
        for i in range(lo, hi + 1):
            if self.source.rank(i) != self.target.rank(i):
                return False
            if not is_invertible(self.mat(i)):
                return False
        return True


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
    row-major.  ``solve_homotopy`` needs it only over composite Z/m with a
    non-unit c.
    """

    def __init__(self, x: GradedFreeComplex):
        self.x = x
        ring, degs = x.ring, list(x.degrees())
        self.shapes = [(x.rank(j + 1), x.rank(j)) for j in degs[:-1]]
        rows = []
        for i in degs:
            n_i, eye = x.rank(i), Matrix.identity(ring, x.rank(i))
            blocks = [x.diff(i + 1).kron(eye) if j == i
                      else eye.kron(x.diff(i).transpose()) if j == i - 1
                      else Matrix.zeros(ring, n_i * n_i, r * c)
                      for j, (r, c) in zip(degs, self.shapes)]
            rows.append(Matrix.block([blocks]) if blocks else Matrix.zeros(ring, n_i * n_i, 0))
        self.system = Matrix.block([[m] for m in rows])

    def solve(self, c) -> Optional[ChainMap]:
        x, ring = self.x, self.x.ring
        diag = [r == s for i in x.degrees() for r in range(x.rank(i)) for s in range(x.rank(i))]
        vec = solve_right(self.system, Matrix.build(ring, len(diag), 1,
                                                    lambda k, _: c if diag[k] else 0))
        if vec is None:
            return None
        flat = iter(row[0] for row in vec.ints)
        mats = [Matrix.from_ints(ring, r, c_, tuple(tuple(next(flat) for _ in range(c_))
                                                    for _ in range(r)), vec.den)
                for r, c_ in self.shapes]
        mats.append(Matrix.zeros(ring, 0, x.rank(x.top_degree)))
        return ChainMap(x, x, 1, tuple(mats))


def solve_homotopy(x: GradedFreeComplex, c) -> Optional[ChainMap]:
    """A degree +1 operator e with d*e + e*d = c * id, or None if there is none.

    Solves d_{i+1} e_i = c - e_{i-1} d_i from the bottom degree up.  The
    right-hand side is always a matrix of cycles, and this order is complete:

    * over Z and Q for every c: ``solve_right`` gives e_i zero coordinates
      along ker d_{i+1} (in the Smith V basis over Z, as zero free variables
      over Q), so e_i lands in a complement C of the cycles.  The next
      right-hand side then sends a cycle z to c z and C to cycles in C, that
      is to 0; it is made of boundaries exactly when c kills the homology,
      which c * id being null-homotopic requires.
    * over any Z/m when c is a unit: c * id is then null-homotopic exactly
      when the complex is contractible, hence exact, so cycles are
      boundaries.  Over Z/p the only other c, 0, gets e = 0.

    Composite Z/m with a non-unit c, where cycles need not have a
    complement, solves the coupled ``HomotopySystem``.
    """
    ring = x.ring
    c = ring.normalize(c)
    if isinstance(ring, ModularRing) and not ring.is_field and not ring.is_unit(c):
        return HomotopySystem(x).solve(c)
    e = Matrix.zeros(ring, x.rank(x.min_degree), 0)  # out of the zero module below
    mats = []
    for i in x.degrees():
        e = solve_right(x.diff(i + 1), Matrix.scalar(ring, x.rank(i), c) - e * x.diff(i))
        if e is None:
            return None
        mats.append(e)
    return ChainMap(x, x, 1, tuple(mats))


def is_contraction(h: ChainMap) -> bool:
    x = h.source
    for i in x.degrees():
        lhs = x.diff(i + 1) * h.mat(i) + h.mat(i - 1) * x.diff(i)
        if lhs != Matrix.identity(x.ring, x.rank(i)):
            return False
    return True


def find_contraction(x: GradedFreeComplex) -> Optional[ChainMap]:
    """A degree +1 operator h with d*h + h*d = id, or None.

    None is a complete verdict over Z, Q and every Z/m (see
    ``solve_homotopy``; 1 is a unit).
    """
    h = solve_homotopy(x, x.ring.one())
    if h is not None and not is_contraction(h):
        raise AssertionError("contraction failed its own check")
    return h


# ---------------------------------------------------------------------
# Short exact sequences
# ---------------------------------------------------------------------


def check_ses(f: ChainMap, g: ChainMap) -> list[str]:
    """Diagnostics for 0 -> A -f-> B -g-> C -> 0; empty list means exact.

    Exactness in each degree is homology of the three-term complex
    C <- B <- A, which covers injectivity, surjectivity and ker g = im f
    (including torsion) uniformly over Z and over fields.
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
