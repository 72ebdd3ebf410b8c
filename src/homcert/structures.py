"""Scalar null-homotopy structures on bounded free complexes.

A structure fixes, for each generator g with scalar s_g, a degree +1
operator e_g satisfying d e_g + e_g d = s_g * id in every degree.  The
generators are independent: no relation between the e_g is imposed or
assumed.  An operator out of the top degree lands in the zero module, so
only degrees strictly below the top carry data.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Optional, Sequence

from .complexes import ChainMap, GradedFreeComplex, boundary_map, null_homotopies
from .exactalg import Matrix
from .kernel import check_law, check_structure, equivariance_defect, validate_complex

# check_structure stays importable from here, beside the type it checks.
__all__ = ["HomotopyStructure", "StructureSearch", "check_structure", "find_structure",
           "is_equivariant", "restrict", "structure_from_contraction"]


@dataclass(frozen=True)
class HomotopyStructure:
    """A complex together with one null-homotopy operator per generator.

    ``ops[g][j]`` maps degree ``min_degree + j`` to ``min_degree + j + 1``
    (shape ranks[j+1] x ranks[j]); each generator grid has
    ``len(ranks) - 1`` matrices.
    """

    complex: GradedFreeComplex
    scalars: tuple
    ops: tuple

    def __post_init__(self):
        x = self.complex
        if len(self.scalars) != len(self.ops):
            raise ValueError("one scalar per operator grid")
        object.__setattr__(self, "scalars",
                           tuple(x.ring.normalize(s) for s in self.scalars))
        want = max(len(x.ranks) - 1, 0)
        for g, grid in enumerate(self.ops):
            if len(grid) != want:
                raise ValueError(f"generator {g}: expected {want} operator matrices")
            for j, e in enumerate(grid):
                if e.ring != x.ring:
                    raise ValueError(f"generator {g}: ring mismatch in degree slot {j}")
                if (e.rows, e.cols) != (x.ranks[j + 1], x.ranks[j]):
                    raise ValueError(
                        f"generator {g}: operator out of degree {x.min_degree + j} "
                        f"has shape {e.rows}x{e.cols}, expected "
                        f"{x.ranks[j + 1]}x{x.ranks[j]}")

    @property
    def ngens(self) -> int:
        return len(self.scalars)

    def op(self, g: int, i: int) -> Matrix:
        """Operator of generator ``g`` out of degree ``i`` (zero off window)."""
        x = self.complex
        j = i - x.min_degree
        if 0 <= j < len(self.ops[g]):
            return self.ops[g][j]
        return Matrix.zeros(x.ring, x.rank(i + 1), x.rank(i))


def restrict(m: HomotopyStructure, factors: Sequence) -> HomotopyStructure:
    """Scale each generator: operator f_g * e_g has scalar f_g * s_g.

    This is the structure transport along a change of scalars; the
    underlying complex is untouched.
    """
    ring = m.complex.ring
    fs = tuple(ring.normalize(f) for f in factors)
    if len(fs) != m.ngens:
        raise ValueError("one factor per generator")
    return HomotopyStructure(
        m.complex,
        tuple(ring.mul(f, s) for f, s in zip(fs, m.scalars)),
        tuple(tuple(e.scale(f) for e in grid) for f, grid in zip(fs, m.ops)))


def structure_from_contraction(x: GradedFreeComplex, h: ChainMap,
                               scalars: Sequence) -> HomotopyStructure:
    """Turn a contraction d h + h d = id into the structure with e_g = s_g h."""
    ring = x.ring
    grids = []
    for s in scalars:
        c = ring.normalize(s)
        grids.append(tuple(h.mat(i).scale(c) for i in list(x.degrees())[:-1]))
    return HomotopyStructure(x, tuple(scalars), tuple(grids))


def is_equivariant(f: ChainMap, mx: HomotopyStructure, my: HomotopyStructure) -> bool:
    """True when the chain map intertwines every generator's operator."""
    return mx.ngens == my.ngens and equivariance_defect(f, mx, my) is None


@dataclass(frozen=True)
class StructureSearch:
    """Outcome of a per-generator least-exponent search.

    ``exponents[g]`` is the least k with d e + e d = t_g^k * id solvable,
    or None when there is no such k; ``obstructed[g]`` marks generators
    ruled out for every exponent by nonzero free homology.
    """

    structure: Optional[HomotopyStructure]
    exponents: tuple
    obstructed: tuple


def _least_power(t, b: int) -> Optional[int]:
    """The least k with b | t^k, or None when gcd(t^k, b) stops growing short of b."""
    power, reached = 1, 0
    for k in itertools.count(1):
        power *= t
        g = math.gcd(int(power), b)
        if g == b:
            return k
        if g == reached:
            return None
        reached = g


def find_structure(x: GradedFreeComplex, gens: Sequence,
                   rng: Optional[random.Random] = None) -> StructureSearch:
    """Search, per generator, for the least exponent of a null-homotopy.

    Every verdict is exact: ``null_homotopies`` says which scalars c have
    c * id null-homotopic (b | c, and c = 0 or no free homology), so the
    least exponent is arithmetic on (t, b).  Every exponent is decided
    before anything is solved, and only when each generator has one is each
    solved, once.  With an ``rng`` each operator e becomes e + d sigma -
    sigma d, for one random degree +2 operator sigma per call (drawn even
    when the search fails), exhibiting different operator lifts for the
    same exponent.
    """
    problems = validate_complex(x)
    if problems:
        raise ValueError("not a complex: " + problems[0])
    ring = x.ring
    b, free, solve = null_homotopies(x)
    sigma = None if rng is None else ChainMap(x, x, 2, tuple(
        Matrix.build(ring, x.rank(i + 2), x.rank(i), lambda r, c: rng.randint(-2, 2))
        for i in x.degrees()))
    ts = tuple(map(ring.normalize, gens))
    obstructed = tuple(free and not ring.is_zero(t) for t in ts)
    exponents = tuple(None if o else _least_power(t, b) for t, o in zip(ts, obstructed))
    if None in exponents:
        return StructureSearch(None, exponents, obstructed)
    twist = None
    if sigma is not None:
        d = boundary_map(x)
        twist = d.compose(sigma) + sigma.compose(d).scale(-1)
    powers, grids = [], []
    for t, k in zip(ts, exponents):
        power = ring.normalize(t ** k)
        e = solve(power)
        if e is None:
            raise AssertionError(f"no null-homotopy of {power} * id, although {b} divides it")
        e = e if twist is None else e + twist
        powers.append(power)
        grids.append(tuple(e.mat(i) for i in list(x.degrees())[:-1]))
    structure = HomotopyStructure(x, tuple(powers), tuple(grids))
    # d² = 0 was checked on entry; the law is all that is left.
    problems = check_law(structure)
    if problems:
        raise AssertionError("search output failed its own check: " + problems[0])
    return StructureSearch(structure, exponents, obstructed)
