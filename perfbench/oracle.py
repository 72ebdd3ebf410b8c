"""Answers computed apart from homcert.

Everything here works on plain Python data: matrices are lists of rows of
``int`` or ``Fraction`` entries, and a ring is named by its modulus (``None``
for Z and Q).  No function calls into homcert, so a wrong answer from the
program cannot be repeated here by the same code path.  sympy is imported
only inside the functions that need it, after the timed part of a run.
"""

from __future__ import annotations

import json
from fractions import Fraction


def _reduce(x, mod):
    return x % mod if mod else x


def mat_mul(a, b, n, k, m, mod=None):
    """The n x m product of an n x k and a k x m matrix."""
    out = []
    for i in range(n):
        row = a[i]
        out.append([_reduce(sum(row[t] * b[t][j] for t in range(k)), mod)
                    for j in range(m)])
    return out


def _shape_ok(mat, rows, cols) -> bool:
    return len(mat) == rows and all(len(r) == cols for r in mat)


def homotopy_problems(mod, ranks, diffs, scalars, ops) -> list[str]:
    """Every failure of d.d = 0 and d.e + e.d = s.id, degree slot by slot.

    ``diffs[j]`` maps slot j + 1 to slot j (shape ranks[j] x ranks[j+1]) and
    ``ops[g][j]`` maps slot j to slot j + 1 (shape ranks[j+1] x ranks[j]).
    """
    n = len(ranks)
    problems = []
    if len(diffs) != max(n - 1, 0) or len(ops) != len(scalars):
        return ["wrong number of differentials or operator grids"]
    for j, d in enumerate(diffs):
        if not _shape_ok(d, ranks[j], ranks[j + 1]):
            problems.append(f"differential at slot {j} has the wrong shape")
    for g, grid in enumerate(ops):
        if len(grid) != max(n - 1, 0) or any(
                not _shape_ok(e, ranks[j + 1], ranks[j]) for j, e in enumerate(grid)):
            problems.append(f"operator grid {g} has the wrong shape")
    if problems:
        return problems
    for j in range(n - 2):
        dd = mat_mul(diffs[j], diffs[j + 1], ranks[j], ranks[j + 1], ranks[j + 2], mod)
        if any(x for row in dd for x in row):
            problems.append(f"d.d != 0 at slot {j}")
    for g, s in enumerate(scalars):
        for j in range(n):
            r = ranks[j]
            acc = [[0] * r for _ in range(r)]
            terms = []
            if j < n - 1:
                terms.append(mat_mul(diffs[j], ops[g][j], r, ranks[j + 1], r, mod))
            if j >= 1:
                terms.append(mat_mul(ops[g][j - 1], diffs[j - 1], r, ranks[j - 1], r, mod))
            for term in terms:
                for a in range(r):
                    for b in range(r):
                        acc[a][b] += term[a][b]
            if any(_reduce(acc[a][b] - (s if a == b else 0), mod)
                   for a in range(r) for b in range(r)):
                problems.append(f"generator {g}: d.e + e.d != {s}.id at slot {j}")
    return problems


def euler_characteristic(min_degree: int, ranks) -> int:
    return sum((-1) ** (min_degree + j) * r for j, r in enumerate(ranks))


def claim_balance(claim_terms, chi_by_name) -> int:
    """Sum of coeff * chi over a claim; an accepted claim must give zero."""
    return sum(coeff * chi_by_name[name] for name, coeff in claim_terms)


def field_rank(rows, mod=None) -> int:
    """Rank over Q (``mod`` None, Fraction elimination) or over Z/p."""
    m = [[Fraction(x) if mod is None else x % mod for x in row] for row in rows]
    rank = 0
    width = len(m[0]) if m else 0
    for col in range(width):
        pivot = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][col] if mod is None else pow(m[rank][col], -1, mod)
        for i in range(len(m)):
            if i != rank and m[i][col]:
                f = m[i][col] * inv
                m[i] = [_reduce(x - f * y, mod) for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


def _free_homology(ranks, diff_ranks) -> list[int]:
    """Homology dimension per slot from the ranks of the differentials."""
    n = len(ranks)
    return [ranks[j] - (diff_ranks[j - 1] if j >= 1 else 0)
            - (diff_ranks[j] if j < n - 1 else 0) for j in range(n)]


def least_exponent_z(ranks, diffs, t: int, k_cap: int = 256):
    """Least k >= 1 with t^k.id null-homotopic over Z, or None if obstructed.

    Over Z a bounded free complex splits into pieces Z --a--> Z and free
    summands, so t^k.id is null-homotopic exactly when the free homology is
    zero and every elementary divisor of every differential divides t^k.
    Divisors and ranks come from sympy.
    """
    from sympy import Matrix as SympyMatrix
    from sympy.matrices.normalforms import invariant_factors
    from sympy.polys.domains import ZZ as SYMPY_ZZ

    diff_ranks, divisors = [], []
    for j, d in enumerate(diffs):
        if ranks[j] == 0 or ranks[j + 1] == 0:
            diff_ranks.append(0)
            continue
        sm = SympyMatrix(d)
        diff_ranks.append(sm.rank())
        divisors += [abs(int(a)) for a in invariant_factors(sm, domain=SYMPY_ZZ) if a]
    if any(_free_homology(ranks, diff_ranks)):
        return None
    for k in range(1, k_cap + 1):
        if all(t ** k % a == 0 for a in divisors):
            return k
    raise ValueError(f"no exponent up to {k_cap}: a divisor has a prime outside t")


def least_exponent_field(ranks, diffs, mod=None):
    """Over Q or Z/p: 1 when the complex is acyclic, None when homology is nonzero."""
    diff_ranks = [field_rank(d, mod) if ranks[j] and ranks[j + 1] else 0
                  for j, d in enumerate(diffs)]
    return None if any(_free_homology(ranks, diff_ranks)) else 1


def least_exponent_pieces(pieces, t: int, mod: int) -> int:
    """Least k for a direct sum of pieces Z/m --a--> Z/m (a = 0 for free summands).

    On one piece the homotopy equation reads a.e = t^k in Z/m, solvable
    exactly when gcd(a, m) divides t^k; a sum needs every piece.
    """
    from math import gcd

    best = 1
    for a in pieces:
        g = gcd(a, mod)
        k = next((k for k in range(1, 65) if t ** k % g == 0), None)
        if k is None:
            raise ValueError(f"no exponent: gcd({a}, {mod}) never divides {t}^k")
        best = max(best, k)
    return best


def error_line_problems(stderr: str) -> list[str]:
    """A nonzero exit must leave exactly one JSON error line on stderr."""
    lines = stderr.splitlines()
    if len(lines) != 1:
        return [f"expected one stderr line, got {len(lines)}"]
    try:
        doc = json.loads(lines[0])
    except json.JSONDecodeError:
        return ["stderr line is not JSON"]
    if not isinstance(doc, dict) or set(doc) != {"error"}:
        return ["stderr line is not an error object"]
    return []
