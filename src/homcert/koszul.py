"""Exterior-algebra structures attached to a tuple of scalars.

For scalars (s_1, ..., s_d) there are two standard structured complexes on
the exterior algebra of R^d: contraction against the scalar covector
(degree k part in degree k, operators wedge on the left) and wedging with
the scalar vector (degree d - k part in degree k, operators contract).
The signed complementation map compares the two, and word operators give
the comparison maps between a structured complex and these models.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

from .complexes import ChainMap, GradedFreeComplex, identity_map
from .constructions import module_tensor, suspend, tensor_module
from .exactalg import Matrix
from .structures import HomotopyStructure


def exterior_basis(d: int, k: int) -> tuple:
    """Lexicographically ordered k-subsets of {1, ..., d}."""
    return tuple(combinations(range(1, d + 1), k))


def _index(basis) -> dict:
    return {sub: i for i, sub in enumerate(basis)}


def permutation_sign(perm) -> int:
    inversions = sum(1 for a in range(len(perm)) for b in range(a + 1, len(perm))
                     if perm[a] > perm[b])
    return -1 if inversions % 2 else 1


def koszul(ring, scalars) -> HomotopyStructure:
    """Contraction complex: d(e_J) = sum_a (-1)^(a-1) s_{j_a} e_{J - j_a},
    generator i acts by wedging e_i on the left."""
    ss = tuple(ring.normalize(s) for s in scalars)
    d = len(ss)
    bases = [exterior_basis(d, k) for k in range(d + 1)]
    ranks = tuple(comb(d, k) for k in range(d + 1))
    diffs = []
    for k in range(1, d + 1):
        rows = _index(bases[k - 1])
        mat = [[ring.zero()] * ranks[k] for _ in range(ranks[k - 1])]
        for col, sub in enumerate(bases[k]):
            for a, j in enumerate(sub):
                val = ss[j - 1] if a % 2 == 0 else ring.neg(ss[j - 1])
                removed = sub[:a] + sub[a + 1:]
                mat[rows[removed]][col] = val
        diffs.append(Matrix.from_rows(ring, mat))
    cx = GradedFreeComplex(ring, 0, ranks, tuple(diffs))
    ops = []
    for i in range(1, d + 1):
        grid = []
        for k in range(d):
            rows = _index(bases[k + 1])
            mat = [[ring.zero()] * ranks[k] for _ in range(ranks[k + 1])]
            for col, sub in enumerate(bases[k]):
                if i in sub:
                    continue
                smaller = sum(1 for j in sub if j < i)
                val = ring.one() if smaller % 2 == 0 else ring.neg(ring.one())
                mat[rows[tuple(sorted(sub + (i,)))]][col] = val
            grid.append(Matrix.from_rows(ring, mat))
        ops.append(tuple(grid))
    return HomotopyStructure(cx, ss, tuple(ops))


def koszul_dual(ring, scalars) -> HomotopyStructure:
    """Wedge complex: degree m holds the (d - m)-forms, d(e_J) = e_J ^ s,
    generator r acts by signed removal of r."""
    ss = tuple(ring.normalize(s) for s in scalars)
    d = len(ss)
    bases = [exterior_basis(d, d - m) for m in range(d + 1)]
    ranks = tuple(comb(d, d - m) for m in range(d + 1))
    diffs = []
    for m in range(1, d + 1):
        rows = _index(bases[m - 1])
        mat = [[ring.zero()] * ranks[m] for _ in range(ranks[m - 1])]
        for col, sub in enumerate(bases[m]):
            for r in range(1, d + 1):
                if r in sub:
                    continue
                bigger = sum(1 for j in sub if j > r)
                val = ss[r - 1] if bigger % 2 == 0 else ring.neg(ss[r - 1])
                mat[rows[tuple(sorted(sub + (r,)))]][col] = val
        diffs.append(Matrix.from_rows(ring, mat))
    cx = GradedFreeComplex(ring, 0, ranks, tuple(diffs))
    ops = []
    for r in range(1, d + 1):
        grid = []
        for m in range(d):
            rows = _index(bases[m + 1])
            mat = [[ring.zero()] * ranks[m] for _ in range(ranks[m + 1])]
            for col, sub in enumerate(bases[m]):
                if r not in sub:
                    continue
                a = sub.index(r) + 1
                val = ring.one() if (a + len(sub)) % 2 == 0 else ring.neg(ring.one())
                mat[rows[sub[:a - 1] + sub[a:]]][col] = val
            grid.append(Matrix.from_rows(ring, mat))
        ops.append(tuple(grid))
    return HomotopyStructure(cx, ss, tuple(ops))


def hodge_star(ring, scalars) -> ChainMap:
    """Signed complementation from the contraction model to the wedge model.

    In degree k it sends e_I to (-1)^(k(d-k)) sgn(I, I^c) e_{I^c}; it is an
    equivariant chain isomorphism between koszul and koszul_dual.
    """
    d = len(scalars)
    kx = koszul(ring, scalars).complex
    ox = koszul_dual(ring, scalars).complex
    mats = []
    for k in range(d + 1):
        src = exterior_basis(d, k)
        rows = _index(exterior_basis(d, d - k))
        mat = [[ring.zero()] * len(src) for _ in range(comb(d, d - k))]
        outer = -1 if (k * (d - k)) % 2 else 1
        for col, sub in enumerate(src):
            complement = tuple(j for j in range(1, d + 1) if j not in sub)
            val = outer * permutation_sign(sub + complement)
            mat[rows[complement]][col] = ring.from_int(val)
        mats.append(Matrix.from_rows(ring, mat))
    return ChainMap(kx, ox, 0, tuple(mats))


def word_operator(m: HomotopyStructure, word) -> ChainMap:
    """Compose generator operators, rightmost letter applied first.

    ``word`` holds 1-based generator indices; repeats are allowed.  The
    empty word gives the identity.
    """
    result = identity_map(m.complex)
    for letter in word:
        result = result.compose(m.op_map(letter - 1))
    return result


def unit_map(m: HomotopyStructure):
    """The comparison from the contraction model on the bottom module.

    Returns (map, source structure) where the source is the suspension to
    the bottom degree of koszul (x) bottom module, and the map is the
    identity in the bottom degree and word operators above it.
    """
    x = m.complex
    ring = x.ring
    d = m.ngens
    lo = x.min_degree
    p = x.rank(lo)
    source = suspend(tensor_module(koszul(ring, m.scalars), p), lo)
    mats = []
    for k in range(d + 1):
        blocks = [word_operator(m, sub).mat(lo) for sub in exterior_basis(d, k)]
        sign = ring.from_int(-1 if (lo * k) % 2 else 1)
        mats.append(Matrix.block([blocks]).scale(sign))
    return ChainMap(source.complex, x, 0, tuple(mats)), source


def counit_map(m: HomotopyStructure, ambient=None):
    """The comparison onto the wedge model on the top module.

    Returns (map, target structure); the target is the suspension by
    n - d of top module (x) koszul_dual, and the degree-i component stacks the
    word operators into the top interleaved with the module factor, scaled
    by (-1)^((n-d)(n-i)).  The map is the identity in degree n.
    """
    x = m.complex
    ring = x.ring
    d = m.ngens
    n = x.top_degree if ambient is None else ambient
    if n < x.top_degree:
        raise ValueError("ambient degree must dominate the window")
    p = x.rank(n)
    target = suspend(module_tensor(p, koszul_dual(ring, m.scalars)), n - d)
    mats = []
    for i in x.degrees():
        k = n - i
        if k < 0 or k > d:
            mats.append(Matrix.zeros(ring, target.complex.rank(i), x.rank(i)))
            continue
        basis = exterior_basis(d, k)
        words = [word_operator(m, sub).mat(i) for sub in basis]
        sign = -1 if ((n - d) * k) % 2 else 1

        def entry(r, c, words=words, nb=len(basis), sign=sign):
            j, idx = divmod(r, nb)
            v = words[idx].entry(j, c)
            return v if sign == 1 else ring.neg(v)

        mats.append(Matrix.build(ring, p * len(basis), x.rank(i), entry))
    return ChainMap(x, target.complex, 0, tuple(mats)), target
