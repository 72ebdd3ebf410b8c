"""Exterior-algebra structures attached to a tuple of scalars.

For scalars (s_1, ..., s_d) there are two standard structured complexes on
the exterior algebra of R^d: contraction against the scalar covector
(degree k part in degree k, operators wedge on the left) and wedging with
the scalar vector (degree d - k part in degree k, operators contract).
The signed complementation map compares the two, and word operators give
the comparison maps between a structured complex and these models.
"""

from __future__ import annotations

from functools import reduce
from itertools import chain, combinations
from math import comb
from operator import mul

from .complexes import ChainMap, GradedFreeComplex
from .constructions import module_tensor, suspend, tensor_module
from .exactalg import Matrix
from .structures import HomotopyStructure


def exterior_basis(d: int, k: int) -> tuple:
    """Lexicographically ordered k-subsets of {1, ..., d}."""
    return tuple(combinations(range(1, d + 1), k))


def _index(basis) -> dict:
    return {sub: i for i, sub in enumerate(basis)}


def _sign_matrix(ring, rows: int, cols: int, entries) -> Matrix:
    """The rows x cols matrix with ``sign`` (1 or -1) at each (row, col,
    sign) of ``entries`` and 0 elsewhere, written as stored ints, with -1
    as the ring's residue: the scalar-free operators and the star."""
    minus = ring.normalize(-1).numerator
    ints = [[0] * cols for _ in range(rows)]
    for i, j, sign in entries:
        ints[i][j] = 1 if sign == 1 else minus
    return Matrix.from_ints(ring, rows, cols, tuple(map(tuple, ints)))


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
    index = [_index(basis) for basis in bases]
    diffs = []
    for k in range(1, d + 1):
        rows = index[k - 1]
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
            rows = index[k + 1]
            grid.append(_sign_matrix(ring, ranks[k + 1], ranks[k], (
                (rows[tuple(sorted(sub + (i,)))], col, (-1) ** sum(1 for j in sub if j < i))
                for col, sub in enumerate(bases[k]) if i not in sub)))
        ops.append(tuple(grid))
    return HomotopyStructure(cx, ss, tuple(ops))


def koszul_dual(ring, scalars) -> HomotopyStructure:
    """Wedge complex: degree m holds the (d - m)-forms, d(e_J) = e_J ^ s,
    generator r acts by signed removal of r."""
    ss = tuple(ring.normalize(s) for s in scalars)
    d = len(ss)
    bases = [exterior_basis(d, d - m) for m in range(d + 1)]
    ranks = tuple(comb(d, d - m) for m in range(d + 1))
    index = [_index(basis) for basis in bases]
    diffs = []
    for m in range(1, d + 1):
        rows = index[m - 1]
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
            rows = index[m + 1]
            # sub.index(r) is a - 1 for the 1-based position a of r in sub
            grid.append(_sign_matrix(ring, ranks[m + 1], ranks[m], (
                (rows[tuple(j for j in sub if j != r)], col, (-1) ** (sub.index(r) + 1 + len(sub)))
                for col, sub in enumerate(bases[m]) if r in sub)))
        ops.append(tuple(grid))
    return HomotopyStructure(cx, ss, tuple(ops))


def hodge_star(ring, scalars) -> ChainMap:
    """Signed complementation from the contraction model to the wedge model.

    In degree k it sends e_I to (-1)^(k(d-k)) sgn(I, I^c) e_{I^c}; it is an
    equivariant chain isomorphism between koszul and koszul_dual.
    """
    kx = koszul(ring, scalars).complex
    ox = koszul_dual(ring, scalars).complex
    return ChainMap(kx, ox, 0, star_matrices(ring, len(scalars)))


def star_matrices(ring, d: int) -> tuple:
    """The matrices of ``hodge_star`` for ``d`` scalars, degree 0 to d,
    without building the two complexes; they do not depend on the scalars."""
    mats = []
    for k in range(d + 1):
        src = exterior_basis(d, k)
        rows = _index(exterior_basis(d, d - k))
        outer = (-1) ** (k * (d - k))
        entries = []
        for col, sub in enumerate(src):
            complement = tuple(j for j in range(1, d + 1) if j not in sub)
            entries.append((rows[complement], col, outer * permutation_sign(sub + complement)))
        mats.append(_sign_matrix(ring, len(rows), len(src), entries))
    return tuple(mats)


def interleave_rows(a: Matrix, height: int) -> Matrix:
    """The rows of a stack of blocks ``height`` rows tall, reordered from
    (block, row) to (row, block): row j of block b moves to j * blocks + b."""
    ints = tuple(chain.from_iterable(a.ints[j::height] for j in range(height)))
    return Matrix.from_ints(a.ring, a.rows, a.cols, ints, a.den)


def word_matrix(m: HomotopyStructure, word, i: int) -> Matrix:
    """The matrix of ``word_operator(m, word)`` out of degree ``i``: the
    product of the k operator matrices it passes through, and nothing more."""
    x = m.complex
    k = len(word)
    if not k:
        return Matrix.identity(x.ring, x.rank(i))
    return reduce(mul, (m.op(letter - 1, i + k - 1 - a) for a, letter in enumerate(word)))


def word_operator(m: HomotopyStructure, word) -> ChainMap:
    """Compose generator operators, rightmost letter applied first.

    ``word`` holds 1-based generator indices; repeats are allowed.  The
    empty word gives the identity.
    """
    x = m.complex
    return ChainMap(x, x, len(word), tuple(word_matrix(m, word, i) for i in x.degrees()))


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
        blocks = [word_matrix(m, sub, lo) for sub in exterior_basis(d, k)]
        sign = ring.from_int(-1 if (lo * k) % 2 else 1)
        mats.append(Matrix.block([blocks]).scale(sign))
    return ChainMap(source.complex, x, 0, tuple(mats)), source


def counit_map(m: HomotopyStructure, ambient=None):
    """The comparison onto the wedge model on the top module.

    Returns (map, target structure); the target is the suspension by
    n - d of top module (x) koszul_dual, and the degree-i component stacks the
    word operators into the top interleaved with the module factor, scaled
    by (-1)^((n-d)(n-i)).  The map is the identity in degree n.

    The words are made top-down, a word of two or more letters with one
    product: out of degree i the matrix of (w_0, ..., w_(k-1)) is that of
    its prefix out of degree i + 1 times e_(w_(k-1)) out of degree i, as
    ``word_matrix`` multiplies.  The prefix of a k-subset in the basis is a
    (k - 1)-subset in the basis one degree up.
    """
    x = m.complex
    ring = x.ring
    d = m.ngens
    n = x.top_degree if ambient is None else ambient
    if n < x.top_degree:
        raise ValueError("ambient degree must dominate the window")
    p = x.rank(n)
    target = suspend(module_tensor(p, koszul_dual(ring, m.scalars)), n - d)
    blocks, words = {}, {(): Matrix.identity(ring, p)}
    for k in range(min(d, n - x.min_degree) + 1):
        i = n - k
        if k:
            words = {w: m.op(w[-1] - 1, i) if k == 1 else words[w[:-1]] * m.op(w[-1] - 1, i)
                     for w in exterior_basis(d, k)}
        block = interleave_rows(Matrix.block([[w] for w in words.values()]), p)
        blocks[i] = -block if ((n - d) * k) % 2 else block
    mats = tuple(blocks[i] if i in blocks else
                 Matrix.zeros(ring, target.complex.rank(i), x.rank(i)) for i in x.degrees())
    return ChainMap(x, target.complex, 0, mats), target
