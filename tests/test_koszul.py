"""Exterior-algebra models, complementation, word operators, comparison maps."""

import random
from fractions import Fraction

import pytest

from homcert.complexes import ChainMap, boundary_map, find_contraction, identity_map
from homcert.constructions import disk, module_tensor, suspend
from homcert.exactalg import Matrix, QQ, ZZ, Zmod
from homcert.kernel import check_structure, inverse_defect
from homcert.koszul import (
    counit_map, exterior_basis, hodge_star, interleave_rows, koszul, koszul_dual,
    permutation_sign, unit_map, word_matrix, word_operator,
)
from homcert.structures import HomotopyStructure, find_structure, is_equivariant
from homcert.complexes import GradedFreeComplex


def two_term_structure(entry, scalar):
    """[Z --entry--> Z] with the least power-of-scalar operator."""
    x = GradedFreeComplex(ZZ, 0, (1, 1), (Matrix.from_rows(ZZ, [[entry]]),))
    res = find_structure(x, (scalar,))
    assert res.structure is not None
    return res.structure


def test_exterior_basis_order():
    assert exterior_basis(3, 2) == ((1, 2), (1, 3), (2, 3))
    assert exterior_basis(2, 0) == ((),)
    assert permutation_sign((1, 2, 3)) == 1
    assert permutation_sign((2, 1, 3)) == -1


def test_koszul_frozen_two_generators():
    m = koszul(ZZ, (2, 3))
    assert m.complex.ranks == (1, 2, 1)
    assert m.complex.diff(1) == Matrix.from_rows(ZZ, [[2, 3]])
    assert m.complex.diff(2) == Matrix.from_rows(ZZ, [[-3], [2]])
    assert m.op(0, 0) == Matrix.from_rows(ZZ, [[1], [0]])
    assert m.op(0, 1) == Matrix.from_rows(ZZ, [[0, 1]])
    assert m.op(1, 0) == Matrix.from_rows(ZZ, [[0], [1]])
    assert m.op(1, 1) == Matrix.from_rows(ZZ, [[-1, 0]])
    assert check_structure(m) == []


def test_koszul_dual_frozen_two_generators():
    m = koszul_dual(ZZ, (2, 3))
    assert m.complex.ranks == (1, 2, 1)
    assert m.complex.diff(1) == Matrix.from_rows(ZZ, [[3, -2]])
    assert m.complex.diff(2) == Matrix.from_rows(ZZ, [[2], [3]])
    assert m.op(0, 0) == Matrix.from_rows(ZZ, [[0], [-1]])
    assert m.op(0, 1) == Matrix.from_rows(ZZ, [[1, 0]])
    assert check_structure(m) == []


def test_single_generator_models():
    k = koszul(ZZ, (5,))
    assert k.complex.diff(1) == Matrix.from_rows(ZZ, [[5]])
    assert k.op(0, 0) == Matrix.from_rows(ZZ, [[1]])
    o = koszul_dual(ZZ, (5,))
    assert o.complex.diff(1) == Matrix.from_rows(ZZ, [[5]])
    assert o.op(0, 0) == Matrix.from_rows(ZZ, [[1]])
    assert check_structure(k) == [] and check_structure(o) == []


def test_models_valid_up_to_three_generators():
    rng = random.Random(3)
    for d in (1, 2, 3):
        for _ in range(3):
            scalars = tuple(rng.randint(-4, 4) for _ in range(d))
            assert check_structure(koszul(ZZ, scalars)) == []
            assert check_structure(koszul_dual(ZZ, scalars)) == []


def test_hodge_star_frozen():
    star = hodge_star(ZZ, (2, 3))
    assert star.mat(0) == Matrix.from_rows(ZZ, [[1]])
    assert star.mat(1) == Matrix.from_rows(ZZ, [[0, 1], [-1, 0]])
    assert star.mat(2) == Matrix.from_rows(ZZ, [[1]])
    assert star.is_chain_map()


def test_hodge_star_properties():
    rng = random.Random(11)
    for d in (1, 2, 3):
        scalars = tuple(rng.randint(-3, 4) for _ in range(d))
        k = koszul(ZZ, scalars)
        o = koszul_dual(ZZ, scalars)
        star = hodge_star(ZZ, scalars)
        assert star.source == k.complex and star.target == o.complex
        assert star.is_chain_map()
        assert inverse_defect(star, star.transpose()) is None
        assert is_equivariant(star, k, o)
        # complementing twice is (-1)^(k(d-k)) at the level of subset bases
        for m in range(d + 1):
            sgn = -1 if (m * (d - m)) % 2 else 1
            assert star.mat(d - m) * star.mat(m) == \
                Matrix.identity(ZZ, k.complex.rank(m)).scale(ZZ.from_int(sgn))


def test_word_operator_basics():
    m = koszul(ZZ, (2, 3))
    assert word_operator(m, ()) == identity_map(m.complex)
    e12 = word_operator(m, (1, 2))
    assert e12.shift == 2
    assert e12.mat(0) == m.op(0, 1) * m.op(1, 0)
    # repeated letters are allowed: e_1 e_1 need not vanish in general,
    # but does on the contraction model
    assert word_operator(m, (1, 1)).mat(0).is_zero()


def test_word_operator_leibniz():
    # d o E_w = sum_a (-1)^(a-1) s_{w_a} E_{w minus a} + (-1)^len E_w o d
    rng = random.Random(23)
    structures = [
        koszul(ZZ, (2, 3)),
        koszul_dual(ZZ, (4, -1, 3)),
        disk(ZZ, 2, 3, (2, 5)),
    ]
    for m in structures:
        d = boundary_map(m.complex)
        for _ in range(6):
            word = tuple(rng.randint(1, m.ngens) for _ in range(rng.randint(1, 3)))
            lhs = d.compose(word_operator(m, word))
            sign = ZZ.from_int(-1 if len(word) % 2 else 1)
            rhs = word_operator(m, word).compose(d).scale(sign)
            for a, letter in enumerate(word):
                term = word_operator(m, word[:a] + word[a + 1:])
                coeff = m.scalars[letter - 1] * (1 if a % 2 == 0 else -1)
                rhs = rhs + term.scale(ZZ.from_int(coeff))
            assert lhs == rhs


def test_unit_map_is_chain_map():
    m = two_term_structure(4, 2)  # operator for 2^2 on multiplication by 4
    f, source = unit_map(m)
    assert check_structure(source) == []
    assert f.is_chain_map()
    assert f.mat(0) == Matrix.identity(ZZ, 1)


def test_unit_map_on_the_contraction_model_is_identity():
    for scalars in ((2,), (2, 3), (1, -2, 3)):
        m = koszul(ZZ, scalars)
        f, source = unit_map(m)
        assert f.is_chain_map()
        for i in m.complex.degrees():
            assert f.mat(i) == Matrix.identity(ZZ, m.complex.rank(i))
        assert source.complex == m.complex


def test_unit_map_odd_bottom_degree():
    m = suspend(koszul(ZZ, (2, 3)), 1)
    f, source = unit_map(m)
    assert source.complex.min_degree == 1
    assert f.is_chain_map()


def test_counit_map_is_chain_map():
    m = two_term_structure(4, 2)
    f, target = counit_map(m)
    assert check_structure(target) == []
    assert f.is_chain_map()
    assert f.mat(1) == Matrix.identity(ZZ, 1)


def test_counit_map_odd_shift():
    # top 2 with one generator makes the suspension shift n - d = 1 odd,
    # exercising the degree-dependent sign
    m = suspend(two_term_structure(4, 2), 1)
    f, target = counit_map(m)
    assert target.complex.min_degree == 1 and target.complex.top_degree == 2
    assert f.is_chain_map()


def test_counit_map_various_models():
    for m in (koszul(ZZ, (2, 3)), koszul_dual(ZZ, (3, 5)), disk(ZZ, 2, 4, (2, 3)),
              suspend(koszul(ZZ, (2, -3)), 2)):
        f, target = counit_map(m)
        assert f.is_chain_map()
        assert check_structure(target) == []
        n, d = m.complex.top_degree, m.ngens
        assert target.complex.min_degree == n - d
        assert f.mat(n) == Matrix.identity(ZZ, m.complex.rank(n))


def test_counit_with_larger_ambient_degree():
    m = koszul(ZZ, (2, 3))
    f, target = counit_map(m, ambient=4)
    assert target.complex.ranks == (0, 0, 0)
    assert f.is_chain_map()



def counit_map_reference(m, ambient=None):
    """``counit_map`` with every word's matrix made whole by ``word_matrix``."""
    x = m.complex
    ring, d = x.ring, m.ngens
    n = x.top_degree if ambient is None else ambient
    p = x.rank(n)
    target = suspend(module_tensor(p, koszul_dual(ring, m.scalars)), n - d)
    mats = []
    for i in x.degrees():
        k = n - i
        if k < 0 or k > d:
            mats.append(Matrix.zeros(ring, target.complex.rank(i), x.rank(i)))
            continue
        words = Matrix.block([[word_matrix(m, sub, i)] for sub in exterior_basis(d, k)])
        block = interleave_rows(words, p)
        mats.append(-block if ((n - d) * k) % 2 else block)
    return ChainMap(x, target.complex, 0, tuple(mats)), target


COUNIT_RINGS = {"Z": ZZ, "Q": QQ, "Z7": Zmod(7), "Z12": Zmod(12)}


@pytest.mark.parametrize("ring", COUNIT_RINGS.values(), ids=COUNIT_RINGS.keys())
def test_counit_map_matches_the_word_matrix_stack(ring):
    """Words made from their prefixes give the stack of ``word_matrix``
    blocks, for d = 1..4, windows shorter and longer than d with zero ranks,
    the ambient degree at and above the top, and operators that need not
    satisfy the law (over Q with fractions)."""
    rng = random.Random(f"counit/{ring}")

    def entry():
        return Fraction(rng.randint(-3, 3), rng.choice((1, 2))) if ring == QQ \
            else rng.randint(-3, 3)

    def mat(rows, cols):
        return Matrix.build(ring, rows, cols, lambda i, j: entry())

    for d in range(1, 5):
        models = [koszul(ring, (2, 3, 5, 7)[:d]), suspend(koszul_dual(ring, (3, 1, 2, 5)[:d]), 1)]
        for _ in range(8):
            ranks = tuple(rng.choice((0, 1, 2, 3)) for _ in range(rng.randint(1, 6)))
            x = GradedFreeComplex(ring, rng.randint(-2, 2), ranks, tuple(
                mat(r, s) for r, s in zip(ranks, ranks[1:])))
            ops = tuple(tuple(mat(s, r) for r, s in zip(ranks, ranks[1:])) for _ in range(d))
            models.append(HomotopyStructure(x, tuple(entry() for _ in range(d)), ops))
        for m in models:
            top = m.complex.top_degree
            for ambient in (None, top, top + 1, top + 2):
                assert counit_map(m, ambient) == counit_map_reference(m, ambient)


def test_counit_map_makes_each_word_with_one_product(monkeypatch):
    """A word of k >= 2 letters costs one product: 11 for d = 4, not the 17
    of multiplying every word out."""
    calls = []
    real = Matrix.__mul__
    monkeypatch.setattr(Matrix, "__mul__", lambda a, b: calls.append(1) or real(a, b))
    for d, want in ((1, 0), (2, 1), (3, 4), (4, 11)):
        calls.clear()
        counit_map(koszul(ZZ, (2, 3, 5, 7)[:d]))
        assert len(calls) == want

def test_koszul_contractible_when_a_scalar_is_a_unit():
    assert find_contraction(koszul(ZZ, (1, 6)).complex) is not None
    assert find_contraction(koszul(ZZ, (2, 4)).complex) is None
