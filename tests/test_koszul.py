"""Exterior-algebra models, complementation, word operators, comparison maps."""

import random

from homcert.complexes import boundary_map, find_contraction, identity_map
from homcert.constructions import disk, suspend
from homcert.exactalg import Matrix, ZZ
from homcert.kernel import check_structure, inverse_defect
from homcert.koszul import (
    counit_map, exterior_basis, hodge_star, koszul, koszul_dual, permutation_sign,
    unit_map, word_operator,
)
from homcert.structures import find_structure, is_equivariant
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


def test_koszul_contractible_when_a_scalar_is_a_unit():
    assert find_contraction(koszul(ZZ, (1, 6)).complex) is not None
    assert find_contraction(koszul(ZZ, (2, 4)).complex) is None
