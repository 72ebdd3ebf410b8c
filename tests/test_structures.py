"""Null-homotopy structures: axioms, rescaling, equivariance, exponent search."""

import math
import random

import pytest
import sympy
from sympy.matrices.normalforms import invariant_factors

from homcert import exactalg, structures
from homcert.complexes import ChainMap, GradedFreeComplex, find_contraction, identity_map
from homcert.exactalg import Matrix, QQ, ZZ, Zmod
from homcert.kernel import check_structure
from homcert.structures import (
    HomotopyStructure, find_structure, is_equivariant, restrict, structure_from_contraction,
)


def two_term(entry, ring=ZZ):
    return GradedFreeComplex(ring, 0, (1, 1), (Matrix.from_rows(ring, [[entry]]),))


def staircase():
    """Contractible 1 -> 2 -> 1 complex whose homotopy system has a free parameter."""
    return GradedFreeComplex(
        ZZ, 0, (1, 2, 1),
        (Matrix.from_rows(ZZ, [[0, 1]]), Matrix.from_rows(ZZ, [[1], [0]])))


def test_structure_from_contraction_axiom():
    x = two_term(1)
    h = find_contraction(x)
    m = structure_from_contraction(x, h, (3,))
    assert check_structure(m) == []
    assert m.scalars == (3,)
    assert m.op(0, 0) == Matrix.from_rows(ZZ, [[3]])
    # off-window accessors are shaped zeros
    assert m.op(0, 1).rows == 0 and m.op(0, -1).cols == 0


def test_structure_shape_validation():
    x = two_term(1)
    with pytest.raises(ValueError):
        HomotopyStructure(x, (1,), ((),))  # missing the one operator matrix
    with pytest.raises(ValueError):
        HomotopyStructure(x, (1, 2), ((Matrix.identity(ZZ, 1),),))
    with pytest.raises(ValueError):
        HomotopyStructure(x, (1,), ((Matrix.zeros(ZZ, 2, 1),),))


def test_check_structure_reports_bad_degree():
    x = two_term(2)
    m = HomotopyStructure(x, (2,), ((Matrix.from_rows(ZZ, [[1]]),),))
    assert check_structure(m) == []
    bad = HomotopyStructure(x, (2,), ((Matrix.from_rows(ZZ, [[3]]),),))
    rep = check_structure(bad)
    assert rep and "degree" in rep[0]


def test_restrict_scales_operators_and_scalars():
    x = staircase()
    h = find_contraction(x)
    m = structure_from_contraction(x, h, (2,))
    r = restrict(m, (3,))
    assert r.scalars == (6,)
    assert check_structure(r) == []
    for i in x.degrees():
        assert r.op(0, i) == m.op(0, i).scale(ZZ.from_int(3))
    # composing rescalings multiplies the factors
    assert restrict(restrict(m, (2,)), (5,)) == restrict(m, (10,))


def test_is_equivariant_identity_and_failure():
    x = staircase()
    h = find_contraction(x)
    m = structure_from_contraction(x, h, (2,))
    ident = identity_map(x)
    assert is_equivariant(ident, m, m)
    assert not is_equivariant(ident, m, restrict(m, (3,)))
    with pytest.raises(ValueError):
        is_equivariant(ChainMap(x, x, 1, tuple(m.op(0, i) for i in x.degrees())), m, m)


# -- exponent search --------------------------------------------------


def test_find_structure_exact_exponents():
    for t, k in [(2, 1), (2, 3), (3, 2), (5, 1)]:
        x = two_term(t ** k)
        res = find_structure(x, (t,))
        assert res.exponents == (k,)
        assert res.structure is not None
        assert check_structure(res.structure) == []
        assert res.structure.scalars == (t ** k,)


def test_find_structure_inconclusive_without_obstruction():
    # multiplication by 2 admits no 3-power homotopy, but homology vanishes
    res = find_structure(two_term(2), (3,))
    assert res.exponents == (None,)
    assert res.obstructed == (False,)
    assert res.structure is None


def test_find_structure_solves_nothing_once_an_exponent_fails(monkeypatch):
    solved = []
    real = structures.null_homotopies

    def counting(x):
        b, free, solve = real(x)
        return b, free, lambda c: solved.append(c) or solve(c)
    monkeypatch.setattr(structures, "null_homotopies", counting)
    z8 = Zmod(8)
    # on Z/8 --2--> Z/8 generator 4 has exponent 1 and generator 3 none
    res = find_structure(two_term(2, ring=z8), (4, 3))
    assert (res.structure, res.exponents, res.obstructed) == (None, (1, None), (False, False))
    assert solved == []
    assert find_structure(two_term(2, ring=z8), (4,)).exponents == (1,) and solved == [4]
    # sigma is drawn whether or not the search fails, so the rng moves alike
    x = GradedFreeComplex(z8, 0, (1, 1, 1), (Matrix.from_rows(z8, [[2]]),
                                             Matrix.from_rows(z8, [[4]])))
    failed, found = random.Random(5), random.Random(5)
    assert find_structure(x, (4, 3), rng=failed).exponents == (2, None)
    assert find_structure(x, (4,), rng=found).exponents == (2,)
    assert failed.getstate() == found.getstate() != random.Random(5).getstate()
    assert solved == [4, 0]


def test_find_structure_rational_homology_obstruction():
    res = find_structure(two_term(0), (2,))
    assert res.obstructed == (True,)
    assert res.exponents == (None,)
    res_q = find_structure(two_term(0, ring=QQ), (2,))
    assert res_q.obstructed == (True,)


def test_find_structure_multiple_generators():
    x = staircase()
    res = find_structure(x, (2, 3))
    assert res.exponents == (1, 1)
    assert res.structure.scalars == (2, 3)
    assert check_structure(res.structure) == []


def test_find_structure_zmod():
    res = find_structure(two_term(5, ring=Zmod(12)), (5,))
    assert res.exponents == (1,)
    assert check_structure(res.structure) == []


def test_find_structure_random_lifts_differ():
    x = staircase()
    seen = set()
    for seed in range(6):
        res = find_structure(x, (2,), rng=random.Random(seed))
        assert res.structure is not None
        assert check_structure(res.structure) == []
        seen.add(res.structure.ops)
    assert len(seen) > 1  # the kernel direction produces distinct lifts


# -- least exponents against sympy ------------------------------------


def unimodular_pair(rng, n, mod=None):
    """A random unimodular matrix and its inverse, as plain integer rows."""
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    q = [row[:] for row in p]
    for _ in range(2 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((1, -1, 2, -2))
        p[i] = [a + c * b for a, b in zip(p[i], p[j])]       # rows: E * p
        for row in q:                                          # cols: q * E^-1
            row[j] -= c * row[i]
    if mod:
        p = [[a % mod for a in row] for row in p]
        q = [[a % mod for a in row] for row in q]
    return p, q


def pieces_complex(rng, ring, lower, upper=(), mod=None):
    """The pieces R --a--> R from degree 1 (``lower``) and from degree 2
    (``upper``) summed up, then written in a random basis in every degree."""
    nl, nu = len(lower), len(upper)
    ranks = [nl, nl + nu, nu] if nu else [nl, nl]
    d1 = [[lower[i] if i == j else 0 for j in range(ranks[1])] for i in range(nl)]
    diffs = [d1]
    if nu:
        diffs.append([[upper[i - nl] if i == nl + j else 0 for j in range(nu)]
                      for i in range(nl + nu)])
    bases = [unimodular_pair(rng, r, mod) for r in ranks]
    out = []
    for j, d in enumerate(diffs):
        p, _ = bases[j]
        _, q_inv = bases[j + 1]
        m = sympy.Matrix(p) * sympy.Matrix(d) * sympy.Matrix(q_inv)
        out.append(Matrix.from_rows(ring, [[int(v) for v in m.row(r)] for r in range(m.rows)]))
    return GradedFreeComplex(ring, 0, tuple(ranks), tuple(out))


def least_exponent_z(x, t):
    """Least k with every invariant factor of every d dividing t^k and no
    free homology (None when there is free homology or no such k), by sympy."""
    plain = [sympy.Matrix([list(r) for r in d.entries]) for d in x.diffs]
    ranks = [m.rank() for m in plain]
    for j, n in enumerate(x.ranks):
        below = ranks[j - 1] if j >= 1 else 0
        above = ranks[j] if j < len(plain) else 0
        if n - below - above:
            return None, True
    b = 1
    for m in plain:
        for a in invariant_factors(m):
            b = sympy.ilcm(b, int(a))
    for k in range(1, 64):
        if t ** k % b == 0:
            return k, False
    return None, False


def least_exponent_pieces(pieces, t, mod):
    for k in range(1, 64):
        if all(t ** k % math.gcd(a, mod) == 0 for a in pieces):
            return k
    return None


def check_search(x, t, want, obstructed):
    res = find_structure(x, (t,))
    assert res.exponents == (want,)
    assert res.obstructed == (obstructed,)
    if want is None:
        assert res.structure is None
    else:
        assert res.structure.scalars == (x.ring.normalize(t ** want),)
        assert check_structure(res.structure) == []


def test_find_structure_matches_sympy_over_z():
    rng = random.Random(1)
    for case in range(36):
        t = rng.choice((2, 3, 6))
        # mostly pieces that some power of t kills, a few that none does
        twos = t % 2 == 0 or rng.random() < 0.2
        threes = t % 3 == 0 or rng.random() < 0.2

        def piece():
            return (rng.choice((1, -1)) * 2 ** (rng.randint(0, 4) * twos)
                    * 3 ** (rng.randint(0, 3) * threes))
        if case % 2:
            nl = rng.randint(1, 4)
            lower, upper = [piece() for _ in range(nl)], [piece() for _ in range(rng.randint(1, 8 - nl))]
        else:
            lower, upper = [piece() for _ in range(rng.randint(2, 8))], []
        x = pieces_complex(rng, ZZ, lower, upper)
        want, obstructed = least_exponent_z(x, t)
        check_search(x, t, want, obstructed)


def test_find_structure_matches_gcd_rule_over_composite_zmod():
    rng = random.Random(77)
    for case in range(24):
        mod = (8, 9, 12, 36)[case % 4]
        units = [a for a in range(1, mod) if math.gcd(a, mod) == 1]
        non_units = [a for a in range(mod) if math.gcd(a, mod) > 1]
        def piece():
            return rng.choice(non_units if rng.random() < 0.6 else units)
        lower = [piece() for _ in range(rng.randint(1, 4))]
        upper = [piece() for _ in range(rng.randint(0, 4))]
        x = pieces_complex(rng, Zmod(mod), lower, upper, mod)
        t = rng.choice(non_units[1:] + units[:1])
        check_search(x, t, least_exponent_pieces(lower + upper, t, mod), False)


def test_find_structure_fixed_exponents():
    check_search(two_term(2 ** 20), 2, 20, False)
    check_search(two_term(2), 3, None, False)
    check_search(two_term(0), 2, None, True)


def count_eliminations(monkeypatch) -> dict:
    """Count the Smith forms and field eliminations from here on, by name."""
    calls = {"smith_normal_form": 0, "_row_reduce": 0}
    for name in calls:
        real = getattr(exactalg, name)

        def counting(*args, name=name, real=real):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(exactalg, name, counting)
    return calls


def test_find_structure_factors_each_z_differential_once(monkeypatch):
    x = GradedFreeComplex(ZZ, 0, (2, 3, 1), (Matrix.from_rows(ZZ, [[4, 0, 0], [0, 1, 0]]),
                                             Matrix.from_rows(ZZ, [[0], [0], [2]])))
    calls = count_eliminations(monkeypatch)
    res = find_structure(x, (2, 6))
    assert res.exponents == (2, 2) and res.structure is not None
    assert calls == {"smith_normal_form": 2, "_row_reduce": 0}


def test_find_structure_solves_composite_units_on_the_reduced_system(monkeypatch):
    z8 = Zmod(8)
    x = GradedFreeComplex(z8, 0, (2, 3, 1), (Matrix.from_rows(z8, [[1, 2, 0], [0, 0, 1]]),
                                             Matrix.from_rows(z8, [[6], [1], [0]])))
    calls = count_eliminations(monkeypatch)
    res = find_structure(x, (3, 2))
    assert res.exponents == (1, 1) and res.structure is not None
    assert calls == {"smith_normal_form": 1, "_row_reduce": 0}


@pytest.mark.parametrize("ring", [ZZ, QQ], ids=["Z", "Q"])
def test_single_degree_is_obstructed_without_elimination(monkeypatch, ring):
    # No differential: nothing is factored, and the top degree's n x 0
    # differential, whose Smith form would need an n x n U, is never built.
    calls = count_eliminations(monkeypatch)
    res = find_structure(GradedFreeComplex(ring, 0, (100_000,), ()), (2,))
    assert (res.structure, res.exponents, res.obstructed) == (None, (None,), (True,))
    assert calls == {"smith_normal_form": 0, "_row_reduce": 0}
