"""The fold pipeline against the routes it replaced, and what it builds once.

Each ``*_reference`` below is an earlier construction of the same object,
kept here as the oracle: the padded rescaling that ``fold_once`` used below
the ceiling, the comparison map and the disk-fold isomorphism filled one
entry at a time, and the coefficient row taken from the cone one degree up
and desuspended piece by piece.  The current code must agree with each of
them exactly, in every ring.
"""

import importlib
import random
from fractions import Fraction

import pytest

from homcert.certificates import (
    disk_transport_certificate, fold_defect_certificate, fold_identity_certificate,
    structure_independence_certificate,
)
from homcert.complexes import ChainMap, GradedFreeComplex
from homcert.constructions import (
    cone_mixed, desuspend, direct_sum, disk, module_tensor, suspend, tensor_module,
)
from homcert.exactalg import Matrix, QQ, ZZ, Zmod
from homcert.fold import disk_fold_iso, fold, fold_general, fold_once
from homcert.kernel import Row
from homcert.koszul import (
    counit_map, exterior_basis, hodge_star, koszul, koszul_dual, word_matrix,
)
from homcert.randgen import lift_pair, random_structure
from homcert.structures import HomotopyStructure, restrict

fold_module = importlib.import_module("homcert.fold")  # the package exports a function `fold`
koszul_module = importlib.import_module("homcert.koszul")
certificates_module = importlib.import_module("homcert.certificates")

RINGS = {"Z": ZZ, "Q": QQ, "Z7": Zmod(7), "Z12": Zmod(12)}
SCALARS = {"Z": (2, 3, -2, 5), "Q": (2, Fraction(1, 2), -3, Fraction(5, 3)),
           "Z7": (2, 3, 5, 6), "Z12": (2, 3, 5, 7)}


def padded_restrict_reference(m: HomotopyStructure, n: int) -> HomotopyStructure:
    """The input rescaled by its scalars, its window widened to [n - d - 1, n - 1]."""
    x = m.complex
    d = m.ngens
    scaled = restrict(m, m.scalars)
    lo = min(x.min_degree, n - d - 1)
    hi = max(x.top_degree, n - 1)
    ranks = tuple(x.rank(i) for i in range(lo, hi + 1))
    diffs = tuple(x.diff(i) for i in range(lo + 1, hi + 1))
    cx = GradedFreeComplex(x.ring, lo, ranks, diffs)
    ops = tuple(tuple(scaled.op(g, i) for i in range(lo, hi)) for g in range(d))
    return HomotopyStructure(cx, scaled.scalars, ops)


def counit_reference(m: HomotopyStructure, n: int):
    """``counit_map(m, ambient=n)`` with each block filled entry by entry."""
    x = m.complex
    ring = x.ring
    d = m.ngens
    p = x.rank(n)
    target = suspend(module_tensor(p, koszul_dual(ring, m.scalars)), n - d)
    mats = []
    for i in x.degrees():
        k = n - i
        if k < 0 or k > d:
            mats.append(Matrix.zeros(ring, target.complex.rank(i), x.rank(i)))
            continue
        basis = exterior_basis(d, k)
        words = [word_matrix(m, sub, i) for sub in basis]
        sign = -1 if ((n - d) * k) % 2 else 1

        def entry(r, c, words=words, nb=len(basis), sign=sign):
            j, idx = divmod(r, nb)
            v = words[idx].entry(j, c)
            return v if sign == 1 else ring.neg(v)

        mats.append(Matrix.build(ring, p * len(basis), x.rank(i), entry))
    return ChainMap(x, target.complex, 0, tuple(mats)), target


def disk_iso_reference(ring, rank: int, n: int, scalars: tuple) -> ChainMap:
    """The iso of ``disk_fold_iso`` with each block filled entry by entry."""
    d = len(scalars)
    data = fold_general(disk(ring, rank, n, scalars), n)
    target = suspend(restrict(tensor_module(koszul(ring, scalars), rank), scalars), n - d - 1)
    star = hodge_star(ring, scalars)
    gx = data.structure.complex
    mats = []
    for i in gx.degrees():
        k = i - gx.min_degree
        unstar = star.mat(k).transpose()
        nb = len(exterior_basis(d, d - k))
        high = len(exterior_basis(d, k))

        def entry(r, c, unstar=unstar, nb=nb):
            i_idx, j_row = divmod(r, rank)
            j_col, jj = divmod(c, nb)
            return unstar.entry(i_idx, jj) if j_row == j_col else ring.zero()

        mats.append(Matrix.build(ring, high * rank, rank * nb, entry))
    return ChainMap(gx, target.complex, 0, tuple(mats))


def rewrapped_coefficient_row(m: HomotopyStructure, n: int) -> Row:
    """The coefficient row from the cone one degree up, desuspended and re-wrapped."""
    f, coeff = counit_map(m, ambient=n)
    cone = cone_mixed(f, m, coeff)
    c = desuspend(cone.total)
    sub, quotient = desuspend(cone.sub), desuspend(cone.quotient)
    return Row(sub, c, quotient, *(
        ChainMap(a.complex, b.complex, 0, arrow.mats)
        for arrow, (a, b) in zip(cone.maps, ((sub, c), (c, quotient), (quotient, c), (c, sub)))))


def zero_top(m: HomotopyStructure, n: int) -> HomotopyStructure:
    """``m`` with its window widened up to ``n`` by rank 0 degrees."""
    ring = m.complex.ring
    return direct_sum(m, disk(ring, 0, n, m.scalars)).structure


def cases(rname: str, tops=range(1, 5), gens=range(1, 5)):
    """(structure, ceiling) pairs: each top and generator count, at the
    ceiling, one and two above it, and once with a rank 0 top degree."""
    ring = RINGS[rname]
    rng = random.Random(f"{rname}-fold")
    out = []
    for d in gens:
        for top in tops:
            scalars = tuple(ring.normalize(s) for s in rng.sample(SCALARS[rname], d))
            m = random_structure(rng, ring, top, scalars)
            out += [(m, n) for n in (top, top + 1, top + 2) if n >= d]
            if top + 1 >= d:
                out.append((zero_top(m, top + 1), top + 1))
    return out


@pytest.mark.parametrize("rname", RINGS)
def test_fold_below_the_ceiling_is_the_padded_rescaling(rname):
    pairs = cases(rname)
    below = [(m, n) for m, n in pairs if m.complex.top_degree < n]
    assert 0 < len(below) < len(pairs)
    for m, n in below:
        assert fold(m, n) == padded_restrict_reference(m, n)
    for m, n in pairs:
        assert fold(m, n) == fold_general(m, n).structure
    once = [(m, n) for m, n in below if m.ngens == 1 and n >= 2]
    assert once
    for m, n in once:
        assert fold_once(m, n) == padded_restrict_reference(m, n)


def refusal(build, m, n) -> str:
    with pytest.raises(ValueError) as err:
        build(m, n)
    return str(err.value)


def test_fold_refuses_what_fold_general_refuses():
    rng = random.Random(6)
    low, high = (random_structure(rng, ZZ, top, (2, 3, 5)) for top in (1, 2))
    no_gens = HomotopyStructure(low.complex, (), ())
    # d = 0 and n < d, each below the ceiling and at it; then above it
    for m, n in ((no_gens, 2), (no_gens, 1), (low, 2), (high, 2), (high, 1)):
        assert refusal(fold, m, n) == refusal(fold_general, m, n)


@pytest.mark.parametrize("rname", RINGS)
def test_counit_map_matches_the_entrywise_blocks(rname):
    for m, n in cases(rname):
        assert counit_map(m, ambient=n) == counit_reference(m, n)


@pytest.mark.parametrize("rname", RINGS)
def test_coefficient_row_matches_the_rewrapped_cone(rname):
    for m, n in cases(rname, tops=range(1, 4)):
        assert fold_general(m, n).coefficient_row == rewrapped_coefficient_row(m, n)


@pytest.mark.parametrize("rname", RINGS)
@pytest.mark.parametrize("d", range(1, 5))
def test_disk_fold_iso_matches_the_entrywise_blocks(rname, d):
    ring = RINGS[rname]
    scalars = tuple(ring.normalize(s) for s in SCALARS[rname][:d])
    for rank in (0, 1, 2):
        for n in (d, d + 1, d + 2):
            _, _, iso = disk_fold_iso(ring, rank, n, scalars)
            assert iso == disk_iso_reference(ring, rank, n, scalars)


def count_calls(monkeypatch, targets):
    """Replace each (owner, name) by a wrapper that counts under ``name``; a
    method called on the class, like ``Matrix.build``, gets no instance."""
    calls = {}
    for owner, name in targets:
        calls.setdefault(name, 0)
        real = getattr(owner, name)

        def counted(*args, real=real, name=name, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return calls


def test_fold_defect_builds_the_coefficient_block_once(monkeypatch):
    calls = count_calls(monkeypatch, [
        (module, name)
        for module in (koszul_module, fold_module, certificates_module)
        for name in ("koszul_dual",) if hasattr(module, name)])
    rng = random.Random(3)
    for ring, scalars, top in ((ZZ, (2,), 3), (QQ, (2, Fraction(1, 2)), 4),
                               (Zmod(12), (5, 7), 3)):
        m = random_structure(rng, ring, top, scalars)
        calls.update(dict.fromkeys(calls, 0))
        fold_defect_certificate(m, top)
        assert calls == {"koszul_dual": 1}


@pytest.mark.parametrize("rname", RINGS)
def test_fold_general_builds_the_wedge_model_once(monkeypatch, rname):
    """One wedge model per fold, suspended at most once on its way into the
    cone (the comparison is taken of the desuspended input), and no
    Kronecker product when the top module has rank 1."""
    ring = RINGS[rname]
    calls = count_calls(monkeypatch, [(Matrix, "kron")])
    models, wedge, suspended = [], [], []

    def from_wedge(real, built):
        """``real``, recording each result built from a wedge model."""
        def wrapped(*args, **kwargs):
            out = real(*args, **kwargs)
            if any(a is w for a in args for w in wedge):
                built.append(out)
                wedge.append(out)
            return out
        return wrapped

    def koszul_dual_recorded(*args, real=koszul_module.koszul_dual):
        models.append(real(*args))
        wedge.append(models[-1])
        return models[-1]

    monkeypatch.setattr(koszul_module, "koszul_dual", koszul_dual_recorded)
    monkeypatch.setattr(koszul_module, "module_tensor",
                        from_wedge(koszul_module.module_tensor, []))
    constructions_module = importlib.import_module("homcert.constructions")
    for owner in (constructions_module, koszul_module, fold_module):
        monkeypatch.setattr(owner, "suspend", from_wedge(owner.suspend, suspended))
    for d in range(1, 5):
        scalars = tuple(ring.normalize(s) for s in SCALARS[rname][:d])
        for shift in (0, 1):
            # top degree n = d + shift, so n - d - 1 takes either parity
            m = suspend(koszul(ring, scalars), shift)
            for rank in (1, 2):
                x = module_tensor(rank, m)
                for built in (models, wedge, suspended):
                    built.clear()
                calls["kron"] = 0
                fold_general(x, d + shift)
                assert len(models) == 1 and len(suspended) <= 1
                assert calls["kron"] == 0 or rank > 1


def test_comparison_and_disk_iso_fill_no_entry_one_at_a_time(monkeypatch):
    rng = random.Random(4)
    inputs = [random_structure(rng, ring, 3, scalars)
              for ring, scalars in ((ZZ, (2, 3)), (QQ, (Fraction(1, 2),)), (Zmod(7), (3, 5)))]
    calls = count_calls(monkeypatch, [(Matrix, "build"), (Matrix, "entry")])
    for m in inputs:
        counit_map(m, ambient=4)
    disk_fold_iso(ZZ, 2, 3, (2, 3))
    disk_fold_iso(QQ, 1, 4, (Fraction(1, 2), 3, 5))
    assert calls == {"build": 0, "entry": 0}


def test_disk_transport_builds_each_exterior_model_once(monkeypatch):
    calls = count_calls(monkeypatch, [
        (module, name) for module in (koszul_module, fold_module)
        for name in ("koszul", "koszul_dual") if hasattr(module, name)])
    disk_transport_certificate(ZZ, 2, 4, (2, 3))
    assert calls == {"koszul": 1, "koszul_dual": 1}


def test_only_folds_that_reach_the_ceiling_build_the_comparison_cone(monkeypatch):
    calls = count_calls(monkeypatch, [(fold_module, "fold_general"),
                                      (certificates_module, "fold_general")])
    m1, m2 = lift_pair(random.Random(10), 2)
    # At n = top(X) = 2 the shared quotient, both cones and the top disk
    # reach the ceiling n + 1; above it every fold is a rescaling.
    for n, general in ((2, 4), (3, 0), (4, 0)):
        calls["fold_general"] = 0
        structure_independence_certificate(m1, m2, n)
        assert calls == {"fold_general": general}
    calls["fold_general"] = 0
    fold_identity_certificate(m1, 3)
    assert calls == {"fold_general": 0}
