"""JSON round trips, byte determinism, and malformed-input diagnostics."""

import random
from fractions import Fraction

import pytest

from homcert.certificates import (
    Certificate, ClassExpr, Isomorphism, Rescale, Slot, SuspensionPair,
    Widen, check_certificate, fold_defect_certificate,
    fold_identity_certificate, peel_chain_certificate,
    structure_independence_certificate, sum_certificate,
)
from homcert.complexes import GradedFreeComplex, identity_map
from homcert.constructions import disk, suspend
from homcert.exactalg import Matrix, QQ, ZZ, Zmod
from homcert.randgen import contractible_structure, disk_pile, lift_pair
from homcert.serialize import (
    FormatError, complex_from_json, detect_kind, dumps, from_json, loads,
    matrix_from_json, matrix_to_json, ring_from_json, ring_to_json, to_json,
)
from homcert.structures import restrict


def test_ring_tags():
    assert ring_to_json(ZZ) == "Z"
    assert ring_to_json(QQ) == "Q"
    assert ring_to_json(Zmod(12)) == {"Zmod": 12}
    assert ring_from_json("Z") == ZZ
    assert ring_from_json({"Zmod": 7}) == Zmod(7)
    with pytest.raises(FormatError):
        ring_from_json("z")
    with pytest.raises(FormatError):
        ring_from_json({"Zmod": 1})


def test_matrix_round_trip_all_rings():
    mats = [
        Matrix.from_rows(ZZ, [[-7, 0], [3, 12]]),
        Matrix.from_rows(QQ, [[Fraction(3, 4), Fraction(-5)]]),
        Matrix.from_rows(Zmod(9), [[8], [2]]),
        Matrix.zeros(ZZ, 0, 3),
        Matrix.zeros(QQ, 2, 0),
    ]
    for a in mats:
        doc = matrix_to_json(a)
        assert matrix_from_json(doc) == a
    doc = matrix_to_json(mats[1])
    assert doc["entries"][0] == ["3/4", "-5"]


def test_matrix_accepts_int_entries():
    a = matrix_from_json({"ring": "Z", "rows": 1, "cols": 2,
                          "entries": [[4, "-2"]]})
    assert a == Matrix.from_rows(ZZ, [[4, -2]])
    # Q rows of decimal integers and rows with fractions or decimals read
    # as the values Fraction gives; Z/m entries are reduced.
    raw = [["+3", "-0", " 2 ", "10"], ["3/4", "1.5", 7, "-10/4"]]
    q = matrix_from_json({"ring": "Q", "rows": 2, "cols": 4, "entries": raw})
    assert q == Matrix.from_rows(QQ, [[Fraction(x) for x in row] for row in raw])
    assert (q.ints, q.den) == (((12, 0, 8, 40), (3, 6, 28, -10)), 4)
    z = matrix_from_json({"ring": {"Zmod": 5}, "rows": 1, "cols": 3, "entries": [["-1", 12, "7"]]})
    assert z.ints == ((4, 2, 2),)


def test_matrix_shape_errors_carry_breadcrumbs():
    with pytest.raises(FormatError) as e:
        matrix_from_json({"ring": "Z", "rows": 2, "cols": 1, "entries": [["1"]]},
                         "m")
    assert "m.entries" in e.value.where
    with pytest.raises(FormatError) as e:
        matrix_from_json({"ring": "Z", "rows": 1, "cols": 1, "entries": [[True]]})
    assert "entries[0][0]" in e.value.where
    with pytest.raises(FormatError):
        matrix_from_json({"ring": "Q", "rows": 1, "cols": 1, "entries": [["1/0"]]})


@pytest.mark.parametrize("ring, bad, message", [
    ("Z", "x", "not a ring element: 'x'"),
    ("Q", "1/0", "not a ring element: '1/0'"),
    ({"Zmod": 7}, True, "expected a ring element"),
    ("Q", 1.5, "expected a ring element"),
])
def test_bad_entry_in_nested_matrix_is_named(ring, bad, message):
    entries = [["1", "2", "3"], ["4", "5", bad]]
    doc = {"ring": ring, "min_degree": 0, "ranks": [2, 3],
           "diffs": [{"ring": ring, "rows": 2, "cols": 3, "entries": entries}]}
    with pytest.raises(FormatError) as e:
        complex_from_json(doc)
    assert e.value.where == "complex.diffs[0].entries[1][2]"
    assert str(e.value) == message


def test_modulus_beyond_primality_bound_is_format_error():
    with pytest.raises(FormatError) as e:
        ring_from_json({"Zmod": 2 ** 89 - 1})
    assert e.value.where == "ring.Zmod"


def test_complex_round_trip_and_determinism():
    x = GradedFreeComplex(ZZ, 1, (1, 2, 1),
                          (Matrix.from_rows(ZZ, [[2, 0]]),
                           Matrix.from_rows(ZZ, [[0], [3]])))
    text = dumps(x)
    assert loads(text) == x
    assert dumps(loads(text)) == text


def test_complex_rejects_bad_shapes():
    with pytest.raises(FormatError):
        from_json({"ring": "Z", "min_degree": 0, "ranks": [1, 1],
                   "diffs": [{"ring": "Z", "rows": 2, "cols": 1,
                              "entries": [["1"], ["0"]]}]})
    with pytest.raises(FormatError):
        from_json({"ring": "Z", "min_degree": 0, "ranks": [1, -1], "diffs": []})


def test_chain_map_round_trip():
    x = disk(ZZ, 2, 3, (2,)).complex
    f = identity_map(x)
    assert loads(dumps(f)) == f


def test_structure_round_trip_modular():
    m = restrict(disk(Zmod(10), 2, 2, (3,)), (7,))
    assert loads(dumps(m)) == m


def test_detect_kind():
    m = disk(ZZ, 1, 1, (2,))
    assert detect_kind(to_json(m)) == "structure"
    assert detect_kind(to_json(m.complex)) == "complex"
    assert detect_kind(to_json(identity_map(m.complex))) == "chain_map"
    cert = sum_certificate(m, m, 2)
    assert detect_kind(to_json(cert)) == "certificate"
    with pytest.raises(FormatError):
        detect_kind({"nope": 1})


@pytest.mark.parametrize("build", [
    lambda: sum_certificate(disk(ZZ, 1, 2, (2,)), disk(ZZ, 2, 2, (2,)), 3),
    lambda: peel_chain_certificate(
        contractible_structure(random.Random(5), ZZ, 3, (4,)), 3),
    lambda: fold_defect_certificate(
        disk_pile(random.Random(6), ZZ, 3, (2,)), 3),
    lambda: fold_identity_certificate(
        suspend(disk(ZZ, 2, 1, (3,)), 1), 3),
    lambda: structure_independence_certificate(*lift_pair(random.Random(7), 2), 3),
])
def test_certificate_round_trip_and_reaccept(build):
    cert = build()
    text = dumps(cert)
    back = loads(text)
    assert back == cert
    assert dumps(back) == text
    assert check_certificate(back).accepted


def test_rescale_and_widen_steps_round_trip():
    m = disk(ZZ, 1, 2, (2,))
    m4 = restrict(m, (2,))
    cert = Certificate(
        Slot((2,), 2),
        (("a", m), ("b", m), ("a4", m4), ("b4", m4)),
        (Isomorphism("a", "b", identity_map(m.complex)),
         Widen(4),
         Rescale((2,), (("a", "a4"), ("b", "b4"))),
         SuspensionPair("a4", "s"),
        ),
        ClassExpr.build([("a4", 1), ("b4", -1)]))
    # not a valid certificate (dangling suspension name); only the codec
    # round trip is under test here
    doc = to_json(cert)
    assert [s["kind"] for s in doc["steps"]] == ["ISO", "WIDEN", "RESTRICT", "SUSPEND"]
    assert from_json(doc) == cert


def test_unknown_step_kind_rejected():
    m = disk(ZZ, 1, 2, (2,))
    doc = to_json(sum_certificate(m, m, 3))
    doc["steps"][0]["kind"] = "SNAP"
    with pytest.raises(FormatError) as e:
        from_json(doc)
    assert "SNAP" in str(e.value)


def test_loads_rejects_non_json():
    with pytest.raises(FormatError):
        loads("]")
