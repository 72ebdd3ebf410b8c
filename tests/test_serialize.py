"""JSON round trips, byte determinism, layout, and malformed-input diagnostics."""

import json
import random
import sys
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from homcert import kernel, serialize
from homcert.cli import main
from homcert.certificates import (
    disk_transport_certificate, fold_defect_certificate, fold_identity_certificate,
    fold_row_certificates, peel_chain_certificate, structure_independence_certificate,
    sum_certificate,
)
from homcert.complexes import GradedFreeComplex, find_contraction, identity_map
from homcert.constructions import disk, mapping_cone, suspend
from homcert.exactalg import Matrix, QQ, ZZ, Zmod
from homcert.kernel import (
    Certificate, ClassExpr, Contractible, ExactRow, Isomorphism, Slot, check_certificate,
)
from homcert.randgen import (
    contractible_structure, disk_pile, lift_pair, random_structure, split_row,
)
from homcert.serialize import (
    FormatError, complex_from_json, detect_kind, dumps, from_json, loads,
    matrix_from_json, matrix_to_json, ring_from_json, ring_to_json, to_json,
)
from homcert.structures import restrict, structure_from_contraction


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
        assert list(doc) == ["entries"]
        assert matrix_from_json(doc, "m", a.ring, a.rows, a.cols) == a
    doc = matrix_to_json(mats[1])
    assert doc["entries"][0] == ["3/4", "-5"]
    # Z, Z/m and integral Q write JSON integers, as plain lists
    assert matrix_to_json(mats[0]) == {"entries": [[-7, 0], [3, 12]]}
    assert matrix_to_json(mats[2]) == {"entries": [[8], [2]]}
    assert matrix_to_json(Matrix.from_rows(QQ, [[2, -4]])) == {"entries": [[2, -4]]}


@pytest.mark.parametrize("ring", [ZZ, QQ, Zmod(7)], ids=str)
def test_read_identities_share_the_identity_ints(ring):
    for n in (0, 1, 3):
        eye = Matrix.identity(ring, n)
        read = matrix_from_json(matrix_to_json(eye), "m", ring, n, n)
        assert read == eye and read.ints is eye.ints
    # over Z/7, 8 is 1: the residues decide
    for raw in ({"entries": [["8", "0"], ["0", "1"]]}, {"entries": [[8, 0], [0, -6]]}):
        assert (matrix_from_json(raw, "m", Zmod(7), 2, 2).ints is Matrix.identity(ZZ, 2).ints)
    for rows in ([["1", "0"], ["0", "2"]], [["0", "1"], ["1", "0"]]):
        read = matrix_from_json({"entries": rows}, "m", ring, 2, 2)
        assert read.ints is not Matrix.identity(ring, 2).ints


def test_matrix_accepts_int_entries():
    a = matrix_from_json({"entries": [[4, "-2"]]}, "m", ZZ, 1, 2)
    assert a == Matrix.from_rows(ZZ, [[4, -2]])
    # Q rows of decimal integers and rows with fractions or decimals read
    # as the values Fraction gives; Z/m entries are reduced.
    raw = [["+3", "-0", " 2 ", "10"], ["3/4", "1.5", 7, "-10/4"]]
    q = matrix_from_json({"entries": raw}, "m", QQ, 2, 4)
    assert q == Matrix.from_rows(QQ, [[Fraction(x) for x in row] for row in raw])
    assert (q.ints, q.den) == (((12, 0, 8, 40), (3, 6, 28, -10)), 4)
    z = matrix_from_json({"entries": [["-1", 12, "7"]]}, "m", Zmod(5), 1, 3)
    assert z.ints == ((4, 2, 2),)


def test_matrix_shape_errors_carry_breadcrumbs():
    with pytest.raises(FormatError) as e:
        matrix_from_json({"entries": [["1"]]}, "m", ZZ, 2, 1)
    assert "m.entries" in e.value.where
    with pytest.raises(FormatError) as e:
        matrix_from_json({"entries": [["1", "2"]]}, "m", ZZ, 1, 1)
    assert e.value.where == "m.entries[0]"
    with pytest.raises(FormatError) as e:
        matrix_from_json({"entries": [[True]]}, "m", ZZ, 1, 1)
    assert "entries[0][0]" in e.value.where
    with pytest.raises(FormatError):
        matrix_from_json({"entries": [["1/0"]]}, "m", QQ, 1, 1)


@pytest.mark.parametrize("ring, bad, message", [
    ("Z", "x", "not a ring element: 'x'"),
    ("Q", "1/0", "not a ring element: '1/0'"),
    ({"Zmod": 7}, True, "expected a ring element"),
    ("Q", 1.5, "expected a ring element"),
    # Fraction would write out every digit of an exponent form
    ("Q", "-2.5E-4000000", "not a ring element: '-2.5E-4000000'"),
    ("Z", True, "expected a ring element"),
    ("Z", None, "expected a ring element"),
])
def test_bad_entry_in_nested_matrix_is_named(ring, bad, message):
    # the good entries as decimal strings (earlier documents) or JSON integers
    for row in (str, int):
        entries = [list(map(row, (1, 2, 3))), [*map(row, (4, 5)), bad]]
        doc = {"ring": ring, "min_degree": 0, "ranks": [2, 3], "diffs": [{"entries": entries}]}
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
                   "diffs": [{"entries": [["1"], ["0"]]}]})
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


def _rational_certificate():
    """Q steps with non-integral maps: an isomorphism 2·id with inverse
    (1/2)·id, and the contraction (1/3) of Q --3--> Q."""
    x = GradedFreeComplex(QQ, 0, (1, 1), (Matrix.from_rows(QQ, [[3]]),))
    h = find_contraction(x)
    m = structure_from_contraction(x, h, (Fraction(2, 5),))
    one = identity_map(x)
    return Certificate(
        Slot(m.scalars, 1), (("a", m), ("b", m)),
        (Isomorphism("a", "b", one.scale(2), one.scale(Fraction(1, 2))),
         Contractible("a", h)),
        ClassExpr.build([("a", 2), ("b", -1)]))


CERTIFICATE_BUILDERS = [
    lambda: sum_certificate(disk(ZZ, 1, 2, (2,)), disk(ZZ, 2, 2, (2,)), 3),
    lambda: peel_chain_certificate(
        contractible_structure(random.Random(5), ZZ, 3, (4,)), 3),
    lambda: fold_defect_certificate(
        disk_pile(random.Random(6), ZZ, 3, (2,)), 3),
    lambda: fold_identity_certificate(
        suspend(disk(ZZ, 2, 1, (3,)), 1), 3),
    lambda: structure_independence_certificate(*lift_pair(random.Random(7), 2), 3),
    _rational_certificate,
    lambda: sum_certificate(disk(QQ, 1, 2, (Fraction(2, 3),)),
                            disk(QQ, 2, 2, (Fraction(2, 3),)), 3),
    lambda: disk_transport_certificate(QQ, 2, 3, (Fraction(3, 5),)),
    lambda: fold_row_certificates(disk_pile(random.Random(6), Zmod(7), 3, (3,)), 3)[0],
    lambda: fold_row_certificates(disk_pile(random.Random(6), Zmod(7), 3, (3,)), 3)[1],
    lambda: disk_transport_certificate(Zmod(12), 2, 4, (5, 7)),
    lambda: fold_defect_certificate(disk_pile(random.Random(6), Zmod(12), 3, (5,)), 4),
]


@pytest.mark.parametrize("build", CERTIFICATE_BUILDERS)
def test_certificate_round_trip_and_reaccept(build):
    cert = build()
    text = dumps(cert)
    assert _matrix_key_sets(text) == {("entries",)}
    back = loads(text)
    assert back == cert
    assert dumps(back) == text
    assert check_certificate(back).accepted


@pytest.mark.parametrize("build", CERTIFICATE_BUILDERS)
def test_certificate_states_each_complex_once(build):
    cert = build()
    text = dumps(cert)
    assert text.count('"min_degree"') == len(cert.registry)
    # Decoded step maps run between the registry's own complex objects.
    back = loads(text)
    reg = {name: m.complex for name, m in back.registry}
    for step in back.steps:
        if isinstance(step, ExactRow):
            assert step.include.source is reg[step.sub]
            assert step.project.target is reg[step.quotient]


def test_rational_steps_keep_fractions():
    doc = to_json(_rational_certificate())
    assert doc["steps"][0]["inverse"][0]["entries"] == [["1/2"]]
    assert doc["steps"][1]["contraction"][0]["entries"] == [["1/3"]]


def test_writer_rejects_maps_off_the_named_objects():
    m = disk(ZZ, 1, 2, (2,))
    cert = sum_certificate(m, disk(ZZ, 2, 2, (2,)), 3)
    row = cert.steps[0]
    swapped = replace(cert, steps=(replace(row, sub=row.quotient, quotient=row.sub),))
    with pytest.raises(ValueError, match=r"steps\[0\]: include is not a degree 0 map "
                                         r"from 'right' to 'sum'"):
        to_json(swapped)


def test_unknown_step_kind_rejected():
    m = disk(ZZ, 1, 2, (2,))
    doc = to_json(sum_certificate(m, m, 3))
    for kind in ("SNAP", "RESTRICT", "WIDEN", "SUSPEND"):
        doc["steps"][0]["kind"] = kind
        with pytest.raises(FormatError) as e:
            from_json(doc)
        assert kind in str(e.value) and e.value.where == "certificate.steps[0].kind"


def test_every_step_kind_has_a_codec():
    assert set(kernel._RELATIONS) == {cls for cls, _, _ in serialize._MAP_STEPS.values()}


def test_loads_rejects_non_json():
    with pytest.raises(FormatError):
        loads("]")


@pytest.mark.parametrize("text", [
    b"\xff\xfe{}",                           # not UTF-8
    "[" * 200000,                             # deeper than the recursion limit
    '{"min_degree": ' + "9" * 4301 + "}",     # past the int-string digit limit
])
def test_loads_rejects_unreadable_text(text):
    with pytest.raises(FormatError):
        loads(text)


@pytest.fixture
def least_digit_limit():
    """The interpreter's int-string digit limit at its least, 640, for one test."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    yield 640
    sys.set_int_max_str_digits(old)


@pytest.mark.parametrize("ring, big", [
    (ZZ, 10 ** 700), (QQ, 10 ** 700), (QQ, Fraction(10 ** 700, 3)), (QQ, Fraction(3, 10 ** 700)),
])
def test_writer_names_the_digit_limit(least_digit_limit, ring, big):
    """An entry or a scalar past the limit is refused by the writer with the
    limit named: a JSON integer, a Q string and a scalar string alike."""
    named = f"more than {least_digit_limit} digits"
    x = GradedFreeComplex(ring, 0, (1, 1), (Matrix.scalar(ring, 1, big),))
    for obj in (x, disk(ring, 1, 1, (big,))):
        with pytest.raises(ValueError, match=named):
            dumps(obj)
    with pytest.raises(ValueError, match=named):
        serialize.element_to_str(ring, big)
    # one digit inside the limit still writes
    y = GradedFreeComplex(ring, 0, (1, 1), (Matrix.scalar(ring, 1, 10 ** (least_digit_limit - 1)),))
    assert loads(dumps(y)) == y


# -- layout ------------------------------------------------------------

LAYOUT_RINGS = [(ZZ, 2), (QQ, Fraction(2, 3)), (Zmod(7), 3), (Zmod(12), 5)]


def _matrix_key_sets(text):
    """The sorted keys of each matrix object in a written document: every
    object with an ``entries``, ``rows`` or ``cols`` key."""
    found, todo = set(), [json.loads(text)]
    while todo:
        v = todo.pop()
        if isinstance(v, dict):
            if {"entries", "rows", "cols"} & set(v):
                found.add(tuple(sorted(v)))
            todo.extend(v.values())
        elif isinstance(v, list):
            todo.extend(v)
    return found


def _one_of_each_kind(ring, s):
    """A complex, a structure, a chain map and a certificate over ``ring``
    whose entries involve the scalar ``s``."""
    m = disk(ring, 2, 3, (s,))
    return [m.complex, m, identity_map(m.complex).scale(s),
            disk_transport_certificate(ring, 2, 3, (s,))]


@pytest.mark.parametrize("ring, s", LAYOUT_RINGS)
def test_every_document_is_one_line(ring, s, tmp_path, capsys):
    texts = []
    for obj in _one_of_each_kind(ring, s):
        text = dumps(obj)
        assert text.endswith("\n") and text.count("\n") == 1
        assert loads(text) == obj
        assert dumps(loads(text)) == text
        texts.append(text)
    if ring == QQ:  # all but the complex carry non-integral entries
        assert all('2/3"' in t for t in texts[1:])
    # CLI reports: a folded structure with its two witness certificates, and
    # a structured cone with its two maps
    (tmp_path / "m.json").write_text(texts[1])
    (tmp_path / "f.json").write_text(json.dumps(
        {"map": json.loads(texts[2]), "source": json.loads(texts[1]),
         "target": json.loads(texts[1])}))
    for argv in (["gamma", "--general", str(tmp_path / "m.json")],
                 ["cone", str(tmp_path / "f.json")]):
        assert main(argv) == 0
        text = capsys.readouterr().out
        texts.append(text)
        report = json.loads(text)
        parts = report.get("witness_rows", []) + [report.get("include"), report]
        for doc in filter(None, parts):
            back = to_json(from_json(doc))
            assert back == {key: doc[key] for key in back}
    for text in texts:
        assert _matrix_key_sets(text) == {("entries",)}


def _earlier_matrix_to_json(a):
    """A matrix as earlier versions wrote it, stating its ring and shape."""
    return {"ring": ring_to_json(a.ring), "rows": a.rows, "cols": a.cols,
            "entries": matrix_to_json(a)["entries"]}


@pytest.mark.parametrize("ring, s", LAYOUT_RINGS)
def test_earlier_matrix_layout_still_loads(ring, s, monkeypatch):
    objs = _one_of_each_kind(ring, s)
    monkeypatch.setattr(serialize, "matrix_to_json", _earlier_matrix_to_json)
    olds = [dumps(obj) for obj in objs]
    monkeypatch.undo()
    for obj, old in zip(objs, olds):
        assert _matrix_key_sets(old) == {("cols", "entries", "ring", "rows")}
        assert loads(old) == obj


def _with_string_entries(v):
    """``v`` with every integer matrix entry as a decimal string, the layout
    earlier versions wrote."""
    if isinstance(v, dict):
        return {k: [[str(x) if type(x) is int else x for x in row] for row in w]
                if k == "entries" else _with_string_entries(w) for k, w in v.items()}
    if isinstance(v, list):
        return list(map(_with_string_entries, v))
    return v


@pytest.mark.parametrize("ring, s", [
    (ZZ, 2), (QQ, 2), (QQ, Fraction(2, 3)), (Zmod(7), 3), (Zmod(12), 5),
    (Zmod(2 ** 31 - 1), 3),
], ids=["Z", "Q-integral", "Q", "Z7", "Z12", "Zp31"])
def test_decimal_string_entries_still_load(ring, s):
    wide = GradedFreeComplex(ring, 0, (1, 2), (Matrix.from_rows(ring, [[2 ** 200 + 1, -3]]),))
    for obj in _one_of_each_kind(ring, s) + [wide]:
        text = dumps(obj)
        new = json.loads(text)
        old = _with_string_entries(new)
        assert old != new  # some entries were integers
        assert loads(json.dumps(old)) == obj
        assert dumps(from_json(old)) == text


@pytest.mark.parametrize("ring, s", LAYOUT_RINGS)
def test_indented_documents_still_load(ring, s):
    for obj in _one_of_each_kind(ring, s):
        old = json.dumps(to_json(obj), indent=2, sort_keys=True) + "\n"
        assert old.count("\n") > 1
        assert loads(old) == obj


def _random_documents(ring, s, seed):
    """A complex, a structure and a chain map over ``ring``; over Q with a
    non-integral ``s`` each of them has non-integral entries."""
    rng = random.Random(seed)
    m = random_structure(rng, ring, rng.randint(2, 3), (s,))
    include, _ = split_row(rng, ring, random_structure(rng, ring, 2, (s,)), m)
    f = include.scale(s)
    return [mapping_cone(f)[0], m, f]


@settings(max_examples=40, deadline=None)
@given(ring_s=st.sampled_from(LAYOUT_RINGS), seed=st.integers(0, 2 ** 32 - 1))
def test_random_documents_round_trip(ring_s, seed):
    ring, s = ring_s
    for obj, twin in zip(_random_documents(ring, s, seed), _random_documents(ring, s, seed)):
        text = dumps(obj)
        assert _matrix_key_sets(text) == {("entries",)}
        assert loads(text) == obj
        assert dumps(loads(text)) == text == dumps(twin)
        if ring == QQ:
            assert '/3"' in text
