"""Command-line behavior: exit codes, report schemas, round trips, demos."""

import contextlib
import dataclasses
import importlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from homcert import cli, serialize
from homcert.certificates import (
    disk_transport_certificate, fold_defect_certificate, fold_row_certificates,
    peel_chain_certificate, sum_certificate,
)
from homcert.cli import main
from homcert.complexes import ChainMap, GradedFreeComplex, identity_map, zero_map
from homcert.constructions import disk, module_tensor, suspend
from homcert.exactalg import Matrix, QQ, ZZ, Zmod
from homcert.koszul import koszul
from homcert.randgen import contractible_structure, disk_pile, split_row
from homcert.serialize import dumps, from_json, loads, to_json
from homcert.structures import HomotopyStructure, find_structure


@pytest.fixture
def run(capsys):
    def inner(*argv):
        code = main(list(argv))
        out = capsys.readouterr()
        report = json.loads(out.out) if out.out else None
        err = json.loads(out.err) if out.err else None
        return code, report, err
    return inner


def write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(dumps(obj) if not isinstance(obj, dict)
                 else json.dumps(obj, indent=2, sort_keys=True) + "\n")
    return str(p)


def two_term(entry):
    return GradedFreeComplex(ZZ, 0, (1, 1), (Matrix.from_rows(ZZ, [[entry]]),))


def test_validate_complex_ok(run, tmp_path):
    path = write(tmp_path, "x.json", two_term(4))
    code, report, err = run("validate", path)
    assert code == 0 and err is None
    assert report["kind"] == "complex" and report["valid"]


def test_validate_names_the_degree_of_a_non_chain_map(run, tmp_path):
    x = disk(ZZ, 1, 1, (2,)).complex
    not_chain = ChainMap(x, x, 0, (Matrix.from_rows(ZZ, [[1]]), Matrix.from_rows(ZZ, [[0]])))
    code, report, err = run("validate", write(tmp_path, "f.json", not_chain))
    assert code == 1
    assert report["kind"] == "chain_map" and not report["valid"]
    assert report["problems"] == ["not a chain map in degree 1"]
    assert err["error"]["code"] == "invalid"
    assert err["error"]["message"] == "not a chain map in degree 1"


def test_validate_rejects_broken_structure(run, tmp_path):
    doc = to_json(disk(ZZ, 1, 2, (2,)))
    doc["ops"][0][0]["entries"][0][0] = "5"
    path = write(tmp_path, "m.json", doc)
    code, report, err = run("validate", path)
    assert code == 1
    assert not report["valid"] and report["problems"]
    assert err["error"]["code"] == "invalid"


def test_validate_rejects_negative_degrees_first(run, tmp_path):
    """``validate`` owns the rule that a document has no module in a
    negative degree, and reports it before the laws."""
    one = Matrix.from_rows(ZZ, [[1]])
    x = GradedFreeComplex(ZZ, -1, (1, 1, 1), (one, one))
    m = to_json(disk(ZZ, 1, 0, (2,)))
    m["scalars"] = ["5"]
    for obj, problems in [
            (x, ["nonzero module in negative degree", "d_0 * d_1 != 0"]),
            (m, ["nonzero module in negative degree",
                 "generator 0: d e + e d != 5 * id in degree -1",
                 "generator 0: d e + e d != 5 * id in degree 0"])]:
        code, report, err = run("validate", write(tmp_path, "doc.json", obj))
        assert code == 1 and not report["valid"] and report["min_degree"] == -1
        assert report["problems"] == problems
        assert err == {"error": {"code": "invalid", "message": problems[0], "where": None}}


@pytest.mark.parametrize("argv", [("gamma",), ("gamma", "--general"), ("peel",),
                                  ("dual",), ("suspend",)])
def test_axiom_violating_structure_is_invalid(run, tmp_path, argv):
    doc = to_json(disk(ZZ, 1, 2, (3,)))
    doc["scalars"] = ["5"]
    path = write(tmp_path, "m.json", doc)
    code, report, err = run(argv[0], path, *argv[1:])
    assert code == 1 and report is None
    assert err["error"]["code"] == "invalid"
    assert "not a structure" in err["error"]["message"]


def test_validate_malformed_is_exit_2(run, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{]")
    code, report, err = run("validate", str(path))
    assert code == 2 and err["error"]["code"] == "malformed"


def test_missing_file_is_exit_2(run):
    code, report, err = run("validate", "no/such/file.json")
    assert code == 2 and err["error"]["code"] == "malformed"


def test_too_large_modulus_is_exit_2(run, tmp_path):
    # 2^89 - 1 is past the bound of the deterministic primality test.
    doc = {"ring": {"Zmod": 2 ** 89 - 1}, "min_degree": 0, "ranks": [1], "diffs": []}
    code, report, err = run("validate", write(tmp_path, "x.json", doc))
    assert code == 2 and report is None
    assert err["error"]["code"] == "malformed" and err["error"]["where"].endswith("ring.Zmod")


@pytest.mark.parametrize("doc, where", [
    # Fraction would write out the 4,000,001 digits of 10^4000000
    (lambda: {"ring": "Q", "min_degree": 0, "ranks": [1, 1],
              "diffs": [{"entries": [["1e4000000"]]}]},
     "complex.diffs[0].entries[0][0]"),
    # validate would build a zero matrix with one row per unit of rank
    (lambda: {"ring": "Z", "min_degree": 0, "ranks": [serialize.RANK_LIMIT + 1], "diffs": []},
     "complex.ranks[0]"),
    # and here multiply the zero blocks below and above the windows into a
    # rank x rank matrix
    (lambda: {"shift": 0, "mats": [{"entries": []}],
              "source": {"ring": "Z", "min_degree": 1, "ranks": [serialize.RANK_LIMIT + 1],
                         "diffs": []},
              "target": {"ring": "Z", "min_degree": 0, "ranks": [serialize.RANK_LIMIT],
                         "diffs": []}},
     "chain_map.source.ranks[0]"),
    # every check loops over the degrees between the windows it compares
    (lambda: {"ring": "Z", "min_degree": -serialize.DEGREE_LIMIT - 1, "ranks": [1],
              "diffs": []},
     "complex.min_degree"),
    (lambda: {"shift": 0, "mats": [{"entries": []}],
              "source": {"ring": "Z", "min_degree": 0, "ranks": [1], "diffs": []},
              "target": {"ring": "Z", "min_degree": serialize.DEGREE_LIMIT + 1, "ranks": [1],
                         "diffs": []}},
     "chain_map.target.min_degree"),
    (lambda: _far_quotient_certificate(serialize.DEGREE_LIMIT + 1),
     "certificate.registry[1][1].complex.min_degree"),
])
def test_small_document_asking_for_huge_work_is_exit_2(run, tmp_path, doc, where):
    code, report, err = run("validate", write(tmp_path, "x.json", doc()))
    assert code == 2 and report is None
    assert err["error"]["code"] == "malformed" and err["error"]["where"] == where


def _long_in_step(key):
    """The zero sum certificate with its first step's ``key`` 3,000 characters long."""
    def make():
        doc = _far_quotient_certificate(0)
        doc["steps"][0][key] = key[0] * 3000
        return doc
    return make


@pytest.mark.parametrize("doc, where", [
    (lambda: {"ring": "Z", "min_degree": 0, "ranks": [1, 1],
              "diffs": [{"entries": [["x" * 5000]]}]},
     "complex.diffs[0].entries[0][0]"),
    (_long_in_step("sub"), "certificate.steps[0].sub"),
    (_long_in_step("kind"), "certificate.steps[0].kind"),
])
def test_long_document_values_are_not_echoed_whole(capsys, tmp_path, doc, where):
    code = main(["validate", write(tmp_path, "x.json", doc())])
    out = capsys.readouterr()
    assert code == 2 and out.out == ""
    assert out.err.count("\n") == 1 and len(out.err.encode()) < 300
    err = json.loads(out.err)["error"]
    assert err["code"] == "malformed" and err["where"] == where
    assert "characters)" in err["message"]


def test_writer_names_long_registry_names_briefly():
    zero = disk(ZZ, 0, 1, ())
    cert = sum_certificate(zero, zero, 3)
    stray = dataclasses.replace(cert.steps[0], sub="s" * 3000)
    with pytest.raises(ValueError) as raised:
        to_json(dataclasses.replace(cert, steps=(stray,) + cert.steps[1:]))
    assert len(str(raised.value)) < 300 and "3000 characters" in str(raised.value)


def _long_name_certificate(site):
    """A sum certificate that the kernel rejects at ``site`` on a
    3,000-character name."""
    zero = disk(ZZ, 0, 1, ())
    doc = to_json(sum_certificate(zero, zero, 3))
    name, entry = "n" * 3000, doc["registry"][0][1]
    if site == "duplicate":
        doc["registry"] += [[name, entry], [name, entry]]
    elif site == "registry":
        bad = {"complex": {"ring": "Z", "min_degree": 0, "ranks": [1, 1, 1],
                           "diffs": [{"entries": [[1]]}, {"entries": [[1]]}]},  # d·d = 1
               "scalars": [], "ops": []}
        doc["registry"].insert(0, [name, bad])
    elif site == "unregistered":
        doc["claim"][0][0] = name
    else:  # a registered claim term that leaves the slot window
        far = {"complex": {"ring": "Z", "min_degree": 5, "ranks": [1], "diffs": []},
               "scalars": [], "ops": []}
        doc["registry"].append([name, far])
        doc["claim"].append([name, 1])
    return doc


@pytest.mark.parametrize("site", ["duplicate", "registry", "unregistered", "claim_term"])
def test_kernel_names_long_names_briefly(capsys, tmp_path, site):
    code = main(["certify", write(tmp_path, "c.json", _long_name_certificate(site))])
    out = capsys.readouterr()
    assert code == 1
    assert out.err.count("\n") == 1 and len(out.err.encode()) < 300
    assert len(out.out.encode()) < 1024
    report = json.loads(out.out)
    assert not report["accepted"] and "(3000 characters)" in report["reason"]
    assert json.loads(out.err)["error"]["message"] == report["reason"]


def _far_quotient_certificate(degree):
    """[0 + 0] = [0] + [0] on zero structures, the quotient moved to ``degree``;
    every map is a list of 0 x 0 matrices, so the document stays well formed."""
    zero = disk(ZZ, 0, 1, ())
    doc = to_json(sum_certificate(zero, zero, 3))
    doc["registry"][1][1]["complex"]["min_degree"] = degree
    return doc


def test_suspend_past_the_degree_limit_is_refused(run, tmp_path):
    """homcert writes no document that it would refuse to read."""
    path = write(tmp_path, "m.json", disk(ZZ, 1, 1, (2,)))
    code, report, err = run("suspend", path, "--by", str(serialize.DEGREE_LIMIT + 1))
    assert code == 1 and report is None
    assert err["error"]["code"] == "invalid" and "bound" in err["error"]["message"]
    code, up, _ = run("suspend", path, "--by", str(serialize.DEGREE_LIMIT))
    assert code == 0 and up["complex"]["min_degree"] == serialize.DEGREE_LIMIT
    code, _, _ = run("validate", write(tmp_path, "up.json", up))
    assert code == 0


def _zero_cone_input(tmp_path, half):
    """The zero map Z^half (degree 1) -> Z^half (degree 2), no generators: its
    cone is Z^(2 half) in degree 2."""
    x = GradedFreeComplex(ZZ, 1, (half,), ())
    y = GradedFreeComplex(ZZ, 2, (half,), ())
    return write(tmp_path, f"cone{half}.json", {
        "map": to_json(zero_map(x, y)),
        "source": to_json(HomotopyStructure(x, (), ())),
        "target": to_json(HomotopyStructure(y, (), ()))})


def test_cone_past_the_rank_limit_is_refused(run, tmp_path):
    """A cone whose rank the reader would refuse is not written."""
    code, report, err = run("cone", _zero_cone_input(tmp_path, serialize.RANK_LIMIT // 2 + 1))
    assert code == 1 and report is None
    assert err["error"]["code"] == "invalid" and "bound" in err["error"]["message"]
    code, report, err = run("cone", _zero_cone_input(tmp_path, serialize.RANK_LIMIT // 2))
    assert code == 0 and err is None
    assert report["complex"]["ranks"] == [serialize.RANK_LIMIT]
    code, _, _ = run("validate", write(tmp_path, "cone_out.json", report))
    assert code == 0


def _digits_doc():
    # A JSON integer longer than Python's int-string limit (4300 digits).
    doc = dict(to_json(two_term(4)), min_degree="DIGITS")
    return json.dumps(doc).replace('"DIGITS"', "9" * 4301)


@pytest.mark.parametrize("command", ["validate", "certify"])
@pytest.mark.parametrize("make, message", [
    (lambda: b"\xff\xfe{}", "not UTF-8"),
    (lambda: b"[" * 200000, "not JSON: nested too deeply"),
    (lambda: _digits_doc().encode(), "not JSON"),
])
def test_unreadable_text_is_exit_2(run, tmp_path, command, make, message):
    path = tmp_path / "in.json"
    path.write_bytes(make())
    code, report, err = run(command, str(path))
    assert code == 2 and report is None
    assert err["error"]["code"] == "malformed" and err["error"]["where"] == str(path)
    assert err["error"]["message"].startswith(message)


@pytest.mark.parametrize("setting", [None, "0"])
def test_gamma_past_the_writer_digit_limit(tmp_path, setting):
    """A valid disk whose 2,201-digit scalar folds to 4,401 digits: under the
    default limit the writer refuses it by name, and without a limit it is
    written."""
    path = write(tmp_path, "big.json", disk(ZZ, 1, 2, (10 ** 2200,)))
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    if setting is not None:
        env["PYTHONINTMAXSTRDIGITS"] = setting
    done = subprocess.run([sys.executable, "-m", "homcert", "gamma", path], env=env,
                          capture_output=True, text=True, timeout=120)
    if setting is None:
        assert done.returncode == 1 and done.stdout == ""
        (line,) = done.stderr.splitlines()
        err = json.loads(line)["error"]
        limit = sys.int_info.default_max_str_digits
        assert err["code"] == "invalid" and f"more than {limit} digits" in err["message"]
    else:
        assert done.returncode == 0 and done.stderr == ""
        # the folded operators hold JSON integers past the limit of this process
        report = json.loads(done.stdout, parse_int=str)
        assert report["scalars"] == ["1" + "0" * 4400]


@pytest.mark.parametrize("setting", [None, "0"])
@pytest.mark.parametrize("ring", ["Z", "Q"])
@pytest.mark.parametrize("form", [int, str])
def test_reader_names_the_digit_limit(tmp_path, setting, ring, form):
    """A 5,000-digit entry, as a JSON integer or a decimal string: under the
    default limit the reader refuses it by name, and without a limit it is
    read."""
    path = tmp_path / "big.json"
    doc = {"ring": ring, "min_degree": 0, "ranks": [1, 1], "diffs": [{"entries": [["BIG"]]}]}
    big = "9" * 5000
    path.write_text(json.dumps(doc).replace('"BIG"', big if form is int else f'"{big}"'))
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    if setting is not None:
        env["PYTHONINTMAXSTRDIGITS"] = setting
    done = subprocess.run([sys.executable, "-m", "homcert", "validate", str(path)], env=env,
                          capture_output=True, text=True, timeout=120)
    if setting is None:
        assert done.returncode == 2 and done.stdout == ""
        (line,) = done.stderr.splitlines()
        err = json.loads(line)["error"]
        limit = sys.int_info.default_max_str_digits
        assert err["code"] == "malformed"
        assert (f"cannot read an integer of more than {limit} digits, the interpreter's limit "
                "(PYTHONINTMAXSTRDIGITS=0 lifts it)") in err["message"]
        assert err["where"] == (str(path) if form is int else "complex.diffs[0].entries[0][0]")
    else:
        assert done.returncode == 0 and done.stderr == ""
        assert json.loads(done.stdout)["valid"] is True


def test_usage_error_is_exit_2(run):
    code, report, err = run("nonsense")
    assert code == 2 and err["error"]["code"] == "usage"


def test_homotopy_find_reports_exponent(run, tmp_path):
    path = write(tmp_path, "x.json", two_term(4))
    code, report, err = run("homotopy", "find", path, "--gens", "2")
    assert code == 0
    assert report["exponents"] == [2] and report["found"]
    assert from_json(report).scalars == (4,)


def test_homotopy_find_deterministic_bytes(tmp_path, capsys):
    r8 = Zmod(8)
    x = GradedFreeComplex(r8, 0, (2, 3, 1), (
        Matrix.from_rows(r8, [[1, 1, 3], [4, 0, 0]]), Matrix.from_rows(r8, [[2], [3], [1]])))
    path = write(tmp_path, "x.json", x)
    outs = []
    for _ in range(2):
        assert main(["homotopy", "find", path, "--gens", "2"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["exponents"] == [2]


def test_homotopy_find_inconclusive(run, tmp_path):
    path = write(tmp_path, "x.json", two_term(4))
    code, report, err = run("homotopy", "find", path, "--gens", "3")
    assert code == 1
    assert report["exponents"] == [None] and not report["found"]


def test_homotopy_find_obstructed(run, tmp_path):
    x = GradedFreeComplex(ZZ, 0, (1, 1), (Matrix.from_rows(ZZ, [[0]]),))
    path = write(tmp_path, "x.json", x)
    code, report, err = run("homotopy", "find", path, "--gens", "2")
    assert code == 1
    assert report["obstructed"] == [True]
    assert err["error"]["message"] == "free homology obstructs every exponent of generator 2"


def test_homotopy_find_names_the_failing_generator(run, tmp_path):
    r8 = Zmod(8)
    path = write(tmp_path, "x.json", GradedFreeComplex(r8, 0, (1, 1), (Matrix.from_rows(r8, [[2]]),)))
    code, report, err = run("homotopy", "find", path, "--gens", "4,3")
    assert code == 1
    assert report["exponents"] == [1, None] and report["obstructed"] == [False, False]
    assert not report["found"] and report["structure"] is None
    assert err["error"]["message"] == "no power of generator 3 is null-homotopic"


def test_homotopy_find_rejects_non_complex(run, tmp_path):
    x = GradedFreeComplex(ZZ, 0, (1, 1, 1), (Matrix.from_rows(ZZ, [[2]]),
                                            Matrix.from_rows(ZZ, [[3]])))
    path = write(tmp_path, "x.json", x)
    code, report, err = run("homotopy", "find", path, "--gens", "2")
    assert code == 1 and report is None
    assert err["error"]["message"] == "not a complex: d_1 * d_2 != 0"


def test_gamma_direct_output_revalidates(run, tmp_path):
    m = disk_pile(random.Random(1), ZZ, 3, (2,))
    path = write(tmp_path, "m.json", m)
    code, report, err = run("gamma", path)
    assert code == 0 and report["route"] == "general"
    out = from_json(report)
    assert out.scalars == (4,)
    back = write(tmp_path, "fold.json", report)
    assert run("validate", back)[0] == 0
    assert len(report["witness_rows"]) == 2
    for i, row in enumerate(report["witness_rows"]):
        p = write(tmp_path, f"row{i}.json", row)
        assert run("certify", p)[0] == 0


def test_failed_self_check_is_internal_error(run, tmp_path, monkeypatch):
    fold_mod = importlib.import_module("homcert.fold")  # the package exports a function `fold`
    monkeypatch.setattr(fold_mod, "check_structure", lambda m: ["forced failure"])
    path = write(tmp_path, "m.json", disk_pile(random.Random(1), ZZ, 3, (2,)))
    code, report, err = run("gamma", path)
    assert code == 1 and report is None
    assert err["error"]["code"] == "internal"
    assert "forced failure" in err["error"]["message"]


def test_failed_peel_self_check_is_internal_error(run, tmp_path, monkeypatch):
    constructions = importlib.import_module("homcert.constructions")
    monkeypatch.setattr(constructions, "check_structure", lambda m: ["forced failure"])
    path = write(tmp_path, "m.json", contractible_structure(random.Random(5), ZZ, 3, (6,)))
    code, report, err = run("peel", path)
    assert code == 1 and report is None
    assert err["error"]["code"] == "internal"
    assert "forced failure" in err["error"]["message"]


def test_gamma_general_witnesses_certify(run, tmp_path):
    m = disk_pile(random.Random(2), ZZ, 3, (3,))
    path = write(tmp_path, "m.json", m)
    code, report, err = run("gamma", path, "--general")
    assert code == 0 and report["route"] == "general"
    assert len(report["witness_rows"]) == 2
    for i, row in enumerate(report["witness_rows"]):
        p = write(tmp_path, f"row{i}.json", row)
        assert run("certify", p)[0] == 0


def test_cone_and_glue_outputs_revalidate(run, tmp_path):
    rng = random.Random(3)
    m = disk_pile(rng, ZZ, 3, (2,))
    cone_in = write(tmp_path, "cone.json", {
        "map": to_json(identity_map(m.complex)),
        "source": to_json(m), "target": to_json(m)})
    for flags in ((), ("--same",)):
        code, report, err = run("cone", cone_in, *flags)
        assert code == 0
        assert run("validate", write(tmp_path, "cone_out.json", report))[0] == 0
    sub = disk_pile(rng, ZZ, 2, (2,))
    quot = disk_pile(rng, ZZ, 3, (3,))
    incl, proj = split_row(rng, ZZ, sub, quot)
    glue_in = write(tmp_path, "glue.json", {
        "include": to_json(incl), "project": to_json(proj),
        "sub": to_json(sub), "quotient": to_json(quot)})
    code, report, err = run("glue", glue_in)
    assert code == 0
    assert from_json(report).scalars == (6,)
    assert run("validate", write(tmp_path, "glue_out.json", report))[0] == 0


def test_cone_mismatched_endpoints_invalid(run, tmp_path):
    m = disk_pile(random.Random(4), ZZ, 3, (2,))
    other = disk(ZZ, 1, 1, (2,))
    # a map of disk(Z, 1, 1) to itself that is not a chain map in degree 1
    not_chain = ChainMap(other.complex, other.complex, 0,
                         (Matrix.from_rows(ZZ, [[1]]), Matrix.from_rows(ZZ, [[0]])))
    broken = to_json(other)
    broken["ops"][0][0]["entries"][0][0] = "5"
    cases = [
        ({"map": to_json(identity_map(m.complex)),
          "source": to_json(other), "target": to_json(m)}, "endpoints"),
        ({"map": to_json(not_chain), "source": to_json(other), "target": to_json(other)},
         "not a chain map in degree 1"),
        ({"map": to_json(identity_map(other.complex)), "source": broken,
          "target": to_json(other)}, "source is not a structure"),
    ]
    for doc, why in cases:
        cone_in = write(tmp_path, "cone.json", doc)
        for flags in ((), ("--same",)):
            code, report, err = run("cone", cone_in, *flags)
            assert code == 1 and report is None
            assert err["error"]["code"] == "invalid" and why in err["error"]["message"]


def test_glue_rejects_middle_complex_that_is_not_a_complex(run, tmp_path):
    one = Matrix.from_rows(ZZ, [[1]])
    middle = GradedFreeComplex(ZZ, 0, (1, 1, 1), (one, one))  # d_1 d_2 = 1
    zero = GradedFreeComplex(ZZ, 0, (0,), ())
    quot = HomotopyStructure(middle, (0,), ((Matrix.zeros(ZZ, 1, 1),) * 2,))
    glue_in = write(tmp_path, "glue.json", {
        "include": to_json(ChainMap(zero, middle, 0, (Matrix.zeros(ZZ, 1, 0),))),
        "project": to_json(identity_map(middle)),
        "sub": to_json(HomotopyStructure(zero, (0,), ((),))),
        "quotient": to_json(quot)})
    code, report, err = run("glue", glue_in)
    assert code == 1 and report is None
    assert err["error"]["code"] == "invalid" and "d_1 * d_2 != 0" in err["error"]["message"]


def test_glue_checks_its_inputs(run, tmp_path):
    ring = Zmod(4)
    good = disk(ring, 1, 2, (2,))
    # the disk with its operator zeroed: d e + e d = 0, not 2
    off = HomotopyStructure(good.complex, (2,), ((Matrix.zeros(ring, 1, 1),),))
    incl, proj = split_row(random.Random(0), ring, good, good)
    # the inclusion with its degree 2 matrix zeroed
    broken = ChainMap(incl.source, incl.target, 0, (incl.mats[0], incl.mats[1].scale(0)))
    cases = [
        (dict(sub=off), "sub is not a structure: generator 0: d e + e d != 2 * id in degree 1"),
        (dict(quotient=off), "quotient is not a structure: generator 0"),
        (dict(include=broken), "include is not a chain map in degree 2"),
        (dict(project=broken.transpose()), "project is not a chain map in degree"),
    ]
    for edit, why in cases:
        doc = {"include": incl, "project": proj, "sub": good, "quotient": good}
        doc.update(edit)
        glue_in = write(tmp_path, "glue.json", {key: to_json(v) for key, v in doc.items()})
        code, report, err = run("glue", glue_in)
        assert code == 1 and report is None
        assert err["error"]["code"] == "invalid" and err["error"]["message"].startswith(why)


@pytest.mark.parametrize("target", ["missing/w.json", "."])
def test_demo_unwritable_out_is_exit_2(run, tmp_path, target):
    out = str(tmp_path / target)
    code, report, err = run("demo", "wij", "--seed", "1", "--out", out)
    assert code == 2 and report is None
    assert err["error"]["code"] == "malformed" and err["error"]["where"] == out
    assert err["error"]["message"].startswith(f"cannot write {out}: ")


def test_peel_emits_accepted_certificate(run, tmp_path):
    m = contractible_structure(random.Random(5), ZZ, 3, (6,))
    path = write(tmp_path, "m.json", m)
    code, report, err = run("peel", path)
    assert code == 0
    assert report["disks"] == len(m.complex.ranks) - 1
    cert_path = write(tmp_path, "peel.json", report)
    assert run("certify", cert_path)[0] == 0


def test_peel_over_a_prime_power_certifies(run, tmp_path):
    m = contractible_structure(random.Random(5), Zmod(9), 3, (3, 2))
    code, report, err = run("peel", write(tmp_path, "m.json", m))
    assert code == 0 and err is None
    assert report["disks"] == len(m.complex.ranks) - 1
    code, verdict, _ = run("certify", write(tmp_path, "peel.json", report))
    assert code == 0 and verdict["accepted"] is True


def test_peel_over_q_is_one_error_line(run, tmp_path, capsys):
    m = contractible_structure(random.Random(5), QQ, 3, (2,))
    path = write(tmp_path, "m.json", m)
    assert main(["peel", path]) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err.count("\n") == 1
    err = json.loads(out.err)["error"]
    assert err["code"] == "invalid" and "Z or Z/p^e" in err["message"]


def test_peel_non_contractible_invalid(run, tmp_path):
    m = find_structure(two_term(4), (2,)).structure
    path = write(tmp_path, "m.json", m)
    code, report, err = run("peel", path)
    assert code == 1 and err["error"]["code"] == "invalid"


def test_dual_is_an_involution(run, tmp_path, capsys):
    m = disk_pile(random.Random(6), ZZ, 3, (2,))
    path = write(tmp_path, "m.json", m)
    code, report, err = run("dual", path)
    assert code == 0
    again = write(tmp_path, "d.json", report)
    code, report2, err = run("dual", again)
    assert code == 0
    assert from_json(report2) == m


def test_suspend_round_trip(run, tmp_path):
    m = disk_pile(random.Random(7), ZZ, 2, (3,))
    path = write(tmp_path, "m.json", m)
    code, up, _ = run("suspend", path, "--by", "2")
    assert code == 0
    up_path = write(tmp_path, "up.json", up)
    code, down, _ = run("suspend", up_path, "--by", "-2")
    assert code == 0
    assert from_json(down) == m


def test_certify_reject_reports_step(run, tmp_path):
    from homcert.certificates import sum_certificate
    m = disk(ZZ, 1, 2, (2,))
    doc = to_json(sum_certificate(m, m, 3))
    doc["steps"][0]["include"][0]["entries"][0][0] = "9"
    path = write(tmp_path, "c.json", doc)
    code, report, err = run("certify", path)
    assert code == 1
    assert not report["accepted"]
    assert report["failing_step"] == 0
    assert err["error"] == {"code": "reject", "message": report["reason"],
                            "where": "certificate.steps[0]"}


def off_axiom_right_sum_doc():
    """A sum of two disks whose ``right`` end carries the operator 3, not 2."""
    m = disk(ZZ, 1, 2, (2,))
    cert = sum_certificate(m, m, 2)
    bad = HomotopyStructure(m.complex, (2,), ((Matrix.scalar(ZZ, 1, 3),),))
    registry = tuple((name, bad if name == "right" else s) for name, s in cert.registry)
    return to_json(dataclasses.replace(cert, registry=registry))


@pytest.mark.parametrize("command", ["certify", "validate"])
def test_off_axiom_row_end_names_its_row(capsys, tmp_path, command):
    # a row end is checked through its row, so the rejection names step 0
    code = main([command, write(tmp_path, "c.json", off_axiom_right_sum_doc())])
    out = capsys.readouterr()
    assert code == 1 and out.err.count("\n") == 1
    assert json.loads(out.err)["error"] == {
        "code": "reject" if command == "certify" else "invalid",
        "message": "row projection is not equivariant for generator 0 in degree 1",
        "where": "certificate.steps[0]"}


def test_certify_requires_certificate(run, tmp_path):
    path = write(tmp_path, "m.json", disk(ZZ, 1, 2, (2,)))
    code, report, err = run("certify", path)
    assert code == 2 and err["error"]["code"] == "malformed"


@pytest.mark.parametrize("name", ["wij", "colim1", "ex3"])
def test_demo_round_trip(run, tmp_path, name):
    out = str(tmp_path / f"{name}.cert.json")
    code, report, err = run("demo", name, "--seed", "7", "--out", out)
    assert code == 0 and report["accepted"]
    assert all(c["accepted"] for c in report["checked"])
    text = open(out).read()
    assert text.endswith("\n") and text.count("\n") == 1
    assert run("certify", out)[0] == 0


def test_demo_deterministic_bytes(tmp_path, capsys):
    out = str(tmp_path / "w.json")
    main(["demo", "wij", "--seed", "11", "--out", out])
    first = capsys.readouterr().out
    first_file = open(out).read()
    main(["demo", "wij", "--seed", "11", "--out", out])
    assert capsys.readouterr().out == first
    assert open(out).read() == first_file


@pytest.mark.skipif(json.encoder.c_make_encoder is None, reason="no C JSON encoder")
def test_writers_stay_on_the_c_encoder(run, tmp_path, monkeypatch):
    # CPython's pure-Python encoder (taken for any ``indent``) is several
    # times slower; make it fail so that a return to it fails here.
    def slow_path(*args, **kwargs):
        raise AssertionError("pure-Python JSON encoder used")
    monkeypatch.setattr(json.encoder, "_make_iterencode", slow_path)
    cert = fold_defect_certificate(suspend(module_tensor(2, koszul(ZZ, (2, 3))), 1), 4)
    assert loads(dumps(cert)) == cert
    path = write(tmp_path, "m.json", disk_pile(random.Random(2), ZZ, 3, (3,)))
    code, report, err = run("gamma", path, "--general")
    assert code == 0 and report["route"] == "general"


def test_parser_is_built_once_per_process(tmp_path, capsys, monkeypatch):
    built = []
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1))
    m = write(tmp_path, "m.json", disk(ZZ, 1, 2, (2,)))
    c = write(tmp_path, "c.json", sum_certificate(disk(ZZ, 1, 2, (2,)), disk(ZZ, 1, 2, (2,)), 2))
    argvs = (["validate", m], ["dual", m], ["certify", c],
             ["homotopy", "find", m, "--gens", "2"], ["gamma", "--nonsense", m])
    seen = []
    for _ in range(2):
        for argv in argvs:
            seen.append((main(argv), capsys.readouterr()))
    assert built == []
    assert seen[:len(argvs)] == seen[len(argvs):]
    assert [code for code, _ in seen[:len(argvs)]] == [0, 0, 0, 0, 2]


def _dispatch_grid(tmp_path) -> list:
    """Command lines over every subcommand: valid input, help at each level,
    missing, extra and unknown arguments, misspelt commands and ``--``."""
    d = disk(ZZ, 1, 2, (2,))
    m = write(tmp_path, "m.json", d)
    x = write(tmp_path, "x.json", two_term(4))
    c = write(tmp_path, "c.json", sum_certificate(d, d, 2))
    cone_in = write(tmp_path, "cone.json", {
        "map": to_json(identity_map(d.complex)), "source": to_json(d), "target": to_json(d)})
    rng = random.Random(3)
    sub, quot = disk_pile(rng, ZZ, 2, (2,)), disk_pile(rng, ZZ, 3, (3,))
    incl, proj = split_row(rng, ZZ, sub, quot)
    glue_in = write(tmp_path, "glue.json", {
        "include": to_json(incl), "project": to_json(proj),
        "sub": to_json(sub), "quotient": to_json(quot)})
    out = str(tmp_path / "demo.json")
    return [
        ["validate", m], ["validate", x], ["validate", c],
        ["homotopy", "find", x, "--gens", "2"], ["homotopy", "find", x, "--gens=2,3"],
        ["homotopy", "find", x, "--gens", "1"], ["homotopy", "find", "--gens", "2", m],
        ["gamma", m], ["gamma", m, "--general"], ["cone", cone_in], ["cone", cone_in, "--same"],
        ["glue", glue_in], ["peel", m], ["dual", m], ["suspend", m, "--by", "2"],
        ["certify", c], ["certify", m], ["demo", "ex3", "--seed", "1", "--out", out],
        [], ["-h"], ["--help"], ["homotopy"], ["homotopy", "-h"], ["homotopy", "find", "-h"],
        ["validate", "--help"], ["demo", "-h"], ["suspend", "--he"],
        ["validate"], ["homotopy", "find", x], ["homotopy", "find", "--gens", "2"],
        ["validate", m, "extra"], ["dual", m, m], ["suspend", m, "--by", "two"],
        ["demo", "nope"], ["--gen", "2"], ["homotopy", "find", x, "--gen", "2"],
        ["homotopy", "find", x, "--gens"], ["homotopy", "find", x, "--gens", "2", "--gens"],
        ["homotopy", "fin", x], ["VALIDATE", m], ["nonsense"], ["validate", str(tmp_path)],
        ["--", "validate", m], ["validate", "--", m], ["homotopy", "--", "find", x],
        ["homotopy", "find", "--", x, "--gens", "2"], ["-h", "validate", m],
    ]


def _outcome(argv):
    """Exit code, stdout and stderr of ``homcert ARGV`` in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_leaf_dispatch_matches_the_full_parser(tmp_path, monkeypatch):
    """Every command line gives the bytes it gives when the full parser
    parses it and hands the result to its command."""
    grid = _dispatch_grid(tmp_path)
    got = [_outcome(argv) for argv in grid]
    monkeypatch.setattr(cli, "_parse", cli._PARSER.parse_args)
    for argv, outcome in zip(grid, got):
        assert outcome == _outcome(argv), argv
    assert {code for code, _, _ in got} == {0, 1, 2}


def test_leaf_commands_skip_the_full_parser(tmp_path, monkeypatch):
    calls = []
    full = cli._PARSER.parse_args
    monkeypatch.setattr(cli._PARSER, "parse_args", lambda argv: calls.append(argv) or full(argv))
    m = write(tmp_path, "m.json", disk(ZZ, 1, 2, (2,)))
    for argv in (["validate", m], ["homotopy", "find", m, "--gens", "2"], ["dual", m, "extra"],
                 ["suspend", "-h"], ["homotopy", "find"]):
        _outcome(argv)
    assert calls == []
    assert _outcome([])[0] == 2 and calls == [[]]


@pytest.mark.parametrize("build, kind, field", [
    (lambda: sum_certificate(disk(ZZ, 1, 2, (2,)), disk(ZZ, 1, 2, (2,)), 2), "SES", "section"),
    (lambda: sum_certificate(disk(ZZ, 1, 2, (2,)), disk(ZZ, 1, 2, (2,)), 2), "SES", "retraction"),
    (lambda: disk_transport_certificate(ZZ, 1, 3, (2,)), "ISO", "inverse"),
])
def test_pre_witness_certificate_is_malformed(run, tmp_path, build, kind, field):
    doc = to_json(build())
    (step,) = doc["steps"]
    assert step["kind"] == kind
    del step[field]
    code, report, err = run("certify", write(tmp_path, "c.json", doc))
    assert code == 2 and report is None
    assert err["error"] == {"code": "malformed", "message": f"missing field {field!r}",
                            "where": "certificate.steps[0]"}


@pytest.mark.parametrize("edit, where", [
    (lambda step, cert: step.update(sub="nowhere"), "certificate.steps[0].sub"),
    # left is a rank 1 disk and right a rank 2 disk: include cannot start at
    # right, so its first matrix has too few columns
    (lambda step, cert: step.update(sub="right"), "certificate.steps[0].include[0].entries[0]"),
    # the earlier layout, where each step map embedded its complexes
    (lambda step, cert: step.update(include=to_json(cert.steps[0].include)),
     "certificate.steps[0].include"),
    # step kinds the kernel does not have; a suspension is a cone row
    (lambda step, cert: step.update(kind="RESTRICT"), "certificate.steps[0].kind"),
    (lambda step, cert: step.update(kind="WIDEN"), "certificate.steps[0].kind"),
    (lambda step, cert: step.update(kind="SUSPEND", base="nowhere", shifted="left"),
     "certificate.steps[0].kind"),
])
def test_step_maps_off_the_registry_are_malformed(run, tmp_path, edit, where):
    cert = sum_certificate(disk(ZZ, 1, 2, (2,)), disk(ZZ, 2, 2, (2,)), 2)
    doc = to_json(cert)
    edit(doc["steps"][0], cert)
    code, report, err = run("certify", write(tmp_path, "c.json", doc))
    assert code == 2 and report is None
    assert err["error"]["code"] == "malformed" and err["error"]["where"] == where


# -- JSON mutants of valid certificates --------------------------------------

FUZZ_BASES = [
    to_json(sum_certificate(disk(ZZ, 1, 2, (2,)), disk(ZZ, 2, 2, (2,)), 2)),
    to_json(disk_transport_certificate(Zmod(4), 1, 3, (3,))),
    to_json(fold_row_certificates(disk(ZZ, 1, 2, (3,)), 2)[0]),
    to_json(peel_chain_certificate(disk(ZZ, 1, 2, (2,)), 2)),
    # carries a cone row of the identity and its contraction
    to_json(fold_defect_certificate(disk(ZZ, 1, 3, (2,)), 3)),
]
NAME_KEYS = ("sub", "total", "quotient", "source", "target", "name")
WITNESS_KEYS = ("include", "project", "section", "retraction", "map", "inverse", "contraction")
OTHER_TYPES = (None, 7, "7", [], {}, True, 1.5)


def _paths(doc, prefix=()):
    yield prefix
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _mutate(doc, move, pick):
    """Apply one mutation in place; ``pick(n)`` chooses one of n candidates."""
    paths = list(_paths(doc))
    if move == "delete_key":
        cands = [p for p in paths if p and isinstance(p[-1], str)]
        path = cands[pick(len(cands))]
        del _at(doc, path[:-1])[path[-1]]
    elif move == "retype":
        path = paths[1:][pick(len(paths) - 1)]
        old = _at(doc, path)
        new = [v for v in OTHER_TYPES if type(v) is not type(old)]
        _at(doc, path[:-1])[path[-1]] = new[pick(len(new))]
    elif move == "matrix_rows":
        cands = [p for p in paths if isinstance(_at(doc, p), dict) and "entries" in _at(doc, p)]
        rows = _at(doc, cands[pick(len(cands))])["entries"]
        if rows and pick(2):
            rows.pop(pick(len(rows)))
        else:
            rows.append(list(rows[0]) if rows else ["1"])
    elif move == "rank":
        cands = [p for p in paths if p and p[-1] == "ranks"]
        ranks = _at(doc, cands[pick(len(cands))])
        i = pick(len(ranks))
        new = [0, ranks[i] + 1, max(ranks[i] - 1, 0), serialize.RANK_LIMIT + 1]
        ranks[i] = new[pick(len(new))]
    elif move == "rename":
        cands = [(i, k) for i, step in enumerate(doc["steps"]) for k in NAME_KEYS if k in step]
        i, k = cands[pick(len(cands))]
        names = [name for name, _ in doc["registry"]] + ["nowhere"]
        doc["steps"][i][k] = names[pick(len(names))]
    else:  # truncate a witness list
        cands = [(i, k) for i, step in enumerate(doc["steps"]) for k in WITNESS_KEYS if k in step]
        i, k = cands[pick(len(cands))]
        del doc["steps"][i][k][pick(len(doc["steps"][i][k])):]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=150, deadline=None)
@given(base=st.integers(0, len(FUZZ_BASES) - 1),
       move=st.sampled_from(("delete_key", "retype", "matrix_rows", "rank", "rename",
                             "truncate")),
       data=st.data())
def test_certify_survives_json_mutants(fuzz_dir, base, move, data):
    doc = json.loads(json.dumps(FUZZ_BASES[base]))
    _mutate(doc, move, lambda n: data.draw(st.integers(0, n - 1)))
    path = fuzz_dir / "mutant.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["certify", str(path)])
    assert code in (0, 1, 2)
    if code:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and set(json.loads(lines[0])) == {"error"}
    else:
        assert err.getvalue() == ""
