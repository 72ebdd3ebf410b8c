"""Command-line behavior: exit codes, report schemas, round trips, demos."""

import importlib
import json
import random

import pytest

from homcert.cli import main
from homcert.complexes import GradedFreeComplex, identity_map
from homcert.constructions import disk
from homcert.exactalg import Matrix, ZZ
from homcert.randgen import contractible_structure, disk_pile, split_row
from homcert.serialize import dumps, from_json, to_json
from homcert.structures import find_structure


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


def test_validate_rejects_broken_structure(run, tmp_path):
    doc = to_json(disk(ZZ, 1, 2, (2,)))
    doc["ops"][0][0]["entries"][0][0] = "5"
    path = write(tmp_path, "m.json", doc)
    code, report, err = run("validate", path)
    assert code == 1
    assert not report["valid"] and report["problems"]
    assert err["error"]["code"] == "invalid"


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


def test_usage_error_is_exit_2(run):
    code, report, err = run("nonsense")
    assert code == 2 and err["error"]["code"] == "usage"


def test_homotopy_find_reports_exponent(run, tmp_path):
    path = write(tmp_path, "x.json", two_term(4))
    code, report, err = run("homotopy", "find", path, "--gens", "2")
    assert code == 0
    assert report["exponents"] == [2] and report["found"]
    assert from_json(report).scalars == (4,)


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
    assert "homology" in err["error"]["message"]


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
    assert code == 0 and report["route"] == "direct"
    out = from_json(report)
    assert out.scalars == (4,)
    back = write(tmp_path, "fold.json", report)
    assert run("validate", back)[0] == 0


def test_failed_self_check_is_internal_error(run, tmp_path, monkeypatch):
    fold_mod = importlib.import_module("homcert.fold")  # the package exports a function `fold`
    monkeypatch.setattr(fold_mod, "check_structure", lambda m: ["forced failure"])
    path = write(tmp_path, "m.json", disk_pile(random.Random(1), ZZ, 3, (2,)))
    code, report, err = run("gamma", path)
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
    cone_in = write(tmp_path, "cone.json", {
        "map": to_json(identity_map(m.complex)),
        "source": to_json(other), "target": to_json(m)})
    code, report, err = run("cone", cone_in)
    assert code == 1 and err["error"]["code"] == "invalid"


def test_peel_emits_accepted_certificate(run, tmp_path):
    m = contractible_structure(random.Random(5), ZZ, 3, (6,))
    path = write(tmp_path, "m.json", m)
    code, report, err = run("peel", path)
    assert code == 0
    assert report["disks"] == len(m.complex.ranks) - 1
    cert_path = write(tmp_path, "peel.json", report)
    assert run("certify", cert_path)[0] == 0


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
    doc["steps"][0]["include"]["mats"][0]["entries"][0][0] = "9"
    path = write(tmp_path, "c.json", doc)
    code, report, err = run("certify", path)
    assert code == 1
    assert not report["accepted"]
    assert report["failing_step"] == 0
    assert err["error"]["code"] == "reject"


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
    assert run("certify", out)[0] == 0


def test_demo_deterministic_bytes(tmp_path, capsys):
    out = str(tmp_path / "w.json")
    main(["demo", "wij", "--seed", "11", "--out", out])
    first = capsys.readouterr().out
    first_file = open(out).read()
    main(["demo", "wij", "--seed", "11", "--out", out])
    assert capsys.readouterr().out == first
    assert open(out).read() == first_file
