"""What gamma and peel print, fed back through certify."""

import json
import random
from fractions import Fraction

import pytest

from homcert.cli import main
from homcert.constructions import suspend
from homcert.exactalg import QQ, ZZ, Zmod
from homcert.randgen import random_structure
from homcert.serialize import dumps


def round_trip_inputs():
    """Structures over Z, Q, Z/7 and Z/12 with tops 1-4 and 1-3 generators;
    those whose top is their generator count again shifted down, so that
    their support starts in a negative degree."""
    rng = random.Random(25)
    pools = {ZZ: (2, 3, -2), QQ: (2, Fraction(1, 2), 3), Zmod(7): (2, 3, 5),
             Zmod(12): (2, 5, 7)}
    out = []
    for ring, pool in pools.items():
        for d in (1, 2, 3):
            for top in (1, 2, 3, 4):
                m = random_structure(rng, ring, top, tuple(rng.sample(pool, d)))
                out.append(m)
                if top == d:
                    out.append(suspend(m, -rng.randint(1, 2)))
    return out


@pytest.mark.parametrize("argv", [("gamma",), ("gamma", "--general"), ("peel",)])
def test_emitted_certificates_certify_or_the_command_refuses(capsys, tmp_path, argv):
    """Every certificate that gamma (with or without --general) or peel
    prints is accepted by certify; otherwise the command exits 1 with one
    JSON error line."""
    refused = emitted = 0
    for k, m in enumerate(round_trip_inputs()):
        path = tmp_path / f"m{k}.json"
        path.write_text(dumps(m))
        code = main([argv[0], str(path), *argv[1:]])
        out = capsys.readouterr()
        if code:
            assert code == 1 and out.out == "" and out.err.count("\n") == 1, (k, out)
            assert json.loads(out.err)["error"]["code"] == "invalid", (k, out.err)
            refused += 1
            continue
        report = json.loads(out.out)
        certs = [report] if argv[0] == "peel" else report.get("witness_rows", [])
        for j, cert in enumerate(certs):
            cert_path = tmp_path / f"c{k}_{j}.json"
            cert_path.write_text(json.dumps(cert))
            code = main(["certify", str(cert_path)])
            assert code == 0, (k, j, capsys.readouterr().err)
            capsys.readouterr()
            emitted += 1
    assert refused and emitted


def test_gamma_ignores_general(capsys, tmp_path):
    """``--general`` is a no-op: every fold takes the comparison-cone route."""
    for k, m in enumerate(round_trip_inputs()):
        path = tmp_path / f"m{k}.json"
        path.write_text(dumps(m))
        runs = []
        for extra in ((), ("--general",)):
            code = main(["gamma", str(path), *extra])
            out = capsys.readouterr()
            runs.append((code, out.out, out.err))
        assert runs[0] == runs[1], k
