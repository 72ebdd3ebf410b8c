"""Batch front end: validate documents, run constructions, check certificates.

Exit codes: 0 valid/accepted, 1 invalid/rejected or a failed internal
self-check, 2 malformed input or bad usage.  The report is one line of JSON
on stdout with sorted keys and a trailing newline, so identical inputs (and
seed) give byte-identical output; on any nonzero exit a one-line
``{"error": ...}`` object goes to stderr.

Reports that carry an artifact keep the artifact's own schema at the top
level (extra keys like ``command`` ride along), so a report written to a
file can be fed straight back into ``validate`` or ``certify``.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

from .certificates import (
    disk_transport_certificate, fold_defect_certificate, fold_row_certificates,
    peel_chain_certificate, structure_independence_certificate,
)
from .complexes import ChainMap, GradedFreeComplex
from .constructions import cone_mixed, cone_same, dual, glue_extension, suspend
from .exactalg import ZZ
from .kernel import brief, check_certificate, check_structure, validate_complex
from .randgen import lift_pair, random_structure
from .serialize import (
    FormatError, certificate_from_json, certificate_to_json,
    chain_map_from_json, chain_map_to_json, complex_from_json, detect_kind,
    dumps, element_from_json, element_to_str, from_json, parse_json,
    structure_from_json, structure_to_json,
)
from .structures import HomotopyStructure, find_structure


class Invalid(Exception):
    """Well-formed input that fails a semantic requirement (exit 1)."""


def _emit(doc: dict):
    sys.stdout.write(dumps(doc))


def _emit_error(code: str, message: str, where: str = None):
    err = {"error": {"code": code, "message": message, "where": where}}
    sys.stderr.write(json.dumps(err, sort_keys=True) + "\n")


def _load_doc(path: str):
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError as e:
        raise FormatError(f"cannot read {path}: {e.strerror or e}", path) from None
    return parse_json(data, path)


def _checked(m: HomotopyStructure, what: str = "") -> HomotopyStructure:
    problems = check_structure(m)
    if problems:
        raise Invalid(f"{what}not a structure: " + problems[0])
    return m


def _chain(f: ChainMap, what: str) -> ChainMap:
    i = f.chain_defect()
    if i is not None:
        raise Invalid(f"{what} is not a chain map in degree {i}")
    return f


def _load_structure(path: str) -> HomotopyStructure:
    doc = _load_doc(path)
    if detect_kind(doc) != "structure":
        raise FormatError("expected a structure document", path)
    return _checked(structure_from_json(doc))


def _field(doc: dict, key: str, decode, path: str):
    if key not in doc:
        raise FormatError(f"missing field {key!r}", path)
    return decode(doc[key], key)


def _failing_step(res) -> str | None:
    """Where a rejected certificate failed: its step, or None for the
    registry and the claim."""
    return None if res.step is None else f"certificate.steps[{res.step}]"


# -- validate ----------------------------------------------------------


def _negative_degrees(x: GradedFreeComplex) -> list[str]:
    """Documents live in degrees >= 0; the kernel's checks allow lower ones."""
    if any(map(x.rank, range(x.min_degree, 0))):
        return ["nonzero module in negative degree"]
    return []


def cmd_validate(args) -> int:
    doc = _load_doc(args.file)
    kind = detect_kind(doc)
    obj = from_json(doc)
    report = {"command": "validate", "kind": kind}
    where = None
    if kind == "complex":
        problems = _negative_degrees(obj) + validate_complex(obj)
        report["min_degree"] = obj.min_degree
        report["ranks"] = list(obj.ranks)
    elif kind == "structure":
        problems = _negative_degrees(obj.complex) + check_structure(obj)
        report["min_degree"] = obj.complex.min_degree
        report["ranks"] = list(obj.complex.ranks)
        report["scalars"] = [element_to_str(obj.complex.ring, s) for s in obj.scalars]
    elif kind == "chain_map":
        i = obj.chain_defect()
        problems = [] if i is None else [f"not a chain map in degree {i}"]
        report["shift"] = obj.shift
    else:
        res = check_certificate(obj)
        problems = [] if res.accepted else [res.reason]
        report["steps"] = len(obj.steps)
        where = _failing_step(res)
    report["valid"] = not problems
    report["problems"] = problems
    _emit(report)
    if problems:
        _emit_error("invalid", problems[0], where)
        return 1
    return 0


# -- homotopy find -----------------------------------------------------


def cmd_homotopy_find(args) -> int:
    doc = _load_doc(args.file)
    kind = detect_kind(doc)
    if kind == "structure":
        x = structure_from_json(doc).complex
    elif kind == "complex":
        x = complex_from_json(doc)
    else:
        raise FormatError("expected a complex or structure document", args.file)
    gens = tuple(element_from_json(x.ring, tok.strip(), f"--gens[{i}]")
                 for i, tok in enumerate(args.gens.split(",")))
    res = find_structure(x, gens)
    report = {
        "command": "homotopy-find",
        "generators": [element_to_str(x.ring, t) for t in gens],
        "exponents": list(res.exponents),
        "obstructed": list(res.obstructed),
        "found": res.structure is not None,
    }
    if res.structure is not None:
        report.update(structure_to_json(res.structure))
        _emit(report)
        return 0
    report["structure"] = None
    _emit(report)
    g = res.exponents.index(None)
    t = report["generators"][g]
    _emit_error("invalid", f"free homology obstructs every exponent of generator {t}"
                if res.obstructed[g] else f"no power of generator {t} is null-homotopic")
    return 1


# -- constructions -----------------------------------------------------


def cmd_gamma(args) -> int:
    m = _load_structure(args.file)
    n = m.complex.top_degree
    rows = fold_row_certificates(m, n)
    witness_rows = [certificate_to_json(c) for c in rows]
    report = {"command": "gamma", "ceiling": n, "route": "general",
              "witness_rows": witness_rows}
    # the fold as the second row's registry already encodes it
    report.update(dict(witness_rows[1]["registry"])["fold"])
    _emit(report)
    return 0


def cmd_cone(args) -> int:
    doc = _load_doc(args.file)
    if not isinstance(doc, dict):
        raise FormatError("expected an object", args.file)
    f = _field(doc, "map", chain_map_from_json, args.file)
    mx = _checked(_field(doc, "source", structure_from_json, args.file), "source is ")
    my = _checked(_field(doc, "target", structure_from_json, args.file), "target is ")
    if f.source != mx.complex or f.target != my.complex:
        raise Invalid("map endpoints do not match the given structures")
    _chain(f, "map")
    data = cone_same(f, mx, my) if args.same else cone_mixed(f, mx, my)
    report = {
        "command": "cone",
        "mode": "same" if args.same else "mixed",
        "include": chain_map_to_json(data.include),
        "project": chain_map_to_json(data.project),
        "sub": structure_to_json(data.sub),
        "quotient": structure_to_json(data.quotient),
    }
    report.update(structure_to_json(data.total))
    _emit(report)
    return 0


def cmd_glue(args) -> int:
    doc = _load_doc(args.file)
    if not isinstance(doc, dict):
        raise FormatError("expected an object", args.file)
    incl = _chain(_field(doc, "include", chain_map_from_json, args.file), "include")
    proj = _chain(_field(doc, "project", chain_map_from_json, args.file), "project")
    m_sub = _checked(_field(doc, "sub", structure_from_json, args.file), "sub is ")
    m_quot = _checked(_field(doc, "quotient", structure_from_json, args.file), "quotient is ")
    glued = glue_extension(incl, proj, m_sub, m_quot)
    report = {"command": "glue"}
    report.update(structure_to_json(glued))
    _emit(report)
    return 0


def cmd_peel(args) -> int:
    m = _load_structure(args.file)
    cert = peel_chain_certificate(m, m.complex.top_degree)
    res = check_certificate(cert)
    if not res.accepted:
        raise Invalid(f"peel certificate rejected: {res.reason}")
    report = {
        "command": "peel",
        "disks": sum(1 for name, _ in cert.registry if name.startswith("disk_")),
    }
    report.update(certificate_to_json(cert))
    _emit(report)
    return 0


def cmd_dual(args) -> int:
    m = _load_structure(args.file)
    report = {"command": "dual"}
    report.update(structure_to_json(dual(m)))
    _emit(report)
    return 0


def cmd_suspend(args) -> int:
    m = _load_structure(args.file)
    report = {"command": "suspend", "by": args.by}
    report.update(structure_to_json(suspend(m, args.by)))
    _emit(report)
    return 0


# -- certificates ------------------------------------------------------


def cmd_certify(args) -> int:
    doc = _load_doc(args.file)
    if detect_kind(doc) != "certificate":
        raise FormatError("expected a certificate document", args.file)
    cert = certificate_from_json(doc)
    res = check_certificate(cert)
    report = {
        "command": "certify",
        "accepted": res.accepted,
        "reason": res.reason,
        "failing_step": res.step,
        "steps": len(cert.steps),
        "claim": [[brief(name, str), coeff] for name, coeff in cert.claim.terms],
    }
    _emit(report)
    if not res.accepted:
        _emit_error("reject", res.reason or "certificate rejected", _failing_step(res))
        return 1
    return 0


# -- demos -------------------------------------------------------------


def _demo_wij(rng: random.Random):
    s = rng.choice((2, 3, 6))
    top = rng.choice((2, 3))
    m = random_structure(rng, ZZ, top, (s,))
    certs = [("fold_defect", fold_defect_certificate(m, top))]
    for label, cert in zip(("coefficient_row", "disk_row"),
                           fold_row_certificates(m, top)):
        certs.append((label, cert))
    instance = {"kind": "random_structure", "top": top,
                "scalars": [str(s)], "ranks": list(m.complex.ranks)}
    return instance, certs


def _demo_colim1(rng: random.Random):
    t = rng.choice((2, 3))
    m1, m2 = lift_pair(rng, t)
    cert = structure_independence_certificate(m1, m2, 3)
    instance = {"kind": "lift_pair", "torsion": str(t), "ceiling": 3}
    return instance, [("structure_independence", cert)]


def _demo_ex3(rng: random.Random):
    rank = rng.choice((1, 2))
    n = rng.choice((3, 4))
    s = rng.choice((2, 3))
    certs = [
        ("disk_transport", disk_transport_certificate(ZZ, rank, n, (s,))),
        ("fold_defect", fold_defect_certificate(
            random_structure(rng, ZZ, n, (s,)), n)),
    ]
    instance = {"kind": "disk", "rank": rank, "ceiling": n, "scalars": [str(s)]}
    return instance, certs


_DEMOS = {"wij": _demo_wij, "colim1": _demo_colim1, "ex3": _demo_ex3}


def cmd_demo(args) -> int:
    rng = random.Random(args.seed)
    instance, certs = _DEMOS[args.name](rng)
    checked = []
    ok = True
    for label, cert in certs:
        res = check_certificate(cert)
        checked.append({"certificate": label, "accepted": res.accepted,
                        "reason": res.reason, "steps": len(cert.steps)})
        ok = ok and res.accepted
    out = args.out or f"demo_{args.name}_seed{args.seed}.certificate.json"
    try:
        Path(out).write_text(dumps(certs[0][1]))
    except OSError as e:
        raise FormatError(f"cannot write {out}: {e.strerror or e}", out) from None
    report = {
        "command": "demo",
        "name": args.name,
        "seed": args.seed,
        "instance": instance,
        "checked": checked,
        "accepted": ok,
        "certificate_file": out,
    }
    _emit(report)
    if not ok:
        _emit_error("reject", "a demo certificate was rejected")
        return 1
    return 0


# -- wiring ------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """A usage error prints only its message, with no usage line naming the
    parser, so a leaf parsing its part of a command line prints what the
    full parser prints (see ``_parse``)."""

    def error(self, message):
        _emit_error("usage", message)
        raise SystemExit(2)


def build_parser() -> argparse.ArgumentParser:
    """The full parser.  Its ``leaves`` map the command words of each leaf
    command, such as ``("homotopy", "find")``, to the subparser that the
    full parser hands the rest of the command line to."""
    p = _Parser(prog="homcert", description=__doc__.splitlines()[0])
    leaves = p.leaves = {}

    def leaf(sub, words, fn, help):
        q = leaves[words] = sub.add_parser(words[-1], help=help)
        q.set_defaults(fn=fn)
        return q

    sub = p.add_subparsers(dest="subcommand", required=True)

    leaf(sub, ("validate",), cmd_validate, "check a document against its laws").add_argument("file")

    q = sub.add_parser("homotopy", help="homotopy-structure search")
    hsub = q.add_subparsers(dest="homotopy_command", required=True)
    hf = leaf(hsub, ("homotopy", "find"), cmd_homotopy_find, "least-exponent structure search")
    hf.add_argument("file")
    hf.add_argument("--gens", required=True,
                    help="comma-separated generator scalars, e.g. 2,3")

    q = leaf(sub, ("gamma",), cmd_gamma, "fold a structure below its top degree")
    q.add_argument("file")
    q.add_argument("--general", action="store_true",
                   help="no effect; every fold takes the comparison-cone route")

    q = leaf(sub, ("cone",), cmd_cone, "structured mapping cone")
    q.add_argument("file", help='JSON object {"map", "source", "target"}')
    q.add_argument("--same", action="store_true",
                   help="equivariant cone keeping the scalars")

    q = leaf(sub, ("glue",), cmd_glue, "glue end structures across an extension")
    q.add_argument("file", help='JSON object {"include", "project", "sub", "quotient"}')

    leaf(sub, ("peel",), cmd_peel, "peel a contractible structure into disks").add_argument("file")
    leaf(sub, ("dual",), cmd_dual, "reflect degrees and transpose").add_argument("file")

    q = leaf(sub, ("suspend",), cmd_suspend, "shift degrees up")
    q.add_argument("file")
    q.add_argument("--by", type=int, default=1)

    leaf(sub, ("certify",), cmd_certify, "check a relation certificate").add_argument("file")

    q = leaf(sub, ("demo",), cmd_demo, "seeded end-to-end certificate pipelines")
    q.add_argument("name", choices=sorted(_DEMOS))
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--out", help="certificate output path")

    return p


# Built once per process: parse_args keeps no state between calls.
_PARSER = build_parser()


def _parse(argv: list):
    """Parse ``argv`` as the full parser would.  A command line that starts
    with a leaf's command words goes straight to that leaf, the parser the
    full one would hand the rest to, which skips a parse per level."""
    for n in (2, 1):
        q = _PARSER.leaves.get(tuple(argv[:n]))
        if q is not None:
            return q.parse_args(argv[n:])
    return _PARSER.parse_args(argv)


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    try:
        return args.fn(args)
    except FormatError as e:
        _emit_error("malformed", str(e), e.where or None)
        return 2
    except (Invalid, ValueError) as e:
        # A construction or search refused well-formed input.
        _emit_error("invalid", str(e))
        return 1
    except AssertionError as e:
        # A construction failed to verify its own output: a fault in homcert,
        # not in the input.
        _emit_error("internal", f"self-check failed: {e}")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
