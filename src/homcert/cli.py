"""Batch front end: validate documents, run constructions, check certificates.

Exit codes: 0 valid/accepted, 1 invalid/rejected or a failed internal
self-check, 2 malformed input or bad usage.  The report is JSON on stdout
with sorted keys and a trailing newline, so identical inputs (and seed) give
byte-identical output; on any nonzero exit a one-line ``{"error": ...}``
object goes to stderr.

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
    check_certificate, disk_transport_certificate, fold_defect_certificate,
    fold_row_certificates, peel_chain_certificate,
    structure_independence_certificate,
)
from .complexes import GradedFreeComplex, ChainMap, validate_complex
from .constructions import cone_mixed, cone_same, dual, glue_extension, suspend
from .exactalg import ZZ
from .fold import fold_once
from .randgen import lift_pair, random_structure
from .serialize import (
    FormatError, certificate_from_json, certificate_to_json,
    chain_map_from_json, chain_map_to_json, complex_from_json, detect_kind,
    dumps, element_from_json, element_to_str, from_json, structure_from_json,
    structure_to_json,
)
from .structures import HomotopyStructure, check_structure, find_structure


class Invalid(Exception):
    """Well-formed input that fails a semantic requirement (exit 1)."""


def _emit(doc: dict):
    sys.stdout.write(dumps(doc))


def _emit_error(code: str, message: str, where: str = None):
    err = {"error": {"code": code, "message": message, "where": where}}
    sys.stderr.write(json.dumps(err, sort_keys=True) + "\n")


def _load_doc(path: str):
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise FormatError(f"cannot read {path}: {e.strerror or e}", path) from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise FormatError(f"not JSON: {e}", path) from None


def _load_structure(path: str) -> HomotopyStructure:
    doc = _load_doc(path)
    if detect_kind(doc) != "structure":
        raise FormatError("expected a structure document", path)
    m = structure_from_json(doc)
    problems = check_structure(m)
    if problems:
        raise Invalid("not a structure: " + problems[0])
    return m


def _field(doc: dict, key: str, decode, path: str):
    if key not in doc:
        raise FormatError(f"missing field {key!r}", path)
    return decode(doc[key], key)


# -- validate ----------------------------------------------------------


def cmd_validate(args) -> int:
    doc = _load_doc(args.file)
    kind = detect_kind(doc)
    obj = from_json(doc)
    report = {"command": "validate", "kind": kind}
    if kind == "complex":
        problems = validate_complex(obj)
        report["min_degree"] = obj.min_degree
        report["ranks"] = list(obj.ranks)
    elif kind == "structure":
        problems = validate_complex(obj.complex) + check_structure(obj, check_complex=False)
        report["min_degree"] = obj.complex.min_degree
        report["ranks"] = list(obj.complex.ranks)
        report["scalars"] = [element_to_str(obj.complex.ring, s) for s in obj.scalars]
    elif kind == "chain_map":
        problems = [] if obj.is_chain_map() else ["not a chain map"]
        report["shift"] = obj.shift
    else:
        res = check_certificate(obj)
        problems = [] if res.accepted else [res.reason]
        report["steps"] = len(obj.steps)
    report["valid"] = not problems
    report["problems"] = problems
    _emit(report)
    if problems:
        _emit_error("invalid", problems[0])
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
    try:
        res = find_structure(x, gens)
    except ValueError as e:
        raise Invalid(str(e)) from None
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
    why = ("free homology obstructs every exponent" if any(res.obstructed)
           else "no power of a generator is null-homotopic")
    _emit_error("invalid", why)
    return 1


# -- constructions -----------------------------------------------------


def cmd_gamma(args) -> int:
    m = _load_structure(args.file)
    n = m.complex.top_degree
    report = {"command": "gamma", "ceiling": n}
    try:
        if args.general or m.ngens != 1:
            rows = fold_row_certificates(m, n)
            report["route"] = "general"
            report["witness_rows"] = [certificate_to_json(c) for c in rows]
            out = dict(rows[1].registry)["fold"]
        else:
            out = fold_once(m, n)
            report["route"] = "direct"
    except ValueError as e:
        raise Invalid(str(e)) from None
    report.update(structure_to_json(out))
    _emit(report)
    return 0


def cmd_cone(args) -> int:
    doc = _load_doc(args.file)
    if not isinstance(doc, dict):
        raise FormatError("expected an object", args.file)
    f = _field(doc, "map", chain_map_from_json, args.file)
    mx = _field(doc, "source", structure_from_json, args.file)
    my = _field(doc, "target", structure_from_json, args.file)
    if f.source != mx.complex or f.target != my.complex:
        raise Invalid("map endpoints do not match the given structures")
    try:
        data = cone_same(f, mx, my) if args.same else cone_mixed(f, mx, my)
    except ValueError as e:
        raise Invalid(str(e)) from None
    report = {
        "command": "cone",
        "mode": "same" if args.same else "mixed",
        "include": chain_map_to_json(data.include),
        "project": chain_map_to_json(data.project),
        "sub": structure_to_json(data.sub),
        "quotient": structure_to_json(data.quotient),
    }
    report.update(structure_to_json(data.structure))
    _emit(report)
    return 0


def cmd_glue(args) -> int:
    doc = _load_doc(args.file)
    if not isinstance(doc, dict):
        raise FormatError("expected an object", args.file)
    incl = _field(doc, "include", chain_map_from_json, args.file)
    proj = _field(doc, "project", chain_map_from_json, args.file)
    m_sub = _field(doc, "sub", structure_from_json, args.file)
    m_quot = _field(doc, "quotient", structure_from_json, args.file)
    try:
        glued = glue_extension(incl, proj, m_sub, m_quot)
    except ValueError as e:
        raise Invalid(str(e)) from None
    report = {"command": "glue"}
    report.update(structure_to_json(glued))
    _emit(report)
    return 0


def cmd_peel(args) -> int:
    m = _load_structure(args.file)
    try:
        cert = peel_chain_certificate(m, m.complex.top_degree)
    except (ValueError, AssertionError) as e:
        raise Invalid(f"structure does not peel: {e}") from None
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
        "claim": [[name, coeff] for name, coeff in cert.claim.terms],
    }
    _emit(report)
    if not res.accepted:
        _emit_error("reject", res.reason or "certificate rejected")
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
    Path(out).write_text(dumps(certs[0][1]))
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
    def error(self, message):
        _emit_error("usage", message)
        raise SystemExit(2)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="homcert", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="subcommand", required=True)

    q = sub.add_parser("validate", help="check a document against its laws")
    q.add_argument("file")
    q.set_defaults(fn=cmd_validate)

    q = sub.add_parser("homotopy", help="homotopy-structure search")
    hsub = q.add_subparsers(dest="homotopy_command", required=True)
    hf = hsub.add_parser("find", help="least-exponent structure search")
    hf.add_argument("file")
    hf.add_argument("--gens", required=True,
                    help="comma-separated generator scalars, e.g. 2,3")
    hf.set_defaults(fn=cmd_homotopy_find)

    q = sub.add_parser("gamma", help="fold a structure below its top degree")
    q.add_argument("file")
    q.add_argument("--general", action="store_true",
                   help="force the comparison-cone route (with witness rows)")
    q.set_defaults(fn=cmd_gamma)

    q = sub.add_parser("cone", help="structured mapping cone")
    q.add_argument("file", help='JSON object {"map", "source", "target"}')
    q.add_argument("--same", action="store_true",
                   help="equivariant cone keeping the scalars")
    q.set_defaults(fn=cmd_cone)

    q = sub.add_parser("glue", help="glue end structures across an extension")
    q.add_argument("file", help='JSON object {"include", "project", "sub", "quotient"}')
    q.set_defaults(fn=cmd_glue)

    q = sub.add_parser("peel", help="peel a contractible structure into disks")
    q.add_argument("file")
    q.set_defaults(fn=cmd_peel)

    q = sub.add_parser("dual", help="reflect degrees and transpose")
    q.add_argument("file")
    q.set_defaults(fn=cmd_dual)

    q = sub.add_parser("suspend", help="shift degrees up")
    q.add_argument("file")
    q.add_argument("--by", type=int, default=1)
    q.set_defaults(fn=cmd_suspend)

    q = sub.add_parser("certify", help="check a relation certificate")
    q.add_argument("file")
    q.set_defaults(fn=cmd_certify)

    q = sub.add_parser("demo", help="seeded end-to-end certificate pipelines")
    q.add_argument("name", choices=sorted(_DEMOS))
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--out", help="certificate output path")
    q.set_defaults(fn=cmd_demo)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    try:
        return args.fn(args)
    except FormatError as e:
        _emit_error("malformed", str(e), e.where or None)
        return 2
    except Invalid as e:
        _emit_error("invalid", str(e))
        return 1
    except AssertionError as e:
        # A construction failed to verify its own output: a fault in homcert,
        # not in the input.
        _emit_error("internal", f"self-check failed: {e}")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
