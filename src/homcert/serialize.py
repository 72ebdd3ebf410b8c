"""JSON documents for complexes, maps, structures and certificates.

Conventions shared by every document kind:

* ring tags are ``"Z"``, ``"Q"``, or ``{"Zmod": m}``;
* matrix entries are decimal strings (``"-7"``, ``"3/4"``); plain JSON
  integers are accepted on input but never emitted;
* a complex stores ``diffs[j]`` as the differential out of degree
  ``min_degree + j + 1`` into ``min_degree + j``;
* chain maps embed their source and target so a file stands alone;
* dumps are sorted and indented, so equal objects give equal bytes.

``from_json`` sniffs the document kind from its keys; decoding errors are
reported as ``FormatError`` with a breadcrumb path into the document.
Decoding only enforces well-formedness (shapes, types); semantic laws
(d^2 = 0, homotopy axioms) are the business of the validators.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .certificates import (
    Certificate, ClassExpr, Contractible, ExactRow, Isomorphism, Rescale,
    Slot, SuspensionPair, Widen,
)
from .complexes import ChainMap, GradedFreeComplex
from .exactalg import Matrix, ModularRing, QQ, Ring, ZZ, Zmod
from .structures import HomotopyStructure


class FormatError(ValueError):
    """Malformed document; ``where`` points at the offending field."""

    def __init__(self, message: str, where: str = ""):
        super().__init__(message)
        self.where = where


def _fail(message: str, where: str):
    raise FormatError(message, where)


def _dict(v, where: str) -> dict:
    if not isinstance(v, dict):
        _fail("expected an object", where)
    return v


def _list(v, where: str) -> list:
    if not isinstance(v, list):
        _fail("expected an array", where)
    return v


def _int(v, where: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        _fail("expected an integer", where)
    return v


def _str(v, where: str) -> str:
    if not isinstance(v, str):
        _fail("expected a string", where)
    return v


def _get(doc: dict, key: str, where: str):
    if key not in doc:
        _fail(f"missing field {key!r}", where)
    return doc[key]


# -- rings and elements ------------------------------------------------


def ring_to_json(ring: Ring):
    if ring == ZZ:
        return "Z"
    if ring == QQ:
        return "Q"
    if isinstance(ring, ModularRing):
        return {"Zmod": ring.modulus}
    raise ValueError(f"no JSON tag for ring {ring!r}")


def ring_from_json(tag, where: str = "ring") -> Ring:
    if tag == "Z":
        return ZZ
    if tag == "Q":
        return QQ
    if isinstance(tag, dict) and set(tag) == {"Zmod"}:
        m = _int(tag["Zmod"], where + ".Zmod")
        if m < 2:
            _fail("modulus must be at least 2", where + ".Zmod")
        try:
            return Zmod(m)
        except ValueError as e:
            _fail(str(e), where + ".Zmod")
    _fail('ring tag must be "Z", "Q", or {"Zmod": m}', where)


def element_to_str(ring: Ring, a) -> str:
    # str of an int equals str of the same Fraction, so Q needs no wrapping.
    return str(a) if ring == QQ else str(int(a))


def _parse_rational(v: str):
    """An int when ``v`` is a decimal integer, else a Fraction (``"3/4"``, ``"1.5"``)."""
    try:
        return int(v, 10)
    except ValueError:
        return Fraction(v)


def _element_reader(ring: Ring):
    """Parse a JSON int or decimal string to an int (over Q, to a Fraction
    when it is not an integer); raise ValueError, ZeroDivisionError or
    TypeError on anything else.  The caller puts the value into ``ring``."""
    parse = _parse_rational if ring == QQ else (lambda v: int(v, 10))

    def read(v):
        if type(v) is int:
            return v
        if type(v) is str:
            return parse(v)
        raise TypeError("expected a ring element")
    return read


def element_from_json(ring: Ring, v, where: str):
    try:
        return ring.normalize(_element_reader(ring)(v))
    except (ValueError, ZeroDivisionError):
        _fail(f"not a ring element: {v!r}", where)
    except TypeError:
        _fail("expected a ring element", where)


# -- matrices ----------------------------------------------------------


def _ratio_writer(den: int):
    def write(x: int) -> str:
        return str(x // den) if x % den == 0 else str(Fraction(x, den))
    return write


def matrix_to_json(a: Matrix) -> dict:
    write = str if a.den == 1 else _ratio_writer(a.den)
    return {
        "ring": ring_to_json(a.ring),
        "rows": a.rows,
        "cols": a.cols,
        "entries": [list(map(write, row)) for row in a.ints],
    }


def matrix_from_json(doc, where: str = "matrix", ring: Ring = None) -> Matrix:
    doc = _dict(doc, where)
    got = ring_from_json(_get(doc, "ring", where), where + ".ring")
    if ring is not None and got != ring:
        _fail(f"ring mismatch: {got!r} inside a {ring!r} document", where + ".ring")
    rows = _int(_get(doc, "rows", where), where + ".rows")
    cols = _int(_get(doc, "cols", where), where + ".cols")
    if rows < 0 or cols < 0:
        _fail("negative matrix shape", where)
    raw = _list(_get(doc, "entries", where), where + ".entries")
    if len(raw) != rows:
        _fail(f"expected {rows} rows, got {len(raw)}", where + ".entries")
    read = _element_reader(got)
    tens = (10,) * cols
    ents, integral = [], True
    for i, r in enumerate(raw):
        if not isinstance(r, list) or len(r) != cols:
            r = _list(r, f"{where}.entries[{i}]")
            _fail(f"expected {cols} columns, got {len(r)}", f"{where}.entries[{i}]")
        try:
            # A row of decimal integer strings, the only form the writers
            # emit; int with a base raises TypeError on anything but a string.
            ents.append(tuple(map(int, r, tens)))
            continue
        except (ValueError, TypeError):
            integral = False
        try:
            ents.append(tuple(map(read, r)))
        except (ValueError, ZeroDivisionError, TypeError):
            # Rare path: find the first bad entry and name it.
            for j, x in enumerate(r):
                element_from_json(got, x, f"{where}.entries[{i}][{j}]")
            raise
    if got == QQ and not integral:
        return Matrix(got, rows, cols, ents)
    if isinstance(got, ModularRing):
        m = got.modulus
        ents = [tuple(x % m for x in row) for row in ents]
    return Matrix.from_ints(got, rows, cols, tuple(ents))


# -- complexes ---------------------------------------------------------


def complex_to_json(x: GradedFreeComplex) -> dict:
    return {
        "ring": ring_to_json(x.ring),
        "min_degree": x.min_degree,
        "ranks": list(x.ranks),
        "diffs": [matrix_to_json(d) for d in x.diffs],
    }


def complex_from_json(doc, where: str = "complex") -> GradedFreeComplex:
    doc = _dict(doc, where)
    ring = ring_from_json(_get(doc, "ring", where), where + ".ring")
    min_degree = _int(_get(doc, "min_degree", where), where + ".min_degree")
    ranks = tuple(_int(r, f"{where}.ranks[{i}]")
                  for i, r in enumerate(_list(_get(doc, "ranks", where), where + ".ranks")))
    if any(r < 0 for r in ranks):
        _fail("negative rank", where + ".ranks")
    diffs = tuple(matrix_from_json(d, f"{where}.diffs[{i}]", ring)
                  for i, d in enumerate(_list(_get(doc, "diffs", where), where + ".diffs")))
    try:
        return GradedFreeComplex(ring, min_degree, ranks, diffs)
    except ValueError as e:
        _fail(str(e), where)


# -- chain maps --------------------------------------------------------


def chain_map_to_json(f: ChainMap) -> dict:
    return {
        "shift": f.shift,
        "source": complex_to_json(f.source),
        "target": complex_to_json(f.target),
        "mats": [matrix_to_json(m) for m in f.mats],
    }


def chain_map_from_json(doc, where: str = "map") -> ChainMap:
    doc = _dict(doc, where)
    shift = _int(_get(doc, "shift", where), where + ".shift")
    source = complex_from_json(_get(doc, "source", where), where + ".source")
    target = complex_from_json(_get(doc, "target", where), where + ".target")
    mats = tuple(matrix_from_json(m, f"{where}.mats[{i}]", source.ring)
                 for i, m in enumerate(_list(_get(doc, "mats", where), where + ".mats")))
    try:
        return ChainMap(source, target, shift, mats)
    except ValueError as e:
        _fail(str(e), where)


# -- structures --------------------------------------------------------


def structure_to_json(m: HomotopyStructure) -> dict:
    ring = m.complex.ring
    return {
        "complex": complex_to_json(m.complex),
        "scalars": [element_to_str(ring, s) for s in m.scalars],
        "ops": [[matrix_to_json(e) for e in grid] for grid in m.ops],
    }


def structure_from_json(doc, where: str = "structure") -> HomotopyStructure:
    doc = _dict(doc, where)
    x = complex_from_json(_get(doc, "complex", where), where + ".complex")
    scalars = tuple(
        element_from_json(x.ring, s, f"{where}.scalars[{g}]")
        for g, s in enumerate(_list(_get(doc, "scalars", where), where + ".scalars")))
    ops = []
    for g, grid in enumerate(_list(_get(doc, "ops", where), where + ".ops")):
        grid = _list(grid, f"{where}.ops[{g}]")
        ops.append(tuple(matrix_from_json(e, f"{where}.ops[{g}][{j}]", x.ring)
                         for j, e in enumerate(grid)))
    try:
        return HomotopyStructure(x, scalars, tuple(ops))
    except ValueError as e:
        _fail(str(e), where)


# -- certificates ------------------------------------------------------

_STEP_TAGS = ("SES", "ACYCLIC", "ISO", "SUSPEND", "RESTRICT", "WIDEN")


def _step_to_json(step) -> dict:
    if isinstance(step, ExactRow):
        return {"kind": "SES", "sub": step.sub, "total": step.total,
                "quotient": step.quotient,
                "include": chain_map_to_json(step.include),
                "project": chain_map_to_json(step.project),
                "mult": step.mult}
    if isinstance(step, Contractible):
        return {"kind": "ACYCLIC", "name": step.name,
                "contraction": chain_map_to_json(step.contraction),
                "mult": step.mult}
    if isinstance(step, Isomorphism):
        return {"kind": "ISO", "source": step.source, "target": step.target,
                "map": chain_map_to_json(step.iso), "mult": step.mult}
    if isinstance(step, SuspensionPair):
        return {"kind": "SUSPEND", "base": step.base, "shifted": step.shifted,
                "mult": step.mult}
    if isinstance(step, Rescale):
        return {"kind": "RESTRICT",
                "factors": [str(f) for f in step.factors],
                "pairs": [[old, new] for old, new in step.pairs]}
    if isinstance(step, Widen):
        return {"kind": "WIDEN", "ceiling": step.ceiling}
    raise ValueError(f"unknown step type {type(step).__name__}")


def _step_from_json(doc, ring: Ring, where: str):
    doc = _dict(doc, where)
    kind = _str(_get(doc, "kind", where), where + ".kind")
    if kind == "SES":
        return ExactRow(
            _str(_get(doc, "sub", where), where + ".sub"),
            _str(_get(doc, "total", where), where + ".total"),
            _str(_get(doc, "quotient", where), where + ".quotient"),
            chain_map_from_json(_get(doc, "include", where), where + ".include"),
            chain_map_from_json(_get(doc, "project", where), where + ".project"),
            _int(doc.get("mult", 1), where + ".mult"))
    if kind == "ACYCLIC":
        return Contractible(
            _str(_get(doc, "name", where), where + ".name"),
            chain_map_from_json(_get(doc, "contraction", where), where + ".contraction"),
            _int(doc.get("mult", 1), where + ".mult"))
    if kind == "ISO":
        return Isomorphism(
            _str(_get(doc, "source", where), where + ".source"),
            _str(_get(doc, "target", where), where + ".target"),
            chain_map_from_json(_get(doc, "map", where), where + ".map"),
            _int(doc.get("mult", 1), where + ".mult"))
    if kind == "SUSPEND":
        return SuspensionPair(
            _str(_get(doc, "base", where), where + ".base"),
            _str(_get(doc, "shifted", where), where + ".shifted"),
            _int(doc.get("mult", 1), where + ".mult"))
    if kind == "RESTRICT":
        factors = tuple(
            element_from_json(ring, f, f"{where}.factors[{g}]")
            for g, f in enumerate(_list(_get(doc, "factors", where), where + ".factors")))
        pairs = []
        for i, p in enumerate(_list(_get(doc, "pairs", where), where + ".pairs")):
            p = _list(p, f"{where}.pairs[{i}]")
            if len(p) != 2:
                _fail("expected [old, new]", f"{where}.pairs[{i}]")
            pairs.append((_str(p[0], f"{where}.pairs[{i}][0]"),
                          _str(p[1], f"{where}.pairs[{i}][1]")))
        return Rescale(factors, tuple(pairs))
    if kind == "WIDEN":
        return Widen(_int(_get(doc, "ceiling", where), where + ".ceiling"))
    _fail(f"unknown step kind {kind!r}; expected one of {_STEP_TAGS}", where + ".kind")


def certificate_to_json(cert: Certificate) -> dict:
    if not cert.registry:
        raise ValueError("cannot serialize a certificate with an empty registry")
    ring = cert.registry[0][1].complex.ring
    return {
        "ring": ring_to_json(ring),
        "slot": {"scalars": [element_to_str(ring, s) for s in cert.slot.scalars],
                 "ceiling": cert.slot.ceiling},
        "registry": [[name, structure_to_json(m)] for name, m in cert.registry],
        "steps": [_step_to_json(s) for s in cert.steps],
        "claim": [[name, coeff] for name, coeff in cert.claim.terms],
    }


def certificate_from_json(doc, where: str = "certificate") -> Certificate:
    doc = _dict(doc, where)
    ring = ring_from_json(_get(doc, "ring", where), where + ".ring")
    slot_doc = _dict(_get(doc, "slot", where), where + ".slot")
    scalars = tuple(
        element_from_json(ring, s, f"{where}.slot.scalars[{g}]")
        for g, s in enumerate(_list(_get(slot_doc, "scalars", where + ".slot"),
                                    where + ".slot.scalars")))
    ceiling = _int(_get(slot_doc, "ceiling", where + ".slot"), where + ".slot.ceiling")
    registry = []
    for i, item in enumerate(_list(_get(doc, "registry", where), where + ".registry")):
        item = _list(item, f"{where}.registry[{i}]")
        if len(item) != 2:
            _fail("expected [name, structure]", f"{where}.registry[{i}]")
        registry.append((_str(item[0], f"{where}.registry[{i}][0]"),
                         structure_from_json(item[1], f"{where}.registry[{i}][1]")))
    steps = tuple(_step_from_json(s, ring, f"{where}.steps[{i}]")
                  for i, s in enumerate(_list(_get(doc, "steps", where), where + ".steps")))
    claim_pairs = []
    for i, item in enumerate(_list(_get(doc, "claim", where), where + ".claim")):
        item = _list(item, f"{where}.claim[{i}]")
        if len(item) != 2:
            _fail("expected [name, coefficient]", f"{where}.claim[{i}]")
        claim_pairs.append((_str(item[0], f"{where}.claim[{i}][0]"),
                            _int(item[1], f"{where}.claim[{i}][1]")))
    return Certificate(Slot(scalars, ceiling), tuple(registry), steps,
                       ClassExpr.build(claim_pairs))


# -- top-level dispatch ------------------------------------------------


def detect_kind(doc) -> str:
    """Sniff the document kind from its keys."""
    if not isinstance(doc, dict):
        raise FormatError("expected a JSON object", "")
    if "steps" in doc and "claim" in doc:
        return "certificate"
    if "ops" in doc and "complex" in doc:
        return "structure"
    if "mats" in doc and "shift" in doc:
        return "chain_map"
    if "ranks" in doc and "diffs" in doc:
        return "complex"
    raise FormatError("unrecognized document: expected a complex, structure, "
                      "chain map, or certificate", "")


_DECODERS = {
    "complex": complex_from_json,
    "chain_map": chain_map_from_json,
    "structure": structure_from_json,
    "certificate": certificate_from_json,
}


def from_json(doc):
    return _DECODERS[detect_kind(doc)](doc, detect_kind(doc))


def to_json(obj):
    if isinstance(obj, Certificate):
        return certificate_to_json(obj)
    if isinstance(obj, HomotopyStructure):
        return structure_to_json(obj)
    if isinstance(obj, ChainMap):
        return chain_map_to_json(obj)
    if isinstance(obj, GradedFreeComplex):
        return complex_to_json(obj)
    if isinstance(obj, Matrix):
        return matrix_to_json(obj)
    raise ValueError(f"no JSON form for {type(obj).__name__}")


def dumps(obj) -> str:
    """Deterministic text form: sorted keys, two-space indent, one trailing
    newline.  Equal objects serialize to identical bytes."""
    doc = to_json(obj) if not isinstance(obj, (dict, list)) else obj
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def loads(text: str):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise FormatError(f"not JSON: {e}", "") from None
    return from_json(doc)
