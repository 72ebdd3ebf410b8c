"""JSON documents for complexes, maps, structures and certificates.

Conventions shared by every document kind:

* ring tags are ``"Z"``, ``"Q"``, or ``{"Zmod": m}``;
* a matrix is ``{"entries": rows}`` over the document's ring, in the shape
  its ranks fix (earlier ``ring``, ``rows`` and ``cols`` keys are ignored);
  entries are JSON integers (``-7``) of any size, and only a Q matrix with
  a non-integral entry writes its entries as strings (``"3/4"``, ``"-5"``);
  the decimal strings earlier versions wrote (``"-7"``) and decimals
  (``"1.5"``) are still read, exponents never.  A reader that maps JSON
  numbers to doubles loses precision past 2^53, and Z witnesses reach
  hundreds of bits, so such documents need an exact JSON reader;
* scalars are decimal strings (``"2"``, ``"1/2"``);
* a complex stores ``diffs[j]`` as the differential out of degree
  ``min_degree + j + 1`` into ``min_degree + j``, each rank <= ``RANK_LIMIT``
  and |min_degree| <= ``DEGREE_LIMIT`` (the writer refuses a complex past
  either bound, which it could not read back);
* a standalone chain map embeds its source and target so the file stands
  alone;
* a certificate states each complex once, in its registry: every map a step
  carries (a row's ``include``, ``project``, ``section`` and
  ``retraction``, an isomorphism's ``map`` and ``inverse``, a
  ``contraction``) is a list of matrices, one per source degree, between
  the complexes of the registry objects the step names;
* a dump is one line of compact JSON with sorted keys and a trailing
  newline, so equal objects give equal bytes (``python -m json.tool FILE``
  shows it indented); the reader takes any JSON layout, the indented one of
  earlier versions included;
* an integer longer than the interpreter's digit limit for integer strings
  (``sys.get_int_max_str_digits()``, 4300 by default; the environment
  variable ``PYTHONINTMAXSTRDIGITS=0`` lifts it) is neither read nor
  written: the writer refuses it with a ``ValueError`` and the reader with a
  ``FormatError``, each naming the limit.

``from_json`` sniffs the document kind from its keys; decoding errors are
reported as ``FormatError`` with a breadcrumb path into the document, and
``parse_json`` turns every way raw text can fail to be JSON into one.
Decoding only enforces well-formedness (shapes, types); semantic laws
(d^2 = 0, homotopy axioms) are the business of the validators.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

from .complexes import ChainMap, GradedFreeComplex
from .exactalg import Matrix, ModularRing, QQ, Ring, ZZ, Zmod
from .kernel import Certificate, ClassExpr, Contractible, ExactRow, Isomorphism, Slot, brief
from .structures import HomotopyStructure


RANK_LIMIT = 1000  # a rank costs a few bytes, yet checks build rank x rank zero blocks
DEGREE_LIMIT = 1000  # |min_degree| bound: checks loop over every degree between two windows


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


def _digit_limit(verb: str) -> str:
    """Why an integer past the interpreter's digit limit cannot be written
    or read; ``verb`` says which."""
    return (f"cannot {verb} an integer of more than {sys.get_int_max_str_digits()} "
            "digits, the interpreter's limit (PYTHONINTMAXSTRDIGITS=0 lifts it)")


def _read_refusal(e: ValueError) -> str | None:
    """The reader's words when ``e`` is the interpreter refusing to convert
    a string of more digits than its limit, else None.  CPython signals
    that refusal only by the text of a plain ``ValueError``, the same in
    ``int``, ``Fraction`` and ``json.loads``."""
    return _digit_limit("read") if str(e).startswith("Exceeds the limit") else None


def element_to_str(ring: Ring, a) -> str:
    # str of an int equals str of the same Fraction, so Q needs no wrapping.
    try:
        return str(a) if ring == QQ else str(int(a))
    except ValueError:
        raise ValueError(_digit_limit("write")) from None


def _parse_rational(v: str):
    """An int when ``v`` is a decimal integer, else a Fraction (``"3/4"``, ``"1.5"``);
    not an exponent form, whose every digit Fraction would write out."""
    try:
        return int(v, 10)
    except ValueError:
        if "e" in v or "E" in v:
            raise
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
    except (ValueError, ZeroDivisionError) as e:
        _fail(_read_refusal(e) or f"not a ring element: {brief(v)}", where)
    except TypeError:
        _fail("expected a ring element", where)


# -- matrices ----------------------------------------------------------


def _ratio_writer(den: int):
    def write(x: int) -> str:
        try:
            return str(x // den) if x % den == 0 else str(Fraction(x, den))
        except ValueError:
            raise ValueError(_digit_limit("write")) from None
    return write


def matrix_to_json(a: Matrix) -> dict:
    if a.den == 1:
        # Z, Z/m and integral Q: the stored ints are the entries.
        return {"entries": list(map(list, a.ints))}
    write = _ratio_writer(a.den)
    return {"entries": [list(map(write, row)) for row in a.ints]}


# True when every entry of a row is exactly an int (a JSON integer; not a
# bool, which is an int subclass).
_all_ints = frozenset((int,)).issuperset


def matrix_from_json(doc, where: str, ring: Ring, rows: int, cols: int) -> Matrix:
    """``doc`` as a ``rows`` x ``cols`` matrix over ``ring``; its document fixes all three."""
    doc = _dict(doc, where)
    raw = _list(_get(doc, "entries", where), where + ".entries")
    if len(raw) != rows:
        _fail(f"expected {rows} rows, got {len(raw)}", where + ".entries")
    read = _element_reader(ring)
    tens = (10,) * cols
    ents, integral = [], True
    for i, r in enumerate(raw):
        if not isinstance(r, list) or len(r) != cols:
            r = _list(r, f"{where}.entries[{i}]")
            _fail(f"expected {cols} columns, got {len(r)}", f"{where}.entries[{i}]")
        if _all_ints(map(type, r)):
            # A row of JSON integers, the form the writer emits.
            ents.append(tuple(r))
            continue
        try:
            # A row of decimal integer strings, as earlier versions wrote;
            # int with a base raises TypeError on anything but a string.
            ents.append(tuple(map(int, r, tens)))
            continue
        except (ValueError, TypeError):
            integral = False
        try:
            ents.append(tuple(map(read, r)))
        except (ValueError, ZeroDivisionError, TypeError):
            # Rare path: find the first bad entry and name it.
            for j, x in enumerate(r):
                element_from_json(ring, x, f"{where}.entries[{i}][{j}]")
            raise
    if ring == QQ and not integral:
        return Matrix(ring, rows, cols, ents)
    if isinstance(ring, ModularRing):
        m = ring.modulus
        ents = [tuple(map(m.__rmod__, row)) for row in ents]
    ents = tuple(ents)
    if rows == cols:
        # an identity shares the identity's ints, which products skip
        eye = Matrix.identity(ring, rows)
        if ents == eye.ints:
            return eye
    return Matrix.from_ints(ring, rows, cols, ents)


def _matrices(raw, where: str, ring: Ring, shapes: list) -> tuple:
    """``raw`` as a list of matrices over ``ring``, one per (rows, cols) in ``shapes``."""
    raw = _list(raw, where)
    if len(raw) != len(shapes):
        _fail(f"expected {len(shapes)} matrices, got {len(raw)}", where)
    return tuple(matrix_from_json(m, f"{where}[{i}]", ring, rows, cols)
                 for i, (m, (rows, cols)) in enumerate(zip(raw, shapes)))


# -- complexes ---------------------------------------------------------


def complex_to_json(x: GradedFreeComplex) -> dict:
    if abs(x.min_degree) > DEGREE_LIMIT:
        raise ValueError(f"min_degree {x.min_degree} is past the bound {DEGREE_LIMIT} "
                         "that the reader enforces")
    if max(x.ranks) > RANK_LIMIT:
        raise ValueError(f"rank {max(x.ranks)} is past the bound {RANK_LIMIT} "
                         "that the reader enforces")
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
    if abs(min_degree) > DEGREE_LIMIT:
        _fail(f"min_degree must be between -{DEGREE_LIMIT} and {DEGREE_LIMIT}",
              where + ".min_degree")
    ranks = tuple(_list(_get(doc, "ranks", where), where + ".ranks"))
    for i, r in enumerate(ranks):
        if not 0 <= _int(r, f"{where}.ranks[{i}]") <= RANK_LIMIT:
            _fail(f"rank must be between 0 and {RANK_LIMIT}", f"{where}.ranks[{i}]")
    diffs = _matrices(_get(doc, "diffs", where), where + ".diffs", ring,
                      list(zip(ranks, ranks[1:])))
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
    return _map_from_json(doc, "mats", source, target, shift, where)


def _map_from_json(doc: dict, key: str, source: GradedFreeComplex,
                   target: GradedFreeComplex, shift: int, where: str) -> ChainMap:
    """A map stored as its matrices, one per source degree."""
    at = f"{where}.{key}"
    mats = _matrices(_get(doc, key, where), at, source.ring,
                     [(target.rank(i + shift), source.rank(i)) for i in source.degrees()])
    try:
        return ChainMap(source, target, shift, mats)
    except ValueError as e:
        _fail(str(e), at)


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
    shapes = list(zip(x.ranks[1:], x.ranks))
    ops = tuple(_matrices(grid, f"{where}.ops[{g}]", x.ring, shapes)
                for g, grid in enumerate(_list(_get(doc, "ops", where), where + ".ops")))
    try:
        return HomotopyStructure(x, scalars, ops)
    except ValueError as e:
        _fail(str(e), where)


# -- certificates ------------------------------------------------------

# Every step kind: kind -> (class, the keys naming registry objects, and per
# map it carries (key, attribute, source name key, target name key, shift)).
_MAP_STEPS = {
    "SES": (ExactRow, ("sub", "total", "quotient"),
            (("include", "include", "sub", "total", 0),
             ("project", "project", "total", "quotient", 0),
             ("section", "section", "quotient", "total", 0),
             ("retraction", "retraction", "total", "sub", 0))),
    "ACYCLIC": (Contractible, ("name",),
                (("contraction", "contraction", "name", "name", 1),)),
    "ISO": (Isomorphism, ("source", "target"),
            (("map", "iso", "source", "target", 0),
             ("inverse", "inverse", "target", "source", 0))),
}


def _step_to_json(step, complexes: dict, where: str) -> dict:
    for kind, (cls, names, maps) in _MAP_STEPS.items():
        if isinstance(step, cls):
            doc = {"kind": kind, "mult": step.mult}
            doc.update((key, getattr(step, key)) for key in names)
            for key, attr, src, tgt, shift in maps:
                f = getattr(step, attr)
                if (f.source, f.target, f.shift) != (
                        complexes.get(doc[src]), complexes.get(doc[tgt]), shift):
                    raise ValueError(f"{where}: {key} is not a degree {shift} map "
                                     f"from {brief(doc[src])} to {brief(doc[tgt])}")
                doc[key] = [matrix_to_json(m) for m in f.mats]
            return doc
    raise ValueError(f"unknown step type {type(step).__name__}")


def _step_from_json(doc, complexes: dict, where: str):
    doc = _dict(doc, where)
    kind = _str(_get(doc, "kind", where), where + ".kind")
    if kind in _MAP_STEPS:
        cls, names, maps = _MAP_STEPS[kind]
        args = {}
        for key in names:
            args[key] = _str(_get(doc, key, where), f"{where}.{key}")
            if args[key] not in complexes:
                _fail(f"unregistered name {brief(args[key])}", f"{where}.{key}")
        for key, attr, src, tgt, shift in maps:
            args[attr] = _map_from_json(doc, key, complexes[args[src]],
                                        complexes[args[tgt]], shift, where)
        return cls(**args, mult=_int(doc.get("mult", 1), where + ".mult"))
    _fail(f"unknown step kind {brief(kind)}; expected one of {tuple(_MAP_STEPS)}", where + ".kind")


def certificate_to_json(cert: Certificate) -> dict:
    if not cert.registry:
        raise ValueError("cannot serialize a certificate with an empty registry")
    ring = cert.registry[0][1].complex.ring
    complexes = {name: m.complex for name, m in cert.registry}
    return {
        "ring": ring_to_json(ring),
        "slot": {"scalars": [element_to_str(ring, s) for s in cert.slot.scalars],
                 "ceiling": cert.slot.ceiling},
        "registry": [[name, structure_to_json(m)] for name, m in cert.registry],
        "steps": [_step_to_json(s, complexes, f"steps[{i}]") for i, s in enumerate(cert.steps)],
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
    complexes = {name: m.complex for name, m in registry}
    steps = tuple(_step_from_json(s, complexes, f"{where}.steps[{i}]")
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
    kind = detect_kind(doc)
    return _DECODERS[kind](doc, kind)


def to_json(obj):
    if isinstance(obj, Certificate):
        return certificate_to_json(obj)
    if isinstance(obj, HomotopyStructure):
        return structure_to_json(obj)
    if isinstance(obj, ChainMap):
        return chain_map_to_json(obj)
    if isinstance(obj, GradedFreeComplex):
        return complex_to_json(obj)
    raise ValueError(f"no JSON form for {type(obj).__name__}")


# One encoder per process: ``json.dumps`` with keyword arguments builds a
# new one on every call.  Without ``indent`` CPython encodes in C, several
# times faster than its pure-Python indenting encoder, and a document is a
# tree that ``to_json`` builds, so the encoder skips its check for cycles.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False)


def dumps(obj) -> str:
    """Deterministic text form: one line of sorted, compact JSON and a
    trailing newline.  Equal objects serialize to identical bytes.  An
    integer past the interpreter's digit limit is a ``ValueError`` that
    names the limit."""
    doc = to_json(obj) if not isinstance(obj, (dict, list)) else obj
    try:
        return _ENCODER.encode(doc) + "\n"
    except ValueError:
        raise ValueError(_digit_limit("write")) from None


def parse_json(data, where: str = ""):
    """Parse text, or bytes as UTF-8, into a JSON value.  Every failure
    (bad UTF-8, bad syntax, nesting deeper than the recursion limit, an
    integer longer than Python's digit limit) is a ``FormatError``."""
    try:
        if isinstance(data, bytes):
            data = data.decode("utf-8")
        return json.loads(data)
    except UnicodeDecodeError as e:
        raise FormatError(f"not UTF-8: {e}", where) from None
    except RecursionError:
        raise FormatError("not JSON: nested too deeply", where) from None
    except ValueError as e:  # JSONDecodeError, or the int digit limit
        raise FormatError(f"not JSON: {_read_refusal(e) or e}", where) from None


def loads(text: str):
    return from_json(parse_json(text))
