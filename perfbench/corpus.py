"""Inputs and operations of the three workloads.

``build(workload, seed, workdir)`` is the benchmark's set-up: it makes every
input from the seed with homcert's own generators, builders and encoders,
writes the documents the CLI reads into ``workdir``, and returns the
operations of one round.  An operation is one closed-loop call into homcert,
either ``homcert.cli.main`` in-process or a public function; its ``check``
compares the outcome with an answer from ``oracle``, which never calls back
into homcert's arithmetic.

Shapes, rings, exponents and families are fixed per slot; the seed changes
entries, scalars, bases and the choice of mutations.  That keeps the cost of
a round nearly the same from seed to seed while the inputs differ.  Two
operations are kept although they fail today, marked ``kept_failing``;
their inputs do not depend on the seed.
"""

from __future__ import annotations

import hashlib
import importlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from homcert import (
    certificates, cli, complexes, constructions, randgen, serialize, structures,
)
from homcert.exactalg import Matrix, QQ, ZZ, Zmod

# The package re-exports a function named koszul over the module's name.
koszul = importlib.import_module("homcert.koszul")

import oracle

P31 = 2 ** 31 - 1

@dataclass(frozen=True)
class Outcome:
    """What one call returned: exit code and streams, or an API value."""

    code: Optional[int]
    out: str
    err: str
    exc: Optional[str] = None
    value: object = None


@dataclass
class Op:
    label: str
    call: Callable[[], Outcome]
    check: Callable[[Outcome], list]
    gave_result: Callable[[Outcome], bool]
    fingerprint: Callable[[Outcome], object]
    kept_failing: bool = False


def run_cli(argv) -> Outcome:
    """``homcert ARGV`` in this process, with its streams captured."""
    out, err = io.StringIO(), io.StringIO()
    code, exc = None, None
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as e:  # a traceback is an outcome the benchmark records
            exc = f"{type(e).__name__}: {e}"
    return Outcome(code, out.getvalue(), err.getvalue(), exc)


def _streams(o: Outcome):
    return (o.code, o.out, o.err, o.exc)


def _verdict(o: Outcome) -> bool:
    return o.exc is None and o.code in (0, 1)


def _ok_exit(o: Outcome) -> bool:
    return o.exc is None and o.code == 0


# -- plain views of decoded homcert objects ---------------------------------


def _modulus(ring):
    return getattr(ring, "modulus", None)


def plain_structure(m):
    """(modulus, ranks, diffs, scalars, ops) as lists of plain entries."""
    x = m.complex
    return (_modulus(x.ring), list(x.ranks),
            [[list(r) for r in d.entries] for d in x.diffs],
            list(m.scalars),
            [[[list(r) for r in e.entries] for e in grid] for grid in m.ops])


def structure_recheck(m, where: str) -> list:
    return [f"{where}: {p}" for p in oracle.homotopy_problems(*plain_structure(m))]


def chi_table(cert) -> dict:
    return {name: oracle.euler_characteristic(m.complex.min_degree, m.complex.ranks)
            for name, m in cert.registry}


def certificate_recheck(cert, where: str) -> list:
    """Kernel acceptance, Euler balance, and a plain recheck of every structure."""
    problems = []
    res = certificates.check_certificate(cert)
    if not res.accepted:
        problems.append(f"{where}: rejected ({res.reason})")
    if oracle.claim_balance(cert.claim.terms, chi_table(cert)):
        problems.append(f"{where}: claim is not Euler-balanced")
    for name, m in cert.registry:
        problems += structure_recheck(m, f"{where}.{name}")
    return problems


# -- random bases ------------------------------------------------------------


def unimodular(rng, n, moves=None):
    """A random integer matrix of determinant +-1 and its inverse, as lists.

    It is a product of ``moves`` (default 2n) random row operations.
    """
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    q = [row[:] for row in p]
    for _ in range((2 * n if moves is None else moves) if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((1, -1))
        p[i] = [a + c * b for a, b in zip(p[i], p[j])]
        for row in q:
            row[j] -= c * row[i]
    return p, q


def scramble(rng, m):
    """The same structure in random bases: P d P^-1 and P e P^-1 per degree."""
    x = m.complex
    ring = x.ring
    base = {i: unimodular(rng, x.rank(i)) for i in x.degrees()}
    p = {i: Matrix.from_rows(ring, base[i][0]) for i in x.degrees()}
    q = {i: Matrix.from_rows(ring, base[i][1]) for i in x.degrees()}
    diffs = tuple(p[i - 1] * x.diff(i) * q[i]
                  for i in range(x.min_degree + 1, x.top_degree + 1))
    cx = complexes.GradedFreeComplex(ring, x.min_degree, x.ranks, diffs)
    ops = tuple(tuple(p[i + 1] * m.op(g, i) * q[i]
                      for i in range(x.min_degree, x.top_degree))
                for g in range(m.ngens))
    return structures.HomotopyStructure(cx, m.scalars, ops)


def split_complex(rng, lower, upper=None, free=(0, 0, 0), light=False):
    """Plain differentials of a sum of pieces Z --a--> Z, in random bases.

    ``lower`` holds the pieces from degree 1 to 0, ``upper`` those from
    degree 2 to 1 (None for a two-term complex), ``free`` the zero-differential
    summands per degree.  A ``light`` basis change makes n // 2 row
    operations instead of 2n.  Returns ``(ranks, diffs)``.
    """
    nl = len(lower)
    if upper is None:
        ranks = [nl + free[0], nl + free[1]]
        shapes = [[[lower[i] if i == j < nl else 0 for j in range(ranks[1])]
                   for i in range(ranks[0])]]
    else:
        nu = len(upper)
        ranks = [nl + free[0], nl + nu + free[1], nu + free[2]]
        d1 = [[lower[i] if i == j < nl else 0 for j in range(ranks[1])]
              for i in range(ranks[0])]
        d2 = [[upper[j] if i == nl + j and j < nu else 0 for j in range(ranks[2])]
              for i in range(ranks[1])]
        shapes = [d1, d2]
    bases = [unimodular(rng, r, r // 2 if light else None) for r in ranks]
    diffs = []
    for j, d in enumerate(shapes):
        left = oracle.mat_mul(bases[j][0], d, ranks[j], ranks[j], ranks[j + 1])
        diffs.append(oracle.mat_mul(left, bases[j + 1][1], ranks[j], ranks[j + 1], ranks[j + 1]))
    return ranks, diffs


def to_complex(ring, ranks, diffs):
    return complexes.GradedFreeComplex(
        ring, 0, tuple(ranks), tuple(Matrix.from_rows(ring, d) for d in diffs))


def koszul_tensor(rng, ring, scalars, module_rank, shift):
    m = constructions.module_tensor(
        module_rank, constructions.suspend(koszul.koszul(ring, scalars), shift))
    return scramble(rng, m)


def disk_sum(rng, ring, scalars, parts):
    """Direct sum of disks ``(rank, top degree)``, in random bases."""
    total = None
    for rank, top in parts:
        d = constructions.disk(ring, rank, top, scalars)
        total = d if total is None else constructions.direct_sum(total, d).structure
    return scramble(rng, total)


def identity_cone(rng, ring, base_ranks, scalars):
    """Contractible structure s.h on the cone of the identity of a random complex."""
    lower = [rng.choice((1, -1, 2, 3)) for _ in range(base_ranks[0])]
    upper = [rng.choice((1, -1, 2, 3)) for _ in range(base_ranks[2])]
    free = (0, base_ranks[1] - base_ranks[0] - base_ranks[2], 0)
    ranks, diffs = split_complex(rng, lower, upper, free)
    base = to_complex(ring, ranks, diffs)
    cone, _, _ = constructions.mapping_cone(complexes.identity_map(base))
    h = constructions.identity_cone_contraction(base)
    return structures.structure_from_contraction(cone, h, scalars)


class Workdir:
    """Writes input documents and keeps a digest of everything written."""

    def __init__(self, path: Path):
        self.path = path
        self.path.mkdir(parents=True, exist_ok=True)
        self.sha = hashlib.sha256()
        self.count = 0

    def write(self, label: str, text: str) -> str:
        self.count += 1
        name = self.path / f"{self.count:03d}-{label.replace('/', '_')}.json"
        name.write_text(text)
        self.sha.update(text.encode())
        return str(name)

    def write_doc(self, label: str, doc: dict) -> str:
        return self.write(label, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def interleave(groups):
    """Round-robin over the groups, so a slow phase touches every kind of op."""
    out = []
    for i in range(max(len(g) for g in groups)):
        out += [g[i] for g in groups if i < len(g)]
    return out


RINGS = (("Z", ZZ), ("Q", QQ), ("Z7", Zmod(7)), ("Zp", Zmod(P31)))


def _rng(seed, *key):
    return random.Random("/".join([str(seed), *map(str, key)]))


# -- certify -------------------------------------------------------------


def _certify_valid(label, path, cert, kept=False) -> Op:
    chi = chi_table(cert)

    def check(o: Outcome):
        problems = []
        if o.code != 0 or o.err:
            problems.append(f"exit {o.code} with stderr {o.err.strip()!r}")
        report = json.loads(o.out) if o.out else {}
        if report.get("accepted") is not True:
            problems.append("certificate not accepted")
        claim = report.get("claim", [])
        if any(name not in chi for name, _ in claim):
            problems.append("claim names an unregistered object")
        elif oracle.claim_balance(claim, chi):
            problems.append("accepted claim is not Euler-balanced")
        return problems

    return Op(label, lambda: run_cli(["certify", path]), check, _verdict, _streams, kept)


def _certify_mutant(label, path) -> Op:
    def check(o: Outcome):
        problems = []
        if o.code != 1:
            problems.append(f"mutant exit {o.code}, expected 1")
        report = json.loads(o.out) if o.out else {}
        if report.get("accepted") is not False:
            problems.append("mutant accepted")
        return problems + oracle.error_line_problems(o.err)

    return Op(label, lambda: run_cli(["certify", path]), check, _verdict, _streams)


def build_certify(seed: int, work: Workdir) -> list:
    groups = {k: [] for k in ("fold_defect", "fold_cone", "fold_rows", "sum",
                              "transport", "peel", "independence", "mutant")}

    def add(family, label, cert, mutate=None):
        path = work.write(label, serialize.dumps(cert))
        groups[family].append(_certify_valid(label, path, cert))
        if mutate is not None:
            rng = _rng(seed, "mutant", label)
            bad, _ = mutate(rng, cert)
            mlabel = f"mutant/{label}"
            groups["mutant"].append(_certify_mutant(mlabel, work.write(mlabel, serialize.dumps(bad))))

    for rname, ring in RINGS:
        rng = _rng(seed, "certify", rname)
        s = rng.choice((2, 3))
        s3 = tuple(rng.sample((2, 3, 5), 3))
        s2 = s3[:2]
        # mutate_certificate picks its move from the seed, and the moves cost
        # from almost nothing to a full check.  It is used on cheap Z
        # certificates only, so that the swing cannot carry an operation
        # across the median or the 90th percentile of a round.
        claim_mutant = randgen.mutate_certificate if ring == ZZ else None
        m = koszul_tensor(rng, ring, s3, 2, 1)                 # ranks 2 6 6 2
        add("fold_defect", f"fold_defect/koszul3/{rname}",
            certificates.fold_defect_certificate(m, 4), claim_mutant)
        m = scramble(rng, identity_cone(rng, ring, (2, 3, 1), (s,)))  # ranks 2 5 4 1
        add("fold_cone", f"fold_defect/cone/{rname}",
            certificates.fold_defect_certificate(m, 3))
        m = disk_sum(rng, ring, (s,), ((3, 3), (2, 2), (2, 3)))  # ranks 2 7 5
        for i, cert in enumerate(certificates.fold_row_certificates(m, 3)):
            add("fold_rows", f"fold_rows/{i}/{rname}", cert, claim_mutant if i == 0 else None)
        a = koszul_tensor(rng, ring, s2, 2, 1)                  # ranks 2 4 2
        b = disk_sum(rng, ring, s2, ((3, 3), (2, 2)))
        add("sum", f"sum/{rname}", certificates.sum_certificate(a, b, 3),
            randgen.corrupt_witness_entry)
        add("transport", f"transport/{rname}",
            certificates.disk_transport_certificate(ring, 3, 4, s2), claim_mutant)

    rng = _rng(seed, "certify", "Z-only")
    m = identity_cone(rng, ZZ, (2, 4, 2), (rng.choice((2, 3)),))   # ranks 2 6 6 2
    add("peel", "peel/Z", certificates.peel_chain_certificate(m, 3),
        randgen.corrupt_witness_entry)
    m1, m2 = randgen.lift_pair(rng, rng.choice((2, 3)))
    add("independence", "independence/Z",
        certificates.structure_independence_certificate(m1, m2, 3))

    # Fixed input: a split row of two Z/4 disks is valid, but checking it
    # asks for homology over Z/4.
    z4 = Zmod(4)
    cert = certificates.sum_certificate(constructions.disk(z4, 1, 2, (2,)),
                                        constructions.disk(z4, 1, 2, (2,)), 2)
    path = work.write("sum/Z4", serialize.dumps(cert))
    groups["sum"].append(_certify_valid("sum/Z4", path, cert, kept=True))
    return interleave(list(groups.values()))


# -- construct -----------------------------------------------------------


def _structure_checks(report, where, scalars=None):
    m = serialize.structure_from_json(report)
    problems = structure_recheck(m, where)
    if scalars is not None and list(m.scalars) != list(scalars):
        problems.append(f"{where}: scalars {m.scalars} != {tuple(scalars)}")
    return problems


def _construct_cli(label, argv, check_report) -> Op:
    def check(o: Outcome):
        if o.code != 0 or o.err:
            return [f"exit {o.code} with stderr {o.err.strip()!r}"]
        return check_report(json.loads(o.out))

    return Op(label, lambda: run_cli(argv), check, _ok_exit, _streams)


def _construct_api(label, make) -> Op:
    """Build a certificate through the public API and serialise it."""

    def call():
        try:
            return Outcome(0, serialize.dumps(make()), "")
        except Exception as e:
            return Outcome(None, "", "", f"{type(e).__name__}: {e}")

    def check(o: Outcome):
        return certificate_recheck(serialize.loads(o.out), label)

    return Op(label, call, check, _ok_exit, _streams)


def _squares(ring, scalars):
    return [ring.mul(s, s) for s in scalars]


def build_construct(seed: int, work: Workdir) -> list:
    groups = {k: [] for k in ("peel", "gamma", "fold_defect", "glue", "cone",
                              "independence")}
    # The cost of the contraction system behind a peel swings by +-20% with
    # the basis of the complex, and this one op is over half of a round, so
    # its complex is the same for every seed; the seed picks the scalar.
    scalar = _rng(seed, "construct", "peel").choice((2, 3))
    m = identity_cone(_rng(0, "construct", "peel"), ZZ, (5, 10, 5), (scalar,))  # 5 15 15 5
    path = work.write("peel/Z", serialize.dumps(m))

    def peel_check(report):
        return certificate_recheck(serialize.certificate_from_json(report), "peel")

    groups["peel"].append(_construct_cli("peel/Z", ["peel", path], peel_check))

    koszul_slots = {"Z": (2, 3, 4), "Q": (2, 3), "Z7": (2, 3, 4)}
    # Two copies of everything but the peel, so that the peel, whose time
    # the calibration tracks least well, is under half of a round.
    for c in range(2):
        for rname, ring in RINGS[:3]:
            rng = _rng(seed, "construct", rname, c)
            for d in koszul_slots[rname]:
                scalars = tuple(rng.choice((2, 3, 5)) for _ in range(d))
                m = koszul_tensor(rng, ring, scalars, 2 if d < 4 else 1, 1)
                label = f"gamma/koszul{d}.{c}/{rname}"
                path = work.write(label, serialize.dumps(m))

                def gamma_check(report, ring=ring, scalars=scalars, label=label):
                    problems = _structure_checks(report, label, _squares(ring, scalars))
                    for i, row in enumerate(report.get("witness_rows", [])):
                        problems += certificate_recheck(
                            serialize.certificate_from_json(row), f"{label}.row{i}")
                    if len(report.get("witness_rows", [])) != 2:
                        problems.append(f"{label}: expected two witness rows")
                    return problems

                groups["gamma"].append(
                    _construct_cli(label, ["gamma", path, "--general"], gamma_check))
                work.write(f"fold_defect/koszul{d}.{c}/{rname}", serialize.dumps(m))
                groups["fold_defect"].append(_construct_api(
                    f"fold_defect/koszul{d}.{c}/{rname}",
                    lambda m=m: certificates.fold_defect_certificate(m, m.complex.top_degree)))

            s2 = (rng.choice((2, 3)), rng.choice((2, 5)))
            sub = koszul_tensor(rng, ring, s2, 2, 0)                    # ranks 2 4 2
            quot = disk_sum(rng, ring, (s2[1], s2[0]), ((3, 2), (2, 1)))
            incl, proj = randgen.split_row(rng, ring, sub, quot)
            label = f"glue.{c}/{rname}"
            path = work.write_doc(label, {
                "include": serialize.chain_map_to_json(incl),
                "project": serialize.chain_map_to_json(proj),
                "sub": serialize.structure_to_json(sub),
                "quotient": serialize.structure_to_json(quot)})
            products = [ring.mul(a, b) for a, b in zip(sub.scalars, quot.scalars)]
            groups["glue"].append(_construct_cli(
                label, ["glue", path],
                lambda r, label=label, products=products: _structure_checks(r, label, products)))

            # The projection of a direct sum onto a summand is equivariant, so
            # it serves both the mixed and the same-scalar cone.
            summand = disk_sum(rng, ring, s2, ((3, 2), (2, 1)))
            total = constructions.direct_sum(sub, summand)
            for mode in ("mixed", "same"):
                label = f"cone/{mode}.{c}/{rname}"
                path = work.write_doc(label, {
                    "map": serialize.chain_map_to_json(total.project[1]),
                    "source": serialize.structure_to_json(total.structure),
                    "target": serialize.structure_to_json(summand)})
                argv = ["cone", path] + (["--same"] if mode == "same" else [])
                want = list(s2) if mode == "same" else _squares(ring, s2)

                def cone_check(r, label=label, want=want):
                    problems = _structure_checks(r, label, want)
                    problems += _structure_checks(r["sub"], label + ".sub")
                    problems += _structure_checks(r["quotient"], label + ".quotient")
                    return problems

                groups["cone"].append(_construct_cli(label, argv, cone_check))

        rng = _rng(seed, "construct", "independence", c)
        for t in (2, 3):
            m1, m2 = randgen.lift_pair(rng, t)
            work.write(f"independence/{t}.{c}", serialize.dumps(m1) + serialize.dumps(m2))
            groups["independence"].append(_construct_api(
                f"independence/t{t}.{c}/Z",
                lambda m1=m1, m2=m2: certificates.structure_independence_certificate(m1, m2, 3)))
    return interleave(list(groups.values()))


# -- search --------------------------------------------------------------


def torsion_pieces(rng, n, t, k, torsion=1):
    """n pieces: ``torsion`` of them +-t^k and the rest +-1, in random order.

    Pieces with several different powers of t are left out: on such inputs
    smith_normal_form can return a D with off-diagonal entries, and the
    search then emits a wrong operator on some seeds but not others.
    """
    pieces = [t ** k] * torsion + [1] * (n - torsion)
    rng.shuffle(pieces)
    return [a * rng.choice((1, -1)) for a in pieces]


def _search_find(label, ring, ranks, diffs, t, expect: Callable, work: Workdir,
                 kept=False) -> Op:
    """``homcert homotopy find`` on a complex given by plain differentials."""
    mod = _modulus(ring)
    path = work.write(label, serialize.dumps(to_complex(ring, ranks, diffs)))
    plain = [[[v % mod if mod else v for v in row] for row in d] for d in diffs]

    def parse(o):
        return json.loads(o.out) if o.out else {}

    def gave_result(o: Outcome):
        if o.exc is not None:
            return False
        return o.code == 0 or (o.code == 1 and parse(o).get("obstructed") == [True])

    def check(o: Outcome):
        report = parse(o)
        want = expect()
        if o.code == 1:
            return [] if want is None else [f"obstruction reported, least exponent is {want}"]
        if report.get("exponents") != [want]:
            return [f"exponent {report.get('exponents')} != oracle {want}"]
        m = serialize.structure_from_json(report)
        ops = [[[list(r) for r in e.entries] for e in grid] for grid in m.ops]
        tk = t ** want
        return oracle.homotopy_problems(mod, ranks, plain, [tk % mod if mod else tk], ops)

    argv = ["homotopy", "find", path, "--gens", str(t)]
    return Op(label, lambda: run_cli(argv), check, gave_result, _streams, kept)


def _search_lift(label, ranks, diffs, t, seed, work: Workdir) -> Op:
    """``find_structure`` with an rng, which samples the kernel of the system."""
    x = to_complex(ZZ, ranks, diffs)
    work.write(label, serialize.dumps(x))
    lift_seed = f"{seed}/{label}"

    def call():
        res = structures.find_structure(x, (t,), rng=random.Random(lift_seed))
        return Outcome(0, "", "", value=res)

    def fingerprint(o: Outcome):
        res = o.value
        ops = None if res.structure is None else tuple(
            e.entries for grid in res.structure.ops for e in grid)
        return res.exponents, res.obstructed, ops

    def gave_result(o: Outcome):
        return o.exc is None and o.value.structure is not None

    def check(o: Outcome):
        want = oracle.least_exponent_z(ranks, diffs, t)
        res = o.value
        if list(res.exponents) != [want]:
            return [f"exponent {res.exponents} != oracle {want}"]
        ops = [[[list(r) for r in e.entries] for e in grid] for grid in res.structure.ops]
        return oracle.homotopy_problems(None, ranks, diffs, [t ** want], ops)

    return Op(label, call, check, gave_result, fingerprint)


# Each slot of the search appears this many times per round, in different
# bases: the cost of one search swings by up to 50% with the basis.
SEARCH_COPIES = 5


def build_search(seed: int, work: Workdir) -> list:
    groups = {k: [] for k in ("z2", "z3", "zmod", "field", "lift")}

    # Over Z: (pieces from degree 1, pieces from degree 2, t, least exponent,
    # torsion pieces below, torsion pieces above); ranks up to 8.
    z_slots = [(4, 0, 2, 5, 1, 0), (6, 0, 3, 7, 2, 0), (8, 0, 2, 12, 1, 0),
               (8, 0, 6, 3, 2, 0), (3, 3, 6, 4, 1, 1), (4, 4, 2, 9, 1, 1),
               (2, 3, 3, 11, 1, 0), (3, 4, 2, 6, 1, 1)]
    # Composite moduli: (modulus, t, pieces below, pieces above, the one
    # non-unit piece).  The other pieces are units, for the reason given
    # in torsion_pieces.
    zmod_slots = [(9, 3, 4, None, 0), (9, 3, 3, 3, 3), (8, 2, 4, None, 4), (8, 2, 3, 2, 0)]
    for c in range(SEARCH_COPIES):
        for n, (nl, nu, t, k, tl, tu) in enumerate(z_slots):
            rng = _rng(seed, "search", "Z", n, c)
            lower = torsion_pieces(rng, nl, t, k, tl)
            upper = torsion_pieces(rng, nu, t, k, tu) if nu else None
            ranks, diffs = split_complex(rng, lower, upper, light=True)
            terms = 3 if nu else 2
            groups[f"z{terms}"].append(_search_find(
                f"find/Z{terms}-{n}.{c}/t{t}", ZZ, ranks, diffs, t,
                lambda ranks=ranks, diffs=diffs, t=t: oracle.least_exponent_z(ranks, diffs, t),
                work))

        rng = _rng(seed, "search", "Z", "obstructed", c)
        ranks, diffs = split_complex(rng, torsion_pieces(rng, 3, 2, 4), free=(1, 0, 0),
                                     light=True)
        groups["z2"].append(_search_find(
            f"find/Z2-free.{c}/t2", ZZ, ranks, diffs, 2,
            lambda ranks=ranks, diffs=diffs: oracle.least_exponent_z(ranks, diffs, 2), work))

        for n, (mod, t, lower, upper, odd) in enumerate(zmod_slots):
            rng = _rng(seed, "search", "Zmod", n, c)
            lo = [odd] + [rng.choice((1, -1)) % mod for _ in range(lower - 1)]
            rng.shuffle(lo)
            up = None if upper is None else [rng.choice((1, -1)) % mod for _ in range(upper)]
            ranks, diffs = split_complex(rng, lo, up, light=True)
            want = oracle.least_exponent_pieces(lo + (up or []), t, mod)
            groups["zmod"].append(_search_find(
                f"find/Z{mod}-{n}.{c}/t{t}", Zmod(mod), ranks, diffs, t,
                lambda want=want: want, work))

        # Fields: an acyclic complex (exponent 1) and one with homology each.
        for rname, ring, mod in (("Q", QQ, None), ("Z10007", Zmod(10007), 10007)):
            rng = _rng(seed, "search", rname, c)
            for n, free in enumerate(((0, 0, 0), (0, 1, 0))):
                lo = [rng.choice((1, 2, 3, 5, -7)) for _ in range(3)]
                up = [rng.choice((1, 2, 3, 5, -7)) for _ in range(3)]
                ranks, diffs = split_complex(rng, lo, up, free, light=True)
                groups["field"].append(_search_find(
                    f"find/{rname}-{n}.{c}/t2", ring, ranks, diffs, 2,
                    lambda ranks=ranks, diffs=diffs, mod=mod:
                        oracle.least_exponent_field(ranks, diffs, mod), work))

        rng = _rng(seed, "search", "lift", c)
        ranks, diffs = split_complex(rng, torsion_pieces(rng, 3, 2, 6),
                                     torsion_pieces(rng, 2, 2, 6), light=True)
        groups["lift"].append(_search_lift(f"lift/split.{c}/t2/Z", ranks, diffs, 2, seed, work))

    for t in (2, 3):
        x = randgen.lift_pair_complex(t)
        diffs = [[list(r) for r in d.entries] for d in x.diffs]
        groups["lift"].append(_search_lift(f"lift/pair/t{t}/Z", list(x.ranks), diffs, t,
                                           seed, work))

    # Fixed input: the least exponent of Z --2^20--> Z at t = 2 is 20.
    groups["z2"].append(_search_find(
        "find/Z-2^20/t2", ZZ, [1, 1], [[[2 ** 20]]], 2, lambda: 20, work, kept=True))
    return interleave(list(groups.values()))


BUILDERS = {"certify": build_certify, "construct": build_construct, "search": build_search}
