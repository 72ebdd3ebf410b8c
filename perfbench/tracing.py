"""Per-layer spans and counts, recorded from outside homcert.

``Tracer.install()`` replaces the public functions of each homcert module
with wrappers, in the defining module and in every homcert module that
imported the name with ``from .x import y``, so calls between modules are
seen.  Nothing under ``src/`` changes, and ``uninstall()`` puts the
originals back.

A wrapper records a span only while ``enabled`` is set, which the benchmark
does around each timed operation.  The self time of a span is its duration
minus the durations of the wrapped calls it made; the bookkeeping of a
wrapper is charged to nobody.  A call made directly inside a span of the
same name (``solve_right`` reaching ``SmithSolver.solve``, nested decoders)
counts as part of the outer call.  Spans of the first traced round are kept
in memory and written out with the totals when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
from collections import defaultdict
from time import perf_counter

SPAN_LIMIT = 300_000


def _bits(mats):
    return max((abs(int(a)).bit_length() for m in mats for row in m.entries for a in row),
               default=0)


def _step_kinds(cert):
    kinds = {"ExactRow": "SES", "Contractible": "ACYCLIC", "Isomorphism": "ISO",
             "SuspensionPair": "SUSPEND"}
    out = defaultdict(int)
    for step in cert.steps:
        kind = kinds.get(type(step).__name__)
        if kind:
            out[kind] += 1
    return out


def _cli_file_bytes(argv):
    return sum(os.path.getsize(a) for a in argv if a.endswith(".json") and os.path.isfile(a))


class Tracer:
    def __init__(self):
        self.enabled = False
        self.keep_spans = False
        self.stack = []
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.maxima = defaultdict(int)
        self.spans = []
        self._patches = []
        self._op = None

    # -- recording --------------------------------------------------------

    def _wrap(self, name, fn, after=None, count_calls=True):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer.stack
            parent = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            result, done = None, False
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer.self_s[name] += (t1 - t0) - frame[1]
                if count_calls and (parent is None or parent[0] != name):
                    tracer.counts[name + ".calls"] += 1
                if done and after is not None:
                    after(tracer, args, result)
                if tracer.keep_spans and len(tracer.spans) < SPAN_LIMIT:
                    tracer.spans.append((tracer._op, name, len(stack), t0, t1))
                if parent is not None:
                    parent[1] += perf_counter() - t0

        return wrapper

    def op(self, label, fn):
        """Run one timed operation as the root span of its layer spans."""
        self._op = label
        frame = ["op", 0.0]
        self.stack.append(frame)
        self.enabled = True
        try:
            return fn()
        finally:
            self.enabled = False
            self.stack.pop()

    # -- patching -----------------------------------------------------------

    def _replace_everywhere(self, original, wrapped):
        for mod_name, mod in list(sys.modules.items()):
            if not (mod_name == "homcert" or mod_name.startswith("homcert.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapped)

    def _function(self, module, attr, name, after=None):
        original = getattr(module, attr)
        self._replace_everywhere(original, self._wrap(name, original, after))

    def _method(self, cls, attr, name, after=None, count_calls=True):
        original = cls.__dict__[attr]
        if isinstance(original, property):
            wrapped = property(self._wrap(name, original.fget, after, count_calls))
        else:
            wrapped = self._wrap(name, original, after, count_calls)
        self._patches.append((cls, attr, original))
        setattr(cls, attr, wrapped)

    def install(self):
        # import_module, because the package re-exports functions named
        # fold and koszul over these module names.
        (certificates, cli, complexes, constructions, exactalg, fold, koszul,
         serialize, structures) = (
            importlib.import_module("homcert." + name)
            for name in ("certificates", "cli", "complexes", "constructions", "exactalg",
                         "fold", "koszul", "serialize", "structures"))

        def madds(t, args, result):
            a, b = args
            t.counts["exactalg.matmul.madds"] += a.rows * a.cols * b.cols

        def smith(t, args, result):
            a = args[0]
            t.counts["exactalg.smith.cells"] += a.rows * a.cols
            u, _, v = result
            t.maxima["exactalg.smith.max_bits"] = max(
                t.maxima["exactalg.smith.max_bits"], _bits((u, v)))

        def system_cells(t, args, result):
            s = args[0].system
            t.counts["complexes.homotopy_system.cells"] += s.rows * s.cols

        def exponent_try(t, args, result):
            t.counts["structures.exponent_tries"] += 1

        def steps(t, args, result):
            for kind, n in _step_kinds(args[0]).items():
                t.counts["certificates.steps." + kind] += n

        def dumped(t, args, result):
            t.counts["serialize.bytes_out"] += len(result)

        def cli_io(t, args, result):
            argv = args[0] if args else []
            written = len(sys.stdout.getvalue()) if hasattr(sys.stdout, "getvalue") else 0
            t.counts["cli.stdout_bytes"] += written
            t.counts["serialize.bytes_out"] += written
            t.counts["serialize.bytes_in"] += _cli_file_bytes(argv)

        self._method(exactalg.Matrix, "__mul__", "exactalg.matmul", madds)
        self._function(exactalg, "smith_normal_form", "exactalg.smith", smith)
        self._function(exactalg, "solve_right", "exactalg.solve")
        self._method(exactalg.SmithSolver, "solve", "exactalg.solve")
        self._function(exactalg, "det", "exactalg.det")
        self._function(exactalg, "rank", "exactalg.rank")
        self._method(exactalg.ModularRing, "is_field", "exactalg.is_field")

        self._function(complexes, "homology_invariants", "complexes.homology")
        self._function(complexes, "check_ses", "complexes.check_ses")
        self._method(complexes.ChainMap, "is_chain_map", "complexes.is_chain_map")
        self._function(complexes, "find_contraction", "complexes.contraction")
        self._method(complexes.HomotopySystem, "__init__", "complexes.homotopy_system",
                     system_cells)
        self._method(complexes.HomotopySystem, "solve", "complexes.homotopy_system",
                     exponent_try, count_calls=False)

        self._function(structures, "check_structure", "structures.check_structure")
        self._function(structures, "is_equivariant", "structures.is_equivariant")
        self._function(structures, "find_structure", "structures.find_structure")

        for attr in ("cone_mixed", "cone_same", "mapping_cone"):
            self._function(constructions, attr, "constructions.cone")
        self._function(constructions, "glue_extension", "constructions.glue")
        for attr in ("peel_top", "peel_to_disks"):
            self._function(constructions, attr, "constructions.peel")
        self._function(constructions, "direct_sum", "constructions.direct_sum")

        self._function(koszul, "counit_map", "koszul.counit")
        self._function(koszul, "word_operator", "koszul.word_operator")
        self._function(fold, "fold_general", "fold.fold_general")
        self._function(fold, "fold_map", "fold.fold_map")

        self._function(certificates, "check_certificate", "certificates.check", steps)
        for attr in ("sum_certificate", "extension_certificate", "fold_row_certificates",
                     "fold_defect_certificate", "fold_identity_certificate",
                     "disk_transport_certificate", "peel_chain_certificate",
                     "structure_independence_certificate"):
            self._function(certificates, attr, "certificates.build")

        for attr in ("loads", "from_json", "certificate_from_json", "structure_from_json",
                     "complex_from_json", "chain_map_from_json"):
            self._function(serialize, attr, "serialize.loads")
        self._function(serialize, "dumps", "serialize.dumps", dumped)
        for attr in ("to_json", "certificate_to_json", "structure_to_json",
                     "chain_map_to_json", "complex_to_json"):
            self._function(serialize, attr, "serialize.dumps")

        self._function(cli, "main", "cli.main", cli_io)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


# Every per-layer metric the traced run reports, with its unit.
LAYER_METRICS = [
    ("exactalg.matmul.calls", "count"), ("exactalg.matmul.s", "s"),
    ("exactalg.matmul.madds", "count"),
    ("exactalg.smith.calls", "count"), ("exactalg.smith.s", "s"),
    ("exactalg.smith.cells", "count"), ("exactalg.smith.max_bits", "bits"),
    ("exactalg.solve.calls", "count"), ("exactalg.solve.s", "s"),
    ("exactalg.det.calls", "count"), ("exactalg.det.s", "s"),
    ("exactalg.rank.calls", "count"), ("exactalg.rank.s", "s"),
    ("exactalg.is_field.calls", "count"), ("exactalg.is_field.s", "s"),
    ("complexes.homology.calls", "count"), ("complexes.homology.s", "s"),
    ("complexes.check_ses.calls", "count"), ("complexes.check_ses.s", "s"),
    ("complexes.is_chain_map.calls", "count"), ("complexes.is_chain_map.s", "s"),
    ("complexes.contraction.calls", "count"), ("complexes.contraction.s", "s"),
    ("complexes.homotopy_system.calls", "count"), ("complexes.homotopy_system.s", "s"),
    ("complexes.homotopy_system.cells", "count"),
    ("structures.check_structure.calls", "count"), ("structures.check_structure.s", "s"),
    ("structures.is_equivariant.calls", "count"), ("structures.is_equivariant.s", "s"),
    ("structures.find_structure.calls", "count"), ("structures.find_structure.s", "s"),
    ("structures.exponent_tries", "count"),
    ("constructions.cone.calls", "count"), ("constructions.cone.s", "s"),
    ("constructions.glue.calls", "count"), ("constructions.glue.s", "s"),
    ("constructions.peel.calls", "count"), ("constructions.peel.s", "s"),
    ("constructions.direct_sum.calls", "count"), ("constructions.direct_sum.s", "s"),
    ("koszul.counit.calls", "count"), ("koszul.counit.s", "s"),
    ("koszul.word_operator.calls", "count"), ("koszul.word_operator.s", "s"),
    ("fold.fold_general.calls", "count"), ("fold.fold_general.s", "s"),
    ("fold.fold_map.calls", "count"), ("fold.fold_map.s", "s"),
    ("certificates.check.calls", "count"), ("certificates.check.s", "s"),
    ("certificates.build.calls", "count"), ("certificates.build.s", "s"),
    ("certificates.steps.SES", "count"), ("certificates.steps.ACYCLIC", "count"),
    ("certificates.steps.ISO", "count"), ("certificates.steps.SUSPEND", "count"),
    ("serialize.loads.s", "s"), ("serialize.dumps.s", "s"),
    ("serialize.bytes_in", "bytes"), ("serialize.bytes_out", "bytes"),
    ("cli.main.s", "s"), ("cli.stdout_bytes", "bytes"),
    ("trace.overhead", "ratio"),
]


def layer_values(tracer: Tracer, rounds: int) -> dict:
    """Per-round averages of every layer metric (maxima stay maxima)."""
    out = {}
    for name, _ in LAYER_METRICS:
        if name in tracer.maxima:
            out[name] = float(tracer.maxima[name])
        elif name.endswith(".s"):
            out[name] = tracer.self_s.get(name[:-2], 0.0) / rounds
        else:
            out[name] = tracer.counts.get(name, 0) / rounds
    return out
