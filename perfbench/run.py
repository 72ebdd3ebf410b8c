"""Benchmark for homcert: one workload per run, end to end or traced.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; homcert is imported from ``src/``.
A run sets up the workload's inputs from the seed (several times, timing
each), runs one untimed warm-up round whose outcomes are checked against
answers computed apart from homcert, and then repeats whole rounds of the
same operations until ``--seconds`` have passed.  Every later outcome must
equal the warm-up outcome of the same operation.  The last line of stdout is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
the first half of the time runs untraced and the second half traced, and
the metrics are the per-layer ones plus ``trace.overhead``, the ratio of the
median traced round to the median untraced round.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUPS = 5        # set-up is repeated and its median reported
MIN_ROUNDS = 3    # measured rounds per phase, however long a round takes

# The speed of a shared machine can drift by +-20% over seconds, for every
# process alike.  A fixed pure-Python integer kernel, timed before each
# operation, follows most of that drift; every reported time is scaled to
# the speed at which the kernel takes REFERENCE_CAL_S.
REFERENCE_CAL_S = 0.0025
_CAL_MATRIX = [tuple((7 * i + 3 * j) % 19 - 9 for j in range(16)) for i in range(16)]


def calibrate() -> float:
    """Seconds the calibration kernel takes now: four 16 x 16 products mod p."""
    a = _CAL_MATRIX
    t0 = perf_counter()
    for _ in range(4):
        cols = list(zip(*a))
        a = [tuple(sum(x * y for x, y in zip(row, col)) % 1000003 for col in cols)
             for row in a]
    return perf_counter() - t0


def load_homcert():
    """Import homcert from this checkout's sources, and nothing else."""
    src = ROOT / "src"
    if not (src / "homcert" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no homcert sources at {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import homcert
    if Path(homcert.__file__).resolve().parent != (src / "homcert").resolve():
        raise SystemExit(f"perfbench: imported homcert from {homcert.__file__}")


def set_up(build, seed, work_root):
    """Build the inputs SETUPS times; return the last ops, times and digests."""
    import corpus

    times, digests = [], []
    for _ in range(SETUPS):
        shutil.rmtree(work_root, ignore_errors=True)
        gc.collect()
        work = corpus.Workdir(work_root)
        cal = [calibrate() for _ in range(5)]
        t0 = perf_counter()
        ops = build(seed, work)
        elapsed = perf_counter() - t0
        cal += [calibrate() for _ in range(5)]
        times.append(elapsed * REFERENCE_CAL_S / statistics.median(cal))
        digests.append(work.sha.hexdigest())
    return ops, times, digests


def measure(ops, reference, seconds, call, after_round=None):
    """Whole rounds until ``seconds`` pass; per-round lists of scaled op times."""
    rounds, failed, drift = [], 0, set()
    deadline = perf_counter() + seconds
    while len(rounds) < MIN_ROUNDS or perf_counter() < deadline:
        times, cal = [], []
        for i, op in enumerate(ops):
            cal.append(calibrate())
            t0 = perf_counter()
            outcome = call(op)
            times.append(perf_counter() - t0)
            if not op.gave_result(outcome):
                failed += 1
            if op.fingerprint(outcome) != reference[i]:
                drift.add(op.label)
        scale = REFERENCE_CAL_S / statistics.median(cal)
        rounds.append([t * scale for t in times])
        if after_round is not None:
            after_round()
    return rounds, failed, drift


def quantile90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(ops, rounds, setup_times, peak_rss_mb):
    per_op = [statistics.median(r[i] for r in rounds) for i in range(len(ops))]
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (len(ops) / statistics.median(sum(r) for r in rounds), "1/s"),
        "op_s_p50": (statistics.median(per_op), "s"),
        "op_s_p90": (quantile90(per_op), "s"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
    }


def check_outcomes(ops, outcomes):
    problems = []
    for op, outcome in zip(ops, outcomes):
        if op.gave_result(outcome):
            problems += [f"{op.label}: {p}" for p in op.check(outcome)]
        elif not op.kept_failing:
            problems.append(f"{op.label}: failed ({outcome.exc or outcome.err.strip()})")
    return problems


def run(args, work_root):
    import corpus
    import tracing

    ops, setup_times, digests = set_up(corpus.BUILDERS[args.workload], args.seed, work_root)
    problems = [] if len(set(digests)) == 1 else ["set-up gave different inputs for one seed"]

    gc.collect()
    warmup = [op.call() for op in ops]
    reference = [op.fingerprint(o) for op, o in zip(ops, warmup)]

    if not args.trace:
        rounds, failed, drift = measure(ops, reference, args.seconds, lambda op: op.call())
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = end_to_end(ops, rounds, setup_times, peak_rss_mb)
        trace_doc = None
    else:
        half = args.seconds / 2
        plain, failed_plain, drift = measure(ops, reference, half, lambda op: op.call())
        tracer = tracing.Tracer()
        tracer.install()
        tracer.keep_spans = True

        def first_round_only():
            tracer.keep_spans = False

        traced_r, failed_traced, drift_traced = measure(
            ops, reference, half, lambda op: tracer.op(op.label, op.call), first_round_only)
        tracer.uninstall()
        rounds = plain + traced_r
        failed = failed_plain + failed_traced
        drift |= drift_traced
        overhead = (statistics.median(sum(r) for r in traced_r)
                    / statistics.median(sum(r) for r in plain))
        values = tracing.layer_values(tracer, len(traced_r))
        values["trace.overhead"] = overhead
        metrics = {name: (values[name], unit) for name, unit in tracing.LAYER_METRICS}
        trace_doc = {
            "workload": args.workload, "seed": args.seed, "traced_rounds": len(traced_r),
            "metrics": values,
            "ops": [op.label for op in ops],
            "op_median_s": [statistics.median(r[i] for r in traced_r) for i in range(len(ops))],
            "spans_first_round": [
                {"op": op, "name": name, "depth": depth, "start": t0, "end": t1}
                for op, name, depth, t0, t1 in tracer.spans],
        }

    problems += [f"{label}: outcome changed between rounds" for label in sorted(drift)]
    problems += check_outcomes(ops, warmup)
    for p in problems[:20]:
        print(f"perfbench: {p}", file=sys.stderr)
    per_op = {op.label: statistics.median(r[i] for r in rounds) for i, op in enumerate(ops)}
    result = {
        "correct": not problems,
        "attempted": len(rounds) * len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return result, trace_doc, per_op


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("certify", "construct", "search"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_homcert()
    OUT.mkdir(exist_ok=True)
    work_root = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        result, trace_doc, per_op = run(args, work_root)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
    stem = f"{args.workload}-seed{args.seed}"
    if trace_doc is not None:
        (OUT / f"trace-{stem}.json").write_text(json.dumps(trace_doc))
    (OUT / f"result-{stem}-trace{args.trace}.json").write_text(
        json.dumps(dict(result, op_median_s=per_op), indent=2))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
