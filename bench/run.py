#!/usr/bin/env python3
"""grosscalc benchmark: four closed-loop workloads, checked end to end.

    python3 bench/run.py --workload repl_mix --seed 1 --seconds 20 --trace 0

Run from the repository root.  The program is imported from ./src, never
from an installed copy.  One client in one thread sends each op only after
the previous one returned.  A run generates one round of ops from the seed,
runs it once to warm up and to check every output against the reference
computations in ``gcheck``, then repeats whole rounds until ``--seconds``
of op time have passed; every later round must reproduce the checked
outputs.  The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, their times scaled
to a reference speed by a fixed pure-Python work interleaved with the ops;
with ``--trace 1`` untraced and traced rounds alternate and the metrics are
the per-layer ones, per round, from spans recorded around grosscalc's public
functions.  Details (scaling series, unscaled figures, spans) go to
bench/out/.  bench/README.md describes the workloads, checks and metrics.
"""
from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter, perf_counter_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# program start-ups measured per run, spread over the run; the median counts
SETUP_PROBES = 11
# the reference work runs after any op that ends 20 ms or more after the last
# reference run; times are scaled to a reference run of REFERENCE_US
REFERENCE_EVERY_NS = 20_000_000
REFERENCE_US = 1500.0
KEPT_FAULTS = ("ValueError", "RecursionError")
ROUNDTRIP_TYPES = ("count", "set", "signed_set", "bool", "critical_length")


def load_program():
    """Import grosscalc from ./src; exit 2 when the checkout has no program."""
    if not (SRC / "grosscalc" / "__init__.py").is_file():
        print(f"no program at {SRC}/grosscalc", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import grosscalc.cli as cli
    from grosscalc import errors, gclang, gnum, observer, oracle, posnum, setmeasure

    if Path(gclang.__file__).resolve().parent != SRC / "grosscalc":
        print(f"grosscalc was imported from {gclang.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return {"cli": cli, "errors": errors, "gclang": gclang, "gnum": gnum, "observer": observer,
            "oracle": oracle, "posnum": posnum, "setmeasure": setmeasure}


def setup_probe() -> float:
    """Seconds a fresh interpreter spends importing grosscalc and building
    the default environment: the start-up every `gc eval` pays."""
    out = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(SRC)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(out.stdout.split()[-1])


# --------------------------------------------------------------------------
# op runners: each returns a raw outcome that later rounds compare exactly


class Capture:
    """Stand-in for stdout while run_line prints its JSON lines."""

    def __init__(self):
        self.parts = []

    def write(self, text):
        self.parts.append(text)
        return len(text)

    def flush(self):
        pass


def make_runner(workload, ops, m):
    gclang, oracle, GrossError = m["gclang"], m["oracle"], m["errors"].GrossError
    env = gclang.default_env()
    if workload == "repl_mix":
        cli, capture = m["cli"], Capture()
        parts = capture.parts

        def run(op):
            n = len(parts)
            try:
                cli.run_line(op.text, env, True, None)
            except Exception as err:  # the kept faults escape run_line
                return ("crash", type(err).__name__)
            return "".join(parts[n:])

        return run, capture

    if workload == "oracle_sweep":
        setmeasure = m["setmeasure"]
        exprs = {id(op): build_expr(op.spec, setmeasure) for op in ops}

        def run(op):
            expr = exprs[id(op)]
            try:
                reports = [oracle.check_card(expr, L) for L in oracle.admissible_points(expr)]
            except GrossError as err:
                return ("error", err.kind)
            except Exception as err:
                return ("crash", type(err).__name__)
            return ("reports", tuple((r.L, r.symbolic_value, r.brute_value, r.match) for r in reports))

        return run, None

    def run(op):
        try:
            value = gclang.evaluate(gclang.parse(op.text), env)
            return ("value", gclang.render_value(value), gclang.type_tag(value))
        except GrossError as err:
            return ("error", err.kind)
        except Exception as err:
            return ("crash", type(err).__name__)

    return run, None


def build_expr(spec, sm):
    kind = spec[0]
    if kind == "ap":
        return sm.ProgressionE(spec[1], spec[2])
    if kind == "fin":
        return sm.FiniteSetE(frozenset(spec[1]))
    if kind == "N":
        return sm.UniverseNE()
    if kind == "compl":
        return sm.ComplementE(build_expr(spec[1], sm))
    op = {"union": sm.SetOp.UNION, "intersect": sm.SetOp.INTERSECT,
          "difference": sm.SetOp.DIFFERENCE}[kind]
    return sm.CombineE(op, build_expr(spec[1], sm), build_expr(spec[2], sm))


def decode(raw):
    if isinstance(raw, tuple):
        return raw
    doc = json.loads(raw)
    if "error" in doc:
        return ("error", doc["error"]["kind"])
    return ("value", doc["value"], doc["type"])


# --------------------------------------------------------------------------
# checking


def verdicts(ops, raws, m):
    """Per op: "ok", "fault" (a kept fault: failed, not wrong) or a message."""
    gclang = m["gclang"]

    def roundtrip(text):
        return gclang.render_value(gclang.eval_text(text)) == text

    out = []
    for op, raw in zip(ops, raws):
        outcome = decode(raw)
        if outcome[0] == "crash":
            out.append("fault" if op.fault and outcome[1] in KEPT_FAULTS
                       else f"{op.text[:80]!r}: crashed with {outcome[1]}")
            continue
        if op.fault:
            message = None  # a typed refusal or any value that round-trips
        else:
            try:
                message = op.check(outcome)
            except Exception as err:  # a reference that cannot read the output
                message = f"check raised {type(err).__name__}: {err}"
        if message is None and outcome[0] == "value" and outcome[2] in ROUNDTRIP_TYPES:
            if not roundtrip(outcome[1]):
                message = f"{outcome[1]!r} does not parse back to an equal value"
        out.append("ok" if message is None else f"{op.text[:80]!r}: {message}")
    return out


# --------------------------------------------------------------------------
# measuring


def reference_work():
    """Fixed pure-Python work, independent of grosscalc, that tracks how fast
    the machine runs interpreter code at the moment: rational arithmetic,
    dict and set updates, a sort, string formatting and set algebra."""
    acc, seen, f = {}, set(), Fraction(0)
    for i in range(1, 300):
        f += Fraction(i % 7 + 1, i % 5 + 1)
        acc[i % 37] = acc.get(i % 37, 0) + i
        seen.add(i * 7919 % 10007)
    items = sorted(acc.items(), key=lambda kv: (kv[1] % 13, kv[0]))
    text = ",".join(f"{k}:{v}" for k, v in items)
    big = set(range(0, 6000, 3)) | set(range(0, 6000, 5))
    return len(text) + len(big) + len(seen) + f.numerator % 7


def run_round(ops, run, lat, refs=None):
    """One pass over the ops; with `refs`, the reference work is interleaved
    (outside the op timings) and its durations appended there."""
    raws = []
    last = perf_counter_ns()
    for i, op in enumerate(ops):
        t0 = perf_counter_ns()
        raw = run(op)
        t1 = perf_counter_ns()
        lat[i].append(t1 - t0)
        raws.append(raw)
        if refs is not None and t1 - last >= REFERENCE_EVERY_NS:
            reference_work()
            last = perf_counter_ns()
            refs.append(last - t1)
    return raws


def quantile(sorted_values, q):
    """Nearest-rank quantile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("repl_mix", "gross_poly", "coprime_sets", "oracle_sweep"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    m = load_program()
    sys.path.insert(0, str(HERE))
    import workloads

    ops = getattr(workloads, args.workload)(args.seed)
    n = len(ops)
    run, capture = make_runner(args.workload, ops, m)
    real_stdout = sys.stdout
    if capture is not None:
        sys.stdout = capture
    try:
        raws0 = run_round(ops, run, [[] for _ in ops])
    finally:
        sys.stdout = real_stdout
    status = verdicts(ops, raws0, m)
    wrong = [s for s in status if s not in ("ok", "fault")]
    for s in wrong[:20]:
        print("WRONG", s, file=sys.stderr)

    if args.trace:
        metrics, rounds, changed = traced(args, ops, run, capture, raws0, m)
    else:
        metrics, rounds, changed = measured(args, ops, run, capture, raws0)
    for i in changed[:20]:
        print("CHANGED", repr(ops[i].text[:80]), file=sys.stderr)

    failing = sum(1 for s in status if s != "ok")
    attempted = n * (rounds + 1)
    failed = failing * (rounds + 1) + len(changed)
    result = {"correct": not wrong and not changed, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


def measured(args, ops, run, capture, raws0):
    """Repeat whole rounds until --seconds of op time, with start-up probes
    spread between them, and compute the end-to-end metrics.

    The machine's speed drifts under other tenants' load by tens of percent
    within minutes.  Each round's op times and the probes that follow it are
    therefore scaled by REFERENCE_US over that round's median reference
    time: the figures read as on a machine that runs the reference work in
    REFERENCE_US.  The unscaled figures go to the details file."""
    lat = [[] for _ in ops]
    scales, times, probes, raw_probes, changed = [], [], [], [], set()
    real_stdout = sys.stdout
    while not times or sum(times) < args.seconds:
        refs = []
        if capture is not None:
            capture.parts.clear()
            sys.stdout = capture
        try:
            t0 = perf_counter()
            raws = run_round(ops, run, lat, refs)
            times.append(perf_counter() - t0 - sum(refs) / 1e9)
        finally:
            sys.stdout = real_stdout
        changed.update(i for i, (a, b) in enumerate(zip(raws, raws0)) if a != b)
        refs.append(_timed_reference())
        scales.append(REFERENCE_US * 1000 / statistics.median(refs))
        done = SETUP_PROBES if sum(times) >= args.seconds else SETUP_PROBES * sum(times) / args.seconds
        while len(probes) < done:
            raw_probes.append(setup_probe())
            probes.append(raw_probes[-1] * scales[-1])
    failed_ops = {i for i, raw in enumerate(raws0) if isinstance(raw, tuple) and raw[0] == "crash"}
    per_op = [statistics.median(ns * k for ns, k in zip(x, scales)) / 1000 for x in lat]
    scaled = timing_figures(per_op, failed_ops, probes)
    unscaled = timing_figures([statistics.median(x) / 1000 for x in lat], failed_ops, raw_probes)
    metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in scaled.items()}
    metrics["peak_rss_mb"] = {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"}
    write_details(args, ops, per_op, times, scales, unscaled, raw_probes)
    return metrics, len(times), sorted(changed)


UNITS = {"throughput_ops_s": "ops/s", "latency_p50_us": "us", "latency_p99_us": "us", "setup_s": "s"}


def timing_figures(per_op, failed_ops, probes):
    """Throughput at the per-op medians, their p50 and p99 (failed ops sort
    above every success), and the median start-up probe."""
    ranked = sorted(math.inf if i in failed_ops else us for i, us in enumerate(per_op))
    return {
        "throughput_ops_s": len(per_op) / (sum(per_op) / 1e6),
        "latency_p50_us": quantile(ranked, 0.50),
        "latency_p99_us": quantile(ranked, 0.99),
        "setup_s": statistics.median(probes),
    }


def _timed_reference():
    t0 = perf_counter_ns()
    reference_work()
    return perf_counter_ns() - t0


def write_details(args, ops, per_op, times, scales, unscaled, raw_probes):
    """Per-series median latencies (the scaling curves, scaled) and run facts."""
    series = {}
    for op, us in zip(ops, per_op):
        if op.tag:
            series.setdefault(op.tag, []).append(us)
    doc = {
        "workload": args.workload, "seed": args.seed, "ops_per_round": len(ops),
        "rounds": len(times), "round_s": times, "round_scale": scales,
        "unscaled": unscaled, "setup_probes_s": raw_probes,
        "series_median_us": {k: [len(v), statistics.median(v)] for k, v in sorted(series.items())},
        "python": sys.version.split()[0],
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}.json").write_text(json.dumps(doc, indent=1))


# --------------------------------------------------------------------------
# traced run

PER_LAYER_SPANS = (
    "cli.run_line", "gclang.parse", "gclang.evaluate", "gclang.render_value", "gnum.arith",
    "gnum.compare", "setmeasure.combine", "setmeasure.nat_subset", "setmeasure.build",
    "oracle.check_card", "posnum", "observer",
)
SELF_ONLY = (
    "setmeasure.complement", "setmeasure.card", "setmeasure.members", "oracle.brute_count",
    "oracle.subst", "oracle.admissible_points",
)
COUNTERS = {
    "gclang.ast_nodes": "count", "gclang.render_chars": "chars",
    "gnum.result_terms.max": "count", "gnum.result_terms.sum": "count",
    "gnum.exponent_depth.max": "count",
    "setmeasure.combine.lcm_sum": "count", "setmeasure.combine.lcm_max": "count",
    "setmeasure.nat_subset.modulus_sum": "count", "setmeasure.residues.max": "count",
    "setmeasure.progression.holes_sum": "count", "oracle.brute_points_sum": "count",
}


def traced(args, ops, run, capture, raws0, m):
    """Alternate untraced and traced rounds; per-layer figures per round."""
    from tracer import Tracer

    tracer = Tracer(m)
    plain, traced_times, selfs, first = [], [], [], None
    changed = set()
    real_stdout = sys.stdout
    while not traced_times or sum(plain) + sum(traced_times) < args.seconds:
        for on in (False, True):
            if on:
                tracer.reset()
                tracer.install()
            if capture is not None:
                capture.parts.clear()
                sys.stdout = capture
            try:
                t0 = perf_counter()
                raws = []
                for i, op in enumerate(ops):
                    tracer.op = i
                    raws.append(run(op))
                elapsed = perf_counter() - t0
            finally:
                sys.stdout = real_stdout
                tracer.uninstall()
            changed.update(i for i, (a, b) in enumerate(zip(raws, raws0)) if a != b)
            (traced_times if on else plain).append(elapsed)
            if on:
                selfs.append(tracer.self_times())
                if first is None:
                    first = (tracer.spans, dict(tracer.counters))
    spans, counters = first
    metrics = {}
    for name in PER_LAYER_SPANS:
        metrics[f"{name}.calls"] = {"value": selfs[0].get(name, (0, 0))[0], "unit": "count"}
    for name in PER_LAYER_SPANS + SELF_ONLY:
        metrics[f"{name}.self_us"] = {
            "value": statistics.median(s.get(name, (0, 0))[1] for s in selfs) / 1000, "unit": "us"}
    for name, unit in COUNTERS.items():
        metrics[name] = {"value": counters.get(name, 0), "unit": unit}
    out_bytes = sum(len(r.encode()) for r in raws0 if isinstance(r, str))
    metrics["cli.output_bytes"] = {"value": out_bytes, "unit": "bytes"}
    metrics["oracle.builds_per_recipe"] = {
        "value": counters.get("setmeasure.build.top", 0) / len(ops), "unit": "ratio"}
    metrics["trace.spans"] = {"value": len(spans), "unit": "count"}
    metrics["trace.overhead_pct"] = {
        "value": 100 * (statistics.median(traced_times) / statistics.median(plain) - 1), "unit": "%"}
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl", "w") as fh:
        for s in spans:
            fh.write(json.dumps({"name": s[0], "start_ns": s[1], "end_ns": s[2], "parent": s[3],
                                 "op": s[4], "self_ns": s[2] - s[1] - s[5]}) + "\n")
    return metrics, len(plain) + len(traced_times), sorted(changed)


if __name__ == "__main__":
    sys.exit(main())
