#!/usr/bin/env python3
"""Genesis benchmark: one workload, one seed, one JSON line of metrics.

    python3 perfbench/run.py --workload accel_stages --seed 1 \\
        --seconds 10 --trace 0

Run from the root of a checkout. The first run builds the library and
the workload runner (perfbench/src) from source into $CARGO_TARGET_DIR,
or .bench_build when that is unset. The runner measures the workload and
writes raw samples; this script turns them into the metrics named in
BENCHMARK.json and prints them as the last line of standard output:

    {"correct": true, "attempted": 120, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(every other op traced, so the run also measures the tracing overhead).
Raw samples and spans of the last run of each workload and mode stay in
<build dir>/runs/.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import benchstats  # noqa: E402

WORKLOADS = ("accel_stages", "sql_queries", "service_mix", "dse_sweep")

# Ops whose counters two runs of one seed must report identically
# (kDeterministicOps in src/harness.h).
DETERMINISTIC_OPS = 8

# Span name -> (metric, unit, scale from seconds).
SPAN_METRICS = {
    "core.markdup.run": ("core.markdup.run_ms", "ms", 1e3),
    "core.metadata.run": ("core.metadata.run_ms", "ms", 1e3),
    "core.bqsr.run": ("core.bqsr.run_ms", "ms", 1e3),
    "sql.parse": ("sql.parse_us", "us", 1e6),
    "sql.plan": ("sql.plan_us", "us", 1e6),
    "sql.optimize": ("sql.optimize_us", "us", 1e6),
    "pipeline.map": ("pipeline.map_us", "us", 1e6),
    "runtime.configure_mem": ("runtime.configure_mem_ms", "ms", 1e3),
    "runtime.sim": ("runtime.sim_ms", "ms", 1e3),
    "runtime.flush": ("runtime.flush_ms", "ms", 1e3),
    "engine.exec.lookup": ("engine.exec_ms.lookup", "ms", 1e3),
    "engine.exec.join": ("engine.exec_ms.join", "ms", 1e3),
    "engine.script": ("engine.script_ms", "ms", 1e3),
    "dse.tojson": ("dse.tojson_ms", "ms", 1e3),
    "dse.check": ("dse.check_ms", "ms", 1e3),
}

# Counters the program returns per op, reported as their median over
# the run's successful ops: metric -> unit.
OP_MEDIANS = {
    "core.prep_ms": "ms",
    "core.host_ms": "ms",
    "core.batches": "count",
    "service.submit_us": "us",
    "service.run_ms": "ms",
    "dse.sweep_s": "s",
    "dse.cpu_s": "s",
    "dse.frontier_points": "count",
}

# Counters that depend only on the seed: the mean over the first
# DETERMINISTIC_OPS ops of a closed loop, or over the jobs of the
# service's serial determinism probe. metric -> unit.
DETERMINISTIC = {
    "model_s": "s",
    "sim.cycles": "count",
    "runtime.dma_model_s": "s",
    "runtime.accel_model_s": "s",
    "dse.points": "count",
    "dse.distinct_sims": "count",
    "dse.sim_cycles": "count",
    "engine.rows_out": "count",
}

SETUP_VALUES = {
    "genome.synth_s": "s",
    "gatk.golden_s": "s",
    "engine.golden_s": "s",
    "table.stats_ms": "ms",
}

SELF_LAYERS = ("bench", "core", "sql", "pipeline", "runtime", "engine",
               "service", "loadgen", "dse")


def build_dir():
    """A build directory of this checkout's own, under $CARGO_TARGET_DIR
    or .bench_build: two checkouts sharing the base never build each
    other's sources."""
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    key = hashlib.sha1(HERE.encode()).hexdigest()[:12]
    return os.path.join(base, "perfbench-" + key)


def build(out_dir):
    """Configure and build incrementally; logs go to stderr."""
    subprocess.run(["cmake", "-S", HERE, "-B", out_dir,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, check=True)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", out_dir, "-j", jobs,
                    "--target", "genesis_perfbench"],
                   stdout=sys.stderr, check=True)
    return os.path.join(out_dir, "genesis_perfbench")


def metric(value, unit):
    return {"value": value, "unit": unit}


def op_values(ops, name):
    return [op["values"][name] for op in ops if name in op["values"]]


def end_to_end(raw):
    ops = raw["ops"]
    done = [op for op in ops if op["ok"]]
    latencies = [op["latency_s"] * 1e3 for op in done]
    units = sum(op["units"] for op in done)
    if raw["open_loop"]:
        busy = raw["window_s"]
        cpu = raw["window_cpu_s"]
    else:
        busy = sum(op["latency_s"] for op in ops)
        cpu = sum(op["cpu_s"] for op in ops)
    return {
        "setup_s": metric(benchstats.median(raw["setup_s"]), "s"),
        "throughput_per_s": metric(units / busy, "units/s"),
        "latency_p50_ms": metric(benchstats.percentile(latencies, 50), "ms"),
        "cpu_ms_per_op": metric(cpu * 1e3 / len(ops), "ms"),
        "peak_rss_mb": metric(raw["peak_rss_mb"], "MiB"),
    }


def per_layer(raw):
    ops = raw["ops"]
    done = [op for op in ops if op["ok"]]
    traced_ok = {op["op"] for op in done if op["traced"]}
    spans = [s for s in raw["spans"] if s[1] in traced_ok]
    # The p90 is reported here, not gated with the end-to-end metrics:
    # across runs it spreads wider than any usable bound (README, Noise).
    # Only traced runs complete at least kTracedMinOps (100) ops, enough
    # to leave ten samples beyond it.
    out = {"latency_p90_ms": metric(benchstats.percentile(
        [op["latency_s"] * 1e3 for op in done], 90), "ms")}

    # Span durations summed per op, then the median over traced ops.
    per_op = {}
    for name, op, start, end, _ in spans:
        key = (name, op)
        per_op[key] = per_op.get(key, 0.0) + (end - start)
    for span_name, (name, unit, scale) in SPAN_METRICS.items():
        values = [v * scale for (n, _), v in per_op.items() if n == span_name]
        out[name] = metric(benchstats.median(values) if values else 0.0, unit)

    for name, unit in OP_MEDIANS.items():
        values = op_values(done, name)
        out[name] = metric(benchstats.median(values) if values else 0.0, unit)

    queue = op_values(done, "service.queue_ms")
    late = op_values(ops, "loadgen.late_ms")
    out["service.queue_ms.p50"] = metric(
        benchstats.percentile(queue, 50) if queue else 0.0, "ms")
    out["service.queue_ms.p90"] = metric(
        benchstats.percentile(queue, 90) if queue else 0.0, "ms")
    out["loadgen.late_ms"] = metric(
        benchstats.percentile(late, 90) if late else 0.0, "ms")

    # Simulated cycles per host second of the mapped query's start->wait.
    rates = []
    for op in done:
        sim = per_op.get(("runtime.sim", op["op"]))
        if sim and "runtime.sim_cycles" in op["values"]:
            rates.append(op["values"]["runtime.sim_cycles"] / sim / 1e6)
    out["sim.mcycles_per_s"] = metric(
        benchstats.median(rates) if rates else 0.0, "Mcycles/s")

    first = [op for op in ops if op["op"] < DETERMINISTIC_OPS]
    for name, unit in DETERMINISTIC.items():
        values = op_values(first, name)
        value = sum(values) / len(values) if values else 0.0
        out[name] = metric(raw["run_values"].get(name, value), unit)

    hits = sum(op_values(ops, "runtime.cache_hits"))
    misses = sum(op_values(ops, "runtime.cache_misses"))
    out["runtime.cache_hits"] = metric(hits, "count")
    out["runtime.cache_misses"] = metric(misses, "count")
    out["runtime.cache_hit_ratio"] = metric(
        hits / (hits + misses) if hits + misses else 0.0, "ratio")
    run_values = raw["run_values"]
    out["runtime.cache_evictions"] = metric(
        run_values.get("runtime.cache_evictions", 0), "count")
    out["service.rejected"] = metric(
        sum(op_values(ops, "service.rejected")), "count")
    out["service.failed"] = metric(
        sum(op_values(ops, "service.failed")), "count")

    for name, unit in SETUP_VALUES.items():
        values = raw["setup_values"].get(name, [])
        out[name] = metric(benchstats.median(values) if values else 0.0, unit)

    # Parent links index the full span list, so take self times over it.
    self_by_op = benchstats.self_times(raw["spans"])
    for layer in SELF_LAYERS:
        values = [self_by_op.get((op, layer), 0.0) * 1e3
                  for op in sorted(traced_ok)]
        out["self_ms." + layer] = metric(
            benchstats.median(values) if values else 0.0, "ms")

    traced = [op["latency_s"] for op in done if op["traced"]]
    untraced = [op["latency_s"] for op in done if not op["traced"]]
    overhead = 0.0
    if traced and untraced:
        overhead = (benchstats.median(traced) /
                    benchstats.median(untraced) - 1.0) * 100.0
    out["trace.overhead_pct"] = metric(overhead, "%")
    out["trace.spans"] = metric(len(raw["spans"]), "count")
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed non-negative")

    out_dir = build_dir()
    binary = build(out_dir)
    runs = os.path.join(out_dir, "runs")
    os.makedirs(runs, exist_ok=True)
    raw_path = os.path.join(runs, "%s-trace%d.json" % (
        args.workload, args.trace))
    subprocess.run([binary, "--workload", args.workload,
                    "--seed", str(args.seed),
                    "--seconds", repr(args.seconds),
                    "--trace", str(args.trace), "--out", raw_path],
                   stdout=sys.stderr, check=True)
    with open(raw_path) as f:
        raw = json.load(f)

    attempted = len(raw["ops"])
    failed = sum(1 for op in raw["ops"] if not op["ok"])
    for why in raw["failures"]:
        print("failed: " + why, file=sys.stderr)
    metrics = per_layer(raw) if args.trace else end_to_end(raw)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    try:
        main()
    except (subprocess.CalledProcessError, OSError, ValueError) as e:
        print("benchmark failed: %s" % e, file=sys.stderr)
        sys.exit(1)
