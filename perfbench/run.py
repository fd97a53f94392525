"""Run one benchmark workload against the program in ``src/``.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig8-mix --seed 7 --seconds 28 \\
        --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` measures the per-layer metrics: it counts work over the
untimed window, then times half of ``--seconds`` untraced and half traced
(its throughput against the untraced half is the tracing overhead).

Every metric is printed with its unit; the last stdout line is the JSON
result ``{"correct", "attempted", "failed", "metrics"}``.  The full run
record (seed, commit, Python, nproc, ``REPRO_*`` variables, exact work
counts) goes to ``.perfbench_out/`` with the traced run's spans.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import sys
from statistics import median
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

#: knobs that add modeled (slept) latency; the benchmark measures none
MODELED_LATENCY_KNOBS = ("REPRO_WAL_FSYNC_LATENCY_MS",)
SETUP_REPEATS = 5
#: ops per block for the block-median p99 (each block has 20 ops beyond
#: its p99); a phase with fewer ops is one block
P99_BLOCK_OPS = 2000
#: a failed op misses every latency limit; printed in place of infinity
FAILED_LATENCY_MS = 1e9

END_TO_END = [
    ("setup_s", "s"),
    ("throughput_ops_s", "ops/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("success_rate", "ratio"),
    ("peak_rss_mb", "MB"),
]
#: reported by ``linkbench-durable`` only, beside the end-to-end metrics
DURABLE_ONLY = [
    ("write_latency_p50_ms", "ms"),
    ("write_latency_p99_ms", "ms"),
    ("disk_mb", "MB"),
    ("recovery_s", "s"),
]
PER_LAYER = [
    ("gremlin.parse_us", "us"),
    ("translate.us", "us"),
    ("translate.cache_hit_ratio", "ratio"),
    ("sql.prepare_us", "us"),
    ("plan_cache.hit_ratio", "ratio"),
    ("planner.plan_us", "us"),
    ("planner.cte_us", "us"),
    ("executor.us", "us"),
    ("executor.rows_per_result", "count"),
    ("pages.hit_ratio", "ratio"),
    ("pages.misses_per_op", "count"),
    ("pages.evictions_per_op", "count"),
    ("index.probes_per_op", "count"),
    ("lock.us", "us"),
    ("lock.acquisitions_per_op", "count"),
    ("lock.wait_us", "us"),
    ("wal.records_per_write", "count"),
    ("wal.bytes_per_write", "bytes"),
    ("wal.append_us", "us"),
    ("wal.commit_us", "us"),
    ("wal.fsyncs_per_write", "count"),
    ("wal.checkpoints", "count"),
    ("wal.checkpoint_ms", "ms"),
    ("recovery.replayed_records", "count"),
    ("crud.us", "us"),
    ("crud.statements_per_write", "count"),
    ("wire.encode_us", "us"),
    ("wire.decode_us", "us"),
    ("wire.bytes_per_op", "bytes"),
    ("server.handle_us", "us"),
    ("wire.overhead_us", "us"),
    ("store.us", "us"),
    ("trace.untraced_ops_s", "ops/s"),
    ("trace.traced_ops_s", "ops/s"),
    ("trace.throughput_ratio", "ratio"),
]
#: per-layer metrics that depend on timing, not only on the seed
TIMING_DEPENDENT_COUNTS = ("wal.fsyncs_per_write", "lock.wait_us")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# the run record
# ----------------------------------------------------------------------
def git_commit():
    """HEAD of the checkout's git repository, if it has one."""
    git_dir = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git_dir, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as handle:
                return handle.read().strip()
        with open(os.path.join(git_dir, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return None
    return None


def source_digest():
    """sha256 over ``src/`` — identifies the code where git is absent."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for directory, dirs, names in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(names):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def run_record(args):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "repro_env": {
            key: value for key, value in sorted(os.environ.items())
            if key.startswith("REPRO_")
        },
    }


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def percentile(values, q):
    """Nearest-rank percentile of *values* (seconds) in ms, and the
    number of samples above it."""
    ordered = sorted(values)
    if not ordered:
        return 0.0, 0
    rank = max(1, math.ceil(q * len(ordered)))
    value = ordered[rank - 1]
    value_ms = value * 1e3 if math.isfinite(value) else FAILED_LATENCY_MS
    return value_ms, len(ordered) - rank


def end_to_end(setup_times, phase, rss_mb):
    """``latency_p99_ms`` is the median over blocks of P99_BLOCK_OPS
    consecutive ops of each block's p99: on a shared machine, a slow spell
    lasting a few seconds moves it less than a p99 over the whole phase."""
    p50, __ = percentile(phase.latencies, 0.50)
    blocks = phase.blocks(P99_BLOCK_OPS)
    p99 = median(percentile(block, 0.99)[0] for block in blocks)
    beyond = min(percentile(block, 0.99)[1] for block in blocks)
    metrics = {
        "setup_s": median(setup_times),
        "throughput_ops_s": phase.ops_per_second,
        "latency_p50_ms": p50,
        "latency_p99_ms": p99,
        "success_rate": (phase.attempted - phase.failed) / phase.attempted,
        "peak_rss_mb": rss_mb,
    }
    notes = {
        "samples": len(phase.latencies),
        "p99_blocks": len(blocks),
        "samples_beyond_p99": beyond,
        "whole_phase_p99_ms": percentile(phase.latencies, 0.99)[0],
        "setup_times_s": setup_times,
        "error_rate": phase.failed / phase.attempted,
    }
    return metrics, notes


def durable_only(phase, extra):
    p50, __ = percentile(phase.write_latencies, 0.50)
    p99, beyond = percentile(phase.write_latencies, 0.99)
    metrics = {
        "write_latency_p50_ms": p50,
        "write_latency_p99_ms": p99,
        "disk_mb": extra["disk_mb"],
        "recovery_s": extra["recovery_s"],
    }
    return metrics, {"write_samples": len(phase.write_latencies),
                     "write_samples_beyond_p99": beyond}


def _ratio(part, whole):
    return part / whole if whole else 0.0


def per_layer(counts, window, untraced, traced, report, extra):
    """Per-layer metrics.  ``*_us`` is mean self time per op of the traced
    half (``wal.*``/``crud.*``: per write op); counts come from the
    untimed window, where they repeat exactly for a seed."""
    spans = report["spans"]

    def self_us(name, per):
        return _ratio(spans.get(name, {}).get("self_s", 0.0), per) * 1e6

    def mean_total_s(name):
        entry = spans.get(name)
        return _ratio(entry["total_s"], entry["count"]) if entry else 0.0

    checkpoint = spans.get("wal.checkpoint", {"total_s": 0.0, "count": 0})

    ops = traced.attempted
    writes = len(traced.write_latencies)
    window_ops = window.attempted
    window_writes = len(window.write_latencies)
    overhead = 0.0
    if "server.handle" in spans:
        completed = [x for x in traced.latencies if math.isfinite(x)]
        overhead = (_ratio(sum(completed), len(completed))
                    - mean_total_s("server.handle")) * 1e6
    page_lookups = counts["page_hits"] + counts["page_misses"]
    return {
        "gremlin.parse_us": self_us("gremlin.parse", ops),
        "translate.us": self_us("translate", ops),
        "translate.cache_hit_ratio": _ratio(
            counts["translation_hits"],
            counts["translation_hits"] + counts["translation_misses"]),
        "sql.prepare_us": self_us("sql.prepare", ops),
        "plan_cache.hit_ratio": _ratio(
            counts["plan_hits"], counts["plan_hits"] + counts["plan_misses"]),
        "planner.plan_us": self_us("planner.plan", ops),
        "planner.cte_us": self_us("planner.cte", ops),
        "executor.us": self_us("executor", ops),
        "executor.rows_per_result": _ratio(
            counts["operator_rows"], counts["result_rows"]),
        "pages.hit_ratio": _ratio(counts["page_hits"], page_lookups),
        "pages.misses_per_op": _ratio(counts["page_misses"], window_ops),
        "pages.evictions_per_op": _ratio(counts["page_evictions"], window_ops),
        "index.probes_per_op": _ratio(
            counts["index_probes"] + counts["index_range_scans"], window_ops),
        "lock.us": self_us("lock", ops),
        "lock.acquisitions_per_op": _ratio(
            counts["lock_acquisitions"], window_ops),
        "lock.wait_us": _ratio(report["lock_wait_s"], ops) * 1e6,
        "wal.records_per_write": _ratio(counts["wal_records"], window_writes),
        "wal.bytes_per_write": _ratio(counts["wal_bytes"], window_writes),
        "wal.append_us": self_us("wal.append", writes),
        "wal.commit_us": self_us("wal.commit", writes),
        "wal.fsyncs_per_write": _ratio(report["wal_fsyncs"], writes),
        "wal.checkpoints": counts["wal_checkpoints"],
        # checkpoints are rare: average those of the window and the
        # traced half
        "wal.checkpoint_ms": _ratio(
            counts["checkpoint_s"] + checkpoint["total_s"],
            counts["wal_checkpoints"] + checkpoint["count"]) * 1e3,
        "recovery.replayed_records": extra.get("recovery_replayed_records", 0),
        "crud.us": self_us("crud", writes),
        "crud.statements_per_write": _ratio(
            counts["row_writes"], window_writes),
        "wire.encode_us": self_us("wire.encode", ops),
        "wire.decode_us": self_us("wire.decode", ops),
        "wire.bytes_per_op": _ratio(report["wire_bytes"], ops),
        "server.handle_us": self_us("server.handle", ops),
        "wire.overhead_us": overhead,
        "store.us": self_us("op", ops),
        "trace.untraced_ops_s": untraced.ops_per_second,
        "trace.traced_ops_s": traced.ops_per_second,
        "trace.throughput_ratio": _ratio(
            traced.ops_per_second, untraced.ops_per_second),
    }


def print_metrics(title, metrics, units):
    print(title)
    for name, unit in units:
        if name in metrics:
            print(f"  {name:<28} {metrics[name]:>14.6g} {unit}")


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------
def measure(workload, seconds, traced):
    """Set up, run the untimed window, check, time; returns the results."""
    from spans import Tracer

    result = {"counts": None, "report": None}
    workload.generate()
    setup_times = []
    for attempt in range(SETUP_REPEATS):
        if attempt:
            workload.teardown()
        started = perf_counter()
        workload.setup(attempt)
        setup_times.append(perf_counter() - started)
    if traced:
        workload.start_count()
    window = workload.phase(max_ops=workload.window_ops)
    if traced:
        result["counts"] = workload.stop_count()
    workload.after_window()
    if not traced:
        phases = [workload.phase(seconds=seconds)]
    else:
        untraced = workload.phase(seconds=seconds / 2)
        tracer = Tracer()
        workload.start_trace(tracer)
        try:
            traced_phase = workload.phase(seconds=seconds / 2, tracer=tracer)
        finally:
            result["report"] = workload.stop_trace(tracer)
        tracer.write(os.path.join(
            OUT_DIR, f"spans-{workload.name}-seed{workload.seed}.jsonl"))
        phases = [untraced, traced_phase]
    workload.finish()
    result.update(
        setup_times=setup_times, window=window, phases=phases,
        rss_mb=workload.peak_rss_mb(),
    )
    return result


def main(argv=None):
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        fail(f"no program to measure: {os.path.join(ROOT, 'src', 'repro')} "
             "is missing")
    for knob in MODELED_LATENCY_KNOBS:
        if os.environ.get(knob, "0").strip() not in ("", "0"):
            fail(f"{knob} models latency; unset it to benchmark")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from workloads import WORKLOADS

    args = parse_args(argv, sorted(WORKLOADS))
    traced = bool(args.trace)
    record = run_record(args)
    os.makedirs(OUT_DIR, exist_ok=True)
    work_dir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(work_dir)
    workload = WORKLOADS[args.workload](args.seed, ROOT, work_dir, traced)
    try:
        result = measure(workload, args.seconds, traced)
    finally:
        workload.close()
        shutil.rmtree(work_dir, ignore_errors=True)

    phases = result["phases"]
    window = result["window"]
    issued = [window] + phases
    attempted = sum(phase.attempted for phase in issued)
    failed = sum(phase.failed for phase in issued)
    checks = dict(workload.checks)
    checks["every answer checked equals the expected answer"] = not any(
        phase.mismatches for phase in issued)
    correct = all(checks.values())
    errors = [error for phase in issued for error in phase.errors]

    metrics, notes = end_to_end(result["setup_times"], phases[0],
                                result["rss_mb"])
    record.update(end_to_end=metrics, notes=notes, checks=checks,
                  errors=errors)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"commit={record['commit']} python={record['python']} "
          f"nproc={record['nproc']} repro_env={record['repro_env']}")
    print(f"  one closed-loop caller; {notes['samples']} timed ops, "
          f"p99 is the median of {notes['p99_blocks']} blocks, each with "
          f"at least {notes['samples_beyond_p99']} ops beyond its p99; "
          f"error_rate={notes['error_rate']:.6g}")
    print_metrics("end-to-end" + (" (untraced half)" if traced else ""),
                  metrics, END_TO_END)
    if "recovery_s" in workload.extra:
        durable, durable_notes = durable_only(phases[0], workload.extra)
        record.update(durable=durable, durable_notes=durable_notes)
        print_metrics("linkbench-durable only", durable, DURABLE_ONLY)
    output = metrics
    units = END_TO_END
    if traced:
        layers = per_layer(result["counts"], window, phases[0], phases[1],
                           result["report"], workload.extra)
        record.update(per_layer=layers, counts=result["counts"],
                      spans=result["report"]["spans"])
        print(f"exact work counts over the first {window.attempted} ops "
              f"(repeat for a seed):")
        for name, value in sorted(result["counts"].items()):
            print(f"  {name:<28} {value}")
        print_metrics("per layer", layers, PER_LAYER)
        print(f"  timing-dependent: {', '.join(TIMING_DEPENDENT_COUNTS)}")
        output, units = layers, PER_LAYER
    for name, passed in checks.items():
        print(f"  check: {name}: {'ok' if passed else 'FAILED'}")
    for error in errors:
        print(f"  error: {error}")
    record_path = os.path.join(
        OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record_path, "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": output[name], "unit": unit}
            for name, unit in units
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
