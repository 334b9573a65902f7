#!/usr/bin/env python3
"""Regression gate for the F1 mediation figures.

Compares fresh BENCH_f1 figures against the committed baseline
(ci/bench_f1_baseline.json) on the *stats overhead ratio*:

    ratio = figure(BM_CheckNode_DacMacCached)
          / figure(BM_CheckNode_DacMacCached_NoStats)

The fresh figures may come from several files, one per benchmark process.
A benchmark's figure is the minimum, across processes, of each process's
median over its repetitions: one process that the host slowed down does
not decide a clause, where a single run's ratio flipped with host noise.
The baseline is one file, so its figure is its median.

The ratio is the cached-check cost with MonitorStats on, relative to the
same path with stats compiled out of the decision — i.e. exactly the
hot-path budget the stats layer is held to. Using the ratio (not absolute
numbers) keeps the gate portable across machines: both measurements come
from the same run, so CPU speed and virtualization noise cancel.

MonitorStats is the monitor's only decision counter, so the NoStats side
counts no decision at all and the ratio carries every counting cost on the
check path. The committed baseline was recorded when both sides also paid
two shared fetch_adds per check (an audit-log total and a per-shard check
counter, since folded into MonitorStats); the stats-on side is cheaper now,
but the NoStats side is cheaper still, so the ratio is expected to read
above that baseline.

The metric is per-iteration instructions retired when BOTH files carry the
INSTRUCTIONS perf counter for both benchmarks (run_checks.sh requests it
via --benchmark_perf_counters=INSTRUCTIONS); an instruction count is
deterministic, so the gate is immune to frequency scaling and scheduler
noise. Files without the counter — libpfm-less builds, locked-down
perf_event — fall back to median cpu_time.

Fails (exit 1) when the fresh ratio exceeds the baseline ratio by more
than --tolerance (default 10%).

A second gate reads the fresh files alone: Kernel::Invoke by a
3-component path against a call through a capability to the same
procedure,

    invoke ratio = figure(BM_InvokePath, cpu_time)
                 / figure(BM_CapabilityCall, cpu_time)   must be <= --max-invoke-ratio

The two differ by CheckPath's resolution and traversal checks, which a
resolved-path cache entry answers with one probe. Same-run figures, so host
speed cancels.

Usage: check_bench_f1.py <fresh.json>... <baseline.json> [--tolerance 0.10]
                         [--max-invoke-ratio 3.5]
"""

import argparse
import json
import statistics
import sys

CACHED = "BM_CheckNode_DacMacCached"
NOSTATS = "BM_CheckNode_DacMacCached_NoStats"
INVOKE = "BM_InvokePath"
CAPABILITY = "BM_CapabilityCall"
COUNTER = "INSTRUCTIONS"


def load(path):
    """Parses `path` and validates it actually carries benchmark data.

    A missing, empty, or benchmark-less file means the figure run did not
    happen (or crashed after truncating the output); the gate must fail
    loudly rather than let a broken pipeline read as green.
    """
    try:
        with open(path) as f:
            text = f.read()
    except OSError as err:
        raise ValueError(f"{path}: cannot read fresh/baseline figures ({err}); "
                         "did bench_f1_mediation run?") from err
    if not text.strip():
        raise ValueError(f"{path}: file is empty — the benchmark run produced "
                         "no output; refusing to pass the gate")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise ValueError(f"{path}: not valid JSON ({err}) — likely a benchmark "
                         "crash mid-write; refusing to pass the gate") from err
    if not isinstance(data, dict) or not data.get("benchmarks"):
        raise ValueError(f"{path}: no 'benchmarks' entries — the benchmark "
                         "binary ran but measured nothing; refusing to pass "
                         "the gate")
    return data


def runs(data, name):
    """All per-iteration runs of `name` (files produced with
    --benchmark_repetitions contribute every repetition, not just the first;
    a single-run file degenerates to that run)."""
    return [
        bench
        for bench in data.get("benchmarks", [])
        if bench.get("name") == name and bench.get("run_type", "iteration") == "iteration"
    ]


def has_counter(data):
    """True when every repetition of both gated benchmarks carries the
    INSTRUCTIONS perf counter (google-benchmark emits perf counters as
    per-iteration keys on each benchmark entry)."""
    for name in (CACHED, NOSTATS):
        entries = runs(data, name)
        if not entries or not all(COUNTER in bench for bench in entries):
            return False
    return True


def metric(data, path, name, key):
    values = [float(bench[key]) for bench in runs(data, name) if key in bench]
    if not values:
        raise KeyError(f"{path}: no benchmark named {name} with field {key}")
    return statistics.median(values)


def figure(files, name, key):
    """The minimum, over (path, data) files, of each file's median."""
    return min(metric(data, path, name, key) for path, data in files)


def ratio(files, key, numerator=CACHED, denominator=NOSTATS):
    on = figure(files, numerator, key)
    off = figure(files, denominator, key)
    if off <= 0:
        raise ValueError(f"{files[0][0]}: non-positive {key} for {denominator}")
    return on / off


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("fresh", nargs="+",
                        help="fresh figures, one file per benchmark process")
    parser.add_argument("baseline")
    parser.add_argument("--tolerance", type=float, default=0.10,
                        help="allowed relative ratio regression (default 0.10)")
    parser.add_argument("--max-invoke-ratio", type=float, default=3.5,
                        help="BM_InvokePath/BM_CapabilityCall ceiling (default 3.5)")
    args = parser.parse_args()

    try:
        fresh_files = [(path, load(path)) for path in args.fresh]
        base_files = [(args.baseline, load(args.baseline))]
        # Instructions retired only gates when both sides measured it —
        # comparing an instruction ratio against a cpu_time ratio would be
        # meaningless.
        key = ("INSTRUCTIONS"
               if all(has_counter(data) for _, data in fresh_files + base_files)
               else "cpu_time")
        fresh = ratio(fresh_files, key)
        base = ratio(base_files, key)
        invoke = ratio(fresh_files, "cpu_time", INVOKE, CAPABILITY)
    except (OSError, KeyError, ValueError, json.JSONDecodeError) as err:
        print(f"check_bench_f1: {err}", file=sys.stderr)
        return 1

    print(f"invoke-by-path/capability-call ratio [cpu_time, min of "
          f"{len(fresh_files)} process medians]: {invoke:.3f} "
          f"(limit {args.max_invoke_ratio})")
    if invoke > args.max_invoke_ratio:
        print(f"check_bench_f1: FAIL — Invoke by path costs {invoke:.2f}x a "
              f"capability call (limit {args.max_invoke_ratio})", file=sys.stderr)
        return 1

    overhead = (fresh - 1.0) * 100.0
    print(f"stats-on/stats-off cached-check ratio [{key}]: fresh {fresh:.4f} "
          f"(overhead {overhead:+.1f}%), baseline {base:.4f}")

    limit = base * (1.0 + args.tolerance)
    if fresh > limit:
        print(f"check_bench_f1: FAIL — fresh ratio {fresh:.4f} exceeds "
              f"baseline {base:.4f} by more than {args.tolerance:.0%} "
              f"(limit {limit:.4f})", file=sys.stderr)
        return 1
    print("check_bench_f1: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
