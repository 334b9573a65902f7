#!/usr/bin/env python3
"""Gate for the F12 wait-free publication + multi-sink drain figures.

Reads fresh BENCH_f12 figures — one file, or one per benchmark process —
and enforces the claims the telemetry publish path makes:

1. Publisher flatness. With the RCU-swapped epoch pointer, Tick's cost is
   a render plus one pointer push per channel, so fanning out to 64 idle
   subscribers (full queues evict their oldest epoch) must cost about the
   same as fanning out to 1:

       ratio = figure(BM_PublishFanOut/subscribers:64)
             / figure(BM_PublishFanOut/subscribers:1)

   must be <= --max-publish-ratio (default 1.10, i.e. ~flat within 10%).
   A benchmark's figure is the minimum, across processes, of each
   process's median cpu_time over its repetitions: one process that the
   host slowed down does not decide the clause, where a single run's ratio
   flipped with host noise. cpu_time is the right metric here: the
   publisher runs alone and the claim is about work *it* does per epoch.

2. Parallel drain. Registering a second audit sink must actually buy
   parallel delivery, not serialize behind the first sink. Each bench sink
   sleeps ~20us per record, so delivery threads overlap their sleeps even
   on a single core and total sink-deliveries/sec should scale:

       speedup = median items_per_second(BM_MultiSinkDrain/sinks:2)
               / median items_per_second(BM_MultiSinkDrain/sinks:1)

   must be >= --min-drain-speedup (default 1.5). items_per_second is
   computed from real time (the bench uses UseRealTime), which is what
   overlapping sleeps improve.

3. Delivery order. Every MultiSinkDrain repetition must report
   order_violations == 0. Each bench sink counts the records it was handed
   whose sequence did not strictly increase; a nonzero counter means a sink
   saw records out of global sequence order, which no amount of throughput
   excuses. A repetition without the counter fails the gate too.

Both ratios come from the same runs on the same machine, so CPU speed and
virtualization noise cancel; there is no committed baseline. Medians over
--benchmark_repetitions keep a single noisy repetition from flipping the
gate (aggregate rows emitted by repetitions are ignored; the median is
taken over the raw iteration rows). The drain speedup takes its medians
over the rows of every file, and every file's rows count toward the order
violations.

Usage: check_bench_f12.py <fresh.json>... [--max-publish-ratio 1.10]
                                          [--min-drain-speedup 1.5]
"""

import argparse
import json
import statistics
import sys

PUBLISH_BASE = "BM_PublishFanOut/subscribers:1"
PUBLISH_WIDE = "BM_PublishFanOut/subscribers:64"
DRAIN_ONE = "BM_MultiSinkDrain/sinks:1/real_time"
DRAIN_TWO = "BM_MultiSinkDrain/sinks:2/real_time"


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
        raise ValueError(f"{path}: cannot read figures ({err}); "
                         "did bench_f12_subscription run?") from err
    if not text.strip():
        raise ValueError(f"{path}: file is empty — the benchmark run "
                         "produced no output; refusing to pass the gate")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise ValueError(f"{path}: not valid JSON ({err}) — likely a "
                         "benchmark crash mid-write; refusing to pass the "
                         "gate") from err
    if not isinstance(data, dict) or not data.get("benchmarks"):
        raise ValueError(f"{path}: no benchmark entries — refusing to pass "
                         "the gate")
    return data


def rows(datas, name):
    """Raw (non-aggregate) repetition rows for benchmark `name` in every
    file of `datas`."""
    out = [b for data in datas for b in data["benchmarks"]
           if b.get("name") == name and b.get("run_type") != "aggregate"]
    if not out:
        raise ValueError(f"benchmark {name} missing from figures — did the "
                         "bench binary change its naming?")
    return out


def median_field(datas, name, field):
    values = [float(b[field]) for b in rows(datas, name) if field in b]
    if not values:
        raise ValueError(f"benchmark {name} carries no {field} field")
    return statistics.median(values)


def figure(datas, name, field):
    """The minimum, across files, of each file's median of `field`."""
    return min(median_field([data], name, field) for data in datas)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("fresh", nargs="+",
                        help="fresh figures, one file per benchmark process")
    parser.add_argument("--max-publish-ratio", type=float, default=1.10,
                        help="ceiling for 64-subscriber / 1-subscriber "
                             "publisher cpu_time (default 1.10)")
    parser.add_argument("--min-drain-speedup", type=float, default=1.5,
                        help="floor for 2-sink / 1-sink drain throughput "
                             "(default 1.5)")
    args = parser.parse_args()

    try:
        data = [load(path) for path in args.fresh]

        base = figure(data, PUBLISH_BASE, "cpu_time")
        wide = figure(data, PUBLISH_WIDE, "cpu_time")
        if base <= 0:
            raise ValueError(f"{PUBLISH_BASE}: nonpositive cpu_time {base}")
        publish_ratio = wide / base

        one = median_field(data, DRAIN_ONE, "items_per_second")
        two = median_field(data, DRAIN_TWO, "items_per_second")
        if one <= 0:
            raise ValueError(f"{DRAIN_ONE}: nonpositive items_per_second "
                             f"{one}")
        drain_speedup = two / one

        violations = 0.0
        for name in (DRAIN_ONE, DRAIN_TWO):
            for row in rows(data, name):
                if "order_violations" not in row:
                    raise ValueError(f"{name}: a repetition carries no "
                                     "order_violations counter")
                violations += float(row["order_violations"])
    except ValueError as err:
        print(f"F12 gate: ERROR: {err}", file=sys.stderr)
        return 1

    print(f"F12 gate: publisher cpu_time 64-sub/1-sub ratio (min of "
          f"{len(data)} process medians) = {publish_ratio:.3f} "
          f"(ceiling {args.max_publish_ratio:.2f})")
    print(f"F12 gate: 2-sink/1-sink drain throughput = "
          f"{drain_speedup:.2f}x (floor {args.min_drain_speedup:.2f}x)")
    print(f"F12 gate: total order_violations across drain reps = "
          f"{violations:.0f}")

    failed = False
    if publish_ratio > args.max_publish_ratio:
        print("F12 gate: FAIL — publisher cost is not flat in subscriber "
              "count; the fan-out step is doing per-channel work beyond a "
              "pointer push (rendering per channel? lock contention?)",
              file=sys.stderr)
        failed = True
    if drain_speedup < args.min_drain_speedup:
        print("F12 gate: FAIL — a second sink did not speed up the drain; "
              "sinks are serializing (shared lock on the delivery path?) "
              "instead of draining in parallel", file=sys.stderr)
        failed = True
    if violations != 0:
        print("F12 gate: FAIL — a sink was handed records out of global "
              "sequence order", file=sys.stderr)
        failed = True
    if failed:
        return 1
    print("F12 gate: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
