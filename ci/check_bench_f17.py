#!/usr/bin/env python3
"""Gate for the F17 supervised-degradation figures.

Reads fresh BENCH_f17 figures — one file, or one per benchmark process —
and enforces the supervisor's containment claim end to end:

1. Containment: a quarantined peer must not tax its neighbors —

       figure(BM_SupervisedInvokeQuarantinedPeer)
     / figure(BM_SupervisedInvokeBaseline)        must be <= --max-ratio

   (default 1.10: within 10% of baseline). A benchmark's figure is the
   minimum, across processes, of each process's median cpu_time over its
   repetitions: one process that the host slowed down does not decide the
   clause, where a single run's ratio flipped with host noise. Both sides
   come from the same runs on the same fixture, so machine speed cancels.

2. The trip was real and observable: the quarantined-peer entry must carry
   counters proving the episode happened through the production path —
   peer_trips > 0 (the breaker tripped on genuine budget timeouts),
   audited > 0 (the trip landed in the audit log as a kQuarantined denial),
   health_visible == 1 (an operator can read the quarantine at
   /sys/monitor/health/ext/<name>/state).

3. Recovery: BM_QuarantineReleaseRoundTrip must report round_trip_ok == 1 —
   every quarantine -> fail-fast -> mediated /svc/health/release -> restored
   cycle succeeded.

Clauses 2 and 3 must hold in every file: each process ran its own episode.

No committed baseline: this is an absolute claim about the
mechanism, not a regression bound.

Usage: check_bench_f17.py <fresh.json>... [--max-ratio 1.10]
"""

import argparse
import json
import statistics
import sys

BASELINE = "BM_SupervisedInvokeBaseline"
QUARANTINED = "BM_SupervisedInvokeQuarantinedPeer"
ROUND_TRIP = "BM_QuarantineReleaseRoundTrip"


def iteration_entries(data, name_pred):
    for bench in data.get("benchmarks", []):
        name = bench.get("name", "")
        if (name_pred(name)
                and bench.get("run_type", "iteration") == "iteration"
                and "error_occurred" not in bench):
            yield name, bench


def median_cpu_time(data, path, name):
    values = [
        float(bench["cpu_time"])
        for _, bench in iteration_entries(data, lambda n: n == name)
        if "cpu_time" in bench
    ]
    if not values:
        raise KeyError(f"{path}: no successful benchmark named {name}")
    return statistics.median(values)


def counters(data, path, name, keys):
    for _, bench in iteration_entries(data, lambda n: n.startswith(name)):
        if all(key in bench for key in keys):
            return {key: float(bench[key]) for key in keys}
    raise KeyError(f"{path}: no {name} entry carrying {'/'.join(keys)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("fresh", nargs="+",
                        help="fresh figures, one file per benchmark process")
    parser.add_argument("--max-ratio", type=float, default=1.10,
                        help="quarantined-peer / baseline invoke-cost ceiling "
                             "(default 1.10: within 10%% of baseline)")
    args = parser.parse_args()

    try:
        files = []
        for path in args.fresh:
            with open(path) as f:
                data = json.load(f)
            if not data.get("benchmarks"):
                raise ValueError(f"{path}: no benchmark entries — "
                                 "did bench_f17_supervisor run?")
            files.append((path, data))
        baseline = min(median_cpu_time(data, path, BASELINE) for path, data in files)
        if baseline <= 0:
            raise ValueError(f"{args.fresh[0]}: non-positive cpu_time for {BASELINE}")
        quarantined = min(median_cpu_time(data, path, QUARANTINED) for path, data in files)
        episodes = [(path, counters(data, path, QUARANTINED,
                                    ["peer_trips", "audited", "health_visible"]))
                    for path, data in files]
        recoveries = [(path, counters(data, path, ROUND_TRIP, ["round_trip_ok"]))
                      for path, data in files]
    except (OSError, KeyError, ValueError, json.JSONDecodeError) as err:
        print(f"check_bench_f17: {err}", file=sys.stderr)
        return 1

    failed = False
    ratio = quarantined / baseline
    print(f"invoke with quarantined peer: {quarantined:.1f}ns vs baseline "
          f"{baseline:.1f}ns (ratio {ratio:.4f}; min of {len(files)} process medians)")
    if ratio > args.max_ratio:
        print(f"check_bench_f17: FAIL — a quarantined peer taxed unrelated "
              f"invokes (ratio {ratio:.4f} > {args.max_ratio})", file=sys.stderr)
        failed = True

    for path, episode in episodes:
        print(f"{path} episode: peer_trips={episode['peer_trips']:.0f} "
              f"audited={episode['audited']:.0f} "
              f"health_visible={episode['health_visible']:.0f}")
        if episode["peer_trips"] <= 0:
            print("check_bench_f17: FAIL — the peer's breaker never tripped "
                  "(did the budget-timeout setup run?)", file=sys.stderr)
            failed = True
        if episode["audited"] <= 0:
            print("check_bench_f17: FAIL — the trip left no kQuarantined denial "
                  "in the audit log", file=sys.stderr)
            failed = True
        if episode["health_visible"] != 1:
            print("check_bench_f17: FAIL — the quarantine is not readable at "
                  "/sys/monitor/health/ext/<name>/state", file=sys.stderr)
            failed = True

    for path, recovery in recoveries:
        print(f"{path} recovery: round_trip_ok={recovery['round_trip_ok']:.0f}")
        if recovery["round_trip_ok"] != 1:
            print("check_bench_f17: FAIL — a quarantine -> mediated release -> "
                  "restored cycle failed", file=sys.stderr)
            failed = True

    if failed:
        return 1
    print("check_bench_f17: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
