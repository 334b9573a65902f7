#!/usr/bin/env python3
"""Gate for the F9 traversal-protection figure.

Reads a fresh BENCH_f9.json and requires that protecting every level of an
8-deep path costs about nothing once warm:

    ratio = median cpu_time(BM_PathTraversalCached/8)
          / median cpu_time(BM_PathNoTraversal/8)       must be <= --max-ratio

Both resolve the same 9-component path; the first also checks `list` on the
eight ancestors and the root. A resolved-path cache entry answers that whole
walk with one probe, so the only cost left is the resolution both share.
Same-run figures, so host speed cancels.

Usage: check_bench_f9.py <fresh.json> [--max-ratio 1.2]
"""

import argparse
import json
import statistics
import sys

CACHED = "BM_PathTraversalCached/8"
FLOOR = "BM_PathNoTraversal/8"


def median_cpu_time(data, path, name):
    values = [
        float(bench["cpu_time"])
        for bench in data.get("benchmarks", [])
        if bench.get("name") == name
        and bench.get("run_type", "iteration") == "iteration"
        and "cpu_time" in bench
        and "error_occurred" not in bench
    ]
    if not values:
        raise KeyError(f"{path}: no successful benchmark named {name}")
    return statistics.median(values)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("fresh")
    parser.add_argument("--max-ratio", type=float, default=1.2,
                        help="cached-traversal/no-traversal ceiling (default 1.2)")
    args = parser.parse_args()

    try:
        with open(args.fresh) as f:
            data = json.load(f)
        if not data.get("benchmarks"):
            raise ValueError(f"{args.fresh}: no benchmark entries — "
                             "did bench_f9_traversal run?")
        cached = median_cpu_time(data, args.fresh, CACHED)
        floor = median_cpu_time(data, args.fresh, FLOOR)
        if floor <= 0:
            raise ValueError(f"{args.fresh}: non-positive cpu_time for {FLOOR}")
    except (OSError, KeyError, ValueError, json.JSONDecodeError) as err:
        print(f"check_bench_f9: {err}", file=sys.stderr)
        return 1

    ratio = cached / floor
    print(f"cached-traversal/no-traversal ratio at depth 8 [cpu_time]: {ratio:.3f} "
          f"(cached {cached:.1f}ns, no traversal {floor:.1f}ns)")
    if ratio > args.max_ratio:
        print(f"check_bench_f9: FAIL — protecting every level costs {ratio:.2f}x "
              f"the unprotected walk (limit {args.max_ratio})", file=sys.stderr)
        return 1
    print("check_bench_f9: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
