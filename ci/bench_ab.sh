#!/usr/bin/env bash
# Interleaved end-to-end A/B of the e2ebench workloads: a change against the
# commit it is based on.
#
#   ci/bench_ab.sh [--base REF] [--worktree] [--pairs N] [--seconds S]
#                  [--workload W]... [--out DIR] [--no-history] [--change-first]
#
# Sides. The parent side is `git merge-base REF HEAD` (REF defaults to HEAD~1,
# or to HEAD with --worktree). The change side is HEAD, or the uncommitted
# working tree with --worktree. Each side is exported into DIR/<side>/src and
# its benchmark built there by its own e2ebench/run.py --selftest into
# CARGO_TARGET_DIR=DIR/<side>/target, so the two builds share nothing.
#
# Runs. For each workload (default: all three), N pairs (default 10) of
# S-second untraced runs (default 30). Pair i uses seed i for both sides, and
# the side that goes first alternates from pair to pair: the host has slow
# phases lasting minutes, and a fixed order puts them on one side. Pair 1
# starts with the parent, or with the change under --change-first, so a
# repeat with the flag runs every seed in the other order.
#
# Report. Per end-to-end metric of BENCHMARK.json: the change/parent ratio of
# the pair medians, the pairs the change won (in the metric's better
# direction), the parent's IQR/median and a verdict against the metric's
# `bound`: `worse` when the change's median is worse than the parent's by
# more than the bound, `unresolved` when the parent's IQR/median exceeds the
# bound and not every change run beats every parent run, else `ok`; then the
# audit_lag_p50/p99_us
# medians of both sides, failed ops, and the median spread of each side's
# 100-ms slices ((p75-p25)/p50 of the `slices` line: a slow phase shows as
# all of a run's slices low, not as a wide spread). One JSON line per
# workload is appended to bench/history/e2e.jsonl (the committed trajectory)
# unless --no-history is given.
#
# A claimed gain needs the change to win at least 9 of 10 pairs, with a
# median ratio beyond the parent's IQR/median.

set -euo pipefail

cd "$(dirname "$0")/.."
REPO="$(pwd)"
BASE_REF=""
WORKTREE=0
PAIRS=10
SECONDS_PER_RUN=30
WORKLOADS=()
OUT="${TMPDIR:-/tmp}/xsec-bench-ab"
HISTORY=1
FLIP=0

while [[ $# -gt 0 ]]; do
  case "$1" in
    --base) BASE_REF="$2"; shift 2 ;;
    --worktree) WORKTREE=1; shift ;;
    --pairs) PAIRS="$2"; shift 2 ;;
    --seconds) SECONDS_PER_RUN="$2"; shift 2 ;;
    --workload) WORKLOADS+=("$2"); shift 2 ;;
    --out) OUT="$2"; shift 2 ;;
    --no-history) HISTORY=0; shift ;;
    --change-first) FLIP=1; shift ;;
    -h|--help) sed -n '2,35p' "$0"; exit 0 ;;
    *) echo "bench_ab: unknown argument $1" >&2; exit 2 ;;
  esac
done
if [[ ${#WORKLOADS[@]} -eq 0 ]]; then
  WORKLOADS=(hot_invoke policy_churn extension_churn)
fi
if [[ -z "$BASE_REF" ]]; then
  if [[ "$WORKTREE" == 1 ]]; then BASE_REF=HEAD; else BASE_REF=HEAD~1; fi
fi

BASE_SHA="$(git merge-base "$BASE_REF" HEAD)"
if [[ "$WORKTREE" == 1 ]]; then
  CHANGE_ID="$(git rev-parse --short HEAD)+worktree"
else
  CHANGE_ID="$(git rev-parse --short HEAD)"
  if [[ "$BASE_SHA" == "$(git rev-parse HEAD)" ]]; then
    echo "bench_ab: the base is HEAD itself; pass --worktree or --base" >&2
    exit 2
  fi
fi
echo "== parent $(git rev-parse --short "$BASE_SHA"), change $CHANGE_ID, $PAIRS pairs x ${SECONDS_PER_RUN}s =="

# Exports one side's sources into $OUT/<side>/src and builds its benchmark.
prepare() {
  local side="$1" rev="$2"
  local src="$OUT/$side/src"
  rm -rf "$src"
  mkdir -p "$src"
  if [[ "$rev" == worktree ]]; then
    # Tracked and untracked files, minus what .gitignore excludes.
    git ls-files -z --cached --others --exclude-standard |
      while IFS= read -r -d '' f; do [[ -e "$f" ]] && printf '%s\0' "$f"; done |
      tar -c --null -T - | tar -x -C "$src"
  else
    git archive "$rev" | tar -x -C "$src"
  fi
  echo "== building $side =="
  (cd "$src" && CARGO_TARGET_DIR="$OUT/$side/target" python3 e2ebench/run.py --selftest \
      > "$OUT/$side/selftest.log" 2>&1) || {
    echo "bench_ab: $side build or selftest failed; see $OUT/$side/selftest.log" >&2
    exit 1
  }
}

mkdir -p "$OUT"
prepare parent "$BASE_SHA"
if [[ "$WORKTREE" == 1 ]]; then prepare change worktree; else prepare change HEAD; fi

RUNS="$OUT/runs"
rm -rf "$RUNS"
mkdir -p "$RUNS"
for workload in "${WORKLOADS[@]}"; do
  for ((i = 1; i <= PAIRS; i++)); do
    if (( (i + FLIP) % 2 )); then order=(parent change); else order=(change parent); fi
    for side in "${order[@]}"; do
      "$OUT/$side/target/e2ebench/xsec_e2e" --workload "$workload" --seed "$i" \
          --seconds "$SECONDS_PER_RUN" --trace 0 > "$RUNS/$workload.$side.$i.txt" 2>&1 || {
        echo "bench_ab: $workload $side seed $i failed; see $RUNS/$workload.$side.$i.txt" >&2
        exit 1
      }
    done
    echo "   $workload pair $i/$PAIRS done"
  done
done

HISTORY_FILE=""
if [[ "$HISTORY" == 1 ]]; then
  HISTORY_FILE="$REPO/bench/history/e2e.jsonl"
  mkdir -p "$(dirname "$HISTORY_FILE")"
fi

python3 - "$RUNS" "$REPO/BENCHMARK.json" "$PAIRS" "$SECONDS_PER_RUN" \
    "$(git rev-parse --short "$BASE_SHA")" "$CHANGE_ID" "$HISTORY_FILE" "${WORKLOADS[@]}" <<'PY'
import datetime
import json
import os
import statistics
import sys

runs, bench_json, pairs, seconds, parent_id, change_id, history = sys.argv[1:8]
workloads = sys.argv[8:]
pairs = int(pairs)
end_to_end = json.load(open(bench_json))["end_to_end"]
LAGS = ("audit_lag_p50_us", "audit_lag_p99_us")


def parse(path):
    """Metric values, failed ops and the slice spread of one run."""
    metrics, spread = {}, None
    failed = None
    for line in open(path):
        words = line.split()
        if len(words) >= 3 and words[0] == "metric":
            metrics[words[1]] = float(words[2])
        elif words[:2] == ["slices", "untraced"]:
            fields = dict(w.split("=") for w in words if "=" in w)
            p50 = float(fields["p50"])
            spread = (float(fields["p75"]) - float(fields["p25"])) / p50 if p50 else None
        elif line.startswith("{"):
            failed = json.loads(line).get("failed")
    return metrics, spread, failed


def quartiles(values):
    q = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return q[0], q[1], q[2]


for workload in workloads:
    sides = {}
    for side in ("parent", "change"):
        sides[side] = [parse(os.path.join(runs, "%s.%s.%d.txt" % (workload, side, i)))
                       for i in range(1, pairs + 1)]
    print("\n== %s: %d pairs x %ss (change/parent) ==" % (workload, pairs, seconds))
    print("%-14s %12s %12s %8s %6s %14s  %s" % ("metric", "parent p50", "change p50", "ratio",
                                                 "won", "parent IQR/p50", "verdict"))
    record = {
        "date": datetime.date.today().isoformat(), "workload": workload,
        "parent": parent_id, "change": change_id, "pairs": pairs, "seconds": float(seconds),
        "host_cpus": os.cpu_count(), "metrics": {},
    }
    for metric in end_to_end:
        name, higher = metric["name"], metric["better"] == "higher"
        p = [run[0].get(name) for run in sides["parent"]]
        c = [run[0].get(name) for run in sides["change"]]
        if None in p or None in c:
            continue
        ratios = [b / a for a, b in zip(p, c) if a > 0]
        won = sum(1 for a, b in zip(p, c) if (b > a if higher else b < a))
        q1, med, q3 = quartiles(p)
        iqr = (q3 - q1) / med if med else 0.0
        ratio = statistics.median(ratios) if ratios else float("nan")
        change_med = statistics.median(c)
        bound = metric["bound"]
        if higher:
            worse = change_med < med * (1 - bound)
            beats_all = min(c) > max(p)
        else:
            worse = change_med > med * (1 + bound)
            beats_all = max(c) < min(p)
        if worse:
            verdict = "worse"
        elif iqr > bound and not beats_all:
            verdict = "unresolved"
        else:
            verdict = "ok"
        print("%-14s %12.6g %12.6g %7.3fx %3d/%-2d %14.3f  %s (bound %g)" % (
            name, med, change_med, ratio, won, pairs, iqr, verdict, bound))
        record["metrics"][name] = {
            "parent_median": med, "change_median": change_med,
            "ratio_median": round(ratio, 4), "won": won, "parent_iqr_over_median": round(iqr, 4),
            "bound": bound, "verdict": verdict,
        }
    for name in LAGS:
        values = {}
        for side in ("parent", "change"):
            v = [run[0][name] for run in sides[side] if name in run[0]]
            values[side] = statistics.median(v) if v else None
        fmt = lambda v: "n/a" if v is None else "%.4g" % v
        print("%-18s parent %s  change %s" % (name, fmt(values["parent"]), fmt(values["change"])))
        record[name] = values
    for side in ("parent", "change"):
        failed = sum(run[2] or 0 for run in sides[side])
        spreads = [run[1] for run in sides[side] if run[1] is not None]
        spread = statistics.median(spreads) if spreads else None
        print("%-6s failed ops %d, slice spread (p75-p25)/p50 median %s" % (
            side, failed, "n/a" if spread is None else "%.3f" % spread))
        record.setdefault("failed", {})[side] = failed
        record.setdefault("slice_spread", {})[side] = None if spread is None else round(spread, 4)
    if history:
        with open(history, "a") as out:
            out.write(json.dumps(record, sort_keys=True) + "\n")
if history:
    print("\nappended %d line(s) to %s" % (len(workloads), history))
PY
