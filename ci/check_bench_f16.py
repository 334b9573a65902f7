#!/usr/bin/env python3
"""Gate for the F16 sharded-stamp-domain figures.

Reads a fresh BENCH_f16.json and enforces the sharding mechanism's claims
with counters, not machine-dependent timings:

1. Cross-shard isolation: BM_CrossShardMutationIsolation mutates one
   subtree every check and probes another — its cross_shard_stale counter
   must be EXACTLY 0 (a mutation in shard A never evicts shard B's cached
   decisions) while other_shard_hits > 0 proves the probe actually hit.

2. Same-shard control: BM_SameShardMutationControl runs the same loop with
   mutation and probe in one subtree — same_shard_stale must be > 0, or the
   isolation above would be vacuous (stamps not invalidating anything).

3. ACL interning: BM_AclInternSharing must report intern_hits > 0 and
   intern_unique < intern_hits (identical entry lists collapse to a handful
   of shared lists, not one list per object).

No committed baseline: this is an absolute claim about the
mechanism, not a regression bound.

Usage: check_bench_f16.py <fresh.json>
"""

import argparse
import json
import sys

ISOLATION = "BM_CrossShardMutationIsolation"
CONTROL = "BM_SameShardMutationControl"
ACL = "BM_AclInternSharing"


def entries(data, name):
    for bench in data.get("benchmarks", []):
        if (bench.get("name", "") == name
                and bench.get("run_type", "iteration") == "iteration"
                and "error_occurred" not in bench):
            yield bench


def counter(data, path, name, key):
    for bench in entries(data, name):
        if key in bench:
            return float(bench[key])
    raise KeyError(f"{path}: no {name} entry carrying counter '{key}'")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("fresh")
    args = parser.parse_args()

    try:
        with open(args.fresh) as f:
            data = json.load(f)
        if not data.get("benchmarks"):
            raise ValueError(f"{args.fresh}: no benchmark entries — "
                             "did bench_f16_shard run?")
        cross_stale = counter(data, args.fresh, ISOLATION, "cross_shard_stale")
        cross_hits = counter(data, args.fresh, ISOLATION, "other_shard_hits")
        same_stale = counter(data, args.fresh, CONTROL, "same_shard_stale")
        acl_hits = counter(data, args.fresh, ACL, "intern_hits")
        acl_unique = counter(data, args.fresh, ACL, "intern_unique")
    except (OSError, KeyError, ValueError, json.JSONDecodeError) as err:
        print(f"check_bench_f16: {err}", file=sys.stderr)
        return 1

    failed = False

    print(f"cross-shard isolation: stale={cross_stale:.0f} hits={cross_hits:.0f}")
    if cross_stale != 0:
        print("check_bench_f16: FAIL — a mutation in one shard evicted "
              f"another shard's cached decisions ({cross_stale:.0f} stale hits; "
              "the invalidation storm is back)", file=sys.stderr)
        failed = True
    if cross_hits <= 0:
        print("check_bench_f16: FAIL — the cross-shard probe never hit the "
              "cache, so the isolation claim is vacuous", file=sys.stderr)
        failed = True

    print(f"same-shard control: stale={same_stale:.0f}")
    if same_stale <= 0:
        print("check_bench_f16: FAIL — same-shard mutations invalidated "
              "nothing; shard stamps are not actually consulted",
              file=sys.stderr)
        failed = True

    print(f"acl interning: hits={acl_hits:.0f} unique={acl_unique:.0f}")
    if acl_hits <= 0 or acl_unique >= acl_hits:
        print("check_bench_f16: FAIL — identical ACLs are not being "
              "deduplicated into shared entry lists", file=sys.stderr)
        failed = True

    if failed:
        return 1
    print("check_bench_f16: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
