// Experiment F16 — sharded stamp domains (DESIGN.md §5, docs/MODEL.md §15).
//
// The global-stamp design pays for rare mutations with total invalidation:
// one ACL edit anywhere evicts every cached decision (F8's InvalidationEvery
// line degrades toward the uncached cost).
// Sharding the validity domain by top-level subtree confines that blast
// radius to one shard. The figure proves it with counters, not timings:
//
//   CrossShardMutationIsolation   mutate subtree A every check, probe subtree
//                                 B — cross_shard_stale must stay 0 while
//                                 other_shard_hits climbs
//   SameShardMutationControl      same loop, mutation and probe in ONE
//                                 subtree — same_shard_stale must be > 0
//                                 (the stamps still invalidate where they must)
//   CheckWithCrossShardMutationEvery/<k>   cached check cost with a mutation
//                                 in a *different* shard every k checks; flat
//                                 across k, unlike F8's InvalidationEvery
//   AclInternSharing              1024 objects in 32 subtrees sharing one
//                                 ACL shape — intern_hits proves the store
//                                 deduplicates entry lists
//
// ci/check_bench_f16.py gates the counters (cross-shard staleness exactly 0,
// control > 0, ACL interning effective).

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "src/base/shard.h"
#include "src/monitor/reference_monitor.h"

namespace xsec {
namespace {

// Two top-level subtrees guaranteed to live in different monitor shards,
// plus one object (with its own shard-tagged ACL) in each.
struct TwoShardFixture {
  TwoShardFixture() {
    MonitorOptions options;
    options.audit_policy = AuditPolicy::kOff;
    monitor = std::make_unique<ReferenceMonitor>(&ns, &acls, &principals, &labels, options);
    user = *principals.CreateUser("u");
    // Scan names until two top-level containers land in different shards
    // (16 shards: a handful of tries suffices for any hash).
    std::string name_a = "a0";
    ShardId shard_a = ShardOfName(name_a);
    std::string name_b;
    for (int i = 0;; ++i) {
      name_b = "b" + std::to_string(i);
      if (ShardOfName(name_b) != shard_a) {
        break;
      }
    }
    obj_a = MakeObject("/" + name_a);
    obj_b = MakeObject("/" + name_b);
    subject = Subject{user, labels.Bottom(), 1};
  }

  NodeId MakeObject(const std::string& top) {
    NodeId node = *ns.BindPath(top + "/obj", NodeKind::kObject, user);
    Acl acl;
    acl.AddEntry({AclEntryType::kAllow, user, AccessModeSet(AccessMode::kRead)});
    AclStore::AclRef ref = acls.Create(std::move(acl), ns.ShardOf(node));
    (void)ns.SetAclRef(node, ref);
    return node;
  }

  // A policy-relevant mutation confined to `node`'s shard.
  void MutateShardOf(NodeId node) { (void)ns.SetOwner(node, user); }

  NameSpace ns;
  AclStore acls;
  PrincipalRegistry principals;
  LabelAuthority labels;
  std::unique_ptr<ReferenceMonitor> monitor;
  PrincipalId user;
  NodeId obj_a;
  NodeId obj_b;
  Subject subject;
};

void ShardIsolation(benchmark::State& state, bool cross_shard) {
  TwoShardFixture f;
  NodeId mutated = f.obj_a;
  NodeId probed = cross_shard ? f.obj_b : f.obj_a;
  // Warm the probe's cache entry, then discard warmup counters.
  (void)f.monitor->Check(f.subject, probed, AccessMode::kRead);
  uint64_t stale_before = f.monitor->cache().stale_hits();
  uint64_t hits_before = f.monitor->cache().hits();
  for (auto _ : state) {
    f.MutateShardOf(mutated);
    benchmark::DoNotOptimize(f.monitor->Check(f.subject, probed, AccessMode::kRead));
  }
  state.counters[cross_shard ? "cross_shard_stale" : "same_shard_stale"] =
      benchmark::Counter(static_cast<double>(f.monitor->cache().stale_hits() - stale_before));
  if (cross_shard) {
    state.counters["other_shard_hits"] =
        benchmark::Counter(static_cast<double>(f.monitor->cache().hits() - hits_before));
  }
}

void BM_CrossShardMutationIsolation(benchmark::State& state) {
  ShardIsolation(state, /*cross_shard=*/true);
}
void BM_SameShardMutationControl(benchmark::State& state) {
  ShardIsolation(state, /*cross_shard=*/false);
}
BENCHMARK(BM_CrossShardMutationIsolation);
BENCHMARK(BM_SameShardMutationControl);

// The F8-shaped sweep: with sharded stamps the cached-check cost stays flat
// no matter how often an unrelated subtree mutates.
void BM_CheckWithCrossShardMutationEvery(benchmark::State& state) {
  TwoShardFixture f;
  int period = static_cast<int>(state.range(0));
  int64_t i = 0;
  for (auto _ : state) {
    if (i % period == 0) {
      f.MutateShardOf(f.obj_a);
    }
    benchmark::DoNotOptimize(f.monitor->Check(f.subject, f.obj_b, AccessMode::kRead));
    ++i;
  }
}
BENCHMARK(BM_CheckWithCrossShardMutationEvery)->RangeMultiplier(4)->Range(1, 4096);

// Many objects sharing one ACL shape: the store's intern pool must collapse
// them to one entry list, whatever their shards.
void BM_AclInternSharing(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    NameSpace ns;
    AclStore acls;
    PrincipalId user{1};
    state.ResumeTiming();
    for (int i = 0; i < 1024; ++i) {
      NodeId node = *ns.BindPath("/t" + std::to_string(i % 32) + "/o" + std::to_string(i),
                                 NodeKind::kObject, user);
      Acl acl;
      acl.AddEntry({AclEntryType::kAllow, user, AccessModeSet(AccessMode::kRead)});
      acl.AddEntry({AclEntryType::kAllow, PrincipalId{2}, AccessModeSet(AccessMode::kWrite)});
      (void)ns.SetAclRef(node, acls.Create(std::move(acl), ns.ShardOf(node)));
    }
    state.PauseTiming();
    state.counters["intern_hits"] = benchmark::Counter(static_cast<double>(acls.intern_hits()));
    state.counters["intern_unique"] =
        benchmark::Counter(static_cast<double>(acls.intern_unique()));
    state.ResumeTiming();
  }
}
BENCHMARK(BM_AclInternSharing);

}  // namespace
}  // namespace xsec

BENCHMARK_MAIN();
