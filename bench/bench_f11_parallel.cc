// Experiment F11 — mediation throughput under concurrency.
//
// The tentpole claim of the concurrency work: Check() scales with thread
// count. Shared state is read-mostly (shared_mutex on each store, a sharded
// decision cache, per-thread striped stats counters), so adding checking threads
// should add throughput until memory bandwidth, not lock contention, is the
// limit. The figure sweeps:
//
//   ParallelCheck/threads:<n>           cached hot path, n checking threads
//   ParallelCheckUncached/threads:<n>   full evaluation every time
//   ParallelCheckWithWriter/threads:<n> cached, plus one in-loop ACL
//                                       mutation per 4096 iterations per
//                                       thread (stamp churn)
//
// Expected shape on a multi-core host: cached throughput grows
// near-linearly 1 -> 8 threads (>= 3x at 8); uncached scales too but from a
// much lower base; the writer variant sits between, degraded by
// re-evaluations, not by lock convoys. items_per_second is the comparable
// metric. On a single-core host every curve is necessarily flat — the run
// then only demonstrates absence of convoys (no superlinear *slowdown*).

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "src/monitor/reference_monitor.h"

namespace xsec {
namespace {

constexpr size_t kObjects = 1024;

struct ParallelFixture {
  explicit ParallelFixture(bool cache_enabled) {
    MonitorOptions options;
    options.cache_enabled = cache_enabled;
    options.audit_policy = AuditPolicy::kOff;
    options.cache_slots = 8192;
    monitor = std::make_unique<ReferenceMonitor>(&ns, &acls, &principals, &labels, options);
    user = *principals.CreateUser("u");
    Acl acl;
    for (uint32_t i = 0; i < 16; ++i) {
      acl.AddEntry({AclEntryType::kAllow, PrincipalId{1000 + i},
                    AccessModeSet(AccessMode::kRead)});
    }
    acl.AddEntry({AclEntryType::kAllow, user, AccessModeSet(AccessMode::kRead)});
    AclStore::AclRef shared = acls.Create(std::move(acl));
    for (size_t i = 0; i < kObjects; ++i) {
      NodeId node = *ns.BindPath("/o/n" + std::to_string(i), NodeKind::kObject, user);
      (void)ns.SetAclRef(node, shared);
      nodes.push_back(node);
    }
    subject = Subject{user, labels.Bottom(), 1};
  }

  NameSpace ns;
  AclStore acls;
  PrincipalRegistry principals;
  LabelAuthority labels;
  std::unique_ptr<ReferenceMonitor> monitor;
  PrincipalId user;
  std::vector<NodeId> nodes;
  Subject subject;
};

// One fixture shared by all threads of a run; google-benchmark constructs
// the function-local static exactly once (thread-safe magic static) and
// every thread then hammers the same monitor.
ParallelFixture& CachedFixture() {
  static ParallelFixture f(/*cache_enabled=*/true);
  return f;
}

ParallelFixture& UncachedFixture() {
  static ParallelFixture f(/*cache_enabled=*/false);
  return f;
}

void ParallelCheck(benchmark::State& state, ParallelFixture& f) {
  // Stride by thread index so threads sweep disjoint phases of the same
  // working set — all slots get hot, shards are hit uniformly.
  size_t i = static_cast<size_t>(state.thread_index()) * 17;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        f.monitor->Check(f.subject, f.nodes[i % kObjects], AccessMode::kRead));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_ParallelCheck(benchmark::State& state) { ParallelCheck(state, CachedFixture()); }
void BM_ParallelCheckUncached(benchmark::State& state) {
  ParallelCheck(state, UncachedFixture());
}

void BM_ParallelCheckWithWriter(benchmark::State& state) {
  ParallelFixture& f = CachedFixture();
  size_t i = static_cast<size_t>(state.thread_index()) * 17;
  for (auto _ : state) {
    if (state.thread_index() == 0 && i % 4096 == 0) {
      // Stamp churn: any ACL mutation invalidates every cached decision.
      (void)f.acls.AddEntry(0, {AclEntryType::kAllow, f.user,
                                AccessModeSet(AccessMode::kList)});
    }
    benchmark::DoNotOptimize(
        f.monitor->Check(f.subject, f.nodes[i % kObjects], AccessMode::kRead));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}

BENCHMARK(BM_ParallelCheck)->Threads(1)->Threads(2)->Threads(4)->Threads(8)->UseRealTime();
BENCHMARK(BM_ParallelCheckUncached)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime();
BENCHMARK(BM_ParallelCheckWithWriter)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime();

}  // namespace
}  // namespace xsec

BENCHMARK_MAIN();
