// Experiment F1 — per-call mediation overhead (DESIGN.md §5).
//
// The paper's central facility mediates *every* interaction (§2.3); this
// figure measures what that costs per call, layer by layer:
//
//   raw_handler        calling the handler with no mediation (floor)
//   check_node_*       node-level monitor checks under different layer mixes
//   capability_call    Kernel::CallCapability (node re-check + dispatch)
//   invoke_path        Kernel::Invoke (full path resolution + traversal)
//
// Expected shape: DAC and MAC each add a small constant; the decision cache
// recovers most of the combined cost; path traversal dominates Invoke, which
// is why linked extensions call through capabilities.

#include <benchmark/benchmark.h>

#include "src/core/secure_system.h"

namespace xsec {
namespace {

struct Fixture {
  explicit Fixture(MonitorOptions options) : sys(options) {
    user = *sys.CreateUser("bench-user");
    subject = sys.Login(user, sys.labels().Bottom());
    // A procedure with a direct execute grant.
    proc = *sys.kernel().RegisterProcedure(
        "/svc/bench/noop", sys.system_principal(),
        [](CallContext&) -> StatusOr<Value> { return Value{int64_t{1}}; });
    Acl acl;
    acl.AddEntry({AclEntryType::kAllow, user,
                  AccessMode::kExecute | AccessMode::kList | AccessMode::kRead});
    (void)sys.name_space().SetAclRef(proc, sys.kernel().acls().Create(std::move(acl)));
    // Traversal grants for full-path invocation.
    NodeId svc = *sys.name_space().Lookup("/svc/bench");
    Acl dir_acl;
    dir_acl.AddEntry({AclEntryType::kAllow, user, AccessMode::kList | AccessMode::kExecute});
    (void)sys.name_space().SetAclRef(svc, sys.kernel().acls().Create(std::move(dir_acl)));
    capability = Capability{proc, "/svc/bench/noop"};
  }

  SecureSystem sys;
  PrincipalId user;
  Subject subject;
  NodeId proc;
  Capability capability;
};

MonitorOptions Opts(bool dac, bool mac, bool cache) {
  MonitorOptions options;
  options.dac_enabled = dac;
  options.mac_enabled = mac;
  options.cache_enabled = cache;
  options.audit_policy = AuditPolicy::kOff;
  return options;
}

void BM_RawHandler(benchmark::State& state) {
  HandlerFn handler = [](CallContext&) -> StatusOr<Value> { return Value{int64_t{1}}; };
  Fixture f(Opts(true, true, true));
  CallContext ctx{&f.sys.kernel(), &f.subject, {}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(handler(ctx));
  }
}
BENCHMARK(BM_RawHandler);

void CheckNode(benchmark::State& state, MonitorOptions options) {
  Fixture f(options);
  for (auto _ : state) {
    Decision d = f.sys.monitor().Check(f.subject, f.proc, AccessMode::kExecute);
    benchmark::DoNotOptimize(d);
  }
}

void BM_CheckNode_None(benchmark::State& state) { CheckNode(state, Opts(false, false, false)); }
void BM_CheckNode_DacOnly(benchmark::State& state) { CheckNode(state, Opts(true, false, false)); }
void BM_CheckNode_MacOnly(benchmark::State& state) { CheckNode(state, Opts(false, true, false)); }
void BM_CheckNode_DacMac(benchmark::State& state) { CheckNode(state, Opts(true, true, false)); }
void BM_CheckNode_DacMacCached(benchmark::State& state) { CheckNode(state, Opts(true, true, true)); }
// The same cached hot path with MonitorStats off, so no decision is counted
// at all: the delta between this and BM_CheckNode_DacMacCached is the whole
// cost of counting (budget: <5%).
void BM_CheckNode_DacMacCached_NoStats(benchmark::State& state) {
  MonitorOptions options = Opts(true, true, true);
  options.stats_enabled = false;
  CheckNode(state, options);
}
BENCHMARK(BM_CheckNode_None);
BENCHMARK(BM_CheckNode_DacOnly);
BENCHMARK(BM_CheckNode_MacOnly);
BENCHMARK(BM_CheckNode_DacMac);
BENCHMARK(BM_CheckNode_DacMacCached);
BENCHMARK(BM_CheckNode_DacMacCached_NoStats);

// Cost of rendering one consistent snapshot of every counter (the
// /sys/monitor/snapshot read path): a reader-side operation, so it only
// needs to be cheap relative to the publication epoch, not the check path.
void BM_MonitorStatsSnapshot(benchmark::State& state) {
  Fixture f(Opts(true, true, true));
  for (int i = 0; i < 1024; ++i) {
    Decision d = f.sys.monitor().Check(f.subject, f.proc, AccessMode::kExecute);
    benchmark::DoNotOptimize(d);
  }
  MonitorStats& stats = f.sys.monitor().stats();
  for (auto _ : state) {
    MonitorStats::Snapshot snap = stats.TakeSnapshot();
    benchmark::DoNotOptimize(snap);
  }
}
BENCHMARK(BM_MonitorStatsSnapshot);

void BM_CapabilityCall(benchmark::State& state) {
  Fixture f(Opts(true, true, true));
  for (auto _ : state) {
    auto result = f.sys.kernel().CallCapability(f.subject, f.capability, {});
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_CapabilityCall);

void BM_InvokePath(benchmark::State& state) {
  Fixture f(Opts(true, true, true));
  for (auto _ : state) {
    auto result = f.sys.kernel().Invoke(f.subject, "/svc/bench/noop", {});
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_InvokePath);

void BM_InvokePathUncached(benchmark::State& state) {
  Fixture f(Opts(true, true, false));
  for (auto _ : state) {
    auto result = f.sys.kernel().Invoke(f.subject, "/svc/bench/noop", {});
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_InvokePathUncached);

}  // namespace
}  // namespace xsec

BENCHMARK_MAIN();
