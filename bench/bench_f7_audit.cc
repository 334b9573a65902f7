// Experiment F7 — audit overhead (DESIGN.md §5).
//
// Auditing is one of the concerns the paper folds into the central facility
// (§1). The figure measures the per-check cost of each audit policy for both
// allowed and denied accesses:
//
//   Allowed_Off / Allowed_DenialsOnly / Allowed_All
//   Denied_Off  / Denied_DenialsOnly  / Denied_All
//
// Expected shape: kOff and the non-retaining combinations cost only two
// counter bumps; retaining a record adds path reconstruction + record
// storage, so Allowed_All and Denied_{DenialsOnly,All} are the expensive
// cells.
//
// Denied_Drained_Sparse is the retained denial as a probing extension
// issues it: one denial per ~20 µs with the audit drain running and a sink
// registered, timing the Check alone. It is what a recorder pays to hand a
// record to the delivery thread, which lingers between passes instead of
// being woken per record (docs/MODEL.md §11).

#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <memory>

#include "src/monitor/reference_monitor.h"

namespace xsec {
namespace {

struct AuditFixture {
  explicit AuditFixture(AuditPolicy policy) {
    MonitorOptions options;
    options.audit_policy = policy;
    options.cache_enabled = true;
    monitor = std::make_unique<ReferenceMonitor>(&ns, &acls, &principals, &labels, options);
    user = *principals.CreateUser("u");
    node = *ns.BindPath("/obj/thing", NodeKind::kObject, PrincipalId{999});
    Acl acl;
    acl.AddEntry({AclEntryType::kAllow, user, AccessModeSet(AccessMode::kRead)});
    (void)ns.SetAclRef(node, acls.Create(std::move(acl)));
    subject = Subject{user, labels.Bottom(), 1};
  }

  NameSpace ns;
  AclStore acls;
  PrincipalRegistry principals;
  LabelAuthority labels;
  std::unique_ptr<ReferenceMonitor> monitor;
  PrincipalId user;
  NodeId node;
  Subject subject;
};

void RunCase(benchmark::State& state, AuditPolicy policy, bool allowed) {
  AuditFixture f(policy);
  AccessModeSet modes(allowed ? AccessMode::kRead : AccessMode::kWrite);
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.monitor->Check(f.subject, f.node, modes));
  }
}

void BM_Allowed_Off(benchmark::State& state) { RunCase(state, AuditPolicy::kOff, true); }
void BM_Allowed_DenialsOnly(benchmark::State& state) {
  RunCase(state, AuditPolicy::kDenialsOnly, true);
}
void BM_Allowed_All(benchmark::State& state) { RunCase(state, AuditPolicy::kAll, true); }
void BM_Denied_Off(benchmark::State& state) { RunCase(state, AuditPolicy::kOff, false); }
void BM_Denied_DenialsOnly(benchmark::State& state) {
  RunCase(state, AuditPolicy::kDenialsOnly, false);
}
void BM_Denied_All(benchmark::State& state) { RunCase(state, AuditPolicy::kAll, false); }

BENCHMARK(BM_Allowed_Off);
BENCHMARK(BM_Allowed_DenialsOnly);
BENCHMARK(BM_Allowed_All);
BENCHMARK(BM_Denied_Off);
BENCHMARK(BM_Denied_DenialsOnly);
BENCHMARK(BM_Denied_All);

void BM_Denied_Drained_Sparse(benchmark::State& state) {
  using Clock = std::chrono::steady_clock;
  constexpr auto kGap = std::chrono::microseconds(20);
  AuditFixture f(AuditPolicy::kDenialsOnly);
  AuditLog& audit = f.monitor->audit();
  std::atomic<uint64_t> delivered{0};
  audit.set_sink([&delivered](const AuditRecord&) {
    delivered.fetch_add(1, std::memory_order_relaxed);
  });
  audit.StartDrain();
  AccessModeSet modes(AccessMode::kWrite);
  for (auto _ : state) {
    Clock::time_point start = Clock::now();
    benchmark::DoNotOptimize(f.monitor->Check(f.subject, f.node, modes));
    Clock::time_point end = Clock::now();
    state.SetIterationTime(std::chrono::duration<double>(end - start).count());
    // Spin out the gap: a sleep would add a wake of this thread to the run.
    while (Clock::now() < end + kGap) {
    }
  }
  audit.Flush();
  state.counters["delivered"] = static_cast<double>(delivered.load());
  audit.StopDrain();
}
BENCHMARK(BM_Denied_Drained_Sparse)->UseManualTime()->Iterations(20000);

void BM_AuditedPathCheck(benchmark::State& state) {
  // Full-path checks retain longer paths; measures the path-dependent part.
  AuditFixture f(AuditPolicy::kAll);
  // Grant list along the chain so the check succeeds.
  Acl root_acl;
  root_acl.AddEntry({AclEntryType::kAllow, f.user, AccessModeSet(AccessMode::kList)});
  (void)f.ns.SetAclRef(f.ns.root(), f.acls.Create(root_acl));
  Acl dir_acl;
  dir_acl.AddEntry({AclEntryType::kAllow, f.user,
                    AccessMode::kList | AccessMode::kRead});
  (void)f.ns.SetAclRef(*f.ns.Lookup("/obj"), f.acls.Create(dir_acl));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        f.monitor->CheckPath(f.subject, "/obj/thing", AccessMode::kRead));
  }
}
BENCHMARK(BM_AuditedPathCheck);

}  // namespace
}  // namespace xsec

BENCHMARK_MAIN();
