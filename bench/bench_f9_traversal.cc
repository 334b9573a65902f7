// Experiment F9 (ablation) — the cost of protecting every level of the
// hierarchy (DESIGN.md §5, §2.3 of the paper).
//
// The paper wants "access to each level of the hierarchy … protected":
// resolving /a/b/c checks `list` on /, /a and /a/b before touching c. This
// figure quantifies that choice by sweeping path depth with traversal
// checking on and off (and with the decision cache on and off), so the
// per-level cost and the cache's ability to absorb it are both visible.
//
// Expected shape: resolution costs one child lookup per component in every
// configuration. With traversal off there is a single access check; with
// traversal on and the cache warm, a resolved-path cache entry answers the
// whole walk with one probe, so cached traversal costs about the same as no
// traversal at any depth (ci/check_bench_f9.py holds depth 8 within 1.2x).
// Uncached, each level adds a full check.

#include <benchmark/benchmark.h>

#include <memory>
#include <string>

#include "src/monitor/reference_monitor.h"

namespace xsec {
namespace {

struct TraversalFixture {
  TraversalFixture(int depth, bool traversal, bool cache) {
    MonitorOptions options;
    options.check_traversal = traversal;
    options.cache_enabled = cache;
    options.audit_policy = AuditPolicy::kOff;
    monitor = std::make_unique<ReferenceMonitor>(&ns, &acls, &principals, &labels, options);
    user = *principals.CreateUser("u");
    for (int i = 0; i < depth; ++i) {
      path += "/d" + std::to_string(i);
    }
    path += "/leaf";
    (void)ns.BindPath(path, NodeKind::kFile, user);
    // One root ACL grants list+read everywhere (inherited).
    Acl acl;
    acl.AddEntry({AclEntryType::kAllow, user, AccessMode::kList | AccessMode::kRead});
    (void)ns.SetAclRef(ns.root(), acls.Create(std::move(acl)));
    subject = Subject{user, labels.Bottom(), 1};
  }

  NameSpace ns;
  AclStore acls;
  PrincipalRegistry principals;
  LabelAuthority labels;
  std::unique_ptr<ReferenceMonitor> monitor;
  PrincipalId user;
  std::string path;
  Subject subject;
};

void RunCheckPath(benchmark::State& state, bool traversal, bool cache) {
  TraversalFixture f(static_cast<int>(state.range(0)), traversal, cache);
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.monitor->CheckPath(f.subject, f.path, AccessMode::kRead));
  }
  state.SetComplexityN(state.range(0));
}

void BM_PathNoTraversal(benchmark::State& state) { RunCheckPath(state, false, true); }
void BM_PathTraversalCached(benchmark::State& state) { RunCheckPath(state, true, true); }
void BM_PathTraversalUncached(benchmark::State& state) { RunCheckPath(state, true, false); }

BENCHMARK(BM_PathNoTraversal)->RangeMultiplier(2)->Range(1, 32)->Complexity(benchmark::oN);
BENCHMARK(BM_PathTraversalCached)->RangeMultiplier(2)->Range(1, 32)->Complexity(benchmark::oN);
BENCHMARK(BM_PathTraversalUncached)
    ->RangeMultiplier(2)
    ->Range(1, 32)
    ->Complexity(benchmark::oN);

}  // namespace
}  // namespace xsec

BENCHMARK_MAIN();
