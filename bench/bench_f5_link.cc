// Experiment F5 — secure linking cost vs import count (DESIGN.md §5).
//
// xsec checks `execute` per imported procedure and `extend` per specialized
// interface at link time (§1.1's two mechanisms); SPIN links whole domains
// at once. The figure compares:
//
//   XsecLink/<n>         full LoadExtension with n imports (per-import
//                        monitor checks + capability construction), every
//                        check a cache miss (a membership change, untimed,
//                        stales the cache before each link)
//   XsecLinkCached/<n>   same, with the decision cache warm
//   SpinStyleLink/<n>    all-or-nothing domain membership (one set probe per
//                        domain plus one per import symbol resolution)
//
// Expected shape: both linear in n; SPIN's constant is smaller per import —
// the price xsec pays for per-procedure granularity (which T1 shows SPIN
// cannot express). The cached variant closes most of the gap.

#include <benchmark/benchmark.h>

#include <string>
#include <unordered_set>

#include "src/extsys/kernel.h"

namespace xsec {
namespace {

struct LinkFixture {
  explicit LinkFixture(int imports) {
    MonitorOptions options;
    options.check_traversal = false;
    options.audit_policy = AuditPolicy::kOff;
    kernel = std::make_unique<Kernel>(options);
    user = *kernel->principals().CreateUser("dev");
    (void)*kernel->RegisterService("/svc/s", kernel->system_principal());
    Acl acl;
    acl.AddEntry({AclEntryType::kAllow, user, AccessMode::kExecute | AccessMode::kList});
    NodeId svc = *kernel->name_space().Lookup("/svc/s");
    (void)kernel->name_space().SetAclRef(svc, kernel->acls().Create(std::move(acl)));
    for (int i = 0; i < imports; ++i) {
      std::string path = "/svc/s/p" + std::to_string(i);
      (void)*kernel->RegisterProcedure(path, kernel->system_principal(),
                                       [](CallContext&) -> StatusOr<Value> {
                                         return Value{int64_t{0}};
                                       });
      manifest.imports.push_back(path);
    }
    manifest.name = "bench-ext";
    subject = kernel->CreateSubject(user, kernel->labels().Bottom());
    throwaway_group = *kernel->principals().CreateGroup("throwaway");
  }

  // Moves every domain's stamps without changing any decision: a throwaway
  // group gains and loses a member, so every cached decision goes stale.
  void StaleEveryCachedDecision() {
    (void)kernel->principals().AddMember(throwaway_group, user);
    (void)kernel->principals().RemoveMember(throwaway_group, user);
  }

  std::unique_ptr<Kernel> kernel;
  PrincipalId user;
  PrincipalId throwaway_group;
  ExtensionManifest manifest;
  Subject subject;
};

void XsecLink(benchmark::State& state, bool cached) {
  LinkFixture fixture(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    if (!cached) {
      // Every link check misses: its cached decision is stale.
      state.PauseTiming();
      fixture.StaleEveryCachedDecision();
      state.ResumeTiming();
    }
    auto id = fixture.kernel->LoadExtension(fixture.manifest, fixture.subject);
    benchmark::DoNotOptimize(id);
    state.PauseTiming();
    (void)fixture.kernel->UnloadExtension(fixture.subject, *id);
    state.ResumeTiming();
  }
  state.SetComplexityN(state.range(0));
}

void BM_XsecLink(benchmark::State& state) { XsecLink(state, /*cached=*/false); }
void BM_XsecLinkCached(benchmark::State& state) { XsecLink(state, /*cached=*/true); }
BENCHMARK(BM_XsecLink)->RangeMultiplier(4)->Range(1, 256)->Complexity(benchmark::oN);
BENCHMARK(BM_XsecLinkCached)->RangeMultiplier(4)->Range(1, 256);

void BM_SpinStyleLink(benchmark::State& state) {
  // SPIN resolves symbols against linked domains: one membership probe for
  // the domain, one symbol-table probe per import, no per-import policy.
  int imports = static_cast<int>(state.range(0));
  std::unordered_set<std::string> linked_domains = {"s"};
  std::unordered_set<std::string> domain_symbols;
  std::vector<std::string> wanted;
  for (int i = 0; i < imports; ++i) {
    std::string sym = "/svc/s/p" + std::to_string(i);
    domain_symbols.insert(sym);
    wanted.push_back(sym);
  }
  for (auto _ : state) {
    bool ok = linked_domains.count("s") != 0;
    size_t resolved = 0;
    for (const std::string& sym : wanted) {
      resolved += domain_symbols.count(sym);
    }
    benchmark::DoNotOptimize(ok);
    benchmark::DoNotOptimize(resolved);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SpinStyleLink)->RangeMultiplier(4)->Range(1, 256)->Complexity(benchmark::oN);

void BM_XsecLinkWithExports(benchmark::State& state) {
  // Link cost when the extension also specializes n interfaces.
  int exports = static_cast<int>(state.range(0));
  MonitorOptions options;
  options.check_traversal = false;
  options.audit_policy = AuditPolicy::kOff;
  Kernel kernel(options);
  PrincipalId user = *kernel.principals().CreateUser("dev");
  (void)*kernel.RegisterService("/svc/s", kernel.system_principal());
  Acl acl;
  acl.AddEntry({AclEntryType::kAllow, user,
                AccessMode::kExecute | AccessMode::kExtend | AccessMode::kList});
  (void)kernel.name_space().SetAclRef(*kernel.name_space().Lookup("/svc/s"),
                                      kernel.acls().Create(std::move(acl)));
  ExtensionManifest manifest;
  manifest.name = "bench-ext";
  for (int i = 0; i < exports; ++i) {
    std::string path = "/svc/s/i" + std::to_string(i);
    (void)*kernel.RegisterInterface(path, kernel.system_principal());
    manifest.exports.push_back(
        {path, [](CallContext&) -> StatusOr<Value> { return Value{}; }});
  }
  Subject subject = kernel.CreateSubject(user, kernel.labels().Bottom());
  for (auto _ : state) {
    auto id = kernel.LoadExtension(manifest, subject);
    benchmark::DoNotOptimize(id);
    state.PauseTiming();
    (void)kernel.UnloadExtension(subject, *id);
    state.ResumeTiming();
  }
}
BENCHMARK(BM_XsecLinkWithExports)->RangeMultiplier(4)->Range(1, 64);

}  // namespace
}  // namespace xsec

BENCHMARK_MAIN();
