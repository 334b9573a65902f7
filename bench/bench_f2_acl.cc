// Experiment F2 — ACL evaluation cost (DESIGN.md §5).
//
// "Fully featured access control lists" (§2.1) have a linear evaluation
// cost; this figure quantifies the slope and the constants:
//
//   Evaluate/<n>          n-entry ACL, subject matches only the last entry
//   EvaluateFirstHit/<n>  n-entry ACL, subject matches the first entry
//                         (same cost — deny-overrides must scan everything)
//   EvaluateDenyShortCircuit/<n>  a matching deny entry stops the scan early
//   GroupClosure/<n>      membership-closure computation for n nested groups
//   EffectiveModes/<n>    full mode-set extraction
//
// Expected shape: linear in ACL length; closure cost linear in nesting depth
// but cached by the registry (the *Cached variant is O(1)).

#include <benchmark/benchmark.h>

#include "src/dac/acl.h"
#include "src/principal/registry.h"

namespace xsec {
namespace {

Acl MakeAcl(int entries, PrincipalId subject_match, bool match_first) {
  Acl acl;
  for (int i = 0; i < entries; ++i) {
    bool is_match = match_first ? i == 0 : i == entries - 1;
    PrincipalId who = is_match ? subject_match : PrincipalId{1000 + static_cast<uint32_t>(i)};
    acl.AddEntry({AclEntryType::kAllow, who, AccessMode::kRead | AccessMode::kExecute});
  }
  return acl;
}

DynamicBitset SubjectClosure() {
  DynamicBitset closure(4);
  closure.Set(3);
  return closure;
}

void BM_Evaluate(benchmark::State& state) {
  Acl acl = MakeAcl(static_cast<int>(state.range(0)), PrincipalId{3}, false);
  DynamicBitset closure = SubjectClosure();
  for (auto _ : state) {
    benchmark::DoNotOptimize(acl.Evaluate(closure, AccessMode::kRead));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Evaluate)->RangeMultiplier(4)->Range(1, 256)->Complexity(benchmark::oN);

void BM_EvaluateFirstHit(benchmark::State& state) {
  Acl acl = MakeAcl(static_cast<int>(state.range(0)), PrincipalId{3}, true);
  DynamicBitset closure = SubjectClosure();
  for (auto _ : state) {
    benchmark::DoNotOptimize(acl.Evaluate(closure, AccessMode::kRead));
  }
}
BENCHMARK(BM_EvaluateFirstHit)->RangeMultiplier(4)->Range(1, 256);

void BM_EvaluateDenyShortCircuit(benchmark::State& state) {
  Acl acl;
  acl.AddEntry({AclEntryType::kDeny, PrincipalId{3}, AccessModeSet(AccessMode::kRead)});
  for (int i = 1; i < state.range(0); ++i) {
    acl.AddEntry({AclEntryType::kAllow, PrincipalId{1000 + static_cast<uint32_t>(i)},
                  AccessModeSet(AccessMode::kRead)});
  }
  DynamicBitset closure = SubjectClosure();
  for (auto _ : state) {
    benchmark::DoNotOptimize(acl.Evaluate(closure, AccessMode::kRead));
  }
}
BENCHMARK(BM_EvaluateDenyShortCircuit)->RangeMultiplier(4)->Range(1, 256);

void BM_EvaluateWithNegativeEntries(benchmark::State& state) {
  // Half allow, half non-matching deny: the realistic mixed case.
  Acl acl;
  int n = static_cast<int>(state.range(0));
  for (int i = 0; i < n; ++i) {
    acl.AddEntry({i % 2 == 0 ? AclEntryType::kAllow : AclEntryType::kDeny,
                  PrincipalId{1000 + static_cast<uint32_t>(i)},
                  AccessModeSet(AccessMode::kRead)});
  }
  acl.AddEntry({AclEntryType::kAllow, PrincipalId{3}, AccessModeSet(AccessMode::kRead)});
  DynamicBitset closure = SubjectClosure();
  for (auto _ : state) {
    benchmark::DoNotOptimize(acl.Evaluate(closure, AccessMode::kRead));
  }
}
BENCHMARK(BM_EvaluateWithNegativeEntries)->RangeMultiplier(4)->Range(2, 256);

void BM_GroupClosureCold(benchmark::State& state) {
  // n nested groups; the closure is recomputed every iteration by bumping
  // the epoch (a membership no-op add/remove would distort the numbers, so
  // rebuild the registry per batch instead).
  int depth = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    PrincipalRegistry registry;
    PrincipalId user = *registry.CreateUser("u");
    PrincipalId prev = user;
    for (int i = 0; i < depth; ++i) {
      PrincipalId group = *registry.CreateGroup("g" + std::to_string(i));
      (void)registry.AddMember(group, prev);
      prev = group;
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(registry.Closure(user));
  }
}
BENCHMARK(BM_GroupClosureCold)->RangeMultiplier(4)->Range(1, 256);

void BM_GroupClosureCached(benchmark::State& state) {
  PrincipalRegistry registry;
  PrincipalId user = *registry.CreateUser("u");
  PrincipalId prev = user;
  for (int i = 0; i < state.range(0); ++i) {
    PrincipalId group = *registry.CreateGroup("g" + std::to_string(i));
    (void)registry.AddMember(group, prev);
    prev = group;
  }
  (void)registry.Closure(user);  // warm
  for (auto _ : state) {
    benchmark::DoNotOptimize(registry.Closure(user));
  }
}
BENCHMARK(BM_GroupClosureCached)->RangeMultiplier(4)->Range(1, 256);

void BM_EffectiveModes(benchmark::State& state) {
  Acl acl = MakeAcl(static_cast<int>(state.range(0)), PrincipalId{3}, false);
  DynamicBitset closure = SubjectClosure();
  for (auto _ : state) {
    benchmark::DoNotOptimize(acl.EffectiveModes(closure));
  }
}
BENCHMARK(BM_EffectiveModes)->RangeMultiplier(4)->Range(1, 256);

}  // namespace
}  // namespace xsec

BENCHMARK_MAIN();
