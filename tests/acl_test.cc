#include "src/dac/acl.h"

#include <algorithm>
#include <gtest/gtest.h>

#include "src/base/rng.h"
#include "src/principal/registry.h"

namespace xsec {
namespace {

// A closure containing exactly the given principal ids.
DynamicBitset ClosureOf(std::initializer_list<uint32_t> ids) {
  DynamicBitset c(16);
  for (uint32_t id : ids) {
    c.Set(id);
  }
  return c;
}

constexpr PrincipalId kAlice{1};
constexpr PrincipalId kBob{2};
constexpr PrincipalId kStaff{10};

TEST(AclTest, EmptyAclDeniesEverything) {
  Acl acl;
  EXPECT_EQ(acl.Evaluate(ClosureOf({1}), AccessMode::kRead), AclVerdict::kNoMatchingGrant);
  EXPECT_EQ(acl.Evaluate(ClosureOf({1}), AccessModeSet::None()), AclVerdict::kGranted);
}

TEST(AclTest, DirectUserGrant) {
  Acl acl;
  acl.AddEntry({AclEntryType::kAllow, kAlice, AccessMode::kRead | AccessMode::kWrite});
  EXPECT_EQ(acl.Evaluate(ClosureOf({1}), AccessMode::kRead), AclVerdict::kGranted);
  EXPECT_EQ(acl.Evaluate(ClosureOf({1}), AccessMode::kExecute),
            AclVerdict::kNoMatchingGrant);
  EXPECT_EQ(acl.Evaluate(ClosureOf({2}), AccessMode::kRead), AclVerdict::kNoMatchingGrant);
}

TEST(AclTest, GroupGrantViaClosure) {
  Acl acl;
  acl.AddEntry({AclEntryType::kAllow, kStaff, AccessModeSet(AccessMode::kRead)});
  // Alice's closure includes the staff group.
  EXPECT_EQ(acl.Evaluate(ClosureOf({1, 10}), AccessMode::kRead), AclVerdict::kGranted);
  // Bob is not in staff.
  EXPECT_EQ(acl.Evaluate(ClosureOf({2}), AccessMode::kRead), AclVerdict::kNoMatchingGrant);
}

TEST(AclTest, DenyOverridesAllow) {
  Acl acl;
  acl.AddEntry({AclEntryType::kAllow, kStaff, AccessModeSet(AccessMode::kRead)});
  acl.AddEntry({AclEntryType::kDeny, kAlice, AccessModeSet(AccessMode::kRead)});
  EXPECT_EQ(acl.Evaluate(ClosureOf({1, 10}), AccessMode::kRead),
            AclVerdict::kDeniedByEntry);
  // Other staff members unaffected.
  EXPECT_EQ(acl.Evaluate(ClosureOf({2, 10}), AccessMode::kRead), AclVerdict::kGranted);
}

TEST(AclTest, DenyOnlyBlocksItsModes) {
  Acl acl;
  acl.AddEntry({AclEntryType::kAllow, kAlice, AccessMode::kRead | AccessMode::kWrite});
  acl.AddEntry({AclEntryType::kDeny, kAlice, AccessModeSet(AccessMode::kWrite)});
  EXPECT_EQ(acl.Evaluate(ClosureOf({1}), AccessMode::kRead), AclVerdict::kGranted);
  EXPECT_EQ(acl.Evaluate(ClosureOf({1}), AccessMode::kWrite), AclVerdict::kDeniedByEntry);
  // A combined request fails if any requested mode is denied.
  EXPECT_EQ(acl.Evaluate(ClosureOf({1}), AccessMode::kRead | AccessMode::kWrite),
            AclVerdict::kDeniedByEntry);
}

TEST(AclTest, GrantsAccumulateAcrossEntries) {
  Acl acl;
  acl.AddEntry({AclEntryType::kAllow, kAlice, AccessModeSet(AccessMode::kRead)});
  acl.AddEntry({AclEntryType::kAllow, kStaff, AccessModeSet(AccessMode::kWrite)});
  EXPECT_EQ(acl.Evaluate(ClosureOf({1, 10}), AccessMode::kRead | AccessMode::kWrite),
            AclVerdict::kGranted);
  EXPECT_EQ(acl.Evaluate(ClosureOf({1}), AccessMode::kRead | AccessMode::kWrite),
            AclVerdict::kNoMatchingGrant);
}

TEST(AclTest, DuplicateEntriesMerge) {
  Acl acl;
  acl.AddEntry({AclEntryType::kAllow, kAlice, AccessModeSet(AccessMode::kRead)});
  acl.AddEntry({AclEntryType::kAllow, kAlice, AccessModeSet(AccessMode::kWrite)});
  EXPECT_EQ(acl.entries().size(), 1u);
  EXPECT_EQ(acl.Evaluate(ClosureOf({1}), AccessMode::kRead | AccessMode::kWrite),
            AclVerdict::kGranted);
}

TEST(AclTest, EffectiveModes) {
  Acl acl;
  acl.AddEntry({AclEntryType::kAllow, kStaff,
                AccessMode::kRead | AccessMode::kWrite | AccessMode::kExecute});
  acl.AddEntry({AclEntryType::kDeny, kAlice, AccessModeSet(AccessMode::kWrite)});
  AccessModeSet effective = acl.EffectiveModes(ClosureOf({1, 10}));
  EXPECT_TRUE(effective.Contains(AccessMode::kRead));
  EXPECT_TRUE(effective.Contains(AccessMode::kExecute));
  EXPECT_FALSE(effective.Contains(AccessMode::kWrite));
}

TEST(AclTest, RemoveEntriesFor) {
  Acl acl;
  acl.AddEntry({AclEntryType::kAllow, kAlice, AccessModeSet(AccessMode::kRead)});
  acl.AddEntry({AclEntryType::kDeny, kAlice, AccessModeSet(AccessMode::kWrite)});
  acl.AddEntry({AclEntryType::kAllow, kBob, AccessModeSet(AccessMode::kRead)});
  EXPECT_EQ(acl.RemoveEntriesFor(kAlice), 2u);
  EXPECT_EQ(acl.entries().size(), 1u);
  EXPECT_EQ(acl.Evaluate(ClosureOf({1}), AccessMode::kRead), AclVerdict::kNoMatchingGrant);
}

// Property: evaluation is independent of entry order (deny-overrides makes
// the ACL a set, not a sequence).
class AclOrderIndependenceTest : public ::testing::TestWithParam<int> {};

TEST_P(AclOrderIndependenceTest, ShuffledAclsAgree) {
  Rng rng(GetParam());
  std::vector<AclEntry> entries;
  size_t n = 1 + rng.NextBelow(12);
  for (size_t i = 0; i < n; ++i) {
    AclEntry e;
    e.type = rng.NextBool(1, 3) ? AclEntryType::kDeny : AclEntryType::kAllow;
    e.who = PrincipalId{static_cast<uint32_t>(rng.NextBelow(6))};
    e.modes = AccessModeSet(static_cast<uint32_t>(rng.NextBelow(256)));
    entries.push_back(e);
  }
  Acl original;
  for (const AclEntry& e : entries) {
    original.AddEntry(e);
  }
  // Fisher-Yates shuffle.
  for (size_t i = entries.size(); i > 1; --i) {
    std::swap(entries[i - 1], entries[rng.NextBelow(i)]);
  }
  Acl shuffled;
  for (const AclEntry& e : entries) {
    shuffled.AddEntry(e);
  }
  for (uint32_t closure_bits = 0; closure_bits < 64; ++closure_bits) {
    DynamicBitset closure(6);
    for (uint32_t b = 0; b < 6; ++b) {
      if (closure_bits & (1u << b)) {
        closure.Set(b);
      }
    }
    for (int m = 0; m < kAccessModeCount; ++m) {
      AccessModeSet request(static_cast<AccessMode>(1u << m));
      EXPECT_EQ(original.Evaluate(closure, request), shuffled.Evaluate(closure, request));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AclOrderIndependenceTest, ::testing::Range(0, 16));

// Property: Evaluate(closure, m) == Granted iff m ∈ EffectiveModes(closure).
class AclConsistencyTest : public ::testing::TestWithParam<int> {};

TEST_P(AclConsistencyTest, EvaluateMatchesEffectiveModes) {
  Rng rng(GetParam() + 1000);
  Acl acl;
  size_t n = rng.NextBelow(10);
  for (size_t i = 0; i < n; ++i) {
    acl.AddEntry({rng.NextBool(1, 3) ? AclEntryType::kDeny : AclEntryType::kAllow,
                  PrincipalId{static_cast<uint32_t>(rng.NextBelow(5))},
                  AccessModeSet(static_cast<uint32_t>(rng.NextBelow(256)))});
  }
  DynamicBitset closure(5);
  for (uint32_t b = 0; b < 5; ++b) {
    if (rng.NextBool(1, 2)) {
      closure.Set(b);
    }
  }
  AccessModeSet effective = acl.EffectiveModes(closure);
  for (int m = 0; m < kAccessModeCount; ++m) {
    AccessMode mode = static_cast<AccessMode>(1u << m);
    bool granted = acl.Evaluate(closure, mode) == AclVerdict::kGranted;
    EXPECT_EQ(granted, effective.Contains(mode)) << AccessModeName(mode);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AclConsistencyTest, ::testing::Range(0, 16));

TEST(AclStoreTest, CreateGetReplace) {
  AclStore store;
  Acl acl;
  acl.AddEntry({AclEntryType::kAllow, kAlice, AccessModeSet(AccessMode::kRead)});
  AclStore::AclRef ref = store.Create(std::move(acl));
  ASSERT_NE(store.Get(ref), nullptr);
  EXPECT_EQ(store.Get(ref)->entries().size(), 1u);
  EXPECT_EQ(store.Get(999), nullptr);

  // An untagged ref may be bound anywhere, so replacing it moves every
  // domain's generation: each shard's and the root's.
  uint64_t shard0 = store.shard_generation(0);
  uint64_t root0 = store.shard_generation(kAllShards);
  Acl replacement;
  ASSERT_TRUE(store.Replace(ref, std::move(replacement)).ok());
  EXPECT_GT(store.shard_generation(0), shard0);
  EXPECT_GT(store.shard_generation(kAllShards), root0);
  EXPECT_TRUE(store.Get(ref)->empty());
  EXPECT_EQ(store.Replace(999, Acl()).code(), StatusCode::kNotFound);
}

TEST(AclStoreTest, InPlaceEditsBumpGenerations) {
  AclStore store;
  AclStore::AclRef ref = store.Create(Acl());
  uint64_t s0 = store.shard_generation(kMonitorShardCount - 1);
  uint64_t r0 = store.shard_generation(kAllShards);
  ASSERT_TRUE(
      store.AddEntry(ref, {AclEntryType::kAllow, kBob, AccessModeSet(AccessMode::kRead)}).ok());
  EXPECT_GT(store.shard_generation(kMonitorShardCount - 1), s0);
  EXPECT_GT(store.shard_generation(kAllShards), r0);
  uint64_t s1 = store.shard_generation(kMonitorShardCount - 1);
  uint64_t r1 = store.shard_generation(kAllShards);
  ASSERT_TRUE(store.RemoveEntriesFor(ref, kBob).ok());
  EXPECT_GT(store.shard_generation(kMonitorShardCount - 1), s1);
  EXPECT_GT(store.shard_generation(kAllShards), r1);
  EXPECT_TRUE(store.Get(ref)->empty());
}

}  // namespace
}  // namespace xsec
