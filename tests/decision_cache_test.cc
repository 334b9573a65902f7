#include "src/monitor/decision_cache.h"

#include <gtest/gtest.h>

namespace xsec {
namespace {

Subject MakeSubject(uint32_t principal, TrustLevel level = 0) {
  return Subject{PrincipalId{principal}, SecurityClass(level, CategorySet(4)), 1};
}

TEST(DecisionCacheTest, MissThenHit) {
  DecisionCache cache(64);
  Subject s = MakeSubject(1);
  CacheStamps stamps{1, 1, 1, 1};
  DecisionCache::CachedDecision out;
  EXPECT_FALSE(cache.Lookup(s, NodeId{5}, AccessMode::kRead, stamps, &out));
  cache.Insert(s, NodeId{5}, AccessMode::kRead, stamps, {true, DenyReason::kNone});
  ASSERT_TRUE(cache.Lookup(s, NodeId{5}, AccessMode::kRead, stamps, &out));
  EXPECT_TRUE(out.allowed);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(DecisionCacheTest, StaleStampsInvalidate) {
  DecisionCache cache(64);
  Subject s = MakeSubject(1);
  CacheStamps old_stamps{1, 1, 1, 1};
  cache.Insert(s, NodeId{5}, AccessMode::kRead, old_stamps, {true, DenyReason::kNone});
  CacheStamps new_stamps{2, 1, 1, 1};  // namespace changed
  DecisionCache::CachedDecision out;
  EXPECT_FALSE(cache.Lookup(s, NodeId{5}, AccessMode::kRead, new_stamps, &out));
  EXPECT_EQ(cache.stale_hits(), 1u);
  // And the slot is vacated: a second lookup with the old stamps also misses.
  EXPECT_FALSE(cache.Lookup(s, NodeId{5}, AccessMode::kRead, old_stamps, &out));
}

TEST(DecisionCacheTest, EachStampComponentMatters) {
  Subject s = MakeSubject(1);
  CacheStamps base{5, 6, 7, 8};
  for (int which = 0; which < 4; ++which) {
    DecisionCache cache(64);
    cache.Insert(s, NodeId{9}, AccessMode::kList, base, {true, DenyReason::kNone});
    CacheStamps changed = base;
    switch (which) {
      case 0:
        changed.namespace_generation++;
        break;
      case 1:
        changed.acl_generation++;
        break;
      case 2:
        changed.membership_epoch++;
        break;
      case 3:
        changed.label_epoch++;
        break;
    }
    DecisionCache::CachedDecision out;
    EXPECT_FALSE(cache.Lookup(s, NodeId{9}, AccessMode::kList, changed, &out)) << which;
  }
}

TEST(DecisionCacheTest, KeyIncludesPrincipalNodeModesAndClass) {
  DecisionCache cache(1u << 12);
  CacheStamps stamps{1, 1, 1, 1};
  Subject s1 = MakeSubject(1);
  cache.Insert(s1, NodeId{5}, AccessMode::kRead, stamps, {true, DenyReason::kNone});

  DecisionCache::CachedDecision out;
  // Different principal.
  EXPECT_FALSE(cache.Lookup(MakeSubject(2), NodeId{5}, AccessMode::kRead, stamps, &out));
  // Different node.
  EXPECT_FALSE(cache.Lookup(s1, NodeId{6}, AccessMode::kRead, stamps, &out));
  // Different modes.
  EXPECT_FALSE(cache.Lookup(s1, NodeId{5}, AccessMode::kWrite, stamps, &out));
  // Different security class (same principal).
  EXPECT_FALSE(cache.Lookup(MakeSubject(1, 2), NodeId{5}, AccessMode::kRead, stamps, &out));
  // Original still present.
  EXPECT_TRUE(cache.Lookup(s1, NodeId{5}, AccessMode::kRead, stamps, &out));
}

TEST(DecisionCacheTest, CachesDenialsToo) {
  DecisionCache cache(64);
  Subject s = MakeSubject(1);
  CacheStamps stamps{1, 1, 1, 1};
  cache.Insert(s, NodeId{5}, AccessMode::kWrite, stamps,
               {false, DenyReason::kDacExplicitDeny});
  DecisionCache::CachedDecision out;
  ASSERT_TRUE(cache.Lookup(s, NodeId{5}, AccessMode::kWrite, stamps, &out));
  EXPECT_FALSE(out.allowed);
  EXPECT_EQ(out.reason, DenyReason::kDacExplicitDeny);
}

// Multiplicative inverse of an odd m modulo 2^64 (Newton iteration).
uint64_t Inv64(uint64_t m) {
  uint64_t x = m;
  for (int i = 0; i < 6; ++i) {
    x *= 2 - m * x;
  }
  return x;
}

// Regression for the hash-aliasing soundness bug: two subjects whose
// security classes are different but whose 64-bit class hashes collide must
// not share a cache entry. The seed implementation matched slots by class
// *hash* alone, so the second subject read the first subject's cached
// decision. The colliding class is constructed analytically from the FNV
// constants; no luck required.
TEST(DecisionCacheTest, HashCollidingClassesDoNotAlias) {
  constexpr uint64_t kFnvOffset = 14695981039346656037ULL;
  constexpr uint64_t kFnvPrime = 1099511628211ULL;

  // Class A: level 1, no categories. Hash = kFnvOffset * 31 + 1.
  SecurityClass a(1, CategorySet(64));

  // Class B: level 0, one significant category word w chosen so that
  // (kFnvOffset ^ w) * kFnvPrime * 31 == kFnvOffset * 31 + 1 (mod 2^64).
  uint64_t target = kFnvOffset * 31 + 1;
  uint64_t w = kFnvOffset ^ (target * Inv64(kFnvPrime * 31));
  ASSERT_NE(w, 0u);  // w must be a significant word
  CategorySet cats(64);
  for (size_t bit = 0; bit < 64; ++bit) {
    if ((w >> bit) & 1) {
      cats.Set(bit);
    }
  }
  SecurityClass b(0, std::move(cats));

  ASSERT_EQ(a.Hash(), b.Hash());
  ASSERT_FALSE(a == b);

  DecisionCache cache(64);
  CacheStamps stamps{1, 1, 1, 1};
  Subject cleared{PrincipalId{1}, a, 1};
  Subject uncleared{PrincipalId{1}, b, 1};
  cache.Insert(cleared, NodeId{5}, AccessMode::kRead, stamps, {true, DenyReason::kNone});

  DecisionCache::CachedDecision out;
  EXPECT_FALSE(cache.Lookup(uncleared, NodeId{5}, AccessMode::kRead, stamps, &out))
      << "a colliding class hash must not alias to another subject's decision";
  // The entry itself is intact for the real key.
  EXPECT_TRUE(cache.Lookup(cleared, NodeId{5}, AccessMode::kRead, stamps, &out));
}

// Counter invariant: every Lookup counts exactly one of {hit, miss}; a stale
// probe counts as a miss AND bumps the stale_hits sub-counter. Hence
// hits + misses == total probes and stale_hits <= misses, always.
TEST(DecisionCacheTest, ProbeAccountingInvariant) {
  DecisionCache cache(64);
  Subject s = MakeSubject(1);
  CacheStamps stamps{1, 1, 1, 1};
  DecisionCache::CachedDecision out;
  uint64_t probes = 0;

  // Cold miss.
  EXPECT_FALSE(cache.Lookup(s, NodeId{5}, AccessMode::kRead, stamps, &out));
  ++probes;
  // Fresh hit.
  cache.Insert(s, NodeId{5}, AccessMode::kRead, stamps, {true, DenyReason::kNone});
  EXPECT_TRUE(cache.Lookup(s, NodeId{5}, AccessMode::kRead, stamps, &out));
  ++probes;
  // Stale probe: counted as a miss AND a stale_hit, never double-counted.
  CacheStamps bumped{2, 1, 1, 1};
  EXPECT_FALSE(cache.Lookup(s, NodeId{5}, AccessMode::kRead, bumped, &out));
  ++probes;
  // Key mismatch miss.
  EXPECT_FALSE(cache.Lookup(MakeSubject(2), NodeId{5}, AccessMode::kRead, bumped, &out));
  ++probes;

  EXPECT_EQ(cache.hits() + cache.misses(), probes);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 3u);
  EXPECT_EQ(cache.stale_hits(), 1u);
  EXPECT_LE(cache.stale_hits(), cache.misses());
}

// A resolved-path entry and the per-node entry of the same (subject, node,
// modes) are distinct keys, and they must not evict each other. Before the
// hash gained a final avalanche, the via-path flag (a high key bit) never
// reached the slot index, so the two always shared one slot.
TEST(DecisionCacheTest, PathEntryAndNodeEntryBothHit) {
  DecisionCache cache;
  Subject s = MakeSubject(1);
  CacheStamps stamps{1, 1, 1, 1};
  DecisionCache::CachedDecision out;
  for (uint32_t n = 0; n < 16; ++n) {
    NodeId node{n};
    cache.Insert(s, node, AccessMode::kExecute, stamps, {false, DenyReason::kMacFlow});
    EXPECT_FALSE(cache.Lookup(s, node, AccessMode::kExecute, stamps, &out, /*via_path=*/true))
        << "a per-node entry must not answer a path probe";
    cache.Insert(s, node, AccessMode::kExecute, stamps, {true, DenyReason::kNone},
                 /*via_path=*/true);
    ASSERT_TRUE(cache.Lookup(s, node, AccessMode::kExecute, stamps, &out)) << n;
    EXPECT_FALSE(out.allowed);
    ASSERT_TRUE(cache.Lookup(s, node, AccessMode::kExecute, stamps, &out, /*via_path=*/true))
        << n;
    EXPECT_TRUE(out.allowed);
  }
}

TEST(DecisionCacheTest, CollisionOverwrites) {
  // A 1-slot cache: every distinct key collides.
  DecisionCache cache(1);
  Subject s = MakeSubject(1);
  CacheStamps stamps{1, 1, 1, 1};
  cache.Insert(s, NodeId{1}, AccessMode::kRead, stamps, {true, DenyReason::kNone});
  cache.Insert(s, NodeId{2}, AccessMode::kRead, stamps, {false, DenyReason::kMacFlow});
  DecisionCache::CachedDecision out;
  EXPECT_FALSE(cache.Lookup(s, NodeId{1}, AccessMode::kRead, stamps, &out));
  ASSERT_TRUE(cache.Lookup(s, NodeId{2}, AccessMode::kRead, stamps, &out));
  EXPECT_FALSE(out.allowed);
}

}  // namespace
}  // namespace xsec
