// Sharded stamp domains (docs/MODEL.md §15): shard assignment and
// inheritance, per-shard generation bumps, cross-shard cache isolation,
// the domain field's anti-aliasing role, and shard-local interning.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/base/shard.h"
#include "src/monitor/reference_monitor.h"
#include "src/principal/intern_pool.h"

namespace xsec {
namespace {

// Two top-level container names guaranteed to hash to different shards.
std::pair<std::string, std::string> TwoShardNames() {
  std::string a = "ta";
  for (int i = 0;; ++i) {
    std::string b = "tb" + std::to_string(i);
    if (ShardOfName(b) != ShardOfName(a)) {
      return {a, b};
    }
  }
}

// ---------------------------------------------------------------------------
// Store layer: shard assignment and per-shard generations.

TEST(ShardStampsTest, TopLevelContainersHashByNameAndChildrenInherit) {
  NameSpace ns;
  auto [name_a, name_b] = TwoShardNames();
  NodeId deep_a = *ns.BindPath("/" + name_a + "/x/y", NodeKind::kFile, PrincipalId{1});
  NodeId deep_b = *ns.BindPath("/" + name_b + "/z", NodeKind::kFile, PrincipalId{1});
  EXPECT_EQ(ns.ShardOf(deep_a), ShardOfName(name_a));
  EXPECT_EQ(ns.ShardOf(deep_b), ShardOfName(name_b));
  EXPECT_NE(ns.ShardOf(deep_a), ns.ShardOf(deep_b));
  // The root belongs to every shard (its metadata governs all inheritance).
  EXPECT_EQ(ns.ShardOf(ns.root()), kAllShards);
  // Unknown ids fall to the aggregate domain, never a concrete shard.
  EXPECT_EQ(ns.ShardOf(NodeId{999999}), kAggregateShard);
}

TEST(ShardStampsTest, TopLevelLeavesHashByOwnerPrincipal) {
  NameSpace ns;
  PrincipalId owner{12345};
  // kFile cannot have children — no subtree to key by name, so it follows
  // its owner (the flat-namespace fallback).
  NodeId leaf = *ns.Bind(ns.root(), "flatobj", NodeKind::kFile, owner);
  EXPECT_EQ(ns.ShardOf(leaf), ShardOfPrincipal(owner.value));
}

TEST(ShardStampsTest, MetadataMutationBumpsOnlyItsShard) {
  NameSpace ns;
  auto [name_a, name_b] = TwoShardNames();
  NodeId a = *ns.BindPath("/" + name_a + "/obj", NodeKind::kObject, PrincipalId{1});
  (void)*ns.BindPath("/" + name_b + "/obj", NodeKind::kObject, PrincipalId{1});
  ShardId shard_a = ns.ShardOf(a);

  uint64_t before[kMonitorShardCount];
  for (ShardId s = 0; s < kMonitorShardCount; ++s) {
    before[s] = ns.shard_generation(s);
  }
  uint64_t global_before = ns.global_generation();
  ASSERT_TRUE(ns.SetOwner(a, PrincipalId{2}).ok());
  for (ShardId s = 0; s < kMonitorShardCount; ++s) {
    if (s == shard_a) {
      EXPECT_GT(ns.shard_generation(s), before[s]) << "shard " << s;
    } else {
      EXPECT_EQ(ns.shard_generation(s), before[s]) << "shard " << s;
    }
  }
  // The aggregate domain still sees every mutation.
  EXPECT_GT(ns.global_generation(), global_before);
}

TEST(ShardStampsTest, RootMetadataMutationBumpsEveryShard) {
  NameSpace ns;
  uint64_t before[kMonitorShardCount];
  for (ShardId s = 0; s < kMonitorShardCount; ++s) {
    before[s] = ns.shard_generation(s);
  }
  // Every node may inherit the root's ACL, so this must invalidate all shards.
  ASSERT_TRUE(ns.SetAclRef(ns.root(), 7).ok());
  for (ShardId s = 0; s < kMonitorShardCount; ++s) {
    EXPECT_GT(ns.shard_generation(s), before[s]) << "shard " << s;
  }
}

TEST(ShardStampsTest, AclStoreTagsNarrowOnceAndEscalateOnSharing) {
  AclStore acls;
  Acl acl;
  acl.AddEntry({AclEntryType::kAllow, PrincipalId{1}, AccessModeSet(AccessMode::kRead)});
  AclStore::AclRef ref = acls.Create(Acl(acl), ShardId{3});
  EXPECT_EQ(acls.ShardOf(ref), 3u);

  uint64_t gen3 = acls.shard_generation(3);
  uint64_t gen5 = acls.shard_generation(5);
  ASSERT_TRUE(
      acls.AddEntry(ref, {AclEntryType::kAllow, PrincipalId{2}, AccessModeSet(AccessMode::kWrite)})
          .ok());
  EXPECT_GT(acls.shard_generation(3), gen3);
  EXPECT_EQ(acls.shard_generation(5), gen5);

  // A second attach from a different shard means the ref is shared across
  // subtrees: the tag escalates permanently and edits bump every shard.
  acls.AttachShard(ref, ShardId{5});
  EXPECT_EQ(acls.ShardOf(ref), kAllShards);
  gen5 = acls.shard_generation(5);
  ASSERT_TRUE(
      acls.AddEntry(ref, {AclEntryType::kAllow, PrincipalId{3}, AccessModeSet(AccessMode::kList)})
          .ok());
  EXPECT_GT(acls.shard_generation(5), gen5);
}

// ---------------------------------------------------------------------------
// Monitor layer: cross-shard isolation of cached decisions.

struct ShardedMonitorFixture {
  explicit ShardedMonitorFixture(bool shard_stamps = true) {
    MonitorOptions options;
    options.audit_policy = AuditPolicy::kOff;
    options.shard_stamps = shard_stamps;
    monitor = std::make_unique<ReferenceMonitor>(&ns, &acls, &principals, &labels, options);
    user = *principals.CreateUser("u");
    auto [name_a, name_b] = TwoShardNames();
    obj_a = MakeObject("/" + name_a);
    obj_b = MakeObject("/" + name_b);
    subject = Subject{user, labels.Bottom(), 1};
  }

  NodeId MakeObject(const std::string& top) {
    NodeId node = *ns.BindPath(top + "/obj", NodeKind::kObject, user);
    Acl acl;
    acl.AddEntry({AclEntryType::kAllow, user, AccessModeSet(AccessMode::kRead)});
    (void)ns.SetAclRef(node, acls.Create(std::move(acl), ns.ShardOf(node)));
    return node;
  }

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

TEST(ShardStampsTest, CrossShardMutationKeepsCacheEntriesValid) {
  ShardedMonitorFixture f;
  EXPECT_TRUE(f.monitor->Check(f.subject, f.obj_b, AccessMode::kRead).allowed);  // warm
  uint64_t hits = f.monitor->cache().hits();
  uint64_t stale = f.monitor->cache().stale_hits();

  ASSERT_TRUE(f.ns.SetOwner(f.obj_a, f.user).ok());  // mutate the OTHER shard
  EXPECT_TRUE(f.monitor->Check(f.subject, f.obj_b, AccessMode::kRead).allowed);
  EXPECT_EQ(f.monitor->cache().hits(), hits + 1);
  EXPECT_EQ(f.monitor->cache().stale_hits(), stale);

  ASSERT_TRUE(f.ns.SetOwner(f.obj_b, f.user).ok());  // mutate the SAME shard
  EXPECT_TRUE(f.monitor->Check(f.subject, f.obj_b, AccessMode::kRead).allowed);
  EXPECT_EQ(f.monitor->cache().stale_hits(), stale + 1);
}

TEST(ShardStampsTest, ShardStampsOffRevertsToAggregateInvalidation) {
  ShardedMonitorFixture f(/*shard_stamps=*/false);
  EXPECT_TRUE(f.monitor->Check(f.subject, f.obj_b, AccessMode::kRead).allowed);
  uint64_t stale = f.monitor->cache().stale_hits();
  // In the aggregate domain ANY mutation invalidates everything — the
  // legacy behavior the option preserves.
  ASSERT_TRUE(f.ns.SetOwner(f.obj_a, f.user).ok());
  EXPECT_TRUE(f.monitor->Check(f.subject, f.obj_b, AccessMode::kRead).allowed);
  EXPECT_EQ(f.monitor->cache().stale_hits(), stale + 1);
}

TEST(ShardStampsTest, PerShardCheckCountersFeedTelemetry) {
  ShardedMonitorFixture f;
  ShardId shard_b = f.ns.ShardOf(f.obj_b);
  uint64_t before = f.monitor->stats().by_shard(shard_b);
  (void)f.monitor->Check(f.subject, f.obj_b, AccessMode::kRead);
  (void)f.monitor->Check(f.subject, f.obj_b, AccessMode::kRead);
  EXPECT_EQ(f.monitor->stats().by_shard(shard_b), before + 2);
}

TEST(ShardStampsTest, DomainFieldPreventsCrossDomainStampAliasing) {
  // Two stamp vectors with identical counter values but different domains
  // must never validate each other: the counters advance independently, so
  // value equality across domains is coincidence, not freshness.
  DecisionCache cache(64);
  Subject subject{PrincipalId{1}, SecurityClass(), 1};
  CacheStamps shard3;
  shard3.domain = 3;
  CacheStamps shard7 = shard3;
  shard7.domain = 7;
  ASSERT_FALSE(shard3 == shard7);

  cache.Insert(subject, NodeId{5}, AccessModeSet(AccessMode::kRead), shard3,
               DecisionCache::CachedDecision{true, DenyReason::kNone});
  DecisionCache::CachedDecision out;
  EXPECT_TRUE(cache.Lookup(subject, NodeId{5}, AccessModeSet(AccessMode::kRead), shard3, &out));
  EXPECT_FALSE(cache.Lookup(subject, NodeId{5}, AccessModeSet(AccessMode::kRead), shard7, &out));
}

// ---------------------------------------------------------------------------
// Satellite: BindPath must not hand auto-created intermediates to the
// caller. The owner-administrate fallback would otherwise leak administrate
// on every path prefix the caller named.

TEST(ShardStampsTest, BindPathIntermediatesInheritEnclosingOwner) {
  NameSpace ns;
  PrincipalId system{7};
  PrincipalId alice{42};
  NodeId top = *ns.BindPath("/srv", NodeKind::kDirectory, system);
  NodeId leaf = *ns.BindPath("/srv/apps/web/config", NodeKind::kFile, alice);

  EXPECT_EQ(ns.Get(leaf)->owner, alice);
  NodeId apps = *ns.Child(top, "apps");
  NodeId web = *ns.Child(apps, "web");
  // The intermediates alice never held take the enclosing directory's owner.
  EXPECT_EQ(ns.Get(apps)->owner, system);
  EXPECT_EQ(ns.Get(web)->owner, system);
}

// ---------------------------------------------------------------------------
// Shard-local interning.

TEST(ShardInternTest, PrincipalInternPoolDedupsIntoDenseIds) {
  PrincipalInternPool pool;
  uint32_t a = pool.Intern("alice");
  uint32_t b = pool.Intern("bob");
  EXPECT_NE(a, b);
  EXPECT_EQ(pool.Intern("alice"), a);
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_EQ(pool.NameOf(a), "alice");
  EXPECT_EQ(pool.NameOf(b), "bob");
  EXPECT_EQ(pool.Find("bob"), b);
  EXPECT_EQ(pool.Find("carol"), UINT32_MAX);
  EXPECT_EQ(pool.NameOf(99), std::string_view());
}

TEST(ShardInternTest, NameArenaViewsStayStableAcrossChunkGrowth) {
  PrincipalInternPool pool;
  std::vector<uint32_t> ids;
  // Enough bytes to cross several 64KB chunks; every earlier view must
  // survive later growth (that is the arena's whole contract).
  for (int i = 0; i < 5000; ++i) {
    ids.push_back(pool.Intern("principal-" + std::to_string(i) + std::string(32, 'x')));
  }
  // An oversized name gets a dedicated chunk without corrupting packing.
  uint32_t big = pool.Intern(std::string(200 * 1024, 'y'));
  EXPECT_EQ(pool.NameOf(ids[0]), "principal-0" + std::string(32, 'x'));
  EXPECT_EQ(pool.NameOf(ids[4999]), "principal-4999" + std::string(32, 'x'));
  EXPECT_EQ(pool.NameOf(big).size(), 200u * 1024);
  EXPECT_EQ(pool.size(), 5001u);
}

TEST(ShardInternTest, AclStoreSharesIdenticalEntryListsWithinShard) {
  AclStore acls;
  auto make = [] {
    Acl acl;
    acl.AddEntry({AclEntryType::kAllow, PrincipalId{1}, AccessModeSet(AccessMode::kRead)});
    return acl;
  };
  AclStore::AclRef r1 = acls.Create(make(), ShardId{2});
  AclStore::AclRef r2 = acls.Create(make(), ShardId{2});
  // Same content, same shard pool: one shared entry list.
  EXPECT_EQ(acls.Get(r1)->shared_entries(), acls.Get(r2)->shared_entries());
  EXPECT_EQ(acls.intern_hits(), 1u);

  // Copy-on-write: editing one ref must not leak into the other.
  ASSERT_TRUE(
      acls.AddEntry(r2, {AclEntryType::kDeny, PrincipalId{9}, AccessModeSet(AccessMode::kWrite)})
          .ok());
  EXPECT_EQ(acls.Get(r1)->entries().size(), 1u);
  EXPECT_EQ(acls.Get(r2)->entries().size(), 2u);

  // Different shard pools intern independently (no cross-shard sharing).
  AclStore::AclRef r3 = acls.Create(make(), ShardId{4});
  EXPECT_NE(acls.Get(r1)->shared_entries(), acls.Get(r3)->shared_entries());
}

}  // namespace
}  // namespace xsec
