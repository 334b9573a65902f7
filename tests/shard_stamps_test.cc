// Sharded stamp domains (docs/MODEL.md §15): shard assignment and
// inheritance, per-shard generation bumps, cross-shard cache isolation
// (down to a kernel loading and unloading code), the root's own domain,
// uncached unplaceable ids, the domain field's anti-aliasing role, and
// ACL interning.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/base/shard.h"
#include "src/core/secure_system.h"
#include "src/monitor/reference_monitor.h"

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
  uint64_t root_before = ns.shard_generation(kAllShards);
  ASSERT_TRUE(ns.SetOwner(a, PrincipalId{2}).ok());
  for (ShardId s = 0; s < kMonitorShardCount; ++s) {
    if (s == shard_a) {
      EXPECT_GT(ns.shard_generation(s), before[s]) << "shard " << s;
    } else {
      EXPECT_EQ(ns.shard_generation(s), before[s]) << "shard " << s;
    }
  }
  // Nor does the root's domain: no root decision reads a's metadata.
  EXPECT_EQ(ns.shard_generation(kAllShards), root_before);
}

TEST(ShardStampsTest, RootMetadataMutationBumpsEveryShard) {
  NameSpace ns;
  uint64_t before[kMonitorShardCount];
  for (ShardId s = 0; s < kMonitorShardCount; ++s) {
    before[s] = ns.shard_generation(s);
  }
  uint64_t root_before = ns.shard_generation(kAllShards);
  // Every node may inherit the root's ACL, so this must invalidate all shards.
  ASSERT_TRUE(ns.SetAclRef(ns.root(), 7).ok());
  for (ShardId s = 0; s < kMonitorShardCount; ++s) {
    EXPECT_GT(ns.shard_generation(s), before[s]) << "shard " << s;
  }
  EXPECT_GT(ns.shard_generation(kAllShards), root_before);
}

// A slot's tag, fixed when it is created, decides which stamps its edits
// move: a concrete shard's alone, or every shard's and the root's.
TEST(ShardStampsTest, SlotTagsDecideWhichStampsAnEditMoves) {
  struct Gens {
    uint64_t shard3, shard5, root;
  };
  AclStore acls;
  auto acl_gens = [&] {
    return Gens{acls.shard_generation(3), acls.shard_generation(5),
                acls.shard_generation(kAllShards)};
  };
  Acl acl;
  acl.AddEntry({AclEntryType::kAllow, PrincipalId{1}, AccessModeSet(AccessMode::kRead)});
  AclStore::AclRef tagged = acls.Create(Acl(acl), ShardId{3});
  AclStore::AclRef untagged = acls.Create(Acl(acl));
  const AclEntry entry{AclEntryType::kAllow, PrincipalId{2}, AccessModeSet(AccessMode::kWrite)};

  Gens before = acl_gens();
  ASSERT_TRUE(acls.AddEntry(tagged, entry).ok());
  Gens after = acl_gens();
  EXPECT_GT(after.shard3, before.shard3);
  EXPECT_EQ(after.shard5, before.shard5);
  EXPECT_EQ(after.root, before.root);

  before = after;
  ASSERT_TRUE(acls.Replace(untagged, Acl()).ok());
  after = acl_gens();
  EXPECT_GT(after.shard3, before.shard3);
  EXPECT_GT(after.shard5, before.shard5);
  EXPECT_GT(after.root, before.root);

  LabelAuthority labels;
  auto label_gens = [&] {
    return Gens{labels.shard_epoch(3), labels.shard_epoch(5), labels.shard_epoch(kAllShards)};
  };
  LabelAuthority::LabelRef tagged_label = labels.StoreLabel(labels.Bottom(), ShardId{3});
  LabelAuthority::LabelRef root_label = labels.StoreLabel(labels.Bottom(), kAllShards);

  before = label_gens();
  ASSERT_TRUE(labels.ReplaceLabel(tagged_label, labels.Top()).ok());
  after = label_gens();
  EXPECT_GT(after.shard3, before.shard3);
  EXPECT_EQ(after.shard5, before.shard5);
  EXPECT_EQ(after.root, before.root);

  before = after;
  ASSERT_TRUE(labels.ReplaceLabel(root_label, labels.Top()).ok());
  after = label_gens();
  EXPECT_GT(after.shard3, before.shard3);
  EXPECT_GT(after.shard5, before.shard5);
  EXPECT_GT(after.root, before.root);
}

// ---------------------------------------------------------------------------
// Monitor layer: cross-shard isolation of cached decisions.

struct ShardedMonitorFixture {
  ShardedMonitorFixture() {
    MonitorOptions options;
    options.audit_policy = AuditPolicy::kOff;
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

// A bind moves no stamp: no cached decision names the fresh id, and no
// decision about another node reads a children map. So binding a sibling
// leaves a warm entry in the same shard valid.
TEST(ShardStampsTest, BindKeepsItsShardsEntriesWarm) {
  ShardedMonitorFixture f;
  EXPECT_TRUE(f.monitor->Check(f.subject, f.obj_a, AccessMode::kRead).allowed);  // warm
  const uint64_t stale = f.monitor->cache().stale_hits();

  NodeId sibling = *f.ns.Bind(f.ns.Get(f.obj_a)->parent, "sibling", NodeKind::kFile, f.user);
  ASSERT_EQ(f.ns.ShardOf(sibling), f.ns.ShardOf(f.obj_a));

  const uint64_t hits = f.monitor->cache().hits();
  EXPECT_TRUE(f.monitor->Check(f.subject, f.obj_a, AccessMode::kRead).allowed);
  EXPECT_EQ(f.monitor->cache().hits(), hits + 1) << "the warm entry was served";
  EXPECT_EQ(f.monitor->cache().stale_hits(), stale) << "the bind staled its shard";
}

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

// What the shards buy end to end: linking and unlinking code under /ext
// leaves the cached decisions about /svc valid. In one aggregate domain
// every load and every unload would stale them, which is what halved
// e2ebench's extension_churn with the domains off (EXPERIMENTS.md F16).
TEST(ShardStampsTest, ExtensionLoadAndUnloadKeepSvcDecisionsCached) {
  SecureSystem sys;
  PrincipalId dev = *sys.CreateUser("dev");
  Subject dev_s = sys.Login(dev, sys.labels().Bottom());
  ASSERT_TRUE(sys.kernel()
                  .RegisterProcedure("/svc/app/op", sys.system_principal(),
                                     [](CallContext&) -> StatusOr<Value> { return Value{true}; })
                  .ok());
  ReferenceMonitor& monitor = sys.monitor();
  NodeId op;
  ASSERT_TRUE(monitor.CheckPath(dev_s, "/svc/app/op", AccessMode::kExecute, &op).allowed);
  ASSERT_TRUE(monitor.CheckPath(dev_s, "/svc/app/op", AccessMode::kExecute).allowed);  // warm
  const uint64_t stale = monitor.cache().stale_hits();

  ExtensionManifest manifest;
  manifest.name = "churner";
  manifest.imports = {"/svc/app/op"};
  auto id = sys.LoadExtension(manifest, dev_s);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  NodeId ext = *sys.name_space().Lookup("/ext/churner");
  ASSERT_NE(sys.name_space().ShardOf(ext), sys.name_space().ShardOf(op));
  ASSERT_TRUE(sys.UnloadExtension(dev_s, *id).ok());

  const uint64_t hits = monitor.cache().hits();
  EXPECT_TRUE(monitor.CheckPath(dev_s, "/svc/app/op", AccessMode::kExecute).allowed);
  EXPECT_EQ(monitor.cache().hits(), hits + 1) << "the warm path entry was served";
  EXPECT_EQ(monitor.cache().stale_hits(), stale) << "load/unload staled a /svc decision";
}

// The root has a domain of its own: a mutation confined to one shard leaves
// a warm root entry valid.
TEST(ShardStampsTest, RootEntrySurvivesAMutationConfinedToOneShard) {
  ShardedMonitorFixture f;
  Acl open;
  open.AddEntry({AclEntryType::kAllow, f.user, AccessModeSet(AccessMode::kList)});
  ASSERT_TRUE(f.ns.SetAclRef(f.ns.root(), f.acls.Create(std::move(open))).ok());
  ASSERT_TRUE(f.monitor->Check(f.subject, f.ns.root(), AccessMode::kList).allowed);  // warm
  const uint64_t stale = f.monitor->cache().stale_hits();

  // Metadata, an in-place ACL edit through the monitor, a bind and an
  // unbind, all in obj_a's shard.
  ASSERT_TRUE(f.ns.SetOwner(f.obj_a, f.user).ok());
  ASSERT_TRUE(f.monitor
                  ->AddAclEntry(f.subject, f.obj_a,
                                {AclEntryType::kAllow, f.user, AccessModeSet(AccessMode::kWrite)})
                  .ok());
  NodeId extra = *f.ns.Bind(f.ns.Get(f.obj_a)->parent, "extra", NodeKind::kFile, f.user);
  ASSERT_EQ(f.ns.ShardOf(extra), f.ns.ShardOf(f.obj_a));
  ASSERT_TRUE(f.ns.Unbind(extra).ok());

  const uint64_t hits = f.monitor->cache().hits();
  EXPECT_TRUE(f.monitor->Check(f.subject, f.ns.root(), AccessMode::kList).allowed);
  EXPECT_EQ(f.monitor->cache().hits(), hits + 1) << "the warm root entry was served";
  EXPECT_EQ(f.monitor->cache().stale_hits(), stale) << "a one-shard mutation staled the root";
}

// The root's in-place ACL and label edits through the monitor move the
// root's stamps and every shard's: each warm entry goes stale.
TEST(ShardStampsTest, InPlaceRootEditsStaleTheRootAndEveryShard) {
  ShardedMonitorFixture f;
  PrincipalId officer = *f.principals.CreateUser("officer");
  f.monitor->set_security_officer(officer);
  ASSERT_TRUE(f.ns.SetOwner(f.ns.root(), f.user).ok());
  // The owner's first entry gives the root an ACL of its own, tagged with
  // the root's domain; later entries edit that slot in place.
  ASSERT_TRUE(f.monitor
                  ->AddAclEntry(f.subject, f.ns.root(),
                                {AclEntryType::kAllow, f.user, AccessModeSet(AccessMode::kList)})
                  .ok());

  auto warm = [&f] {
    for (NodeId node : {f.ns.root(), f.obj_a, f.obj_b}) {
      (void)f.monitor->Check(f.subject, node, AccessMode::kList | AccessMode::kRead);
      (void)f.monitor->Check(f.subject, node, AccessMode::kList | AccessMode::kRead);
    }
  };
  auto expect_all_stale = [&f](const char* edit, const std::vector<CacheStamps>& before) {
    for (ShardId d = 0; d < kMonitorShardCount; ++d) {
      EXPECT_FALSE(f.monitor->CurrentStampsFor(d) == before[d]) << edit << ": shard " << d;
    }
    EXPECT_FALSE(f.monitor->CurrentStampsFor(kAllShards) == before[kMonitorShardCount])
        << edit << ": the root's domain";
    for (NodeId node : {f.ns.root(), f.obj_a, f.obj_b}) {
      const uint64_t stale = f.monitor->cache().stale_hits();
      (void)f.monitor->Check(f.subject, node, AccessMode::kList | AccessMode::kRead);
      EXPECT_EQ(f.monitor->cache().stale_hits(), stale + 1) << edit << ": node " << node.value;
    }
  };
  auto stamps = [&f] {
    std::vector<CacheStamps> out;
    for (ShardId d = 0; d < kMonitorShardCount; ++d) {
      out.push_back(f.monitor->CurrentStampsFor(d));
    }
    out.push_back(f.monitor->CurrentStampsFor(kAllShards));
    return out;
  };

  warm();
  std::vector<CacheStamps> before = stamps();
  ASSERT_TRUE(f.monitor
                  ->AddAclEntry(f.subject, f.ns.root(),
                                {AclEntryType::kAllow, f.user, AccessModeSet(AccessMode::kRead)})
                  .ok());
  expect_all_stale("add-acl-entry", before);

  warm();
  before = stamps();
  ASSERT_TRUE(f.monitor->RemoveAclEntriesFor(f.subject, f.ns.root(), officer).ok());
  expect_all_stale("remove-acl-entries", before);

  // The root's label is the constructor's ⊥, stored untagged; the officer
  // replaces it in place.
  warm();
  before = stamps();
  Subject officer_s{officer, f.labels.Bottom(), 1};
  ASSERT_TRUE(f.monitor->SetNodeLabel(officer_s, f.ns.root(), f.labels.Bottom()).ok());
  expect_all_stale("set-label", before);
}

// An id the name space has never published has no domain stamps: its
// checks are interpreted every time and never touch the cache.
TEST(ShardStampsTest, UnplaceableIdIsNeverCached) {
  ShardedMonitorFixture f;
  const NodeId unknown{999999};
  ASSERT_EQ(f.monitor->DomainOf(unknown), kAggregateShard);
  const uint64_t hits = f.monitor->cache().hits();
  const uint64_t misses = f.monitor->cache().misses();
  for (int i = 0; i < 3; ++i) {
    Decision d = f.monitor->Check(f.subject, unknown, AccessMode::kRead);
    EXPECT_FALSE(d.allowed);
    EXPECT_EQ(d.reason, DenyReason::kNotFound);
  }
  EXPECT_EQ(f.monitor->cache().hits(), hits);
  EXPECT_EQ(f.monitor->cache().misses(), misses);
  // Still counted, in the aggregate bucket.
  EXPECT_EQ(f.monitor->stats().by_shard(kAggregateShard), 3u);
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
// ACL interning.

TEST(ShardInternTest, AclStoreSharesIdenticalEntryListsWithinShard) {
  AclStore acls;
  auto make = [] {
    Acl acl;
    acl.AddEntry({AclEntryType::kAllow, PrincipalId{1}, AccessModeSet(AccessMode::kRead)});
    return acl;
  };
  AclStore::AclRef r1 = acls.Create(make(), ShardId{2});
  AclStore::AclRef r2 = acls.Create(make(), ShardId{2});
  // Same content: one shared entry list.
  EXPECT_EQ(acls.Get(r1)->shared_entries(), acls.Get(r2)->shared_entries());
  EXPECT_EQ(acls.intern_hits(), 1u);

  // Copy-on-write: editing one ref must not leak into the other.
  ASSERT_TRUE(
      acls.AddEntry(r2, {AclEntryType::kDeny, PrincipalId{9}, AccessModeSet(AccessMode::kWrite)})
          .ok());
  EXPECT_EQ(acls.Get(r1)->entries().size(), 1u);
  EXPECT_EQ(acls.Get(r2)->entries().size(), 2u);

  // One pool serves every shard: a slot tagged with another shard shares
  // the same list (the tag is the slot's, not the list's).
  AclStore::AclRef r3 = acls.Create(make(), ShardId{4});
  EXPECT_EQ(acls.Get(r1)->shared_entries(), acls.Get(r3)->shared_entries());
  EXPECT_EQ(acls.intern_hits(), 2u);
}

}  // namespace
}  // namespace xsec
