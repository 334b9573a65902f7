// The resolved-path cache entry behind ReferenceMonitor::CheckPath
// (docs/MODEL.md §15): one cache probe answers a whole walk whose every step
// and leaf were allowed. These tests pin that a served entry records exactly
// what the walk records, that an allowed walk admits its entry, that the
// walk still runs wherever its per-step records or overrides differ, and
// that the walk keeps its denial order and details. The last test hammers
// CheckPath from three threads against a mutator (ThreadSanitizer runs it in
// ci/run_checks.sh --quick) and then holds every thread's answer to a
// cache-off oracle.

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/monitor/reference_monitor.h"

namespace xsec {
namespace {

constexpr std::string_view kLeafPath = "/svc/app/mod/leaf";
constexpr size_t kLeafSteps = 4;  // list on /, /svc, /svc/app, /svc/app/mod

class ReferenceMonitorPathEntryTest : public ::testing::Test {
 protected:
  ReferenceMonitorPathEntryTest() {
    admin_ = *principals_.CreateUser("admin");
    group_ = *principals_.CreateGroup("callers");
    for (int i = 0; i < 3; ++i) {
      users_.push_back(*principals_.CreateUser("user" + std::to_string(i)));
      (void)principals_.AddMember(group_, users_.back());
    }
    // Bound one level at a time so admin owns every directory.
    (void)ns_.BindPath("/svc", NodeKind::kDirectory, admin_);
    (void)ns_.BindPath("/svc/app", NodeKind::kService, admin_);
    app_ = *ns_.Lookup("/svc/app");
    (void)ns_.BindPath("/svc/app/mod", NodeKind::kInterface, admin_);
    leaf_ = *ns_.BindPath(kLeafPath, NodeKind::kProcedure, admin_);
    // The root ACL is inherited everywhere: admin administers, callers may
    // walk, call and extend.
    Acl acl;
    acl.AddEntry({AclEntryType::kAllow, admin_, AccessMode::kAdministrate | AccessMode::kList});
    acl.AddEntry({AclEntryType::kAllow, group_, CallerModes()});
    (void)ns_.SetAclRef(ns_.root(), acls_.Create(std::move(acl)));
  }

  static AccessModeSet CallerModes() {
    return AccessMode::kList | AccessMode::kExecute | AccessMode::kExtend;
  }

  std::unique_ptr<ReferenceMonitor> Monitor(MonitorOptions options) {
    return std::make_unique<ReferenceMonitor>(&ns_, &acls_, &principals_, &labels_, options);
  }
  static MonitorOptions CacheOff() {
    MonitorOptions options;
    options.cache_enabled = false;
    return options;
  }

  Subject User(size_t i) { return Subject{users_[i], labels_.Bottom(), 1}; }
  Subject Admin() { return Subject{admin_, labels_.Bottom(), 1}; }

  NameSpace ns_;
  AclStore acls_;
  PrincipalRegistry principals_;
  LabelAuthority labels_;
  PrincipalId admin_, group_;
  std::vector<PrincipalId> users_;
  NodeId app_, leaf_;
};

// Every counter a CheckPath moves.
struct Counters {
  MonitorStats::Snapshot stats;
  uint64_t audit_denials = 0;
  size_t retained = 0;

  explicit Counters(const ReferenceMonitor& m)
      : stats(m.stats().TakeSnapshot()),
        audit_denials(m.audit().total_denials()),
        retained(m.audit().retained()) {}

  void ExpectEqual(const Counters& other) const {
    EXPECT_EQ(stats.checks_total, other.stats.checks_total);
    for (size_t r = 0; r < kDenyReasonCount; ++r) {
      EXPECT_EQ(stats.by_reason[r], other.stats.by_reason[r]) << "reason " << r;
    }
    for (size_t m = 0; m < kAccessModeCount; ++m) {
      EXPECT_EQ(stats.by_mode[m], other.stats.by_mode[m]) << "mode bit " << m;
    }
    for (size_t s = 0; s < MonitorStats::kShardBuckets; ++s) {
      EXPECT_EQ(stats.by_shard[s], other.stats.by_shard[s]) << "shard " << s;
    }
    EXPECT_EQ(audit_denials, other.audit_denials);
    EXPECT_EQ(retained, other.retained);
  }
};

TEST_F(ReferenceMonitorPathEntryTest, ServedEntryCountsExactlyLikeTheWalk) {
  auto cached = Monitor(MonitorOptions{});
  auto walk = Monitor(CacheOff());
  for (int call = 0; call < 6; ++call) {
    for (AccessModeSet modes : {AccessModeSet(AccessMode::kExecute), CallerModes()}) {
      uint64_t hits = cached->cache().hits();
      NodeId resolved;
      Decision d = cached->CheckPath(User(0), kLeafPath, modes, &resolved);
      ASSERT_TRUE(d.allowed);
      EXPECT_EQ(resolved, leaf_);
      ASSERT_TRUE(walk->CheckPath(User(0), kLeafPath, modes).allowed);
      Counters(*cached).ExpectEqual(Counters(*walk));
      if (call >= 1) {
        EXPECT_EQ(cached->cache().hits(), hits + 1) << "a served entry is one probe";
      }
    }
  }
}

TEST_F(ReferenceMonitorPathEntryTest, AdmittedOnlyByAnAllowedWalk) {
  auto monitor = Monitor(MonitorOptions{});
  DecisionCache& cache = monitor->cache();
  // A denied walk admits nothing: the admin lacks execute on the leaf.
  EXPECT_FALSE(monitor->CheckPath(Admin(), kLeafPath, AccessMode::kExecute).allowed);
  EXPECT_FALSE(monitor->CheckPath(Admin(), kLeafPath, AccessMode::kExecute).allowed);
  EXPECT_EQ(cache.hits(), kLeafSteps + 1) << "the second denied walk probed every step";
  uint64_t hits = cache.hits();
  uint64_t misses = cache.misses();
  // First allowed walk: the path probe, every step and the leaf miss, and
  // the path entry goes in.
  ASSERT_TRUE(monitor->CheckPath(User(0), kLeafPath, AccessMode::kExecute).allowed);
  EXPECT_EQ(cache.hits(), hits);
  EXPECT_EQ(cache.misses(), misses + kLeafSteps + 2);
  // From here on, one probe.
  ASSERT_TRUE(monitor->CheckPath(User(0), kLeafPath, AccessMode::kExecute).allowed);
  EXPECT_EQ(cache.hits(), hits + 1);
  EXPECT_EQ(cache.misses(), misses + kLeafSteps + 2);
}

TEST_F(ReferenceMonitorPathEntryTest, StaleAfterAnAncestorOrRootEdit) {
  auto monitor = Monitor(MonitorOptions{});
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(monitor->CheckPath(User(0), kLeafPath, AccessMode::kExecute).allowed);
  }
  // The ancestor edit is confined to the leaf's shard: the entry goes stale.
  ASSERT_TRUE(
      monitor->AddAclEntry(Admin(), app_, {AclEntryType::kDeny, users_[0], AccessMode::kList})
          .ok());
  Decision d = monitor->CheckPath(User(0), kLeafPath, AccessMode::kExecute);
  EXPECT_FALSE(d.allowed);
  EXPECT_EQ(d.reason, DenyReason::kTraversal);
  EXPECT_TRUE(monitor->CheckPath(User(1), kLeafPath, AccessMode::kExecute).allowed);
  // A root edit bumps every shard.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(monitor->CheckPath(User(1), kLeafPath, AccessMode::kExecute).allowed);
  }
  ASSERT_TRUE(monitor->RemoveAclEntriesFor(Admin(), ns_.root(), group_).ok());
  d = monitor->CheckPath(User(1), kLeafPath, AccessMode::kExecute);
  EXPECT_FALSE(d.allowed);
  EXPECT_EQ(d.reason, DenyReason::kTraversal);
}

TEST_F(ReferenceMonitorPathEntryTest, WalkRunsWhereItsRecordsOrOverridesDiffer) {
  auto cached = Monitor(MonitorOptions{});
  auto walk = Monitor(CacheOff());
  auto both = [&](AccessModeSet modes) {
    Decision a = cached->CheckPath(User(0), kLeafPath, modes);
    Decision b = walk->CheckPath(User(0), kLeafPath, modes);
    EXPECT_EQ(a.allowed, b.allowed);
    EXPECT_EQ(a.reason, b.reason);
    Counters(*cached).ExpectEqual(Counters(*walk));
    return a;
  };
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(both(AccessMode::kExecute).allowed);
    ASSERT_TRUE(both(AccessMode::kExtend).allowed);
  }

  // Audit-all retains one record per allowed step and one for the leaf.
  cached->set_audit_policy(AuditPolicy::kAll);
  walk->set_audit_policy(AuditPolicy::kAll);
  size_t retained = cached->audit().retained();
  EXPECT_TRUE(both(AccessMode::kExecute).allowed);
  EXPECT_EQ(cached->audit().retained(), retained + kLeafSteps + 1);
  cached->set_audit_policy(AuditPolicy::kDenialsOnly);
  walk->set_audit_policy(AuditPolicy::kDenialsOnly);

  // Lockdown refuses extend at the leaf; execute is still served.
  cached->set_lockdown(true);
  walk->set_lockdown(true);
  Decision refused = both(AccessMode::kExtend);
  EXPECT_FALSE(refused.allowed);
  EXPECT_EQ(refused.reason, DenyReason::kQuarantined);
  EXPECT_TRUE(both(AccessMode::kExecute).allowed);
  cached->set_lockdown(false);
  walk->set_lockdown(false);
  EXPECT_TRUE(both(AccessMode::kExtend).allowed);

  // A tripped required sink withholds every allow, the first step's too.
  ResilientSinkOptions sink_options;
  sink_options.max_attempts = 1;
  sink_options.trip_after = 1;
  sink_options.probe_after_ns = 0;
  for (ReferenceMonitor* m : {cached.get(), walk.get()}) {
    m->audit().set_required(true);
    m->audit().InstallResilientSink(std::make_shared<ResilientSink>(
        [](const AuditRecord&) -> Status { return UnavailableError("down"); }, sink_options));
    (void)m->Check(User(0), leaf_, AccessMode::kWrite);  // a retained denial trips it
    ASSERT_TRUE(m->audit().SinkTripped());
  }
  Decision withheld = both(AccessMode::kExecute);
  EXPECT_FALSE(withheld.allowed);
  EXPECT_EQ(withheld.reason, DenyReason::kTraversal);
}

TEST_F(ReferenceMonitorPathEntryTest, WalkKeepsDenialOrderAndDetails) {
  auto monitor = Monitor(MonitorOptions{});
  // A missing component is reported after traversal of its parent passed.
  Decision d = monitor->CheckPath(User(0), "/svc/app/missing", AccessMode::kExecute);
  EXPECT_EQ(d.reason, DenyReason::kNotFound);
  EXPECT_EQ(d.detail, "'/svc/app' has no child 'missing'");
  AuditRecord last = monitor->audit().records().back();
  EXPECT_EQ(last.node, app_);
  EXPECT_EQ(last.path, "/svc/app/missing");

  // Traversal is checked on every ancestor before the missing component.
  ASSERT_TRUE(
      monitor->AddAclEntry(Admin(), app_, {AclEntryType::kDeny, users_[0], AccessMode::kList})
          .ok());
  size_t retained = monitor->audit().retained();
  d = monitor->CheckPath(User(0), "/svc/app/missing", AccessMode::kExecute);
  EXPECT_EQ(d.reason, DenyReason::kTraversal);
  EXPECT_EQ(d.detail.rfind("denied while resolving '/svc/app': ", 0), 0u) << d.detail;
  // Two records: the step's own denial, then the traversal denial.
  ASSERT_EQ(monitor->audit().retained(), retained + 2);
  last = monitor->audit().records().back();
  EXPECT_EQ(last.node, app_);
  EXPECT_EQ(last.reason, DenyReason::kTraversal);

  // Not a canonical path: nothing resolves, nothing is traversed.
  uint64_t checks = monitor->stats().checks_total();
  d = monitor->CheckPath(User(0), "/svc//app", AccessMode::kExecute);
  EXPECT_EQ(d.reason, DenyReason::kNotFound);
  EXPECT_EQ(d.detail, "path '/svc//app' has an invalid component");
  EXPECT_EQ(monitor->stats().checks_total(), checks + 1);
  EXPECT_FALSE(monitor->audit().records().back().node.valid());
}

TEST_F(ReferenceMonitorPathEntryTest, ConcurrentCheckPathMatchesOracleAfterQuiescence) {
  MonitorOptions options;
  options.cache_slots = 1024;
  auto monitor = Monitor(options);
  auto oracle = Monitor(CacheOff());
  const std::vector<std::string> paths = {std::string(kLeafPath), "/svc/app/mod", "/svc/app"};

  std::atomic<bool> mutating{true};
  std::atomic<uint64_t> checks{0};
  std::vector<std::vector<Decision>> final_decisions(users_.size());
  std::vector<std::thread> readers;
  for (size_t t = 0; t < users_.size(); ++t) {
    readers.emplace_back([&, t] {
      Subject subject = User(t);
      uint64_t local = 0;
      for (size_t i = 0; mutating.load(std::memory_order_acquire) || i < 64; ++i) {
        const std::string& path = paths[i % paths.size()];
        AccessModeSet modes = i % 2 == 0 ? AccessModeSet(AccessMode::kExecute) : CallerModes();
        (void)monitor->CheckPath(subject, path, modes);
        ++local;
      }
      // Quiesced: the answers from here on are compared with the oracle.
      // Three passes, so later ones are served by path entries.
      for (int pass = 0; pass < 3; ++pass) {
        for (const std::string& path : paths) {
          final_decisions[t].push_back(monitor->CheckPath(subject, path, AccessMode::kExecute));
        }
      }
      checks.fetch_add(local, std::memory_order_relaxed);
    });
  }

  Subject admin = Admin();
  for (int i = 0; i < 600; ++i) {
    switch (i % 5) {
      case 0: {  // the leaf goes away and comes back under a fresh id
        auto leaf = ns_.Lookup(kLeafPath);
        if (leaf.ok()) {
          (void)ns_.Unbind(*leaf);
        }
        (void)ns_.BindPath(kLeafPath, NodeKind::kProcedure, admin_);
        break;
      }
      case 1:
        (void)monitor->AddAclEntry(admin, app_,
                                   {AclEntryType::kDeny, users_[i % users_.size()],
                                    AccessMode::kList});
        break;
      case 2:
        (void)monitor->RemoveAclEntriesFor(admin, app_, users_[(i / 5) % users_.size()]);
        break;
      case 3:
        if ((i / 5) % 2 == 0) {
          (void)monitor->RemoveAclEntriesFor(admin, ns_.root(), group_);
        } else {
          (void)monitor->AddAclEntry(admin, ns_.root(),
                                     {AclEntryType::kAllow, group_, CallerModes()});
        }
        break;
      case 4:  // membership moves every domain's stamps
        if ((i / 5) % 2 == 0) {
          (void)principals_.RemoveMember(group_, users_[0]);
        } else {
          (void)principals_.AddMember(group_, users_[0]);
        }
        break;
    }
    std::this_thread::yield();
  }
  mutating.store(false, std::memory_order_release);
  for (std::thread& t : readers) {
    t.join();
  }

  EXPECT_GT(checks.load(), 0u);
  for (size_t t = 0; t < users_.size(); ++t) {
    ASSERT_EQ(final_decisions[t].size(), 3 * paths.size());
    for (size_t i = 0; i < final_decisions[t].size(); ++i) {
      const std::string& path = paths[i % paths.size()];
      Decision want = oracle->CheckPath(User(t), path, AccessMode::kExecute);
      EXPECT_EQ(final_decisions[t][i].allowed, want.allowed) << "user" << t << " " << path;
      EXPECT_EQ(final_decisions[t][i].reason, want.reason) << "user" << t << " " << path;
    }
  }
}

}  // namespace
}  // namespace xsec
