// Hammers the reference monitor from many threads at once: readers calling
// Check/CheckPath while administrators rewrite ACLs, relabel nodes, and churn
// group membership. Designed to run under ThreadSanitizer (ci/run_checks.sh
// builds with -fsanitize=thread); any lock-ordering or publication bug in the
// stores, the decision cache, or the audit log shows up here.
//
// Beyond "no crashes, no races" the test checks the cache soundness property
// end to end: once the mutators stop, every cached decision must agree with a
// fresh cache-disabled evaluation over the same stores — concurrency may make
// cached entries spuriously stale, never wrongly fresh.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/monitor/reference_monitor.h"

namespace xsec {
namespace {

constexpr size_t kNodes = 32;
constexpr size_t kReaderThreads = 4;
constexpr int kReaderIterations = 4000;
constexpr int kMutatorIterations = 400;

class MonitorConcurrencyTest : public ::testing::Test {
 protected:
  MonitorConcurrencyTest() {
    MonitorOptions options;
    options.audit_policy = AuditPolicy::kDenialsOnly;
    options.audit_capacity = 1024;
    options.cache_slots = 4096;
    monitor_ = std::make_unique<ReferenceMonitor>(&ns_, &acls_, &principals_, &labels_, options);

    admin_ = *principals_.CreateUser("admin");
    officer_ = *principals_.CreateUser("officer");
    group_ = *principals_.CreateGroup("readers");
    for (size_t i = 0; i < kReaderThreads; ++i) {
      users_.push_back(*principals_.CreateUser("user" + std::to_string(i)));
      (void)principals_.AddMember(group_, users_.back());
    }
    churn_user_ = *principals_.CreateUser("churn");
    (void)labels_.DefineLevels({"low", "high"});
    monitor_->set_security_officer(officer_);

    svc_ = *ns_.BindPath("/svc", NodeKind::kDirectory, admin_);
    for (size_t i = 0; i < kNodes; ++i) {
      nodes_.push_back(
          *ns_.BindPath("/svc/n" + std::to_string(i), NodeKind::kFile, admin_));
    }
    // Group may list the tree and read every node (per-node ACLs are what
    // the ACL-mutator thread rewrites).
    Acl acl;
    acl.AddEntry({AclEntryType::kAllow, group_,
                  AccessMode::kRead | AccessMode::kList});
    (void)ns_.SetAclRef(svc_, acls_.Create(std::move(acl)));
  }

  Subject Low(PrincipalId p) { return Subject{p, labels_.Bottom(), 1}; }

  NameSpace ns_;
  AclStore acls_;
  PrincipalRegistry principals_;
  LabelAuthority labels_;
  std::unique_ptr<ReferenceMonitor> monitor_;
  PrincipalId admin_, officer_, group_, churn_user_;
  std::vector<PrincipalId> users_;
  NodeId svc_;
  std::vector<NodeId> nodes_;
};

TEST_F(MonitorConcurrencyTest, ConcurrentChecksAndMutationsAreRaceFreeAndSound) {
  std::atomic<uint64_t> reader_checks{0};
  std::vector<std::thread> threads;

  // Readers: cached checks plus the occasional full path resolution.
  for (size_t t = 0; t < kReaderThreads; ++t) {
    threads.emplace_back([&, t] {
      Subject me = Low(users_[t]);
      for (int i = 0; i < kReaderIterations; ++i) {
        NodeId node = nodes_[(t * 7 + static_cast<size_t>(i)) % kNodes];
        (void)monitor_->Check(me, node, AccessMode::kRead);
        reader_checks.fetch_add(1, std::memory_order_relaxed);
        if (i % 16 == 0) {
          (void)monitor_->CheckPath(me, "/svc/n" + std::to_string(i % kNodes),
                                    AccessMode::kRead);
        }
      }
    });
  }

  // ACL mutator: rewrites per-node ACLs, alternately granting and revoking.
  threads.emplace_back([&] {
    Subject admin = Low(admin_);
    for (int i = 0; i < kMutatorIterations; ++i) {
      NodeId node = nodes_[static_cast<size_t>(i) % kNodes];
      Acl acl;
      if (i % 2 == 0) {
        acl.AddEntry({AclEntryType::kAllow, group_, AccessModeSet(AccessMode::kRead)});
      }
      ASSERT_TRUE(monitor_->SetNodeAcl(admin, node, std::move(acl)).ok());
      if (i % 8 == 0) {
        ASSERT_TRUE(monitor_
                        ->AddAclEntry(admin, node,
                                      {AclEntryType::kAllow, churn_user_,
                                       AccessModeSet(AccessMode::kRead)})
                        .ok());
        ASSERT_TRUE(monitor_->RemoveAclEntriesFor(admin, node, churn_user_).ok());
      }
    }
  });

  // Label mutator: the security officer floats node labels low <-> high.
  threads.emplace_back([&] {
    Subject officer = Low(officer_);
    SecurityClass low = labels_.Bottom();
    SecurityClass high(1, CategorySet(0));
    for (int i = 0; i < kMutatorIterations; ++i) {
      NodeId node = nodes_[static_cast<size_t>(i * 3) % kNodes];
      ASSERT_TRUE(
          monitor_->SetNodeLabel(officer, node, i % 2 == 0 ? high : low).ok());
    }
  });

  // Membership churn: a principal enters and leaves the reader group.
  threads.emplace_back([&] {
    for (int i = 0; i < kMutatorIterations; ++i) {
      ASSERT_TRUE(principals_.AddMember(group_, churn_user_).ok());
      Subject churn = Low(churn_user_);
      (void)monitor_->Check(churn, nodes_[static_cast<size_t>(i) % kNodes],
                            AccessMode::kRead);
      ASSERT_TRUE(principals_.RemoveMember(group_, churn_user_).ok());
    }
  });

  for (std::thread& t : threads) {
    t.join();
  }

  // Counter invariants survive arbitrary interleavings.
  const DecisionCache& cache = monitor_->cache();
  EXPECT_GT(cache.hits() + cache.misses(), 0u);
  EXPECT_LE(cache.stale_hits(), cache.misses());
  MonitorStats::Snapshot stats = monitor_->stats().TakeSnapshot();
  EXPECT_GE(stats.checks_total, reader_checks.load());
  EXPECT_EQ(stats.ShardTotal(), stats.checks_total);
  EXPECT_EQ(stats.denied, monitor_->audit().total_denials());

  // Soundness at quiescence: every cached decision equals a fresh evaluation
  // by a cache-disabled monitor sharing the same stores.
  MonitorOptions fresh_options;
  fresh_options.cache_enabled = false;
  fresh_options.audit_policy = AuditPolicy::kOff;
  ReferenceMonitor fresh(&ns_, &acls_, &principals_, &labels_, fresh_options);
  for (size_t t = 0; t < kReaderThreads; ++t) {
    Subject me = Low(users_[t]);
    for (NodeId node : nodes_) {
      Decision cached = monitor_->Check(me, node, AccessMode::kRead);
      Decision ground_truth = fresh.Check(me, node, AccessMode::kRead);
      EXPECT_EQ(cached.allowed, ground_truth.allowed)
          << "node " << node.value << " user " << t;
      EXPECT_EQ(cached.reason, ground_truth.reason);
    }
  }
}

// The audit ring accepts concurrent producers without losing its bounded-size
// or monotonic-sequence guarantees.
TEST_F(MonitorConcurrencyTest, AuditRingUnderConcurrentDenials) {
  monitor_->set_audit_policy(AuditPolicy::kAll);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kReaderThreads; ++t) {
    threads.emplace_back([&, t] {
      Subject me = Low(users_[t]);
      for (int i = 0; i < kReaderIterations / 4; ++i) {
        (void)monitor_->Check(me, nodes_[static_cast<size_t>(i) % kNodes],
                              AccessMode::kWrite);  // never granted -> denials
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  std::vector<AuditRecord> records = monitor_->audit().records();
  EXPECT_LE(records.size(), 1024u);
  for (size_t i = 1; i < records.size(); ++i) {
    EXPECT_LT(records[i - 1].sequence, records[i].sequence);
  }
  EXPECT_EQ(monitor_->stats().checks_total(),
            kReaderThreads * static_cast<uint64_t>(kReaderIterations / 4));
  EXPECT_EQ(monitor_->audit().total_denials(), monitor_->stats().checks_total());
}

}  // namespace
}  // namespace xsec
