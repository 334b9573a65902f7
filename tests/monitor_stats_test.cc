#include "src/monitor/monitor_stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/base/rng.h"
#include "src/base/strings.h"
#include "src/core/secure_system.h"
#include "src/monitor/reference_monitor.h"
#include "src/services/stats_service.h"

namespace xsec {
namespace {

TEST(MonitorStatsTest, RecordDecisionCountsTotalReasonAndEveryMode) {
  MonitorStats stats;
  stats.RecordDecision(AccessMode::kRead | AccessMode::kWrite, DenyReason::kNone, 3);
  stats.RecordDecision(AccessModeSet(AccessMode::kRead), DenyReason::kDacNoGrant, 3);
  stats.RecordDecision(AccessModeSet(AccessMode::kExecute), DenyReason::kMacFlow,
                       kAggregateShard);

  EXPECT_EQ(stats.checks_total(), 3u);
  EXPECT_EQ(stats.allowed_total(), 1u);
  EXPECT_EQ(stats.denied_total(), 2u);
  EXPECT_EQ(stats.by_reason(DenyReason::kDacNoGrant), 1u);
  EXPECT_EQ(stats.by_reason(DenyReason::kMacFlow), 1u);
  EXPECT_EQ(stats.by_reason(DenyReason::kTraversal), 0u);
  // A multi-mode request counts once per mode present.
  EXPECT_EQ(stats.by_mode(AccessMode::kRead), 2u);
  EXPECT_EQ(stats.by_mode(AccessMode::kWrite), 1u);
  EXPECT_EQ(stats.by_mode(AccessMode::kExecute), 1u);
  EXPECT_EQ(stats.by_mode(AccessMode::kDelete), 0u);
  // Each decision lands in exactly one domain bucket; every non-concrete id
  // reads the aggregate domain's.
  EXPECT_EQ(stats.by_shard(3), 2u);
  EXPECT_EQ(stats.by_shard(kAggregateShard), 1u);
  EXPECT_EQ(stats.by_shard(kUnknownShard), 1u);
  EXPECT_EQ(stats.by_shard(0), 0u);
  EXPECT_EQ(stats.TakeSnapshot().ShardTotal(), stats.checks_total());
}

TEST(MonitorStatsTest, AllowedPathCountsTheRootInTheAggregateDomain) {
  MonitorStats stats;
  stats.RecordAllowedPath(/*list_steps=*/3, AccessModeSet(AccessMode::kRead), 5);
  EXPECT_EQ(stats.checks_total(), 4u);
  EXPECT_EQ(stats.allowed_total(), 4u);
  EXPECT_EQ(stats.by_mode(AccessMode::kList), 3u);
  EXPECT_EQ(stats.by_mode(AccessMode::kRead), 1u);
  EXPECT_EQ(stats.by_shard(kAggregateShard), 1u);
  EXPECT_EQ(stats.by_shard(5), 3u);
}

TEST(MonitorStatsTest, LatencySamplingIsOneInSampleEvery) {
  MonitorStats stats;
  uint64_t sampled = 0;
  for (uint64_t i = 0; i < 3 * MonitorStats::kSampleEvery; ++i) {
    if (stats.ShouldSampleLatency()) {
      ++sampled;
    }
  }
  // The thread's clock phase is arbitrary, but any 3*kSampleEvery
  // consecutive ticks contain exactly 3 multiples of kSampleEvery.
  EXPECT_EQ(sampled, 3u);
}

TEST(MonitorStatsTest, LatencyHistogramAndQuantiles) {
  MonitorStats stats;
  // 10 fast samples (bucket for 100ns) and one slow outlier.
  for (int i = 0; i < 10; ++i) {
    stats.RecordLatencyNs(100);
  }
  stats.RecordLatencyNs(1'000'000);
  EXPECT_EQ(stats.latency_samples(), 11u);
  uint64_t p50 = stats.LatencyQuantileNs(0.50);
  uint64_t p100 = stats.LatencyQuantileNs(1.0);
  EXPECT_GE(p50, 100u);
  EXPECT_LT(p50, 256u);  // the bucket upper bound containing 100ns
  EXPECT_GE(p100, 1'000'000u);  // the max lands in the outlier's bucket
  EXPECT_LE(p50, p100);
  // An empty histogram reports 0.
  MonitorStats empty;
  EXPECT_EQ(empty.LatencyQuantileNs(0.5), 0u);
}

TEST(MonitorStatsTest, TwoInstancesSampleIndependently) {
  // Regression: the sample clock used to be one process-wide thread_local
  // shared by every MonitorStats instance, so a thread alternating between
  // two instances (the kernel's monitor plus a test's) split one clock
  // between them — each saw half its configured rate, phase-correlated.
  // The clock now lives in the per-(thread, instance) slot-cache entry.
  MonitorStats a;
  MonitorStats b;
  uint64_t sampled_a = 0;
  uint64_t sampled_b = 0;
  for (uint64_t i = 0; i < 3 * MonitorStats::kSampleEvery; ++i) {
    if (a.ShouldSampleLatency()) {
      ++sampled_a;
    }
    if (b.ShouldSampleLatency()) {
      ++sampled_b;
    }
  }
  EXPECT_EQ(sampled_a, 3u);
  EXPECT_EQ(sampled_b, 3u);
}

TEST(MonitorStatsTest, LogLinearBucketBoundsRoundTrip) {
  // Every value maps to a bucket whose upper bound is >= the value and
  // within 1/kSubBuckets (12.5%) above it; below 2*kSubBuckets the buckets
  // are exact.
  std::vector<uint64_t> values;
  for (uint64_t ns = 0; ns < 2 * MonitorStats::kSubBuckets; ++ns) {
    values.push_back(ns);
  }
  for (uint64_t ns = 16; ns < (uint64_t{1} << MonitorStats::kMaxLatencyBits);
       ns += 1 + ns / 3) {
    values.push_back(ns);
    values.push_back(ns - 1);
    values.push_back(ns + 1);
  }
  for (uint64_t ns : values) {
    size_t bucket = MonitorStats::LatencyBucketIndex(ns);
    ASSERT_LT(bucket, MonitorStats::kLatencyBuckets);
    uint64_t upper = MonitorStats::LatencyBucketUpperBoundNs(bucket);
    ASSERT_GE(upper, ns) << "ns=" << ns << " bucket=" << bucket;
    ASSERT_LE(upper, ns + ns / MonitorStats::kSubBuckets)
        << "ns=" << ns << " bucket=" << bucket;
    if (ns < 2 * MonitorStats::kSubBuckets) {
      ASSERT_EQ(upper, ns);  // exact 1ns buckets at the bottom
    }
  }
  // Bucket indices are monotone in the value (no fold-backs at octave edges).
  size_t prev = 0;
  for (uint64_t ns = 0; ns < 4096; ++ns) {
    size_t bucket = MonitorStats::LatencyBucketIndex(ns);
    ASSERT_GE(bucket, prev) << "ns=" << ns;
    prev = bucket;
  }
  // At and past the cap everything lands in the last (overflow) bucket.
  EXPECT_EQ(MonitorStats::LatencyBucketIndex(uint64_t{1} << MonitorStats::kMaxLatencyBits),
            MonitorStats::kLatencyBuckets - 1);
  EXPECT_EQ(MonitorStats::LatencyBucketIndex(~uint64_t{0}),
            MonitorStats::kLatencyBuckets - 1);
}

TEST(MonitorStatsTest, QuantileEdgeCases) {
  MonitorStats stats;
  // q clamps and a single sample: every quantile is that sample's bucket.
  stats.RecordLatencyNs(100);
  uint64_t only = stats.LatencyQuantileNs(0.5);
  EXPECT_GE(only, 100u);
  EXPECT_EQ(stats.LatencyQuantileNs(0.0), only);
  EXPECT_EQ(stats.LatencyQuantileNs(1.0), only);
  EXPECT_EQ(stats.LatencyQuantileNs(-3.0), only);   // clamped to 0
  EXPECT_EQ(stats.LatencyQuantileNs(42.0), only);   // clamped to 1

  // q=0 is the min bucket, q=1 the max bucket.
  stats.RecordLatencyNs(5);
  stats.RecordLatencyNs(10'000);
  EXPECT_EQ(stats.LatencyQuantileNs(0.0), 5u);  // exact bucket below 16ns
  uint64_t p100 = stats.LatencyQuantileNs(1.0);
  EXPECT_GE(p100, 10'000u);
  EXPECT_LE(p100, 10'000u + 10'000u / 8);

  // A sample past the histogram cap lands in the overflow bucket, whose
  // upper bound is the cap itself — reported, not lost.
  MonitorStats overflow;
  overflow.RecordLatencyNs(~uint64_t{0});
  EXPECT_EQ(overflow.LatencyQuantileNs(1.0),
            MonitorStats::LatencyBucketUpperBoundNs(MonitorStats::kLatencyBuckets - 1));
  EXPECT_EQ(overflow.latency_bucket(MonitorStats::kLatencyBuckets - 1), 1u);
}

TEST(MonitorStatsTest, QuantilesWithinTwelvePointFivePercentOfExact) {
  MonitorStats stats;
  Rng rng(7);
  std::vector<uint64_t> samples;
  for (int i = 0; i < 20'000; ++i) {
    // A long-tailed mix: mostly fast checks, occasional slow outliers.
    uint64_t ns = 20 + rng.NextBelow(400);
    if (rng.NextBool(1, 50)) {
      ns += 10'000 + rng.NextBelow(1'000'000);
    }
    samples.push_back(ns);
    stats.RecordLatencyNs(ns);
  }
  std::sort(samples.begin(), samples.end());
  for (double q : {0.50, 0.90, 0.99}) {
    uint64_t exact = samples[static_cast<size_t>(q * (samples.size() - 1))];
    uint64_t approx = stats.LatencyQuantileNs(q);
    EXPECT_GE(approx, exact) << "q=" << q;
    EXPECT_LE(approx, exact + exact / 8 + 1) << "q=" << q;
  }
}

TEST(MonitorStatsTest, SnapshotInvariantsHoldUnderConcurrentChecking) {
  MonitorStats stats;
  std::atomic<bool> stop{false};
  constexpr int kWriters = 4;
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&stats, &stop, t] {
      Rng rng(static_cast<uint64_t>(t) + 1);
      while (!stop.load(std::memory_order_relaxed)) {
        AccessModeSet modes(AccessMode::kRead);
        if (rng.NextBool(1, 3)) {
          modes = AccessMode::kRead | AccessMode::kWrite;
        }
        DenyReason reason =
            rng.NextBool(1, 2) ? DenyReason::kNone : DenyReason::kDacNoGrant;
        stats.RecordDecision(modes, reason, static_cast<ShardId>(rng.NextBelow(kAllShards)));
        if (rng.NextBool(1, 8)) {
          stats.RecordAllowedPath(1 + rng.NextBelow(4), modes,
                                  static_cast<ShardId>(rng.NextBelow(kMonitorShardCount)));
        }
        if (rng.NextBool(1, 16)) {
          stats.RecordLatencyNs(50 + rng.NextBelow(1000));
        }
      }
    });
  }
  // The property under test: every snapshot taken mid-flight satisfies the
  // documented invariants, however the writers interleave.
  for (int i = 0; i < 3000; ++i) {
    MonitorStats::Snapshot snap = stats.TakeSnapshot();
    ASSERT_EQ(snap.allowed + snap.denied, snap.checks_total);
    uint64_t reason_total = 0;
    for (uint64_t r : snap.by_reason) {
      reason_total += r;
    }
    ASSERT_EQ(reason_total, snap.checks_total);
    ASSERT_GE(snap.ModeTotal(), snap.checks_total);
    ASSERT_GE(snap.ShardTotal(), snap.checks_total);
    ASSERT_GE(snap.LatencyBucketTotal(), snap.latency_samples);
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& th : writers) {
    th.join();
  }
  // Quiescent: the domain and latency totals are exact, and the mode total
  // covers every decision (reads were 1 mode, some 2).
  MonitorStats::Snapshot final_snap = stats.TakeSnapshot();
  EXPECT_GE(final_snap.ModeTotal(), final_snap.checks_total);
  EXPECT_EQ(final_snap.ShardTotal(), final_snap.checks_total);
  EXPECT_EQ(final_snap.LatencyBucketTotal(), final_snap.latency_samples);
  EXPECT_EQ(stats.checks_total(), final_snap.checks_total);
}

class MonitorStatsIntegrationTest : public ::testing::Test {
 protected:
  MonitorStatsIntegrationTest() {
    monitor_ = std::make_unique<ReferenceMonitor>(&ns_, &acls_, &principals_, &labels_,
                                                  MonitorOptions{});
    user_ = *principals_.CreateUser("u");
    open_ = *ns_.BindPath("/open", NodeKind::kFile, user_);
    Acl acl;
    acl.AddEntry({AclEntryType::kAllow, user_, AccessModeSet(AccessMode::kRead)});
    (void)ns_.SetAclRef(open_, acls_.Create(std::move(acl)));
    locked_ = *ns_.BindPath("/locked", NodeKind::kFile, user_);
    (void)ns_.SetAclRef(locked_, acls_.Create(Acl()));
  }

  NameSpace ns_;
  AclStore acls_;
  PrincipalRegistry principals_;
  LabelAuthority labels_;
  std::unique_ptr<ReferenceMonitor> monitor_;
  PrincipalId user_;
  NodeId open_, locked_;
};

TEST_F(MonitorStatsIntegrationTest, StatsMirrorAuditCountersOnEveryDecisionPath) {
  Subject subject{user_, labels_.Bottom(), 1};
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(monitor_->Check(subject, open_, AccessMode::kRead).allowed);
  }
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(monitor_->Check(subject, locked_, AccessMode::kRead).allowed);
  }
  (void)monitor_->Check(subject, NodeId{9999}, AccessMode::kRead);  // not found

  const MonitorStats& stats = monitor_->stats();
  EXPECT_EQ(stats.checks_total(), 9u);
  EXPECT_EQ(stats.TakeSnapshot().ShardTotal(), stats.checks_total());
  // Under the default denials-only policy the audit log stamped one record
  // per denial.
  EXPECT_EQ(stats.denied_total(), monitor_->audit().total_denials());
  EXPECT_EQ(stats.allowed_total(), 5u);
  EXPECT_EQ(stats.by_reason(DenyReason::kDacNoGrant), 3u);
  EXPECT_EQ(stats.by_reason(DenyReason::kNotFound), 1u);
  EXPECT_EQ(stats.by_mode(AccessMode::kRead), 9u);
}

TEST_F(MonitorStatsIntegrationTest, CachedAndUncachedDecisionsBothLand) {
  // The first check misses the decision cache, the rest hit; stats must not
  // care which path produced the decision.
  Subject subject{user_, labels_.Bottom(), 1};
  for (int i = 0; i < 10; ++i) {
    (void)monitor_->Check(subject, open_, AccessMode::kRead);
  }
  EXPECT_EQ(monitor_->stats().checks_total(), 10u);
  EXPECT_EQ(monitor_->stats().allowed_total(), 10u);
}

TEST_F(MonitorStatsIntegrationTest, SamplingPopulatesHistogramOnTheCheckPath) {
  Subject subject{user_, labels_.Bottom(), 1};
  // Whatever the thread's clock phase, 2*kSampleEvery consecutive checks
  // tick past exactly two multiples of kSampleEvery.
  size_t n = 2 * MonitorStats::kSampleEvery;
  for (size_t i = 0; i < n; ++i) {
    (void)monitor_->Check(subject, open_, AccessMode::kRead);
  }
  EXPECT_GE(monitor_->stats().latency_samples(), 2u);
  EXPECT_LE(monitor_->stats().latency_samples(), 3u);
}

TEST_F(MonitorStatsIntegrationTest, CheckPathIsSampledOnceNotPerTraversalStep) {
  // Root grants list|read and every level inherits it, so each CheckPath
  // below runs three traversal checks plus the leaf check.
  Acl acl;
  acl.AddEntry({AclEntryType::kAllow, user_, AccessMode::kList | AccessMode::kRead});
  ASSERT_TRUE(ns_.SetAclRef(ns_.root(), acls_.Create(std::move(acl))).ok());
  ASSERT_TRUE(ns_.BindPath("/a/b/c", NodeKind::kFile, user_).ok());
  Subject subject{user_, labels_.Bottom(), 1};
  constexpr uint64_t kCalls = 4 * MonitorStats::kSampleEvery;
  for (uint64_t i = 0; i < kCalls; ++i) {
    ASSERT_TRUE(monitor_->CheckPath(subject, "/a/b/c", AccessMode::kRead).allowed);
  }
  // One sample clock tick per CheckPath, not one per nested decision...
  EXPECT_LE(monitor_->stats().latency_samples(), kCalls / MonitorStats::kSampleEvery + 1);
  // ...while every nested decision is still counted.
  EXPECT_EQ(monitor_->stats().checks_total(), 4 * kCalls);
}

TEST_F(MonitorStatsIntegrationTest, DisabledStatsRecordNothing) {
  MonitorOptions options;
  options.stats_enabled = false;
  ReferenceMonitor quiet(&ns_, &acls_, &principals_, &labels_, options);
  Subject subject{user_, labels_.Bottom(), 1};
  (void)quiet.Check(subject, open_, AccessMode::kRead);
  (void)quiet.Check(subject, locked_, AccessMode::kRead);
  EXPECT_EQ(quiet.stats().checks_total(), 0u);
  EXPECT_EQ(quiet.stats().latency_samples(), 0u);
}

TEST_F(MonitorStatsIntegrationTest, ConcurrentCheckingKeepsTotalsCoherent) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Subject subject{user_, labels_.Bottom(), static_cast<uint64_t>(t + 1)};
      for (int i = 0; i < kPerThread; ++i) {
        (void)monitor_->Check(subject, (i & 1) != 0 ? open_ : locked_, AccessMode::kRead);
      }
    });
  }
  for (std::thread& th : threads) {
    th.join();
  }
  const MonitorStats& stats = monitor_->stats();
  EXPECT_EQ(stats.checks_total(), static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(stats.allowed_total() + stats.denied_total(), stats.checks_total());
  EXPECT_EQ(stats.TakeSnapshot().ShardTotal(), stats.checks_total());
  EXPECT_EQ(stats.denied_total(), monitor_->audit().total_denials());
}

// A fresh kernel with the per-shard telemetry mounted, a user who may list
// and read five top-level trees (in at least three monitor shards) but not
// /secret, and the decisions one round of a mixed workload records.
class MonitorStatsDomainTest : public ::testing::Test {
 protected:
  // Decisions (and access-mode counts) one Round() records: a read Check
  // (1), a read|write Check (1 decision, 2 modes), a CheckPath to a depth-2
  // file (root + dir + leaf = 3), a traversal denial under /secret (root,
  // the denied /secret step, the traversal denial = 3), a not-found path
  // (root + dir + not-found = 3) and a denied SetNodeAcl (1).
  static constexpr uint64_t kDecisionsPerRound = 12;
  static constexpr uint64_t kModesPerRound = 13;

  MonitorStatsDomainTest() {
    EXPECT_TRUE(sys_.stats().MountShards(&sys_.monitor()).ok());
    user_ = *sys_.CreateUser("domain-user");
    Subject system = sys_.SystemSubject();
    NodeId root = sys_.name_space().root();
    EXPECT_TRUE(sys_.monitor()
                    .AddAclEntry(system, root,
                                 {AclEntryType::kAllow, user_, AccessModeSet(AccessMode::kList)})
                    .ok());
    std::set<ShardId> shards;
    for (int i = 0; i < 5; ++i) {
      std::string dir = StrFormat("/domain%d", i);
      NodeId node = *sys_.name_space().BindPath(dir, NodeKind::kDirectory,
                                                 sys_.system_principal());
      Acl acl;
      acl.AddEntry({AclEntryType::kAllow, user_, AccessMode::kList | AccessMode::kRead});
      EXPECT_TRUE(sys_.monitor().SetNodeAcl(system, node, std::move(acl)).ok());
      files_.push_back(*sys_.name_space().BindPath(dir + "/f", NodeKind::kFile,
                                                   sys_.system_principal()));
      paths_.push_back(dir + "/f");
      shards.insert(sys_.name_space().ShardOf(node));
    }
    EXPECT_GE(shards.size(), 3u);
    NodeId secret = *sys_.name_space().BindPath("/secret", NodeKind::kDirectory,
                                                sys_.system_principal());
    EXPECT_TRUE(sys_.monitor().SetNodeAcl(system, secret, Acl()).ok());
    EXPECT_TRUE(
        sys_.name_space().BindPath("/secret/f", NodeKind::kFile, sys_.system_principal()).ok());
  }

  // One round of the mixed workload for `subject`, aimed at tree `i % 5`.
  void Round(const Subject& subject, size_t i) {
    size_t t = i % files_.size();
    EXPECT_TRUE(sys_.monitor().Check(subject, files_[t], AccessMode::kRead).allowed);
    EXPECT_FALSE(
        sys_.monitor().Check(subject, files_[t], AccessMode::kRead | AccessMode::kWrite).allowed);
    EXPECT_TRUE(sys_.monitor().CheckPath(subject, paths_[t], AccessMode::kRead).allowed);
    EXPECT_EQ(sys_.monitor().CheckPath(subject, "/secret/f", AccessMode::kRead).reason,
              DenyReason::kTraversal);
    EXPECT_EQ(sys_.monitor().CheckPath(subject, "/domain0/missing", AccessMode::kRead).reason,
              DenyReason::kNotFound);
    EXPECT_FALSE(sys_.monitor().SetNodeAcl(subject, files_[t], Acl()).ok());
  }

  SecureSystem sys_;
  PrincipalId user_;
  std::vector<NodeId> files_;
  std::vector<std::string> paths_;
};

TEST_F(MonitorStatsDomainTest, EveryDecisionLandsInOneDomain) {
  Subject subject = sys_.Login(user_, sys_.labels().Bottom());
  uint64_t hits_before = sys_.monitor().cache().hits();
  for (size_t i = 0; i < 20; ++i) {
    Round(subject, i);
  }
  EXPECT_GT(sys_.monitor().cache().hits(), hits_before);  // warm path entries served

  // One trusted pass over the leaves (no mediated read moves a counter
  // between them).
  uint64_t shard_sum = 0;
  uint64_t total = 0;
  size_t busy_shards = 0;
  for (const std::string& line : StrSplit(sys_.stats().RenderAll(), '\n', true)) {
    size_t sp = line.rfind(' ');
    std::string key = line.substr(0, sp);
    if (StartsWith(key, "/sys/monitor/shard/") && EndsWith(key, "/checks")) {
      uint64_t value = std::stoull(line.substr(sp + 1));
      shard_sum += value;
      busy_shards += value > 0 ? 1 : 0;
    } else if (key == "/sys/monitor/checks/total") {
      total = std::stoull(line.substr(sp + 1));
    }
  }
  EXPECT_GE(total, 20 * kDecisionsPerRound);
  EXPECT_EQ(shard_sum, total);
  EXPECT_GE(busy_shards, 4u);  // three or more shards, plus the aggregate domain
}

TEST_F(MonitorStatsDomainTest, ConcurrentDecisionsLandInOneDomainAndOneReason) {
  constexpr int kThreads = 4;
  constexpr size_t kRounds = 200;
  MonitorStats::Snapshot before = sys_.monitor().stats().TakeSnapshot();
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([this, t] {
      Subject subject = sys_.Login(user_, sys_.labels().Bottom());
      for (size_t i = 0; i < kRounds; ++i) {
        Round(subject, i + static_cast<size_t>(t));
      }
    });
  }
  for (std::thread& th : threads) {
    th.join();
  }
  MonitorStats::Snapshot after = sys_.monitor().stats().TakeSnapshot();
  uint64_t reason_total = 0;
  for (uint64_t r : after.by_reason) {
    reason_total += r;
  }
  EXPECT_EQ(after.ShardTotal(), after.checks_total);
  EXPECT_EQ(reason_total, after.checks_total);
  EXPECT_EQ(after.checks_total - before.checks_total, kThreads * kRounds * kDecisionsPerRound);
  EXPECT_EQ(after.ModeTotal() - before.ModeTotal(), kThreads * kRounds * kModesPerRound);
}

}  // namespace
}  // namespace xsec
