#include "src/monitor/monitor_stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "src/base/rng.h"
#include "src/monitor/reference_monitor.h"

namespace xsec {
namespace {

TEST(MonitorStatsTest, RecordDecisionCountsTotalReasonAndEveryMode) {
  MonitorStats stats;
  stats.RecordDecision(AccessMode::kRead | AccessMode::kWrite, DenyReason::kNone);
  stats.RecordDecision(AccessModeSet(AccessMode::kRead), DenyReason::kDacNoGrant);
  stats.RecordDecision(AccessModeSet(AccessMode::kExecute), DenyReason::kMacFlow);

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
        stats.RecordDecision(modes, reason);
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
    ASSERT_GE(snap.LatencyBucketTotal(), snap.latency_samples);
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& th : writers) {
    th.join();
  }
  // Quiescent: the mode total is exact (reads were 1 mode, some 2).
  MonitorStats::Snapshot final_snap = stats.TakeSnapshot();
  EXPECT_GE(final_snap.ModeTotal(), final_snap.checks_total);
  EXPECT_EQ(final_snap.LatencyBucketTotal(), final_snap.latency_samples);
}

TEST(MonitorStatsTest, SnapshotsNeverTearAcrossConcurrentResets) {
  MonitorStats stats;
  std::atomic<bool> stop{false};
  std::thread resetter([&stats, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      stats.Reset();
    }
  });
  // Readers must never observe a half-zeroed pass: within one snapshot the
  // derived identity holds and the reason total matches, reset or not.
  for (int i = 0; i < 2000; ++i) {
    stats.RecordDecision(AccessModeSet(AccessMode::kRead), DenyReason::kNone);
    MonitorStats::Snapshot snap = stats.TakeSnapshot();
    ASSERT_EQ(snap.allowed + snap.denied, snap.checks_total);
    ASSERT_GE(snap.ModeTotal(), 0u);
  }
  stop.store(true, std::memory_order_relaxed);
  resetter.join();
}

TEST(MonitorStatsTest, ResetBumpsTheSnapshotResetEpoch) {
  MonitorStats stats;
  EXPECT_EQ(stats.TakeSnapshot().reset_epoch, 0u);
  stats.RecordDecision(AccessModeSet(AccessMode::kRead), DenyReason::kNone);
  stats.Reset();
  EXPECT_EQ(stats.TakeSnapshot().reset_epoch, 1u);
  stats.Reset();
  stats.Reset();
  EXPECT_EQ(stats.TakeSnapshot().reset_epoch, 3u);
  EXPECT_EQ(stats.TakeSnapshot().checks_total, 0u);
}

TEST(MonitorStatsTest, ResetZeroesEverything) {
  MonitorStats stats;
  stats.RecordDecision(AccessModeSet(AccessMode::kRead), DenyReason::kNone);
  stats.RecordLatencyNs(50);
  stats.Reset();
  EXPECT_EQ(stats.checks_total(), 0u);
  EXPECT_EQ(stats.by_mode(AccessMode::kRead), 0u);
  EXPECT_EQ(stats.latency_samples(), 0u);
  EXPECT_EQ(stats.LatencyQuantileNs(0.9), 0u);
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
  EXPECT_EQ(stats.checks_total(), monitor_->audit().total_checks());
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
  // The audit counters still run — stats are an overlay, not a replacement.
  EXPECT_EQ(quiet.audit().total_checks(), 2u);
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
  EXPECT_EQ(stats.checks_total(), monitor_->audit().total_checks());
}

}  // namespace
}  // namespace xsec
