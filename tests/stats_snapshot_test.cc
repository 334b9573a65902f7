// Tests for the snapshot + subscription layer of StatsService: the
// versioned /sys/monitor/snapshot rendering, the version leaf, the windowed
// rate leaves, and the /svc/stats watch long-poll (a one-shot subscription).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "src/base/strings.h"
#include "src/core/secure_system.h"
#include "src/monitor/monitor_stats.h"
#include "src/services/stats_service.h"

namespace xsec {
namespace {

// "key value" per line -> map. Values stay strings (hit_rate and the rates
// are fixed-point decimals).
std::map<std::string, std::string> ParseSnapshot(const std::string& text) {
  std::map<std::string, std::string> out;
  for (const std::string& line : StrSplit(text, '\n', /*skip_empty=*/true)) {
    size_t sp = line.rfind(' ');
    if (sp == std::string::npos) {
      continue;
    }
    out[line.substr(0, sp)] = line.substr(sp + 1);
  }
  return out;
}

uint64_t Num(const std::map<std::string, std::string>& kv, const std::string& key) {
  auto it = kv.find(key);
  EXPECT_NE(it, kv.end()) << "missing snapshot key " << key;
  return it == kv.end() ? 0 : std::stoull(it->second);
}

uint64_t SumPrefix(const std::map<std::string, std::string>& kv, const std::string& prefix) {
  uint64_t total = 0;
  for (const auto& [key, value] : kv) {
    if (StartsWith(key, prefix)) {
      total += std::stoull(value);
    }
  }
  return total;
}

TEST(StatsSnapshotTest, SnapshotLeafRendersOneConsistentView) {
  SecureSystem sys;
  Subject system = sys.SystemSubject();
  for (int i = 0; i < 7; ++i) {
    (void)sys.monitor().Check(system, sys.name_space().root(), AccessMode::kList);
  }
  sys.stats().Tick();
  auto text = sys.stats().ReadStat(system, "/sys/monitor/snapshot");
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  auto kv = ParseSnapshot(*text);
  EXPECT_GE(Num(kv, "version"), 1u);
  uint64_t total = Num(kv, "/sys/monitor/checks/total");
  EXPECT_GE(total, 7u);
  EXPECT_EQ(Num(kv, "/sys/monitor/checks/allowed") + Num(kv, "/sys/monitor/checks/denied"),
            total);
  EXPECT_EQ(SumPrefix(kv, "/sys/monitor/denials/by-reason/"),
            Num(kv, "/sys/monitor/checks/denied"));
  EXPECT_GE(SumPrefix(kv, "/sys/monitor/checks/by-mode/"), total);
  // The fixed-point leaves render with a '.' radix and fixed precision.
  EXPECT_EQ(kv.at("/sys/monitor/cache/hit_rate").find('.'), 1u);
  EXPECT_EQ(kv.at("/sys/monitor/rate/checks_per_sec").rfind('.'),
            kv.at("/sys/monitor/rate/checks_per_sec").size() - 3);
}

TEST(StatsSnapshotTest, SnapshotIsExcludedFromDumpsButReadable) {
  SecureSystem sys;
  Subject system = sys.SystemSubject();
  auto dump = sys.stats().DumpTree(system);
  ASSERT_TRUE(dump.ok());
  // The multi-line snapshot leaf would corrupt the "path value" line format.
  EXPECT_EQ(dump->find("/sys/monitor/snapshot"), std::string::npos);
  EXPECT_NE(dump->find("/sys/monitor/version "), std::string::npos);
  EXPECT_NE(dump->find("/sys/monitor/rate/checks_per_sec "), std::string::npos);
  // Unprivileged subjects are denied the snapshot like any other leaf.
  auto bob = sys.CreateUser("bob");
  ASSERT_TRUE(bob.ok());
  Subject bob_s = sys.Login(*bob, sys.labels().Bottom());
  auto denied = sys.stats().ReadStat(bob_s, "/sys/monitor/snapshot");
  EXPECT_EQ(denied.status().code(), StatusCode::kPermissionDenied);
}

TEST(StatsSnapshotTest, InvariantsHoldOnEverySnapshotUnderConcurrentChecking) {
  SecureSystem sys;
  std::atomic<bool> stop{false};
  constexpr int kWriters = 4;
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    // Login mutates kernel state; take the subject before spawning.
    Subject subject = sys.Login(sys.system_principal(), sys.labels().Top());
    writers.emplace_back([&sys, &stop, subject]() mutable {
      while (!stop.load(std::memory_order_relaxed)) {
        (void)sys.monitor().Check(subject, sys.name_space().root(), AccessMode::kList);
        (void)sys.monitor().Check(subject, NodeId{99'999}, AccessMode::kRead);
      }
    });
  }
  uint64_t last_version = 0;
  for (int i = 0; i < 300; ++i) {
    sys.stats().Tick();
    auto kv = ParseSnapshot(sys.stats().RenderSnapshot());
    uint64_t total = Num(kv, "/sys/monitor/checks/total");
    ASSERT_EQ(Num(kv, "/sys/monitor/checks/allowed") + Num(kv, "/sys/monitor/checks/denied"),
              total);
    ASSERT_EQ(SumPrefix(kv, "/sys/monitor/denials/by-reason/"),
              Num(kv, "/sys/monitor/checks/denied"));
    ASSERT_GE(SumPrefix(kv, "/sys/monitor/checks/by-mode/"), total);
    uint64_t version = Num(kv, "version");
    ASSERT_GE(version, last_version);  // versions are monotone
    last_version = version;
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& th : writers) {
    th.join();
  }
}

TEST(StatsSnapshotTest, VersionAdvancesOnlyWhenCountersChange) {
  Kernel kernel;
  StatsServiceOptions options;
  options.epoch_interval_ns = uint64_t{3600} * 1'000'000'000;  // no auto refresh
  StatsService stats(&kernel, options);
  ASSERT_TRUE(stats.Install().ok());
  uint64_t v0 = stats.version();
  EXPECT_GE(v0, 1u);  // Install publishes the boot-time state
  // Quiescent ticks publish nothing new.
  EXPECT_EQ(stats.Tick(), v0);
  EXPECT_EQ(stats.Tick(), v0);
  // Any counter movement (even a denial) is a new version.
  Subject subject = kernel.SystemSubject();
  (void)kernel.monitor().Check(subject, kernel.name_space().root(), AccessMode::kList);
  EXPECT_EQ(stats.Tick(), v0 + 1);
  EXPECT_EQ(stats.Tick(), v0 + 1);
}

TEST(StatsSnapshotTest, VersionLeafDoesNotSelfRefresh) {
  Kernel kernel;
  StatsServiceOptions options;
  options.epoch_interval_ns = uint64_t{3600} * 1'000'000'000;
  StatsService stats(&kernel, options);
  ASSERT_TRUE(stats.Install().ok());
  Subject subject = kernel.SystemSubject();
  auto v_before = stats.ReadStat(subject, "/sys/monitor/version");
  ASSERT_TRUE(v_before.ok()) << v_before.status().ToString();
  // The reads above moved counters, but nothing re-published: the version
  // leaf answers "what was last published", so staleness is observable.
  auto v_after = stats.ReadStat(subject, "/sys/monitor/version");
  ASSERT_TRUE(v_after.ok());
  EXPECT_EQ(*v_before, *v_after);
  stats.Tick();
  auto v_ticked = stats.ReadStat(subject, "/sys/monitor/version");
  ASSERT_TRUE(v_ticked.ok());
  EXPECT_EQ(std::stoull(*v_ticked), std::stoull(*v_after) + 1);
}

// The rate leaves are windowed deltas of counters that never decrease: the
// boot-time publication alone is a one-entry window and reports 0.00; after
// more decisions, the next publication reports their rate.
TEST(StatsSnapshotTest, RateWindowIsADeltaOfMonotoneCounters) {
  Kernel kernel;
  StatsServiceOptions options;
  options.epoch_interval_ns = uint64_t{3600} * 1'000'000'000;  // no auto refresh
  StatsService stats(&kernel, options);
  ASSERT_TRUE(stats.Install().ok());
  auto first = ParseSnapshot(stats.RenderSnapshot());
  EXPECT_EQ(first.at("/sys/monitor/rate/checks_per_sec"), "0.00");
  EXPECT_EQ(first.at("/sys/monitor/rate/denials_per_sec"), "0.00");
  Subject system = kernel.SystemSubject();
  for (int i = 0; i < 50; ++i) {
    (void)kernel.monitor().Check(system, kernel.name_space().root(), AccessMode::kList);
    (void)kernel.monitor().Check(system, NodeId{99'999}, AccessMode::kRead);  // not found
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  stats.Tick();
  auto second = ParseSnapshot(stats.RenderSnapshot());
  EXPECT_EQ(Num(second, "/sys/monitor/checks/total"),
            Num(first, "/sys/monitor/checks/total") + 100);
  double checks_per_sec = std::stod(second.at("/sys/monitor/rate/checks_per_sec"));
  double denials_per_sec = std::stod(second.at("/sys/monitor/rate/denials_per_sec"));
  EXPECT_GT(denials_per_sec, 0.0);
  EXPECT_GE(checks_per_sec, denials_per_sec);
}

// Regression for the RCU publication rule: the version leaf and the snapshot
// leaf read the SAME atomically swapped epoch pointer, so a reader that just
// rendered a snapshot can never then read a version OLDER than the one inside
// that snapshot — even while a publisher races new epochs in.
TEST(StatsSnapshotTest, VersionLeafNeverLagsARenderedSnapshot) {
  SecureSystem sys;
  Subject system = sys.SystemSubject();
  std::atomic<bool> stop{false};
  std::thread publisher([&sys, &stop] {
    Subject s = sys.SystemSubject();
    while (!stop.load(std::memory_order_relaxed)) {
      (void)sys.monitor().Check(s, sys.name_space().root(), AccessMode::kList);
      sys.stats().Tick();
    }
  });
  for (int i = 0; i < 300; ++i) {
    auto snapshot = sys.stats().ReadStat(system, "/sys/monitor/snapshot");
    ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
    uint64_t rendered = Num(ParseSnapshot(*snapshot), "version");
    auto version = sys.stats().ReadStat(system, "/sys/monitor/version");
    ASSERT_TRUE(version.ok()) << version.status().ToString();
    EXPECT_GE(std::stoull(*version), rendered)
        << "version leaf went backwards relative to a rendered snapshot";
  }
  stop.store(true, std::memory_order_relaxed);
  publisher.join();
}

// A user who may call /svc/stats/* (the /svc default covers everyone) and
// holds read|list on the stats mount, so the watch admission check passes.
Subject LoginAuditor(SecureSystem& sys) {
  auto auditor = sys.CreateUser("auditor");
  EXPECT_TRUE(auditor.ok());
  NodeId mount = *sys.name_space().Lookup("/sys/monitor");
  EXPECT_TRUE(sys.monitor()
                  .AddAclEntry(sys.SystemSubject(), mount,
                               {AclEntryType::kAllow, *auditor,
                                AccessMode::kRead | AccessMode::kList})
                  .ok());
  return sys.Login(*auditor, sys.labels().Bottom());
}

TEST(StatsWatchTest, WatchUnblocksWithinOneEpochOfAChange) {
  SecureSystem sys;  // default 20ms epoch, no background publisher
  Subject watcher = LoginAuditor(sys);
  StatusOr<Value> result = InvalidArgumentError("not run");
  std::thread blocked([&sys, &watcher, &result] {
    // since = -1: baseline past this watch's own admission check, then block
    // until the next external change.
    result = sys.Invoke(watcher, "/svc/stats/watch",
                        {Value{int64_t{-1}}, Value{int64_t{10'000}}});
  });
  // Give the watcher time to enter its wait, then move a counter.
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  Subject system = sys.SystemSubject();
  (void)sys.monitor().Check(system, sys.name_space().root(), AccessMode::kList);
  blocked.join();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_TRUE(std::holds_alternative<std::string>(*result));
  auto kv = ParseSnapshot(std::get<std::string>(*result));
  EXPECT_GE(Num(kv, "version"), 2u);
  EXPECT_GE(Num(kv, "/sys/monitor/checks/total"), 1u);
}

TEST(StatsWatchTest, WatchTimesOutWhenNothingChanges) {
  SecureSystem sys;
  Subject watcher = LoginAuditor(sys);
  // since = -1 baselines a fresh publication that folds in the watch's own
  // admission check; with the system otherwise quiescent no further version
  // can be published, so the watch rides out its full timeout.
  auto start = std::chrono::steady_clock::now();
  auto result = sys.Invoke(watcher, "/svc/stats/watch",
                           {Value{int64_t{-1}}, Value{int64_t{50}}});
  auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_GE(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count(), 45);
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count(), 5000);
}

TEST(StatsWatchTest, CallDeadlineCapsTheWatchTimeout) {
  SecureSystem sys;
  Subject watcher = LoginAuditor(sys);
  CallOptions options;
  options.deadline_ns = MonotonicNowNs() + 50'000'000;  // 50ms, well under 10s
  auto start = std::chrono::steady_clock::now();
  auto result = sys.Invoke(watcher, "/svc/stats/watch",
                           {Value{int64_t{-1}}, Value{int64_t{10'000}}}, options);
  auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count(), 5000);
}

TEST(StatsWatchTest, StaleSinceReturnsTheCurrentSnapshotImmediately) {
  SecureSystem sys;
  Subject watcher = LoginAuditor(sys);
  // A version far past anything published is a handle from a previous era
  // (e.g. from before a service restart): the watch answers with the current
  // snapshot at once instead of parking until the timeout.
  uint64_t stale = uint64_t{1} << 40;
  auto start = std::chrono::steady_clock::now();
  auto result = sys.Invoke(watcher, "/svc/stats/watch",
                           {Value{static_cast<int64_t>(stale)}, Value{int64_t{10'000}}});
  auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_TRUE(result.ok()) << result.status().message();
  EXPECT_NE(std::get<std::string>(*result).find("version "), std::string::npos);
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count(), 5000);
}

TEST(StatsWatchTest, NonPositiveTimeoutIsRejected) {
  SecureSystem sys;
  Subject watcher = LoginAuditor(sys);
  auto zero = sys.Invoke(watcher, "/svc/stats/watch", {Value{int64_t{-1}}, Value{int64_t{0}}});
  EXPECT_EQ(zero.status().code(), StatusCode::kInvalidArgument);
  auto negative =
      sys.Invoke(watcher, "/svc/stats/watch", {Value{int64_t{-1}}, Value{int64_t{-5}}});
  EXPECT_EQ(negative.status().code(), StatusCode::kInvalidArgument);
}

TEST(StatsWatchTest, SinceBelowMinusOneIsRejected) {
  SecureSystem sys;
  Subject watcher = LoginAuditor(sys);
  auto result = sys.Invoke(watcher, "/svc/stats/watch", {Value{int64_t{-2}}});
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(StatsWatchTest, WatchIsDeniedForUnprivilegedSubjects) {
  SecureSystem sys;
  auto bob = sys.CreateUser("bob");
  ASSERT_TRUE(bob.ok());
  Subject bob_s = sys.Login(*bob, sys.labels().Bottom());
  // The admission check runs before blocking: a subject that may not read
  // the snapshot is rejected immediately, not parked until the timeout.
  auto start = std::chrono::steady_clock::now();
  auto result = sys.Invoke(bob_s, "/svc/stats/watch",
                           {Value{int64_t{-1}}, Value{int64_t{10'000}}});
  auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(result.status().code(), StatusCode::kPermissionDenied);
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count(), 5000);
}

// A parked watch holds a subscription channel, so it is bounded by the same
// quotas: at the per-principal cap it is refused at once, and the refusal is
// counted like any other quota denial.
TEST(StatsWatchTest, WatchAtTheChannelQuotaIsRefusedAtOnce) {
  SecureSystem sys;  // default quota: 4 channels per principal
  Subject watcher = LoginAuditor(sys);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(sys.stats().Subscribe(watcher, -1).ok());
  }
  uint64_t denied_before = sys.stats().quota_denied_total();
  auto start = std::chrono::steady_clock::now();
  auto result = sys.Invoke(watcher, "/svc/stats/watch",
                           {Value{int64_t{-1}}, Value{int64_t{10'000}}});
  auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count(), 5000);
  auto leaf = sys.stats().ReadStat(watcher, "/sys/monitor/subscribers/quota_denied");
  ASSERT_TRUE(leaf.ok()) << leaf.status().ToString();
  EXPECT_EQ(std::stoull(*leaf), denied_before + 1);
}

// Runs one watch on its own thread, checks that it holds a channel while it
// waits, lets `release` end the wait, and returns the watch's result.
StatusOr<Value> WatchHoldingAChannel(SecureSystem& sys, Subject& watcher,
                                     const CallOptions& options, int64_t timeout_ms,
                                     const std::function<void()>& release) {
  size_t before = sys.stats().active_subscribers();
  StatusOr<Value> result = InvalidArgumentError("not run");
  std::thread blocked([&] {
    result = sys.Invoke(watcher, "/svc/stats/watch",
                        {Value{int64_t{-1}}, Value{timeout_ms}}, options);
  });
  uint64_t give_up = MonotonicNowNs() + uint64_t{5} * 1'000'000'000;
  while (sys.stats().active_subscribers() == before && MonotonicNowNs() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(sys.stats().active_subscribers(), before + 1);
  release();
  blocked.join();
  EXPECT_EQ(sys.stats().active_subscribers(), before);
  return result;
}

// Whatever ends the wait — an update, the timeout, or a cancel — the watch's
// channel is closed and subscribers/active returns to its prior value.
TEST(StatsWatchTest, WatchReleasesItsChannelOnEveryExit) {
  SecureSystem sys;
  Subject watcher = LoginAuditor(sys);
  Subject system = sys.SystemSubject();

  auto updated = WatchHoldingAChannel(sys, watcher, {}, 10'000, [&] {
    (void)sys.monitor().Check(system, sys.name_space().root(), AccessMode::kList);
  });
  EXPECT_TRUE(updated.ok()) << updated.status().ToString();

  auto timed_out = WatchHoldingAChannel(sys, watcher, {}, 200, [] {});
  EXPECT_EQ(timed_out.status().code(), StatusCode::kDeadlineExceeded);

  std::atomic<bool> cancel{false};
  CallOptions cancellable;
  cancellable.cancel = &cancel;
  auto cancelled = WatchHoldingAChannel(sys, watcher, cancellable, 10'000,
                                        [&] { cancel.store(true); });
  EXPECT_EQ(cancelled.status().code(), StatusCode::kCancelled);

  auto active = sys.stats().ReadStat(system, "/sys/monitor/subscribers/active");
  ASSERT_TRUE(active.ok());
  EXPECT_EQ(*active, "0");
}

// The TSan hammer for Subscribe's catch-up: a Tick whose fan-out lands
// between a watch's baseline and its channel registration must still reach
// that watch. Watchers call watch(-1) while a publisher moves a counter and
// Ticks about every millisecond for as long as any watch can wait, so every
// watch must see an epoch; none may time out.
TEST(StatsWatchTest, WatchUnderAPublishStormNeverTimesOut) {
  SecureSystem sys;
  Subject watcher = LoginAuditor(sys);
  std::atomic<bool> stop{false};
  std::thread publisher([&] {
    Subject system = sys.SystemSubject();
    while (!stop.load()) {
      (void)sys.monitor().Check(system, sys.name_space().root(), AccessMode::kList);
      sys.stats().Tick();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  std::vector<std::thread> watchers;
  for (int t = 0; t < 3; ++t) {  // under the per-principal quota of 4
    watchers.emplace_back([&sys, watcher] {
      Subject mine = watcher;
      for (int round = 0; round < 100; ++round) {
        auto result = sys.Invoke(mine, "/svc/stats/watch",
                                 {Value{int64_t{-1}}, Value{int64_t{5'000}}});
        EXPECT_TRUE(result.ok()) << result.status().ToString();
      }
    });
  }
  for (std::thread& th : watchers) {
    th.join();
  }
  stop.store(true);
  publisher.join();
  EXPECT_EQ(sys.stats().active_subscribers(), 0u);
}

}  // namespace
}  // namespace xsec
