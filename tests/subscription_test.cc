// Tests for the stats subscription channels: one admission check at
// Subscribe, a bounded per-subscriber epoch queue fed by Tick that evicts its
// oldest epoch when full, full-snapshot deliveries, owner-bound handles, the
// aggregate /sys/monitor/subscribers/... telemetry, and channels that bind no
// name-space node.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "src/base/strings.h"
#include "src/core/secure_system.h"
#include "src/services/stats_service.h"

namespace xsec {
namespace {

// Publishing requires a counter to actually move: bump one with a mediated
// check, then Tick.
uint64_t Publish(Kernel& kernel, StatsService& stats) {
  Subject system = kernel.SystemSubject();
  (void)kernel.monitor().Check(system, kernel.name_space().root(), AccessMode::kList);
  return stats.Tick();
}

StatsServiceOptions ManualOptions() {
  StatsServiceOptions options;
  // No self-clocking during these tests: epochs are published only by an
  // explicit Tick, so queue contents are deterministic.
  options.epoch_interval_ns = uint64_t{3600} * 1'000'000'000;
  return options;
}

TEST(SubscriptionTest, PollDeliversEachPublishedEpoch) {
  Kernel kernel;
  StatsService stats(&kernel, ManualOptions());
  ASSERT_TRUE(stats.Install().ok());
  Subject system = kernel.SystemSubject();
  auto id = stats.Subscribe(system, -1);
  ASSERT_TRUE(id.ok()) << id.status().ToString();

  uint64_t v1 = Publish(kernel, stats);
  uint64_t v2 = Publish(kernel, stats);
  ASSERT_GT(v2, v1);

  auto first = stats.PollSubscription(system, *id, /*deadline_ns=*/0);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  auto second = stats.PollSubscription(system, *id, /*deadline_ns=*/0);
  ASSERT_TRUE(second.ok());
  EXPECT_NE(first->find(StrFormat("version %llu", static_cast<unsigned long long>(v1))),
            std::string::npos);
  EXPECT_NE(second->find(StrFormat("version %llu", static_cast<unsigned long long>(v2))),
            std::string::npos);
}

TEST(SubscriptionTest, EmptyQueueTimesOut) {
  Kernel kernel;
  StatsService stats(&kernel, ManualOptions());
  ASSERT_TRUE(stats.Install().ok());
  Subject system = kernel.SystemSubject();
  auto id = stats.Subscribe(system, -1);
  ASSERT_TRUE(id.ok());
  auto result =
      stats.PollSubscription(system, *id, MonotonicNowNs() + 30'000'000);  // 30ms
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(SubscriptionTest, StaleSinceSeedsOneCatchUpSnapshot) {
  Kernel kernel;
  StatsService stats(&kernel, ManualOptions());
  ASSERT_TRUE(stats.Install().ok());
  Subject system = kernel.SystemSubject();
  Publish(kernel, stats);
  // The subscriber last saw version 0, i.e. it is behind: the channel opens
  // with the current snapshot already queued, no blocking needed.
  auto id = stats.Subscribe(system, 0);
  ASSERT_TRUE(id.ok());
  auto caught_up = stats.PollSubscription(system, *id, /*deadline_ns=*/0);
  ASSERT_TRUE(caught_up.ok()) << caught_up.status().ToString();
  EXPECT_NE(caught_up->find("version "), std::string::npos);
}

TEST(SubscriptionTest, AdmissionIsCheckedOnceAtSubscribe) {
  Kernel kernel;
  StatsService stats(&kernel, ManualOptions());
  ASSERT_TRUE(stats.Install().ok());
  auto intruder = kernel.principals().CreateUser("intruder");
  ASSERT_TRUE(intruder.ok());
  Subject intruder_s = kernel.CreateSubject(*intruder, kernel.labels().Bottom());
  // The fail-closed mount ACL denies the read that Subscribe mediates.
  auto denied = stats.Subscribe(intruder_s, -1);
  EXPECT_EQ(denied.status().code(), StatusCode::kPermissionDenied);
}

TEST(SubscriptionTest, HandlesAreOwnerBound) {
  Kernel kernel;
  StatsService stats(&kernel, ManualOptions());
  ASSERT_TRUE(stats.Install().ok());
  Subject system = kernel.SystemSubject();
  auto id = stats.Subscribe(system, -1);
  ASSERT_TRUE(id.ok());
  auto other = kernel.principals().CreateUser("other");
  ASSERT_TRUE(other.ok());
  Subject other_s = kernel.CreateSubject(*other, kernel.labels().Bottom());
  // A leaked or guessed handle number grants nothing to another principal.
  EXPECT_EQ(stats.PollSubscription(other_s, *id, 0).status().code(),
            StatusCode::kPermissionDenied);
  EXPECT_EQ(stats.Unsubscribe(other_s, *id).code(), StatusCode::kPermissionDenied);
  // The owner still holds a live channel.
  EXPECT_TRUE(stats.Unsubscribe(system, *id).ok());
}

TEST(SubscriptionTest, DropOldestShedsAndCountsWithoutBlockingTick) {
  Kernel kernel;
  StatsServiceOptions options = ManualOptions();
  options.subscriber_queue_capacity = 2;
  StatsService stats(&kernel, options);
  ASSERT_TRUE(stats.Install().ok());
  Subject system = kernel.SystemSubject();
  auto id = stats.Subscribe(system, -1);
  ASSERT_TRUE(id.ok());

  // A subscriber that never drains: 6 published epochs into a queue of 2.
  auto start = std::chrono::steady_clock::now();
  uint64_t last_version = 0;
  for (int i = 0; i < 6; ++i) {
    last_version = Publish(kernel, stats);
  }
  auto elapsed = std::chrono::steady_clock::now() - start;
  // Eviction applies no backpressure at all: the publisher never waits.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count(), 5000);

  // The drops are observable through the mediated telemetry tree.
  auto aggregate = stats.ReadStat(system, "/sys/monitor/subscribers/dropped");
  ASSERT_TRUE(aggregate.ok()) << aggregate.status().ToString();
  EXPECT_EQ(*aggregate, "4");

  // The queue holds the two NEWEST epochs: the gap is at the old end.
  auto first = stats.PollSubscription(system, *id, 0);
  ASSERT_TRUE(first.ok());
  auto second = stats.PollSubscription(system, *id, 0);
  ASSERT_TRUE(second.ok());
  EXPECT_NE(second->find(StrFormat("version %llu",
                                   static_cast<unsigned long long>(last_version))),
            std::string::npos);
  EXPECT_EQ(stats.PollSubscription(system, *id, MonotonicNowNs()).status().code(),
            StatusCode::kDeadlineExceeded);
}

TEST(SubscriptionTest, UnsubscribeClosesTheChannelAndUnmountsTelemetry) {
  Kernel kernel;
  StatsService stats(&kernel, ManualOptions());
  ASSERT_TRUE(stats.Install().ok());
  Subject system = kernel.SystemSubject();
  auto id = stats.Subscribe(system, -1);
  ASSERT_TRUE(id.ok());
  auto active = stats.ReadStat(system, "/sys/monitor/subscribers/active");
  ASSERT_TRUE(active.ok());
  EXPECT_EQ(*active, "1");

  ASSERT_TRUE(stats.Unsubscribe(system, *id).ok());
  EXPECT_EQ(stats.PollSubscription(system, *id, 0).status().code(),
            StatusCode::kNotFound);
  active = stats.ReadStat(system, "/sys/monitor/subscribers/active");
  ASSERT_TRUE(active.ok());
  EXPECT_EQ(*active, "0");
}

TEST(SubscriptionTest, SubscriberLimitIsEnforced) {
  Kernel kernel;
  StatsServiceOptions options = ManualOptions();
  options.max_subscribers = 2;
  StatsService stats(&kernel, options);
  ASSERT_TRUE(stats.Install().ok());
  Subject system = kernel.SystemSubject();
  ASSERT_TRUE(stats.Subscribe(system, -1).ok());
  ASSERT_TRUE(stats.Subscribe(system, -1).ok());
  EXPECT_EQ(stats.Subscribe(system, -1).status().code(),
            StatusCode::kResourceExhausted);
}

// Grants `principal` the read that Subscribe mediates on the snapshot node.
void GrantSubscribe(Kernel& kernel, PrincipalId principal) {
  Subject system = kernel.SystemSubject();
  NodeId snapshot = *kernel.name_space().Lookup("/sys/monitor/snapshot");
  ASSERT_TRUE(kernel.monitor()
                  .AddAclEntry(system, snapshot,
                               {AclEntryType::kAllow, principal, AccessMode::kRead})
                  .ok());
}

TEST(SubscriptionTest, ChannelQuotaIsPerPrincipal) {
  Kernel kernel;
  StatsServiceOptions options = ManualOptions();
  options.max_channels_per_principal = 2;
  StatsService stats(&kernel, options);
  ASSERT_TRUE(stats.Install().ok());
  Subject system = kernel.SystemSubject();
  ASSERT_TRUE(stats.Subscribe(system, -1).ok());
  ASSERT_TRUE(stats.Subscribe(system, -1).ok());
  auto third = stats.Subscribe(system, -1);
  EXPECT_EQ(third.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(stats.quota_denied_total(), 1u);
  auto leaf = stats.ReadStat(system, "/sys/monitor/subscribers/quota_denied");
  ASSERT_TRUE(leaf.ok()) << leaf.status().ToString();
  EXPECT_EQ(*leaf, "1");

  // The quota bounds one misbehaving subject, not the service: a different
  // principal still gets a channel.
  auto other = kernel.principals().CreateUser("other");
  ASSERT_TRUE(other.ok());
  GrantSubscribe(kernel, *other);
  Subject other_s = kernel.CreateSubject(*other, kernel.labels().Bottom());
  EXPECT_TRUE(stats.Subscribe(other_s, -1).ok());
  EXPECT_EQ(stats.quota_denied_total(), 1u);
}

TEST(SubscriptionTest, ChannelQuotaIsReleasedByUnsubscribe) {
  Kernel kernel;
  StatsServiceOptions options = ManualOptions();
  options.max_channels_per_principal = 1;
  StatsService stats(&kernel, options);
  ASSERT_TRUE(stats.Install().ok());
  Subject system = kernel.SystemSubject();
  auto id = stats.Subscribe(system, -1);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(stats.Subscribe(system, -1).status().code(),
            StatusCode::kResourceExhausted);
  ASSERT_TRUE(stats.Unsubscribe(system, *id).ok());
  EXPECT_TRUE(stats.Subscribe(system, -1).ok());
}

TEST(SubscriptionTest, GcClosesEveryChannelOwnedByThePrincipal) {
  Kernel kernel;
  StatsService stats(&kernel, ManualOptions());
  ASSERT_TRUE(stats.Install().ok());
  Subject system = kernel.SystemSubject();
  auto survivor = stats.Subscribe(system, -1);
  ASSERT_TRUE(survivor.ok());

  auto doomed = kernel.principals().CreateUser("doomed");
  ASSERT_TRUE(doomed.ok());
  GrantSubscribe(kernel, *doomed);
  Subject doomed_s = kernel.CreateSubject(*doomed, kernel.labels().Bottom());
  auto first = stats.Subscribe(doomed_s, -1);
  auto second = stats.Subscribe(doomed_s, -1);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(stats.active_subscribers(), 3u);

  EXPECT_EQ(stats.GcChannelsFor(*doomed), 2u);
  EXPECT_EQ(stats.active_subscribers(), 1u);
  // The reaped handles are gone.
  EXPECT_EQ(stats.PollSubscription(doomed_s, *first, 0).status().code(),
            StatusCode::kNotFound);
  // Other principals' channels are untouched.
  Publish(kernel, stats);
  EXPECT_TRUE(stats.PollSubscription(system, *survivor, 0).ok());
  // Reaping an already-clean principal collects nothing.
  EXPECT_EQ(stats.GcChannelsFor(*doomed), 0u);
}

TEST(SubscriptionTest, GcWakesABlockedPollerWithFailedPrecondition) {
  Kernel kernel;
  StatsService stats(&kernel, ManualOptions());
  ASSERT_TRUE(stats.Install().ok());
  Subject system = kernel.SystemSubject();
  auto id = stats.Subscribe(system, -1);
  ASSERT_TRUE(id.ok());

  StatusOr<std::string> result = InvalidArgumentError("not run");
  std::thread blocked([&] {
    result = stats.PollSubscription(system, *id,
                                    MonotonicNowNs() + uint64_t{10} * 1'000'000'000);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(stats.GcChannelsFor(kernel.system_principal()), 1u);
  blocked.join();
  auto reaction_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                         std::chrono::steady_clock::now() - start)
                         .count();
  // The poller holds the channel shared_ptr across the erase, so it observes
  // the close rather than a dangling handle.
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_LT(reaction_ms, 2000);
}

TEST(SubscriptionTest, UnblockedPollSeesAnEpochPublishedWhileBlocked) {
  Kernel kernel;
  StatsService stats(&kernel, ManualOptions());
  ASSERT_TRUE(stats.Install().ok());
  Subject system = kernel.SystemSubject();
  auto id = stats.Subscribe(system, -1);
  ASSERT_TRUE(id.ok());
  StatusOr<std::string> result = InvalidArgumentError("not run");
  std::thread blocked([&] {
    result = stats.PollSubscription(system, *id,
                                    MonotonicNowNs() + uint64_t{10} * 1'000'000'000);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  Publish(kernel, stats);
  blocked.join();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_NE(result->find("version "), std::string::npos);
}

// The /svc/stats procedure surface over the same machinery.
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

TEST(SubscriptionProcedureTest, SubscribePollUnsubscribeRoundTrip) {
  SecureSystem sys;
  Subject auditor = LoginAuditor(sys);
  auto handle = sys.Invoke(auditor, "/svc/stats/subscribe", {});
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  uint64_t id = std::stoull(std::get<std::string>(*handle));

  // Move a counter and publish, then poll the epoch out.
  (void)sys.monitor().Check(auditor, sys.name_space().root(), AccessMode::kList);
  sys.stats().Tick();
  auto epoch = sys.Invoke(auditor, "/svc/stats/poll",
                          {Value{static_cast<int64_t>(id)}, Value{int64_t{1000}}});
  ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();
  EXPECT_NE(std::get<std::string>(*epoch).find("version "), std::string::npos);

  auto bye = sys.Invoke(auditor, "/svc/stats/unsubscribe",
                        {Value{static_cast<int64_t>(id)}});
  ASSERT_TRUE(bye.ok()) << bye.status().ToString();
  auto gone = sys.Invoke(auditor, "/svc/stats/poll",
                         {Value{static_cast<int64_t>(id)}, Value{int64_t{1000}}});
  EXPECT_EQ(gone.status().code(), StatusCode::kNotFound);
}

TEST(SubscriptionProcedureTest, ArgumentsAreValidated) {
  SecureSystem sys;
  Subject auditor = LoginAuditor(sys);
  EXPECT_EQ(sys.Invoke(auditor, "/svc/stats/subscribe",
                       {Value{int64_t{-1}}, Value{std::string("flood")}})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(sys.Invoke(auditor, "/svc/stats/subscribe", {Value{int64_t{-7}}})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  auto handle = sys.Invoke(auditor, "/svc/stats/subscribe", {});
  ASSERT_TRUE(handle.ok());
  int64_t id = static_cast<int64_t>(std::stoull(std::get<std::string>(*handle)));
  EXPECT_EQ(sys.Invoke(auditor, "/svc/stats/poll", {Value{id}, Value{int64_t{0}}})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(sys.Invoke(auditor, "/svc/stats/poll", {Value{int64_t{-3}}})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(sys.Invoke(auditor, "/svc/stats/unsubscribe", {Value{int64_t{99999}}})
                .status()
                .code(),
            StatusCode::kNotFound);
}

// Every poll carries its epoch's full rendering — the same text the snapshot
// leaf shows for that epoch, every counter included.
TEST(SubscriptionTest, PollCarriesTheEpochsFullCounters) {
  Kernel kernel;
  StatsService stats(&kernel, ManualOptions());
  ASSERT_TRUE(stats.Install().ok());
  Subject system = kernel.SystemSubject();
  auto id = stats.Subscribe(system, -1);
  ASSERT_TRUE(id.ok());
  // An ALLOWED check moves the counters, so the denied leaf is unchanged
  // between the baseline and this epoch — and is still carried.
  ASSERT_TRUE(stats.ReadStat(system, "/sys/monitor/version").ok());
  uint64_t v = stats.Tick();
  auto polled = stats.PollSubscription(system, *id, /*deadline_ns=*/0);
  ASSERT_TRUE(polled.ok()) << polled.status().ToString();
  EXPECT_NE(polled->find(StrFormat("version %llu", static_cast<unsigned long long>(v))),
            std::string::npos);
  EXPECT_NE(polled->find("/sys/monitor/checks/total"), std::string::npos);
  EXPECT_NE(polled->find("/sys/monitor/checks/denied"), std::string::npos);
  EXPECT_EQ(polled->find("delta_from"), std::string::npos);
  // Nothing published since: the snapshot leaf renders the same epoch.
  EXPECT_EQ(*polled, stats.RenderSnapshot());
}

// Epochs evicted by a full queue cost nothing in accuracy: the counters are
// cumulative, so the one delivery after the drops is the exact current state.
TEST(SubscriptionTest, PollAfterDropsCarriesTheFullCounters) {
  Kernel kernel;
  StatsServiceOptions options = ManualOptions();
  options.subscriber_queue_capacity = 1;
  StatsService stats(&kernel, options);
  ASSERT_TRUE(stats.Install().ok());
  Subject system = kernel.SystemSubject();
  auto id = stats.Subscribe(system, -1);
  ASSERT_TRUE(id.ok());
  // Three epochs into a queue of one: the first two are evicted.
  Publish(kernel, stats);
  Publish(kernel, stats);
  uint64_t last = Publish(kernel, stats);
  EXPECT_EQ(stats.subscriber_dropped_total(), 2u);
  auto polled = stats.PollSubscription(system, *id, /*deadline_ns=*/0);
  ASSERT_TRUE(polled.ok()) << polled.status().ToString();
  EXPECT_NE(polled->find(StrFormat("version %llu", static_cast<unsigned long long>(last))),
            std::string::npos);
  EXPECT_EQ(*polled, stats.RenderSnapshot());
  std::string total = StrFormat("/sys/monitor/checks/total %llu\n",
                                static_cast<unsigned long long>(
                                    kernel.monitor().stats().checks_total()));
  EXPECT_NE(polled->find(total), std::string::npos) << *polled;
}

// Channels are registry entries, not name-space objects: opening and closing
// them — directly or through a one-shot watch — binds no node (unbound nodes
// are never freed, so any per-channel node would leak on every call).
TEST(SubscriptionTest, ChannelsBindNoNamespaceNodes) {
  SecureSystem sys;
  Subject auditor = LoginAuditor(sys);
  size_t nodes = sys.kernel().name_space().node_count();
  for (int round = 0; round < 100; ++round) {
    auto id = sys.stats().Subscribe(auditor, 0);  // seeded: the poll never waits
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ASSERT_TRUE(sys.stats().PollSubscription(auditor, *id, /*deadline_ns=*/0).ok());
    ASSERT_TRUE(sys.stats().Unsubscribe(auditor, *id).ok());
  }
  for (int round = 0; round < 10; ++round) {
    // Alternate an immediate catch-up with a short wait that times out.
    int64_t since = round % 2 == 0 ? 0 : -1;
    auto watched = sys.Invoke(auditor, "/svc/stats/watch",
                              {Value{since}, Value{int64_t{1}}});
    EXPECT_TRUE(watched.ok() || watched.status().code() == StatusCode::kDeadlineExceeded)
        << watched.status().ToString();
  }
  EXPECT_EQ(sys.kernel().name_space().node_count(), nodes);
  EXPECT_EQ(sys.stats().active_subscribers(), 0u);
}

// The TSan target: subscribers come and go while a publisher storms and a
// dump reader walks the (now mutable) leaf registry.
TEST(SubscriptionConcurrencyTest, SubscribePublishPollCancelUnsubscribeRace) {
  Kernel kernel;
  StatsServiceOptions options;
  options.epoch_interval_ns = 1'000'000;  // 1ms: plenty of publications
  options.subscriber_queue_capacity = 2;
  StatsService stats(&kernel, options);
  ASSERT_TRUE(stats.Install().ok());
  Subject system = kernel.SystemSubject();

  std::atomic<bool> stop{false};
  std::thread publisher([&] {
    while (!stop.load()) {
      Publish(kernel, stats);
      std::this_thread::yield();
    }
  });
  std::thread dumper([&] {
    while (!stop.load()) {
      (void)stats.RenderAll();
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> churners;
  for (int t = 0; t < 3; ++t) {
    churners.emplace_back([&] {
      Subject mine = kernel.SystemSubject();
      for (int round = 0; round < 20; ++round) {
        auto id = stats.Subscribe(mine, -1);
        ASSERT_TRUE(id.ok()) << id.status().ToString();
        for (int polls = 0; polls < 3; ++polls) {
          (void)stats.PollSubscription(mine, *id, MonotonicNowNs() + 5'000'000);
        }
        ASSERT_TRUE(stats.Unsubscribe(mine, *id).ok());
      }
    });
  }
  for (auto& churner : churners) {
    churner.join();
  }
  stop.store(true);
  publisher.join();
  dumper.join();
  // Everyone unsubscribed; the aggregate gauge agrees.
  auto active = stats.ReadStat(system, "/sys/monitor/subscribers/active");
  ASSERT_TRUE(active.ok());
  EXPECT_EQ(*active, "0");
}

// Extracts the `version N` header from a delivered epoch rendering.
uint64_t DeliveredVersion(const std::string& text) {
  size_t at = text.find("version ");
  EXPECT_NE(at, std::string::npos) << text;
  return at == std::string::npos ? 0 : std::stoull(text.substr(at + 8));
}

// Subscriber-churn soak: N churners subscribe/poll/unsubscribe while the
// publisher storms, with a long-lived channel riding along. No channel may
// see the same epoch twice (per-channel versions strictly increase), and the
// long-lived channel's accounting must reconcile: every version published
// after its baseline was delivered to it or counted in the aggregate
// subscribers/dropped gauge (an epoch overtaken by a concurrent Tick's
// fan-out counts as dropped too), and the aggregate never counts more drops
// than the channels could have seen.
TEST(SubscriptionConcurrencyTest, ChurnSoakDeliversNoEpochTwiceAndReconcilesDrops) {
  Kernel kernel;
  StatsServiceOptions options = ManualOptions();  // publisher-driven only
  options.subscriber_queue_capacity = 4;
  options.max_subscribers = 64;
  // Every churner plus the long-lived channel shares the system principal;
  // the per-principal quota is not what this soak exercises.
  options.max_channels_per_principal = 0;
  StatsService stats(&kernel, options);
  ASSERT_TRUE(stats.Install().ok());
  Subject system = kernel.SystemSubject();

  auto longlived = stats.Subscribe(system, -1);
  ASSERT_TRUE(longlived.ok());
  uint64_t baseline = stats.version();

  std::atomic<bool> stop{false};
  std::thread publisher([&] {
    while (!stop.load()) {
      Publish(kernel, stats);
      std::this_thread::yield();
    }
  });
  std::atomic<uint64_t> churn_subscribes{0};
  std::vector<std::thread> churners;
  for (int t = 0; t < 4; ++t) {
    churners.emplace_back([&] {
      Subject mine = kernel.SystemSubject();
      for (int round = 0; round < 15; ++round) {
        auto id = stats.Subscribe(mine, -1);
        ASSERT_TRUE(id.ok()) << id.status().ToString();
        churn_subscribes.fetch_add(1);
        uint64_t last_seen = 0;
        for (int polls = 0; polls < 4; ++polls) {
          auto epoch = stats.PollSubscription(mine, *id, MonotonicNowNs() + 50'000'000);
          if (!epoch.ok()) {
            break;  // deadline: the publisher was outpaced, fine
          }
          uint64_t version = DeliveredVersion(*epoch);
          EXPECT_GT(version, last_seen) << "epoch delivered twice (or reordered)";
          last_seen = version;
        }
        ASSERT_TRUE(stats.Unsubscribe(mine, *id).ok());
      }
    });
  }
  for (auto& churner : churners) {
    churner.join();
  }
  stop.store(true);
  publisher.join();

  // Drain the long-lived channel dry, still checking monotonicity.
  uint64_t drained = 0;
  uint64_t last_seen = baseline;
  for (;;) {
    auto epoch = stats.PollSubscription(system, *longlived, MonotonicNowNs() + 1);
    if (!epoch.ok()) {
      break;
    }
    uint64_t version = DeliveredVersion(*epoch);
    EXPECT_GT(version, last_seen);
    last_seen = version;
    ++drained;
  }
  uint64_t final_version = stats.version();
  ASSERT_GT(final_version, baseline);  // the storm published plenty
  // The channel never polled during the storm, so it ends holding the
  // newest epochs: at least one, at most a full queue.
  EXPECT_GE(drained, 1u);
  EXPECT_LE(drained, options.subscriber_queue_capacity);
  EXPECT_EQ(last_seen, final_version);
  auto dropped_text = stats.ReadStat(system, "/sys/monitor/subscribers/dropped");
  ASSERT_TRUE(dropped_text.ok()) << dropped_text.status().ToString();
  uint64_t dropped = std::stoull(*dropped_text);
  // Every epoch after the baseline reached the long-lived channel or was
  // counted dropped...
  EXPECT_GE(drained + dropped, final_version - baseline);
  // ...and no channel can drop more epochs than were published in its
  // lifetime.
  EXPECT_LE(dropped, (churn_subscribes.load() + 1) * (final_version - baseline));
  EXPECT_TRUE(stats.Unsubscribe(system, *longlived).ok());
}

// The Tick-fan-out vs GcChannelsFor race (the reaped-channel bugfix): a
// channel reaped between the publisher's registry scan and its delivery must
// not be delivered into a dead queue, and a Subscribe racing the reap
// registers atomically — it never fails and never leaves a name-space node
// behind. TSan-hammered.
TEST(SubscriptionConcurrencyTest, GcVersusSubscribeAndFanOutLeavesNoOrphans) {
  Kernel kernel;
  StatsServiceOptions options;
  options.epoch_interval_ns = 1'000'000;  // storm
  options.subscriber_queue_capacity = 2;
  options.max_subscribers = 64;
  options.max_channels_per_principal = 0;  // the reaper is the limit here
  StatsService stats(&kernel, options);
  ASSERT_TRUE(stats.Install().ok());
  PrincipalId principal = kernel.system_principal();
  size_t nodes = kernel.name_space().node_count();

  std::atomic<bool> stop{false};
  std::thread publisher([&] {
    while (!stop.load()) {
      Publish(kernel, stats);
      std::this_thread::yield();
    }
  });
  std::thread reaper([&] {
    while (!stop.load()) {
      (void)stats.GcChannelsFor(principal);
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> subscribers;
  for (int t = 0; t < 3; ++t) {
    subscribers.emplace_back([&] {
      Subject mine = kernel.SystemSubject();
      for (int round = 0; round < 40; ++round) {
        auto id = stats.Subscribe(mine, -1);
        // Registration is one sub_mu_ hold: the reaper can close the channel
        // afterwards, but Subscribe itself never reports a reap.
        ASSERT_NE(id.status().code(), StatusCode::kFailedPrecondition)
            << id.status().ToString();
        ASSERT_TRUE(id.ok()) << id.status().ToString();
        (void)stats.PollSubscription(mine, *id, MonotonicNowNs() + 2'000'000);
        // Unsubscribe may lose to the reaper; either way the channel dies.
        Status bye = stats.Unsubscribe(mine, *id);
        EXPECT_TRUE(bye.ok() || bye.code() == StatusCode::kNotFound)
            << bye.ToString();
      }
    });
  }
  for (auto& subscriber : subscribers) {
    subscriber.join();
  }
  stop.store(true);
  publisher.join();
  reaper.join();

  (void)stats.GcChannelsFor(principal);
  EXPECT_EQ(stats.active_subscribers(), 0u);
  EXPECT_EQ(kernel.name_space().node_count(), nodes);
}

}  // namespace
}  // namespace xsec
