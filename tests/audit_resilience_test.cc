// The self-healing audit pipeline (MODEL.md §12): ResilientSink's
// retry/backoff/circuit-breaker behavior, the /sys/monitor/audit health
// leaves, and the monitor's fail-closed vs fail-open contract when the sink
// is down.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>

#include "src/base/failpoint.h"
#include "src/core/secure_system.h"
#include "src/monitor/audit.h"

namespace xsec {
namespace {

// Microsecond backoffs and short reopen windows keep every test fast while
// still exercising the real schedule arithmetic.
ResilientSinkOptions FastOptions() {
  ResilientSinkOptions options;
  options.max_attempts = 2;
  options.backoff_initial_ns = 1'000;
  options.backoff_max_ns = 4'000;
  options.trip_after = 4;
  options.probe_after_ns = 2'000'000;  // 2 ms
  return options;
}

class AuditResilienceTest : public ::testing::Test {
 protected:
  void TearDown() override { FailpointRegistry::Instance().DisarmAll(); }
};

TEST_F(AuditResilienceTest, RetriesWithBackoffThenDelivers) {
  int calls = 0;
  ResilientSink sink(
      [&calls](const AuditRecord&) -> Status {
        return ++calls < 2 ? InternalError("flaky") : OkStatus();
      },
      FastOptions());
  sink.Write(AuditRecord{});
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(sink.written(), 1u);
  EXPECT_EQ(sink.retries(), 1u);
  EXPECT_EQ(sink.gave_up(), 0u);
  EXPECT_EQ(sink.state(), ResilientSink::State::kClosed);
}

TEST_F(AuditResilienceTest, SuccessResetsTheConsecutiveFailureBudget) {
  int calls = 0;
  // Fail every odd call: each record needs one retry, but the success always
  // lands before the trip budget (4) accumulates.
  ResilientSink sink(
      [&calls](const AuditRecord&) -> Status {
        return (++calls % 2 == 1) ? InternalError("flaky") : OkStatus();
      },
      FastOptions());
  for (int i = 0; i < 8; ++i) {
    sink.Write(AuditRecord{});
  }
  EXPECT_EQ(sink.written(), 8u);
  EXPECT_EQ(sink.retries(), 8u);
  EXPECT_EQ(sink.state(), ResilientSink::State::kClosed);
}

TEST_F(AuditResilienceTest, CircuitOpensAfterConsecutiveFailuresAndDropsFast) {
  int calls = 0;
  ResilientSinkOptions options = FastOptions();
  options.probe_after_ns = 60'000'000'000;  // never half-opens in this test
  ResilientSink sink([&calls](const AuditRecord&) -> Status {
    ++calls;
    return InternalError("sink is down");
  }, options);

  // Two records * max_attempts(2) = 4 consecutive failed attempts = trip_after.
  sink.Write(AuditRecord{});
  EXPECT_EQ(sink.state(), ResilientSink::State::kClosed);
  sink.Write(AuditRecord{});
  EXPECT_EQ(sink.state(), ResilientSink::State::kOpen);
  EXPECT_FALSE(sink.healthy());
  EXPECT_EQ(sink.gave_up(), 2u);
  EXPECT_EQ(sink.retries(), 2u);

  // Open circuit: records are dropped without touching the dead sink.
  int calls_before = calls;
  for (int i = 0; i < 5; ++i) {
    sink.Write(AuditRecord{});
  }
  EXPECT_EQ(calls, calls_before);
  EXPECT_EQ(sink.gave_up(), 7u);
  EXPECT_EQ(sink.retries(), 2u);
}

TEST_F(AuditResilienceTest, HalfOpenProbeRecloses) {
  bool down = true;
  ResilientSink sink(
      [&down](const AuditRecord&) -> Status {
        return down ? InternalError("sink is down") : OkStatus();
      },
      FastOptions());
  sink.Write(AuditRecord{});
  sink.Write(AuditRecord{});
  ASSERT_EQ(sink.state(), ResilientSink::State::kOpen);

  down = false;
  std::this_thread::sleep_for(std::chrono::milliseconds(3));
  sink.Write(AuditRecord{});  // the half-open probe
  EXPECT_EQ(sink.state(), ResilientSink::State::kClosed);
  EXPECT_EQ(sink.written(), 1u);
}

TEST_F(AuditResilienceTest, HalfOpenProbeFailureReopens) {
  ResilientSink sink([](const AuditRecord&) -> Status {
    return InternalError("sink is down");
  }, FastOptions());
  sink.Write(AuditRecord{});
  sink.Write(AuditRecord{});
  ASSERT_EQ(sink.state(), ResilientSink::State::kOpen);

  std::this_thread::sleep_for(std::chrono::milliseconds(3));
  uint64_t retries_before = sink.retries();
  sink.Write(AuditRecord{});  // probe: exactly one attempt, no retries
  EXPECT_EQ(sink.state(), ResilientSink::State::kOpen);
  EXPECT_EQ(sink.retries(), retries_before);
}

// The acceptance scenario: a persistently failing sink (via the
// audit.sink.write failpoint) trips the circuit; health surfaces through the
// audit log and the /sys/monitor leaves; required mode fail-closes Check
// with kAuditUnavailable; fail-open mode counts unaudited allows; healing
// the sink restores service, proving the transient denial was never cached.
TEST_F(AuditResilienceTest, FailClosedDegradationEndToEnd) {
  MonitorOptions options;
  options.audit_policy = AuditPolicy::kAll;
  options.audit_required = true;
  SecureSystem sys(options);
  AuditLog& audit = sys.monitor().audit();
  ASSERT_TRUE(audit.required());
  EXPECT_EQ(audit.sink_state(), "none");

  // A healthy inner sink behind the audit.sink.write failpoint.
  ResilientSinkOptions sink_options = FastOptions();
  auto sink = std::make_shared<ResilientSink>(
      [](const AuditRecord&) -> Status { return OkStatus(); }, sink_options);
  audit.InstallResilientSink(sink);
  EXPECT_EQ(audit.sink_state(), "closed");

  auto alice = sys.CreateUser("alice");
  ASSERT_TRUE(alice.ok());
  Subject alice_s = sys.Login(*alice, sys.labels().Bottom());
  NodeId file = *sys.name_space().BindPath("/fs/resilience", NodeKind::kFile,
                                           sys.system_principal());
  Acl acl;
  acl.AddEntry({AclEntryType::kAllow, *alice, AccessMode::kRead});
  (void)sys.name_space().SetAclRef(file, sys.kernel().acls().Create(std::move(acl)));

  // Healthy pipeline: the allow is audited and delivered.
  EXPECT_TRUE(sys.monitor().Check(alice_s, file, AccessMode::kRead).allowed);
  EXPECT_GE(sink->written(), 1u);

  // Kill the sink persistently. Each retained record burns max_attempts(2)
  // attempts, so two checks trip the 4-attempt budget.
  ASSERT_TRUE(
      FailpointRegistry::Instance().Arm("audit.sink.write", "error").ok());
  (void)sys.monitor().Check(alice_s, file, AccessMode::kRead);
  (void)sys.monitor().Check(alice_s, file, AccessMode::kRead);
  ASSERT_TRUE(audit.SinkTripped());
  EXPECT_EQ(audit.sink_state(), "open");
  EXPECT_GE(audit.sink_retries(), 2u);
  EXPECT_GE(audit.sink_gave_up(), 2u);

  // Required mode: a would-be allow now fail-closes with kAuditUnavailable.
  Decision denied = sys.monitor().Check(alice_s, file, AccessMode::kRead);
  EXPECT_FALSE(denied.allowed);
  EXPECT_EQ(denied.reason, DenyReason::kAuditUnavailable);

  // Real denials are unaffected — they were never allows to withhold.
  Decision still_denied = sys.monitor().Check(alice_s, file, AccessMode::kWrite);
  EXPECT_FALSE(still_denied.allowed);
  EXPECT_NE(still_denied.reason, DenyReason::kAuditUnavailable);

  // Fail-open mode: the allow proceeds and is counted as unaudited.
  audit.set_required(false);
  uint64_t unaudited_before = audit.unaudited_allows();
  EXPECT_TRUE(sys.monitor().Check(alice_s, file, AccessMode::kRead).allowed);
  EXPECT_GT(audit.unaudited_allows(), unaudited_before);

  // Heal the sink and wait out the reopen window. The next retained record
  // is the half-open probe: it recloses the circuit, and because the
  // fail-closed denial is applied after the cache (never stored), service
  // resumes immediately afterwards.
  audit.set_required(true);
  FailpointRegistry::Instance().DisarmAll();
  std::this_thread::sleep_for(std::chrono::milliseconds(3));
  (void)sys.monitor().Check(alice_s, file, AccessMode::kRead);  // probe carrier
  EXPECT_FALSE(audit.SinkTripped());
  EXPECT_EQ(audit.sink_state(), "closed");
  Decision healed = sys.monitor().Check(alice_s, file, AccessMode::kRead);
  EXPECT_TRUE(healed.allowed);
}

TEST_F(AuditResilienceTest, SinkHealthIsMountedInTheStatsTree) {
  SecureSystem sys;
  Subject system = sys.SystemSubject();
  auto state = sys.stats().ReadStat(system, "/sys/monitor/audit/sink_state");
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(*state, "none");

  ResilientSinkOptions options = FastOptions();
  options.probe_after_ns = 60'000'000'000;
  auto sink = std::make_shared<ResilientSink>(
      [](const AuditRecord&) -> Status { return InternalError("down"); }, options);
  sys.monitor().audit().InstallResilientSink(sink);
  state = sys.stats().ReadStat(system, "/sys/monitor/audit/sink_state");
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(*state, "closed");

  // Trip it: denials-only default policy, so use denied checks to generate
  // retained records.
  auto bob = sys.CreateUser("bob");
  ASSERT_TRUE(bob.ok());
  Subject bob_s = sys.Login(*bob, sys.labels().Bottom());
  for (int i = 0; i < 3; ++i) {
    (void)sys.monitor().CheckPath(bob_s, "/sys/monitor/snapshot", AccessMode::kWrite);
  }
  state = sys.stats().ReadStat(system, "/sys/monitor/audit/sink_state");
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(*state, "open");
  auto retries = sys.stats().ReadStat(system, "/sys/monitor/audit/retries");
  ASSERT_TRUE(retries.ok());
  EXPECT_GE(std::stoull(*retries), 2u);
  auto gave_up = sys.stats().ReadStat(system, "/sys/monitor/audit/gave_up");
  ASSERT_TRUE(gave_up.ok());
  EXPECT_GE(std::stoull(*gave_up), 2u);
}

TEST_F(AuditResilienceTest, RotationRenameFailureDegradesToTruncate) {
  std::string path = ::testing::TempDir() + "/resilience_rotate.ndjson";
  std::remove(path.c_str());
  std::remove((path + ".1").c_str());
  NdjsonRotationPolicy policy;
  policy.max_bytes = 1;  // rotate on every record
  policy.max_keep = 2;
  NdjsonFileRotator rotator(path, policy);
  ASSERT_TRUE(rotator.Open().ok());

  AuditRecord record;
  record.path = "/fs/x";
  rotator.Write(record);
  rotator.Write(record);  // normal rotation shifts to path.1
  EXPECT_EQ(rotator.rename_failures(), 0u);

  ASSERT_TRUE(
      FailpointRegistry::Instance().Arm("audit.rotate.rename", "error").ok());
  rotator.Write(record);  // rotation still happens, shift is skipped
  EXPECT_GE(rotator.rename_failures(), 1u);
  EXPECT_GE(rotator.rotations(), 2u);
  FailpointRegistry::Instance().DisarmAll();
  rotator.Write(record);  // and the rotator keeps writing afterwards
}

TEST_F(AuditResilienceTest, SyncSinkEmitsInExactSequenceOrder) {
  // The sync-mode ordering guarantee (docs/MODEL.md §11): with no async
  // drain running, the sink observes records in exactly their stamped
  // sequence order even when many threads record concurrently. Before the
  // fix, stamping and emission were separate critical sections, so two
  // racing recorders could emit out of order.
  AuditLog log;
  std::vector<uint64_t> emitted;
  log.set_sink([&emitted](const AuditRecord& record) {
    emitted.push_back(record.sequence);  // serialized by the log's sink mutex
  });
  log.set_policy(AuditPolicy::kAll);

  constexpr int kThreads = 8;
  constexpr int kPerThread = 400;
  std::vector<std::thread> recorders;
  recorders.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    recorders.emplace_back([&log, t] {
      for (int i = 0; i < kPerThread; ++i) {
        AuditRecord record;
        record.thread_id = static_cast<uint64_t>(t);
        record.allowed = (i % 2 == 0);
        record.reason = record.allowed ? DenyReason::kNone : DenyReason::kDacNoGrant;
        log.Record(std::move(record));
      }
    });
  }
  for (std::thread& t : recorders) {
    t.join();
  }

  ASSERT_EQ(emitted.size(), static_cast<size_t>(kThreads * kPerThread));
  for (size_t i = 1; i < emitted.size(); ++i) {
    ASSERT_EQ(emitted[i], emitted[i - 1] + 1)
        << "sync sink saw seq " << emitted[i] << " after " << emitted[i - 1];
  }
}

}  // namespace
}  // namespace xsec
