#include "src/monitor/audit.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

namespace xsec {
namespace {

AuditRecord MakeRecord(bool allowed, DenyReason reason = DenyReason::kNone) {
  AuditRecord r;
  r.principal = PrincipalId{1};
  r.thread_id = 7;
  r.node = NodeId{3};
  r.path = "/svc/fs/read";
  r.modes = AccessMode::kExecute;
  r.allowed = allowed;
  r.reason = reason;
  return r;
}

TEST(AuditLogTest, DefaultPolicyRetainsDenialsOnly) {
  AuditLog log;
  EXPECT_EQ(log.policy(), AuditPolicy::kDenialsOnly);
  log.Record(MakeRecord(true));
  log.Record(MakeRecord(false, DenyReason::kDacNoGrant));
  EXPECT_EQ(log.records().size(), 1u);
  EXPECT_FALSE(log.records().front().allowed);
  EXPECT_EQ(log.total_checks(), 2u);
  EXPECT_EQ(log.total_denials(), 1u);
}

TEST(AuditLogTest, PolicyAllRetainsEverything) {
  AuditLog log;
  log.set_policy(AuditPolicy::kAll);
  log.Record(MakeRecord(true));
  log.Record(MakeRecord(false, DenyReason::kMacFlow));
  EXPECT_EQ(log.records().size(), 2u);
}

TEST(AuditLogTest, PolicyOffRetainsNothingButCounts) {
  AuditLog log;
  log.set_policy(AuditPolicy::kOff);
  log.Record(MakeRecord(false, DenyReason::kMacFlow));
  EXPECT_TRUE(log.records().empty());
  EXPECT_EQ(log.total_checks(), 1u);
  EXPECT_EQ(log.total_denials(), 1u);
}

TEST(AuditLogTest, WouldRetainMatchesPolicy) {
  AuditLog log;
  log.set_policy(AuditPolicy::kOff);
  EXPECT_FALSE(log.WouldRetain(true));
  EXPECT_FALSE(log.WouldRetain(false));
  log.set_policy(AuditPolicy::kDenialsOnly);
  EXPECT_FALSE(log.WouldRetain(true));
  EXPECT_TRUE(log.WouldRetain(false));
  log.set_policy(AuditPolicy::kAll);
  EXPECT_TRUE(log.WouldRetain(true));
  EXPECT_TRUE(log.WouldRetain(false));
}

TEST(AuditLogTest, SequenceNumbersAreMonotonic) {
  AuditLog log;
  log.set_policy(AuditPolicy::kAll);
  for (int i = 0; i < 5; ++i) {
    log.Record(MakeRecord(true));
  }
  uint64_t prev = 0;
  bool first = true;
  for (const AuditRecord& r : log.records()) {
    if (!first) {
      EXPECT_EQ(r.sequence, prev + 1);
    }
    prev = r.sequence;
    first = false;
  }
}

TEST(AuditLogTest, CapacityEvictsOldest) {
  AuditLog log(3);
  log.set_policy(AuditPolicy::kAll);
  for (int i = 0; i < 5; ++i) {
    log.Record(MakeRecord(true));
  }
  EXPECT_EQ(log.records().size(), 3u);
  EXPECT_EQ(log.dropped(), 2u);
  EXPECT_EQ(log.records().front().sequence, 2u);
}

TEST(AuditLogTest, SinkSeesRetainedRecords) {
  AuditLog log;
  log.set_policy(AuditPolicy::kDenialsOnly);
  int seen = 0;
  log.set_sink([&seen](const AuditRecord& r) {
    ++seen;
    EXPECT_FALSE(r.allowed);
  });
  log.Record(MakeRecord(true));
  log.Record(MakeRecord(false, DenyReason::kMacFlow));
  EXPECT_EQ(seen, 1);
}

TEST(AuditLogTest, QueryFilters) {
  AuditLog log;
  log.set_policy(AuditPolicy::kAll);
  log.Record(MakeRecord(true));
  log.Record(MakeRecord(false, DenyReason::kMacFlow));
  log.Record(MakeRecord(false, DenyReason::kDacNoGrant));
  auto flow = log.Query(
      [](const AuditRecord& r) { return r.reason == DenyReason::kMacFlow; });
  EXPECT_EQ(flow.size(), 1u);
}

TEST(AuditLogTest, ClearResetsEverything) {
  AuditLog log;
  log.set_policy(AuditPolicy::kAll);
  log.Record(MakeRecord(false, DenyReason::kMacFlow));
  log.Clear();
  EXPECT_TRUE(log.records().empty());
  EXPECT_EQ(log.total_checks(), 0u);
  EXPECT_EQ(log.total_denials(), 0u);
}

TEST(AuditLogTest, ClearKeepsSequenceNumbersMonotone) {
  AuditLog log;
  log.set_policy(AuditPolicy::kAll);
  log.Record(MakeRecord(true));
  log.Record(MakeRecord(true));
  uint64_t last_before = log.records().back().sequence;
  log.Clear();
  log.Record(MakeRecord(true));
  // Sequences already exported (e.g. into a rotated NDJSON file) must never
  // be reused: records after a Clear continue the numbering, so `seq` keeps
  // identifying each decision uniquely across rotations.
  EXPECT_GT(log.records().front().sequence, last_before);
}

TEST(AuditLogTest, SinkRunsOutsideTheRingLock) {
  AuditLog log;
  log.set_policy(AuditPolicy::kAll);
  size_t retained_during_sink = 0;
  // A sink that calls back into the log would self-deadlock if Record still
  // invoked it under the ring mutex.
  log.set_sink([&](const AuditRecord&) { retained_during_sink = log.retained(); });
  log.Record(MakeRecord(true));
  EXPECT_EQ(retained_during_sink, 1u);
}

TEST(AuditLogTest, DrainDeliversEveryRecordInSequenceOrder) {
  AuditLog log;
  log.set_policy(AuditPolicy::kAll);
  std::vector<uint64_t> seen;
  log.set_sink([&](const AuditRecord& r) { seen.push_back(r.sequence); });
  log.StartDrain();
  for (int i = 0; i < 100; ++i) {
    log.Record(MakeRecord(i % 2 == 0));
  }
  log.StopDrain();  // flushes the queue before joining
  ASSERT_EQ(seen.size(), 100u);
  EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));
  EXPECT_EQ(seen.front(), 0u);
  EXPECT_EQ(seen.back(), 99u);
  EXPECT_EQ(log.sink_dropped(), 0u);
}

TEST(AuditLogTest, FlushWaitsForTheQueueToDrain) {
  AuditLog log;
  log.set_policy(AuditPolicy::kAll);
  std::atomic<int> delivered{0};
  log.set_sink([&](const AuditRecord&) { delivered.fetch_add(1); });
  log.StartDrain();
  for (int i = 0; i < 50; ++i) {
    log.Record(MakeRecord(true));
  }
  log.Flush();
  EXPECT_EQ(delivered.load(), 50);
  log.StopDrain();
}

TEST(AuditLogTest, FullDrainQueueDropsFromTheSinkNotTheRing) {
  AuditLog log;
  log.set_policy(AuditPolicy::kAll);
  std::atomic<bool> release{false};
  std::atomic<int> delivered{0};
  log.set_sink([&](const AuditRecord&) {
    while (!release.load()) {
      std::this_thread::yield();  // wedge the drainer mid-record
    }
    delivered.fetch_add(1);
  });
  AuditDrainOptions options;
  options.queue_capacity = 4;
  log.StartDrain(options);
  log.Record(MakeRecord(true));
  // Whether the drainer is already stuck in the sink or has not woken yet,
  // at most queue_capacity of these can be queued; the rest must shed.
  for (int i = 0; i < 32; ++i) {
    log.Record(MakeRecord(true));
  }
  release.store(true);
  log.StopDrain();
  // Every record is still in the ring; only sink delivery was shed.
  EXPECT_EQ(log.retained(), 33u);
  EXPECT_GT(log.sink_dropped(), 0u);
  EXPECT_EQ(static_cast<uint64_t>(delivered.load()) + log.sink_dropped(), 33u);
}

TEST(AuditLogTest, ConcurrentRecordersUnderTheDrainKeepEveryCounter) {
  AuditLog log;
  log.set_policy(AuditPolicy::kAll);
  std::atomic<int> delivered{0};
  log.set_sink([&](const AuditRecord&) { delivered.fetch_add(1); });
  log.StartDrain();
  constexpr int kThreads = 4;
  constexpr int kPerThread = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&log] {
      for (int i = 0; i < kPerThread; ++i) {
        log.Record(MakeRecord(true));
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  log.StopDrain();
  EXPECT_EQ(log.total_checks(), static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(static_cast<uint64_t>(delivered.load()) + log.sink_dropped(),
            static_cast<uint64_t>(kThreads * kPerThread));
}

TEST(AuditRecordTest, ToStringContainsKeyFields) {
  AuditRecord r = MakeRecord(false, DenyReason::kMacFlow);
  r.sequence = 12;
  std::string text = r.ToString();
  EXPECT_NE(text.find("/svc/fs/read"), std::string::npos);
  EXPECT_NE(text.find("DENY"), std::string::npos);
  EXPECT_NE(text.find("mac-flow"), std::string::npos);
  EXPECT_NE(text.find("execute"), std::string::npos);
}

TEST(DenyReasonTest, NamesAreStable) {
  EXPECT_EQ(DenyReasonName(DenyReason::kNone), "none");
  EXPECT_EQ(DenyReasonName(DenyReason::kDacExplicitDeny), "dac-explicit-deny");
  EXPECT_EQ(DenyReasonName(DenyReason::kMacFlow), "mac-flow");
  EXPECT_EQ(DenyReasonName(DenyReason::kTraversal), "traversal");
}

TEST(AuditRecordTest, ToJsonEmitsOneWellFormedObject) {
  AuditRecord r = MakeRecord(false, DenyReason::kMacFlow);
  r.sequence = 42;
  r.detail = "write of level-1 violates flow";
  std::string json = r.ToJson();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_EQ(json.find('\n'), std::string::npos);  // NDJSON: one line
  EXPECT_NE(json.find("\"seq\":42"), std::string::npos);
  EXPECT_NE(json.find("\"path\":\"/svc/fs/read\""), std::string::npos);
  EXPECT_NE(json.find("\"allowed\":false"), std::string::npos);
  EXPECT_NE(json.find("\"reason\":\"mac-flow\""), std::string::npos);
  EXPECT_NE(json.find("\"modes\":\"execute\""), std::string::npos);
}

TEST(AuditRecordTest, ToJsonEscapesStringFields) {
  AuditRecord r = MakeRecord(false, DenyReason::kDacNoGrant);
  r.path = "/odd/\"quoted\"\\path";
  r.detail = "line\nbreak\tand control \x01";
  std::string json = r.ToJson();
  EXPECT_EQ(json.find('\n'), std::string::npos);
  EXPECT_NE(json.find("\\\"quoted\\\""), std::string::npos);
  EXPECT_NE(json.find("\\\\path"), std::string::npos);
  EXPECT_NE(json.find("\\n"), std::string::npos);
  EXPECT_NE(json.find("\\t"), std::string::npos);
  EXPECT_NE(json.find("\\u0001"), std::string::npos);
}

TEST(AuditLogTest, NdjsonSinkStreamsEveryRetainedRecord) {
  AuditLog log;
  log.set_policy(AuditPolicy::kAll);
  std::ostringstream out;
  log.set_sink(MakeNdjsonSink(&out));
  log.Record(MakeRecord(true));
  log.Record(MakeRecord(false, DenyReason::kMacFlow));
  std::string text = out.str();
  // Two records, one JSON object per line.
  size_t lines = static_cast<size_t>(std::count(text.begin(), text.end(), '\n'));
  EXPECT_EQ(lines, 2u);
  EXPECT_NE(text.find("\"allowed\":true"), std::string::npos);
  EXPECT_NE(text.find("\"reason\":\"mac-flow\""), std::string::npos);
}

TEST(AuditLogTest, NdjsonSinkSeesOnlyWhatThePolicyRetains) {
  AuditLog log;  // default: denials only
  std::ostringstream out;
  log.set_sink(MakeNdjsonSink(&out));
  log.Record(MakeRecord(true));
  log.Record(MakeRecord(false, DenyReason::kDacNoGrant));
  std::string text = out.str();
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 1);
  EXPECT_EQ(text.find("\"allowed\":true"), std::string::npos);
}

TEST(AuditLogTest, RetainedGaugeCountsWithoutCopying) {
  AuditLog log(4);
  log.set_policy(AuditPolicy::kAll);
  EXPECT_EQ(log.retained(), 0u);
  for (int i = 0; i < 3; ++i) {
    log.Record(MakeRecord(true));
  }
  EXPECT_EQ(log.retained(), 3u);
  for (int i = 0; i < 10; ++i) {  // ring caps at capacity
    log.Record(MakeRecord(false, DenyReason::kMacFlow));
  }
  EXPECT_EQ(log.retained(), 4u);
  log.Clear();
  EXPECT_EQ(log.retained(), 0u);
}

class NdjsonRotationTest : public ::testing::Test {
 protected:
  NdjsonRotationTest() {
    base_ = ::testing::TempDir() + "/xsec_rotate_" +
            std::to_string(reinterpret_cast<uintptr_t>(this)) + ".ndjson";
    CleanUp();
  }
  ~NdjsonRotationTest() override { CleanUp(); }

  void CleanUp() {
    std::remove(base_.c_str());
    for (int k = 1; k <= 8; ++k) {
      std::remove((base_ + "." + std::to_string(k)).c_str());
    }
  }

  static bool Exists(const std::string& path) {
    std::ifstream in(path);
    return in.good();
  }

  static size_t FileBytes(const std::string& path) {
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    return in.good() ? static_cast<size_t>(in.tellg()) : 0;
  }

  std::string base_;
};

TEST_F(NdjsonRotationTest, RotatesBySizeAndShiftsHistory) {
  size_t line_bytes = MakeRecord(false, DenyReason::kMacFlow).ToJson().size() + 1;
  NdjsonRotationPolicy policy;
  policy.max_bytes = 2 * line_bytes;  // two records per file
  policy.max_keep = 2;
  NdjsonFileRotator rotator(base_, policy);
  ASSERT_TRUE(rotator.Open().ok());
  for (int i = 0; i < 7; ++i) {
    rotator.Write(MakeRecord(false, DenyReason::kMacFlow));
  }
  // 7 records at 2 per file: two full files rotated out, one live record.
  EXPECT_EQ(rotator.rotations(), 3u);
  EXPECT_TRUE(Exists(base_));
  EXPECT_TRUE(Exists(base_ + ".1"));
  EXPECT_TRUE(Exists(base_ + ".2"));
  EXPECT_FALSE(Exists(base_ + ".3"));  // history is bounded at max_keep
  EXPECT_EQ(FileBytes(base_), line_bytes);
  EXPECT_EQ(FileBytes(base_ + ".1"), 2 * line_bytes);
  // Every file holds whole NDJSON lines (no mid-record splits).
  EXPECT_EQ(FileBytes(base_ + ".2"), 2 * line_bytes);
}

TEST_F(NdjsonRotationTest, ZeroKeepTruncatesInPlace) {
  size_t line_bytes = MakeRecord(false).ToJson().size() + 1;
  NdjsonRotationPolicy policy;
  policy.max_bytes = line_bytes;  // one record per file
  policy.max_keep = 0;
  NdjsonFileRotator rotator(base_, policy);
  ASSERT_TRUE(rotator.Open().ok());
  for (int i = 0; i < 4; ++i) {
    rotator.Write(MakeRecord(false));
  }
  EXPECT_EQ(rotator.rotations(), 3u);
  EXPECT_EQ(FileBytes(base_), line_bytes);
  EXPECT_FALSE(Exists(base_ + ".1"));
}

TEST_F(NdjsonRotationTest, RotatesByAge) {
  NdjsonRotationPolicy policy;
  policy.max_age_ns = 1;  // any nonzero delay between writes exceeds this
  policy.max_keep = 1;
  NdjsonFileRotator rotator(base_, policy);
  ASSERT_TRUE(rotator.Open().ok());
  rotator.Write(MakeRecord(false));
  rotator.Write(MakeRecord(false));  // the file is already over-age
  EXPECT_GE(rotator.rotations(), 1u);
  EXPECT_TRUE(Exists(base_ + ".1"));
}

TEST_F(NdjsonRotationTest, WorksAsAnAuditLogSink) {
  AuditLog log;
  size_t line_bytes = MakeRecord(false, DenyReason::kDacNoGrant).ToJson().size() + 1;
  NdjsonRotationPolicy policy;
  policy.max_bytes = 2 * line_bytes;
  policy.max_keep = 3;
  auto rotator = std::make_shared<NdjsonFileRotator>(base_, policy);
  ASSERT_TRUE(rotator->Open().ok());
  log.set_sink(MakeRotatingNdjsonSink(rotator));
  for (int i = 0; i < 5; ++i) {
    log.Record(MakeRecord(false, DenyReason::kDacNoGrant));
  }
  EXPECT_EQ(rotator->rotations(), 2u);
  EXPECT_TRUE(Exists(base_));
  EXPECT_TRUE(Exists(base_ + ".1"));
  // The sequence numbers the log stamped survive in the rotated files.
  std::ifstream rotated(base_ + ".1");
  std::string line;
  ASSERT_TRUE(std::getline(rotated, line));
  EXPECT_NE(line.find("\"seq\":"), std::string::npos);
}

}  // namespace
}  // namespace xsec
