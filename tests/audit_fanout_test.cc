// Multi-sink sharded audit fan-out (AuditLog::AddSink/StartFanOut): lanes
// drain in parallel, each lane's stitcher hands records to its sink in exact
// global sequence order, backpressure and injected enqueue faults drop
// per-lane leaving gaps but never reorderings, and the memory-ring sink stays
// bounded. Rides in the --faults sweep (ci/run_checks.sh targets AuditFanOut).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/base/failpoint.h"
#include "src/monitor/audit.h"

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

// Requires strictly increasing sequences (the stitched-order proof at the
// observer's end) and returns them for gap analysis.
std::vector<uint64_t> SequencesInOrder(const std::vector<AuditRecord>& records) {
  std::vector<uint64_t> seqs;
  seqs.reserve(records.size());
  for (const AuditRecord& record : records) {
    if (!seqs.empty()) {
      EXPECT_GT(record.sequence, seqs.back())
          << "sink observed sequences out of order";
    }
    seqs.push_back(record.sequence);
  }
  return seqs;
}

TEST(AuditFanOutTest, EverySinkSeesEveryRecordInExactSequenceOrder) {
  AuditLog log;
  log.set_policy(AuditPolicy::kAll);
  auto ring_a = std::make_shared<AuditMemoryRing>(4096);
  auto ring_b = std::make_shared<AuditMemoryRing>(4096);
  log.AddSink("a", MakeMemoryRingSink(ring_a));
  log.AddSink("b", MakeMemoryRingSink(ring_b));
  AuditFanOutOptions options;
  options.shards = 4;
  log.StartFanOut(options);
  EXPECT_EQ(log.fanout_sinks(), 2u);

  constexpr int kRecords = 500;
  for (int i = 0; i < kRecords; ++i) {
    log.Record(MakeRecord(i % 3 != 0, i % 3 == 0 ? DenyReason::kDacNoGrant
                                                 : DenyReason::kNone));
  }
  log.StopFanOut();  // flush + join every lane

  for (const auto& ring : {ring_a, ring_b}) {
    std::vector<uint64_t> seqs = SequencesInOrder(ring->records());
    ASSERT_EQ(seqs.size(), static_cast<size_t>(kRecords));
    // No drops configured and capacity ample: the stream is gapless 0..N-1.
    EXPECT_EQ(seqs.front(), 0u);
    EXPECT_EQ(seqs.back(), static_cast<uint64_t>(kRecords - 1));
  }
  EXPECT_EQ(log.fanout_delivered(), 2u * kRecords);
  EXPECT_EQ(log.fanout_dropped(), 0u);
  EXPECT_EQ(log.fanout_stitch_violations(), 0u);
}

TEST(AuditFanOutTest, ConcurrentRecordersKeepEveryLaneInOrder) {
  AuditLog log(/*capacity=*/8192);
  log.set_policy(AuditPolicy::kAll);
  auto ring_a = std::make_shared<AuditMemoryRing>(8192);
  auto ring_b = std::make_shared<AuditMemoryRing>(8192);
  log.AddSink("a", MakeMemoryRingSink(ring_a));
  log.AddSink("b", MakeMemoryRingSink(ring_b));
  log.StartFanOut();

  std::vector<std::thread> recorders;
  for (int t = 0; t < 4; ++t) {
    recorders.emplace_back([&log] {
      for (int i = 0; i < 300; ++i) {
        log.Record(MakeRecord(false, DenyReason::kDacNoGrant));
      }
    });
  }
  for (auto& recorder : recorders) {
    recorder.join();
  }
  log.StopFanOut();
  for (const auto& ring : {ring_a, ring_b}) {
    std::vector<uint64_t> seqs = SequencesInOrder(ring->records());
    ASSERT_EQ(seqs.size(), 1200u);
  }
  EXPECT_EQ(log.fanout_stitch_violations(), 0u);
}

TEST(AuditFanOutTest, ASlowLaneDropsOnlyItselfAndStaysOrdered) {
  AuditLog log(/*capacity=*/8192);
  log.set_policy(AuditPolicy::kAll);
  auto fast = std::make_shared<AuditMemoryRing>(8192);
  auto slow = std::make_shared<AuditMemoryRing>(8192);
  log.AddSink("fast", MakeMemoryRingSink(fast));
  log.AddSink("slow", [slow](const AuditRecord& record) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    slow->Write(record);
  });
  AuditFanOutOptions options;
  options.shards = 2;
  // Headroom the fast lane never exhausts at the throttled record cadence,
  // small enough that the 1ms/record slow lane overflows well before the
  // stream ends.
  options.shard_queue_capacity = 64;
  log.StartFanOut(options);

  constexpr int kRecords = 400;
  for (int i = 0; i < kRecords; ++i) {
    log.Record(MakeRecord(false, DenyReason::kDacNoGrant));
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  log.StopFanOut();

  std::vector<AuditSinkLaneStats> lanes = log.FanOutStats();
  ASSERT_EQ(lanes.size(), 2u);
  const AuditSinkLaneStats& fast_lane = lanes[0].name == "fast" ? lanes[0] : lanes[1];
  const AuditSinkLaneStats& slow_lane = lanes[0].name == "slow" ? lanes[0] : lanes[1];
  // The fast lane never saturated: it delivered the full stream while the
  // slow lane shed — one wedged sink cannot starve the rest.
  EXPECT_EQ(fast_lane.delivered, static_cast<uint64_t>(kRecords));
  EXPECT_EQ(fast_lane.dropped, 0u);
  EXPECT_GT(slow_lane.dropped, 0u);
  EXPECT_EQ(slow_lane.delivered + slow_lane.dropped, static_cast<uint64_t>(kRecords));
  // Drops punch gaps in the slow lane's stream, never reorderings.
  std::vector<uint64_t> seqs = SequencesInOrder(slow->records());
  EXPECT_EQ(seqs.size(), slow_lane.delivered);
  EXPECT_EQ(log.fanout_stitch_violations(), 0u);
}

TEST(AuditFanOutTest, EnqueueFailpointDropsLeaveGapsWithOrderIntact) {
  AuditLog log;
  log.set_policy(AuditPolicy::kAll);
  auto ring = std::make_shared<AuditMemoryRing>(4096);
  log.AddSink("faulty", MakeMemoryRingSink(ring));
  log.StartFanOut();
  // Hits 50..69 fail to enqueue: a 20-record hole mid-stream.
  ASSERT_TRUE(FailpointRegistry::Instance()
                  .Arm("audit.fanout.enqueue", "error,nth=50,times=20")
                  .ok());
  constexpr int kRecords = 200;
  for (int i = 0; i < kRecords; ++i) {
    log.Record(MakeRecord(false, DenyReason::kDacNoGrant));
  }
  FailpointRegistry::Instance().DisarmAll();
  log.StopFanOut();

  std::vector<uint64_t> seqs = SequencesInOrder(ring->records());
  EXPECT_EQ(log.fanout_dropped(), 20u);
  EXPECT_EQ(seqs.size() + log.fanout_dropped(), static_cast<size_t>(kRecords));
  // Injected enqueue failures never corrupt the retained ring itself.
  EXPECT_EQ(log.records().size(), static_cast<size_t>(kRecords));
  EXPECT_EQ(log.fanout_stitch_violations(), 0u);
}

TEST(AuditFanOutTest, SinksCanBeAddedAndRemovedWhileRunning) {
  AuditLog log;
  log.set_policy(AuditPolicy::kAll);
  auto early = std::make_shared<AuditMemoryRing>(4096);
  uint64_t early_id = log.AddSink("early", MakeMemoryRingSink(early));
  log.StartFanOut();
  for (int i = 0; i < 50; ++i) {
    log.Record(MakeRecord(false, DenyReason::kDacNoGrant));
  }
  // A lane added while running starts draining at once — from here on, not
  // retroactively.
  auto late = std::make_shared<AuditMemoryRing>(4096);
  log.AddSink("late", MakeMemoryRingSink(late));
  for (int i = 0; i < 50; ++i) {
    log.Record(MakeRecord(false, DenyReason::kDacNoGrant));
  }
  // RemoveSink flushes the lane before unregistering it.
  ASSERT_TRUE(log.RemoveSink(early_id));
  EXPECT_EQ(early->total(), 100u);
  EXPECT_EQ(log.fanout_sinks(), 1u);
  for (int i = 0; i < 25; ++i) {
    log.Record(MakeRecord(false, DenyReason::kDacNoGrant));
  }
  log.StopFanOut();
  EXPECT_EQ(early->total(), 100u) << "a removed sink must see nothing further";
  EXPECT_EQ(late->total(), 75u);
  SequencesInOrder(late->records());
  EXPECT_FALSE(log.RemoveSink(early_id)) << "double remove";
  EXPECT_EQ(log.fanout_stitch_violations(), 0u);
}

TEST(AuditFanOutTest, NdjsonAndMemoryLanesObserveTheSameStream) {
  AuditLog log;
  log.set_policy(AuditPolicy::kAll);
  auto ring = std::make_shared<AuditMemoryRing>(4096);
  auto lines = std::make_shared<std::ostringstream>();
  log.AddSink("memory", MakeMemoryRingSink(ring));
  // The NDJSON lane shares the idiom of set_sink's MakeNdjsonSink: one JSON
  // object per line, written only from this lane's drainer thread.
  log.AddSink("ndjson", [lines](const AuditRecord& record) {
    *lines << record.ToJson() << "\n";
  });
  log.StartFanOut();
  for (int i = 0; i < 64; ++i) {
    log.Record(MakeRecord(i % 2 == 0, i % 2 == 0 ? DenyReason::kNone
                                                 : DenyReason::kMacFlow));
  }
  log.StopFanOut();
  size_t line_count = 0;
  std::string text = lines->str();
  for (char c : text) {
    line_count += c == '\n' ? 1 : 0;
  }
  EXPECT_EQ(line_count, 64u);
  EXPECT_EQ(ring->total(), 64u);
  EXPECT_NE(text.find("\"seq\":"), std::string::npos);
}

TEST(AuditFanOutTest, MemoryRingStaysBoundedOldestFirst) {
  AuditMemoryRing ring(8);
  for (int i = 0; i < 100; ++i) {
    AuditRecord record = MakeRecord(false, DenyReason::kDacNoGrant);
    record.sequence = static_cast<uint64_t>(i);
    ring.Write(record);
  }
  EXPECT_EQ(ring.size(), 8u);
  EXPECT_EQ(ring.total(), 100u);
  std::vector<AuditRecord> kept = ring.records();
  ASSERT_EQ(kept.size(), 8u);
  for (size_t i = 0; i < kept.size(); ++i) {
    EXPECT_EQ(kept[i].sequence, 92u + i);  // the newest 8, oldest first
  }
}

TEST(AuditFanOutTest, FlushWaitsOutEveryLane) {
  AuditLog log;
  log.set_policy(AuditPolicy::kAll);
  auto slow = std::make_shared<AuditMemoryRing>(4096);
  log.AddSink("slow", [slow](const AuditRecord& record) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    slow->Write(record);
  });
  AuditFanOutOptions options;
  options.shard_queue_capacity = 4096;  // nothing drops; Flush must wait
  log.StartFanOut(options);
  for (int i = 0; i < 100; ++i) {
    log.Record(MakeRecord(false, DenyReason::kDacNoGrant));
  }
  log.Flush();
  EXPECT_EQ(slow->total(), 100u);  // every record landed before Flush returned
  log.StopFanOut();
}

}  // namespace
}  // namespace xsec
