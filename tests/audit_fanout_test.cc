// Audit delivery to many sinks (AuditLog::AddSink, StartDrain): every sink is
// a cursor over one sequence-ordered log, sinks drain in parallel, each is
// handed records in exact global sequence order, lag and injected delivery
// faults drop per sink leaving gaps but never reorderings, and the
// memory-ring sink stays bounded. Rides in the --faults sweep
// (ci/run_checks.sh targets AuditFanOut).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/base/failpoint.h"
#include "src/base/rng.h"
#include "src/core/secure_system.h"
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

// Requires strictly increasing sequences (the ordering proof at the
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
  log.StartDrain();
  EXPECT_EQ(log.sinks(), 2u);

  constexpr int kRecords = 500;
  for (int i = 0; i < kRecords; ++i) {
    log.Record(MakeRecord(i % 3 != 0, i % 3 == 0 ? DenyReason::kDacNoGrant
                                                 : DenyReason::kNone));
  }
  log.StopDrain();  // final pass + join every delivery thread

  for (const auto& ring : {ring_a, ring_b}) {
    std::vector<uint64_t> seqs = SequencesInOrder(ring->records());
    ASSERT_EQ(seqs.size(), static_cast<size_t>(kRecords));
    // No drops configured and capacity ample: the stream is gapless 0..N-1.
    EXPECT_EQ(seqs.front(), 0u);
    EXPECT_EQ(seqs.back(), static_cast<uint64_t>(kRecords - 1));
  }
  EXPECT_EQ(log.delivered(), 2u * kRecords);
  EXPECT_EQ(log.sink_dropped(), 0u);
}

TEST(AuditFanOutTest, ConcurrentRecordersKeepEveryLaneInOrder) {
  AuditLog log(/*capacity=*/8192);
  log.set_policy(AuditPolicy::kAll);
  auto ring_a = std::make_shared<AuditMemoryRing>(8192);
  auto ring_b = std::make_shared<AuditMemoryRing>(8192);
  log.AddSink("a", MakeMemoryRingSink(ring_a));
  log.AddSink("b", MakeMemoryRingSink(ring_b));
  log.StartDrain();

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
  log.StopDrain();
  for (const auto& ring : {ring_a, ring_b}) {
    std::vector<uint64_t> seqs = SequencesInOrder(ring->records());
    ASSERT_EQ(seqs.size(), 1200u);
  }
}

TEST(AuditFanOutTest, ASlowLaneDropsOnlyItselfAndStaysOrdered) {
  // Declared before the log so it outlives every sink call.
  std::atomic<bool> stream_recorded{false};
  AuditLog log(/*capacity=*/8192);
  log.set_policy(AuditPolicy::kAll);
  auto fast = std::make_shared<AuditMemoryRing>(8192);
  auto slow = std::make_shared<AuditMemoryRing>(8192);
  log.AddSink("fast", MakeMemoryRingSink(fast));
  log.AddSink("slow", [slow, &stream_recorded](const AuditRecord& record) {
    // Wedged until the whole stream is recorded, so it falls more than the
    // log's capacity behind however the threads are scheduled.
    while (!stream_recorded.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    slow->Write(record);
  });
  AuditDrainOptions options;
  // Headroom the fast sink never exhausts at the throttled record cadence,
  // small enough that the wedged slow sink falls behind it well before the
  // stream ends.
  options.queue_capacity = 128;
  log.StartDrain(options);

  constexpr int kRecords = 400;
  for (int i = 0; i < kRecords; ++i) {
    log.Record(MakeRecord(false, DenyReason::kDacNoGrant));
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  stream_recorded = true;
  log.StopDrain();

  std::vector<AuditSinkStats> lanes = log.SinkStats();
  ASSERT_EQ(lanes.size(), 2u);
  const AuditSinkStats& fast_lane = lanes[0].name == "fast" ? lanes[0] : lanes[1];
  const AuditSinkStats& slow_lane = lanes[0].name == "slow" ? lanes[0] : lanes[1];
  // The fast sink never fell behind: it was handed the full stream while
  // the slow sink shed — one wedged sink cannot starve the rest.
  EXPECT_EQ(fast_lane.delivered, static_cast<uint64_t>(kRecords));
  EXPECT_EQ(fast_lane.dropped, 0u);
  EXPECT_GT(slow_lane.dropped, 0u);
  EXPECT_EQ(slow_lane.delivered + slow_lane.dropped, static_cast<uint64_t>(kRecords));
  // Drops punch gaps in the slow sink's stream, never reorderings.
  std::vector<uint64_t> seqs = SequencesInOrder(slow->records());
  EXPECT_EQ(seqs.size(), slow_lane.delivered);
}

TEST(AuditFanOutTest, EnqueueFailpointDropsLeaveGapsWithOrderIntact) {
  AuditLog log;
  log.set_policy(AuditPolicy::kAll);
  auto ring = std::make_shared<AuditMemoryRing>(4096);
  log.AddSink("faulty", MakeMemoryRingSink(ring));
  log.StartDrain();
  // Hits 50..69 skip the sink: a 20-record hole mid-stream.
  ASSERT_TRUE(FailpointRegistry::Instance()
                  .Arm("audit.sink.deliver", "error,nth=50,times=20")
                  .ok());
  constexpr int kRecords = 200;
  for (int i = 0; i < kRecords; ++i) {
    log.Record(MakeRecord(false, DenyReason::kDacNoGrant));
  }
  log.Flush();  // the failpoint is evaluated at delivery, so deliver first
  FailpointRegistry::Instance().DisarmAll();
  log.StopDrain();

  std::vector<uint64_t> seqs = SequencesInOrder(ring->records());
  EXPECT_EQ(log.sink_dropped(), 20u);
  EXPECT_EQ(seqs.size() + log.sink_dropped(), static_cast<size_t>(kRecords));
  // Injected delivery failures never corrupt the retained ring itself.
  EXPECT_EQ(log.records().size(), static_cast<size_t>(kRecords));
}

TEST(AuditFanOutTest, SinksCanBeAddedAndRemovedWhileRunning) {
  AuditLog log;
  log.set_policy(AuditPolicy::kAll);
  auto early = std::make_shared<AuditMemoryRing>(4096);
  uint64_t early_id = log.AddSink("early", MakeMemoryRingSink(early));
  log.StartDrain();
  for (int i = 0; i < 50; ++i) {
    log.Record(MakeRecord(false, DenyReason::kDacNoGrant));
  }
  // A sink added while running is owed records from here on, not
  // retroactively.
  auto late = std::make_shared<AuditMemoryRing>(4096);
  log.AddSink("late", MakeMemoryRingSink(late));
  for (int i = 0; i < 50; ++i) {
    log.Record(MakeRecord(false, DenyReason::kDacNoGrant));
  }
  // RemoveSink hands the sink everything it is owed before returning.
  ASSERT_TRUE(log.RemoveSink(early_id));
  EXPECT_EQ(early->total(), 100u);
  EXPECT_EQ(log.sinks(), 1u);
  for (int i = 0; i < 25; ++i) {
    log.Record(MakeRecord(false, DenyReason::kDacNoGrant));
  }
  log.StopDrain();
  EXPECT_EQ(early->total(), 100u) << "a removed sink must see nothing further";
  EXPECT_EQ(late->total(), 75u);
  SequencesInOrder(late->records());
  EXPECT_FALSE(log.RemoveSink(early_id)) << "double remove";
}

TEST(AuditFanOutTest, NdjsonAndMemoryLanesObserveTheSameStream) {
  AuditLog log;
  log.set_policy(AuditPolicy::kAll);
  auto ring = std::make_shared<AuditMemoryRing>(4096);
  auto lines = std::make_shared<std::ostringstream>();
  log.AddSink("memory", MakeMemoryRingSink(ring));
  // The NDJSON sink shares the idiom of set_sink's MakeNdjsonSink: one JSON
  // object per line, written only from this sink's delivery thread.
  log.AddSink("ndjson", [lines](const AuditRecord& record) {
    *lines << record.ToJson() << "\n";
  });
  log.StartDrain();
  for (int i = 0; i < 64; ++i) {
    log.Record(MakeRecord(i % 2 == 0, i % 2 == 0 ? DenyReason::kNone
                                                 : DenyReason::kMacFlow));
  }
  log.StopDrain();
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
  AuditDrainOptions options;
  options.queue_capacity = 4096;  // nothing drops; Flush must wait
  log.StartDrain(options);
  for (int i = 0; i < 100; ++i) {
    log.Record(MakeRecord(false, DenyReason::kDacNoGrant));
  }
  log.Flush();
  EXPECT_EQ(slow->total(), 100u);  // every record landed before Flush returned
  log.StopDrain();
}

// Everything one sink was handed, in order. Calls to one sink are
// serialized by the log, and the test reads it only after Flush, StopDrain
// or RemoveSink, each of which orders it after the calls.
struct SeenSink {
  std::vector<uint64_t> seqs;

  AuditLog::Sink AsSink(const std::shared_ptr<SeenSink>& self) {
    return [self](const AuditRecord& record) { self->seqs.push_back(record.sequence); };
  }
};

// Requires `seqs` to be consecutive (strictly increasing with no gaps).
void ExpectConsecutive(const std::vector<uint64_t>& seqs, const std::string& who) {
  for (size_t i = 1; i < seqs.size(); ++i) {
    ASSERT_EQ(seqs[i], seqs[i - 1] + 1) << who << " at index " << i;
  }
}

// Sink churn under load: 4 recorders against AddSink/RemoveSink and
// set_sink swaps, StartDrain/StopDrain toggles and Flush. The delivery log
// holds every record of the run, so no sink can lose one: each sink must see
// a gapless, strictly increasing run, the chain of set_sink sinks must
// split the whole stream between them with nothing lost or repeated, and
// the counters must match what the sinks saw. Run under TSan by
// ci/run_checks.sh --faults.
TEST(AuditFanOutTest, SinkChurnKeepsEverySinkOrderedAndAccounted) {
  constexpr int kRecorders = 4;
  constexpr int kMaxPerRecorder = 12000;
  // Recorders stop once the churn has run this many rounds (or at the cap).
  constexpr int kRounds = 40;
  AuditLog log;
  log.set_policy(AuditPolicy::kAll);
  AuditDrainOptions options;
  options.queue_capacity = 1 << 16;  // larger than the run: nothing drops
  log.StartDrain(options);

  auto witness = std::make_shared<SeenSink>();
  uint64_t witness_id = log.AddSink("witness", witness->AsSink(witness));
  std::vector<std::shared_ptr<SeenSink>> chain{std::make_shared<SeenSink>()};
  log.set_sink(chain.back()->AsSink(chain.back()));

  std::atomic<int> churned{0};
  std::atomic<int> toggled{0};
  std::atomic<int> recording{kRecorders};
  std::vector<std::thread> threads;
  for (int t = 0; t < kRecorders; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kMaxPerRecorder && (churned.load() < kRounds ||
                                              toggled.load() < kRounds);
           ++i) {
        log.Record(MakeRecord(false, DenyReason::kDacNoGrant));
      }
      recording.fetch_sub(1);
    });
  }
  std::vector<std::shared_ptr<SeenSink>> removed;
  std::thread churn([&] {
    std::vector<std::pair<uint64_t, std::shared_ptr<SeenSink>>> added;
    for (int round = 0; recording.load() > 0; ++round) {
      chain.push_back(std::make_shared<SeenSink>());
      log.set_sink(chain.back()->AsSink(chain.back()));
      auto extra = std::make_shared<SeenSink>();
      added.emplace_back(log.AddSink("extra" + std::to_string(round), extra->AsSink(extra)),
                         extra);
      if (added.size() > 2) {
        EXPECT_TRUE(log.RemoveSink(added.front().first));
        removed.push_back(added.front().second);
        added.erase(added.begin());
      }
      churned.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    for (auto& [id, sink] : added) {
      EXPECT_TRUE(log.RemoveSink(id));
      removed.push_back(sink);
    }
  });
  std::thread toggler([&] {
    while (recording.load() > 0) {
      log.StopDrain();
      std::this_thread::sleep_for(std::chrono::microseconds(300));
      log.StartDrain(options);
      toggled.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::microseconds(300));
    }
  });
  std::thread flusher([&] {
    while (recording.load() > 0) {
      log.Flush();
      std::this_thread::yield();
    }
  });
  for (std::thread& thread : threads) {
    thread.join();
  }
  churn.join();
  toggler.join();
  flusher.join();
  log.Flush();
  log.StopDrain();

  const uint64_t total = log.total_denials();  // every record is a denial
  ASSERT_GT(total, 0u);
  EXPECT_EQ(log.sink_dropped(), 0u);
  ASSERT_EQ(witness->seqs.size(), total);
  ExpectConsecutive(witness->seqs, "witness");
  EXPECT_EQ(witness->seqs.front(), 0u);
  for (size_t i = 0; i < removed.size(); ++i) {
    ExpectConsecutive(removed[i]->seqs, "removed sink " + std::to_string(i));
  }
  // The set_sink chain splits the stream: every record went to exactly one
  // link, in order.
  std::vector<uint64_t> chained;
  for (const auto& link : chain) {
    chained.insert(chained.end(), link->seqs.begin(), link->seqs.end());
  }
  ASSERT_EQ(chained.size(), total);
  ExpectConsecutive(chained, "set_sink chain");
  // The two sinks still registered: their counters match what they saw.
  std::vector<AuditSinkStats> stats = log.SinkStats();
  ASSERT_EQ(stats.size(), 2u);
  for (const AuditSinkStats& sink : stats) {
    const SeenSink& seen = sink.id == witness_id ? *witness : *chain.back();
    EXPECT_EQ(sink.delivered, seen.seqs.size()) << sink.name;
    EXPECT_EQ(sink.dropped, 0u) << sink.name;
  }
  EXPECT_EQ(log.delivered(), total + chain.back()->seqs.size());
}

// The seeded CheckPath workload tools/xsec_stats runs: a reader allowed to
// read and write eight files, an outsider allowed nowhere, and a secret
// nobody may touch.
void RunStatsWorkload(SecureSystem& sys, uint64_t seed, uint64_t checks) {
  PrincipalId reader = *sys.CreateUser("reader");
  PrincipalId outsider = *sys.CreateUser("outsider");
  std::vector<std::string> paths;
  for (int i = 0; i < 8; ++i) {
    std::string path = "/fs/w" + std::to_string(i);
    NodeId node = *sys.name_space().BindPath(path, NodeKind::kFile, sys.system_principal());
    Acl acl;
    acl.AddEntry({AclEntryType::kAllow, reader, AccessMode::kRead | AccessMode::kWrite});
    (void)sys.name_space().SetAclRef(node, sys.kernel().acls().Create(std::move(acl)));
    paths.push_back(std::move(path));
  }
  NodeId secret =
      *sys.name_space().BindPath("/fs/secret", NodeKind::kFile, sys.system_principal());
  (void)sys.name_space().SetAclRef(secret, sys.kernel().acls().Create(Acl()));
  paths.push_back("/fs/secret");
  Subject reader_s = sys.Login(reader, sys.labels().Bottom());
  Subject outsider_s = sys.Login(outsider, sys.labels().Bottom());
  Rng rng(seed);
  for (uint64_t i = 0; i < checks; ++i) {
    Subject& subject = rng.NextBool(1, 2) ? reader_s : outsider_s;
    size_t target = rng.NextBelow(paths.size());
    AccessMode mode = rng.NextBool(1, 4) ? AccessMode::kWrite : AccessMode::kRead;
    (void)sys.monitor().CheckPath(subject, paths[target], mode);
  }
}

// One delivery configuration's output: each sink's NDJSON stream, plus its
// counters and the denials retained while it was registered.
struct DeliveryRun {
  std::vector<std::string> ndjson;
  std::vector<AuditSinkStats> stats;
  uint64_t retained_denials = 0;
};

DeliveryRun RunDelivery(int sinks, bool drain) {
  std::vector<std::shared_ptr<std::ostringstream>> streams;  // outlive sys
  SecureSystem sys;
  AuditLog& audit = sys.monitor().audit();
  uint64_t denials_before = audit.total_denials();
  for (int i = 0; i < sinks; ++i) {
    streams.push_back(std::make_shared<std::ostringstream>());
    if (i == 0) {
      audit.set_sink(MakeNdjsonSink(streams.back().get()));
    } else {
      audit.AddSink("ndjson" + std::to_string(i), MakeNdjsonSink(streams.back().get()));
    }
  }
  if (drain) {
    audit.StartDrain();
  }
  RunStatsWorkload(sys, /*seed=*/7, /*checks=*/2000);
  audit.Flush();
  audit.StopDrain();
  DeliveryRun run;
  for (const auto& stream : streams) {
    run.ndjson.push_back(stream->str());
  }
  run.stats = audit.SinkStats();
  run.retained_denials = audit.total_denials() - denials_before;
  return run;
}

// The sequence numbers of an NDJSON stream, in stream order.
std::vector<uint64_t> NdjsonSequences(const std::string& text) {
  std::vector<uint64_t> seqs;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    size_t at = line.find("\"seq\":");
    EXPECT_NE(at, std::string::npos) << line;
    if (at != std::string::npos) {
      seqs.push_back(std::strtoull(line.c_str() + at + 6, nullptr, 10));
    }
  }
  return seqs;
}

// Equivalence oracle for the delivery modes: the same seeded workload,
// delivered on the recording thread or by the drain, to one sink or three,
// must produce byte-identical NDJSON from every sink, in strictly
// increasing sequence order, with every retained denial either delivered or
// counted as dropped.
TEST(AuditFanOutTest, RecorderAndDrainDeliveryAreByteIdentical) {
  const DeliveryRun reference = RunDelivery(/*sinks=*/1, /*drain=*/false);
  ASSERT_EQ(reference.ndjson.size(), 1u);
  ASSERT_FALSE(reference.ndjson[0].empty());
  for (int sinks : {1, 3}) {
    for (bool drain : {false, true}) {
      SCOPED_TRACE("sinks=" + std::to_string(sinks) + " drain=" + std::to_string(drain));
      const DeliveryRun run = RunDelivery(sinks, drain);
      ASSERT_EQ(run.ndjson.size(), static_cast<size_t>(sinks));
      ASSERT_EQ(run.stats.size(), static_cast<size_t>(sinks));
      for (const std::string& ndjson : run.ndjson) {
        EXPECT_EQ(ndjson, reference.ndjson[0]);
        std::vector<uint64_t> seqs = NdjsonSequences(ndjson);
        for (size_t i = 1; i < seqs.size(); ++i) {
          ASSERT_GT(seqs[i], seqs[i - 1]);
        }
      }
      for (const AuditSinkStats& stats : run.stats) {
        EXPECT_EQ(stats.delivered + stats.dropped, run.retained_denials) << stats.name;
      }
    }
  }
}

}  // namespace
}  // namespace xsec
