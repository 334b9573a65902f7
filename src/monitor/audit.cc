#include "src/monitor/audit.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ostream>
#include <thread>

#include "src/base/failpoint.h"
#include "src/base/strings.h"
#include "src/monitor/monitor_stats.h"

namespace xsec {

std::string_view DenyReasonName(DenyReason reason) {
  switch (reason) {
    case DenyReason::kNone:
      return "none";
    case DenyReason::kNotFound:
      return "not-found";
    case DenyReason::kTraversal:
      return "traversal";
    case DenyReason::kDacExplicitDeny:
      return "dac-explicit-deny";
    case DenyReason::kDacNoGrant:
      return "dac-no-grant";
    case DenyReason::kMacFlow:
      return "mac-flow";
    case DenyReason::kNotAuthorized:
      return "not-authorized";
    case DenyReason::kAuditUnavailable:
      return "audit-unavailable";
    case DenyReason::kQuarantined:
      return "quarantined";
  }
  return "unknown";
}

std::string AuditRecord::ToString() const {
  return StrFormat("#%llu p%u/t%llu %s %s -> %s%s%s",
                   static_cast<unsigned long long>(sequence), principal.value,
                   static_cast<unsigned long long>(thread_id), path.c_str(),
                   modes.ToString().c_str(), allowed ? "ALLOW" : "DENY",
                   allowed ? "" : StrFormat(" (%s)", std::string(DenyReasonName(reason)).c_str())
                                      .c_str(),
                   detail.empty() ? "" : StrFormat(" [%s]", detail.c_str()).c_str());
}

std::string AuditRecord::ToJson() const {
  return StrFormat(
      "{\"seq\":%llu,\"principal\":%u,\"thread\":%llu,\"node\":%u,\"path\":\"%s\","
      "\"modes\":\"%s\",\"allowed\":%s,\"reason\":\"%s\",\"detail\":\"%s\"}",
      static_cast<unsigned long long>(sequence), principal.value,
      static_cast<unsigned long long>(thread_id), node.value, JsonEscape(path).c_str(),
      modes.ToString().c_str(), allowed ? "true" : "false",
      std::string(DenyReasonName(reason)).c_str(), JsonEscape(detail).c_str());
}

std::function<void(const AuditRecord&)> MakeNdjsonSink(std::ostream* out) {
  return [out](const AuditRecord& record) { *out << record.ToJson() << '\n'; };
}

NdjsonFileRotator::NdjsonFileRotator(std::string path, NdjsonRotationPolicy policy)
    : path_(std::move(path)), policy_(policy) {}

NdjsonFileRotator::~NdjsonFileRotator() {
  if (out_ != nullptr) {
    std::fclose(out_);
  }
}

Status NdjsonFileRotator::Open() {
  if (out_ != nullptr) {
    std::fclose(out_);
    out_ = nullptr;
  }
  XSEC_FAILPOINT("audit.rotate.open");
  out_ = std::fopen(path_.c_str(), "w");
  if (out_ == nullptr) {
    return InternalError(StrFormat("cannot open '%s' for writing", path_.c_str()));
  }
  bytes_ = 0;
  opened_at_ns_ = MonotonicNowNs();
  return OkStatus();
}

void NdjsonFileRotator::RotateIfNeeded(size_t next_line_bytes) {
  bool over_size = policy_.max_bytes != 0 && bytes_ != 0 &&
                   bytes_ + next_line_bytes > policy_.max_bytes;
  bool over_age = policy_.max_age_ns != 0 && bytes_ != 0 &&
                  MonotonicNowNs() - opened_at_ns_ >= policy_.max_age_ns;
  if (!over_size && !over_age) {
    return;
  }
  std::fclose(out_);
  out_ = nullptr;
  if (policy_.max_keep > 0) {
    if (XSEC_FAILPOINT_FIRED("audit.rotate.rename")) {
      // A failed history rename degrades to truncate-in-place: the window
      // loses one file of history but writing never stops.
      ++rename_failures_;
    } else {
      // Shift the history window: drop the oldest, slide the rest up, then
      // move the just-closed file into the .1 position.
      std::remove(StrFormat("%s.%zu", path_.c_str(), policy_.max_keep).c_str());
      for (size_t k = policy_.max_keep; k > 1; --k) {
        std::rename(StrFormat("%s.%zu", path_.c_str(), k - 1).c_str(),
                    StrFormat("%s.%zu", path_.c_str(), k).c_str());
      }
      std::rename(path_.c_str(), StrFormat("%s.1", path_.c_str()).c_str());
    }
  }
  ++rotations_;
  (void)Open();  // max_keep == 0 lands here too: truncate in place
}

void NdjsonFileRotator::Write(const AuditRecord& record) {
  if (out_ == nullptr) {
    return;  // Open() failed or was never called; drop rather than crash
  }
  std::string line = record.ToJson();
  line += '\n';
  RotateIfNeeded(line.size());
  if (out_ == nullptr) {
    return;  // reopen after rotation failed
  }
  // Disk-full simulation point: an armed `audit.ndjson.write` takes zero
  // bytes, like a device with no space left; a real short fwrite lands in
  // the same recovery path below.
  size_t wrote = XSEC_FAILPOINT_FIRED("audit.ndjson.write")
                     ? 0
                     : std::fwrite(line.data(), 1, line.size(), out_);
  if (wrote != line.size()) {
    // Short write: truncate the torn suffix back off so the file ends on
    // the last complete line (bytes_ is the pre-write size, which is by
    // construction a whole-line boundary), then drop this record from
    // export. The in-memory ring still retains it.
    ++write_failures_;
    std::fflush(out_);
    (void)ftruncate(fileno(out_), static_cast<off_t>(bytes_));
    std::fseek(out_, static_cast<long>(bytes_), SEEK_SET);
    return;
  }
  std::fflush(out_);
  bytes_ += line.size();
}

std::function<void(const AuditRecord&)> MakeRotatingNdjsonSink(
    std::shared_ptr<NdjsonFileRotator> rotator) {
  return [rotator](const AuditRecord& record) { rotator->Write(record); };
}

std::function<Status(const AuditRecord&)> MakeRotatingNdjsonFallibleSink(
    std::shared_ptr<NdjsonFileRotator> rotator) {
  // Sink invocations are externally serialized (AuditLog's contract), so the
  // before/after failure-counter delta unambiguously belongs to this write.
  return [rotator](const AuditRecord& record) -> Status {
    uint64_t failures_before = rotator->write_failures();
    rotator->Write(record);
    if (rotator->write_failures() != failures_before) {
      return ResourceExhaustedError("ndjson write failed (disk full?)");
    }
    return OkStatus();
  };
}

ResilientSink::ResilientSink(FallibleSink inner, ResilientSinkOptions options)
    : inner_(std::move(inner)), options_(options), rng_(options.rng_seed) {
  if (options_.max_attempts < 1) {
    options_.max_attempts = 1;
  }
  if (options_.trip_after < 1) {
    options_.trip_after = 1;
  }
}

std::string_view ResilientSink::StateName(State state) {
  switch (state) {
    case State::kClosed:
      return "closed";
    case State::kOpen:
      return "open";
    case State::kHalfOpen:
      return "half-open";
  }
  return "unknown";
}

Status ResilientSink::TryOnce(const AuditRecord& record) {
  XSEC_FAILPOINT("audit.sink.write");
  return inner_(record);
}

void ResilientSink::Write(const AuditRecord& record) {
  State entered = state();
  if (entered == State::kOpen) {
    if (options_.reopen_after_ns == 0 ||
        MonotonicNowNs() - opened_at_ns_ < options_.reopen_after_ns) {
      // Circuit open: drop immediately, never touch the dead sink. The ring
      // still retains the record; only export is lost.
      gave_up_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    entered = State::kHalfOpen;
    state_.store(entered, std::memory_order_relaxed);
  }
  // Half-open gets exactly one probe; closed gets the full retry budget.
  const int attempts = entered == State::kHalfOpen ? 1 : options_.max_attempts;
  uint64_t backoff_ns = options_.backoff_initial_ns;
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      retries_.fetch_add(1, std::memory_order_relaxed);
      uint64_t jitter = backoff_ns * options_.jitter_pct / 100;
      uint64_t sleep_ns =
          backoff_ns - jitter + (jitter != 0 ? rng_.NextBelow(2 * jitter + 1) : 0);
      if (sleep_ns != 0) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(sleep_ns));
      }
      backoff_ns = std::min(backoff_ns * 2, options_.backoff_max_ns);
    }
    if (TryOnce(record).ok()) {
      consecutive_failures_ = 0;
      written_.fetch_add(1, std::memory_order_relaxed);
      if (entered == State::kHalfOpen) {
        state_.store(State::kClosed, std::memory_order_relaxed);
      }
      return;
    }
    ++consecutive_failures_;
  }
  gave_up_.fetch_add(1, std::memory_order_relaxed);
  if (entered == State::kHalfOpen || consecutive_failures_ >= options_.trip_after) {
    opened_at_ns_ = MonotonicNowNs();
    state_.store(State::kOpen, std::memory_order_relaxed);
  }
}

// One fan-out lane: a registered sink, its sharded queues, and the drainer
// that stitches the shards back into global sequence order. `mu` guards the
// queue state; the counters are atomics so gauge reads never touch a lane
// lock; last_emitted_seq/emitted_any are drainer-thread-only. Lock order is
// always AuditLog::mu_ → lane->mu; no path holds a lane lock while taking
// another lane's (lanes are independent by design).
struct AuditLog::SinkLane {
  uint64_t id = 0;
  std::string name;
  Sink sink;

  std::mutex mu;
  std::condition_variable cv;       // wakes the lane drainer
  std::condition_variable idle_cv;  // wakes Flush waiters
  // Records are shared immutable copies: one allocation per record serves
  // every lane, and a pop is a pointer move.
  std::vector<std::deque<std::shared_ptr<const AuditRecord>>> shards;
  size_t shard_capacity = 0;
  size_t queued = 0;  // records across all shards
  bool stop = false;
  bool running = false;
  bool busy = false;  // the drainer is mid-sink-call outside mu
  std::thread drainer;

  std::atomic<uint64_t> delivered{0};
  std::atomic<uint64_t> dropped{0};
  // Emissions whose sequence did not strictly increase. The stitched order
  // is proven, not assumed: this stays 0 in a correct run and tests/CI pin
  // it there.
  std::atomic<uint64_t> stitch_violations{0};
  uint64_t last_emitted_seq = 0;
  bool emitted_any = false;
};

void AuditLog::EnqueueFanOutLocked(const AuditRecord& record) {
  if (!fanout_running_ || lanes_.empty()) {
    return;
  }
  std::shared_ptr<const AuditRecord> shared;  // built lazily, shared by lanes
  for (const std::shared_ptr<SinkLane>& lane : lanes_) {
    std::lock_guard<std::mutex> lock(lane->mu);
    if (!lane->running || lane->stop) {
      continue;
    }
    std::deque<std::shared_ptr<const AuditRecord>>& shard =
        lane->shards[record.sequence % lane->shards.size()];
    // Failpoint first, so an injected enqueue failure is exercised even when
    // the shard has room (mirrors audit.drain.enqueue). A drop leaves a gap
    // in THIS lane's stream, never a reordering.
    if (XSEC_FAILPOINT_FIRED("audit.fanout.enqueue") ||
        shard.size() >= lane->shard_capacity) {
      lane->dropped.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    if (shared == nullptr) {
      shared = std::make_shared<const AuditRecord>(record);
    }
    shard.push_back(shared);
    ++lane->queued;
    lane->cv.notify_one();
  }
}

void AuditLog::LaneLoop(SinkLane* lane) {
  std::unique_lock<std::mutex> lock(lane->mu);
  for (;;) {
    lane->cv.wait(lock, [lane] { return lane->stop || lane->queued > 0; });
    if (lane->queued == 0) {
      return;  // stop requested and every shard drained
    }
    // The stitcher: pop the minimum-sequence shard head. Enqueues happen
    // inside the log's stamping critical section, so pushes arrive in
    // strictly increasing global sequence order across shards — the minimum
    // head IS the globally next queued record, and an empty shard can only
    // ever receive a larger sequence later. Drops create gaps, which the
    // minimum still steps over in order.
    std::deque<std::shared_ptr<const AuditRecord>>* best = nullptr;
    for (auto& shard : lane->shards) {
      if (shard.empty()) {
        continue;
      }
      if (best == nullptr ||
          shard.front()->sequence < best->front()->sequence) {
        best = &shard;
      }
    }
    std::shared_ptr<const AuditRecord> record = std::move(best->front());
    best->pop_front();
    --lane->queued;
    lane->busy = true;
    lock.unlock();
    if (lane->emitted_any && record->sequence <= lane->last_emitted_seq) {
      lane->stitch_violations.fetch_add(1, std::memory_order_relaxed);
    }
    lane->last_emitted_seq = record->sequence;
    lane->emitted_any = true;
    lane->sink(*record);  // outside mu: a slow sink throttles only this lane
    lane->delivered.fetch_add(1, std::memory_order_relaxed);
    lock.lock();
    lane->busy = false;
    if (lane->queued == 0) {
      lane->idle_cv.notify_all();
    }
  }
}

void AuditLog::StartLaneLocked(const std::shared_ptr<SinkLane>& lane) {
  {
    std::lock_guard<std::mutex> lock(lane->mu);
    lane->shards.assign(fanout_options_.shards, {});
    lane->shard_capacity = fanout_options_.shard_queue_capacity;
    lane->queued = 0;
    lane->stop = false;
    lane->running = true;
    lane->emitted_any = false;
  }
  // Raw pointer is safe: the joining side (StopFanOut/RemoveSink) holds a
  // shared_ptr across the join, so the lane outlives its drainer.
  lane->drainer = std::thread([this, raw = lane.get()] { LaneLoop(raw); });
}

uint64_t AuditLog::AddSink(std::string name, Sink sink) {
  auto lane = std::make_shared<SinkLane>();
  lane->name = std::move(name);
  lane->sink = std::move(sink);
  std::lock_guard<std::mutex> lock(mu_);
  lane->id = next_lane_id_++;
  lanes_.push_back(lane);
  if (fanout_running_) {
    StartLaneLocked(lane);
  }
  return lane->id;
}

bool AuditLog::RemoveSink(uint64_t id) {
  std::shared_ptr<SinkLane> lane;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = lanes_.begin(); it != lanes_.end(); ++it) {
      if ((*it)->id == id) {
        lane = *it;
        lanes_.erase(it);
        break;
      }
    }
  }
  if (lane == nullptr) {
    return false;
  }
  // Unregistered (no new enqueues can reach it) — flush and join.
  {
    std::lock_guard<std::mutex> lock(lane->mu);
    lane->stop = true;
  }
  lane->cv.notify_all();
  if (lane->drainer.joinable()) {
    lane->drainer.join();
  }
  return true;
}

void AuditLog::StartFanOut(AuditFanOutOptions options) {
  std::lock_guard<std::mutex> lock(mu_);
  if (fanout_running_) {
    return;
  }
  if (options.shards == 0) {
    options.shards = 1;
  }
  if (options.shard_queue_capacity == 0) {
    options.shard_queue_capacity = 1;
  }
  fanout_options_ = options;
  fanout_running_ = true;
  for (const std::shared_ptr<SinkLane>& lane : lanes_) {
    StartLaneLocked(lane);
  }
}

void AuditLog::StopFanOut() {
  std::vector<std::shared_ptr<SinkLane>> lanes;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!fanout_running_) {
      return;
    }
    fanout_running_ = false;
    lanes = lanes_;  // lanes stay registered; only the drainers stop
  }
  for (const std::shared_ptr<SinkLane>& lane : lanes) {
    {
      std::lock_guard<std::mutex> lock(lane->mu);
      lane->stop = true;
    }
    lane->cv.notify_all();
    if (lane->drainer.joinable()) {
      lane->drainer.join();  // the drainer flushes its shards before exiting
    }
    std::lock_guard<std::mutex> lock(lane->mu);
    lane->running = false;
  }
}

size_t AuditLog::fanout_sinks() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lanes_.size();
}

uint64_t AuditLog::fanout_delivered() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (const std::shared_ptr<SinkLane>& lane : lanes_) {
    total += lane->delivered.load(std::memory_order_relaxed);
  }
  return total;
}

uint64_t AuditLog::fanout_dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (const std::shared_ptr<SinkLane>& lane : lanes_) {
    total += lane->dropped.load(std::memory_order_relaxed);
  }
  return total;
}

uint64_t AuditLog::fanout_stitch_violations() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (const std::shared_ptr<SinkLane>& lane : lanes_) {
    total += lane->stitch_violations.load(std::memory_order_relaxed);
  }
  return total;
}

std::vector<AuditSinkLaneStats> AuditLog::FanOutStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<AuditSinkLaneStats> out;
  out.reserve(lanes_.size());
  for (const std::shared_ptr<SinkLane>& lane : lanes_) {
    AuditSinkLaneStats stats;
    stats.id = lane->id;
    stats.name = lane->name;
    stats.delivered = lane->delivered.load(std::memory_order_relaxed);
    stats.dropped = lane->dropped.load(std::memory_order_relaxed);
    stats.stitch_violations =
        lane->stitch_violations.load(std::memory_order_relaxed);
    out.push_back(std::move(stats));
  }
  return out;
}

AuditMemoryRing::AuditMemoryRing(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

void AuditMemoryRing::Write(const AuditRecord& record) {
  std::lock_guard<std::mutex> lock(mu_);
  if (ring_.size() >= capacity_) {
    ring_.pop_front();
  }
  ring_.push_back(record);
  ++total_;
}

std::vector<AuditRecord> AuditMemoryRing::records() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::vector<AuditRecord>(ring_.begin(), ring_.end());
}

uint64_t AuditMemoryRing::total() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_;
}

size_t AuditMemoryRing::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.size();
}

std::function<void(const AuditRecord&)> MakeMemoryRingSink(
    std::shared_ptr<AuditMemoryRing> ring) {
  return [ring](const AuditRecord& record) { ring->Write(record); };
}

void AuditLog::RingInsertLocked(AuditRecord record) {
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(record));
  } else if (capacity_ > 0) {
    // Full: overwrite the oldest record (at head_) and advance.
    ring_[head_] = std::move(record);
    head_ = (head_ + 1) % capacity_;
    dropped_.fetch_add(1, std::memory_order_relaxed);
  } else {
    dropped_.fetch_add(1, std::memory_order_relaxed);
  }
}

void AuditLog::Record(AuditRecord record) {
  Count(record.allowed);
  if (!WouldRetain(record.allowed)) {
    return;
  }
  // Sequence-order fix: when the sink runs synchronously (no drain), acquire
  // sink_mu_ BEFORE stamping, so the stamp and the sink call form one
  // critical section and two racing recorders cannot stamp in one order and
  // emit in the other. The drained path gets the same guarantee from
  // enqueueing inside the stamping critical section below.
  std::unique_lock<std::mutex> serialize(sink_mu_, std::defer_lock);
  if (sync_sink_active_.load(std::memory_order_acquire)) {
    serialize.lock();
  }
  std::shared_ptr<const Sink> sink;
  AuditRecord for_sink;
  {
    std::lock_guard<std::mutex> lock(mu_);
    record.sequence = next_sequence_++;
    // Fan-out enqueue shares the stamping critical section, so every lane's
    // shard queues see pushes in strictly increasing global sequence order —
    // the invariant the lane stitcher relies on.
    EnqueueFanOutLocked(record);
    if (sink_ != nullptr) {
      if (drain_running_) {
        // Only enqueue under mu_; the drainer does the sink I/O. Enqueueing
        // in the same critical section that stamps the sequence is what
        // keeps drained output exactly sequence-ordered. The failpoint is
        // evaluated first so an injected enqueue failure (or latency — it
        // runs under mu_, deliberately stalling recorders like a contended
        // queue would) is exercised even when the queue has room.
        if (XSEC_FAILPOINT_FIRED("audit.drain.enqueue") ||
            drain_queue_.size() >= drain_options_.queue_capacity) {
          sink_dropped_.fetch_add(1, std::memory_order_relaxed);
        } else {
          drain_queue_.push_back(record);
          drain_cv_.notify_one();
        }
      } else {
        sink = sink_;     // invoke outside the lock, on a copy
        for_sink = record;
      }
    }
    RingInsertLocked(std::move(record));
  }
  if (sink != nullptr) {
    // Recorders are never blocked on file I/O while holding the ring mutex;
    // they may still wait on each other (sink_mu_), which is what the async
    // drain removes entirely. A sink installed between the pre-check above
    // and here is serialized late (that one racing record may emit out of
    // order; sinks are setup-time by contract).
    if (!serialize.owns_lock()) {
      serialize.lock();
    }
    (*sink)(for_sink);
  }
}

void AuditLog::set_sink(Sink sink) {
  std::lock_guard<std::mutex> lock(mu_);
  sink_ = sink ? std::make_shared<const Sink>(std::move(sink)) : nullptr;
  UpdateSyncModeLocked();
}

void AuditLog::InstallResilientSink(std::shared_ptr<ResilientSink> sink) {
  std::lock_guard<std::mutex> lock(mu_);
  resilient_ = sink;
  // Publish the health pointer before the sink can be invoked; release
  // pairs with the acquire in SinkTripped.
  resilient_raw_.store(sink.get(), std::memory_order_release);
  sink_ = sink != nullptr
              ? std::make_shared<const Sink>(
                    [sink](const AuditRecord& record) { sink->Write(record); })
              : nullptr;
  UpdateSyncModeLocked();
}

std::string AuditLog::sink_state() const {
  const ResilientSink* sink = resilient_raw_.load(std::memory_order_acquire);
  if (sink == nullptr) {
    return "none";
  }
  return std::string(ResilientSink::StateName(sink->state()));
}

uint64_t AuditLog::sink_retries() const {
  const ResilientSink* sink = resilient_raw_.load(std::memory_order_acquire);
  return sink == nullptr ? 0 : sink->retries();
}

uint64_t AuditLog::sink_gave_up() const {
  const ResilientSink* sink = resilient_raw_.load(std::memory_order_acquire);
  return sink == nullptr ? 0 : sink->gave_up();
}

void AuditLog::StartDrain(AuditDrainOptions options) {
  std::lock_guard<std::mutex> lock(mu_);
  if (drain_running_) {
    return;
  }
  if (options.queue_capacity == 0) {
    options.queue_capacity = 1;
  }
  drain_options_ = options;
  drain_stop_ = false;
  drain_running_ = true;
  UpdateSyncModeLocked();
  drainer_ = std::thread([this] { DrainLoop(); });
}

void AuditLog::DrainLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    drain_cv_.wait(lock, [this] { return drain_stop_ || !drain_queue_.empty(); });
    if (drain_queue_.empty()) {
      return;  // stop requested and nothing left to flush
    }
    std::deque<AuditRecord> batch;
    batch.swap(drain_queue_);
    std::shared_ptr<const Sink> sink = sink_;
    drain_busy_ = true;
    lock.unlock();
    if (sink != nullptr) {
      std::lock_guard<std::mutex> serialize(sink_mu_);
      for (const AuditRecord& record : batch) {
        (*sink)(record);
      }
    }
    lock.lock();
    drain_busy_ = false;
    if (drain_queue_.empty()) {
      drain_idle_cv_.notify_all();
    }
  }
}

void AuditLog::StopDrain() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!drain_running_) {
      return;
    }
    drain_stop_ = true;
  }
  drain_cv_.notify_all();
  drainer_.join();  // the drainer flushes the queue before exiting
  std::lock_guard<std::mutex> lock(mu_);
  drain_running_ = false;
  drain_stop_ = false;
  UpdateSyncModeLocked();
}

void AuditLog::Flush() {
  // Latency-injection point for flush-path tests (arm with sleep=...; an
  // error spec counts a fire but flush still proceeds — flush is not
  // allowed to fail, only to be slow).
  (void)XSEC_FAILPOINT_FIRED("audit.sink.flush");
  std::vector<std::shared_ptr<SinkLane>> lanes;
  {
    std::unique_lock<std::mutex> lock(mu_);
    drain_idle_cv_.wait(lock, [this] { return drain_queue_.empty() && !drain_busy_; });
    lanes = lanes_;
  }
  // Wait out every fan-out lane too: a lane drainer empties its shards before
  // exiting, so "queued == 0 and not mid-sink-call" means fully flushed.
  for (const std::shared_ptr<SinkLane>& lane : lanes) {
    std::unique_lock<std::mutex> lock(lane->mu);
    lane->idle_cv.wait(lock,
                       [&lane] { return lane->queued == 0 && !lane->busy; });
  }
  // Wait out any sink call currently in flight (sync recorder or drainer).
  std::lock_guard<std::mutex> serialize(sink_mu_);
}

template <typename Visit>
void AuditLog::ForEachLocked(Visit visit) const {
  for (size_t i = head_; i < ring_.size(); ++i) {
    visit(ring_[i]);
  }
  for (size_t i = 0; i < head_; ++i) {
    visit(ring_[i]);
  }
}

size_t AuditLog::retained() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.size();
}

std::vector<AuditRecord> AuditLog::records() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<AuditRecord> out;
  out.reserve(ring_.size());
  ForEachLocked([&out](const AuditRecord& r) { out.push_back(r); });
  return out;
}

std::vector<AuditRecord> AuditLog::Query(
    const std::function<bool(const AuditRecord&)>& pred) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<AuditRecord> out;
  ForEachLocked([&out, &pred](const AuditRecord& r) {
    if (pred(r)) {
      out.push_back(r);
    }
  });
  return out;
}

void AuditLog::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.clear();
  head_ = 0;
  // next_sequence_ deliberately survives: resetting it would reissue ids
  // already written to rotated NDJSON files, breaking dedup by `seq`.
  total_checks_.store(0, std::memory_order_relaxed);
  total_denials_.store(0, std::memory_order_relaxed);
  dropped_.store(0, std::memory_order_relaxed);
  sink_dropped_.store(0, std::memory_order_relaxed);
}

}  // namespace xsec
