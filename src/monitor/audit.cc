#include "src/monitor/audit.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ostream>
#include <thread>
#include <utility>

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
  ++rotations_;  // Write reopens the file (max_keep == 0: truncate in place)
}

void NdjsonFileRotator::Write(const AuditRecord& record) {
  std::string line = record.ToJson();
  line += '\n';
  if (out_ != nullptr) {
    RotateIfNeeded(line.size());
  }
  if (out_ == nullptr && !Open().ok()) {
    // No file to write to (a failed open or reopen after rotation): drop the
    // line as a write failure, so a fallible sink reports it, and retry the
    // open on the next write.
    ++write_failures_;
    return;
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
    // export. The log's ring still retains it.
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
}

void ResilientSink::Write(const AuditRecord& record) {
  // The clock matters only to an open breaker's dwell.
  const uint64_t now = breaker_.closed() ? 0 : MonotonicNowNs();
  const CircuitBreaker::Admission admission = breaker_.Admit(options_, now);
  if (admission == CircuitBreaker::Admission::kRejected) {
    // Circuit open: drop immediately, never touch the dead sink. The ring
    // still retains the record; only export is lost.
    gave_up_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // Half-open gets exactly one probe; closed gets the full retry budget.
  const bool probe = admission == CircuitBreaker::Admission::kProbe;
  const int attempts = probe ? 1 : options_.max_attempts;
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
    if (!XSEC_FAILPOINT_FIRED("audit.sink.write") && inner_(record).ok()) {
      breaker_.RecordSuccess(probe);
      written_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    if (breaker_.RecordFailure(options_, probe, MonotonicNowNs()) !=
        CircuitBreaker::Transition::kNone) {
      break;  // the circuit opened: stop retrying a dead sink
    }
  }
  gave_up_.fetch_add(1, std::memory_order_relaxed);
}

// A registered sink and its cursor into the ring. `mu` serializes delivery
// to this sink and guards `batch`; `next` advances only under it, and is
// atomic so other cursors' deliveries and the delivery thread's wake
// predicate can read it under AuditLog::mu_. `end` is written under
// AuditLog::mu_ and atomic so Flush can read it under `mu`; `stop` is
// guarded by AuditLog::mu_ and `thread` by AuditLog::ctl_mu_.
struct AuditLog::Cursor {
  uint64_t id = 0;
  std::string name;
  Sink sink;

  std::mutex mu;
  std::condition_variable advanced;  // wakes Flush waiters
  std::atomic<uint64_t> next{0};     // the next sequence this sink is owed
  std::vector<RecordPtr> batch;      // records gathered for the sink

  // One past the last sequence owed, once removed.
  std::atomic<uint64_t> end{UINT64_MAX};
  bool stop = false;  // the delivery thread's final pass is due
  std::thread thread;

  std::atomic<uint64_t> delivered{0};
  std::atomic<uint64_t> dropped{0};
};

void AuditLog::Record(AuditRecord record) {
  if (!WouldRetain(record.allowed)) {
    return;
  }
  // The one allocation the record lives in, made before taking mu_.
  auto stored = std::make_shared<AuditRecord>(std::move(record));
  RecordPtr evicted;  // destroyed after mu_ is released
  std::shared_ptr<const CursorList> deliver;
  bool wake = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stored->sequence = next_sequence_++;
    if (!stored->allowed) {
      total_denials_.fetch_add(1, std::memory_order_relaxed);
    }
    evicted = std::exchange(ring_[stored->sequence % ring_.size()], std::move(stored));
    if (!cursors_->empty()) {
      if (draining_) {
        // A lingering delivery thread finds this record on its next poll
        // unprompted; only a parked one needs the wake. So does a backlog
        // of half the ring behind the slowest cursor, so that a burst
        // cannot overrun the ring between two polls.
        wake = parked_ > 0 || next_sequence_ - slowest_ >= ring_.size() / 2;
      } else {
        deliver = cursors_;
      }
    }
  }
  if (wake) {
    work_cv_.notify_all();
  } else if (deliver != nullptr) {
    for (const std::shared_ptr<Cursor>& cursor : *deliver) {
      Deliver(cursor.get());
    }
  }
}

uint64_t AuditLog::GatherLocked(Cursor* cursor) {
  uint64_t next = cursor->next.load(std::memory_order_relaxed);
  uint64_t head = std::min(next_sequence_, cursor->end.load(std::memory_order_relaxed));
  // Records older than the ring's window were overwritten before this sink
  // reached them.
  uint64_t oldest = std::min(OldestLocked(), head);
  if (next < oldest) {
    cursor->dropped.fetch_add(oldest - next, std::memory_order_relaxed);
    next = oldest;
  }
  for (uint64_t seq = next; seq < head; ++seq) {
    cursor->batch.push_back(ring_[seq % ring_.size()]);
  }
  uint64_t slowest = head;
  for (const std::shared_ptr<Cursor>& other : *cursors_) {
    if (other.get() != cursor) {
      slowest = std::min(slowest, other->next.load(std::memory_order_relaxed));
    }
  }
  slowest_ = std::max(slowest_, slowest);
  return head;
}

void AuditLog::HandOver(Cursor* cursor, uint64_t head) {
  for (const RecordPtr& record : cursor->batch) {
    // An injected failure skips this record for this sink only: a gap in its
    // stream, never a reordering.
    if (XSEC_FAILPOINT_FIRED("audit.sink.deliver")) {
      cursor->dropped.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    cursor->sink(*record);
    cursor->delivered.fetch_add(1, std::memory_order_relaxed);
  }
  cursor->batch.clear();
  cursor->next.store(head, std::memory_order_relaxed);
  cursor->advanced.notify_all();
}

void AuditLog::Deliver(Cursor* cursor) {
  std::lock_guard<std::mutex> serialize(cursor->mu);
  uint64_t head;
  {
    std::lock_guard<std::mutex> lock(mu_);
    head = GatherLocked(cursor);
  }
  HandOver(cursor, head);
}

void AuditLog::SinkLoop(Cursor* cursor) {
  const auto ready = [this, cursor] {
    uint64_t head = std::min(next_sequence_, cursor->end.load(std::memory_order_relaxed));
    return cursor->stop || cursor->next.load(std::memory_order_relaxed) < head;
  };
  for (;;) {
    bool stop;
    {
      std::unique_lock<std::mutex> lock(mu_);
      // Linger: poll the ring every kLingerPeriod, so that recorders store
      // without waking this thread while records keep coming. Park (and be
      // woken by Record) only after kLingerRounds empty polls, so an idle
      // log costs no timer wakeups.
      for (int round = 0; round < kLingerRounds && !ready(); ++round) {
        work_cv_.wait_for(lock, kLingerPeriod);
      }
      if (!ready()) {
        ++parked_;
        work_cv_.wait(lock, ready);
        --parked_;
      }
      stop = cursor->stop;
    }
    Deliver(cursor);  // on stop, the final pass hands over everything stored
    if (stop) {
      return;
    }
  }
}

void AuditLog::StartThreadLocked(const std::shared_ptr<Cursor>& cursor) {
  cursor->stop = false;
  // The raw pointer is safe: whoever joins the thread holds a shared_ptr.
  cursor->thread = std::thread([this, raw = cursor.get()] { SinkLoop(raw); });
}

uint64_t AuditLog::SwapSink(uint64_t remove_id, std::string name, Sink sink, bool* removed) {
  std::shared_ptr<Cursor> gone;
  uint64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto cursors = std::make_shared<CursorList>();
    for (const std::shared_ptr<Cursor>& cursor : *cursors_) {
      if (cursor->id == remove_id) {
        gone = cursor;
        gone->end.store(next_sequence_, std::memory_order_relaxed);
        gone->stop = true;
      } else {
        cursors->push_back(cursor);
      }
    }
    if (sink) {
      auto cursor = std::make_shared<Cursor>();
      cursor->id = id = next_sink_id_++;
      cursor->name = std::move(name);
      cursor->sink = std::move(sink);
      cursor->next.store(next_sequence_, std::memory_order_relaxed);
      if (draining_) {
        StartThreadLocked(cursor);
      }
      cursors->push_back(std::move(cursor));
    }
    cursors_ = std::move(cursors);
  }
  if (removed != nullptr) {
    *removed = gone != nullptr;
  }
  if (gone != nullptr) {
    Deliver(gone.get());  // everything it is owed
    work_cv_.notify_all();
    if (gone->thread.joinable()) {
      gone->thread.join();  // its final pass finds nothing left
    }
  }
  return id;
}

void AuditLog::set_sink(Sink sink) {
  std::lock_guard<std::mutex> control(ctl_mu_);
  primary_id_ = SwapSink(primary_id_, "sink", std::move(sink));
}

void AuditLog::InstallResilientSink(std::shared_ptr<ResilientSink> sink) {
  std::lock_guard<std::mutex> control(ctl_mu_);
  resilient_ = sink;
  // Publish the health pointer before the sink can be invoked; release
  // pairs with the acquire in SinkTripped.
  resilient_raw_.store(sink.get(), std::memory_order_release);
  Sink wrapped;
  if (sink != nullptr) {
    wrapped = [sink](const AuditRecord& record) { sink->Write(record); };
  }
  primary_id_ = SwapSink(primary_id_, "resilient", std::move(wrapped));
}

uint64_t AuditLog::AddSink(std::string name, Sink sink) {
  std::lock_guard<std::mutex> control(ctl_mu_);
  return SwapSink(0, std::move(name), std::move(sink));
}

bool AuditLog::RemoveSink(uint64_t id) {
  std::lock_guard<std::mutex> control(ctl_mu_);
  bool removed = false;
  SwapSink(id, "", nullptr, &removed);
  return removed;
}

std::string AuditLog::sink_state() const {
  const ResilientSink* sink = resilient_raw_.load(std::memory_order_acquire);
  if (sink == nullptr) {
    return "none";
  }
  return std::string(CircuitBreaker::StateName(sink->state()));
}

uint64_t AuditLog::sink_retries() const {
  const ResilientSink* sink = resilient_raw_.load(std::memory_order_acquire);
  return sink == nullptr ? 0 : sink->retries();
}

uint64_t AuditLog::sink_gave_up() const {
  const ResilientSink* sink = resilient_raw_.load(std::memory_order_acquire);
  return sink == nullptr ? 0 : sink->gave_up();
}

void AuditLog::StartDrain() {
  std::lock_guard<std::mutex> control(ctl_mu_);
  std::lock_guard<std::mutex> lock(mu_);
  if (draining_) {
    return;
  }
  draining_ = true;
  for (const std::shared_ptr<Cursor>& cursor : *cursors_) {
    StartThreadLocked(cursor);
  }
}

void AuditLog::StopDrain() {
  std::lock_guard<std::mutex> control(ctl_mu_);
  std::shared_ptr<const CursorList> cursors;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!draining_) {
      return;
    }
    draining_ = false;
    cursors = cursors_;
    for (const std::shared_ptr<Cursor>& cursor : *cursors) {
      cursor->stop = true;
    }
  }
  work_cv_.notify_all();
  for (const std::shared_ptr<Cursor>& cursor : *cursors) {
    cursor->thread.join();  // after its final pass
  }
}

void AuditLog::Flush() {
  // Latency-injection point for flush-path tests (arm with sleep=...; an
  // error spec counts a fire but flush still proceeds — flush is not
  // allowed to fail, only to be slow).
  (void)XSEC_FAILPOINT_FIRED("audit.sink.flush");
  std::shared_ptr<const CursorList> cursors;
  uint64_t head;
  bool draining;
  {
    std::lock_guard<std::mutex> lock(mu_);
    cursors = cursors_;
    head = next_sequence_;
    draining = draining_;
  }
  // Lingering delivery threads would reach `head` on their next poll; wake
  // them so the wait is a delivery pass, not up to a linger period.
  if (draining) {
    work_cv_.notify_all();
  }
  // Every record below `head` is being delivered by its recorder or a
  // delivery thread (a sink removed meanwhile was handed all it was owed),
  // so this only waits. Waiting under the cursor's mutex is what orders
  // this thread after the sink calls.
  for (const std::shared_ptr<Cursor>& cursor : *cursors) {
    std::unique_lock<std::mutex> lock(cursor->mu);
    cursor->advanced.wait(lock, [&cursor, head] {
      return cursor->next.load(std::memory_order_relaxed) >=
             std::min(head, cursor->end.load(std::memory_order_relaxed));
    });
  }
}

size_t AuditLog::sinks() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cursors_->size();
}

uint64_t AuditLog::delivered() const {
  uint64_t total = 0;
  for (const AuditSinkStats& stats : SinkStats()) {
    total += stats.delivered;
  }
  return total;
}

uint64_t AuditLog::sink_dropped() const {
  uint64_t total = 0;
  for (const AuditSinkStats& stats : SinkStats()) {
    total += stats.dropped;
  }
  return total;
}

std::vector<AuditSinkStats> AuditLog::SinkStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<AuditSinkStats> out;
  out.reserve(cursors_->size());
  for (const std::shared_ptr<Cursor>& cursor : *cursors_) {
    out.push_back({cursor->id, cursor->name,
                   cursor->delivered.load(std::memory_order_relaxed),
                   cursor->dropped.load(std::memory_order_relaxed)});
  }
  return out;
}

size_t AuditLog::retained() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_sequence_ - OldestLocked();
}

uint64_t AuditLog::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return OldestLocked();
}

std::vector<AuditRecord> AuditLog::records() const {
  return Query([](const AuditRecord&) { return true; });
}

std::vector<AuditRecord> AuditLog::Query(
    const std::function<bool(const AuditRecord&)>& pred) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<AuditRecord> out;
  for (uint64_t seq = OldestLocked(); seq < next_sequence_; ++seq) {
    const AuditRecord& record = *ring_[seq % ring_.size()];
    if (pred(record)) {
      out.push_back(record);
    }
  }
  return out;
}

}  // namespace xsec
