// The audit log. The paper lists "auditing of security relevant system
// events" among the concerns a complete security model must address (§1);
// here every access decision can be recorded, under a configurable policy.
// Experiment F7 measures the cost of each policy.
//
// Thread safety: Record() may be called from any number of checking threads.
// The log counts no decisions (MonitorStats is the one record of those), so
// an allow the policy does not retain never reaches it and the hot allow
// path (under the default denials-only policy) never takes a lock; records
// that the policy retains go into a bounded ring — many producers serialize
// briefly on the ring mutex, the (single) consumer drains via
// records()/Query(), and the oldest record is overwritten once the ring is
// full.
//
// Delivery to sinks has one path. In the same critical section that stamps
// its sequence, a retained record is appended to a bounded delivery log
// (when any sink is registered). Every sink is a cursor over that log, and
// one routine hands each sink its records in exact sequence order, under
// that sink's own mutex and never under the ring mutex: on the recording
// thread by default, or on one thread per sink after StartDrain(), so that
// file writes and NDJSON rotation renames never run on a mediated check. A
// sink that lags more than the log's capacity loses its oldest pending
// records, counted in its dropped counter. See docs/MODEL.md §11 for the
// ordering/durability semantics.

#ifndef XSEC_SRC_MONITOR_AUDIT_H_
#define XSEC_SRC_MONITOR_AUDIT_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <functional>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/base/rng.h"
#include "src/base/status.h"
#include "src/dac/access_mode.h"
#include "src/naming/namespace.h"
#include "src/principal/principal.h"

namespace xsec {

enum class AuditPolicy : uint8_t {
  kOff = 0,
  kDenialsOnly,
  kAll,
};

enum class DenyReason : uint8_t {
  kNone = 0,          // allowed
  kNotFound,          // target (or an ancestor) does not exist
  kTraversal,         // denied while resolving an ancestor
  kDacExplicitDeny,   // a negative ACL entry matched
  kDacNoGrant,        // no positive ACL entry covered the request
  kMacFlow,           // the lattice flow rules forbid the access
  kNotAuthorized,     // administrative operation without administrate rights
  kAuditUnavailable,  // fail-closed: the required audit sink is down
  kQuarantined,       // supervision: extension quarantined or monitor lockdown
};

// Number of DenyReason values, kNone included (per-reason counter arrays).
inline constexpr size_t kDenyReasonCount = 9;

std::string_view DenyReasonName(DenyReason reason);

struct AuditRecord {
  uint64_t sequence = 0;
  PrincipalId principal;
  uint64_t thread_id = 0;
  NodeId node;
  std::string path;          // resolved path, or the requested one on kNotFound
  AccessModeSet modes;
  bool allowed = false;
  DenyReason reason = DenyReason::kNone;
  std::string detail;        // human-readable explanation

  std::string ToString() const;

  // One-line JSON object (no trailing newline) with the full record; the
  // NDJSON streaming schema is documented in docs/MODEL.md §11.
  std::string ToJson() const;
};

// A sink for AuditLog::set_sink that writes each retained record as one
// NDJSON line to `out`. The stream must outlive the log; the log serializes
// the calls to each sink, so the sink needs no locking of its own. A slow
// target stalls recorders unless the log's drain is running
// (AuditLog::StartDrain).
std::function<void(const AuditRecord&)> MakeNdjsonSink(std::ostream* out);

// Rotation policy for an NDJSON audit file: the current file is rotated when
// appending the next record would push it past max_bytes, or when it has
// been open longer than max_age_ns (0 disables that limit). On rotation the
// files shift path -> path.1 -> ... -> path.max_keep and the oldest is
// deleted; max_keep == 0 truncates in place instead of keeping history.
struct NdjsonRotationPolicy {
  uint64_t max_bytes = 0;
  uint64_t max_age_ns = 0;
  size_t max_keep = 3;
};

// A size/age-rotating NDJSON audit file writer (tools/xsec_stats wires one
// behind --ndjson). Not internally synchronized: the AuditLog serializes the
// calls to each sink (never under the ring mutex). Under the drain both the
// fwrite and the rotation renames run on the sink's delivery thread, off the
// mediated check path entirely.
class NdjsonFileRotator {
 public:
  NdjsonFileRotator(std::string path, NdjsonRotationPolicy policy);
  ~NdjsonFileRotator();
  NdjsonFileRotator(const NdjsonFileRotator&) = delete;
  NdjsonFileRotator& operator=(const NdjsonFileRotator&) = delete;

  // Opens (truncating) the base file. If an open fails (here, or the reopen
  // after a rotation), each Write drops its line as a write failure and
  // retries the open first.
  Status Open();

  void Write(const AuditRecord& record);

  uint64_t rotations() const { return rotations_; }
  // Rotations whose history shift was skipped because the rename failed
  // (real or injected via the `audit.rotate.rename` failpoint); the file is
  // truncated in place instead, so writing always continues.
  uint64_t rename_failures() const { return rename_failures_; }
  // Lines that did not land in full — a short fwrite (disk full, I/O error,
  // or the `audit.ndjson.write` failpoint), or no open file to write to (the
  // `audit.rotate.open` failpoint lands here). A partial line is truncated
  // back off the file so the NDJSON whole-line invariant holds; the record
  // is dropped from export (the in-memory ring still retains it).
  uint64_t write_failures() const { return write_failures_; }
  const std::string& path() const { return path_; }

 private:
  void RotateIfNeeded(size_t next_line_bytes);

  std::string path_;
  NdjsonRotationPolicy policy_;
  std::FILE* out_ = nullptr;
  uint64_t bytes_ = 0;
  uint64_t opened_at_ns_ = 0;
  uint64_t rotations_ = 0;
  uint64_t rename_failures_ = 0;
  uint64_t write_failures_ = 0;
};

// Adapts a rotator into an AuditLog sink; the shared_ptr keeps it alive for
// as long as the log holds the sink.
std::function<void(const AuditRecord&)> MakeRotatingNdjsonSink(
    std::shared_ptr<NdjsonFileRotator> rotator);

// Fallible adapter for wrapping a rotator in a ResilientSink: a write the
// rotator had to drop (disk full — see write_failures()) reports
// kResourceExhausted, so the circuit breaker retries it and ultimately
// trips, which is what lets `audit_required` fail closed on a full disk.
std::function<Status(const AuditRecord&)> MakeRotatingNdjsonFallibleSink(
    std::shared_ptr<NdjsonFileRotator> rotator);

// A bounded in-memory audit sink: retains the most recent `capacity` records
// handed to it (a recent-window retention ring of its own, independent of
// the log's). Register one with AuditLog::AddSink (MakeMemoryRingSink) to
// keep a cheap queryable tail per export plane. Accessors are thread-safe.
class AuditMemoryRing {
 public:
  explicit AuditMemoryRing(size_t capacity = 1024);

  void Write(const AuditRecord& record);

  // Retained records, oldest first.
  std::vector<AuditRecord> records() const;
  // Records ever written (retained or since evicted).
  uint64_t total() const;
  size_t size() const;

 private:
  mutable std::mutex mu_;
  size_t capacity_;
  std::deque<AuditRecord> ring_;
  uint64_t total_ = 0;
};

// Adapts a memory ring into an audit sink; the shared_ptr keeps it alive for
// as long as the log holds the sink.
std::function<void(const AuditRecord&)> MakeMemoryRingSink(
    std::shared_ptr<AuditMemoryRing> ring);

// -- Self-healing sink --------------------------------------------------------

// Tuning for ResilientSink (MODEL.md §12). Defaults: up to 4 attempts per
// record with 1ms→50ms capped exponential backoff ±50% jitter; 8 consecutive
// failed attempts trip the circuit open; after 200ms an open circuit lets one
// half-open probe through.
struct ResilientSinkOptions {
  int max_attempts = 4;                     // per record, first try included
  uint64_t backoff_initial_ns = 1'000'000;  // 1 ms before the first retry
  uint64_t backoff_max_ns = 50'000'000;     // backoff doubles up to this cap
  uint32_t jitter_pct = 50;                 // backoff is jittered ± this %
  uint32_t trip_after = 8;                  // consecutive failed attempts → open
  uint64_t reopen_after_ns = 200'000'000;   // open → half-open probe interval
  uint64_t rng_seed = 0x5eed;               // jitter rng (deterministic)
};

// A circuit-breaking retry wrapper around a fallible sink. Closed: every
// record is attempted up to max_attempts times with capped exponential
// backoff + jitter. Open (tripped after trip_after consecutive failed
// attempts): records are dropped immediately (counted in gave_up()) so a
// dead sink cannot stall the audit pipeline; the ring still retains them.
// Half-open: after reopen_after_ns one probe record is tried once — success
// recloses the circuit, failure reopens it.
//
// Write() must be externally serialized, which AuditLog::InstallResilientSink
// guarantees (the log serializes the calls to each sink). The state/counter
// accessors are safe from any thread — they back the
// /sys/monitor/audit/{sink_state,retries,gave_up} leaves and the monitor's
// fail-closed check.
class ResilientSink {
 public:
  enum class State : uint8_t { kClosed = 0, kOpen, kHalfOpen };

  // The wrapped sink reports failure via Status so retries are possible
  // (the plain void AuditLog::Sink cannot).
  using FallibleSink = std::function<Status(const AuditRecord&)>;

  explicit ResilientSink(FallibleSink inner, ResilientSinkOptions options = {});

  // Delivers one record per the policy above. The `audit.sink.write`
  // failpoint is evaluated on every attempt, before the inner sink.
  void Write(const AuditRecord& record);

  State state() const { return state_.load(std::memory_order_relaxed); }
  bool healthy() const { return state() != State::kOpen; }

  uint64_t written() const { return written_.load(std::memory_order_relaxed); }
  uint64_t retries() const { return retries_.load(std::memory_order_relaxed); }
  uint64_t gave_up() const { return gave_up_.load(std::memory_order_relaxed); }

  static std::string_view StateName(State state);

 private:
  Status TryOnce(const AuditRecord& record);

  FallibleSink inner_;
  ResilientSinkOptions options_;
  Rng rng_;
  std::atomic<State> state_{State::kClosed};
  std::atomic<uint64_t> written_{0};
  std::atomic<uint64_t> retries_{0};
  std::atomic<uint64_t> gave_up_{0};
  // Touched only inside Write (externally serialized).
  uint32_t consecutive_failures_ = 0;
  uint64_t opened_at_ns_ = 0;
};

// Configuration for asynchronous audit delivery (AuditLog::StartDrain).
// queue_capacity bounds the delivery log: a sink that falls more than that
// many records behind loses its oldest pending records (counted in its
// dropped counter) rather than blocking recorders. The retention ring still
// holds them, so nothing is lost from records()/Query().
struct AuditDrainOptions {
  size_t queue_capacity = 4096;
};

// Per-sink telemetry snapshot (AuditLog::SinkStats).
struct AuditSinkStats {
  uint64_t id = 0;
  std::string name;
  uint64_t delivered = 0;
  uint64_t dropped = 0;
};

class AuditLog {
 public:
  using Sink = std::function<void(const AuditRecord&)>;

  explicit AuditLog(size_t capacity = 4096) : capacity_(capacity) {}
  ~AuditLog() { StopDrain(); }

  void set_policy(AuditPolicy policy) { policy_.store(policy, std::memory_order_relaxed); }
  AuditPolicy policy() const { return policy_.load(std::memory_order_relaxed); }

  // Records a decision if the policy asks for it; otherwise does nothing.
  void Record(AuditRecord record);

  // True iff the current policy would retain a record with this outcome.
  // Callers use this to skip building record text (path strings) that would
  // be thrown away.
  bool WouldRetain(bool allowed) const {
    AuditPolicy p = policy();
    return p == AuditPolicy::kAll || (p == AuditPolicy::kDenialsOnly && !allowed);
  }

  // -- Delivery (MODEL.md §11) ------------------------------------------------
  //
  // Every retained record stamped while at least one sink is registered goes
  // into one bounded, sequence-ordered delivery log. Every sink is a cursor
  // over that log: the next sequence it is owed plus its own delivered and
  // dropped counters. One routine hands a sink the records from its cursor up
  // to the head, in sequence order, under that sink's own mutex (so sinks
  // need no locking of their own and never run under the ring mutex). It runs
  // on the recording thread when no drain is running, and on one thread per
  // sink while StartDrain is. A sink that falls more than the log's capacity
  // behind loses its oldest pending records: gaps, never reorderings. A sink
  // must not register or remove sinks, or record, from inside its own call.

  // Replaces THE sink (the one set_sink or InstallResilientSink last
  // registered; null removes it) in one step: every record reaches exactly
  // one of the old and new sinks. The old one is flushed before this returns.
  void set_sink(Sink sink);

  // Like set_sink, with `sink` (may be null) wrapped so every retained record
  // goes through its retry/circuit-breaker policy, and registers it as the
  // log's health source: SinkTripped(), sink_state() and the retry counters
  // reflect this sink from here on.
  void InstallResilientSink(std::shared_ptr<ResilientSink> sink);

  // Registers another named sink (an NDJSON file, an in-memory ring, a
  // network exporter); returns its id. It is owed every record stamped from
  // here on, none before.
  uint64_t AddSink(std::string name, Sink sink);

  // Unregisters a sink after handing it every record it is owed. False if
  // no sink has this id.
  bool RemoveSink(uint64_t id);

  // -- Fail-closed contract (MODEL.md §12) ------------------------------------

  // When required is set and the resilient sink's circuit is open, the
  // reference monitor turns would-be allows into kAuditUnavailable denials
  // instead of letting actions proceed unaudited. Without required mode the
  // monitor lets them pass and counts them in unaudited_allows().
  void set_required(bool required) { required_.store(required, std::memory_order_relaxed); }
  bool required() const { return required_.load(std::memory_order_relaxed); }

  // True when a resilient sink is installed and its circuit is open. Hot
  // path: one pointer load (the common no-resilient-sink case stops at the
  // null check).
  bool SinkTripped() const {
    const ResilientSink* sink = resilient_raw_.load(std::memory_order_acquire);
    return sink != nullptr && sink->state() == ResilientSink::State::kOpen;
  }

  void CountUnauditedAllow() { unaudited_allows_.fetch_add(1, std::memory_order_relaxed); }
  uint64_t unaudited_allows() const {
    return unaudited_allows_.load(std::memory_order_relaxed);
  }

  // Health of the installed resilient sink: "none" when there isn't one,
  // else "closed" / "open" / "half-open". Backs /sys/monitor/audit/sink_state.
  std::string sink_state() const;
  uint64_t sink_retries() const;
  uint64_t sink_gave_up() const;

  // Starts one delivery thread per sink (and one for each sink added while
  // running), sizing the delivery log to options.queue_capacity. From here
  // on Record() only appends and wakes them, so sink I/O never runs on a
  // mediated check. Idempotent while running.
  void StartDrain(AuditDrainOptions options = {});

  // Each delivery thread hands its sink everything appended so far, then
  // exits; later records are delivered on the recording thread again. No-op
  // if the drain is not running.
  void StopDrain();

  // Blocks until every sink's cursor reaches the head as of this call, and
  // establishes happens-before with every sink call it waited for. It only
  // waits: the recorders or the delivery threads do the deliveries.
  void Flush();

  // Registered sinks, and the records they were handed or dropped, summed
  // over all of them (the audit/sinks, audit/delivered and audit/sink_dropped
  // leaves).
  size_t sinks() const;
  uint64_t delivered() const;
  uint64_t sink_dropped() const;
  // Per-sink breakdown for tools and tests.
  std::vector<AuditSinkStats> SinkStats() const;

  // Snapshot of the retained records, oldest first.
  std::vector<AuditRecord> records() const;

  // Number of currently retained records, without copying them (the cheap
  // gauge behind /sys/monitor/audit/retained).
  size_t retained() const;

  // Retained records matching a predicate, oldest first.
  std::vector<AuditRecord> Query(const std::function<bool(const AuditRecord&)>& pred) const;

  // Denial records this log has stamped (since the last Clear). No allow
  // touches it. Under the denials-only policy with no Clear it equals the
  // next record's sequence number.
  uint64_t total_denials() const { return total_denials_.load(std::memory_order_relaxed); }
  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }

  // Discards the retained ring and zeroes the counters (the per-sink ones
  // too). Records still owed to sinks are delivered. Sequence numbers are NOT
  // reset: records emitted after a Clear continue the sequence, so ids
  // already exported (e.g. to rotated NDJSON files) are never reused and
  // cross-rotation dedup/ordering by `seq` stays sound.
  void Clear();

 private:
  using RecordPtr = std::shared_ptr<const AuditRecord>;

  // One registered sink and its cursor into the delivery log. Defined in
  // audit.cc.
  struct Cursor;
  using CursorList = std::vector<std::shared_ptr<Cursor>>;

  // Appends `visit(record)` for each retained record, oldest first, with
  // mu_ held.
  template <typename Visit>
  void ForEachLocked(Visit visit) const;

  // Unregisters sink `remove_id` (0: none) and registers `sink` (null: none)
  // in one critical section, then hands the removed sink everything it is
  // owed and joins its delivery thread. Returns the new sink's id (0 if
  // none); *removed reports whether remove_id was found. Caller holds
  // ctl_mu_.
  uint64_t SwapSink(uint64_t remove_id, std::string name, Sink sink, bool* removed = nullptr);

  // Inserts into the bounded retention ring. Caller holds mu_.
  void RingInsertLocked(AuditRecord record);

  // Hands the cursor's sink every record it is owed, in sequence order.
  void Deliver(Cursor* cursor);

  // Deliver's two halves. GatherLocked collects the records the cursor is
  // owed up to the head (clipped at its end), counts the ones the log
  // overwrote first, releases the log slots every registered sink has
  // passed, and returns the head; caller holds cursor->mu and mu_.
  // HandOver hands the gathered records to the sink and advances the
  // cursor to `head`; caller holds cursor->mu only.
  uint64_t GatherLocked(Cursor* cursor);
  void HandOver(Cursor* cursor, uint64_t head);

  // A delivery thread's main loop.
  void SinkLoop(Cursor* cursor);

  // Spawns the cursor's delivery thread. Caller holds ctl_mu_ and mu_.
  void StartThreadLocked(const std::shared_ptr<Cursor>& cursor);

  // Re-homes the delivery log at `capacity` slots. Caller holds mu_.
  void ResizeLogLocked(size_t capacity);

  size_t capacity_;
  std::atomic<AuditPolicy> policy_{AuditPolicy::kDenialsOnly};
  std::atomic<uint64_t> total_denials_{0};
  std::atomic<uint64_t> dropped_{0};

  // mu_ orders sequence stamping, retention and the delivery-log append, and
  // guards the fields from here to ctl_mu_.
  mutable std::mutex mu_;
  uint64_t next_sequence_ = 0;
  // Ring of retained records: grows to capacity_, then head_ marks the
  // oldest record and new ones overwrite it.
  std::vector<AuditRecord> ring_;
  size_t head_ = 0;
  // The delivery log: record `seq` lives in slot seq % size() until every
  // sink has passed it (slots below released_ are empty) or it is
  // overwritten. Allocated when the first sink registers.
  std::vector<RecordPtr> log_;
  size_t log_capacity_ = AuditDrainOptions{}.queue_capacity;
  uint64_t released_ = 0;
  // Registered sinks. Copied on write, so a recorder can deliver to the list
  // it saw after dropping mu_ while sinks come and go.
  std::shared_ptr<const CursorList> cursors_ = std::make_shared<const CursorList>();
  bool draining_ = false;
  std::condition_variable work_cv_;  // wakes delivery threads (with mu_)

  // Serializes the control operations (sink registration, StartDrain,
  // StopDrain) so each delivery thread is started and joined by exactly one
  // of them. Lock order: ctl_mu_ -> Cursor::mu -> mu_.
  std::mutex ctl_mu_;
  uint64_t next_sink_id_ = 1;   // guarded by ctl_mu_
  uint64_t primary_id_ = 0;     // set_sink's sink, guarded by ctl_mu_

  // Resilient-sink health plumbing. resilient_ (guarded by ctl_mu_) owns the
  // sink; resilient_raw_ mirrors it so the monitor's per-check SinkTripped
  // probe is one lock-free load.
  std::shared_ptr<ResilientSink> resilient_;
  std::atomic<const ResilientSink*> resilient_raw_{nullptr};
  std::atomic<bool> required_{false};
  std::atomic<uint64_t> unaudited_allows_{0};
};

}  // namespace xsec

#endif  // XSEC_SRC_MONITOR_AUDIT_H_
