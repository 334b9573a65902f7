// The one closed/open/half-open circuit breaker (docs/MODEL.md §12, §16).
// The audit pipeline's ResilientSink and the extension supervisor both
// run on it:
//
//   closed     every call is admitted; trip_after consecutive failures open
//              the breaker.
//   open       every call is refused until probe_after_ns has passed since
//              it opened; then ONE call is admitted as the probe.
//   half-open  the probe is out and every other call is refused. The probe's
//              success closes the breaker; its failure reopens it, and the
//              dwell starts again.
//
// The breaker reads no clock. Callers pass `now_ns` (MonotonicNowNs in the
// program, any number in a test), so nothing here ever has to sleep. Admit
// looks at `now_ns` only while the breaker is open, so a caller may skip
// reading the clock while closed() holds.
//
// Thread safety: the breaker has no lock. Callers serialize every call
// except state()/closed(): the audit log runs one sink call at a time, and
// the supervisor holds the entry's mutex. state() is one atomic load that
// any thread may make, which keeps AuditLog::SinkTripped lock-free.

#ifndef XSEC_SRC_BASE_CIRCUIT_BREAKER_H_
#define XSEC_SRC_BASE_CIRCUIT_BREAKER_H_

#include <atomic>
#include <cstdint>
#include <string_view>

namespace xsec {

// Each field has one meaning for 0, in every user.
struct BreakerOptions {
  // Consecutive failures that open a closed breaker. 0 = failures never
  // open it (ForceOpen still does).
  uint32_t trip_after = 4;
  // How long an open breaker waits before it admits one probe. 0 = it never
  // probes: it stays open until Reset.
  uint64_t probe_after_ns = 100'000'000;  // 100 ms
};

class CircuitBreaker {
 public:
  enum class State : uint8_t { kClosed = 0, kOpen, kHalfOpen };
  enum class Admission : uint8_t { kRejected = 0, kAdmitted, kProbe };
  // What a reported outcome changed.
  enum class Transition : uint8_t {
    kNone = 0,
    kTripped,    // closed -> open
    kRecovered,  // half-open -> closed: the probe succeeded
    kReopened,   // half-open -> open: the probe failed
  };

  // "closed" / "open" / "half-open".
  static std::string_view StateName(State state);

  State state() const { return state_.load(std::memory_order_relaxed); }
  bool closed() const { return state() == State::kClosed; }

  // Admits one call, or refuses it. An open breaker whose dwell has passed
  // and whose last probe has reported turns half-open and answers kProbe.
  Admission Admit(const BreakerOptions& options, uint64_t now_ns);
  // Whether Admit would let a call through now, without admitting one.
  bool Admits(const BreakerOptions& options, uint64_t now_ns) const;

  // Report the outcome of one admitted call; `probe` says whether Admit
  // answered kProbe for it. Only the probe's own report frees the probe
  // slot, so at most one probe is ever out, whatever Reset and ForceOpen do
  // meanwhile. `now_ns` stamps the opening when a failure opens the breaker.
  Transition RecordSuccess(bool probe);
  Transition RecordFailure(const BreakerOptions& options, bool probe, uint64_t now_ns);

  // Operator actions. Each returns the state it found. ForceOpen opens the
  // breaker and restarts the dwell (an open breaker is left as it is);
  // Reset closes it.
  State ForceOpen(uint64_t now_ns);
  State Reset();

 private:
  void Open(uint64_t now_ns);

  std::atomic<State> state_{State::kClosed};
  uint32_t consecutive_failures_ = 0;
  bool probe_out_ = false;
  uint64_t opened_at_ns_ = 0;
};

}  // namespace xsec

#endif  // XSEC_SRC_BASE_CIRCUIT_BREAKER_H_
