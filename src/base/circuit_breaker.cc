#include "src/base/circuit_breaker.h"

namespace xsec {

std::string_view CircuitBreaker::StateName(State state) {
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

bool CircuitBreaker::Admits(const BreakerOptions& options, uint64_t now_ns) const {
  const State found = state();
  if (found != State::kOpen) {
    return found == State::kClosed;  // half-open: the probe is out
  }
  return !probe_out_ && options.probe_after_ns != 0 &&
         now_ns - opened_at_ns_ >= options.probe_after_ns;
}

CircuitBreaker::Admission CircuitBreaker::Admit(const BreakerOptions& options, uint64_t now_ns) {
  if (closed()) {
    return Admission::kAdmitted;
  }
  if (!Admits(options, now_ns)) {
    return Admission::kRejected;
  }
  state_.store(State::kHalfOpen, std::memory_order_relaxed);
  probe_out_ = true;
  return Admission::kProbe;
}

CircuitBreaker::Transition CircuitBreaker::RecordSuccess(bool probe) {
  consecutive_failures_ = 0;
  if (!probe) {
    return Transition::kNone;
  }
  probe_out_ = false;
  if (state() != State::kHalfOpen) {
    return Transition::kNone;  // Reset or ForceOpen overtook the probe
  }
  state_.store(State::kClosed, std::memory_order_relaxed);
  return Transition::kRecovered;
}

CircuitBreaker::Transition CircuitBreaker::RecordFailure(const BreakerOptions& options,
                                                         bool probe, uint64_t now_ns) {
  if (probe) {
    probe_out_ = false;
    if (state() == State::kHalfOpen) {
      Open(now_ns);
      return Transition::kReopened;
    }
  }
  if (!closed()) {
    return Transition::kNone;
  }
  ++consecutive_failures_;
  if (options.trip_after == 0 || consecutive_failures_ < options.trip_after) {
    return Transition::kNone;
  }
  Open(now_ns);
  return Transition::kTripped;
}

CircuitBreaker::State CircuitBreaker::ForceOpen(uint64_t now_ns) {
  State found = state();
  if (found != State::kOpen) {
    Open(now_ns);
  }
  return found;
}

CircuitBreaker::State CircuitBreaker::Reset() {
  // No failure count to clear: failures are counted only while closed, and
  // Open() zeroed it.
  State found = state();
  state_.store(State::kClosed, std::memory_order_relaxed);
  return found;
}

void CircuitBreaker::Open(uint64_t now_ns) {
  consecutive_failures_ = 0;
  opened_at_ns_ = now_ns;
  state_.store(State::kOpen, std::memory_order_relaxed);
}

}  // namespace xsec
