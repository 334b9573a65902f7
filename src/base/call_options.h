// Per-call deadline/cancellation options, shared by every blocking surface:
// kernel invocation (src/extsys/kernel.h re-exports this as the options of
// Invoke/CallCapability/RaiseEvent) and the stats watch/poll waits. Living in
// src/base keeps it free of any dependency on the extension-system headers.
//
// `deadline_ns` is an absolute timestamp on the MonotonicNowNs clock; 0
// means no deadline. A call whose deadline has already passed is rejected
// with kDeadlineExceeded before any work runs; otherwise the deadline is
// forwarded so blocking stages can bound their wait.
//
// `cancel` is an optional caller-owned flag: setting it to true withdraws
// the request, and cooperative waiters (anything that polls the
// CallContext::CheckDeadline contract) return kCancelled at their next
// cancellation point. Cancellation wins over an expired deadline when both
// hold. The flag must outlive the call.

#ifndef XSEC_SRC_BASE_CALL_OPTIONS_H_
#define XSEC_SRC_BASE_CALL_OPTIONS_H_

#include <atomic>
#include <cstdint>

namespace xsec {

struct CallOptions {
  uint64_t deadline_ns = 0;
  const std::atomic<bool>* cancel = nullptr;
};

}  // namespace xsec

#endif  // XSEC_SRC_BASE_CALL_OPTIONS_H_
