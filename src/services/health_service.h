// Mediated control plane for the extension supervisor (docs/MODEL.md §16).
//
// The supervisor quarantines misbehaving extensions on its own; *releasing*
// one — or forcing a quarantine, or arming monitor-wide lockdown — is an
// operator action, and operator actions in this system are mediated like
// everything else. Each supervised extension appears as a health leaf
// `/sys/monitor/health/ext/<name>/state`; releasing or quarantining it is an
// `administrate` access on that leaf decided by the central reference
// monitor, so the action is ACL-governed, counted, and lands in the audit
// trail twice: once as the administrate decision, once as the supervisor's
// own transition record. An operator who cannot pass the monitor cannot
// un-quarantine an extension.
//
// Default policy is fail-closed: the /sys/monitor/health mount carries an
// own ACL granting read|list|administrate to the system principal only
// (mirroring FaultService). Widening it to an operations role is an
// ordinary AddAclEntry call.
//
// Layout and procedures:
//
//   /sys/monitor/health/...        telemetry leaves (StatsService::MountHealth)
//   /sys/monitor/health/ext/<name>/state
//                                  the per-extension anchor node; bound
//                                  lazily here if the stats plane has not
//                                  mounted it already
//   /svc/health/state              system health summary (read on the mount)
//   /svc/health/list               one line per supervised extension (list)
//   /svc/health/read               args = [name]; per-extension detail (read)
//   /svc/health/release            args = [name, why?]; administrate on the
//                                  leaf, then ExtensionSupervisor::Release
//   /svc/health/quarantine         args = [name, why?]; administrate, then
//                                  forced quarantine
//   /svc/health/lockdown           args = ["on"|"off", why?]; administrate on
//                                  the mount root, then ArmLockdown
//
// tools/xsec_stats --health renders the same summary as a trusted reader.

#ifndef XSEC_SRC_SERVICES_HEALTH_SERVICE_H_
#define XSEC_SRC_SERVICES_HEALTH_SERVICE_H_

#include <string>
#include <string_view>

#include "src/extsys/kernel.h"
#include "src/extsys/supervisor.h"

namespace xsec {

class HealthService {
 public:
  // The kernel and supervisor must outlive this service.
  HealthService(Kernel* kernel, ExtensionSupervisor* supervisor);

  // Binds the health mount (fail-closed, system-only ACL) and registers the
  // /svc/health procedures. The mount directory may already exist (the stats
  // plane creates it as an intermediate); Install adopts it.
  Status Install();

  // -- Mediated operations ----------------------------------------------------

  // System health summary after a `read` check on the mount root.
  StatusOr<std::string> State(Subject& subject);

  // One "name state invokes failures timeouts trips releases rejected
  // inflight" line per supervised extension, after a `list` check.
  StatusOr<std::string> List(Subject& subject);

  // Per-extension detail after a `read` check on its health leaf.
  StatusOr<std::string> ReadExtension(Subject& subject, std::string_view name);

  // Releases a quarantined extension after an `administrate` check on its
  // health leaf — the real monitor path, so the decision is counted and
  // audited. Returns the extension's new state. kFailedPrecondition when it
  // is already healthy.
  StatusOr<std::string> Release(Subject& subject, std::string_view name,
                                std::string_view why);

  // Forces an extension into quarantine (audited administrate, as above).
  StatusOr<std::string> ForceQuarantine(Subject& subject, std::string_view name,
                                        std::string_view why);

  // Arms or disarms operator lockdown after an `administrate` check on the
  // mount root. Returns the resulting system health name.
  StatusOr<std::string> SetLockdown(Subject& subject, bool on, std::string_view why);

 private:
  // Resolves /sys/monitor/health/ext/<name>/state, binding it on first use
  // (the stats plane usually beat us to it). kNotFound, binding nothing,
  // when the supervisor has not registered `name`.
  StatusOr<NodeId> EnsureLeaf(std::string_view name);

  Kernel* kernel_;
  ExtensionSupervisor* supervisor_;
};

}  // namespace xsec

#endif  // XSEC_SRC_SERVICES_HEALTH_SERVICE_H_
