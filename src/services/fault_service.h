// Mediated control plane for fault-injection failpoints (MODEL.md §12).
//
// Failpoints (src/base/failpoint.h) are process-wide named injection sites;
// this service makes them named, mediated objects like everything else in
// the system: each failpoint appears as a file node `/sys/faults/<name>`,
// and arming one is an `administrate` access on that node decided by the
// central reference monitor — which means it is ACL-governed, label-checked,
// counted, and audited exactly like any other administrative action. The
// fault surface of the system is itself inside the protection model: an
// attacker who cannot pass the monitor cannot turn on a fault, and every
// arm/disarm that does happen is in the audit trail.
//
// Default policy is fail-closed: the /sys/faults mount carries an own ACL
// granting read|list|administrate to the system principal only. Widening it
// (say, to a "chaos" group in a staging deployment) is an ordinary
// AddAclEntry call.
//
// Layout and procedures:
//
//   /sys/faults/<name>      one file node per failpoint, bound lazily on
//                           the first allowed arm/read of that name
//                           (failpoints are created on first use, so the
//                           tree reflects the sites the control plane has
//                           actually touched); a denied caller binds nothing
//   /svc/faults/arm         args = [name, spec]; spec grammar is
//                           FailpointSpec::Parse ("error=internal,nth=3",
//                           "sleep=5ms", "off", ...); returns the
//                           failpoint's state string after arming
//   /svc/faults/read        args = [name]; the state string ("off" or the
//                           spec plus hit/fire counters)
//   /svc/faults/list        one "name state" line per registered failpoint
//
// tools/xsec_stats --fail <name>=<spec> drives /svc/faults/arm as the
// system subject.

#ifndef XSEC_SRC_SERVICES_FAULT_SERVICE_H_
#define XSEC_SRC_SERVICES_FAULT_SERVICE_H_

#include <string>
#include <string_view>

#include "src/extsys/kernel.h"

namespace xsec {

class FaultService {
 public:
  // The kernel must outlive this service.
  explicit FaultService(Kernel* kernel);

  // Binds the /sys/faults mount (fail-closed, system-only ACL) and
  // registers the /svc/faults procedures.
  Status Install();

  // -- Mediated operations ----------------------------------------------------

  // Arms (or, for spec "off", disarms) the named failpoint after an
  // `administrate` check on /sys/faults/<name> — the check is the real
  // monitor path, so the decision is counted and audited. The node is bound
  // lazily on the first allowed use. Returns the failpoint's state string.
  StatusOr<std::string> Arm(Subject& subject, std::string_view name,
                            std::string_view spec);

  // Reads the named failpoint's state ("off" or spec + counters) after a
  // `read` check on its node.
  StatusOr<std::string> ReadFault(Subject& subject, std::string_view name);

  // Lists every registered failpoint, "name state" per line, after a `list`
  // check on the mount directory.
  StatusOr<std::string> List(Subject& subject);

 private:
  // Checks `modes` on /sys/faults/<name> and returns its node. An unbound
  // name is first checked on the mount, whose ACL and label it would
  // inherit, and bound only if that check allows it.
  StatusOr<NodeId> CheckLeaf(Subject& subject, std::string_view name, AccessModeSet modes);

  Kernel* kernel_;
};

}  // namespace xsec

#endif  // XSEC_SRC_SERVICES_FAULT_SERVICE_H_
