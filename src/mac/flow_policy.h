// Mandatory information-flow rules (paper §2.2).
//
// "Subjects can view the contents of an object (i.e., have read access) when
// their level of trust is higher than or equal to the level of trust of the
// object and when their categories are a superset of the categories of the
// object. They can modify the contents of an object (i.e., have any form of
// write access) when their level of trust is lower or equal to the level of
// trust of the object and their categories are a subset of the categories of
// the object."
//
// Mode-by-mode mapping (S = subject class, O = object class):
//
//   read, list, execute,       require S ⊒ O      (simple security property)
//   extend
//   write-append               requires O ⊒ S     (⋆-property)
//   write, delete              require O ⊒ S, and additionally S ⊒ O (i.e.
//                              S = O) when `write_up_requires_append` is set —
//                              this implements the paper's parenthetical that
//                              write-append may be needed "to limit subjects
//                              at a lower level of trust to blindly overwrite
//                              objects at a higher level of trust"
//   administrate               requires S = O (observing and modifying policy)
//
// `execute` is an observation: the caller learns from the service's behavior,
// and the invoked code runs at the *caller's* class (class propagation,
// §2.2), so the read rule is the right one.
//
// `extend` also follows the read rule (the extension must be cleared to see
// the interface it specializes), NOT the ⋆-property. The paper requires that
// "extensions with different security classes can all be allowed to extend
// the same system service" (§2.2) — under the ⋆-property a single interface
// label could never admit both low and high handler classes while remaining
// callable by low subjects. Registration itself discloses only the handler's
// existence; the actual information flow happens at invocation, where the
// dispatcher's selection rule (caller class dominates handler class,
// src/extsys/dispatcher.h) enforces the lattice.

#ifndef XSEC_SRC_MAC_FLOW_POLICY_H_
#define XSEC_SRC_MAC_FLOW_POLICY_H_

#include <optional>
#include <string>

#include "src/dac/access_mode.h"
#include "src/mac/security_class.h"

namespace xsec {

struct FlowPolicyOptions {
  // When true (default, the paper's suggestion), destructive writes to a
  // strictly dominating object are refused; only write-append flows up.
  bool write_up_requires_append = true;
};

// The outcome of a MAC check: allowed, or the first mode that violated flow.
struct FlowVerdict {
  bool allowed = true;
  // Set iff !allowed.
  std::optional<AccessMode> violating_mode;
  std::string ToString() const;
};

class FlowPolicy {
 public:
  explicit FlowPolicy(FlowPolicyOptions options = {}) : options_(options) {}

  // Checks every mode in `requested` against the flow rules.
  FlowVerdict Check(const SecurityClass& subject, const SecurityClass& object,
                    AccessModeSet requested) const;

  // Single-mode rule; exposed for property tests.
  bool ModeAllowed(const SecurityClass& subject, const SecurityClass& object,
                   AccessMode mode) const;

  const FlowPolicyOptions& options() const { return options_; }

 private:
  FlowPolicyOptions options_;
};

// The complete flow rule as a truth table: every mode's verdict depends only
// on the two dominance bits (S ⊒ O, O ⊒ S), so the whole per-pair decision
// collapses to an 8-bit mode mask. FlowPolicy::ModeAllowed and
// FlowPolicy::Check both evaluate it — they cannot disagree on the S = O
// double-dominance cases (write/delete under write_up_requires_append,
// administrate) because there is only one rule.
// Note mutual dominance IS lattice equality (antisymmetry: l1>=l2 && l2>=l1
// and C1⊆C2 && C2⊆C1), which SecurityClassProperty.MutualDominanceIsEquality
// pins down for category sets of differing capacities.
AccessModeSet FlowAllowedMask(bool subject_dominates_object, bool object_dominates_subject,
                              const FlowPolicyOptions& options);

}  // namespace xsec

#endif  // XSEC_SRC_MAC_FLOW_POLICY_H_
