// The reference monitor: the paper's "central facility to provide naming and
// protection services for the entire system" (§3).
//
// Every access in xsec — calling a procedure, extending an interface, reading
// a file, listing a directory, killing a thread — funnels through
// ReferenceMonitor::Check. The decision procedure is:
//
//   1. resolve the name (optionally checking `list` on every ancestor, so
//      visibility of each level of the hierarchy is itself protected, §2.3);
//   2. DAC: the node's owner holds administrate (the bootstrap rule); every
//      other requested mode must be granted by the node's *effective ACL*
//      (its own, or the nearest ancestor's — ACL inheritance gives AFS-style
//      directory defaults while still allowing per-leaf ACLs, which AFS
//      cannot do, §1.2);
//   3. MAC: check the flow rules between the subject's security class and the
//      node's *effective label* (own or nearest ancestor's; the root is
//      labeled ⊥ at construction so every node has a label). MAC is checked
//      even when DAC granted: "users can not circumvent the basic security of
//      the system by exercising discretionary access control" (§2.2);
//   4. record the decision in the audit log.
//
// Decisions are cached (src/monitor/decision_cache.h) under generation
// stamps of the node's validity domain, so a mutation invalidates the
// decisions it can affect; the stamps are the only way a cached decision
// goes stale. CheckPath resolves the whole path once and, when
// the walk is warm and fully allowed, answers it with one resolved-path
// cache entry (docs/MODEL.md §15).
//
// One decision procedure (docs/MODEL.md §3, §5): a DAC stage (the owner rule,
// then ACL evaluation) and a MAC stage (the flow decision) over one
// NameSpace::SecuritySnapshot. Every verdict goes through them: a cache
// miss, the administrative authorization step the mutators and
// Kernel::UnloadExtension share, and Explain, which renders the same
// snapshot's facts and ends with the procedure's verdict.
//
// Thread safety: Check/CheckPath/CheckFloating, the administrative
// operations and Explain may be called concurrently from any number of
// threads. Decisions read each store through a snapshot or shared-ownership
// handle (NameSpace::SnapshotSecurity, PrincipalRegistry::Closure,
// AclStore::Evaluate/CopyAcl, LabelAuthority::LabelHandle) and read the
// validity stamps *before* evaluating, so a cached decision can be
// spuriously stale but never wrongly fresh. set_security_officer() is
// setup-time.

#ifndef XSEC_SRC_MONITOR_REFERENCE_MONITOR_H_
#define XSEC_SRC_MONITOR_REFERENCE_MONITOR_H_

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "src/dac/acl.h"
#include "src/mac/flow_policy.h"
#include "src/mac/label_authority.h"
#include "src/monitor/audit.h"
#include "src/monitor/decision_cache.h"
#include "src/monitor/monitor_stats.h"
#include "src/monitor/subject.h"
#include "src/naming/namespace.h"
#include "src/principal/registry.h"

namespace xsec {

struct Decision {
  bool allowed = false;
  DenyReason reason = DenyReason::kNone;
  std::string detail;

  // Converts to a Status for callers that propagate errors.
  Status ToStatus() const;
};

struct MonitorOptions {
  bool dac_enabled = true;
  bool mac_enabled = true;
  // Check `list` on every ancestor during resolution.
  bool check_traversal = true;
  bool cache_enabled = true;
  // Maintain MonitorStats, the one record of decisions (per-reason,
  // per-mode and per-shard counters, sampled latency histogram). Off: no
  // decision is counted anywhere. Relaxed atomics only; bench_f1_mediation
  // pins the overhead.
  bool stats_enabled = true;
  FlowPolicyOptions flow;
  AuditPolicy audit_policy = AuditPolicy::kDenialsOnly;
  // Fail-closed audit (MODEL.md §12): when set and the installed resilient
  // sink's circuit is open, Check turns would-be allows into
  // kAuditUnavailable denials instead of proceeding unaudited. Off by
  // default (fail-open: unaudited allows proceed and are counted).
  bool audit_required = false;
  size_t cache_slots = 8192;
  size_t audit_capacity = 4096;
};

class ReferenceMonitor {
 public:
  // The monitor borrows all four stores; they must outlive it.
  ReferenceMonitor(NameSpace* name_space, AclStore* acls, PrincipalRegistry* principals,
                   LabelAuthority* labels, MonitorOptions options = {});

  // -- Access checks ---------------------------------------------------------

  // Checks `modes` on an already-resolved node (no traversal checks).
  Decision Check(const Subject& subject, NodeId node, AccessModeSet modes);

  // Resolves `path` and checks; on success *resolved (if non-null) is set.
  Decision CheckPath(const Subject& subject, std::string_view path, AccessModeSet modes,
                     NodeId* resolved = nullptr);

  // High-water-mark variant (Denning's floating labels): like Check, but on
  // a successful access containing an observation mode (read/list/execute),
  // the subject's class is raised to the join of its current class and the
  // object's label. The subject thereafter carries everything it has seen:
  // a later write to a lower object is denied by the ordinary ⋆-property, so
  // even *sequences* of individually legal accesses cannot relay data
  // downward through a subject. The paper's model uses fixed per-principal
  // classes; this is the natural extension its lattice supports.
  Decision CheckFloating(Subject* subject, NodeId node, AccessModeSet modes);

  // -- Policy administration -------------------------------------------------
  // Every mutator first runs AuthorizeAdministrate.

  // The administrative authorization step: one snapshot (into *snap), then
  // the owner rule — the node's owner holds administrate outright (the
  // bootstrap rule: a fresh node has no ACL of its own and someone must be
  // able to give it one) — else the decision procedure for `administrate`,
  // DAC and MAC. NotFound for a dead node. On denial it records one
  // kNotAuthorized decision "<op> without administrate" and returns
  // PermissionDenied; an allow records nothing.
  Status AuthorizeAdministrate(const Subject& subject, NodeId node, std::string_view op,
                               NameSpace::SecuritySnapshot* snap);

  Status SetNodeAcl(const Subject& subject, NodeId node, Acl acl);
  Status AddAclEntry(const Subject& subject, NodeId node, const AclEntry& entry);
  // Removes every entry (both polarities) naming `who` from the node's own
  // ACL. A no-op if the node only inherits an ACL.
  Status RemoveAclEntriesFor(const Subject& subject, NodeId node, PrincipalId who);

  // Non-officer relabeling additionally requires, under MAC, that the
  // subject dominates the node's current label (it must be cleared to see
  // what it relabels) and that the new label equal the subject's own class —
  // a subject classifies objects at exactly its level, so labels can be
  // bootstrapped upward from ⊥ but never laundered up or down past the
  // subject. The registered security officer bypasses the MAC conditions
  // (a trusted subject in the Bell-LaPadula sense).
  Status SetNodeLabel(const Subject& subject, NodeId node, const SecurityClass& label);

  Status SetOwner(const Subject& subject, NodeId node, PrincipalId new_owner);

  // The security officer may relabel arbitrarily (trusted subject in the
  // Bell-LaPadula sense). Unset by default.
  void set_security_officer(PrincipalId officer) { security_officer_ = officer; }
  PrincipalId security_officer() const { return security_officer_; }

  // -- Lockdown (supervision-driven graceful degradation) --------------------
  // While armed, would-be-allowed checks whose modes include `extend` are
  // flipped to kQuarantined denials; every other mode keeps its underlying
  // decision, so reads/invokes of healthy services stay live. Applied after
  // the cache (never cached), like the audit-availability override. Driven
  // by the extension supervisor's health state machine or an operator via
  // /svc/health; the monitor itself only enforces.
  void set_lockdown(bool on) { lockdown_.store(on, std::memory_order_relaxed); }
  bool lockdown() const { return lockdown_.load(std::memory_order_relaxed); }

  // -- Effective policy resolution (own or inherited) ------------------------
  // The ACL governing a node is NameSpace::SnapshotSecurity's
  // effective_acl_ref (copy it with AclStore::CopyAcl).

  // The label governing a node, by value (safe against concurrent relabels).
  // The root always has one (⊥ by default).
  SecurityClass EffectiveLabel(NodeId node) const;

  // -- Validity domains -----------------------------------------------------

  // The validity domain used to stamp decisions about `node` (docs/MODEL.md
  // §15): its monitor shard, so a mutation confined to one subtree
  // invalidates only that shard's cached decisions; kAllShards for the
  // root; kAggregateShard for ids the name space cannot place, whose checks
  // are never cached. Lock-free.
  ShardId DomainOf(NodeId node) const;

  // The stamp vector of one validity domain: a concrete shard's or, for
  // kAllShards, the root's. kAggregateShard has no stamps of its own.
  CacheStamps CurrentStampsFor(ShardId domain) const;

  // The pure interpreted decision procedure — no cache, no audit, no stats.
  // Every cache miss is decided by it; it is also the differential-fuzz
  // oracle.
  Decision CheckInterpreted(const Subject& subject, NodeId node, AccessModeSet modes) const {
    return CheckUncached(subject, node, modes);
  }

  // -- Retired compiled decision tables (docs/MODEL.md §13) -----------------
  // Stateless: there are no tables, and every miss is interpreted.

  // Exists until the benchmark retires monitor.compiled_* / recompile_us.
  Status RecompileNow() { return OkStatus(); }
  // Exists until the benchmark retires monitor.compiled_* / recompile_us.
  bool TryCompiledCheck(const Subject&, NodeId, AccessModeSet, Decision*) { return false; }
  struct CompiledCounters {
    uint64_t hits = 0;
    uint64_t fallbacks = 0;
    uint64_t stale = 0;
  };
  // Exists until the benchmark retires monitor.compiled_* / recompile_us.
  CompiledCounters compiled_counters() const { return {}; }
  struct NoCompiledTables {
    const NoCompiledTables& stamps() const { return *this; }
    CacheStamps ForDomain(ShardId) const { return {}; }
  };
  // Exists until the benchmark retires monitor.compiled_* / recompile_us.
  std::shared_ptr<const NoCompiledTables> compiled_snapshot() const { return nullptr; }

  // -- Introspection ---------------------------------------------------------

  // A human-readable, multi-line diagnosis of why `subject` can or cannot
  // perform `modes` on `node`: ownership, the governing ACL (and where it
  // was inherited from), which entries matched, and the label comparison,
  // ending with "verdict : allowed" or "verdict : denied (<reason>)", which
  // is CheckInterpreted's decision. Performs no caching and no auditing.
  std::string Explain(const Subject& subject, NodeId node, AccessModeSet modes) const;

  AuditLog& audit() { return audit_; }
  const AuditLog& audit() const { return audit_; }
  MonitorStats& stats() { return stats_; }
  const MonitorStats& stats() const { return stats_; }
  DecisionCache& cache() { return cache_; }
  const MonitorOptions& options() const { return options_; }
  void set_audit_policy(AuditPolicy policy) { audit_.set_policy(policy); }

  NameSpace& name_space() { return *name_space_; }
  AclStore& acls() { return *acls_; }
  PrincipalRegistry& principals() { return *principals_; }
  LabelAuthority& labels() { return *labels_; }

 private:
  Decision CheckUncached(const Subject& subject, NodeId node, AccessModeSet modes) const;
  // The decision procedure over one snapshot: DacStage, then MacStage.
  Decision Decide(const Subject& subject, const NameSpace::SecuritySnapshot& snap,
                  AccessModeSet modes) const;
  // DAC: the owner rule, then the effective ACL must grant what it leaves.
  Decision DacStage(const Subject& subject, const NameSpace::SecuritySnapshot& snap,
                    AccessModeSet modes) const;
  // MAC: the flow decision against `label`; on denial *violating (if
  // non-null) names the first mode that breaks a flow rule.
  Decision MacStage(const Subject& subject, const SecurityClass& label, AccessModeSet modes,
                    AccessMode* violating = nullptr) const;
  // The snapshot's effective label; ⊥ if it names none (a torn-down tree).
  std::shared_ptr<const SecurityClass> LabelOf(const NameSpace::SecuritySnapshot& snap) const;
  // The check bodies, without latency sampling (the public wrappers add it).
  // `path`, when non-empty, is the node's canonical path (from CheckPath's
  // validated request), recorded instead of rebuilding it from the node.
  Decision CheckUnsampled(const Subject& subject, NodeId node, AccessModeSet modes,
                          std::string_view path = {});
  Decision CheckPathUnsampled(const Subject& subject, std::string_view path,
                              AccessModeSet modes, NodeId* resolved);
  // True when a resolved-path cache entry may answer a CheckPath for `modes`
  // to a leaf in `leaf_domain` right now; false where the walk's per-step
  // records or overrides differ.
  bool PathEntryUsable(AccessModeSet modes, ShardId leaf_domain) const;
  // Counts the decision in the stats (under validity domain `domain`) and
  // hands it to the audit log if its policy retains it. An empty `path`
  // records the node's path, built only for a retained record.
  void Audit(const Subject& subject, NodeId node, ShardId domain, std::string_view path,
             AccessModeSet modes, const Decision& decision);
  // Fail-closed override: flips an allow to a kAuditUnavailable denial (or
  // counts it as unaudited, in fail-open mode) when the required audit sink
  // is tripped. Runs AFTER the cache so the transient denial is never
  // cached — allows resume the moment the sink recovers.
  void ApplyAuditAvailability(Decision* decision);
  // Lockdown override: flips extend-mode allows to kQuarantined denials
  // while lockdown_ is armed. Same post-cache placement and rationale.
  void ApplyLockdown(Decision* decision, AccessModeSet modes);

  NameSpace* name_space_;
  AclStore* acls_;
  PrincipalRegistry* principals_;
  LabelAuthority* labels_;
  MonitorOptions options_;
  FlowPolicy flow_;
  AuditLog audit_;
  MonitorStats stats_;
  DecisionCache cache_;
  PrincipalId security_officer_;

  // Armed by the supervision layer (breaker cascade or operator); checked
  // on every decision with one relaxed load.
  std::atomic<bool> lockdown_{false};
};

}  // namespace xsec

#endif  // XSEC_SRC_MONITOR_REFERENCE_MONITOR_H_
