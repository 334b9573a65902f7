#include "src/monitor/reference_monitor.h"


#include "src/base/strings.h"

namespace xsec {

Status Decision::ToStatus() const {
  if (allowed) {
    return OkStatus();
  }
  if (reason == DenyReason::kNotFound) {
    return NotFoundError(detail);
  }
  if (reason == DenyReason::kQuarantined) {
    // Not a policy verdict: the caller may be fully authorized, the target
    // is just refusing work until supervision clears it. Retryable.
    return UnavailableError(detail);
  }
  return PermissionDeniedError(detail);
}

ReferenceMonitor::ReferenceMonitor(NameSpace* name_space, AclStore* acls,
                                   PrincipalRegistry* principals, LabelAuthority* labels,
                                   MonitorOptions options)
    : name_space_(name_space),
      acls_(acls),
      principals_(principals),
      labels_(labels),
      options_(options),
      flow_(options.flow),
      audit_(options.audit_capacity),
      cache_(options.cache_slots) {
  audit_.set_policy(options.audit_policy);
  audit_.set_required(options.audit_required);
  // Every node must resolve to *some* label; the root carries ⊥ so an
  // unlabeled tree degenerates to "MAC imposes no constraint among ⊥
  // subjects" rather than to undefined behavior.
  NameSpace::SecuritySnapshot root;
  if (name_space_->SnapshotSecurity(name_space_->root(), &root) &&
      root.own_label_ref == kNoRef) {
    (void)name_space_->SetLabelRef(name_space_->root(), labels_->StoreLabel(labels_->Bottom()));
  }
}

CacheStamps ReferenceMonitor::CurrentStampsFor(ShardId domain) const {
  // The domain's name-space / ACL generations and label epoch, plus the one
  // counter no domain confines: a membership change can affect any
  // decision regardless of subtree, so each stamp vector carries it.
  return CacheStamps{name_space_->shard_generation(domain), acls_->shard_generation(domain),
                     principals_->membership_epoch(), labels_->shard_epoch(domain), domain};
}

ShardId ReferenceMonitor::DomainOf(NodeId node) const {
  return name_space_->ShardOf(node);
}

namespace {

// The owner rule: a node's owner holds administrate on it whatever its ACL
// says, so a fresh node (which inherits its ACL) can be given one by its
// creator. Returns the modes the rule grants.
AccessModeSet OwnerGrants(const Subject& subject, const NameSpace::SecuritySnapshot& snap) {
  return subject.principal == snap.owner ? AccessModeSet(AccessMode::kAdministrate)
                                         : AccessModeSet();
}

std::string VerdictLine(const Decision& decision) {
  if (decision.allowed) {
    return "verdict : allowed\n";
  }
  return StrFormat("verdict : denied (%s)\n",
                   std::string(DenyReasonName(decision.reason)).c_str());
}

}  // namespace

std::shared_ptr<const SecurityClass> ReferenceMonitor::LabelOf(
    const NameSpace::SecuritySnapshot& snap) const {
  if (snap.effective_label_ref != kNoRef) {
    if (auto label = labels_->LabelHandle(snap.effective_label_ref)) {
      return label;
    }
  }
  // Unreachable for live nodes: the constructor labels the root. A default
  // class is ⊥-shaped (level 0, no categories).
  static const auto* const kBottom =
      new std::shared_ptr<const SecurityClass>(std::make_shared<const SecurityClass>());
  return *kBottom;
}

SecurityClass ReferenceMonitor::EffectiveLabel(NodeId node) const {
  NameSpace::SecuritySnapshot snap;
  if (!name_space_->SnapshotSecurity(node, &snap)) {
    return SecurityClass();
  }
  return *LabelOf(snap);
}

Decision ReferenceMonitor::DacStage(const Subject& subject,
                                    const NameSpace::SecuritySnapshot& snap,
                                    AccessModeSet modes) const {
  const AccessModeSet dac_modes = modes - OwnerGrants(subject, snap);
  if (dac_modes.empty()) {
    return Decision{true, DenyReason::kNone, ""};
  }
  if (snap.effective_acl_ref == kNoRef) {
    return Decision{false, DenyReason::kDacNoGrant, "no ACL grants this access"};
  }
  std::shared_ptr<const DynamicBitset> closure = principals_->Closure(subject.principal);
  AclVerdict verdict = acls_->Evaluate(snap.effective_acl_ref, *closure, dac_modes);
  if (verdict == AclVerdict::kDeniedByEntry) {
    return Decision{false, DenyReason::kDacExplicitDeny, "matched a negative ACL entry"};
  }
  if (verdict == AclVerdict::kNoMatchingGrant) {
    return Decision{false, DenyReason::kDacNoGrant, "no ACL entry grants this access"};
  }
  return Decision{true, DenyReason::kNone, ""};
}

Decision ReferenceMonitor::MacStage(const Subject& subject, const SecurityClass& label,
                                    AccessModeSet modes, AccessMode* violating) const {
  FlowVerdict verdict = flow_.Check(subject.security_class, label, modes);
  if (verdict.allowed) {
    return Decision{true, DenyReason::kNone, ""};
  }
  if (violating != nullptr) {
    *violating = *verdict.violating_mode;
  }
  return Decision{false, DenyReason::kMacFlow,
                  StrFormat("%s of %s by subject at %s violates information flow",
                            std::string(AccessModeName(*verdict.violating_mode)).c_str(),
                            labels_->ClassToString(label).c_str(),
                            labels_->ClassToString(subject.security_class).c_str())};
}

Decision ReferenceMonitor::Decide(const Subject& subject, const NameSpace::SecuritySnapshot& snap,
                                  AccessModeSet modes) const {
  if (options_.dac_enabled) {
    Decision dac = DacStage(subject, snap, modes);
    if (!dac.allowed) {
      return dac;
    }
  }
  if (options_.mac_enabled) {
    return MacStage(subject, *LabelOf(snap), modes);
  }
  return Decision{true, DenyReason::kNone, ""};
}

Decision ReferenceMonitor::CheckUncached(const Subject& subject, NodeId node,
                                         AccessModeSet modes) const {
  // One locked ancestor walk yields owner + effective ACL/label refs; after
  // this the stores are only touched through shared-ownership handles, so a
  // concurrent policy mutation cannot tear the evaluation.
  NameSpace::SecuritySnapshot snap;
  if (!name_space_->SnapshotSecurity(node, &snap)) {
    return Decision{false, DenyReason::kNotFound, "node does not exist"};
  }
  return Decide(subject, snap, modes);
}

void ReferenceMonitor::Audit(const Subject& subject, NodeId node, ShardId domain,
                             std::string_view path, AccessModeSet modes,
                             const Decision& decision) {
  // The stats are the one record of decisions: every decision that reaches
  // here — checks, path resolutions, administrative denials — lands in
  // exactly one reason bucket (kNone for allows) and one domain bucket.
  if (options_.stats_enabled) {
    stats_.RecordDecision(modes, decision.allowed ? DenyReason::kNone : decision.reason, domain);
  }
  if (!audit_.WouldRetain(decision.allowed)) {
    return;
  }
  AuditRecord record;
  record.principal = subject.principal;
  record.thread_id = subject.thread_id;
  record.node = node;
  record.path = path.empty() ? name_space_->PathOf(node) : std::string(path);
  record.modes = modes;
  record.allowed = decision.allowed;
  record.reason = decision.reason;
  record.detail = decision.detail;
  audit_.Record(std::move(record));
}

Decision ReferenceMonitor::Check(const Subject& subject, NodeId node, AccessModeSet modes) {
  if (options_.stats_enabled && stats_.ShouldSampleLatency()) {
    uint64_t start = MonotonicNowNs();
    Decision decision = CheckUnsampled(subject, node, modes);
    stats_.RecordLatencyNs(MonotonicNowNs() - start);
    return decision;
  }
  return CheckUnsampled(subject, node, modes);
}

void ReferenceMonitor::ApplyAuditAvailability(Decision* decision) {
  if (!decision->allowed || __builtin_expect(!audit_.SinkTripped(), 1)) {
    return;
  }
  if (audit_.required()) {
    *decision = Decision{false, DenyReason::kAuditUnavailable,
                         "audit sink unavailable and audit is required"};
  } else {
    audit_.CountUnauditedAllow();
  }
}

void ReferenceMonitor::ApplyLockdown(Decision* decision, AccessModeSet modes) {
  // Lockdown is graceful degradation, not a policy change: extend-mode
  // requests (linking new extensions, specializing interfaces) are refused
  // while every other mode keeps its underlying decision. Applied AFTER the
  // cache, exactly like the audit-availability override, so the transient
  // denial is never cached and extends resume the instant lockdown lifts.
  if (!decision->allowed || __builtin_expect(!lockdown_.load(std::memory_order_relaxed), 1)) {
    return;
  }
  if (modes.Contains(AccessMode::kExtend)) {
    *decision = Decision{false, DenyReason::kQuarantined,
                         "monitor lockdown: extend-mode access suspended"};
  }
}

Decision ReferenceMonitor::CheckUnsampled(const Subject& subject, NodeId node,
                                          AccessModeSet modes, std::string_view path) {
  Decision decision;
  ShardId domain = DomainOf(node);
  // An id the name space cannot place has no domain stamps to validate an
  // entry against, so its checks are always interpreted.
  if (options_.cache_enabled && domain != kAggregateShard) {
    // The stamps are read (acquire) BEFORE evaluating. If a store mutates
    // mid-evaluation its bump lands after our loads, so the entry we insert
    // carries stamps that are already stale — a future probe re-evaluates.
    // The race costs a redundant evaluation, never a wrong cached decision.
    CacheStamps stamps = CurrentStampsFor(domain);
    DecisionCache::CachedDecision cached;
    if (cache_.Lookup(subject, node, modes, stamps, &cached)) {
      decision = Decision{cached.allowed, cached.reason, ""};
    } else {
      decision = CheckUncached(subject, node, modes);
      cache_.Insert(subject, node, modes, stamps,
                    DecisionCache::CachedDecision{decision.allowed, decision.reason});
    }
  } else {
    decision = CheckUncached(subject, node, modes);
  }
  // After the cache on purpose: the cache keeps the underlying decision, the
  // availability and lockdown overrides apply only to this call.
  ApplyAuditAvailability(&decision);
  ApplyLockdown(&decision, modes);
  Audit(subject, node, domain, path, modes, decision);
  return decision;
}

Decision ReferenceMonitor::CheckFloating(Subject* subject, NodeId node, AccessModeSet modes) {
  Decision decision = Check(*subject, node, modes);
  if (decision.allowed && options_.mac_enabled &&
      modes.Intersects(AccessMode::kRead | AccessMode::kList | AccessMode::kExecute)) {
    subject->security_class = subject->security_class.Join(EffectiveLabel(node));
  }
  return decision;
}

Decision ReferenceMonitor::CheckPath(const Subject& subject, std::string_view path,
                                     AccessModeSet modes, NodeId* resolved) {
  if (options_.stats_enabled && stats_.ShouldSampleLatency()) {
    uint64_t start = MonotonicNowNs();
    Decision decision = CheckPathUnsampled(subject, path, modes, resolved);
    stats_.RecordLatencyNs(MonotonicNowNs() - start);
    return decision;
  }
  return CheckPathUnsampled(subject, path, modes, resolved);
}

bool ReferenceMonitor::PathEntryUsable(AccessModeSet modes, ShardId leaf_domain) const {
  // The entry replays a walk's allows as counts only. Where the walk could
  // differ per step, take the walk: allows retained as audit records, the
  // audit-availability override, or lockdown refusing this request's
  // extend. Without traversal checks the leaf's own entry is the whole path.
  // A hit counts every non-root step in the leaf's domain, as the walk does
  // only while that domain is a concrete shard: a leaf past the published
  // shard-id capacity reports the aggregate domain while its ancestors keep
  // their shard.
  return options_.cache_enabled && options_.check_traversal && IsConcreteShard(leaf_domain) &&
         !audit_.WouldRetain(true) && !audit_.SinkTripped() &&
         !(lockdown_.load(std::memory_order_relaxed) && modes.Contains(AccessMode::kExtend));
}

Decision ReferenceMonitor::CheckPathUnsampled(const Subject& subject, std::string_view path,
                                              AccessModeSet modes, NodeId* resolved) {
  // Resolve once: every component under one name-space lock acquisition,
  // with no allocation. `chain` is the ancestors (root first), down to the
  // node lacking the next component when resolution fails.
  AncestorBuffer chain;
  StatusOr<NodeId> leaf = name_space_->LookupWithAncestors(path, &chain);
  if (!leaf.ok() && chain.empty()) {
    // Not a canonical absolute path: nothing to traverse.
    Decision decision{false, DenyReason::kNotFound, leaf.status().message()};
    Audit(subject, NodeId{}, kAggregateShard, path, modes, decision);
    return decision;
  }

  // Probe once: the resolved-path entry holds "every step and the leaf
  // allowed" for this tuple. It is stamped with the leaf's domain, which
  // covers every step (docs/MODEL.md §15). As in CheckUnsampled, the stamps
  // are read before any step is checked.
  const ShardId domain = leaf.ok() ? DomainOf(*leaf) : kAggregateShard;
  const bool path_entry = leaf.ok() && !chain.empty() && PathEntryUsable(modes, domain);
  CacheStamps stamps;
  if (path_entry) {
    stamps = CurrentStampsFor(domain);
    DecisionCache::CachedDecision cached;
    if (cache_.Lookup(subject, *leaf, modes, stamps, &cached, /*via_path=*/true)) {
      // Exactly what the walk records (docs/MODEL.md §15).
      if (options_.stats_enabled) {
        stats_.RecordAllowedPath(chain.size(), modes, domain);
      }
      if (resolved != nullptr) {
        *resolved = *leaf;
      }
      return Decision{true, DenyReason::kNone, ""};
    }
  }

  // The walk. The steps are unsampled: CheckPath times the whole resolution
  // as one sample, so they must not also tick the sample clock. Traversal is
  // checked on every ancestor before a missing component is reported.
  if (options_.check_traversal) {
    // chain[i] is the node named by the request's first i components, so
    // its canonical path is a prefix of `path` ending before `end`.
    size_t end = 0;
    for (size_t i = 0; i < chain.size(); ++i) {
      if (i > 0) {
        end = path.find('/', end + 1);
      }
      const std::string_view step_path = i == 0 ? std::string_view("/") : path.substr(0, end);
      Decision step = CheckUnsampled(subject, chain[i], AccessMode::kList, step_path);
      if (!step.allowed) {
        Decision decision{false, DenyReason::kTraversal,
                          StrFormat("denied while resolving '%s': %s",
                                    std::string(step_path).c_str(), step.detail.c_str())};
        Audit(subject, chain[i], DomainOf(chain[i]), path, modes, decision);
        return decision;
      }
    }
  }
  if (!leaf.ok()) {
    Decision decision{false, DenyReason::kNotFound, leaf.status().message()};
    Audit(subject, chain.back(), DomainOf(chain.back()), path, modes, decision);
    return decision;
  }
  if (resolved != nullptr) {
    *resolved = *leaf;
  }
  // The path resolved, so it is the leaf's canonical path.
  Decision decision = CheckUnsampled(subject, *leaf, modes, path);
  if (path_entry && decision.allowed) {
    cache_.Insert(subject, *leaf, modes, stamps,
                  DecisionCache::CachedDecision{true, DenyReason::kNone}, /*via_path=*/true);
  }
  return decision;
}

std::string ReferenceMonitor::Explain(const Subject& subject, NodeId node,
                                      AccessModeSet modes) const {
  // Every fact comes from one snapshot and the stores' value copies and
  // handles, so this is safe beside mutators; the verdict is Decide's.
  NameSpace::SecuritySnapshot snap;
  if (!name_space_->SnapshotSecurity(node, &snap)) {
    return "node does not exist\n" +
           VerdictLine(Decision{false, DenyReason::kNotFound, "node does not exist"});
  }
  auto name_of = [this](PrincipalId id) {
    const Principal* p = principals_->Get(id);
    return p != nullptr ? p->name : std::string("?");
  };
  std::string out;
  out += StrFormat("subject : %s at %s\n", name_of(subject.principal).c_str(),
                   labels_->ClassToString(subject.security_class).c_str());
  out += StrFormat("object  : %s (%s, owner %s)\n", name_space_->PathOf(node).c_str(),
                   std::string(NodeKindName(snap.kind)).c_str(), name_of(snap.owner).c_str());
  out += StrFormat("request : %s\n", modes.ToString().c_str());

  if (!options_.dac_enabled) {
    out += "DAC     : disabled\n";
  } else {
    if (!OwnerGrants(subject, snap).empty()) {
      out += "DAC     : subject owns the object (administrate implicit)\n";
    }
    const char* granted = DacStage(subject, snap, modes).allowed ? "granted" : "NOT granted";
    if (snap.effective_acl_ref == kNoRef) {
      out += StrFormat("DAC     : no ACL anywhere up the tree -> %s\n", granted);
    } else {
      out += StrFormat("DAC     : governed by the ACL on %s%s\n",
                       name_space_->PathOf(snap.effective_acl_node).c_str(),
                       snap.effective_acl_node == node ? "" : " (inherited)");
      Acl acl;
      (void)acls_->CopyAcl(snap.effective_acl_ref, &acl);
      std::shared_ptr<const DynamicBitset> closure = principals_->Closure(subject.principal);
      for (const AclEntry& entry : acl.entries()) {
        out += StrFormat("          %s %s %s%s\n",
                         entry.type == AclEntryType::kAllow ? "allow" : "deny ",
                         name_of(entry.who).c_str(), entry.modes.ToString().c_str(),
                         closure->Test(entry.who.value) ? "   <- matches this subject" : "");
      }
      out += StrFormat("          effective modes: %s -> %s\n",
                       acl.EffectiveModes(*closure).ToString().c_str(), granted);
    }
  }

  if (!options_.mac_enabled) {
    out += "MAC     : disabled\n";
  } else {
    std::shared_ptr<const SecurityClass> label = LabelOf(snap);
    out += StrFormat("MAC     : object label %s\n", labels_->ClassToString(*label).c_str());
    AccessMode violating = AccessMode::kRead;
    if (MacStage(subject, *label, modes, &violating).allowed) {
      out += "          flow rules satisfied\n";
    } else {
      out += StrFormat("          %s violates flow (%s)\n",
                       std::string(AccessModeName(violating)).c_str(),
                       subject.security_class.Dominates(*label)
                           ? "object must dominate subject for this mode"
                           : "subject does not dominate the object's label");
    }
  }
  return out + VerdictLine(Decide(subject, snap, modes));
}

Status ReferenceMonitor::AuthorizeAdministrate(const Subject& subject, NodeId node,
                                               std::string_view op,
                                               NameSpace::SecuritySnapshot* snap) {
  if (!name_space_->SnapshotSecurity(node, snap)) {
    return NotFoundError("node does not exist");
  }
  // The owner rule grants administrate on a mutator outright, MAC included;
  // Check(administrate) still applies MAC to the owner (docs/MODEL.md §5).
  if (!OwnerGrants(subject, *snap).empty() ||
      Decide(subject, *snap, AccessMode::kAdministrate).allowed) {
    return OkStatus();
  }
  Audit(subject, node, DomainOf(node), "", AccessMode::kAdministrate,
        Decision{false, DenyReason::kNotAuthorized,
                 StrFormat("%s without administrate", std::string(op).c_str())});
  return PermissionDeniedError(
      StrFormat("no administrate access on '%s'", name_space_->PathOf(node).c_str()));
}

Status ReferenceMonitor::SetNodeAcl(const Subject& subject, NodeId node, Acl acl) {
  NameSpace::SecuritySnapshot snap;
  XSEC_RETURN_IF_ERROR(AuthorizeAdministrate(subject, node, "set-acl", &snap));
  if (snap.own_acl_ref == kNoRef) {
    // Tag (and intern) the fresh ACL under the node's shard, so later edits
    // to it bump only that shard's stamp domain.
    AclStore::AclRef ref = acls_->Create(std::move(acl), snap.shard);
    return name_space_->SetAclRef(node, ref);
  }
  return acls_->Replace(snap.own_acl_ref, std::move(acl));
}

Status ReferenceMonitor::AddAclEntry(const Subject& subject, NodeId node, const AclEntry& entry) {
  NameSpace::SecuritySnapshot snap;
  XSEC_RETURN_IF_ERROR(AuthorizeAdministrate(subject, node, "add-acl-entry", &snap));
  if (snap.own_acl_ref == kNoRef) {
    // Copy-down: start the node's own ACL from its effective (inherited) one
    // so adding an entry refines rather than replaces the inherited policy.
    Acl base;
    if (snap.effective_acl_ref != kNoRef) {
      (void)acls_->CopyAcl(snap.effective_acl_ref, &base);
    }
    base.AddEntry(entry);
    AclStore::AclRef ref = acls_->Create(std::move(base), snap.shard);
    return name_space_->SetAclRef(node, ref);
  }
  return acls_->AddEntry(snap.own_acl_ref, entry);
}

Status ReferenceMonitor::RemoveAclEntriesFor(const Subject& subject, NodeId node,
                                             PrincipalId who) {
  NameSpace::SecuritySnapshot snap;
  XSEC_RETURN_IF_ERROR(AuthorizeAdministrate(subject, node, "remove-acl-entries", &snap));
  if (snap.own_acl_ref == kNoRef) {
    return OkStatus();  // only an inherited ACL; nothing of this node's to edit
  }
  return acls_->RemoveEntriesFor(snap.own_acl_ref, who);
}

Status ReferenceMonitor::SetNodeLabel(const Subject& subject, NodeId node,
                                      const SecurityClass& label) {
  NameSpace::SecuritySnapshot snap;
  if (security_officer_.valid() && subject.principal == security_officer_) {
    if (!name_space_->SnapshotSecurity(node, &snap)) {
      return NotFoundError("node does not exist");
    }
  } else {
    XSEC_RETURN_IF_ERROR(AuthorizeAdministrate(subject, node, "set-label", &snap));
    if (options_.mac_enabled) {
      bool sees_current = subject.security_class.Dominates(*LabelOf(snap));
      bool assigns_own_class = label == subject.security_class;
      if (!sees_current || !assigns_own_class) {
        Audit(subject, node, DomainOf(node), "", AccessMode::kAdministrate,
              Decision{false, DenyReason::kMacFlow, "relabel violates information flow"});
        return PermissionDeniedError("relabel violates information flow");
      }
    }
  }
  if (snap.own_label_ref == kNoRef) {
    return name_space_->SetLabelRef(node, labels_->StoreLabel(label, snap.shard));
  }
  return labels_->ReplaceLabel(snap.own_label_ref, label);
}

Status ReferenceMonitor::SetOwner(const Subject& subject, NodeId node, PrincipalId new_owner) {
  NameSpace::SecuritySnapshot snap;
  XSEC_RETURN_IF_ERROR(AuthorizeAdministrate(subject, node, "set-owner", &snap));
  if (principals_->Get(new_owner) == nullptr) {
    return NotFoundError("new owner does not exist");
  }
  return name_space_->SetOwner(node, new_owner);
}

}  // namespace xsec
