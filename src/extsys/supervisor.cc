#include "src/extsys/supervisor.h"

#include <algorithm>

#include "src/base/failpoint.h"
#include "src/base/strings.h"
#include "src/extsys/system_paths.h"
#include "src/monitor/monitor_stats.h"

namespace xsec {

namespace {

// What counts against the breaker: the extension misbehaving (wedging past
// its budget, crashing internally, being refused downstream), not the caller
// changing its mind (kCancelled) and not policy verdicts (kPermissionDenied,
// kNotFound, ...), which are the monitor doing its job.
bool IsBreakerFailure(StatusCode code) {
  switch (code) {
    case StatusCode::kDeadlineExceeded:
    case StatusCode::kInternal:
    case StatusCode::kUnavailable:
    case StatusCode::kResourceExhausted:
      return true;
    default:
      return false;
  }
}

std::string HealthLeafPath(std::string_view name) {
  return StrFormat("%s/ext/%s/state", std::string(kHealthMountPath).c_str(),
                   std::string(name).c_str());
}

}  // namespace

std::string_view ExtHealthName(ExtHealth state) {
  switch (state) {
    case ExtHealth::kHealthy:
      return "healthy";
    case ExtHealth::kQuarantined:
      return "quarantined";
    case ExtHealth::kProbing:
      return "probing";
  }
  return "unknown";
}

std::string_view SystemHealthName(SystemHealth state) {
  switch (state) {
    case SystemHealth::kHealthy:
      return "healthy";
    case SystemHealth::kDegraded:
      return "degraded";
    case SystemHealth::kLockdown:
      return "lockdown";
  }
  return "unknown";
}

ExtensionSupervisor::ExtensionSupervisor(ReferenceMonitor* monitor, SupervisorOptions options)
    : monitor_(monitor), options_(options) {}

void ExtensionSupervisor::Register(std::string_view name, NodeId node,
                                   std::optional<ExtensionBudget> budget) {
  std::string key(name);
  bool fresh = false;
  {
    std::unique_lock<std::shared_mutex> lock(registry_mu_);
    auto it = by_name_.find(key);
    if (it == by_name_.end()) {
      auto entry = std::make_unique<Entry>();
      entry->name = key;
      entry->node = node;
      entry->budget = budget.value_or(options_.default_budget);
      // Resolved here, once: the XSEC_FAILPOINT macros cache one name per
      // call site and cannot carry a per-extension name.
      entry->fault = FailpointRegistry::Instance().GetOrCreate(
          StrFormat("ext.invoke.%s", key.c_str()));
      it = by_name_.emplace(key, std::move(entry)).first;
      fresh = true;
    } else {
      std::lock_guard<std::mutex> entry_lock(it->second->mu);
      // Re-registration (an extension reloaded after an unload): the node
      // moves, history stays, and an explicit budget replaces the old one.
      it->second->node = node;
      if (budget.has_value()) {
        it->second->budget = *budget;
      }
    }
    by_node_[node.value] = it->second.get();
  }
  if (fresh) {
    std::function<void(const std::string&)> hook;
    {
      std::lock_guard<std::mutex> lock(hook_mu_);
      hook = registration_hook_;
    }
    if (hook) {
      hook(key);
    }
  }
}

void ExtensionSupervisor::SetBudget(std::string_view name, const ExtensionBudget& budget) {
  Entry* entry = Find(name);
  if (entry == nullptr) {
    return;
  }
  std::lock_guard<std::mutex> lock(entry->mu);
  entry->budget = budget;
}

bool ExtensionSupervisor::IsRegistered(std::string_view name) const {
  return Find(name) != nullptr;
}

ExtensionSupervisor::Entry* ExtensionSupervisor::Find(std::string_view name) const {
  std::shared_lock<std::shared_mutex> lock(registry_mu_);
  auto it = by_name_.find(std::string(name));
  return it == by_name_.end() ? nullptr : it->second.get();
}

const std::string* ExtensionSupervisor::NameOfNode(NodeId node) const {
  std::shared_lock<std::shared_mutex> lock(registry_mu_);
  auto it = by_node_.find(node.value);
  return it == by_node_.end() ? nullptr : &it->second->name;
}

// -- Permit ------------------------------------------------------------------

ExtensionSupervisor::Permit& ExtensionSupervisor::Permit::operator=(Permit&& other) noexcept {
  if (this != &other) {
    if (entry_ != nullptr) {
      supervisor_->RecordOutcome(entry_, OkStatus(), probe_);
    }
    supervisor_ = other.supervisor_;
    entry_ = other.entry_;
    deadline_ns_ = other.deadline_ns_;
    probe_ = other.probe_;
    other.entry_ = nullptr;
    other.supervisor_ = nullptr;
  }
  return *this;
}

ExtensionSupervisor::Permit::~Permit() {
  if (entry_ != nullptr) {
    supervisor_->RecordOutcome(entry_, OkStatus(), probe_);
  }
}

Failpoint* ExtensionSupervisor::Permit::fault() const {
  return entry_ == nullptr ? nullptr : entry_->fault;
}

void ExtensionSupervisor::Permit::Complete(const Status& status) {
  if (entry_ == nullptr) {
    return;
  }
  supervisor_->RecordOutcome(entry_, status, probe_);
  entry_ = nullptr;
  supervisor_ = nullptr;
}

// -- Admission ---------------------------------------------------------------

StatusOr<ExtensionSupervisor::Permit> ExtensionSupervisor::Admit(std::string_view name,
                                                                 uint64_t caller_deadline_ns) {
  Entry* entry = Find(name);
  if (entry == nullptr) {
    return Permit{};  // unsupervised: pass through unobserved
  }
  bool probe = false;
  uint64_t deadline = caller_deadline_ns;
  {
    std::lock_guard<std::mutex> lock(entry->mu);
    const ExtensionBudget& budget = entry->budget;
    // The clock is read only for an open breaker's dwell or a budget deadline.
    const uint64_t now =
        entry->breaker.closed() && budget.invoke_budget_ns == 0 ? 0 : MonotonicNowNs();
    const CircuitBreaker::Admission admission = entry->breaker.Admit(budget, now);
    if (admission == CircuitBreaker::Admission::kRejected) {
      entry->rejected.fetch_add(1, std::memory_order_relaxed);
      // Half-open: one probe at a time; everyone else keeps failing fast
      // until it reports back.
      const bool probing = entry->breaker.state() == CircuitBreaker::State::kHalfOpen;
      return UnavailableError(StrFormat("extension '%s' is quarantined%s", entry->name.c_str(),
                                        probing ? " (probe in flight)" : ""));
    }
    // A probe admission IS the probe deciding the circuit.
    probe = admission == CircuitBreaker::Admission::kProbe;
    if (!probe && budget.max_inflight != 0 && entry->inflight >= budget.max_inflight) {
      return ResourceExhaustedError(StrFormat("extension '%s' is at its in-flight budget (%u)",
                                              entry->name.c_str(), budget.max_inflight));
    }
    ++entry->inflight;
    entry->invokes.fetch_add(1, std::memory_order_relaxed);
    if (budget.invoke_budget_ns != 0) {
      uint64_t budget_deadline = now + budget.invoke_budget_ns;
      if (deadline == 0 || budget_deadline < deadline) {
        deadline = budget_deadline;
      }
    }
  }
  Permit permit;
  permit.supervisor_ = this;
  permit.entry_ = entry;
  permit.deadline_ns_ = deadline;
  permit.probe_ = probe;
  return permit;
}

bool ExtensionSupervisor::Selectable(std::string_view name) const {
  Entry* entry = Find(name);
  if (entry == nullptr) {
    return true;
  }
  std::lock_guard<std::mutex> lock(entry->mu);
  // Quarantined: selectable only when the admission would be the probe (a
  // probe in flight decides alone; others go elsewhere). The clock is read
  // only then.
  return entry->breaker.closed() || entry->breaker.Admits(entry->budget, MonotonicNowNs());
}

// -- Breaker -----------------------------------------------------------------

void ExtensionSupervisor::RecordOutcome(Entry* entry, const Status& status, bool probe) {
  CircuitBreaker::Transition transition;
  {
    std::lock_guard<std::mutex> lock(entry->mu);
    if (entry->inflight > 0) {
      --entry->inflight;
    }
    if (status.ok() || !IsBreakerFailure(status.code())) {
      if (!status.ok()) {
        entry->failures.fetch_add(1, std::memory_order_relaxed);
      }
      transition = entry->breaker.RecordSuccess(probe);
      if (transition == CircuitBreaker::Transition::kRecovered) {
        entry->releases.fetch_add(1, std::memory_order_relaxed);
        quarantined_count_.fetch_sub(1, std::memory_order_relaxed);
      }
    } else {
      entry->failures.fetch_add(1, std::memory_order_relaxed);
      if (status.code() == StatusCode::kDeadlineExceeded) {
        entry->timeouts.fetch_add(1, std::memory_order_relaxed);
      }
      // A failed probe reopens the breaker and restarts the dwell. Still
      // the same quarantine episode: no new trip is counted or audited.
      transition = entry->breaker.RecordFailure(entry->budget, probe, MonotonicNowNs());
      if (transition == CircuitBreaker::Transition::kTripped) {
        entry->trips.fetch_add(1, std::memory_order_relaxed);
        quarantined_count_.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  if (transition == CircuitBreaker::Transition::kTripped) {
    AuditTransition(entry, /*quarantined=*/true,
                    StrFormat("breaker tripped after consecutive failures (last: %s)",
                              status.ToString().c_str()));
    RecomputeSystemHealth("breaker trip");
  }
  if (transition == CircuitBreaker::Transition::kRecovered) {
    AuditTransition(entry, /*quarantined=*/false, "half-open probe succeeded");
    RecomputeSystemHealth("probe recovery");
  }
}

// -- Operator actions --------------------------------------------------------

Status ExtensionSupervisor::Quarantine(std::string_view name, std::string_view why) {
  Entry* entry = Find(name);
  if (entry == nullptr) {
    return NotFoundError(StrFormat("'%s' is not supervised", std::string(name).c_str()));
  }
  {
    std::lock_guard<std::mutex> lock(entry->mu);
    CircuitBreaker::State found = entry->breaker.ForceOpen(MonotonicNowNs());
    if (found == CircuitBreaker::State::kOpen) {
      return OkStatus();  // idempotent
    }
    if (found == CircuitBreaker::State::kClosed) {
      // Half-open is already counted (quarantine never released).
      quarantined_count_.fetch_add(1, std::memory_order_relaxed);
    }
    entry->trips.fetch_add(1, std::memory_order_relaxed);
  }
  AuditTransition(entry, /*quarantined=*/true, std::string(why));
  RecomputeSystemHealth("operator quarantine");
  return OkStatus();
}

Status ExtensionSupervisor::Release(std::string_view name, std::string_view why) {
  Entry* entry = Find(name);
  if (entry == nullptr) {
    return NotFoundError(StrFormat("'%s' is not supervised", std::string(name).c_str()));
  }
  {
    std::lock_guard<std::mutex> lock(entry->mu);
    if (entry->breaker.Reset() == CircuitBreaker::State::kClosed) {
      return FailedPreconditionError(
          StrFormat("extension '%s' is not quarantined", entry->name.c_str()));
    }
    entry->releases.fetch_add(1, std::memory_order_relaxed);
    quarantined_count_.fetch_sub(1, std::memory_order_relaxed);
  }
  AuditTransition(entry, /*quarantined=*/false, std::string(why));
  RecomputeSystemHealth("mediated release");
  return OkStatus();
}

void ExtensionSupervisor::ArmLockdown(bool on, std::string_view why) {
  operator_lockdown_.store(on, std::memory_order_relaxed);
  RecomputeSystemHealth(why);
}

// -- Audit plumbing ----------------------------------------------------------

void ExtensionSupervisor::AuditTransition(const Entry* entry, bool quarantined,
                                          std::string detail) {
  AuditLog& audit = monitor_->audit();
  if (!audit.WouldRetain(/*allowed=*/!quarantined)) {
    return;
  }
  AuditRecord record;
  record.principal = options_.audit_principal;
  record.node = entry->node;
  record.path = HealthLeafPath(entry->name);
  record.modes = AccessModeSet(AccessMode::kExecute);
  record.allowed = !quarantined;
  record.reason = quarantined ? DenyReason::kQuarantined : DenyReason::kNone;
  record.detail = StrFormat("supervision: '%s' -> %s: %s", entry->name.c_str(),
                            quarantined ? "quarantined" : "healthy", detail.c_str());
  audit.Record(std::move(record));
}

void ExtensionSupervisor::AuditSystemTransition(SystemHealth from, SystemHealth to,
                                                std::string detail) {
  AuditLog& audit = monitor_->audit();
  bool allowed = to == SystemHealth::kHealthy;
  if (!audit.WouldRetain(allowed)) {
    return;
  }
  AuditRecord record;
  record.principal = options_.audit_principal;
  record.path = std::string(kHealthMountPath) + "/state";
  record.modes = AccessModeSet(AccessMode::kExtend);
  record.allowed = allowed;
  record.reason = allowed ? DenyReason::kNone : DenyReason::kQuarantined;
  record.detail = StrFormat("supervision: monitor health %s -> %s: %s",
                            std::string(SystemHealthName(from)).c_str(),
                            std::string(SystemHealthName(to)).c_str(), detail.c_str());
  audit.Record(std::move(record));
}

void ExtensionSupervisor::RecomputeSystemHealth(std::string_view why) {
  std::lock_guard<std::mutex> lock(health_mu_);
  size_t quarantined = quarantined_count_.load(std::memory_order_relaxed);
  bool cascade = options_.lockdown_after != 0 && quarantined >= options_.lockdown_after;
  bool lockdown = operator_lockdown_.load(std::memory_order_relaxed) || cascade;
  SystemHealth next = SystemHealth::kHealthy;
  if (lockdown) {
    next = SystemHealth::kLockdown;
  } else if (options_.degraded_after != 0 && quarantined >= options_.degraded_after) {
    next = SystemHealth::kDegraded;
  }
  SystemHealth prev = system_health_.exchange(next, std::memory_order_relaxed);
  // The monitor enforces; the supervisor decides. Set unconditionally so the
  // flag can never drift from the computed state.
  monitor_->set_lockdown(lockdown);
  if (prev != next) {
    AuditSystemTransition(prev, next, std::string(why));
  }
}

// -- Telemetry ---------------------------------------------------------------

ExtensionSupervisor::ExtSnapshot ExtensionSupervisor::SnapshotEntry(const Entry& entry) const {
  ExtSnapshot snap;
  snap.name = entry.name;
  snap.invokes = entry.invokes.load(std::memory_order_relaxed);
  snap.failures = entry.failures.load(std::memory_order_relaxed);
  snap.timeouts = entry.timeouts.load(std::memory_order_relaxed);
  snap.trips = entry.trips.load(std::memory_order_relaxed);
  snap.releases = entry.releases.load(std::memory_order_relaxed);
  snap.rejected = entry.rejected.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(entry.mu);
  snap.node = entry.node;
  snap.state = static_cast<ExtHealth>(entry.breaker.state());
  snap.inflight = entry.inflight;
  return snap;
}

std::optional<ExtensionSupervisor::ExtSnapshot> ExtensionSupervisor::Snapshot(
    std::string_view name) const {
  Entry* entry = Find(name);
  if (entry == nullptr) {
    return std::nullopt;
  }
  return SnapshotEntry(*entry);
}

std::vector<ExtensionSupervisor::ExtSnapshot> ExtensionSupervisor::SnapshotAll() const {
  std::vector<const Entry*> entries;
  {
    std::shared_lock<std::shared_mutex> lock(registry_mu_);
    entries.reserve(by_name_.size());
    for (const auto& [name, entry] : by_name_) {
      entries.push_back(entry.get());
    }
  }
  std::vector<ExtSnapshot> out;
  out.reserve(entries.size());
  for (const Entry* entry : entries) {
    out.push_back(SnapshotEntry(*entry));
  }
  std::sort(out.begin(), out.end(),
            [](const ExtSnapshot& a, const ExtSnapshot& b) { return a.name < b.name; });
  return out;
}

void ExtensionSupervisor::SetRegistrationHook(std::function<void(const std::string&)> hook) {
  std::vector<std::string> existing;
  {
    std::shared_lock<std::shared_mutex> lock(registry_mu_);
    existing.reserve(by_name_.size());
    for (const auto& [name, entry] : by_name_) {
      existing.push_back(name);
    }
  }
  {
    std::lock_guard<std::mutex> lock(hook_mu_);
    registration_hook_ = hook;
  }
  if (hook) {
    std::sort(existing.begin(), existing.end());
    for (const std::string& name : existing) {
      hook(name);
    }
  }
}

}  // namespace xsec
