#include "src/extsys/kernel.h"

#include "src/base/failpoint.h"
#include "src/base/strings.h"
#include "src/extsys/supervisor.h"
#include "src/monitor/monitor_stats.h"

namespace xsec {

namespace {

// The CallContext of the handler running on this thread (null outside any
// handler). This is what lets a nested Invoke from inside a handler inherit
// the caller's remaining deadline: the child context is capped to the
// parent's bound, so a 2-deep chain expires exactly once instead of the
// inner call running unbounded (the pre-supervision bug).
thread_local const CallContext* g_active_call = nullptr;

struct ScopedCall {
  const CallContext* prev;
  explicit ScopedCall(const CallContext* ctx) : prev(g_active_call) { g_active_call = ctx; }
  ~ScopedCall() { g_active_call = prev; }
};

}  // namespace

bool CallContext::Cancelled() const {
  if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
    return true;
  }
  return deadline_ns != 0 && MonotonicNowNs() >= deadline_ns;
}

Status CallContext::CheckDeadline() const {
  if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
    return CancelledError("call cancelled by the caller");
  }
  if (deadline_ns != 0 && MonotonicNowNs() >= deadline_ns) {
    return DeadlineExceededError("call deadline expired in handler");
  }
  return OkStatus();
}

std::string_view OriginName(Origin origin) {
  switch (origin) {
    case Origin::kLocal:
      return "local";
    case Origin::kOrganization:
      return "organization";
    case Origin::kRemote:
      return "remote";
  }
  return "unknown";
}

Kernel::Kernel(MonitorOptions options) {
  monitor_ = std::make_unique<ReferenceMonitor>(&name_space_, &acls_, &principals_, &labels_,
                                                options);
  system_ = *principals_.CreateUser("system");
  (void)name_space_.SetOwner(name_space_.root(), system_);
}

Subject Kernel::SystemSubject() {
  return Subject{system_, labels_.Top(), next_thread_id_.fetch_add(1, std::memory_order_relaxed)};
}

Subject Kernel::CreateSubject(PrincipalId principal, const SecurityClass& security_class) {
  return Subject{principal, security_class, next_thread_id_.fetch_add(1, std::memory_order_relaxed)};
}

StatusOr<NodeId> Kernel::RegisterService(std::string_view path, PrincipalId owner) {
  return name_space_.BindPath(path, NodeKind::kService, owner);
}

StatusOr<NodeId> Kernel::RegisterInterface(std::string_view path, PrincipalId owner) {
  return name_space_.BindPath(path, NodeKind::kInterface, owner);
}

StatusOr<NodeId> Kernel::RegisterProcedure(std::string_view path, PrincipalId owner,
                                           HandlerFn handler) {
  auto node = name_space_.BindPath(path, NodeKind::kProcedure, owner);
  if (!node.ok()) {
    return node.status();
  }
  procedures_[node->value] = std::move(handler);
  return node;
}

Status Kernel::SetProcedureHandler(NodeId node, HandlerFn handler) {
  const Node* n = name_space_.Get(node);
  if (n == nullptr || n->kind != NodeKind::kProcedure) {
    return NotFoundError("not a live procedure node");
  }
  procedures_[node.value] = std::move(handler);
  return OkStatus();
}

const CallContext* Kernel::CurrentCallContext() { return g_active_call; }

CallOptions Kernel::CapToParent(const CallOptions& options) {
  const CallContext* parent = g_active_call;
  if (parent == nullptr) {
    return options;
  }
  CallOptions capped = options;
  // A child may tighten its bound but never outlive the parent's; an
  // unbounded child (deadline 0) inherits the parent's bound outright.
  if (parent->deadline_ns != 0 &&
      (capped.deadline_ns == 0 || capped.deadline_ns > parent->deadline_ns)) {
    capped.deadline_ns = parent->deadline_ns;
  }
  if (capped.cancel == nullptr) {
    capped.cancel = parent->cancel;
  }
  return capped;
}

StatusOr<Value> Kernel::RunHandler(Subject& subject, const std::string* supervised_name,
                                   const HandlerFn& handler, Args args,
                                   const CallOptions& options) {
  ExtensionSupervisor::Permit permit;
  uint64_t deadline = options.deadline_ns;
  if (supervisor_ != nullptr && supervised_name != nullptr) {
    auto admitted = supervisor_->Admit(*supervised_name, deadline);
    if (!admitted.ok()) {
      return admitted.status();
    }
    permit = std::move(*admitted);
    if (permit.active()) {
      deadline = permit.deadline_ns();
      // The per-extension injection site (ext.invoke.<name>) fires inside
      // the supervised window: an armed error spec is recorded as the
      // extension failing, and a sleep spec that overruns the budget is
      // recorded as the timeout it simulates.
      Failpoint* fault = permit.fault();
      if (fault != nullptr && fault->armed()) {
        Status injected = fault->Evaluate();
        if (!injected.ok()) {
          permit.Complete(injected);
          return injected;
        }
        if (deadline != 0 && MonotonicNowNs() >= deadline) {
          Status timeout = DeadlineExceededError(StrFormat(
              "extension '%s' exceeded its invoke budget", supervised_name->c_str()));
          permit.Complete(timeout);
          return timeout;
        }
      }
    }
  }
  CallContext ctx{this, &subject, std::move(args), deadline, options.cancel};
  ScopedCall scope(&ctx);
  auto result = handler(ctx);
  if (permit.active()) {
    permit.Complete(result.ok() ? OkStatus() : result.status());
  }
  return result;
}

StatusOr<std::vector<const EventDispatcher::HandlerRecord*>> Kernel::SelectHandlers(
    NodeId node, const SecurityClass& security_class, DispatchMode mode) const {
  EventDispatcher::EligibleFn available;
  if (supervisor_ != nullptr) {
    available = [this](const EventDispatcher::HandlerRecord& record) {
      const LinkedExtension* ext = GetExtension(record.extension);
      return ext == nullptr || supervisor_->Selectable(ext->name);
    };
  }
  return dispatcher_.Select(node, security_class, mode, available);
}

StatusOr<Value> Kernel::InvokeNode(Subject& subject, NodeId node, Args args,
                                   const CallOptions& caller_options) {
  // Dispatch-layer injection point: fires after mediation (the caller has
  // already passed its execute check) and before any handler runs, so fault
  // sweeps can fail or delay every invocation path (Invoke, CallCapability,
  // interface dispatch) at one choke point.
  XSEC_FAILPOINT("kernel.invoke");
  CallOptions options = CapToParent(caller_options);
  if (options.deadline_ns != 0 && MonotonicNowNs() >= options.deadline_ns) {
    return DeadlineExceededError(
        StrFormat("deadline expired before invoking '%s'", name_space_.PathOf(node).c_str()));
  }
  const Node* n = name_space_.Get(node);
  if (n == nullptr) {
    return NotFoundError("node vanished");
  }
  if (n->kind == NodeKind::kInterface) {
    // An extended service: select the right extension for this caller.
    auto selected = SelectHandlers(node, subject.security_class, DispatchMode::kClassSelected);
    if (!selected.ok()) {
      return selected.status();
    }
    const EventDispatcher::HandlerRecord* record = selected->front();
    const LinkedExtension* ext = GetExtension(record->extension);
    return RunHandler(subject, ext != nullptr ? &ext->name : nullptr, record->handler,
                      std::move(args), options);
  }
  auto it = procedures_.find(node.value);
  if (it == procedures_.end()) {
    return FailedPreconditionError(
        StrFormat("'%s' has no bound implementation", name_space_.PathOf(node).c_str()));
  }
  // Procedures are supervised when some name registered this node (service
  // nodes are opted in by the embedder; extensions register automatically).
  const std::string* supervised =
      supervisor_ != nullptr ? supervisor_->NameOfNode(node) : nullptr;
  return RunHandler(subject, supervised, it->second, std::move(args), options);
}

StatusOr<Value> Kernel::Invoke(Subject& subject, std::string_view path, Args args,
                               const CallOptions& options) {
  NodeId node;
  Decision decision = monitor_->CheckPath(subject, path, AccessMode::kExecute, &node);
  if (!decision.allowed) {
    return decision.ToStatus();
  }
  return InvokeNode(subject, node, std::move(args), options);
}

StatusOr<Value> Kernel::CallCapability(Subject& subject, const Capability& capability,
                                       Args args, const CallOptions& options) {
  Decision decision = monitor_->Check(subject, capability.node, AccessMode::kExecute);
  if (!decision.allowed) {
    return decision.ToStatus();
  }
  return InvokeNode(subject, capability.node, std::move(args), options);
}

StatusOr<Value> Kernel::RaiseEvent(Subject& subject, std::string_view interface_path, Args args,
                                   DispatchMode mode, const CallOptions& caller_options) {
  CallOptions options = CapToParent(caller_options);
  if (options.deadline_ns != 0 && MonotonicNowNs() >= options.deadline_ns) {
    return DeadlineExceededError(
        StrFormat("deadline expired before raising '%s'", std::string(interface_path).c_str()));
  }
  NodeId node;
  Decision decision = monitor_->CheckPath(subject, interface_path, AccessMode::kExecute, &node);
  if (!decision.allowed) {
    return decision.ToStatus();
  }
  auto selected = SelectHandlers(node, subject.security_class, mode);
  if (!selected.ok()) {
    return selected.status();
  }
  Value last;
  for (const EventDispatcher::HandlerRecord* record : *selected) {
    {
      // Cancellation point between broadcast handlers: a long chain gives up
      // at the next handler boundary instead of running to completion.
      CallContext boundary{this, &subject, {}, options.deadline_ns, options.cancel};
      XSEC_RETURN_IF_ERROR(boundary.CheckDeadline());
    }
    const LinkedExtension* ext = GetExtension(record->extension);
    auto result = RunHandler(subject, ext != nullptr ? &ext->name : nullptr, record->handler,
                             args, options);
    if (!result.ok()) {
      // A handler quarantined between selection and admission is skipped,
      // matching what selection itself would have done a moment later.
      if (mode == DispatchMode::kBroadcast &&
          result.status().code() == StatusCode::kUnavailable) {
        continue;
      }
      return result.status();
    }
    last = std::move(*result);
  }
  return last;
}

StatusOr<ExtensionId> Kernel::LoadExtension(const ExtensionManifest& manifest,
                                            const Subject& loader) {
  if (manifest.name.empty()) {
    return InvalidArgumentError("extension name must be nonempty");
  }
  SecurityClass handler_class = manifest.static_class.value_or(loader.security_class);
  // Link-time checks run at the class the extension will be registered at: a
  // statically downgraded extension must not link against services its
  // runtime class could never reach.
  Subject link_subject{loader.principal, handler_class, loader.thread_id};

  auto node = name_space_.BindPath(JoinPath("/ext", manifest.name), NodeKind::kObject,
                                   loader.principal);
  if (!node.ok()) {
    return node.status();
  }

  LinkedExtension linked;
  linked.name = manifest.name;
  linked.principal = loader.principal;
  linked.handler_class = handler_class;
  linked.node = *node;

  auto rollback = [this, &node] { (void)name_space_.Unbind(*node); };

  // Imports: one `execute` check per imported procedure (experiment F5
  // measures this against SPIN's per-domain all-or-nothing linking).
  for (const std::string& import : manifest.imports) {
    NodeId target;
    Decision decision =
        monitor_->CheckPath(link_subject, import, AccessMode::kExecute, &target);
    if (!decision.allowed) {
      rollback();
      return PermissionDeniedError(StrFormat("link failure: import '%s': %s", import.c_str(),
                                             decision.detail.c_str()));
    }
    linked.imports.push_back(Capability{target, import});
  }

  // Exports: one `extend` check per specialized interface.
  for (const ExportSpec& spec : manifest.exports) {
    NodeId target;
    Decision decision =
        monitor_->CheckPath(link_subject, spec.interface_path, AccessMode::kExtend, &target);
    if (!decision.allowed) {
      rollback();
      return PermissionDeniedError(StrFormat("link failure: export '%s': %s",
                                             spec.interface_path.c_str(),
                                             decision.detail.c_str()));
    }
    const Node* target_node = name_space_.Get(target);
    if (target_node->kind != NodeKind::kInterface) {
      rollback();
      return FailedPreconditionError(
          StrFormat("'%s' is not an extensible interface", spec.interface_path.c_str()));
    }
    linked.export_points.push_back(target);
  }

  ExtensionId id{static_cast<uint32_t>(extensions_.size())};
  linked.id = id;
  // Register handlers only after every check passed (no partial linking).
  for (const ExportSpec& spec : manifest.exports) {
    NodeId target = linked.export_points[&spec - manifest.exports.data()];
    dispatcher_.Register(target, id, handler_class, spec.handler);
  }
  extensions_.push_back(std::move(linked));
  ++loaded_count_;
  if (supervisor_ != nullptr) {
    supervisor_->Register(manifest.name, *node);
  }
  return id;
}

Status Kernel::UnloadExtension(const Subject& subject, ExtensionId id) {
  if (id.value >= extensions_.size() || !extensions_[id.value].has_value()) {
    return NotFoundError("no such extension");
  }
  LinkedExtension& ext = *extensions_[id.value];
  if (subject.principal != ext.principal) {
    NameSpace::SecuritySnapshot snap;
    if (!monitor_->AuthorizeAdministrate(subject, ext.node, "unload", &snap).ok()) {
      return PermissionDeniedError(
          StrFormat("not authorized to unload extension '%s'", ext.name.c_str()));
    }
  }
  dispatcher_.UnregisterExtension(id);
  (void)name_space_.Unbind(ext.node);
  extensions_[id.value].reset();
  --loaded_count_;
  return OkStatus();
}

const LinkedExtension* Kernel::GetExtension(ExtensionId id) const {
  if (id.value >= extensions_.size() || !extensions_[id.value].has_value()) {
    return nullptr;
  }
  return &*extensions_[id.value];
}

}  // namespace xsec
