#include "src/services/fault_service.h"

#include <utility>

#include "src/base/failpoint.h"
#include "src/base/strings.h"
#include "src/extsys/system_paths.h"
#include "src/naming/path.h"

namespace xsec {

FaultService::FaultService(Kernel* kernel) : kernel_(kernel) {}

Status FaultService::Install() {
  PrincipalId system = kernel_->system_principal();
  auto mount = kernel_->name_space().BindPath(kFaultMountPath, NodeKind::kDirectory, system);
  if (!mount.ok()) {
    return mount.status();
  }
  // Fail-closed: faults are a way to break the system on purpose, so the
  // mount root carries an own ACL (overriding any permissive inherited
  // default) granting the system principal only. Deployments that want a
  // chaos-testing role widen it with ordinary AddAclEntry calls.
  Acl restricted;
  restricted.AddEntry({AclEntryType::kAllow, system,
                       AccessMode::kRead | AccessMode::kList | AccessMode::kAdministrate});
  XSEC_RETURN_IF_ERROR(
      kernel_->name_space().SetAclRef(*mount, kernel_->acls().Create(std::move(restricted))));

  auto proc = [this, system](std::string_view name, HandlerFn fn) -> Status {
    auto node =
        kernel_->RegisterProcedure(JoinPath(kFaultServicePath, name), system, std::move(fn));
    return node.ok() ? OkStatus() : node.status();
  };

  XSEC_RETURN_IF_ERROR(proc("arm", [this](CallContext& ctx) -> StatusOr<Value> {
    auto name = ArgString(ctx.args, 0);
    auto spec = ArgString(ctx.args, 1);
    if (!name.ok()) {
      return name.status();
    }
    if (!spec.ok()) {
      return spec.status();
    }
    auto state = Arm(*ctx.subject, *name, *spec);
    if (!state.ok()) {
      return state.status();
    }
    return Value{std::move(*state)};
  }));
  XSEC_RETURN_IF_ERROR(proc("read", [this](CallContext& ctx) -> StatusOr<Value> {
    auto name = ArgString(ctx.args, 0);
    if (!name.ok()) {
      return name.status();
    }
    auto state = ReadFault(*ctx.subject, *name);
    if (!state.ok()) {
      return state.status();
    }
    return Value{std::move(*state)};
  }));
  XSEC_RETURN_IF_ERROR(proc("list", [this](CallContext& ctx) -> StatusOr<Value> {
    auto listing = List(*ctx.subject);
    if (!listing.ok()) {
      return listing.status();
    }
    return Value{std::move(*listing)};
  }));
  return OkStatus();
}

StatusOr<NodeId> FaultService::CheckLeaf(Subject& subject, std::string_view name,
                                         AccessModeSet modes) {
  if (!IsValidComponent(name)) {
    return InvalidArgumentError(
        StrFormat("'%s' is not a valid failpoint name", std::string(name).c_str()));
  }
  std::string full = JoinPath(kFaultMountPath, name);
  auto leaf = kernel_->name_space().Lookup(full);
  if (!leaf.ok()) {
    // An unbound leaf would inherit the mount's ACL and label, so the mount
    // decides whether it may be bound at all; a denied caller binds nothing.
    auto mount = kernel_->name_space().Lookup(kFaultMountPath);
    if (!mount.ok()) {
      return mount.status();
    }
    Decision decision = kernel_->monitor().Check(subject, *mount, modes);
    if (!decision.allowed) {
      return decision.ToStatus();
    }
    leaf = kernel_->name_space().BindPath(full, NodeKind::kFile, kernel_->system_principal());
    if (!leaf.ok()) {
      return leaf.status();
    }
  }
  // The real monitor path: the decision — allow or deny — is counted in the
  // stats and written to the audit trail under the leaf's own name, so every
  // arming of a fault is on the record.
  Decision decision = kernel_->monitor().Check(subject, *leaf, modes);
  if (!decision.allowed) {
    return decision.ToStatus();
  }
  return leaf;
}

StatusOr<std::string> FaultService::Arm(Subject& subject, std::string_view name,
                                        std::string_view spec) {
  auto node = CheckLeaf(subject, name, AccessMode::kAdministrate);
  if (!node.ok()) {
    return node.status();
  }
  XSEC_RETURN_IF_ERROR(FailpointRegistry::Instance().Arm(name, spec));
  Failpoint* point = FailpointRegistry::Instance().Find(name);
  return point == nullptr ? std::string("off") : point->Describe();
}

StatusOr<std::string> FaultService::ReadFault(Subject& subject, std::string_view name) {
  auto node = CheckLeaf(subject, name, AccessMode::kRead);
  if (!node.ok()) {
    return node.status();
  }
  Failpoint* point = FailpointRegistry::Instance().Find(name);
  return point == nullptr ? std::string("off") : point->Describe();
}

StatusOr<std::string> FaultService::List(Subject& subject) {
  auto mount = kernel_->name_space().Lookup(kFaultMountPath);
  if (!mount.ok()) {
    return mount.status();
  }
  Decision decision = kernel_->monitor().Check(subject, *mount, AccessMode::kList);
  if (!decision.allowed) {
    return decision.ToStatus();
  }
  std::string out;
  FailpointRegistry& registry = FailpointRegistry::Instance();
  for (const std::string& name : registry.Names()) {
    Failpoint* point = registry.Find(name);
    if (point == nullptr) {
      continue;
    }
    out += StrFormat("%s %s\n", name.c_str(), point->Describe().c_str());
  }
  return out;
}

}  // namespace xsec
