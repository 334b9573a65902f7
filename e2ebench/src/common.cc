#include "e2ebench/src/common.h"

#include <algorithm>
#include <cstdlib>
#include <cstdio>
#include <unordered_set>

#include "e2ebench/src/workload.h"
#include "src/naming/path.h"

namespace xsec::e2e {

// -- PolicyModel --------------------------------------------------------------

PolicyModel::PolicyModel() {
  principals_.push_back({"system", false, {}});
  principals_.push_back({"everyone", true, {}});
  AddUser("dev");
  Node root;
  root.kind = MKind::kExisting;
  root.path = "/";
  root.has_acl = true;  // SecureSystem's default: the hierarchy is browsable
  root.acl = {MAce{false, kEveryone,
                   static_cast<uint32_t>(AccessMode::kList) |
                       static_cast<uint32_t>(AccessMode::kRead)}};
  root.has_label = true;  // the root carries bottom
  nodes_.push_back(std::move(root));
  int svc = AddNode(0, "svc", MKind::kExisting);
  // ... and services are callable by everyone.
  nodes_[svc].has_acl = true;
  nodes_[svc].acl = {MAce{false, kEveryone,
                          static_cast<uint32_t>(AccessMode::kList) |
                              static_cast<uint32_t>(AccessMode::kExecute)}};
}

int PolicyModel::AddUser(std::string name) {
  principals_.push_back({std::move(name), false, {kEveryone}});
  return static_cast<int>(principals_.size() - 1);
}

int PolicyModel::AddGroup(std::string name) {
  principals_.push_back({std::move(name), true, {}});
  return static_cast<int>(principals_.size() - 1);
}

void PolicyModel::AddMember(int group, int member) {
  principals_[member].member_of.push_back(group);
  closure_.clear();
}

int PolicyModel::AddNode(int parent, std::string name, MKind kind) {
  Node node;
  node.parent = parent;
  node.path = nodes_[parent].path == "/" ? "/" + name : nodes_[parent].path + "/" + name;
  node.name = std::move(name);
  node.kind = kind;
  nodes_.push_back(std::move(node));
  return static_cast<int>(nodes_.size() - 1);
}

int PolicyModel::Find(std::string_view path) const {
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].path == path) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

void PolicyModel::SetAcl(int node, std::vector<MAce> acl) {
  nodes_[node].has_acl = true;
  nodes_[node].acl = std::move(acl);
}

void PolicyModel::AddAce(int node, MAce ace) {
  Node& n = nodes_[node];
  if (!n.has_acl) {
    n.acl = nodes_[EffectiveAclNode(node)].acl;
    n.has_acl = true;
  }
  for (MAce& existing : n.acl) {
    if (existing.deny == ace.deny && existing.who == ace.who) {
      existing.modes |= ace.modes;
      return;
    }
  }
  n.acl.push_back(ace);
}

void PolicyModel::RemoveAcesFor(int node, int who) {
  Node& n = nodes_[node];
  if (!n.has_acl) {
    return;
  }
  std::erase_if(n.acl, [who](const MAce& ace) { return ace.who == who; });
}

void PolicyModel::SetLabel(int node, MClass label) {
  nodes_[node].has_label = true;
  nodes_[node].label = label;
}

int PolicyModel::EffectiveAclNode(int node) const {
  while (!nodes_[node].has_acl) {
    node = nodes_[node].parent;
  }
  return node;
}

MClass PolicyModel::EffectiveLabel(int node) const {
  while (!nodes_[node].has_label) {
    node = nodes_[node].parent;
  }
  return nodes_[node].label;
}

bool PolicyModel::InClosure(int principal, int who) const {
  if (closure_.size() != principals_.size()) {
    closure_.assign(principals_.size(), {});
  }
  std::vector<bool>& closure = closure_[principal];
  if (closure.empty()) {
    closure.assign(principals_.size(), false);
    std::vector<int> stack{principal};
    while (!stack.empty()) {
      int p = stack.back();
      stack.pop_back();
      if (closure[p]) {
        continue;
      }
      closure[p] = true;
      for (int group : principals_[p].member_of) {
        stack.push_back(group);
      }
    }
  }
  return closure[who];
}

MDecision PolicyModel::Check(int principal, MClass cls, int node, uint32_t modes) const {
  // DAC: deny-overrides over the effective ACL.
  uint32_t allowed = 0;
  for (const MAce& ace : nodes_[EffectiveAclNode(node)].acl) {
    if (!InClosure(principal, ace.who)) {
      continue;
    }
    if (ace.deny) {
      if ((ace.modes & modes) != 0) {
        return {false, DenyReason::kDacExplicitDeny};
      }
    } else {
      allowed |= ace.modes;
    }
  }
  if ((allowed & modes) != modes) {
    return {false, DenyReason::kDacNoGrant};
  }
  // MAC: observation needs S >= O; write-append needs O >= S; destructive
  // writes need both (write-up is append-only).
  MClass label = EffectiveLabel(node);
  bool s_dom_o = Dominates(cls, label);
  bool o_dom_s = Dominates(label, cls);
  uint32_t mask = 0;
  if (s_dom_o) {
    mask |= static_cast<uint32_t>(AccessMode::kRead) | static_cast<uint32_t>(AccessMode::kList) |
            static_cast<uint32_t>(AccessMode::kExecute) |
            static_cast<uint32_t>(AccessMode::kExtend);
  }
  if (o_dom_s) {
    mask |= static_cast<uint32_t>(AccessMode::kWriteAppend);
    if (s_dom_o) {
      mask |= static_cast<uint32_t>(AccessMode::kWrite) |
              static_cast<uint32_t>(AccessMode::kDelete) |
              static_cast<uint32_t>(AccessMode::kAdministrate);
    }
  }
  if ((modes & ~mask) != 0) {
    return {false, DenyReason::kMacFlow};
  }
  return {true, DenyReason::kNone};
}

MDecision PolicyModel::CheckPath(int principal, MClass cls, int node, uint32_t modes,
                                 Tally* tally) const {
  std::vector<int> ancestors;
  for (int cur = nodes_[node].parent; cur >= 0; cur = nodes_[cur].parent) {
    ancestors.push_back(cur);
  }
  for (auto it = ancestors.rbegin(); it != ancestors.rend(); ++it) {
    MDecision step = Check(principal, cls, *it, static_cast<uint32_t>(AccessMode::kList));
    if (!step.allowed) {
      tally->Deny(step.reason);
      tally->Deny(DenyReason::kTraversal);
      return {false, DenyReason::kTraversal};
    }
    tally->Allow();
  }
  MDecision leaf = Check(principal, cls, node, modes);
  if (leaf.allowed) {
    tally->Allow();
  } else {
    tally->Deny(leaf.reason);
  }
  return leaf;
}

// -- Ops ----------------------------------------------------------------------

const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kInvoke:
      return "invoke";
    case OpKind::kCallCapability:
      return "call_capability";
    case OpKind::kFsRead:
      return "fs_read";
    case OpKind::kFsStat:
      return "fs_stat";
    case OpKind::kFsAppend:
      return "fs_append";
    case OpKind::kFsList:
      return "fs_list";
    case OpKind::kRaiseSelected:
      return "raise_selected";
    case OpKind::kRaiseBroadcast:
      return "raise_broadcast";
    case OpKind::kLoad:
      return "load";
    case OpKind::kUnload:
      return "unload";
    case OpKind::kAdmin:
      return "admin";
    case OpKind::kTick:
      return "tick";
    case OpKind::kPoll:
      return "poll";
  }
  return "?";
}

Family FamilyOf(OpKind kind) {
  switch (kind) {
    case OpKind::kInvoke:
    case OpKind::kCallCapability:
      return Family::kInvoke;
    case OpKind::kFsRead:
    case OpKind::kFsStat:
    case OpKind::kFsAppend:
    case OpKind::kFsList:
      return Family::kFs;
    case OpKind::kRaiseSelected:
    case OpKind::kRaiseBroadcast:
      return Family::kEvent;
    case OpKind::kLoad:
      return Family::kLink;
    case OpKind::kUnload:
      return Family::kUnlink;
    case OpKind::kAdmin:
      return Family::kAdmin;
    case OpKind::kTick:
    case OpKind::kPoll:
      return Family::kStats;
  }
  return Family::kInvoke;
}

uint64_t TupleKey(int principal, MClass cls, int node, uint32_t modes) {
  return (static_cast<uint64_t>(principal) << 44) ^ (static_cast<uint64_t>(cls.level) << 40) ^
         (static_cast<uint64_t>(cls.cats) << 32) ^ (static_cast<uint64_t>(node) << 8) ^ modes;
}

void MeasureInputProps(const std::vector<Op>& ring,
                       const std::function<void(const Op&, std::vector<uint64_t>*)>& tuples,
                       InputProps* props) {
  std::unordered_set<uint64_t> all;
  std::unordered_set<uint64_t> leaves;
  uint64_t repeats = 0;
  uint64_t denied = 0;
  uint64_t mutations = 0;
  std::vector<uint64_t> keys;
  for (const Op& op : ring) {
    keys.clear();
    tuples(op, &keys);
    if (!keys.empty()) {
      // The leaf tuple is reported last.
      if (!leaves.insert(keys.back()).second) {
        ++repeats;
      }
      all.insert(keys.begin(), keys.end());
    }
    if (op.expect.code == StatusCode::kPermissionDenied) {
      ++denied;
    }
    if (op.kind == OpKind::kAdmin || op.kind == OpKind::kLoad || op.kind == OpKind::kUnload) {
      ++mutations;
    }
  }
  double n = static_cast<double>(ring.size());
  props->distinct_tuples = all.size();
  props->repeat_share = static_cast<double>(repeats) / n;
  props->denial_share = static_cast<double>(denied) / n;
  props->mutations_per_1k = 1000.0 * static_cast<double>(mutations) / n;
}

// -- AuditProbe ---------------------------------------------------------------

void AuditProbe::Register(uint64_t sequence, uint64_t start_ns) {
  Slot& slot = slots_[sequence % kSlots];
  slot.start_ns.store(start_ns, std::memory_order_relaxed);
  slot.sequence.store(sequence, std::memory_order_release);
}

void AuditProbe::OnRecord(const AuditRecord& record) {
  uint64_t now = MonotonicNowNs();
  Slot& slot = slots_[record.sequence % kSlots];
  if (slot.sequence.load(std::memory_order_acquire) == record.sequence) {
    lags_.push_back(now - slot.start_ns.load(std::memory_order_relaxed));
    slot.sequence.store(~0ull, std::memory_order_relaxed);
  }
  buffer_ += record.ToJson();
  buffer_ += '\n';
  if (buffer_.size() > (size_t{64} << 10)) {
    buffer_.clear();
  }
  received_.fetch_add(1, std::memory_order_release);
}

// -- Env ----------------------------------------------------------------------

SecurityClass Env::Class(MClass cls) const {
  std::vector<std::string> cats;
  for (size_t i = 0; i < std::size(kCategoryNames); ++i) {
    if (cls.cats & (1u << i)) {
      cats.push_back(kCategoryNames[i]);
    }
  }
  return *sys->labels().MakeClass(kLevelNames[cls.level], cats);
}

Outcome ValueOutcome(const StatusOr<Value>& result) {
  if (!result.ok()) {
    return Outcome{result.status().code(), kAnyValue};
  }
  const int64_t* v = std::get_if<int64_t>(&*result);
  return Outcome{StatusCode::kOk, v != nullptr ? *v : kAnyValue};
}

void Fatal(const std::string& what) {
  std::fprintf(stderr, "e2ebench: setup failed: %s\n", what.c_str());
  std::exit(2);
}

void Must(const Status& status, const std::string& what) {
  if (!status.ok()) {
    Fatal(what + ": " + status.ToString());
  }
}

namespace {

Acl ToAcl(const Env& env, const std::vector<MAce>& aces) {
  Acl acl;
  for (const MAce& ace : aces) {
    acl.AddEntry(AclEntry{ace.deny ? AclEntryType::kDeny : AclEntryType::kAllow,
                          env.principals[ace.who], AccessModeSet(ace.modes)});
  }
  return acl;
}

}  // namespace

void AddProbeNodes(PolicyModel* model) {
  int svc = model->Find("/svc");
  int probe = model->AddNode(svc, "probe", MKind::kService);
  model->AddNode(probe, "noop", MKind::kProcedure);
  int iface = model->AddNode(probe, "iface", MKind::kInterface);
  model->AddAce(iface, MAce{false, PolicyModel::kDev, static_cast<uint32_t>(AccessMode::kExtend)});
}

void BootEnv(const PolicyModel& model, Env* env) {
  env->sys = std::make_unique<SecureSystem>();
  SecureSystem& sys = *env->sys;
  Must(sys.labels().DefineLevels({kLevelNames[0], kLevelNames[1], kLevelNames[2]}), "levels");
  for (const char* cat : kCategoryNames) {
    if (!sys.labels().DefineCategory(cat).ok()) {
      Fatal("category");
    }
  }
  env->system = sys.SystemSubject();
  sys.monitor().set_security_officer(sys.system_principal());

  const auto& principals = model.principals();
  env->principals.assign(principals.size(), PrincipalId{});
  env->principals[PolicyModel::kSystem] = sys.system_principal();
  env->principals[PolicyModel::kEveryone] = sys.everyone();
  for (size_t i = 2; i < principals.size(); ++i) {
    auto id = principals[i].group ? sys.CreateGroup(principals[i].name)
                                  : sys.CreateUser(principals[i].name);
    if (!id.ok()) {
      Fatal("principal " + principals[i].name);
    }
    env->principals[i] = *id;
  }
  for (size_t i = 2; i < principals.size(); ++i) {
    for (int group : principals[i].member_of) {
      if (group != PolicyModel::kEveryone) {
        Must(sys.principals().AddMember(env->principals[group], env->principals[i]),
             "membership");
      }
    }
  }

  auto supervisor = sys.EnableSupervision();
  if (!supervisor.ok()) {
    Fatal("supervision");
  }
  env->supervisor = *supervisor;

  env->audit = std::make_shared<AuditProbe>();
  std::shared_ptr<AuditProbe> probe = env->audit;
  sys.monitor().audit().set_sink([probe](const AuditRecord& record) { probe->OnRecord(record); });
  sys.monitor().audit().StartDrain();

  auto sub = sys.stats().Subscribe(env->system, -1);
  if (!sub.ok()) {
    Fatal("subscribe: " + sub.status().ToString());
  }
  env->subscription = *sub;
}

void CreateNodes(const PolicyModel& model, Env* env,
                 const std::function<HandlerFn(int node)>& procedure_handler) {
  Kernel& kernel = env->kernel();
  PrincipalId system = env->sys->system_principal();
  const auto& nodes = model.nodes();
  env->nodes.assign(nodes.size(), NodeId{});
  for (size_t i = 0; i < nodes.size(); ++i) {
    const PolicyModel::Node& n = nodes[i];
    auto existing = kernel.name_space().Lookup(n.path);
    if (existing.ok()) {
      env->nodes[i] = *existing;
      continue;
    }
    StatusOr<NodeId> made = NotFoundError("unknown kind");
    switch (n.kind) {
      case MKind::kExisting:
        break;
      case MKind::kDirectory:
        made = kernel.name_space().BindPath(n.path, NodeKind::kDirectory, system);
        break;
      case MKind::kService:
        made = kernel.RegisterService(n.path, system);
        break;
      case MKind::kInterface:
        made = kernel.RegisterInterface(n.path, system);
        break;
      case MKind::kProcedure:
        made = kernel.RegisterProcedure(n.path, system, procedure_handler(static_cast<int>(i)));
        break;
      case MKind::kFile:
        break;  // files are created by the workload's memfs volumes
    }
    if (!made.ok()) {
      Fatal("node " + n.path + ": " + made.status().ToString());
    }
    env->nodes[i] = *made;
  }
}

void ApplyPolicy(const PolicyModel& model, Env* env) {
  ReferenceMonitor& monitor = env->monitor();
  const auto& nodes = model.nodes();
  // Root and /svc keep the ACLs SecureSystem installed; the model mirrors them.
  for (size_t i = 2; i < nodes.size(); ++i) {
    const PolicyModel::Node& n = nodes[i];
    if (!env->nodes[i].valid()) {
      Fatal("unresolved node " + n.path);
    }
    if (n.has_acl) {
      Must(monitor.SetNodeAcl(env->system, env->nodes[i], ToAcl(*env, n.acl)),
           "acl " + n.path);
    }
    if (n.has_label) {
      Must(monitor.SetNodeLabel(env->system, env->nodes[i], env->Class(n.label)),
           "label " + n.path);
    }
  }
}

void InstallProbe(const PolicyModel& model, Env* env) {
  int noop = model.Find("/svc/probe/noop");
  int iface = model.Find("/svc/probe/iface");
  env->probe_cap = Capability{env->nodes[noop], "/svc/probe/noop"};
  env->probe_iface = env->nodes[iface];
  env->probe_handler = [](CallContext& ctx) -> StatusOr<Value> {
    return Value{static_cast<int64_t>(ctx.args.size())};
  };
  Must(env->kernel().SetProcedureHandler(env->nodes[noop], env->probe_handler), "probe noop");
  ExtensionManifest manifest;
  manifest.name = "probe-ext";
  manifest.exports.push_back(ExportSpec{"/svc/probe/iface", [](CallContext&) -> StatusOr<Value> {
                                          return Value{int64_t{1}};
                                        }});
  Subject dev = env->sys->Login(env->principals[PolicyModel::kDev], env->Class(MClass{}));
  auto loaded = env->sys->LoadExtension(manifest, dev);
  if (!loaded.ok()) {
    Fatal("probe-ext: " + loaded.status().ToString());
  }
}

// -- Tracer -------------------------------------------------------------------

const char* LayerSpanName(Layer layer) {
  switch (layer) {
    case Layer::kParse:
      return "naming.parse";
    case Layer::kLookup:
      return "naming.lookup";
    case Layer::kCheckPath:
      return "monitor.check_path";
    case Layer::kCheck:
      return "monitor.check";
    case Layer::kDeniedCheck:
      return "audit.denied_check";
    case Layer::kCompiledProbe:
      return "monitor.compiled_probe";
    case Layer::kInterpreted:
      return "monitor.interpreted";
    case Layer::kClosure:
      return "principal.closure";
    case Layer::kDacEvaluate:
      return "dac.evaluate";
    case Layer::kCallCapability:
      return "extsys.call_capability";
    case Layer::kHandler:
      return "extsys.handler";
    case Layer::kSelect:
      return "extsys.select";
    case Layer::kAdmit:
      return "extsys.admit";
    case Layer::kUnload:
      return "extsys.unload";
    case Layer::kRecompile:
      return "monitor.recompile";
    case Layer::kFlush:
      return "audit.flush";
    case Layer::kTick:
      return "stats.tick";
    case Layer::kPoll:
      return "stats.poll";
  }
  return "?";
}

uint32_t Tracer::OpSpan(OpKind kind, uint64_t op_id, uint64_t start_ns, uint64_t end_ns) {
  op_ns_[static_cast<size_t>(kind)].push_back(end_ns - start_ns);
  if (spans_.size() >= max_spans_) {
    return UINT32_MAX;
  }
  spans_.push_back(Span{static_cast<uint32_t>(kLayerCount + static_cast<size_t>(kind)), UINT32_MAX,
                        op_id, start_ns, end_ns});
  return static_cast<uint32_t>(spans_.size() - 1);
}

void Tracer::Record(Layer layer, uint32_t parent, uint64_t op_id, uint64_t start_ns,
                    uint64_t end_ns) {
  layer_ns_[static_cast<size_t>(layer)].push_back(end_ns - start_ns);
  if (spans_.size() < max_spans_) {
    spans_.push_back(Span{static_cast<uint32_t>(layer), parent, op_id, start_ns, end_ns});
  }
}

void Tracer::Explain(OpKind kind, uint64_t op_ns, uint64_t explained_ns) {
  explained_num_[static_cast<size_t>(kind)] += explained_ns;
  explained_den_[static_cast<size_t>(kind)] += op_ns;
}

double Tracer::ExplainedShare(OpKind kind) const {
  size_t k = static_cast<size_t>(kind);
  return explained_den_[k] == 0 ? 0.0
                                : static_cast<double>(explained_num_[k]) /
                                      static_cast<double>(explained_den_[k]);
}

double Tracer::ExplainedShareAll() const {
  uint64_t num = 0;
  uint64_t den = 0;
  for (size_t k = 0; k < kOpKindCount; ++k) {
    num += explained_num_[k];
    den += explained_den_[k];
  }
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

bool Tracer::Write(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const bool op_span = s.name >= kLayerCount;
    std::fprintf(out, "{\"id\":%zu,\"name\":\"%s%s\"", i, op_span ? "op." : "",
                 op_span ? OpKindName(static_cast<OpKind>(s.name - kLayerCount))
                         : LayerSpanName(static_cast<Layer>(s.name)));
    if (s.parent != UINT32_MAX) {
      std::fprintf(out, ",\"parent\":%u", s.parent);
    }
    std::fprintf(out, ",\"op\":%llu,\"start\":%llu,\"end\":%llu}\n",
                 static_cast<unsigned long long>(s.op_id),
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns));
  }
  return std::fclose(out) == 0;
}

AccessTimes ReplayAccess(Env& env, Tracer& tracer, uint32_t parent, uint64_t op_id,
                         const Subject& subject, std::string_view path, NodeId node,
                         AccessModeSet modes) {
  ReferenceMonitor& monitor = env.monitor();
  AccessTimes times;
  if (!path.empty()) {
    tracer.Time(Layer::kParse, parent, op_id, [&] {
      auto parts = ParsePath(path);
      (void)parts;
    });
    tracer.Time(Layer::kLookup, parent, op_id, [&] {
      auto found = env.kernel().name_space().Lookup(path);
      (void)found;
    });
    times.check_path_ns = tracer.Time(Layer::kCheckPath, parent, op_id, [&] {
      Decision d = monitor.CheckPath(subject, path, modes);
      (void)d;
    });
  }
  if (!node.valid()) {
    return times;
  }
  // The leaf decision alone; a denied tuple is reported as audit.denied_check
  // (the denial path retains an audit record), an allowed one as monitor.check.
  uint64_t start = MonotonicNowNs();
  Decision leaf = monitor.Check(subject, node, modes);
  uint64_t end = MonotonicNowNs();
  tracer.Record(leaf.allowed ? Layer::kCheck : Layer::kDeniedCheck, parent, op_id, start, end);
  times.check_ns = end - start;
  tracer.Time(Layer::kCompiledProbe, parent, op_id, [&] {
    Decision d;
    (void)monitor.TryCompiledCheck(subject, node, modes, &d);
  });
  tracer.Time(Layer::kInterpreted, parent, op_id, [&] {
    Decision d = monitor.CheckInterpreted(subject, node, modes);
    (void)d;
  });
  std::shared_ptr<const DynamicBitset> closure;
  tracer.Time(Layer::kClosure, parent, op_id,
              [&] { closure = env.sys->principals().Closure(subject.principal); });
  NameSpace::SecuritySnapshot snap;
  if (closure != nullptr && env.kernel().name_space().SnapshotSecurity(node, &snap) &&
      snap.effective_acl_ref != kNoRef) {
    tracer.Time(Layer::kDacEvaluate, parent, op_id, [&] {
      AclVerdict v = env.kernel().acls().Evaluate(snap.effective_acl_ref, *closure, modes);
      (void)v;
    });
  }
  return times;
}

uint64_t ReplayExtension(Env& env, Tracer& tracer, uint32_t parent, uint64_t op_id,
                         Subject& subject, const Capability* capability, NodeId iface,
                         const std::string& ext_name, const HandlerFn* handler,
                         const Args& args) {
  Kernel& kernel = env.kernel();
  uint64_t on_path = 0;
  if (capability != nullptr) {
    tracer.Time(Layer::kCallCapability, parent, op_id, [&] {
      auto r = kernel.CallCapability(subject, *capability, args);
      (void)r;
    });
  }
  if (iface.valid()) {
    ExtensionSupervisor* supervisor = env.supervisor;
    EventDispatcher::EligibleFn available = [&kernel, supervisor](
                                                const EventDispatcher::HandlerRecord& record) {
      const LinkedExtension* ext = kernel.GetExtension(record.extension);
      return ext == nullptr || supervisor->Selectable(ext->name);
    };
    on_path += tracer.Time(Layer::kSelect, parent, op_id, [&] {
      auto s = kernel.dispatcher().Select(iface, subject.security_class,
                                          DispatchMode::kClassSelected, available);
      (void)s;
    });
  }
  if (!ext_name.empty()) {
    on_path += tracer.Time(Layer::kAdmit, parent, op_id, [&] {
      auto permit = env.supervisor->Admit(ext_name, 0);
      if (permit.ok()) {
        permit->Complete(OkStatus());
      }
    });
  }
  if (handler != nullptr) {
    on_path += tracer.Time(Layer::kHandler, parent, op_id, [&] {
      CallContext ctx{&kernel, &subject, args, 0, nullptr};
      auto r = (*handler)(ctx);
      (void)r;
    });
  }
  return on_path;
}

void Workload::PathTuples(int principal, MClass cls, int node, uint32_t modes,
                          std::vector<uint64_t>* out) const {
  std::vector<int> ancestors;
  for (int cur = model_.node(node).parent; cur >= 0; cur = model_.node(cur).parent) {
    ancestors.push_back(cur);
  }
  for (auto it = ancestors.rbegin(); it != ancestors.rend(); ++it) {
    out->push_back(TupleKey(principal, cls, *it, static_cast<uint32_t>(AccessMode::kList)));
  }
  out->push_back(TupleKey(principal, cls, node, modes));
}

// -- Statistics ---------------------------------------------------------------

uint64_t Quantile(std::vector<uint64_t>& v, double q) {
  if (v.empty()) {
    return 0;
  }
  size_t rank = static_cast<size_t>(q * static_cast<double>(v.size()));
  if (rank >= v.size()) {
    rank = v.size() - 1;
  }
  std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(rank), v.end());
  return v[rank];
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace xsec::e2e
