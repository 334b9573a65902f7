// hot_invoke: the path every mediated call takes.
//
// 16 subjects over 64 procedures at path depth 3-4 (/svc/appA/pK and
// /svc/appA/modM/pK), plus four interfaces under /svc/hub served by two
// resident extensions at different classes. Mix: ~70% Invoke by path, ~20%
// CallCapability through the imports of a resident extension, ~10% Invoke on
// an extended interface; ~1% of calls are denied. The working set is far
// below the decision cache's slots, so path parsing, traversal checks, cache
// hits, stats counters and dispatch do nearly all the work.

#include "e2ebench/src/workload.h"

namespace xsec::e2e {
namespace {

constexpr int kApps = 8;
constexpr int kProcsPerApp = 8;
constexpr int kProcs = kApps * kProcsPerApp;
constexpr int kIfaces = 4;
constexpr int kCaps = 16;
constexpr int kSubjects = 16;
constexpr int64_t kLowHandler = 9000;
constexpr int64_t kHighHandler = 9100;
constexpr MClass kHighClass{1, 0b001};  // internal:{a}

constexpr uint32_t kExecute = static_cast<uint32_t>(AccessMode::kExecute);

class HotInvoke : public Workload {
 public:
  const char* name() const override { return "hot_invoke"; }

  void Generate(uint64_t seed, bool tiny) override {
    Rng rng(seed);
    std::vector<int> groups;
    for (int g = 0; g < 4; ++g) {
      groups.push_back(model_.AddGroup("hg" + std::to_string(g)));
    }
    const MClass classes[] = {{0, 0}, {1, 0}, {1, 0b001}, {2, 0b011}};
    for (int i = 0; i < kSubjects; ++i) {
      int user = model_.AddUser("h" + std::to_string(i));
      model_.AddMember(groups[i % 4], user);
      subject_model_.push_back({user, classes[(i / 4) % 4]});
    }

    AddProbeNodes(&model_);
    int svc = model_.Find("/svc");
    for (int a = 0; a < kApps; ++a) {
      int app = model_.AddNode(svc, "app" + std::to_string(a), MKind::kService);
      int mods[2] = {model_.AddNode(app, "mod0", MKind::kDirectory),
                     model_.AddNode(app, "mod1", MKind::kDirectory)};
      for (int k = 0; k < kProcsPerApp; ++k) {
        int parent = k < 4 ? app : mods[(k - 4) / 2];
        procs_.push_back(model_.AddNode(parent, "p" + std::to_string(k), MKind::kProcedure));
      }
    }
    // A few restricted procedures give the ~1% of denied calls three reasons:
    // no grant (app7/p0-p3 admit hg0 only), a label above most subjects
    // (app6/mod1/p6-p7), and an explicit deny of hg1 (app5/p3).
    for (int k = 0; k < 4; ++k) {
      model_.SetAcl(procs_[7 * kProcsPerApp + k],
                    {MAce{false, groups[0], kExecute | static_cast<uint32_t>(AccessMode::kList)}});
    }
    model_.SetLabel(procs_[6 * kProcsPerApp + 6], kHighClass);
    model_.SetLabel(procs_[6 * kProcsPerApp + 7], kHighClass);
    model_.AddAce(procs_[5 * kProcsPerApp + 3], MAce{true, groups[1], kExecute});

    int hub = model_.AddNode(svc, "hub", MKind::kService);
    for (int k = 0; k < kIfaces; ++k) {
      int iface = model_.AddNode(hub, "i" + std::to_string(k), MKind::kInterface);
      model_.AddAce(iface, MAce{false, PolicyModel::kDev, static_cast<uint32_t>(AccessMode::kExtend)});
      ifaces_.push_back(iface);
    }
    // hub-caps imports the first 16 unrestricted procedures.
    for (int p = 0; p < kProcs && static_cast<int>(cap_procs_.size()) < kCaps; p += 2) {
      if (p / kProcsPerApp < 5) {
        cap_procs_.push_back(p);
      }
    }

    const size_t n = tiny ? 4096 : 65536;
    ring_.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      if (AddStatsOp(i)) {
        continue;
      }
      Op op;
      op.arg = rng.NextBelow(1'000'000);
      uint32_t r = rng.NextBelow(100);
      if (r < 70) {
        // Invoke by path; ~1.4% of these (~1% of all ops) are denied.
        bool want_deny = (rng.NextDouble() < 0.0143);
        for (;;) {
          op.subject = static_cast<uint16_t>(rng.NextBelow(kSubjects));
          op.target = rng.NextBelow(kProcs);
          auto [principal, cls] = subject_model_[op.subject];
          Tally tally;
          MDecision d = model_.CheckPath(principal, cls, procs_[op.target], kExecute, &tally);
          if (d.allowed != want_deny) {
            op.expect.tally = tally;
            op.expect.code = d.allowed ? StatusCode::kOk : StatusCode::kPermissionDenied;
            op.expect.value = d.allowed ? ProcValue(op.target, op.arg) : kAnyValue;
            break;
          }
        }
        op.kind = OpKind::kInvoke;
      } else if (r < 90) {
        op.kind = OpKind::kCallCapability;
        op.subject = static_cast<uint16_t>(rng.NextBelow(kSubjects));
        op.target = rng.NextBelow(kCaps);
        auto [principal, cls] = subject_model_[op.subject];
        MDecision d = model_.Check(principal, cls, procs_[cap_procs_[op.target]], kExecute);
        d.allowed ? op.expect.tally.Allow() : op.expect.tally.Deny(d.reason);
        op.expect.code = d.allowed ? StatusCode::kOk : StatusCode::kPermissionDenied;
        op.expect.value = ProcValue(cap_procs_[op.target], op.arg);
      } else {
        op.kind = OpKind::kInvoke;
        op.subject = static_cast<uint16_t>(rng.NextBelow(kSubjects));
        op.target = kProcs + rng.NextBelow(kIfaces);
        auto [principal, cls] = subject_model_[op.subject];
        MDecision d = model_.CheckPath(principal, cls, ifaces_[op.target - kProcs], kExecute,
                                       &op.expect.tally);
        op.expect.code = d.allowed ? StatusCode::kOk : StatusCode::kPermissionDenied;
        op.expect.value = IfaceValue(cls, op.target - kProcs);
      }
      ring_.push_back(op);
    }
    MeasureInputProps(ring_,
                      [this](const Op& op, std::vector<uint64_t>* out) { Tuples(op, out); },
                      &props_);
  }

  void Build(Env* env) override {
    BootEnv(model_, env);
    CreateNodes(model_, env, [this](int node) -> HandlerFn {
      for (int p = 0; p < kProcs; ++p) {
        if (procs_[p] == node) {
          return ProcHandler(p);
        }
      }
      return ProcHandler(0);
    });
    ApplyPolicy(model_, env);
    InstallProbe(model_, env);

    handlers_.clear();
    paths_.clear();
    for (int p = 0; p < kProcs; ++p) {
      handlers_.push_back(ProcHandler(p));
      paths_.push_back(model_.node(procs_[p]).path);
    }
    for (int k = 0; k < kIfaces; ++k) {
      paths_.push_back(model_.node(ifaces_[k]).path);
    }
    subjects_.clear();
    for (auto [principal, cls] : subject_model_) {
      subjects_.push_back(env->sys->Login(env->principals[principal], env->Class(cls)));
    }

    Subject dev = env->sys->Login(env->principals[PolicyModel::kDev], env->Class(MClass{}));
    ExtensionManifest low{"hub-low"};
    ExtensionManifest high{"hub-high"};
    high.static_class = env->Class(kHighClass);
    low_handlers_.clear();
    high_handlers_.clear();
    for (int k = 0; k < kIfaces; ++k) {
      low_handlers_.push_back(ConstHandler(kLowHandler + k));
      low.exports.push_back(ExportSpec{paths_[kProcs + k], low_handlers_.back()});
      if (k < 2) {
        high_handlers_.push_back(ConstHandler(kHighHandler + k));
        high.exports.push_back(ExportSpec{paths_[kProcs + k], high_handlers_.back()});
      }
    }
    ExtensionManifest caps{"hub-caps"};
    for (int p : cap_procs_) {
      caps.imports.push_back(paths_[p]);
    }
    for (const ExtensionManifest* m : {&low, &high, &caps}) {
      auto id = env->sys->LoadExtension(*m, dev);
      if (!id.ok()) {
        Fatal("load " + m->name + ": " + id.status().ToString());
      }
      if (m == &caps) {
        caps_ = env->kernel().GetExtension(*id)->imports;
      }
    }
  }

  Outcome Execute(Env& env, const Op& op) override {
    Subject& subject = subjects_[op.subject];
    if (op.kind == OpKind::kCallCapability) {
      return ValueOutcome(env.kernel().CallCapability(subject, caps_[op.target], Args{Value{op.arg}}));
    }
    return ValueOutcome(env.kernel().Invoke(subject, paths_[op.target], Args{Value{op.arg}}));
  }

  uint64_t Replay(Env& env, Tracer& tracer, uint32_t parent, uint64_t op_id,
                  const Op& op) override {
    Subject& subject = subjects_[op.subject];
    Args args{Value{op.arg}};
    if (op.kind == OpKind::kCallCapability) {
      const Capability& cap = caps_[op.target];
      AccessTimes t = ReplayAccess(env, tracer, parent, op_id, subject, cap.path, cap.node,
                                   AccessMode::kExecute);
      return t.check_ns + ReplayExtension(env, tracer, parent, op_id, subject, &cap, NodeId{}, "",
                                          &handlers_[cap_procs_[op.target]], args);
    }
    NodeId node = env.nodes[op.target < kProcs ? procs_[op.target] : ifaces_[op.target - kProcs]];
    AccessTimes t = ReplayAccess(env, tracer, parent, op_id, subject, paths_[op.target], node,
                                 AccessMode::kExecute);
    if (op.expect.code != StatusCode::kOk) {
      return t.check_path_ns;
    }
    if (op.target < kProcs) {
      Capability cap{node, paths_[op.target]};
      return t.check_path_ns + ReplayExtension(env, tracer, parent, op_id, subject, &cap, NodeId{},
                                               "", &handlers_[op.target], args);
    }
    int k = static_cast<int>(op.target) - kProcs;
    bool high = op.expect.value == kHighHandler + k;
    return t.check_path_ns +
           ReplayExtension(env, tracer, parent, op_id, subject, nullptr, node,
                           high ? "hub-high" : "hub-low",
                           high ? &high_handlers_[k] : &low_handlers_[k], args);
  }

  void Tuples(const Op& op, std::vector<uint64_t>* out) const override {
    if (op.kind == OpKind::kTick || op.kind == OpKind::kPoll) {
      return;
    }
    auto [principal, cls] = subject_model_[op.subject];
    if (op.kind == OpKind::kCallCapability) {
      out->push_back(TupleKey(principal, cls, procs_[cap_procs_[op.target]], kExecute));
      return;
    }
    int node = op.target < kProcs ? procs_[op.target] : ifaces_[op.target - kProcs];
    PathTuples(principal, cls, node, kExecute, out);
  }

 private:
  static int64_t ProcValue(int proc, int64_t arg) { return proc * 1'000'000 + arg; }

  // Class-selected dispatch: hub-high (internal:{a}) for callers cleared
  // for it on i0/i1, hub-low (public) otherwise.
  static int64_t IfaceValue(MClass cls, int k) {
    return k < 2 && Dominates(cls, kHighClass) ? kHighHandler + k : kLowHandler + k;
  }

  static HandlerFn ProcHandler(int proc) {
    return [proc](CallContext& ctx) -> StatusOr<Value> {
      const int64_t* arg = ctx.args.empty() ? nullptr : std::get_if<int64_t>(&ctx.args[0]);
      return Value{ProcValue(proc, arg != nullptr ? *arg : 0)};
    };
  }

  static HandlerFn ConstHandler(int64_t value) {
    return [value](CallContext&) -> StatusOr<Value> { return Value{value}; };
  }

  std::vector<int> procs_;      // model node of each procedure
  std::vector<int> ifaces_;     // model node of each interface
  std::vector<int> cap_procs_;  // procedure index of each hub-caps import
  // Live world:
  std::vector<std::string> paths_;  // procedures, then interfaces
  std::vector<HandlerFn> handlers_;
  std::vector<HandlerFn> low_handlers_;
  std::vector<HandlerFn> high_handlers_;
  std::vector<Subject> subjects_;
  std::vector<Capability> caps_;
};

}  // namespace

std::unique_ptr<Workload> MakeHotInvoke() { return std::make_unique<HotInvoke>(); }

}  // namespace xsec::e2e
