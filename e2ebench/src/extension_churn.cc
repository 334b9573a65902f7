// extension_churn: code loaded and unloaded while serving (the paper's
// premise).
//
// Each cycle links an extension (LoadExtension: four imports from /svc/lib,
// two exports on /svc/bus interfaces that already carry resident handlers at
// other classes), raises events on the bus from callers at four classes
// (class-selected and broadcast), calls through the new extension's imports
// (CallCapability), and unloads it. Supervision is on, and one resident
// extension fails on a fixed pattern of its own invocations, so its breaker
// trips, quarantines it, and probes it back. Link-time checks, /ext bind and
// unbind, dispatcher selection and supervisor admission run hot.

#include <algorithm>
#include <unordered_map>

#include "e2ebench/src/workload.h"

namespace xsec::e2e {
namespace {

constexpr int kLibs = 8;
constexpr int kBuses = 4;
constexpr int kImports = 4;
constexpr int kExports = 2;
constexpr int kNamePool = 16;
constexpr MClass kCallerClasses[] = {{0, 0}, {1, 0}, {1, 0b001}, {2, 0b011}};
constexpr MClass kLoaderClasses[] = {{0, 0}, {1, 0}, {1, 0b001}};
constexpr MClass kInternal{1, 0};

constexpr uint32_t kExecute = static_cast<uint32_t>(AccessMode::kExecute);
constexpr uint32_t kExtend = static_cast<uint32_t>(AccessMode::kExtend);

// Resident handlers, in registration order: res-low (public) on e0-e2,
// res-mid (internal:{a}) on e0, e1, e3, res-flaky (internal) on e2.
struct Resident {
  const char* ext;
  MClass cls;
  std::vector<int> buses;
  int64_t id_base;
};
const Resident kResidents[] = {
    {"res-low", {0, 0}, {0, 1, 2}, 100},
    {"res-mid", {1, 0b001}, {0, 1, 3}, 200},
    {"res-flaky", {1, 0}, {2}, 300},
};
constexpr int64_t kFlakyId = 302;
// res-flaky fails kFlakyBurst consecutive invocations out of every
// kFlakyPeriod, enough to trip a breaker that opens after 4.
constexpr uint64_t kFlakyPeriod = 40;
constexpr uint64_t kFlakyBurst = 6;

struct Handler {
  int64_t id;
  MClass cls;
  int ext;  // index into ext_names_ (residents first, then the name pool)
};

struct Cycle {
  int loader_class;
  int name;
  std::array<int, kImports> imports;
  std::array<int, kExports> exports;
};

class ExtensionChurn : public Workload {
 public:
  const char* name() const override { return "extension_churn"; }

  void Generate(uint64_t seed, bool tiny) override {
    Rng rng(seed);
    tick_every_ = 1024;
    for (MClass cls : kCallerClasses) {
      int user = model_.AddUser("c" + std::to_string(subject_model_.size()));
      subject_model_.push_back({user, cls});
    }
    AddProbeNodes(&model_);
    int svc = model_.Find("/svc");
    int lib = model_.AddNode(svc, "lib", MKind::kService);
    for (int f = 0; f < kLibs; ++f) {
      libs_.push_back(model_.AddNode(lib, "f" + std::to_string(f), MKind::kProcedure));
    }
    model_.SetLabel(libs_[6], kInternal);
    model_.SetLabel(libs_[7], kInternal);
    int bus = model_.AddNode(svc, "bus", MKind::kService);
    for (int e = 0; e < kBuses; ++e) {
      buses_.push_back(model_.AddNode(bus, "e" + std::to_string(e), MKind::kInterface));
      model_.AddAce(buses_.back(), MAce{false, PolicyModel::kDev, kExtend});
    }
    model_.SetLabel(buses_[3], kInternal);
    for (const Resident& r : kResidents) {
      ext_names_.push_back(r.ext);
    }
    for (int n = 0; n < kNamePool; ++n) {
      ext_names_.push_back("churn" + std::to_string(n));
    }
    registered_.assign(kBuses, {});
    for (int r = 0; r < 3; ++r) {
      for (int e : kResidents[r].buses) {
        registered_[e].push_back(Handler{kResidents[r].id_base + e, kResidents[r].cls, r});
      }
    }

    const int cycles = tiny ? 64 : 4096;
    for (int c = 0; c < cycles; ++c) {
      Cycle cycle = MakeCycle(rng, c);
      cycles_.push_back(cycle);
      MClass loader = kLoaderClasses[cycle.loader_class];
      int ext = 3 + cycle.name;

      Op load{OpKind::kLoad};
      load.target = static_cast<uint32_t>(c);
      for (int f : cycle.imports) {
        (void)model_.CheckPath(PolicyModel::kDev, loader, libs_[f], kExecute, &load.expect.tally);
      }
      for (int e : cycle.exports) {
        (void)model_.CheckPath(PolicyModel::kDev, loader, buses_[e], kExtend, &load.expect.tally);
      }
      Push(load);
      for (int x = 0; x < kExports; ++x) {
        registered_[cycle.exports[x]].push_back(Handler{ChurnId(c, x), loader, ext});
      }

      std::vector<Op> middle;
      for (int k = 0; k < 6; ++k) {
        Op op{k < 4 ? OpKind::kRaiseSelected : OpKind::kRaiseBroadcast};
        op.subject = static_cast<uint16_t>(rng.NextBelow(4));
        op.target = (rng.NextDouble() < 0.5) ? static_cast<uint32_t>(cycle.exports[rng.NextBelow(kExports)])
                                    : rng.NextBelow(kBuses);
        op.arg = rng.NextBelow(1000);
        op.expect = ExpectRaise(op);
        middle.push_back(op);
      }
      for (int k = 0; k < 4; ++k) {
        Op op{OpKind::kCallCapability};
        op.subject = static_cast<uint16_t>(rng.NextBelow(4));
        op.target = static_cast<uint32_t>(c * kImports + k);
        op.arg = rng.NextBelow(1'000'000);
        auto [principal, cls] = subject_model_[op.subject];
        int f = cycle.imports[k];
        MDecision d = model_.Check(principal, cls, libs_[f], kExecute);
        d.allowed ? op.expect.tally.Allow() : op.expect.tally.Deny(d.reason);
        op.expect.code = d.allowed ? StatusCode::kOk : StatusCode::kPermissionDenied;
        op.expect.value = LibValue(f, op.arg);
        middle.push_back(op);
      }
      for (size_t k = middle.size(); k > 1; --k) {
        std::swap(middle[k - 1], middle[rng.NextBelow(static_cast<uint32_t>(k))]);
      }
      for (const Op& op : middle) {
        Push(op);
      }

      for (int x = 0; x < kExports; ++x) {
        std::erase_if(registered_[cycle.exports[x]],
                      [&](const Handler& h) { return h.id == ChurnId(c, x); });
      }
      Op unload{OpKind::kUnload};
      unload.target = static_cast<uint32_t>(c);
      Push(unload);
    }
    MeasureInputProps(ring_,
                      [this](const Op& op, std::vector<uint64_t>* out) { Tuples(op, out); },
                      &props_);
  }

  void Build(Env* env) override {
    BootEnv(model_, env);
    CreateNodes(model_, env, [this](int node) -> HandlerFn {
      for (int f = 0; f < kLibs; ++f) {
        if (libs_[f] == node) {
          return LibHandler(f);
        }
      }
      return nullptr;
    });
    ApplyPolicy(model_, env);
    InstallProbe(model_, env);

    subjects_.clear();
    for (auto [principal, cls] : subject_model_) {
      subjects_.push_back(env->sys->Login(env->principals[principal], env->Class(cls)));
    }
    loaders_.clear();
    for (MClass cls : kLoaderClasses) {
      loaders_.push_back(env->sys->Login(env->principals[PolicyModel::kDev], env->Class(cls)));
    }
    handlers_.clear();
    lib_handlers_.clear();
    for (int f = 0; f < kLibs; ++f) {
      lib_handlers_.push_back(LibHandler(f));
    }

    // Residents.
    flaky_calls_ = 0;
    served_after_trip_ = true;  // nothing to look for until a window begins
    Subject dev = loaders_[0];
    for (int r = 0; r < 3; ++r) {
      ExtensionManifest m{kResidents[r].ext};
      m.static_class = env->Class(kResidents[r].cls);
      for (int e : kResidents[r].buses) {
        int64_t id = kResidents[r].id_base + e;
        HandlerFn fn = id == kFlakyId ? FlakyHandler() : ConstHandler(id);
        handlers_[id] = fn;
        m.exports.push_back(ExportSpec{model_.node(buses_[e]).path, fn});
      }
      Must(env->sys->LoadExtension(m, dev).status(), kResidents[r].ext);
    }
    ExtensionBudget flaky_budget;
    flaky_budget.probe_after_ns = 20'000'000;
    env->supervisor->SetBudget("res-flaky", flaky_budget);

    // One manifest per cycle, prepared ahead so the load op times only the
    // kernel's link.
    manifests_.clear();
    for (size_t c = 0; c < cycles_.size(); ++c) {
      const Cycle& cycle = cycles_[c];
      ExtensionManifest m{ext_names_[3 + cycle.name]};
      for (int f : cycle.imports) {
        m.imports.push_back(model_.node(libs_[f]).path);
      }
      for (int x = 0; x < kExports; ++x) {
        int64_t id = ChurnId(static_cast<int>(c), x);
        handlers_[id] = ConstHandler(id);
        m.exports.push_back(ExportSpec{model_.node(buses_[cycle.exports[x]]).path, handlers_[id]});
      }
      manifests_.push_back(std::move(m));
    }
    current_ = ExtensionId{};
    caps_.clear();
  }

  Outcome Execute(Env& env, const Op& op) override {
    Kernel& kernel = env.kernel();
    switch (op.kind) {
      case OpKind::kLoad: {
        const Cycle& cycle = cycles_[op.target];
        auto id = kernel.LoadExtension(manifests_[op.target], loaders_[cycle.loader_class]);
        if (id.ok()) {
          current_ = *id;
          caps_ = kernel.GetExtension(*id)->imports;
        }
        return ToOutcome(id);
      }
      case OpKind::kUnload:
        return Outcome{kernel.UnloadExtension(loaders_[cycles_[op.target].loader_class], current_)
                           .code(),
                       kAnyValue};
      case OpKind::kCallCapability:
        return ValueOutcome(kernel.CallCapability(subjects_[op.subject], caps_[op.target % kImports],
                                                  Args{Value{op.arg}}));
      case OpKind::kRaiseSelected:
      case OpKind::kRaiseBroadcast: {
        Outcome out = ValueOutcome(kernel.RaiseEvent(
            subjects_[op.subject], model_.node(buses_[op.target]).path, Args{Value{op.arg}},
            op.kind == OpKind::kRaiseSelected ? DispatchMode::kClassSelected
                                              : DispatchMode::kBroadcast));
        if (out.value == kFlakyId && !served_after_trip_) {
          served_after_trip_ = FlakyTrips(env) > window_trips_;
        }
        return out;
      }
      default:
        return Outcome{StatusCode::kUnimplemented, kAnyValue};
    }
  }

  uint64_t Replay(Env& env, Tracer& tracer, uint32_t parent, uint64_t op_id,
                  const Op& op) override {
    ReferenceMonitor& monitor = env.monitor();
    switch (op.kind) {
      case OpKind::kLoad: {
        // The link checks, as the kernel runs them at the handler class.
        const Cycle& cycle = cycles_[op.target];
        const Subject& link = loaders_[cycle.loader_class];
        uint64_t on_path = 0;
        for (const std::string& import : manifests_[op.target].imports) {
          on_path += tracer.Time(Layer::kCheckPath, parent, op_id, [&] {
            (void)monitor.CheckPath(link, import, AccessMode::kExecute);
          });
        }
        for (const ExportSpec& spec : manifests_[op.target].exports) {
          on_path += tracer.Time(Layer::kCheckPath, parent, op_id, [&] {
            (void)monitor.CheckPath(link, spec.interface_path, AccessMode::kExtend);
          });
        }
        return on_path;
      }
      case OpKind::kCallCapability: {
        const Capability& cap = caps_[op.target % kImports];
        AccessTimes t = ReplayAccess(env, tracer, parent, op_id, subjects_[op.subject], cap.path,
                                     cap.node, AccessMode::kExecute);
        int f = cycles_[op.target / kImports].imports[op.target % kImports];
        return t.check_ns + ReplayExtension(env, tracer, parent, op_id, subjects_[op.subject],
                                            &cap, NodeId{}, "", &lib_handlers_[f],
                                            Args{Value{op.arg}});
      }
      case OpKind::kRaiseSelected:
      case OpKind::kRaiseBroadcast: {
        int bus = buses_[op.target];
        AccessTimes t = ReplayAccess(env, tracer, parent, op_id, subjects_[op.subject],
                                     model_.node(bus).path, env.nodes[bus], AccessMode::kExecute);
        if (op.expect.code != StatusCode::kOk) {
          return t.check_path_ns;
        }
        // Admission and handler replays skip res-flaky: they would feed its
        // breaker and advance its failure pattern.
        int64_t id = op.expect.value;
        auto it = handlers_.find(id);
        bool healthy = id != kFlakyId && it != handlers_.end();
        const std::string no_ext;
        return t.check_path_ns +
               ReplayExtension(env, tracer, parent, op_id, subjects_[op.subject], nullptr,
                               env.nodes[bus], healthy ? ext_names_[ExtOfId(id)] : no_ext,
                               healthy ? &it->second : nullptr, Args{Value{op.arg}});
      }
      default:
        return 0;
    }
  }

  void Tuples(const Op& op, std::vector<uint64_t>* out) const override {
    switch (op.kind) {
      case OpKind::kLoad: {
        const Cycle& cycle = cycles_[op.target];
        MClass loader = kLoaderClasses[cycle.loader_class];
        for (int f : cycle.imports) {
          PathTuples(PolicyModel::kDev, loader, libs_[f], kExecute, out);
        }
        for (int e : cycle.exports) {
          PathTuples(PolicyModel::kDev, loader, buses_[e], kExtend, out);
        }
        return;
      }
      case OpKind::kCallCapability: {
        auto [principal, cls] = subject_model_[op.subject];
        int f = cycles_[op.target / kImports].imports[op.target % kImports];
        out->push_back(TupleKey(principal, cls, libs_[f], kExecute));
        return;
      }
      case OpKind::kRaiseSelected:
      case OpKind::kRaiseBroadcast: {
        auto [principal, cls] = subject_model_[op.subject];
        PathTuples(principal, cls, buses_[op.target], kExecute, out);
        return;
      }
      default:
        return;
    }
  }

  // The breaker must trip res-flaky in every window, and a probe must
  // release it: its own value is served again after the window's first trip.
  void BeginWindow(Env& env) override {
    window_trips_ = FlakyTrips(env);
    served_after_trip_ = false;
  }

  uint64_t EndWindow(Env& env, std::string* report) override {
    uint64_t violations = 0;
    if (FlakyTrips(env) == window_trips_) {
      ++violations;
      *report += "extension_churn: res-flaky's breaker never tripped\n";
    }
    if (!served_after_trip_) {
      ++violations;
      *report += "extension_churn: res-flaky never served again after a trip\n";
    }
    return violations;
  }

 private:
  static uint64_t FlakyTrips(Env& env) {
    auto snapshot = env.supervisor->Snapshot("res-flaky");
    return snapshot ? snapshot->trips : 0;
  }

  static int64_t ChurnId(int cycle, int x) { return 10000 + cycle * kExports + x; }
  static int64_t LibValue(int f, int64_t arg) { return f * 1'000'000 + arg; }

  int ExtOfId(int64_t id) const {
    if (id < 10000) {
      return static_cast<int>(id / 100 - 1);
    }
    return 3 + cycles_[(id - 10000) / kExports].name;
  }

  Cycle MakeCycle(Rng& rng, int c) {
    Cycle cycle;
    cycle.loader_class = c % 3;
    cycle.name = c % kNamePool;
    // Imports and exports the loader's class can link against: a public
    // loader reaches neither the internal-labeled f6/f7 nor e3.
    bool low = cycle.loader_class == 0;
    std::vector<int> libs;
    for (int f = 0; f < (low ? 6 : kLibs); ++f) {
      libs.push_back(f);
    }
    for (int k = 0; k < kImports; ++k) {
      std::swap(libs[k], libs[k + rng.NextBelow(static_cast<uint32_t>(libs.size() - k))]);
      cycle.imports[k] = libs[k];
    }
    std::vector<int> buses;
    for (int e = 0; e < (low ? 3 : kBuses); ++e) {
      buses.push_back(e);
    }
    for (int k = 0; k < kExports; ++k) {
      std::swap(buses[k], buses[k + rng.NextBelow(static_cast<uint32_t>(buses.size() - k))]);
      cycle.exports[k] = buses[k];
    }
    return cycle;
  }

  // The dispatcher's rule: a maximal handler among those the caller's class
  // dominates, earliest registration among incomparable maxima.
  static const Handler* Best(const std::vector<const Handler*>& eligible) {
    const Handler* best = eligible.front();
    for (const Handler* h : eligible) {
      if (Dominates(h->cls, best->cls) && !(h->cls == best->cls)) {
        best = h;
      }
    }
    return best;
  }

  Expect ExpectRaise(const Op& op) const {
    auto [principal, cls] = subject_model_[op.subject];
    Expect e;
    MDecision d = model_.CheckPath(principal, cls, buses_[op.target], kExecute, &e.tally);
    if (!d.allowed) {
      e.code = StatusCode::kPermissionDenied;
      return e;
    }
    std::vector<const Handler*> with;
    std::vector<const Handler*> without;
    for (const Handler& h : registered_[op.target]) {
      if (Dominates(cls, h.cls)) {
        with.push_back(&h);
        if (h.id != kFlakyId) {
          without.push_back(&h);
        }
      }
    }
    if (with.empty()) {
      e.code = StatusCode::kPermissionDenied;  // not cleared for any handler
      return e;
    }
    bool selected = op.kind == OpKind::kRaiseSelected;
    const Handler* first = selected ? Best(with) : with.back();
    e.value = first->id;
    e.flaky_error_ok = selected ? first->id == kFlakyId : with.size() != without.size();
    // res-low serves every bus res-flaky does, so `without` is never empty.
    e.alt_value = (selected ? Best(without) : without.back())->id;
    return e;
  }

  void Push(const Op& op) {
    while (AddStatsOp(ring_.size())) {
    }
    ring_.push_back(op);
  }

  static HandlerFn ConstHandler(int64_t id) {
    return [id](CallContext&) -> StatusOr<Value> { return Value{id}; };
  }

  static HandlerFn LibHandler(int f) {
    return [f](CallContext& ctx) -> StatusOr<Value> {
      const int64_t* arg = ctx.args.empty() ? nullptr : std::get_if<int64_t>(&ctx.args[0]);
      return Value{LibValue(f, arg != nullptr ? *arg : 0)};
    };
  }

  HandlerFn FlakyHandler() {
    return [this](CallContext&) -> StatusOr<Value> {
      if (flaky_calls_++ % kFlakyPeriod < kFlakyBurst) {
        return InternalError("res-flaky: injected failure");
      }
      return Value{kFlakyId};
    };
  }

  std::vector<int> libs_, buses_;  // model nodes
  std::vector<std::string> ext_names_;
  std::vector<std::vector<Handler>> registered_;  // generation-time dispatcher state
  std::vector<Cycle> cycles_;
  // Live world:
  std::vector<Subject> subjects_;
  std::vector<Subject> loaders_;  // dev at each loader class
  std::vector<HandlerFn> lib_handlers_;
  std::unordered_map<int64_t, HandlerFn> handlers_;
  std::vector<ExtensionManifest> manifests_;
  ExtensionId current_;
  std::vector<Capability> caps_;
  uint64_t flaky_calls_ = 0;
  uint64_t window_trips_ = 0;
  bool served_after_trip_ = true;
};

}  // namespace

std::unique_ptr<Workload> MakeExtensionChurn() { return std::make_unique<ExtensionChurn>(); }

}  // namespace xsec::e2e
