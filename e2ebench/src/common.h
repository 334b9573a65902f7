// Shared machinery of the xsec end-to-end benchmark: the seeded generator,
// the policy model that predicts every op's outcome (the oracle), the live
// environment a workload runs against, the audit sink that times denial
// delivery, and the span recorder of the traced run.
//
// A workload is generated from the seed into a ring of ops, each carrying its
// expected outcome; the runner builds a fresh SecureSystem from the same
// description, then replays the ring in a closed loop from one client thread.

#ifndef XSEC_E2EBENCH_SRC_COMMON_H_
#define XSEC_E2EBENCH_SRC_COMMON_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/rng.h"
#include "src/core/secure_system.h"

namespace xsec::e2e {

// -- The policy model (oracle) ------------------------------------------------

// The benchmark's lattice: three levels, three categories. Every workload uses
// it, so the model can name a class as (level, category bitmask).
inline constexpr const char* kLevelNames[] = {"public", "internal", "secret"};
inline constexpr const char* kCategoryNames[] = {"a", "b", "c"};

struct MClass {
  uint8_t level = 0;
  uint8_t cats = 0;  // bit i = kCategoryNames[i]
  friend bool operator==(MClass x, MClass y) = default;
};

inline bool Dominates(MClass s, MClass o) {
  return s.level >= o.level && (o.cats & ~s.cats) == 0;
}

struct MAce {
  bool deny = false;
  int who = 0;
  uint32_t modes = 0;
};

struct MDecision {
  bool allowed = false;
  DenyReason reason = DenyReason::kNone;
};

// The monitor decisions one op makes, as the model predicts them: how many
// allow, and the reason of each denial. Summed over the ops a window ran, it
// must equal the MonitorStats deltas reason by reason.
struct Tally {
  uint16_t allows = 0;
  uint8_t n_denied = 0;
  std::array<DenyReason, 6> denied{};
  void Allow() { ++allows; }
  void Deny(DenyReason reason) { denied[n_denied++] = reason; }
};

enum class MKind : uint8_t { kExisting, kDirectory, kService, kInterface, kProcedure, kFile };

// An independent re-statement of the paper's decision procedure over the
// nodes and principals a workload creates: deny-overriding ACLs inherited
// from the nearest ancestor, labels inherited likewise, the flow rules with
// write-up restricted to write-append, and `list` on every ancestor.
class PolicyModel {
 public:
  // Principals 0..2 exist in every world: the kernel's system user, the
  // facade's "everyone" group, and "dev", the user that loads extensions.
  static constexpr int kSystem = 0;
  static constexpr int kEveryone = 1;
  static constexpr int kDev = 2;

  PolicyModel();

  int AddUser(std::string name);  // joins "everyone", as SecureSystem does
  int AddGroup(std::string name);
  void AddMember(int group, int member);

  int AddNode(int parent, std::string name, MKind kind);
  int Find(std::string_view path) const;  // -1 if absent

  // Own-ACL edits with the reference monitor's semantics (AddAclEntry
  // copies the inherited ACL down first and merges duplicate entries).
  void SetAcl(int node, std::vector<MAce> acl);
  void AddAce(int node, MAce ace);
  void RemoveAcesFor(int node, int who);
  void SetLabel(int node, MClass label);

  MDecision Check(int principal, MClass cls, int node, uint32_t modes) const;
  // CheckPath semantics: `list` on each ancestor, root first, then the leaf.
  MDecision CheckPath(int principal, MClass cls, int node, uint32_t modes, Tally* tally) const;

  struct Principal {
    std::string name;
    bool group = false;
    std::vector<int> member_of;
  };
  struct Node {
    int parent = -1;
    std::string name;
    std::string path;
    MKind kind = MKind::kDirectory;
    bool has_acl = false;
    std::vector<MAce> acl;
    bool has_label = false;
    MClass label;
  };
  const std::vector<Principal>& principals() const { return principals_; }
  const std::vector<Node>& nodes() const { return nodes_; }
  const Node& node(int id) const { return nodes_[id]; }
  int EffectiveAclNode(int node) const;
  MClass EffectiveLabel(int node) const;

 private:
  bool InClosure(int principal, int who) const;

  std::vector<Principal> principals_;
  std::vector<Node> nodes_;
  mutable std::vector<std::vector<bool>> closure_;  // lazily filled
};

// -- Ops and their expected outcomes ------------------------------------------

enum class OpKind : uint8_t {
  kInvoke,          // Kernel::Invoke by path (procedure or extended interface)
  kCallCapability,  // Kernel::CallCapability on a linked import
  kFsRead,
  kFsStat,
  kFsAppend,
  kFsList,
  kRaiseSelected,   // Kernel::RaiseEvent, class-selected
  kRaiseBroadcast,  // Kernel::RaiseEvent, broadcast
  kLoad,            // Kernel::LoadExtension
  kUnload,          // Kernel::UnloadExtension
  kAdmin,           // ReferenceMonitor AddAclEntry / RemoveAclEntriesFor / SetNodeLabel
  kTick,            // StatsService::Tick
  kPoll,            // StatsService::PollSubscription
};
inline constexpr size_t kOpKindCount = 13;
const char* OpKindName(OpKind kind);

// The end-to-end latency family an op kind reports under.
enum class Family : uint8_t { kInvoke, kFs, kEvent, kLink, kUnlink, kAdmin, kStats };
inline constexpr size_t kFamilyCount = 7;
Family FamilyOf(OpKind kind);

inline constexpr int64_t kAnyValue = INT64_MIN;

struct Expect {
  StatusCode code = StatusCode::kOk;
  int64_t value = kAnyValue;  // checked when the call succeeds
  // Event dispatch with a flaky handler: the result without it (quarantined)
  // and its own failure are acceptable too.
  int64_t alt_value = kAnyValue;
  bool flaky_error_ok = false;
  Tally tally;
};

struct Op {
  OpKind kind = OpKind::kInvoke;
  uint16_t subject = 0;  // index into the workload's subject table
  uint32_t target = 0;   // workload-specific target index
  int64_t arg = 0;
  Expect expect;
};

struct Outcome {
  StatusCode code = StatusCode::kOk;
  int64_t value = kAnyValue;
};

// Properties the generated input was built to have (printed every run).
struct InputProps {
  uint64_t distinct_tuples = 0;  // distinct (subject, node, mode) decisions in one ring
  double repeat_share = 0;       // ops whose leaf tuple repeats an earlier op's
  double denial_share = 0;       // ops expected to be denied
  double mutations_per_1k = 0;   // policy / name-space mutations per 1000 ops
};

// Fills `props` from the model-level description of a ring.
void MeasureInputProps(const std::vector<Op>& ring,
                       const std::function<void(const Op&, std::vector<uint64_t>*)>& tuples,
                       InputProps* props);
uint64_t TupleKey(int principal, MClass cls, int node, uint32_t modes);

// -- Audit delivery probe -----------------------------------------------------

// The benchmark-owned NDJSON sink behind AuditLog::StartDrain. It renders each
// retained record as one JSON line (into a bounded in-memory buffer) and, for
// denials the client registered before issuing them, records the time from
// the call's start until the record reached the sink.
class AuditProbe {
 public:
  void Register(uint64_t sequence, uint64_t start_ns);
  void OnRecord(const AuditRecord& record);

  uint64_t received() const { return received_.load(std::memory_order_acquire); }
  // Delivery lags in ns. Drainer-owned: touch only after AuditLog::Flush.
  std::vector<uint64_t>& lags() { return lags_; }

 private:
  static constexpr size_t kSlots = 4096;
  struct Slot {
    std::atomic<uint64_t> sequence{~0ull};
    std::atomic<uint64_t> start_ns{0};
  };
  std::array<Slot, kSlots> slots_;
  std::atomic<uint64_t> received_{0};
  std::string buffer_;
  std::vector<uint64_t> lags_;
};

// -- The live environment -----------------------------------------------------

// One booted SecureSystem plus the benchmark's handles into it.
struct Env {
  std::unique_ptr<SecureSystem> sys;
  Subject system;
  std::shared_ptr<AuditProbe> audit;
  uint64_t subscription = 0;
  std::vector<PrincipalId> principals;  // by model principal
  std::vector<NodeId> nodes;            // by model node
  // Common probe targets (every world has them): a no-op procedure and an
  // interface served by the resident extension "probe-ext".
  Capability probe_cap;
  HandlerFn probe_handler;
  NodeId probe_iface;
  ExtensionSupervisor* supervisor = nullptr;

  Kernel& kernel() { return sys->kernel(); }
  ReferenceMonitor& monitor() { return sys->monitor(); }
  SecurityClass Class(MClass cls) const;
};

// A failed set-up step ends the run: prints `what` and exits with status 2.
[[noreturn]] void Fatal(const std::string& what);
void Must(const Status& status, const std::string& what);

// Adds the common probe subtree to a model (call once, before the workload's
// own nodes): /svc/probe/noop and /svc/probe/iface.
void AddProbeNodes(PolicyModel* model);

// Boots `env` for `model`: lattice, principals, supervision, the audit sink
// and drain, and a stats subscription. Nodes are then created by the workload
// (CreateNodes) and policy applied with ApplyPolicy.
void BootEnv(const PolicyModel& model, Env* env);
// Creates every model node the workload did not create itself (directories,
// services, interfaces; procedures via `procedure_handler`), then resolves
// all model nodes to NodeIds.
void CreateNodes(const PolicyModel& model, Env* env,
                 const std::function<HandlerFn(int node)>& procedure_handler);
// Applies the model's own ACLs and labels through the monitor's admin calls.
void ApplyPolicy(const PolicyModel& model, Env* env);
// Loads probe-ext and resolves the probe targets.
void InstallProbe(const PolicyModel& model, Env* env);

// Status code and int payload of a call result.
template <typename T>
Outcome ToOutcome(const StatusOr<T>& result) {
  return Outcome{result.ok() ? StatusCode::kOk : result.status().code(), kAnyValue};
}
Outcome ValueOutcome(const StatusOr<Value>& result);

// -- Tracing ------------------------------------------------------------------

enum class Layer : uint8_t {
  kParse,
  kLookup,
  kCheckPath,
  kCheck,
  kDeniedCheck,
  kCompiledProbe,
  kInterpreted,
  kClosure,
  kDacEvaluate,
  kCallCapability,
  kHandler,
  kSelect,
  kAdmit,
  kUnload,
  kRecompile,
  kFlush,
  kTick,
  kPoll,
};
inline constexpr size_t kLayerCount = 18;
const char* LayerSpanName(Layer layer);

// Spans of the traced run: every sampled op gets a span, and each layer
// replay a child span under it. Kept in memory, written at exit.
class Tracer {
 public:
  explicit Tracer(size_t max_spans) : max_spans_(max_spans) {}

  uint32_t OpSpan(OpKind kind, uint64_t op_id, uint64_t start_ns, uint64_t end_ns);
  // Runs `fn` as a child span of `parent`; returns its duration.
  template <typename Fn>
  uint64_t Time(Layer layer, uint32_t parent, uint64_t op_id, Fn&& fn) {
    uint64_t start = MonotonicNowNs();
    fn();
    uint64_t end = MonotonicNowNs();
    Record(layer, parent, op_id, start, end);
    return end - start;
  }
  void Record(Layer layer, uint32_t parent, uint64_t op_id, uint64_t start_ns, uint64_t end_ns);
  // Credits `explained_ns` of an op's duration to the layers on its path.
  void Explain(OpKind kind, uint64_t op_ns, uint64_t explained_ns);

  const std::vector<uint64_t>& durations(Layer layer) const {
    return layer_ns_[static_cast<size_t>(layer)];
  }
  const std::vector<uint64_t>& op_durations(OpKind kind) const {
    return op_ns_[static_cast<size_t>(kind)];
  }
  double ExplainedShare(OpKind kind) const;
  double ExplainedShareAll() const;
  size_t span_count() const { return spans_.size(); }
  bool Write(const std::string& path) const;

 private:
  struct Span {
    uint32_t name;  // Layer, or kLayerCount + OpKind for op spans
    uint32_t parent;
    uint64_t op_id;
    uint64_t start_ns;
    uint64_t end_ns;
  };
  size_t max_spans_;
  std::vector<Span> spans_;
  std::array<std::vector<uint64_t>, kLayerCount> layer_ns_;
  std::array<std::vector<uint64_t>, kOpKindCount> op_ns_;
  std::array<uint64_t, kOpKindCount> explained_num_{};
  std::array<uint64_t, kOpKindCount> explained_den_{};
};

// Replays a mediated access's inputs through the naming, principal, dac and
// monitor entry points as children of `parent`.
struct AccessTimes {
  uint64_t check_path_ns = 0;
  uint64_t check_ns = 0;
};
AccessTimes ReplayAccess(Env& env, Tracer& tracer, uint32_t parent, uint64_t op_id,
                         const Subject& subject, std::string_view path, NodeId node,
                         AccessModeSet modes);
// Replays the extension-system entry points for an invocation that reaches
// `handler` (owned by `ext_name`, empty for a plain procedure) through
// `capability` or interface `iface`. Returns the time of the layers on the
// op's path (select, admit, handler).
uint64_t ReplayExtension(Env& env, Tracer& tracer, uint32_t parent, uint64_t op_id,
                         Subject& subject, const Capability* capability, NodeId iface,
                         const std::string& ext_name, const HandlerFn* handler,
                         const Args& args);

// -- Small statistics helpers -------------------------------------------------

// Nearest-rank quantile of `v` (sorted in place); 0 when empty.
uint64_t Quantile(std::vector<uint64_t>& v, double q);
double Median(std::vector<double> v);

}  // namespace xsec::e2e

#endif  // XSEC_E2EBENCH_SRC_COMMON_H_
