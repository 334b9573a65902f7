// policy_churn: cache-hostile reads beside policy writes and data appends.
//
// 256 users in 20 groups (four of them nested under parent groups), each
// user a subject at one of six MAC classes. Sixteen memfs volumes, one per
// monitor shard, each holding 8 directories of 16 data files and 2 log
// files. The client reads, stats, appends and lists by path over
// (subject, file) pairs that outnumber the decision cache's slots more than
// tenfold; ~20% of the ops are denied (no grant, explicit deny, MAC flow,
// traversal). Every 256 ops an administrator grants or revokes a group on
// one directory (AddAclEntry / RemoveAclEntriesFor), and rarely relabels a
// file (SetNodeLabel); every 1024 ops the client ticks the stats service and
// polls its subscription. Compiled tables, the interpreted fallback, the
// recompile window, shard-stamp invalidation, principal closures and audit
// delivery do most of the work.

#include "e2ebench/src/workload.h"
#include "src/base/shard.h"

namespace xsec::e2e {
namespace {

constexpr int kUsers = 256;
constexpr int kGroups = 20;
constexpr int kVolumes = static_cast<int>(kMonitorShardCount);
constexpr int kDirsPerVolume = 8;
constexpr int kDataPerDir = 16;
constexpr int kLogsPerDir = 2;
constexpr size_t kDataBytes = 64;
constexpr size_t kAppendBytes = 16;
constexpr size_t kAdminEvery = 256;
constexpr MClass kTop{2, 0b111};

constexpr uint32_t M(AccessMode m) { return static_cast<uint32_t>(m); }
constexpr uint32_t kRead = M(AccessMode::kRead);
constexpr uint32_t kList = M(AccessMode::kList);
constexpr uint32_t kAppend = M(AccessMode::kWriteAppend);
constexpr uint32_t kWrite = M(AccessMode::kWrite);

enum class AdminKind : uint8_t { kGrant, kRevoke, kRelabel };
struct AdminOp {
  AdminKind kind;
  int node;     // model node
  MClass label; // kRelabel
};

class PolicyChurn : public Workload {
 public:
  const char* name() const override { return "policy_churn"; }

  void Generate(uint64_t seed, bool tiny) override {
    Rng rng(seed);
    tick_every_ = 1024;
    std::vector<int> groups;
    for (int g = 0; g < kGroups; ++g) {
      groups.push_back(model_.AddGroup("g" + std::to_string(g)));
    }
    for (int d = 0; d < 4; ++d) {
      int parent = model_.AddGroup("dept" + std::to_string(d));
      for (int g = 5 * d; g < 5 * d + 5; ++g) {
        model_.AddMember(parent, groups[g]);
      }
      groups.push_back(parent);
    }
    grant_group_ = model_.AddGroup("granted");
    const MClass classes[] = {{0, 0}, {0, 0b001}, {1, 0}, {1, 0b001}, {1, 0b011}, {2, 0b011}};
    std::vector<int> users;
    for (int u = 0; u < kUsers; ++u) {
      int user = model_.AddUser("u" + std::to_string(u));
      model_.AddMember(groups[u % kGroups], user);
      model_.AddMember(groups[(u * 7 + 3) % kGroups], user);
      if (u % 5 == 0) {
        model_.AddMember(grant_group_, user);
      }
      users.push_back(user);
      subject_model_.push_back({user, classes[(u / 3) % 6]});
    }

    AddProbeNodes(&model_);
    // One volume per monitor shard: top-level names are picked so their
    // shard hashes cover all sixteen shards.
    std::vector<bool> shard_taken(kMonitorShardCount, false);
    for (int i = 0; static_cast<int>(volume_names_.size()) < kVolumes; ++i) {
      std::string name = "vol" + std::to_string(i);
      ShardId shard = ShardOfName(name);
      if (!shard_taken[shard]) {
        shard_taken[shard] = true;
        volume_names_.push_back(name);
      }
    }
    const MClass dir_labels[] = {{0, 0}, {0, 0}, {0, 0b001}, {1, 0},
                                 {1, 0b001}, {0, 0}, {1, 0}, {0, 0}};
    for (int v = 0; v < kVolumes; ++v) {
      int vol = model_.AddNode(0, volume_names_[v], MKind::kDirectory);
      model_.SetAcl(vol, {MAce{false, PolicyModel::kEveryone, kList}});
      for (int d = 0; d < kDirsPerVolume; ++d) {
        int k = v * kDirsPerVolume + d;
        int dir = model_.AddNode(vol, "d" + std::to_string(d), MKind::kDirectory);
        dirs_.push_back(dir);
        dir_volume_.push_back(v);
        int readers = groups[(k * 3) % groups.size()];
        int writers = groups[(k * 7 + 1) % kGroups];
        int banned = users[(k * 13) % kUsers];
        std::vector<MAce> acl{MAce{false, readers, kRead | kList},
                              MAce{false, writers, kRead | kList | kAppend},
                              MAce{true, banned, kRead}};
        // One directory in eight is not listable by everyone: traversal
        // into it is denied by DAC for everyone outside its groups.
        if (k % 8 != 5) {
          acl.push_back(MAce{false, PolicyModel::kEveryone, kList});
        }
        model_.SetAcl(dir, acl);
        model_.SetLabel(dir, dir_labels[(v + d) % 8]);
        for (int f = 0; f < kDataPerDir; ++f) {
          int file = model_.AddNode(dir, "f" + std::to_string(f), MKind::kFile);
          if ((k + f) % 8 == 0) {
            model_.SetAcl(file, {MAce{false, groups[(k + f) % kGroups], kRead}});
          }
          data_.push_back(file);
          data_volume_.push_back(v);
        }
        for (int l = 0; l < kLogsPerDir; ++l) {
          int log = model_.AddNode(dir, "log" + std::to_string(l), MKind::kFile);
          if (l == 0) {
            model_.SetLabel(log, kTop);  // anyone may append up; nobody reads
          }
          logs_.push_back(log);
          log_volume_.push_back(v);
        }
      }
    }

    const size_t n = tiny ? 8192 : 131072;
    ring_.reserve(n);
    size_t admin_index = 0;
    for (size_t i = 0; i < n; ++i) {
      if (AddStatsOp(i)) {
        continue;
      }
      if (i % kAdminEvery == kAdminEvery / 2) {
        ring_.push_back(NextAdmin(admin_index++));
        continue;
      }
      ring_.push_back(NextAccess(rng));
    }
    MeasureInputProps(ring_,
                      [this](const Op& op, std::vector<uint64_t>* out) { Tuples(op, out); },
                      &props_);
  }

  void Build(Env* env) override {
    BootEnv(model_, env);
    // Volumes first, so CreateNodes finds every file and directory bound.
    volumes_.clear();
    Kernel& kernel = env->kernel();
    for (const std::string& name : volume_names_) {
      volumes_.push_back(std::make_unique<MemFs>(&kernel, "/" + name, "/svc/" + name));
      Must(volumes_.back()->Install(), "volume " + name);
    }
    std::vector<uint8_t> content(kDataBytes);
    for (size_t i = 0; i < data_.size(); ++i) {
      for (size_t b = 0; b < kDataBytes; ++b) {
        content[b] = static_cast<uint8_t>(i * 7 + b);
      }
      Must(volumes_[data_volume_[i]]->CreateFileAsSystem(model_.node(data_[i]).path, content)
               .status(),
           "data file");
    }
    for (size_t i = 0; i < logs_.size(); ++i) {
      Must(volumes_[log_volume_[i]]
               ->CreateFileAsSystem(model_.node(logs_[i]).path,
                                    std::vector<uint8_t>(kAppendBytes, 0))
               .status(),
           "log file");
    }
    CreateNodes(model_, env, [](int) -> HandlerFn { return nullptr; });
    ApplyPolicy(model_, env);
    InstallProbe(model_, env);

    subjects_.clear();
    for (auto [principal, cls] : subject_model_) {
      subjects_.push_back(env->sys->Login(env->principals[principal], env->Class(cls)));
    }
    admin_labels_.clear();
    for (const AdminOp& admin : admin_) {
      admin_labels_.push_back(env->Class(admin.label));
    }
    append_data_.assign(kAppendBytes, 0x2a);
  }

  Outcome Execute(Env& env, const Op& op) override {
    Subject& subject = subjects_[op.subject];
    switch (op.kind) {
      case OpKind::kFsRead: {
        auto r = volumes_[data_volume_[op.target]]->Read(subject, Path(data_[op.target]));
        return r.ok() ? Outcome{StatusCode::kOk, static_cast<int64_t>(r->size()) + (*r)[0] * 1000}
                      : ToOutcome(r);
      }
      case OpKind::kFsStat: {
        auto r = volumes_[data_volume_[op.target]]->Stat(subject, Path(data_[op.target]));
        return r.ok() ? Outcome{StatusCode::kOk, *r} : ToOutcome(r);
      }
      case OpKind::kFsAppend: {
        Status s = volumes_[log_volume_[op.target]]->Append(subject, Path(logs_[op.target]),
                                                            append_data_);
        return Outcome{s.code(), kAnyValue};
      }
      case OpKind::kFsList: {
        auto r = volumes_[dir_volume_[op.target]]->ListDir(subject, Path(dirs_[op.target]));
        return r.ok() ? Outcome{StatusCode::kOk, static_cast<int64_t>(r->size())} : ToOutcome(r);
      }
      case OpKind::kAdmin: {
        const AdminOp& admin = admin_[op.target];
        NodeId node = env.nodes[admin.node];
        ReferenceMonitor& monitor = env.monitor();
        Status s;
        switch (admin.kind) {
          case AdminKind::kGrant:
            s = monitor.AddAclEntry(env.system, node,
                                    AclEntry{AclEntryType::kAllow, env.principals[grant_group_],
                                             AccessModeSet(kRead | kList)});
            break;
          case AdminKind::kRevoke:
            s = monitor.RemoveAclEntriesFor(env.system, node, env.principals[grant_group_]);
            break;
          case AdminKind::kRelabel:
            s = monitor.SetNodeLabel(env.system, node, admin_labels_[op.target]);
            break;
        }
        return Outcome{s.code(), kAnyValue};
      }
      default:
        return Outcome{StatusCode::kUnimplemented, kAnyValue};
    }
  }

  uint64_t Replay(Env& env, Tracer& tracer, uint32_t parent, uint64_t op_id,
                  const Op& op) override {
    int node = Target(op);
    AccessTimes t = ReplayAccess(env, tracer, parent, op_id, subjects_[op.subject],
                                 Path(node), env.nodes[node], AccessModeSet(ModeOf(op.kind)));
    // No op here reaches the extension system: its layers are probed on the
    // world's resident probe extension with this op's subject.
    ReplayExtension(env, tracer, parent, op_id, subjects_[op.subject], &env.probe_cap,
                    env.probe_iface, "probe-ext", &env.probe_handler, Args{});
    return t.check_path_ns;
  }

  void Tuples(const Op& op, std::vector<uint64_t>* out) const override {
    if (op.kind == OpKind::kTick || op.kind == OpKind::kPoll || op.kind == OpKind::kAdmin) {
      return;
    }
    auto [principal, cls] = subject_model_[op.subject];
    PathTuples(principal, cls, Target(op), ModeOf(op.kind), out);
  }

 private:
  static uint32_t ModeOf(OpKind kind) {
    switch (kind) {
      case OpKind::kFsAppend:
        return kAppend;
      case OpKind::kFsList:
        return kList;
      default:
        return kRead;
    }
  }

  int Target(const Op& op) const {
    switch (op.kind) {
      case OpKind::kFsAppend:
        return logs_[op.target];
      case OpKind::kFsList:
        return dirs_[op.target];
      default:
        return data_[op.target];
    }
  }

  const std::string& Path(int node) const { return model_.node(node).path; }

  // One read/stat/append/list op; ~20% are drawn to be denied.
  Op NextAccess(Rng& rng) {
    Op op;
    uint32_t r = rng.NextBelow(100);
    op.kind = r < 40   ? OpKind::kFsRead
              : r < 65 ? OpKind::kFsStat
              : r < 80 ? OpKind::kFsAppend
                       : OpKind::kFsList;
    size_t targets = op.kind == OpKind::kFsAppend ? logs_.size()
                     : op.kind == OpKind::kFsList ? dirs_.size()
                                                  : data_.size();
    bool want_deny = (rng.NextDouble() < 0.2);
    for (int attempt = 0;; ++attempt) {
      op.subject = static_cast<uint16_t>(rng.NextBelow(kUsers));
      op.target = rng.NextBelow(static_cast<uint32_t>(targets));
      op.expect = ExpectFor(op);
      bool denied = op.expect.code != StatusCode::kOk;
      if (denied == want_deny || attempt == 200) {
        return op;
      }
    }
  }

  Expect ExpectFor(const Op& op) const {
    auto [principal, cls] = subject_model_[op.subject];
    Expect e;
    MDecision d = model_.CheckPath(principal, cls, Target(op), ModeOf(op.kind), &e.tally);
    if (op.kind == OpKind::kFsAppend && !d.allowed) {
      // MemFs::Append falls back to a full write check.
      d = model_.CheckPath(principal, cls, Target(op), kWrite, &e.tally);
    }
    e.code = d.allowed ? StatusCode::kOk : StatusCode::kPermissionDenied;
    switch (op.kind) {
      case OpKind::kFsRead:
        e.value = static_cast<int64_t>(kDataBytes) +
                  static_cast<uint8_t>(op.target * 7) * int64_t{1000};
        break;
      case OpKind::kFsStat:
        e.value = static_cast<int64_t>(kDataBytes);
        break;
      case OpKind::kFsList:
        e.value = kDataPerDir + kLogsPerDir;
        break;
      default:
        break;
    }
    return e;
  }

  // Admin op j of the ring: pairs of grant/revoke on one directory, and
  // every sixteenth pair of slots a relabel of one data file up to the top
  // class and back. Every pair restores the policy, so each pass over the
  // ring sees the same sequence of states.
  Op NextAdmin(size_t j) {
    size_t phase = j % 16;
    AdminOp admin;
    if (phase < 14) {
      size_t pair = (j / 16) * 7 + phase / 2;
      admin.node = dirs_[(pair * 37) % dirs_.size()];
      admin.kind = phase % 2 == 0 ? AdminKind::kGrant : AdminKind::kRevoke;
      if (admin.kind == AdminKind::kGrant) {
        model_.AddAce(admin.node, MAce{false, grant_group_, kRead | kList});
      } else {
        model_.RemoveAcesFor(admin.node, grant_group_);
      }
    } else {
      admin.node = data_[((j / 16) * 97) % data_.size()];
      admin.kind = AdminKind::kRelabel;
      admin.label = phase == 14 ? MClass{2, 0b011}
                                : model_.EffectiveLabel(model_.node(admin.node).parent);
      model_.SetLabel(admin.node, admin.label);
    }
    admin_.push_back(admin);
    Op op;
    op.kind = OpKind::kAdmin;
    op.target = static_cast<uint32_t>(admin_.size() - 1);
    return op;
  }

  std::vector<std::string> volume_names_;
  std::vector<int> dirs_, data_, logs_;  // model nodes
  std::vector<int> dir_volume_, data_volume_, log_volume_;
  std::vector<AdminOp> admin_;
  int grant_group_ = 0;
  // Live world:
  std::vector<std::unique_ptr<MemFs>> volumes_;
  std::vector<Subject> subjects_;
  std::vector<SecurityClass> admin_labels_;
  std::vector<uint8_t> append_data_;
};

}  // namespace

std::unique_ptr<Workload> MakePolicyChurn() { return std::make_unique<PolicyChurn>(); }

}  // namespace xsec::e2e
