// Differential fuzzing of the reference monitor's full Check pipeline (the
// decision cache in front of the interpreted walk) against the interpreted
// decision procedure alone (CheckInterpreted, the oracle).
//
// Each round builds or mutates a random world (principals, groups, a random
// tree, random ACLs, labels, clearances), then fires hundreds of random
// checks. For every check the pipeline must agree with the oracle on
// allowed and deny reason, and a cache miss must return the oracle's detail
// string too (a hit carries none: cache entries keep allowed and reason
// only). Explain's closing verdict line must name the oracle's decision. Further sweeps hold the pipeline to the oracle right after each
// mutation (a stale cached decision is never served), sharded against
// aggregate stamp domains, and cache-on against cache-off CheckPath.
//
// The fault-sweep variant arms random failpoints (policy I/O, stats
// fan-out) while reloading policy files mid-fuzz: injected failures may
// cost a reload, never divergence.
//
// Seeding follows the repo convention: XSEC_FAULT_SEED in the environment
// overrides the default, and the seed is printed via SCOPED_TRACE on every
// failure so any CI hit replays locally:
//
//   XSEC_FAULT_SEED=<seed> ./xsec_diff_fuzz_test

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/failpoint.h"
#include "src/base/rng.h"
#include "src/extsys/kernel.h"
#include "src/monitor/reference_monitor.h"
#include "src/policy/policy_io.h"

namespace xsec {
namespace {

uint64_t SeedFromEnv(uint64_t fallback) {
  if (const char* env = std::getenv("XSEC_FAULT_SEED")) {
    return std::strtoull(env, nullptr, 10);
  }
  return fallback;
}

// A randomly generated policy world plus the bookkeeping the fuzzer needs to
// keep aiming mutations and checks at things that exist.
class RandomWorld {
 public:
  RandomWorld(Rng& rng, MonitorOptions options)
      : rng_(rng), level_count_(1 + rng.NextBelow(3)), category_count_(rng.NextBelow(6)) {
    monitor_ = std::make_unique<ReferenceMonitor>(&ns_, &acls_, &principals_, &labels_, options);

    std::vector<std::string> levels;
    for (size_t i = 0; i < level_count_; ++i) {
      levels.push_back("level" + std::to_string(i));
    }
    if (level_count_ > 1) {
      (void)labels_.DefineLevels(levels);
    }
    for (size_t i = 0; i < category_count_; ++i) {
      (void)labels_.DefineCategory("cat" + std::to_string(i));
    }

    const size_t users = 3 + rng.NextBelow(4);
    for (size_t i = 0; i < users; ++i) {
      principals_pool_.push_back(*principals_.CreateUser("user" + std::to_string(i)));
    }
    const size_t groups = 1 + rng.NextBelow(3);
    for (size_t i = 0; i < groups; ++i) {
      PrincipalId group = *principals_.CreateGroup("group" + std::to_string(i));
      principals_pool_.push_back(group);
      for (PrincipalId user : principals_pool_) {
        if (rng.NextBool(1, 3)) {
          (void)principals_.AddMember(group, user);
        }
      }
    }

    nodes_.push_back(ns_.root());
    containers_.push_back(ns_.root());
    const size_t node_count = 20 + rng.NextBelow(31);
    for (size_t i = 0; i < node_count; ++i) {
      NodeId parent = containers_[rng.NextBelow(containers_.size())];
      NodeKind kind = static_cast<NodeKind>(rng.NextBelow(6));
      auto id = ns_.Bind(parent, "n" + std::to_string(i), kind, RandomPrincipal());
      if (!id.ok()) {
        continue;
      }
      nodes_.push_back(*id);
      if (KindAllowsChildren(kind)) {
        containers_.push_back(*id);
      }
      if (rng.NextBool(2, 5)) {
        (void)ns_.SetLabelRef(*id, labels_.StoreLabel(RandomClass()));
      }
      if (rng.NextBool(1, 2)) {
        (void)ns_.SetAclRef(*id, acls_.Create(RandomAcl()));
      }
    }
    for (PrincipalId p : principals_pool_) {
      if (rng.NextBool(1, 4)) {
        labels_.SetClearance(p.value, RandomClass());
      }
    }
  }

  SecurityClass RandomClass() {
    // Capacity jitters above the defined category count so equal classes
    // with different bitset widths flow through the cache's key comparison.
    CategorySet set(category_count_ + rng_.NextBelow(3));
    for (size_t c = 0; c < category_count_; ++c) {
      if (rng_.NextBool(1, 2)) {
        set.Set(c);
      }
    }
    return SecurityClass(static_cast<TrustLevel>(rng_.NextBelow(level_count_)), std::move(set));
  }

  Acl RandomAcl() {
    Acl acl;
    if (rng_.NextBool(1, 10)) {
      return acl;  // explicit empty ACL ("acl <path> none")
    }
    const size_t entries = 1 + rng_.NextBelow(4);
    for (size_t i = 0; i < entries; ++i) {
      acl.AddEntry({rng_.NextBool(1, 4) ? AclEntryType::kDeny : AclEntryType::kAllow,
                    RandomPrincipal(),
                    AccessModeSet(static_cast<uint32_t>(1 + rng_.NextBelow(255)))});
    }
    return acl;
  }

  PrincipalId RandomPrincipal() {
    return principals_pool_[rng_.NextBelow(principals_pool_.size())];
  }

  NodeId RandomNode() {
    // Mostly live nodes; occasionally an id that was never bound.
    if (rng_.NextBool(1, 20)) {
      return NodeId{static_cast<uint32_t>(rng_.NextBelow(10000))};
    }
    return nodes_[rng_.NextBelow(nodes_.size())];
  }

  Subject RandomSubject() {
    SecurityClass cls;
    if (!class_pool_.empty() && rng_.NextBool(7, 10)) {
      cls = class_pool_[rng_.NextBelow(class_pool_.size())];
    } else {
      cls = RandomClass();
      class_pool_.push_back(cls);
      if (class_pool_.size() > 24) {
        class_pool_.erase(class_pool_.begin());
      }
    }
    return Subject{RandomPrincipal(), std::move(cls), 1};
  }

  // A check tuple: half the time a repeat of one of the last few tuples, so
  // the cache answers repeats between mutations; the whole tuple space is so
  // large that fresh draws alone repeat only by chance.
  struct CheckTuple {
    Subject subject;
    NodeId node;
    AccessModeSet modes;
  };
  CheckTuple RandomCheck() {
    if (!recent_checks_.empty() && rng_.NextBool(1, 2)) {
      return recent_checks_[rng_.NextBelow(recent_checks_.size())];
    }
    CheckTuple tuple{RandomSubject(), RandomNode(), RandomModes()};
    if (recent_checks_.size() < 16) {
      recent_checks_.push_back(tuple);
    } else {
      recent_checks_[rng_.NextBelow(16)] = tuple;
    }
    return tuple;
  }

  AccessModeSet RandomModes() {
    if (rng_.NextBool(1, 30)) {
      return AccessModeSet();
    }
    AccessModeSet modes;
    const size_t bits = 1 + rng_.NextBelow(3);
    for (size_t i = 0; i < bits; ++i) {
      modes |= AccessModeSet(static_cast<uint32_t>(1u << rng_.NextBelow(kAccessModeCount)));
    }
    return modes;
  }

  // One random policy mutation; every branch leaves the world consistent.
  void Mutate() {
    switch (rng_.NextBelow(8)) {
      case 0: {  // swap a random node's ACL
        NodeId node = nodes_[rng_.NextBelow(nodes_.size())];
        (void)ns_.SetAclRef(node, acls_.Create(RandomAcl()));
        break;
      }
      case 1: {  // edit an existing stored ACL in place
        if (acls_.size() > 0) {
          (void)acls_.AddEntry(static_cast<AclStore::AclRef>(rng_.NextBelow(acls_.size())),
                               {rng_.NextBool(1, 3) ? AclEntryType::kDeny : AclEntryType::kAllow,
                                RandomPrincipal(),
                                AccessModeSet(static_cast<uint32_t>(1 + rng_.NextBelow(255)))});
        }
        break;
      }
      case 2: {  // relabel a node
        NodeId node = nodes_[rng_.NextBelow(nodes_.size())];
        (void)ns_.SetLabelRef(node, labels_.StoreLabel(RandomClass()));
        break;
      }
      case 3: {  // membership change
        PrincipalId a = RandomPrincipal();
        PrincipalId b = RandomPrincipal();
        if (rng_.NextBool(1, 2)) {
          (void)principals_.AddMember(a, b);
        } else {
          (void)principals_.RemoveMember(a, b);
        }
        break;
      }
      case 4: {  // grow the tree
        NodeId parent = containers_[rng_.NextBelow(containers_.size())];
        auto id = ns_.Bind(parent, "m" + std::to_string(mutation_serial_++),
                           NodeKind::kFile, RandomPrincipal());
        if (id.ok()) {
          nodes_.push_back(*id);
        }
        break;
      }
      case 5: {  // new principal: the one mutation that bumps NO stamp
        auto id = principals_.CreateUser("late" + std::to_string(mutation_serial_++));
        if (id.ok()) {
          principals_pool_.push_back(*id);
        }
        break;
      }
      case 6: {  // clearance change
        labels_.SetClearance(RandomPrincipal().value, RandomClass());
        break;
      }
      case 7: {  // ownership change
        NodeId node = nodes_[rng_.NextBelow(nodes_.size())];
        (void)ns_.SetOwner(node, RandomPrincipal());
        break;
      }
    }
  }

  // Unbinds a random childless node, or rebinds a path unbound earlier (the
  // new node gets a fresh id: ids are never reused).
  void UnbindOrRebindLeaf() {
    if (!unbound_paths_.empty() && rng_.NextBool(1, 2)) {
      auto id = ns_.BindPath(unbound_paths_.back(), NodeKind::kFile, RandomPrincipal());
      unbound_paths_.pop_back();
      if (id.ok()) {
        nodes_.push_back(*id);
      }
      return;
    }
    NodeId node = nodes_[rng_.NextBelow(nodes_.size())];
    auto children = ns_.List(node);
    if (node == ns_.root() || !children.ok() || !children->empty()) {
      return;
    }
    std::string path = ns_.PathOf(node);
    if (ns_.Unbind(node).ok()) {
      unbound_paths_.push_back(std::move(path));
    }
  }

  // An ACL granting every principal the modes a walk and a kernel call need.
  Acl OpenAcl() {
    Acl acl;
    for (PrincipalId p : principals_pool_) {
      acl.AddEntry({AclEntryType::kAllow, p,
                    AccessMode::kList | AccessMode::kRead | AccessMode::kExecute |
                        AccessMode::kExtend});
    }
    return acl;
  }

  // Makes most directories traversable: most containers get the open ACL
  // and drop their own label (inheriting the root's ⊥), so random requests
  // mostly reach their leaf and the leaf's own policy decides.
  void OpenUp() {
    for (NodeId node : containers_) {
      if (rng_.NextBool(3, 4)) {
        (void)ns_.SetAclRef(node, acls_.Create(OpenAcl()));
      }
      if (node != ns_.root() && rng_.NextBool(3, 4)) {
        (void)ns_.SetLabelRef(node, kNoRef);
      }
    }
  }

  // Replaces the ACL of the root (or of a random container) with either a
  // random one or the open one, so paths flip between traversable and not.
  void ReplaceAncestorAcl(bool root) {
    NodeId node = root ? ns_.root() : containers_[rng_.NextBelow(containers_.size())];
    (void)ns_.SetAclRef(node, acls_.Create(rng_.NextBool(1, 2) ? OpenAcl() : RandomAcl()));
  }

  // Whether CheckPath would allow the request now, asked of a private
  // cache-off, audit-off monitor so no monitor under test is touched.
  bool WouldAllow(const Subject& subject, std::string_view path, AccessModeSet modes) {
    if (scout_ == nullptr) {
      MonitorOptions options = monitor_->options();
      options.cache_enabled = false;
      options.audit_policy = AuditPolicy::kOff;
      scout_ = std::make_unique<ReferenceMonitor>(&ns_, &acls_, &principals_, &labels_, options);
    }
    return scout_->CheckPath(subject, path, modes).allowed;
  }

  // One event on the chain `path` resolves through: the root, an ancestor or
  // the node itself gets a new ACL or label, or the node (if childless) is
  // unbound.
  void EditOnPath(std::string_view path) {
    AncestorBuffer chain;
    auto leaf = ns_.LookupWithAncestors(path, &chain);
    if (!leaf.ok()) {
      return;
    }
    size_t pick = rng_.NextBelow(chain.size() + 1);
    NodeId node = pick < chain.size() ? chain[pick] : *leaf;
    switch (rng_.NextBelow(3)) {
      case 0:
        (void)ns_.SetAclRef(node, acls_.Create(RandomAcl()));
        break;
      case 1:
        (void)ns_.SetLabelRef(node, labels_.StoreLabel(RandomClass()));
        break;
      case 2:
        if (node == *leaf && node != ns_.root() && ns_.Unbind(node).ok()) {
          unbound_paths_.emplace_back(path);
        }
        break;
    }
  }

  // A path to a live or dead node, a missing child, or not a path at all.
  std::string RandomPath() {
    switch (rng_.NextBelow(16)) {
      case 0:
        return JoinPath(ns_.PathOf(containers_[rng_.NextBelow(containers_.size())]), "absent");
      case 1:
        return rng_.NextBool(1, 2) ? "relative/path" : "/bad//path";
      case 2:
        if (!unbound_paths_.empty()) {
          return unbound_paths_[rng_.NextBelow(unbound_paths_.size())];
        }
        [[fallthrough]];
      default:
        return ns_.PathOf(nodes_[rng_.NextBelow(nodes_.size())]);
    }
  }

  ReferenceMonitor& monitor() { return *monitor_; }
  Rng& rng() { return rng_; }

  // A second monitor over the SAME stores, for configuration-equivalence
  // sweeps (e.g. sharded vs. aggregate stamp domains): both monitors see
  // every mutation; only their caching/validity machinery differs.
  ReferenceMonitor& ShadowMonitor(MonitorOptions options) {
    shadow_ = std::make_unique<ReferenceMonitor>(&ns_, &acls_, &principals_, &labels_, options);
    return *shadow_;
  }

 private:
  Rng& rng_;
  size_t level_count_;
  size_t category_count_;
  NameSpace ns_;
  AclStore acls_;
  PrincipalRegistry principals_;
  LabelAuthority labels_;
  std::unique_ptr<ReferenceMonitor> monitor_;
  std::unique_ptr<ReferenceMonitor> shadow_;
  std::unique_ptr<ReferenceMonitor> scout_;
  std::vector<PrincipalId> principals_pool_;
  std::vector<NodeId> nodes_;
  std::vector<NodeId> containers_;
  std::vector<SecurityClass> class_pool_;
  std::vector<std::string> unbound_paths_;
  std::vector<CheckTuple> recent_checks_;
  size_t mutation_serial_ = 0;
};

MonitorOptions RandomOptions(Rng& rng) {
  MonitorOptions options;
  options.dac_enabled = rng.NextBool(4, 5);
  options.mac_enabled = rng.NextBool(4, 5);
  options.cache_enabled = rng.NextBool(1, 2);
  options.stats_enabled = rng.NextBool(1, 2);
  options.flow.write_up_requires_append = rng.NextBool(1, 2);
  return options;
}

// The last line of an Explain text: its verdict.
std::string VerdictOf(std::string_view explained) {
  if (!explained.empty() && explained.back() == '\n') {
    explained.remove_suffix(1);
  }
  size_t newline = explained.rfind('\n');
  return std::string(newline == std::string_view::npos ? explained
                                                       : explained.substr(newline + 1));
}

std::string VerdictFor(const Decision& decision) {
  return decision.allowed
             ? "verdict : allowed"
             : "verdict : denied (" + std::string(DenyReasonName(decision.reason)) + ")";
}

// Runs `checks` random checks on the world, asserting that the full Check
// pipeline agrees with the interpreted oracle on every one, and that
// Explain's verdict is the oracle's.
void FuzzChecks(RandomWorld& world, size_t checks) {
  for (size_t i = 0; i < checks; ++i) {
    auto [subject, node, modes] = world.RandomCheck();
    Decision oracle = world.monitor().CheckInterpreted(subject, node, modes);
    const std::string explained = world.monitor().Explain(subject, node, modes);
    ASSERT_EQ(VerdictOf(explained), VerdictFor(oracle)) << explained;
    uint64_t hits_before = world.monitor().cache().hits();
    Decision full = world.monitor().Check(subject, node, modes);
    ASSERT_EQ(full.allowed, oracle.allowed)
        << "pipeline/interpreted ALLOW divergence: node=" << node.value
        << " principal=" << subject.principal.value << " modes=" << modes.ToString();
    ASSERT_EQ(full.reason, oracle.reason)
        << "pipeline/interpreted REASON divergence: node=" << node.value
        << " modes=" << modes.ToString() << " detail=" << full.detail << " vs " << oracle.detail;
    // A miss is decided by the interpreter, so it returns the oracle's
    // decision whole; a hit carries no detail.
    bool hit = world.monitor().cache().hits() != hits_before;
    ASSERT_EQ(full.detail, hit ? "" : oracle.detail) << "pipeline/interpreted DETAIL divergence";
  }
}

TEST(DiffFuzz, CachedPipelineNeverDivergesFromInterpreted) {
  const uint64_t seed = SeedFromEnv(0xd1ffu);
  SCOPED_TRACE("XSEC_FAULT_SEED=" + std::to_string(seed));
  Rng rng(seed);
  uint64_t checks = 0;
  uint64_t cache_hits = 0;

  const size_t rounds = 16;
  const size_t worlds = 4;
  for (size_t w = 0; w < worlds; ++w) {
    MonitorOptions options = RandomOptions(rng);
    options.cache_enabled = true;
    RandomWorld world(rng, options);
    for (size_t round = 0; round < rounds; ++round) {
      const size_t mutations = rng.NextBelow(4);
      for (size_t m = 0; m < mutations; ++m) {
        world.Mutate();
      }
      ASSERT_NO_FATAL_FAILURE(FuzzChecks(world, 256));
      checks += 256;
    }
    cache_hits += world.monitor().cache().hits();
  }

  // >= 10k randomized checks per sweep, and the cache must have answered
  // some of them (otherwise the comparison is vacuous).
  EXPECT_GE(checks, 10000u);
  EXPECT_GT(cache_hits, 0u);
}

TEST(DiffFuzz, MutationIsNeverServedStale) {
  const uint64_t seed = SeedFromEnv(0x57a1eu);
  SCOPED_TRACE("XSEC_FAULT_SEED=" + std::to_string(seed));
  Rng rng(seed);
  MonitorOptions options = RandomOptions(rng);
  options.cache_enabled = true;
  RandomWorld world(rng, options);

  // Each probe caches its tuple's decision, then the policy mutates: half
  // the time anywhere, half the time on the node's own ancestor chain (so
  // the mutation often changes the cached decision). The next Check of the
  // tuple must render the post-mutation decision: an entry whose stamps the
  // mutation moved is stale and re-decided, never served.
  for (int i = 0; i < 200; ++i) {
    auto [subject, node, modes] = world.RandomCheck();
    (void)world.monitor().Check(subject, node, modes);
    if (rng.NextBool(1, 2)) {
      world.Mutate();
    } else {
      world.EditOnPath(world.monitor().name_space().PathOf(node));
    }
    Decision oracle = world.monitor().CheckInterpreted(subject, node, modes);
    Decision after = world.monitor().Check(subject, node, modes);
    ASSERT_EQ(after.allowed, oracle.allowed) << "stale cached decision served";
    ASSERT_EQ(after.reason, oracle.reason) << "stale cached decision served";
  }
  // The sweep must actually have exercised the staleness diversion.
  EXPECT_GT(world.monitor().cache().stale_hits(), 0u);
}

// Every counter a CheckPath moves, read from one monitor.
struct PathCounters {
  MonitorStats::Snapshot stats;
  uint64_t audit_denials = 0;
  uint64_t audit_records = 0;

  explicit PathCounters(ReferenceMonitor& m)
      : stats(m.stats().TakeSnapshot()),
        audit_denials(m.audit().total_denials()),
        audit_records(m.audit().retained()) {}
};

// Asserts that two monitors moved every counter by the same amount between
// their `before` and `after` readings.
void ExpectSameDeltas(const PathCounters& on_before, const PathCounters& on_after,
                      const PathCounters& off_before, const PathCounters& off_after) {
  ASSERT_EQ(on_after.stats.checks_total - on_before.stats.checks_total,
            off_after.stats.checks_total - off_before.stats.checks_total)
      << "checks_total delta diverged";
  for (size_t r = 0; r < kDenyReasonCount; ++r) {
    ASSERT_EQ(on_after.stats.by_reason[r] - on_before.stats.by_reason[r],
              off_after.stats.by_reason[r] - off_before.stats.by_reason[r])
        << "by_reason delta diverged for reason " << r;
  }
  for (size_t m = 0; m < kAccessModeCount; ++m) {
    ASSERT_EQ(on_after.stats.by_mode[m] - on_before.stats.by_mode[m],
              off_after.stats.by_mode[m] - off_before.stats.by_mode[m])
        << "by_mode delta diverged for mode bit " << m;
  }
  for (size_t s = 0; s < MonitorStats::kShardBuckets; ++s) {
    ASSERT_EQ(on_after.stats.by_shard[s] - on_before.stats.by_shard[s],
              off_after.stats.by_shard[s] - off_before.stats.by_shard[s])
        << "by_shard delta diverged for shard " << s;
  }
  ASSERT_EQ(on_after.audit_denials - on_before.audit_denials,
            off_after.audit_denials - off_before.audit_denials)
      << "audit total_denials delta diverged";
  ASSERT_EQ(on_after.audit_records - on_before.audit_records,
            off_after.audit_records - off_before.audit_records)
      << "retained audit records diverged";
}

// An audit sink that is down for good: it trips on its first record and
// never probes again, so the monitor's audit-availability override holds.
std::shared_ptr<ResilientSink> DeadSink() {
  ResilientSinkOptions options;
  options.max_attempts = 1;
  options.trip_after = 1;
  options.probe_after_ns = 0;
  return std::make_shared<ResilientSink>(
      [](const AuditRecord&) -> Status { return UnavailableError("sink down"); }, options);
}

TEST(DiffFuzz, CheckPathCacheOnMatchesCacheOff) {
  // Equivalence oracle for the resolved-path cache entry: a cache-on and a
  // cache-off monitor over the SAME stores must agree on every CheckPath's
  // outcome and on every counter it moves (checks_total, per reason, per
  // mode, audit totals, per-shard checks), across the events that could
  // make a path entry wrong: root and ancestor ACL edits, relabels, leaf
  // unbind and rebind, membership changes, audit-all, lockdown, and a
  // tripped audit sink. Hot tuples are re-issued so path entries are both
  // admitted and served.
  const uint64_t seed = SeedFromEnv(0x9a7e5u);
  SCOPED_TRACE("XSEC_FAULT_SEED=" + std::to_string(seed));
  Rng rng(seed);
  uint64_t checks = 0;
  uint64_t path_hits = 0;

  const size_t worlds = 4;
  const size_t rounds = 24;
  for (size_t w = 0; w < worlds; ++w) {
    MonitorOptions on_options = RandomOptions(rng);
    on_options.cache_enabled = true;
    on_options.stats_enabled = true;
    on_options.audit_required = rng.NextBool(1, 2);
    on_options.audit_capacity = size_t{1} << 16;  // retained counts never saturate
    RandomWorld world(rng, on_options);
    world.OpenUp();
    ReferenceMonitor& on = world.monitor();
    MonitorOptions off_options = on_options;
    off_options.cache_enabled = false;
    ReferenceMonitor& off = world.ShadowMonitor(off_options);
    bool sink_installed = false;

    // Hot tuples outlive the rounds, so path entries admitted before an
    // event are probed again after it. They are mostly allowed when picked
    // (only allowed walks make path entries) and favour the modes the
    // kernel asks for: execute, and extend, which lockdown refuses.
    struct Probe {
      Subject subject;
      std::string path;
      AccessModeSet modes;
    };
    auto random_probe = [&world] {
      return Probe{world.RandomSubject(), world.RandomPath(), world.RandomModes()};
    };
    auto hot_probe = [&] {
      Probe probe = random_probe();
      for (int tries = 0; tries < 64 && rng.NextBool(3, 4); ++tries) {
        switch (rng.NextBelow(3)) {
          case 0:
            probe.modes = AccessMode::kExecute;
            break;
          case 1:
            probe.modes = AccessMode::kExtend;
            break;
        }
        if (world.WouldAllow(probe.subject, probe.path, probe.modes)) {
          break;
        }
        probe = random_probe();
      }
      return probe;
    };
    std::vector<Probe> hot;
    for (size_t i = 0; i < 8; ++i) {
      hot.push_back(hot_probe());
    }

    // The dead sink stays tripped, which turns path entries off for good,
    // so it only goes in during the second half.
    auto event = [&](size_t round) {
      switch (rng.NextBelow(10)) {
        case 0:
          world.ReplaceAncestorAcl(/*root=*/true);
          break;
        case 1:
          world.ReplaceAncestorAcl(/*root=*/false);
          break;
        case 2:
        case 3:  // an ACL edit, relabel or unbind on a hot path itself
          world.EditOnPath(hot[rng.NextBelow(hot.size())].path);
          break;
        case 4:
          world.UnbindOrRebindLeaf();
          break;
        case 5: {
          AuditPolicy policy = rng.NextBool(1, 3) ? AuditPolicy::kAll : AuditPolicy::kDenialsOnly;
          on.set_audit_policy(policy);
          off.set_audit_policy(policy);
          break;
        }
        case 6:
          on.set_lockdown(!on.lockdown());
          off.set_lockdown(on.lockdown());
          break;
        case 7:
          if (!sink_installed && 2 * round >= rounds && rng.NextBool(1, 2)) {
            on.audit().InstallResilientSink(DeadSink());
            off.audit().InstallResilientSink(DeadSink());
            sink_installed = true;
          }
          break;
        default:  // relabels, membership, ACL edits in place, binds, owners
          world.Mutate();
          break;
      }
    };

    for (size_t round = 0; round < rounds; ++round) {
      if (rng.NextBool(1, 3)) {
        world.OpenUp();  // undo some of the events' damage to traversability
      }
      hot[rng.NextBelow(hot.size())] = hot_probe();
      for (size_t i = 0; i < 256; ++i) {
        if (i % 64 == 63) {
          event(round);
        }
        Probe probe = rng.NextBool(4, 5) ? hot[rng.NextBelow(hot.size())] : random_probe();
        PathCounters on_before(on);
        PathCounters off_before(off);
        uint64_t hits_before = on.cache().hits();
        uint64_t misses_before = on.cache().misses();
        NodeId on_node, off_node;
        Decision with_cache = on.CheckPath(probe.subject, probe.path, probe.modes, &on_node);
        Decision without = off.CheckPath(probe.subject, probe.path, probe.modes, &off_node);
        ASSERT_EQ(with_cache.allowed, without.allowed)
            << "cache-on/cache-off CheckPath divergence: path=" << probe.path
            << " principal=" << probe.subject.principal.value
            << " modes=" << probe.modes.ToString();
        ASSERT_EQ(with_cache.reason, without.reason) << "reason divergence: path=" << probe.path;
        if (with_cache.allowed) {
          ASSERT_EQ(on_node, off_node) << "resolved to different nodes: path=" << probe.path;
        }
        ASSERT_NO_FATAL_FAILURE(
            ExpectSameDeltas(on_before, PathCounters(on), off_before, PathCounters(off)));
        // A served path entry is the only way an allowed CheckPath below the
        // root costs exactly one cache probe (traversal checks are on).
        if (with_cache.allowed && probe.path != "/" && on.cache().hits() == hits_before + 1 &&
            on.cache().misses() == misses_before) {
          ++path_hits;
        }
        ++checks;
      }
    }
  }
  EXPECT_GE(checks, 24000u);
  EXPECT_GT(path_hits, 0u) << "no CheckPath was served by a path entry; the oracle is vacuous";
}

// Fault sweep: injected policy-I/O and stats failures must never make the
// Check pipeline diverge from the interpreted oracle.
class DiffFuzzFaults : public ::testing::Test {
 protected:
  void TearDown() override { FailpointRegistry::Instance().DisarmAll(); }
};

TEST_F(DiffFuzzFaults, InjectedFaultsNeverCauseDivergence) {
  const uint64_t seed = SeedFromEnv(0xfa017u);
  SCOPED_TRACE("XSEC_FAULT_SEED=" + std::to_string(seed));
  Rng rng(seed);

  const char* sites[] = {"policy.io.open",    "policy.io.read",    "policy.io.write",
                         "policy.io.commit",  "stats.fanout.push", "stats.poll.wakeup"};
  const char* specs[] = {"error", "error=resource-exhausted,nth=2", "error=internal,times=3",
                         "sleep=1us", "off"};

  const std::string path = testing::TempDir() + "/xsec_diff_fuzz_policy.txt";
  uint64_t checks = 0;
  uint64_t cache_hits = 0;
  const size_t rounds = 24;
  for (size_t round = 0; round < rounds; ++round) {
    // Fresh kernel-backed world each few rounds, so policy file round-trips
    // exercise the reload/invalidation path under faults.
    Kernel kernel;
    constexpr std::string_view kBase =
        "xsec-policy v1\n"
        "user alice\n"
        "user bob\n"
        "group staff\n"
        "member staff alice\n"
        "node /fs/a file alice\n"
        "node /fs/b file bob\n"
        "acl /fs/a allow staff read|write\n"
        "acl /fs/b deny bob read\n";
    ASSERT_TRUE(LoadPolicy(kBase, &kernel).ok());
    PrincipalId alice = *kernel.principals().FindByName("alice");
    PrincipalId bob = *kernel.principals().FindByName("bob");
    NodeId a = *kernel.name_space().Lookup("/fs/a");
    NodeId b = *kernel.name_space().Lookup("/fs/b");

    // Arm a random subset of sites with random specs.
    for (const char* site : sites) {
      if (rng.NextBool(1, 2)) {
        (void)FailpointRegistry::Instance().Arm(site, specs[rng.NextBelow(5)]);
      }
    }

    // Policy file round trip under injected I/O faults; failures are fine,
    // the kernel keeps its in-memory policy either way.
    (void)SavePolicyFile(kernel, path);
    (void)LoadPolicyFile(path, &kernel, nullptr);

    for (size_t i = 0; i < 160; ++i) {
      Subject subject{rng.NextBool(1, 2) ? alice : bob, SecurityClass(), 1};
      NodeId node = rng.NextBool(1, 2) ? a : b;
      AccessModeSet modes(static_cast<uint32_t>(1 + rng.NextBelow(255)));
      Decision oracle = kernel.monitor().CheckInterpreted(subject, node, modes);
      Decision full = kernel.monitor().Check(subject, node, modes);
      ASSERT_EQ(full.allowed, oracle.allowed) << "pipeline divergence under faults";
      ASSERT_EQ(full.reason, oracle.reason) << "pipeline divergence under faults";
      ++checks;
    }
    cache_hits += kernel.monitor().cache().hits();
    FailpointRegistry::Instance().DisarmAll();
  }
  EXPECT_GE(checks, 3000u);
  EXPECT_GT(cache_hits, 0u) << "the cache answered no check; the sweep is vacuous";
}

}  // namespace
}  // namespace xsec
