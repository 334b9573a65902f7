// A decision cache for the reference monitor.
//
// Keyed by (principal, node, requested modes, subject class); an entry also
// snapshots the validity stamps — name-space generation, ACL-store
// generation, membership epoch, label epoch — plus the *domain* the stamps
// were read from. In the legacy aggregate domain any policy-relevant
// mutation anywhere bumps one of the stamps and thereby invalidates every
// cached decision — coarse, but sound, and the common workload (many checks
// between rare policy changes) is exactly what experiment F8 measures. With
// sharded stamps (docs/MODEL.md §15) the monitor reads the target node's
// shard-local stamp set instead, so a mutation confined to one subtree
// leaves other shards' entries valid; the domain field keeps the two regimes
// from ever validating against each other's numerically equal stamps.
//
// The table is direct-mapped (power-of-two slots, overwrite on collision)
// and sharded: the key hash selects a shard, each shard owns a disjoint
// stripe of slots under its own lock, so concurrent Check() calls on
// different shards never contend. Slots store the *full* key — wide
// principal/node ids and the complete SecurityClass, not just its hash — so
// a hash collision can never return another subject's cached decision
// (slot matching by hash alone was a soundness bug; see
// DecisionCacheTest.HashCollidingClassesDoNotAlias).
//
// Counter invariant: every Lookup() counts exactly one of {hit, miss}. A
// probe that finds a matching key with stale stamps counts as a miss AND as
// a stale_hit, so hits + misses == total probes and stale_hits <= misses.

#ifndef XSEC_SRC_MONITOR_DECISION_CACHE_H_
#define XSEC_SRC_MONITOR_DECISION_CACHE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "src/base/shard.h"
#include "src/dac/access_mode.h"
#include "src/mac/security_class.h"
#include "src/monitor/audit.h"
#include "src/monitor/subject.h"
#include "src/naming/namespace.h"

namespace xsec {

struct CacheStamps {
  uint64_t namespace_generation = 0;
  uint64_t acl_generation = 0;
  uint64_t membership_epoch = 0;
  uint64_t label_epoch = 0;
  // The monitor's policy-reload epoch (ReferenceMonitor::NotePolicyReload):
  // bumped on every LoadPolicy/LoadPolicyFile swap, so decisions cached
  // against the pre-reload policy can never survive a reload even when no
  // individual store stamp moved (a reload whose only effect is a directive
  // the four store generations do not cover, e.g. a security-officer change).
  // The compiled-policy tables validate against the same stamp set.
  uint64_t policy_epoch = 0;

  // Validity domain the stamps were read from: a concrete monitor shard, or
  // kAggregateShard for the legacy global stamps (also used for unknown node
  // ids). Part of the key equality: a decision cached under one domain must
  // never be revalidated by a *coincidentally equal* stamp vector from
  // another — shard-local and aggregate counters advance independently, so
  // value equality across domains is meaningless.
  ShardId domain = kAggregateShard;

  bool operator==(const CacheStamps&) const = default;
};

// The whole family of stamp vectors at one instant: the aggregate (legacy
// global) domain plus every shard-local domain. Compiled tables carry one of
// these so a probe validates only the *target node's* shard entry — a
// mutation confined to another shard leaves this shard's compiled decisions
// consultable (docs/MODEL.md §15).
struct ShardStampSet {
  CacheStamps aggregate;
  std::array<CacheStamps, kMonitorShardCount> shard{};

  const CacheStamps& ForDomain(ShardId s) const {
    return IsConcreteShard(s) ? shard[s] : aggregate;
  }

  bool operator==(const ShardStampSet&) const = default;
};

class DecisionCache {
 public:
  explicit DecisionCache(size_t slot_count_pow2 = 8192);

  struct CachedDecision {
    bool allowed = false;
    DenyReason reason = DenyReason::kNone;
  };

  // Probes the cache; returns true and fills `out` on a valid hit.
  bool Lookup(const Subject& subject, NodeId node, AccessModeSet modes,
              const CacheStamps& current, CachedDecision* out);

  void Insert(const Subject& subject, NodeId node, AccessModeSet modes,
              const CacheStamps& current, CachedDecision decision);

  // Insert that cannot survive a Clear() issued after the caller captured
  // its stamps: `observed_clear_epoch` must be read (clear_epoch()) at the
  // same point the stamps are, *before* evaluating. Clear() bumps the epoch
  // before wiping slots, so an insert that raced a clear either lands before
  // the wipe (and is wiped) or observes the bumped epoch and refuses —
  // either way no pre-clear decision re-enters the cache. The ReferenceMonitor
  // check path uses this form; see ShardClearRaceTest.
  void Insert(const Subject& subject, NodeId node, AccessModeSet modes,
              const CacheStamps& current, CachedDecision decision,
              uint64_t observed_clear_epoch);

  void Clear();

  // Completed-Clear counter; see the epoch-carrying Insert overload.
  uint64_t clear_epoch() const { return clear_epoch_.load(std::memory_order_acquire); }

  // Counters are kept per shard (updated under the shard lock the probe
  // already holds, so the hot path shares no counter cache line across
  // shards) and summed here.
  uint64_t hits() const;
  uint64_t misses() const;
  uint64_t stale_hits() const;
  size_t slot_count() const { return shard_count_ * slots_per_shard_; }
  size_t shard_count() const { return shard_count_; }

 private:
  struct Slot {
    bool occupied = false;
    uint64_t key_hash = 0;
    // Full key: ids stored at 64 bits (wider than today's 32-bit id types,
    // so id growth can't silently reintroduce truncation) plus the complete
    // subject class.
    uint64_t principal = 0;
    uint64_t node = 0;
    uint64_t modes = 0;
    SecurityClass subject_class;
    CacheStamps stamps;
    CachedDecision decision;
  };

  struct Shard {
    std::mutex mu;
    std::vector<Slot> slots;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t stale_hits = 0;
  };

  static constexpr size_t kMaxShards = 64;

  static uint64_t KeyHash(const Subject& subject, NodeId node, AccessModeSet modes);

  // Shards are allocated once in the constructor and never resized (Shard
  // holds a mutex, so the container must never move them).
  std::unique_ptr<Shard[]> shards_;
  std::atomic<uint64_t> clear_epoch_{0};
  size_t shard_count_ = 1;
  size_t shard_mask_ = 0;
  unsigned shard_bits_ = 0;
  size_t slots_per_shard_ = 1;
  size_t slot_mask_ = 0;
};

}  // namespace xsec

#endif  // XSEC_SRC_MONITOR_DECISION_CACHE_H_
