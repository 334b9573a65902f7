// A decision cache for the reference monitor.
//
// Keyed by (principal, node, requested modes, subject class, and whether the
// entry covers the node alone or the whole path walk to it); an entry also
// snapshots the validity stamps of the node's domain (docs/MODEL.md §15) —
// name-space generation, ACL generation, membership epoch, label epoch —
// plus the *domain* they were read from: the node's shard, or the root's
// domain. The stamps are the only way an entry goes stale: every mutation
// that can change a decision bumps the stamps of the domains it can affect,
// so a mutation confined to one subtree leaves other domains' entries valid;
// the domain field keeps two domains from ever validating against each
// other's numerically equal stamps.
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

  // Validity domain the stamps were read from: a concrete monitor shard, or
  // kAllShards for the root's. Part of the key equality: a decision cached
  // under one domain must never be revalidated by a *coincidentally equal*
  // stamp vector from another — each domain's counters advance
  // independently, so value equality across domains is meaningless.
  ShardId domain = kAggregateShard;

  bool operator==(const CacheStamps&) const = default;
};

class DecisionCache {
 public:
  explicit DecisionCache(size_t slot_count_pow2 = 8192);

  struct CachedDecision {
    bool allowed = false;
    DenyReason reason = DenyReason::kNone;
  };

  // Probes the cache; returns true and fills `out` on a valid hit.
  // `via_path` selects the resolved-path entry of the same tuple (the whole
  // CheckPath walk that ends at `node`, ReferenceMonitor::CheckPath) instead
  // of the per-node entry; the two are distinct keys sharing one table.
  bool Lookup(const Subject& subject, NodeId node, AccessModeSet modes,
              const CacheStamps& current, CachedDecision* out, bool via_path = false);

  // Stores `decision` under the stamps `current` the caller read *before*
  // evaluating it, so a mutation that raced the evaluation leaves the entry
  // already stale (ReferenceMonitor::CheckUnsampled).
  void Insert(const Subject& subject, NodeId node, AccessModeSet modes,
              const CacheStamps& current, CachedDecision decision, bool via_path = false);

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

  // The key's mode word: the requested modes, plus kViaPathBit for a
  // resolved-path entry.
  static constexpr uint64_t kViaPathBit = uint64_t{1} << 32;
  static uint64_t ModeKey(AccessModeSet modes, bool via_path) {
    return modes.bits() | (via_path ? kViaPathBit : 0);
  }

  // FNV-1a over the key, then a full avalanche: FNV's multiply carries a
  // difference only upward, so without it a key difference confined to
  // high bits (kViaPathBit) never reaches the shard and slot index bits.
  static uint64_t KeyHash(const Subject& subject, NodeId node, uint64_t mode_key);

  // Shards are allocated once in the constructor and never resized (Shard
  // holds a mutex, so the container must never move them).
  std::unique_ptr<Shard[]> shards_;
  size_t shard_count_ = 1;
  size_t shard_mask_ = 0;
  unsigned shard_bits_ = 0;
  size_t slots_per_shard_ = 1;
  size_t slot_mask_ = 0;
};

}  // namespace xsec

#endif  // XSEC_SRC_MONITOR_DECISION_CACHE_H_
