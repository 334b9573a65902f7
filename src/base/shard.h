// Monitor shard identifiers, assignment helpers and the per-domain stamps.
//
// The namespace, ACL store, label authority, and decision cache all
// partition their *validity domain* into a fixed number of monitor shards
// (docs/MODEL.md §15). A node's shard is decided once, at creation, by
// its top-level subtree: top-level containers hash by name, top-level leaves
// hash by owner principal (the "principal-hash fallback" for flat
// namespaces), and every deeper node inherits its parent's shard. Shards
// never migrate, so a shard id read without synchronisation is stable for
// the lifetime of the node.
//
// Two sentinel domains complete the picture:
//   kAllShards      — the root's domain, and the tag of mutations whose
//     effect is not confined to one shard (root metadata, ACL and label
//     slots that are unattached or shared, lattice definitions,
//     clearances): they bump every shard's stamp and the root's.
//   kAggregateShard — ids NameSpace::ShardOf cannot place: ids it has never
//     published (NotFound targets) and ids past its capacity. The domain
//     has no stamps; the monitor decides its checks uncached.
//
// Cached decisions compare stamp *values and domain*: a decision cached in
// one domain never validates against a numerically equal stamp set read
// from another (see CacheStamps::operator==).

#ifndef XSEC_SRC_BASE_SHARD_H_
#define XSEC_SRC_BASE_SHARD_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string_view>

namespace xsec {

using ShardId = uint32_t;

// Fixed shard count. A power of two so name/principal hashes fold evenly;
// 16 keeps each store's stamp array (17 counters with the root's) within
// three cache lines while still splitting a busy namespace ~16 ways.
inline constexpr ShardId kMonitorShardCount = 16;

// Domain of node ids the name space cannot place (never cached).
inline constexpr ShardId kAggregateShard = kMonitorShardCount;

// The root's domain; as a mutation tag, "applies to every shard".
inline constexpr ShardId kAllShards = kMonitorShardCount + 1;

// Tag for store slots that have not (yet) been attached to any node. Until a
// slot is attached its mutations conservatively bump every shard.
inline constexpr ShardId kUnknownShard = kMonitorShardCount + 2;

inline constexpr bool IsConcreteShard(ShardId s) {
  return s < kMonitorShardCount;
}

// One store's validity stamps: a generation per concrete shard plus one for
// the root's domain.
class ShardStamps {
 public:
  // A mutation tagged with a concrete shard bumps that shard's stamp; any
  // other tag bumps every stamp, the root's included. Release: the mutation
  // happens-before any reader that observes the new value.
  void Bump(ShardId shard) {
    if (IsConcreteShard(shard)) {
      stamps_[shard].fetch_add(1, std::memory_order_release);
      return;
    }
    for (auto& stamp : stamps_) {
      stamp.fetch_add(1, std::memory_order_release);
    }
  }

  // The stamp of a concrete shard; any other domain reads the root's.
  uint64_t Read(ShardId domain) const {
    return stamps_[IsConcreteShard(domain) ? domain : kRootSlot].load(std::memory_order_acquire);
  }

 private:
  static constexpr size_t kRootSlot = kMonitorShardCount;
  std::array<std::atomic<uint64_t>, kMonitorShardCount + 1> stamps_{};
};

// FNV-1a, folded into the shard range. Deterministic across runs so bench
// gates and the diff-fuzz oracle see stable shard assignment.
inline ShardId ShardOfName(std::string_view name) {
  uint64_t h = 1469598103934665603ull;
  for (char c : name) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ull;
  }
  return static_cast<ShardId>(h & (kMonitorShardCount - 1));
}

// Principal-hash fallback for top-level leaves in flat namespaces: the leaf
// has no subtree of its own, so its validity domain follows its owner.
inline ShardId ShardOfPrincipal(uint32_t principal_id) {
  uint64_t h = principal_id * 0x9E3779B97F4A7C15ull;
  return static_cast<ShardId>((h >> 32) & (kMonitorShardCount - 1));
}

}  // namespace xsec

#endif  // XSEC_SRC_BASE_SHARD_H_
