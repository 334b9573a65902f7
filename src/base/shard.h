// Monitor shard identifiers and assignment helpers.
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
//   kAggregateShard — the legacy global-stamp domain. Stamps read for an
//     unknown/out-of-range node id, or with sharding disabled, live here.
//   kAllShards      — "applies to every shard": mutations tagged this way
//     bump every per-shard generation (root metadata, shared ACL refs,
//     membership/clearance changes).
//
// Cached decisions compare stamp *values and domain*: a decision cached under
// the aggregate domain never validates against a numerically equal
// shard-local stamp set, and vice versa (see CacheStamps::operator==).

#ifndef XSEC_SRC_BASE_SHARD_H_
#define XSEC_SRC_BASE_SHARD_H_

#include <cstdint>
#include <string_view>

namespace xsec {

using ShardId = uint32_t;

// Fixed shard count. A power of two so name/principal hashes fold evenly;
// 16 keeps the per-shard stamp arrays small enough to sit in two cache lines
// while still splitting a busy namespace ~16 ways.
inline constexpr ShardId kMonitorShardCount = 16;

// Validity domain of stamps read with sharding disabled, or for node ids the
// namespace has never seen (NotFound decisions cache under this domain).
inline constexpr ShardId kAggregateShard = kMonitorShardCount;

// Tag for mutations whose effect is not confined to one shard.
inline constexpr ShardId kAllShards = kMonitorShardCount + 1;

// Tag for store slots that have not (yet) been attached to any node. Until a
// slot is attached its mutations conservatively bump every shard.
inline constexpr ShardId kUnknownShard = kMonitorShardCount + 2;

inline constexpr bool IsConcreteShard(ShardId s) {
  return s < kMonitorShardCount;
}

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
