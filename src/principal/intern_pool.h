// Shard-local interning of principal names (docs/MODEL.md §15).
//
// A million-subject policy repeats the same principal names across ACL
// entries and telemetry. NameArena packs interned names into
// large flat chunks (no per-name heap node, no capacity slack), and
// PrincipalInternPool deduplicates them into dense local ids, so a shard's
// working set of principal metadata stays contiguous and cache-resident
// instead of scattered across a heap of small strings.
//
// Thread safety: none. Each owner keeps one pool per monitor shard and
// accesses it under its own lock; that is the point of shard-local pools —
// no cross-shard synchronisation on the hot path.

#ifndef XSEC_SRC_PRINCIPAL_INTERN_POOL_H_
#define XSEC_SRC_PRINCIPAL_INTERN_POOL_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace xsec {

// Append-only string storage with stable views. Interned views stay valid
// for the arena's lifetime.
class NameArena {
 public:
  std::string_view Store(std::string_view s);

  size_t bytes_used() const { return bytes_used_; }

 private:
  static constexpr size_t kChunkSize = 64 * 1024;

  std::vector<std::unique_ptr<char[]>> chunks_;
  char* cur_ = nullptr;  // current chunk; names pack tail-to-head
  size_t cur_used_ = 0;
  size_t cur_cap_ = 0;
  size_t bytes_used_ = 0;
};

// Deduplicating name → dense-local-id pool over a NameArena.
class PrincipalInternPool {
 public:
  // Interns `name`, returning its dense local id (stable across repeats).
  uint32_t Intern(std::string_view name);

  // The interned name for a local id; empty view when out of range.
  std::string_view NameOf(uint32_t local_id) const;

  // Local id of an already-interned name, or UINT32_MAX.
  uint32_t Find(std::string_view name) const;

  size_t size() const { return names_.size(); }
  size_t bytes_used() const { return arena_.bytes_used(); }

 private:
  NameArena arena_;
  std::vector<std::string_view> names_;              // local id → name
  std::unordered_map<std::string_view, uint32_t> ids_;  // views into arena_
};

}  // namespace xsec

#endif  // XSEC_SRC_PRINCIPAL_INTERN_POOL_H_
