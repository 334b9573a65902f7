#include "src/monitor/decision_cache.h"

#include <algorithm>
#include <bit>
#include <cassert>

namespace xsec {

DecisionCache::DecisionCache(size_t slot_count_pow2) {
  assert(slot_count_pow2 > 0 && std::has_single_bit(slot_count_pow2));
  shard_count_ = std::min(kMaxShards, slot_count_pow2);
  shard_mask_ = shard_count_ - 1;
  shard_bits_ = static_cast<unsigned>(std::countr_zero(shard_count_));
  slots_per_shard_ = slot_count_pow2 / shard_count_;
  slot_mask_ = slots_per_shard_ - 1;
  shards_ = std::make_unique<Shard[]>(shard_count_);
  for (size_t i = 0; i < shard_count_; ++i) {
    shards_[i].slots.resize(slots_per_shard_);
  }
}

uint64_t DecisionCache::KeyHash(const Subject& subject, NodeId node, uint64_t mode_key) {
  uint64_t h = 14695981039346656037ULL;
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  mix(subject.principal.value);
  mix(node.value);
  mix(mode_key);
  mix(subject.security_class.Hash());
  // murmur3's fmix64 finalizer.
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

bool DecisionCache::Lookup(const Subject& subject, NodeId node, AccessModeSet modes,
                           const CacheStamps& current, CachedDecision* out, bool via_path) {
  uint64_t mode_key = ModeKey(modes, via_path);
  uint64_t hash = KeyHash(subject, node, mode_key);
  Shard& shard = shards_[hash & shard_mask_];
  std::lock_guard<std::mutex> lock(shard.mu);
  Slot& slot = shard.slots[(hash >> shard_bits_) & slot_mask_];
  if (!slot.occupied || slot.key_hash != hash || slot.principal != subject.principal.value ||
      slot.node != node.value || slot.modes != mode_key ||
      !(slot.subject_class == subject.security_class)) {
    ++shard.misses;
    return false;
  }
  if (!(slot.stamps == current)) {
    // A stale probe is both a miss (the caller must re-evaluate) and a
    // stale_hit (the sub-counter F8 plots); see the header invariant.
    ++shard.stale_hits;
    ++shard.misses;
    slot.occupied = false;
    return false;
  }
  ++shard.hits;
  *out = slot.decision;
  return true;
}

uint64_t DecisionCache::hits() const {
  uint64_t total = 0;
  for (size_t i = 0; i < shard_count_; ++i) {
    std::lock_guard<std::mutex> lock(shards_[i].mu);
    total += shards_[i].hits;
  }
  return total;
}

uint64_t DecisionCache::misses() const {
  uint64_t total = 0;
  for (size_t i = 0; i < shard_count_; ++i) {
    std::lock_guard<std::mutex> lock(shards_[i].mu);
    total += shards_[i].misses;
  }
  return total;
}

uint64_t DecisionCache::stale_hits() const {
  uint64_t total = 0;
  for (size_t i = 0; i < shard_count_; ++i) {
    std::lock_guard<std::mutex> lock(shards_[i].mu);
    total += shards_[i].stale_hits;
  }
  return total;
}

void DecisionCache::Insert(const Subject& subject, NodeId node, AccessModeSet modes,
                           const CacheStamps& current, CachedDecision decision) {
  Insert(subject, node, modes, current, decision, clear_epoch());
}

void DecisionCache::Insert(const Subject& subject, NodeId node, AccessModeSet modes,
                           const CacheStamps& current, CachedDecision decision,
                           uint64_t observed_clear_epoch, bool via_path) {
  uint64_t mode_key = ModeKey(modes, via_path);
  uint64_t hash = KeyHash(subject, node, mode_key);
  Shard& shard = shards_[hash & shard_mask_];
  std::lock_guard<std::mutex> lock(shard.mu);
  // Clear() bumps the epoch before it wipes any shard, and the wipe takes
  // this same shard mutex. Holding the mutex, either the wipe has not
  // happened yet (our entry will be wiped with the rest) or it has, in which
  // case the pre-wipe epoch bump is visible here and we refuse — so a
  // decision evaluated against pre-clear stamps can never outlive the clear.
  // Relaxed suffices: the mutex orders us against the wipe, and the bump is
  // sequenced before the wipe in Clear().
  if (observed_clear_epoch != clear_epoch_.load(std::memory_order_relaxed)) {
    return;
  }
  Slot& slot = shard.slots[(hash >> shard_bits_) & slot_mask_];
  slot.occupied = true;
  slot.key_hash = hash;
  slot.principal = subject.principal.value;
  slot.node = node.value;
  slot.modes = mode_key;
  slot.subject_class = subject.security_class;
  slot.stamps = current;
  slot.decision = decision;
}

void DecisionCache::Clear() {
  // Epoch first, wipe second — the order the epoch-carrying Insert relies on.
  clear_epoch_.fetch_add(1, std::memory_order_release);
  for (size_t i = 0; i < shard_count_; ++i) {
    std::lock_guard<std::mutex> lock(shards_[i].mu);
    for (Slot& slot : shards_[i].slots) {
      slot.occupied = false;
    }
  }
}

}  // namespace xsec
