#include "src/monitor/monitor_stats.h"

#include <chrono>

namespace xsec {
namespace {

// Process-wide monotone instance ids make the per-thread slot cache safe
// against allocator recycling: a new MonitorStats at an old address still
// gets a fresh id, so stale cache entries can never alias it.
std::atomic<uint64_t> g_next_instance_id{0};

}  // namespace

MonitorStats::MonitorStats()
    : instance_id_(g_next_instance_id.fetch_add(1, std::memory_order_relaxed)) {
  slots_[kSlots].shared = true;
}

MonitorStats::SlotCache::Entry& MonitorStats::ClaimSlot(SlotCache& cache) {
  uint32_t index = next_slot_.fetch_add(1, std::memory_order_relaxed);
  Slot* slot = index < kSlots ? &slots_[index] : &slots_[kSlots];
  SlotCache::Entry& entry = cache.entries[cache.next_victim];
  cache.next_victim = (cache.next_victim + 1) % SlotCache::kWays;
  entry = SlotCache::Entry{instance_id_, slot, 0};
  return entry;
}

uint64_t MonotonicNowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

void MonitorStats::RecordLatencyNs(uint64_t ns) {
  Slot& slot = *LocalEntry().slot;
  Bump(slot, slot.latency_buckets[LatencyBucketIndex(ns)]);
  // The sample count completes the record (release): a reader that sees it
  // (acquire) also sees the bucket bump, so sum(buckets) >= samples.
  BumpRelease(slot, slot.latency_samples);
}

uint64_t MonitorStats::checks_total() const {
  // Every decision lands in exactly one reason bucket (kNone = allowed), so
  // the total is the sum over reasons — no separate hot-path counter needed.
  return Sum([](const Slot& s) {
    uint64_t total = 0;
    for (const auto& c : s.by_reason) {
      total += c.load(std::memory_order_relaxed);
    }
    return total;
  });
}

uint64_t MonitorStats::denied_total() const {
  return Sum([](const Slot& s) {
    uint64_t total = 0;
    for (size_t i = 1; i < kDenyReasonCount; ++i) {  // skip kNone (allowed)
      total += s.by_reason[i].load(std::memory_order_relaxed);
    }
    return total;
  });
}

uint64_t MonitorStats::by_reason(DenyReason reason) const {
  size_t i = static_cast<size_t>(reason);
  return Sum([i](const Slot& s) { return s.by_reason[i].load(std::memory_order_relaxed); });
}

uint64_t MonitorStats::by_mode(AccessMode mode) const {
  unsigned b = static_cast<unsigned>(__builtin_ctz(static_cast<uint32_t>(mode)));
  return Sum([b](const Slot& s) { return s.by_mode[b].load(std::memory_order_relaxed); });
}

uint64_t MonitorStats::by_shard(ShardId shard) const {
  size_t i = ShardIndex(shard);
  return Sum([i](const Slot& s) { return s.by_shard[i].load(std::memory_order_relaxed); });
}

uint64_t MonitorStats::latency_samples() const {
  return Sum([](const Slot& s) { return s.latency_samples.load(std::memory_order_relaxed); });
}

uint64_t MonitorStats::latency_bucket(size_t i) const {
  return Sum([i](const Slot& s) { return s.latency_buckets[i].load(std::memory_order_relaxed); });
}

uint64_t MonitorStats::LatencyQuantileNs(double q) const {
  return TakeSnapshot().LatencyQuantileNs(q);
}

uint64_t MonitorStats::Snapshot::ModeTotal() const {
  uint64_t total = 0;
  for (uint64_t m : by_mode) {
    total += m;
  }
  return total;
}

uint64_t MonitorStats::Snapshot::ShardTotal() const {
  uint64_t total = 0;
  for (uint64_t c : by_shard) {
    total += c;
  }
  return total;
}

uint64_t MonitorStats::Snapshot::LatencyBucketTotal() const {
  uint64_t total = 0;
  for (uint64_t b : latency_buckets) {
    total += b;
  }
  return total;
}

uint64_t MonitorStats::Snapshot::LatencyQuantileNs(double q) const {
  if (q < 0.0) {
    q = 0.0;
  }
  if (q > 1.0) {
    q = 1.0;
  }
  uint64_t total = LatencyBucketTotal();
  if (total == 0) {
    return 0;
  }
  uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(total - 1));
  uint64_t seen = 0;
  for (size_t i = 0; i < kLatencyBuckets; ++i) {
    seen += latency_buckets[i];
    if (seen > rank) {
      return LatencyBucketUpperBoundNs(i);
    }
  }
  return LatencyBucketUpperBoundNs(kLatencyBuckets - 1);
}

bool MonitorStats::Snapshot::SameCounters(const Snapshot& other) const {
  if (checks_total != other.checks_total || allowed != other.allowed || denied != other.denied ||
      latency_samples != other.latency_samples) {
    return false;
  }
  for (size_t i = 0; i < kDenyReasonCount; ++i) {
    if (by_reason[i] != other.by_reason[i]) {
      return false;
    }
  }
  for (size_t i = 0; i < static_cast<size_t>(kAccessModeCount); ++i) {
    if (by_mode[i] != other.by_mode[i]) {
      return false;
    }
  }
  for (size_t i = 0; i < kShardBuckets; ++i) {
    if (by_shard[i] != other.by_shard[i]) {
      return false;
    }
  }
  for (size_t i = 0; i < kLatencyBuckets; ++i) {
    if (latency_buckets[i] != other.latency_buckets[i]) {
      return false;
    }
  }
  return true;
}

MonitorStats::Snapshot MonitorStats::TakeSnapshot() const {
  Snapshot snap;
  // Pass 1 — the record-completing counters, with acquire loads: a decision
  // whose reason (or a latency record whose sample count) is visible here
  // release-published its earlier mode/domain/bucket bumps, so pass 2 is
  // guaranteed to see them.
  for (size_t r = 0; r < kDenyReasonCount; ++r) {
    snap.by_reason[r] =
        Sum([r](const Slot& s) { return s.by_reason[r].load(std::memory_order_acquire); });
  }
  snap.latency_samples =
      Sum([](const Slot& s) { return s.latency_samples.load(std::memory_order_acquire); });
  // Pass 2 — the counters those completions published.
  for (size_t m = 0; m < static_cast<size_t>(kAccessModeCount); ++m) {
    snap.by_mode[m] =
        Sum([m](const Slot& s) { return s.by_mode[m].load(std::memory_order_relaxed); });
  }
  for (size_t i = 0; i < kShardBuckets; ++i) {
    snap.by_shard[i] =
        Sum([i](const Slot& s) { return s.by_shard[i].load(std::memory_order_relaxed); });
  }
  for (size_t b = 0; b < kLatencyBuckets; ++b) {
    snap.latency_buckets[b] =
        Sum([b](const Slot& s) { return s.latency_buckets[b].load(std::memory_order_relaxed); });
  }
  snap.allowed = snap.by_reason[static_cast<size_t>(DenyReason::kNone)];
  for (size_t r = 1; r < kDenyReasonCount; ++r) {
    snap.denied += snap.by_reason[r];
  }
  // Derived from the same single pass, so this identity holds by
  // construction on every snapshot.
  snap.checks_total = snap.allowed + snap.denied;
  return snap;
}

}  // namespace xsec
