#include "src/monitor/monitor_stats.h"

#include <chrono>
#include <thread>

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

template <typename Fn>
uint64_t MonitorStats::ReadStable(Fn&& read, uint64_t* generation_out) const {
  for (int pass = 0; pass < kOptimisticReads; ++pass) {
    uint64_t before = reset_generation_.load(std::memory_order_acquire);
    if ((before & 1) != 0) {
      std::this_thread::yield();  // a Reset is zeroing the slots
      continue;
    }
    uint64_t value = read();
    std::atomic_thread_fence(std::memory_order_acquire);
    if (reset_generation_.load(std::memory_order_relaxed) == before) {
      if (generation_out != nullptr) {
        *generation_out = before;
      }
      return value;
    }
  }
  // A Reset storm kept moving the generation. Reset holds reset_mu_ through
  // its zeroing, so under the lock the generation is even and stays put.
  std::lock_guard<std::mutex> lock(reset_mu_);
  if (generation_out != nullptr) {
    *generation_out = reset_generation_.load(std::memory_order_acquire);
  }
  return read();
}

uint64_t MonitorStats::checks_total() const {
  // Every decision lands in exactly one reason bucket (kNone = allowed), so
  // the total is the sum over reasons — no separate hot-path counter needed.
  return ReadStable([this] {
    return Sum([](const Slot& s) {
      uint64_t total = 0;
      for (const auto& c : s.by_reason) {
        total += c.load(std::memory_order_relaxed);
      }
      return total;
    });
  });
}

uint64_t MonitorStats::denied_total() const {
  return ReadStable([this] {
    uint64_t total = 0;
    for (size_t i = 1; i < kDenyReasonCount; ++i) {  // skip kNone (allowed)
      total += Sum([i](const Slot& s) { return s.by_reason[i].load(std::memory_order_relaxed); });
    }
    return total;
  });
}

uint64_t MonitorStats::by_reason(DenyReason reason) const {
  size_t i = static_cast<size_t>(reason);
  return ReadStable([this, i] {
    return Sum([i](const Slot& s) { return s.by_reason[i].load(std::memory_order_relaxed); });
  });
}

uint64_t MonitorStats::by_mode(AccessMode mode) const {
  unsigned b = static_cast<unsigned>(__builtin_ctz(static_cast<uint32_t>(mode)));
  return ReadStable([this, b] {
    return Sum([b](const Slot& s) { return s.by_mode[b].load(std::memory_order_relaxed); });
  });
}

uint64_t MonitorStats::latency_samples() const {
  return ReadStable([this] {
    return Sum([](const Slot& s) { return s.latency_samples.load(std::memory_order_relaxed); });
  });
}

uint64_t MonitorStats::latency_bucket(size_t i) const {
  return ReadStable([this, i] {
    return Sum([i](const Slot& s) {
      return s.latency_buckets[i].load(std::memory_order_relaxed);
    });
  });
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
  if (reset_epoch != other.reset_epoch || checks_total != other.checks_total ||
      allowed != other.allowed || denied != other.denied ||
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
  for (size_t i = 0; i < kLatencyBuckets; ++i) {
    if (latency_buckets[i] != other.latency_buckets[i]) {
      return false;
    }
  }
  return true;
}

MonitorStats::Snapshot MonitorStats::TakeSnapshot() const {
  Snapshot snap;
  uint64_t generation = 0;
  ReadStable(
      [this, &snap] {
        // Pass 1 — the record-completing counters, with acquire loads: a
        // decision whose reason (or a latency record whose sample count) is
        // visible here release-published its earlier mode/bucket bumps, so
        // pass 2 is guaranteed to see them.
        for (size_t r = 0; r < kDenyReasonCount; ++r) {
          snap.by_reason[r] = Sum(
              [r](const Slot& s) { return s.by_reason[r].load(std::memory_order_acquire); });
        }
        snap.latency_samples = Sum(
            [](const Slot& s) { return s.latency_samples.load(std::memory_order_acquire); });
        // Pass 2 — the counters those completions published.
        for (size_t m = 0; m < static_cast<size_t>(kAccessModeCount); ++m) {
          snap.by_mode[m] = Sum(
              [m](const Slot& s) { return s.by_mode[m].load(std::memory_order_relaxed); });
        }
        for (size_t b = 0; b < kLatencyBuckets; ++b) {
          snap.latency_buckets[b] = Sum([b](const Slot& s) {
            return s.latency_buckets[b].load(std::memory_order_relaxed);
          });
        }
        return uint64_t{0};
      },
      &generation);
  snap.reset_epoch = generation >> 1;
  snap.allowed = snap.by_reason[static_cast<size_t>(DenyReason::kNone)];
  for (size_t r = 1; r < kDenyReasonCount; ++r) {
    snap.denied += snap.by_reason[r];
  }
  // Derived from the same single pass, so this identity holds by
  // construction on every snapshot.
  snap.checks_total = snap.allowed + snap.denied;
  return snap;
}

void MonitorStats::Reset() {
  // Serialized against other Resets so the generation protocol below is the
  // only writer interleaving readers can observe (two overlapped Resets
  // could otherwise present an even generation mid-zeroing).
  std::lock_guard<std::mutex> lock(reset_mu_);
  reset_generation_.fetch_add(1, std::memory_order_acq_rel);  // -> odd
  for (Slot& slot : slots_) {
    for (auto& c : slot.by_reason) {
      c.store(0, std::memory_order_relaxed);
    }
    for (auto& c : slot.by_mode) {
      c.store(0, std::memory_order_relaxed);
    }
    slot.latency_samples.store(0, std::memory_order_relaxed);
    for (auto& c : slot.latency_buckets) {
      c.store(0, std::memory_order_relaxed);
    }
  }
  reset_generation_.fetch_add(1, std::memory_order_release);  // -> even
}

}  // namespace xsec
