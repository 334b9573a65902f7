// Operational statistics for the mediation path.
//
// The paper's reference monitor is "a central facility to provide naming and
// protection services for the entire system" (§3); this module is that
// facility's own instrument panel, and the monitor's only record of how many
// decisions it made: per-DenyReason decision counters (kNone = allowed),
// per-access-mode and per-validity-domain (monitor shard) check counters,
// and a log-linear (HdrHistogram-style) latency histogram sampled on the
// check path. StatsService (src/services/stats_service.h) surfaces every
// counter as a read-only node under /sys/monitor/... in the hierarchical
// namespace, so visibility of the telemetry is itself mediated by the
// monitor.
//
// Thread safety and hot-path cost: a shared fetch_add per counter would put
// several locked read-modify-writes (~7ns each measured) on every check —
// far more than the mediation fast path itself costs. Counters are instead
// striped: each recording thread claims a private cache-line-aligned slot
// the first time it touches an instance and then increments with plain
// relaxed load+store pairs (single writer per slot, ~0.4ns each). Threads
// beyond kSlots share one overflow slot that falls back to fetch_add, so
// totals stay exact at any thread count. Readers aggregate all slots with
// relaxed loads. Latency is *sampled* (1 in kSampleEvery checks per thread,
// per instance) so the two steady_clock reads stay off the common case.
//
// Consistency: counters only grow (there is no reset), and each is
// individually coherent, but two *separate* leaf reads are not mutually
// consistent. TakeSnapshot() is the sanctioned multi-counter view: it
// renders every counter in one pass, ordered so that its invariants
// (allowed + denied == checks_total, sum(by_mode) >= checks_total,
// sum(by_shard) >= checks_total, sum(latency_buckets) >= latency_samples)
// hold even under concurrent recording; at quiescence
// sum(by_shard) == checks_total exactly (docs/MODEL.md §11).

#ifndef XSEC_SRC_MONITOR_MONITOR_STATS_H_
#define XSEC_SRC_MONITOR_MONITOR_STATS_H_

#include <atomic>
#include <cstdint>

#include "src/base/shard.h"
#include "src/dac/access_mode.h"
#include "src/monitor/audit.h"

namespace xsec {

class MonitorStats {
 public:
  // Log-linear nanosecond buckets (HdrHistogram-style): each power-of-two
  // range is split into kSubBuckets linear sub-buckets, so a bucket's width
  // is at most 1/kSubBuckets of its lower bound — quantiles read from bucket
  // upper bounds are within 12.5% of the exact sample. Values below
  // 2*kSubBuckets ns get exact (1 ns) buckets; 2^kMaxLatencyBits ns ≈ 2.1 s
  // caps the histogram and anything slower lands in the last bucket.
  static constexpr size_t kSubBucketBits = 3;
  static constexpr size_t kSubBuckets = size_t{1} << kSubBucketBits;  // 8
  static constexpr size_t kMaxLatencyBits = 31;
  static constexpr size_t kLatencyBuckets =
      (kMaxLatencyBits - kSubBucketBits + 1) * kSubBuckets;  // 232
  // One check in kSampleEvery (per thread, per instance) is timed; must be a
  // power of two. Chosen so the two steady_clock reads a sample costs (~40ns
  // each on a virtualized clock) amortize to well under a nanosecond per
  // check.
  static constexpr uint64_t kSampleEvery = 256;
  // Threads with a private slot; the rest share the overflow slot.
  static constexpr size_t kSlots = 32;
  // One check counter per concrete monitor shard, plus one (the last)
  // shared by the root's domain and ids the name space cannot place (the
  // aggregate domain).
  static constexpr size_t kShardBuckets = kMonitorShardCount + 1;
  static constexpr size_t ShardIndex(ShardId shard) {
    return IsConcreteShard(shard) ? shard : kMonitorShardCount;
  }

  MonitorStats();
  MonitorStats(const MonitorStats&) = delete;
  MonitorStats& operator=(const MonitorStats&) = delete;

  // The bucket a latency sample lands in, and a bucket's inclusive upper
  // bound in ns. Exposed so tests can round-trip
  // RecordLatencyNs(ns) -> bucket -> quantile upper bound.
  static constexpr size_t LatencyBucketIndex(uint64_t ns) {
    if (ns < 2 * kSubBuckets) {
      return static_cast<size_t>(ns);  // exact 1 ns buckets
    }
    if (ns >= (uint64_t{1} << kMaxLatencyBits)) {
      return kLatencyBuckets - 1;  // overflow bucket
    }
    // msb >= kSubBucketBits + 1 here; the kSubBucketBits bits below the MSB
    // select the linear sub-bucket within the octave.
    unsigned msb = 63u - static_cast<unsigned>(__builtin_clzll(ns));
    unsigned shift = msb - static_cast<unsigned>(kSubBucketBits);
    size_t sub = static_cast<size_t>(ns >> shift) & (kSubBuckets - 1);
    return (msb - kSubBucketBits + 1) * kSubBuckets + sub;
  }
  static constexpr uint64_t LatencyBucketUpperBoundNs(size_t bucket) {
    if (bucket < 2 * kSubBuckets) {
      return bucket;  // exact buckets hold a single value
    }
    unsigned shift = static_cast<unsigned>(bucket / kSubBuckets) - 1;
    uint64_t lower = (kSubBuckets + (bucket & (kSubBuckets - 1))) << shift;
    return lower + ((uint64_t{1} << shift) - 1);
  }

  // -- Recording (check path; lock-free) --------------------------------------

  // Counts one decision about a node in validity domain `shard`: one count
  // per access mode present in the request, one for the domain, then the
  // reason bucket (kNone = allowed). The total is derived on read — every
  // decision lands in exactly one reason bucket and exactly one domain
  // bucket. The reason bump is a release store *after* the mode and domain
  // bumps: a reader that observes a decision's reason (acquire) therefore
  // also observes its modes and domain, which is what makes TakeSnapshot's
  // sum(by_mode) >= checks_total and sum(by_shard) >= checks_total hold
  // under concurrent recording.
  void RecordDecision(AccessModeSet modes, DenyReason reason, ShardId shard) {
    Slot& slot = *LocalEntry().slot;
    BumpModes(slot, modes, 1);
    Bump(slot, slot.by_shard[ShardIndex(shard)]);
    BumpRelease(slot, slot.by_reason[static_cast<size_t>(reason)]);
  }

  // Counts a CheckPath that a resolved-path cache entry answered exactly as
  // its walk would have: `list_steps` allowed `list` decisions, then one
  // allowed decision on `modes`. The walk's first step is the root (the
  // last bucket); every later step and the leaf are in `leaf_shard`.
  // Same release discipline as RecordDecision.
  void RecordAllowedPath(uint64_t list_steps, AccessModeSet modes, ShardId leaf_shard) {
    Slot& slot = *LocalEntry().slot;
    BumpModes(slot, AccessMode::kList, list_steps);
    BumpModes(slot, modes, 1);
    Bump(slot, slot.by_shard[kMonitorShardCount]);
    Bump(slot, slot.by_shard[ShardIndex(leaf_shard)], list_steps);
    BumpRelease(slot, slot.by_reason[static_cast<size_t>(DenyReason::kNone)], list_steps + 1);
  }

  // True once per kSampleEvery calls on this thread *for this instance*; the
  // caller then times the check and reports it via RecordLatencyNs. The
  // clock lives in the per-thread slot-cache entry, keyed by instance_id_:
  // a process-wide thread_local clock would be shared by all live instances
  // (e.g. the kernel's monitor plus a test's), halving each one's effective
  // sample rate and phase-correlating which instance gets timed.
  bool ShouldSampleLatency() {
    SlotCache::Entry& entry = LocalEntry();
    return (entry.sample_clock++ & (kSampleEvery - 1)) == 0;
  }

  void RecordLatencyNs(uint64_t ns);

  // -- Reading (any thread; aggregates over the slots) -------------------------
  // Each getter is one plain sum over the slots. Two getter calls are not
  // mutually consistent; TakeSnapshot is the sanctioned multi-counter view.

  uint64_t checks_total() const;
  uint64_t allowed_total() const { return by_reason(DenyReason::kNone); }
  uint64_t denied_total() const;
  uint64_t by_reason(DenyReason reason) const;
  uint64_t by_mode(AccessMode mode) const;
  // Decisions about nodes in `shard`'s validity domain; every non-concrete
  // id (the root's domain, the aggregate domain) reads the last bucket.
  uint64_t by_shard(ShardId shard) const;
  uint64_t latency_samples() const;
  uint64_t latency_bucket(size_t i) const;

  // Approximate quantile (q in [0,1]) of the sampled check latency, in ns:
  // the upper bound of the histogram bucket containing the q-th sample.
  // 0 if nothing has been sampled yet.
  uint64_t LatencyQuantileNs(double q) const;

  // One mutually consistent rendering of every counter. Invariants that hold
  // on any snapshot, even one taken under concurrent recording:
  //   allowed + denied == checks_total           (derived from one pass)
  //   sum(by_reason)   == checks_total
  //   sum(by_mode)     >= checks_total           (for >= 1 mode per decision)
  //   sum(by_shard)    >= checks_total           (== once recording stops)
  //   sum(latency_buckets) >= latency_samples
  // `version` is left 0 here; the publisher (StatsService) stamps it.
  struct Snapshot {
    uint64_t version = 0;
    uint64_t checks_total = 0;
    uint64_t allowed = 0;
    uint64_t denied = 0;
    uint64_t by_reason[kDenyReasonCount] = {};
    uint64_t by_mode[kAccessModeCount] = {};
    uint64_t by_shard[kShardBuckets] = {};  // index ShardIndex(shard)
    uint64_t latency_samples = 0;
    uint64_t latency_buckets[kLatencyBuckets] = {};

    uint64_t ModeTotal() const;
    uint64_t ShardTotal() const;
    uint64_t LatencyBucketTotal() const;
    uint64_t LatencyQuantileNs(double q) const;
    // Counter equality, ignoring `version` (change detection for publishers).
    bool SameCounters(const Snapshot& other) const;
  };
  Snapshot TakeSnapshot() const;

 private:
  // One writer's counters, padded to its own cache line(s). `shared` is set
  // on the overflow slot only, switching its writers to fetch_add.
  struct alignas(64) Slot {
    std::atomic<uint64_t> by_reason[kDenyReasonCount] = {};
    std::atomic<uint64_t> by_mode[kAccessModeCount] = {};
    std::atomic<uint64_t> by_shard[kShardBuckets] = {};
    std::atomic<uint64_t> latency_samples{0};
    std::atomic<uint64_t> latency_buckets[kLatencyBuckets] = {};
    bool shared = false;
  };

  // Single-writer slots use a plain load+store (no locked RMW); the shared
  // overflow slot needs the atomic RMW for correctness.
  static void Bump(Slot& slot, std::atomic<uint64_t>& counter, uint64_t n = 1) {
    if (slot.shared) {
      counter.fetch_add(n, std::memory_order_relaxed);
    } else {
      counter.store(counter.load(std::memory_order_relaxed) + n,
                    std::memory_order_relaxed);
    }
  }

  // Adds `n` to the counter of every mode in `modes`.
  static void BumpModes(Slot& slot, AccessModeSet modes, uint64_t n) {
    uint32_t bits = modes.bits();
    while (bits != 0) {
      unsigned b = static_cast<unsigned>(__builtin_ctz(bits));
      Bump(slot, slot.by_mode[b], n);
      bits &= bits - 1;
    }
  }

  // Release flavor for the counter that *completes* a record (the reason, or
  // the latency sample count): pairs with the snapshot reader's acquire
  // loads so a completed record's earlier relaxed bumps are visible with it.
  static void BumpRelease(Slot& slot, std::atomic<uint64_t>& counter, uint64_t n = 1) {
    if (slot.shared) {
      counter.fetch_add(n, std::memory_order_release);
    } else {
      counter.store(counter.load(std::memory_order_relaxed) + n,
                    std::memory_order_release);
    }
  }

  // Per-thread cache of recently used (instance -> slot) bindings, keyed by
  // a process-wide instance id so a recycled allocation never aliases a
  // stale entry. Several ways, so a thread alternating between a few live
  // instances (the kernel's monitor plus a test's) keeps each instance's
  // slot — and its private latency sample clock — instead of thrashing.
  struct SlotCache {
    struct Entry {
      uint64_t instance = ~uint64_t{0};
      Slot* slot = nullptr;
      uint64_t sample_clock = 0;
    };
    static constexpr size_t kWays = 4;
    Entry entries[kWays];
    size_t next_victim = 0;
  };

  // The calling thread's cache entry for this instance. The hit path is
  // inline — one TLS load and up to kWays compares; only a thread's first
  // touch of an instance (or a re-touch after eviction) leaves the header.
  SlotCache::Entry& LocalEntry() {
    thread_local SlotCache cache;
    for (SlotCache::Entry& entry : cache.entries) {
      if (entry.instance == instance_id_) {
        return entry;
      }
    }
    return ClaimSlot(cache);
  }

  SlotCache::Entry& ClaimSlot(SlotCache& cache);

  template <typename Fn>
  uint64_t Sum(Fn&& per_slot) const {
    uint64_t total = 0;
    for (size_t s = 0; s < kSlots + 1; ++s) {
      total += per_slot(slots_[s]);
    }
    return total;
  }

  const uint64_t instance_id_;
  std::atomic<uint32_t> next_slot_{0};
  Slot slots_[kSlots + 1];  // +1: the shared overflow slot
};

// Nanoseconds from the steady clock, for latency sampling and deadlines.
uint64_t MonotonicNowNs();

}  // namespace xsec

#endif  // XSEC_SRC_MONITOR_MONITOR_STATS_H_
