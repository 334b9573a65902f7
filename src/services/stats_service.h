// Monitor observability through the namespace itself.
//
// The paper's third pillar is a single hierarchical name space in which
// every protected thing is a named, mediated object (§2.3). The reference
// monitor's own operational state is no exception: this service mounts the
// MonitorStats counters, the DecisionCache totals, and the AuditLog gauges
// as read-only file nodes under /sys/monitor/..., and every read of one goes
// back through ReferenceMonitor::Check on the leaf node (the same node-level
// mediation the other services use). Visibility of security telemetry is
// therefore governed by ACLs and labels like everything else — and a denied
// stats read shows up in the very denial counters it was trying to read (the
// model eating its own dogfood).
//
// Default policy: /sys/monitor carries an own ACL granting read|list to the
// system principal only, so telemetry is fail-closed; administrators widen
// it per node with ordinary AddAclEntry calls.
//
// Stats tree layout (docs/MODEL.md §11 is normative):
//
//   /sys/monitor/snapshot                one consistent multi-line rendering
//   /sys/monitor/version                 published snapshot version (counter)
//   /sys/monitor/checks/total            decisions recorded, all outcomes
//   /sys/monitor/checks/allowed          ... that allowed
//   /sys/monitor/checks/denied           ... that denied
//   /sys/monitor/checks/by-mode/<mode>   one per access mode (read, write, ...)
//   /sys/monitor/denials/by-reason/<r>   one per DenyReason (not-found, ...)
//   /sys/monitor/cache/hits|misses|stale|hit_rate
//   /sys/monitor/latency/p50|p90|p99|samples   sampled check latency, ns
//   /sys/monitor/audit/retained|dropped
//   /sys/monitor/audit/sinks|delivered|sink_dropped   summed over every sink
//   /sys/monitor/rate/checks_per_sec     windowed rate over published epochs
//   /sys/monitor/rate/denials_per_sec
//   /sys/monitor/subscribers/active      live subscription channels
//   /sys/monitor/subscribers/dropped     epochs dropped across all channels ever
//   /sys/monitor/subscribers/quota_denied   subscribes refused by the quota
//
// Publication (RCU rule, MODEL.md §11): every Tick builds one immutable
// PublishedEpoch — snapshot, gauges, windowed rates, and the full rendered
// text — and swaps it into one shared_ptr slot. Readers (the snapshot /
// version / rate leaves, version()) copy that pointer under a mutex held
// for nothing else, and never contend with a publisher building its epoch;
// pub_mu_ is writer-side only (it serializes concurrent Ticks). The version
// leaf and the snapshot leaf read the *same* pointer, so a reader can never
// observe a version older than a snapshot it already rendered.
//
// Subscription channels: Subscribe() performs ONE admission check (read on
// the snapshot leaf) and returns a numeric capability handle backed by a
// bounded per-subscriber queue of published-epoch pointers. Tick() fans each
// newly published epoch out to every channel as a shared_ptr — a queue slot
// costs one pointer, not one rendered snapshot. Every poll returns the
// epoch's precomputed full rendering; the counters are cumulative, so a full
// snapshot after drops is exact. A full queue evicts its oldest epoch
// (counted at subscribers/dropped), so a subscriber that never drains can
// never stall Tick. The handle is owner-bound: poll/unsubscribe verify the
// calling principal, no further monitor checks are made
// (admission-once-then-act, like an open file). `watch` is a one-shot
// subscription: subscribe, one poll, unsubscribe — PollSubscription holds
// the service's only wait loop.

#ifndef XSEC_SRC_SERVICES_STATS_SERVICE_H_
#define XSEC_SRC_SERVICES_STATS_SERVICE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "src/extsys/kernel.h"
#include "src/monitor/monitor_stats.h"

namespace xsec {

struct StatsServiceOptions {
  // Publication epoch: the snapshot/rate leaves refresh at most this often,
  // and a blocked poller re-examines the counters once per interval (the
  // poll path is self-clocking; no background thread is required).
  uint64_t epoch_interval_ns = 20'000'000;  // 20 ms
  // Bounded per-subscriber epoch queue depth; a full queue evicts its
  // oldest epoch.
  size_t subscriber_queue_capacity = 8;
  // Admission-time cap on live subscription channels (a parked `watch`
  // holds one too).
  size_t max_subscribers = 64;
  // Admission-time cap on live channels per owning principal (0 = no
  // per-principal cap). Denials are counted at
  // /sys/monitor/subscribers/quota_denied. Contains one misbehaving subject
  // without starving everyone else of the global max_subscribers budget.
  size_t max_channels_per_principal = 4;
};

class StatsService {
 public:
  // The kernel must outlive this service.
  explicit StatsService(Kernel* kernel, StatsServiceOptions options = {});

  // Binds the stats tree under kStatsMountPath (fail-closed ACL on the mount
  // root) and registers the /svc/stats procedures:
  //   read <path>            -> the node's current value (string)
  //   dump                   -> every readable single-line node, "path value"
  //   watch <since> [ms]     -> a one-shot subscription: Subscribe(since),
  //                             one poll, unsubscribe. Blocks until a
  //                             version past `since` is published (pass -1
  //                             for "any change after this call"), then
  //                             returns its snapshot text; kDeadlineExceeded
  //                             on timeout. A `since` that differs from the
  //                             published version (behind, or a stale handle
  //                             from a previous service incarnation) returns
  //                             the current snapshot immediately. The parked
  //                             watch counts against the channel quotas.
  //   subscribe [since]      -> opens a channel, returns its handle; a
  //                             `since` other than the current version seeds
  //                             the queue with one catch-up snapshot.
  //   poll <handle> [ms]     -> next queued epoch, blocking up to ms;
  //                             kDeadlineExceeded if none arrives.
  //   unsubscribe <handle>   -> closes the channel.
  Status Install();

  // Mounts the per-monitor-shard telemetry leaves
  // (shard/count and shard/<i>/checks|ns_gen|acl_gen|label_epoch for each
  // concrete shard, plus shard/aggregate/checks for the root's domain and
  // ids the name space cannot place),
  // reading the monitor's shard-local stamps and check counters. Call after
  // Install; the monitor must outlive this service.
  Status MountShards(ReferenceMonitor* monitor);

  // Mounts the supervision health leaves (MODEL.md §16):
  // health/state|quarantined|lockdown, plus per-extension leaves health/ext/<name>/state|trips|timeouts|inflight,
  // mounted as names register via the supervisor's registration hook. Call
  // after Install; the supervisor must outlive this service.
  Status MountHealth(ExtensionSupervisor* supervisor);

  // -- Mediated operations ----------------------------------------------------

  // Reads one stats node: Check(subject, node, read) on the leaf, then
  // renders the current value. The check is the real monitor path, so a
  // denial here is itself counted and audited.
  StatusOr<std::string> ReadStat(Subject& subject, std::string_view path);

  // Renders every single-line stats node the subject can read, "path value"
  // per line in path order (the multi-line `snapshot` leaf is excluded).
  // Nodes the subject cannot read are silently skipped — and each skip is a
  // counted denial.
  StatusOr<std::string> DumpTree(Subject& subject);

  // -- Snapshot publication ---------------------------------------------------

  // Captures the counters now and publishes them as a new version if they
  // changed since the last publication (gauges included), fanning the new
  // epoch out to every channel. Returns the current version either way.
  // Thread-safe. Even when nothing changed the immutable epoch is
  // re-swapped (same version, fresher rates), so rate leaves keep decaying.
  uint64_t Tick();

  // Current published version (0 until the first Tick). Lock-free.
  uint64_t version() const;

  // Trusted render of the published snapshot (refreshing it first if it is
  // older than one epoch), no mediation — tools, tests.
  std::string RenderSnapshot();

  // Trusted render of every single-line leaf, no mediation (tools, tests).
  std::string RenderAll() const;

  // -- Subscription channels --------------------------------------------------

  // One admission check (read on the snapshot leaf), then a capability
  // handle. `since` = -1 baselines now (the queue starts empty); any other
  // `since` that differs from the current version seeds the queue with one
  // catch-up full snapshot (a `since` *ahead* of the version is a handle
  // from a previous service incarnation — its era is gone, so it catches up
  // too). An epoch published between the baseline and the registration is
  // queued as a catch-up as well, so no epoch is lost uncounted. Binds no
  // name-space node.
  StatusOr<uint64_t> Subscribe(Subject& subject, int64_t since);

  // Pops the next queued epoch and returns its full snapshot text, blocking
  // until `deadline_ns` (absolute; 0 = unbounded) if the queue is empty.
  // Self-clocking: a blocked caller captures an epoch itself once per epoch
  // interval, so changes arrive within one epoch with no publisher thread.
  // A cancellation point when `call` is given: the caller's deadline and
  // cancel flag are re-polled at least every 5 ms. No monitor check: the handle
  // was admitted at Subscribe; only the owning principal may poll.
  StatusOr<std::string> PollSubscription(Subject& subject, uint64_t id,
                                         uint64_t deadline_ns,
                                         const CallContext* call = nullptr);

  // Closes the channel. Owner-only.
  Status Unsubscribe(Subject& subject, uint64_t id);

  // Bulk-closes every channel owned by `principal`; returns how many were
  // closed. The hook a hosting shell calls when a subject exits — trusted
  // (no subject check), like the shell's own teardown of the principal.
  size_t GcChannelsFor(PrincipalId principal);

  // Live channels / epochs dropped across all channels ever (both also
  // mounted under /sys/monitor/subscribers/).
  size_t active_subscribers() const;
  uint64_t subscriber_dropped_total() const {
    return subscriber_dropped_total_.load(std::memory_order_relaxed);
  }
  // Subscribe calls denied by the per-principal channel quota (also at
  // /sys/monitor/subscribers/quota_denied).
  uint64_t quota_denied_total() const {
    return quota_denied_total_.load(std::memory_order_relaxed);
  }

 private:
  // One published epoch, immutable after the atomic swap: the consistent
  // snapshot, the gauges captured alongside it, the precomputed windowed
  // rates, and the full rendered text. Readers share it by pointer.
  struct PublishedEpoch {
    uint64_t version = 0;
    MonitorStats::Snapshot snap;
    uint64_t cache_hits = 0;
    uint64_t cache_misses = 0;
    uint64_t cache_stale = 0;
    uint64_t audit_retained = 0;
    uint64_t audit_dropped = 0;
    uint64_t tick_ns = 0;
    double checks_per_sec = 0.0;
    double denials_per_sec = 0.0;
    std::string rendered;  // full snapshot text
  };
  using PublishedPtr = std::shared_ptr<const PublishedEpoch>;

  // Binds one leaf (relative to the mount) backed by `render`. Leaves with
  // `in_dump` false (multi-line renderings) are skipped by DumpTree and
  // RenderAll.
  Status MountLeaf(const std::string& relative_path, std::function<std::string()> render,
                   bool in_dump = true);

  // Pushes a newly published epoch to every channel in one sub_mu_ hold; a
  // full queue evicts its oldest epoch. Never called with pub_mu_ held.
  void FanOut(uint64_t version, const PublishedPtr& epoch);

  // Re-publishes only if the published snapshot is older than one epoch.
  void MaybeTick();

  // Renders every leaf of `cur` as the full snapshot text.
  std::string RenderEpoch(const PublishedEpoch& cur) const;

  struct Leaf {
    NodeId node;
    std::function<std::string()> render;
    bool in_dump = true;
  };

  // One published epoch's cumulative counters; rate = windowed delta (the
  // counters never decrease, so every delta is exact).
  struct RateEpoch {
    uint64_t t_ns = 0;
    uint64_t checks = 0;
    uint64_t denials = 0;
  };

  // The windowed rate of one RateEpoch counter over the epoch ring, per
  // second. Caller holds pub_mu_.
  double RatePerSecLocked(uint64_t RateEpoch::*counter) const;

  // A subscription channel. All mutable state is guarded by the
  // service-wide sub_mu_; the cv is per channel so pollers of different
  // channels never thunder each other. Held by shared_ptr: a poller keeps
  // the channel alive across a concurrent Unsubscribe.
  struct SubscriberChannel {
    uint64_t id = 0;
    PrincipalId owner;
    // Queue slots are epoch pointers (one machine word + refcount), not
    // rendered text: a bounded queue holds deep history cheaply.
    std::deque<PublishedPtr> queue;
    // Highest version ever pushed (or dropped): concurrent Ticks fan out
    // unordered, and this keeps each channel's stream monotone.
    uint64_t last_version = 0;
    bool closed = false;
    // Threads currently parked on `cv` (guarded by sub_mu_). The publisher's
    // fan-out loop skips the notify when this is zero — with no waiter a
    // notify is pure per-channel overhead on the publish path, and the
    // counter is exact because a poller increments it under sub_mu_ before
    // the wait atomically releases the lock.
    size_t waiters = 0;
    std::condition_variable cv;  // data (or close) for the poller
  };

  Kernel* kernel_;
  StatsServiceOptions options_;
  // Full path -> bound node + value renderer; ordered so dumps are
  // deterministic. Written at Install and as supervised extensions
  // register, read by every dump — hence the shared_mutex. Lock order:
  // renders run under a shared hold and may take pub_mu_ or sub_mu_, so
  // code holding either of those must never take values_mu_.
  mutable std::shared_mutex values_mu_;
  std::map<std::string, Leaf> values_;
  NodeId snapshot_node_;

  // Subscription state. sub_mu_ guards the registry and every channel's
  // mutable fields; the aggregate drop counter is atomic so it survives
  // channel teardown and renders without the lock.
  mutable std::mutex sub_mu_;
  std::map<uint64_t, std::shared_ptr<SubscriberChannel>> subscribers_;
  // The same open channels, flat, for the publisher's fan-out loop: the
  // node-based map costs a dependent cache miss per channel, which at 64
  // subscribers is visible next to the O(1) pointer push per channel.
  // Kept in lockstep with subscribers_ under sub_mu_.
  std::vector<std::shared_ptr<SubscriberChannel>> fanout_order_;
  uint64_t next_subscriber_id_ = 1;
  std::atomic<uint64_t> subscriber_dropped_total_{0};
  std::atomic<uint64_t> quota_denied_total_{0};

  // Publication state — the RCU split. `published_` is the swapped
  // immutable epoch every reader copies without blocking on the publisher:
  // published_mu_ is held only for that shared_ptr copy or swap — never for
  // a render, a wait, or an allocation — so a Tick that is building its
  // epoch never stalls a reader. (std::atomic<shared_ptr> would be the same
  // construction, but GCC 12's implementation unlocks its internal spinlock
  // with a relaxed order, which TSan rightly flags.) pub_mu_ is WRITER-side
  // only: it serializes concurrent Ticks and guards version_ and the rate
  // ring; no read path takes it. Waiters park on their channel's cv, which
  // FanOut notifies under sub_mu_.
  PublishedPtr LoadPublished() const;
  // Swaps in `next`; the displaced epoch is released after published_mu_ is
  // dropped, so its destructor (snapshot + rendered text) never runs under it.
  void Publish(PublishedPtr next);
  mutable std::mutex published_mu_;
  PublishedPtr published_;     // guarded by published_mu_
  mutable std::mutex pub_mu_;  // writer-side only
  uint64_t version_ = 0;       // guarded by pub_mu_
  std::deque<RateEpoch> rate_ring_;  // guarded by pub_mu_
  std::atomic<uint64_t> last_tick_ns_{0};
};

}  // namespace xsec

#endif  // XSEC_SRC_SERVICES_STATS_SERVICE_H_
