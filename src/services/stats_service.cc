#include "src/services/stats_service.h"

#include <algorithm>
#include <chrono>
#include <utility>
#include <vector>

#include "src/base/failpoint.h"
#include "src/base/strings.h"
#include "src/extsys/supervisor.h"
#include "src/extsys/system_paths.h"
#include "src/naming/path.h"

namespace xsec {

namespace {

// Window the /sys/monitor/rate/* leaves average over.
constexpr uint64_t kRateWindowNs = 1'000'000'000;  // 1 s
// A poller carrying a CallContext never parks longer than this per wait
// slice, so cancellation is honored at this granularity even when the epoch
// interval is huge.
constexpr uint64_t kCancelPollIntervalNs = 5'000'000;  // 5 ms

}  // namespace

StatsService::StatsService(Kernel* kernel, StatsServiceOptions options)
    : kernel_(kernel), options_(std::move(options)) {}

Status StatsService::MountShards(ReferenceMonitor* monitor) {
  auto count = [](uint64_t v) { return std::to_string(v); };
  XSEC_RETURN_IF_ERROR(MountLeaf(
      "shard/count", [count] { return count(kMonitorShardCount); }));
  for (ShardId i = 0; i < kMonitorShardCount; ++i) {
    std::string prefix = "shard/" + std::to_string(i) + "/";
    XSEC_RETURN_IF_ERROR(MountLeaf(prefix + "checks", [monitor, i, count] {
      return count(monitor->stats().by_shard(i));
    }));
    XSEC_RETURN_IF_ERROR(MountLeaf(prefix + "ns_gen", [monitor, i, count] {
      return count(monitor->CurrentStampsFor(i).namespace_generation);
    }));
    XSEC_RETURN_IF_ERROR(MountLeaf(prefix + "acl_gen", [monitor, i, count] {
      return count(monitor->CurrentStampsFor(i).acl_generation);
    }));
    XSEC_RETURN_IF_ERROR(MountLeaf(prefix + "label_epoch", [monitor, i, count] {
      return count(monitor->CurrentStampsFor(i).label_epoch);
    }));
  }
  return MountLeaf("shard/aggregate/checks", [monitor, count] {
    return count(monitor->stats().by_shard(kAggregateShard));
  });
}

Status StatsService::MountHealth(ExtensionSupervisor* supervisor) {
  auto count = [](uint64_t v) { return std::to_string(v); };
  XSEC_RETURN_IF_ERROR(MountLeaf("health/state", [supervisor] {
    return std::string(SystemHealthName(supervisor->system_health()));
  }));
  XSEC_RETURN_IF_ERROR(MountLeaf("health/quarantined", [supervisor, count] {
    return count(supervisor->quarantined_count());
  }));
  XSEC_RETURN_IF_ERROR(MountLeaf("health/lockdown", [supervisor] {
    return std::string(
        supervisor->system_health() == SystemHealth::kLockdown ? "1" : "0");
  }));
  // Per-extension leaves appear as names register (LoadExtension under a
  // supervised kernel registers automatically). The hook runs without
  // supervisor locks; MountLeaf failures on a re-registered name are benign
  // (the leaf already exists).
  supervisor->SetRegistrationHook([this, supervisor, count](const std::string& name) {
    std::string prefix = "health/ext/" + name + "/";
    (void)MountLeaf(prefix + "state", [supervisor, name] {
      auto snap = supervisor->Snapshot(name);
      return std::string(snap ? ExtHealthName(snap->state) : "unregistered");
    });
    (void)MountLeaf(prefix + "trips", [supervisor, name, count] {
      auto snap = supervisor->Snapshot(name);
      return count(snap ? snap->trips : 0);
    });
    (void)MountLeaf(prefix + "timeouts", [supervisor, name, count] {
      auto snap = supervisor->Snapshot(name);
      return count(snap ? snap->timeouts : 0);
    });
    (void)MountLeaf(prefix + "inflight", [supervisor, name, count] {
      auto snap = supervisor->Snapshot(name);
      return count(snap ? snap->inflight : 0);
    });
  });
  return OkStatus();
}

Status StatsService::MountLeaf(const std::string& relative_path,
                               std::function<std::string()> render, bool in_dump) {
  std::string full = JoinPath(kStatsMountPath, relative_path);
  auto node = kernel_->name_space().BindPath(full, NodeKind::kFile,
                                             kernel_->system_principal());
  if (!node.ok()) {
    return node.status();
  }
  std::unique_lock<std::shared_mutex> lock(values_mu_);
  values_.emplace(std::move(full), Leaf{*node, std::move(render), in_dump});
  return OkStatus();
}

Status StatsService::Install() {
  PrincipalId system = kernel_->system_principal();
  auto mount = kernel_->name_space().BindPath(kStatsMountPath, NodeKind::kDirectory, system);
  if (!mount.ok()) {
    return mount.status();
  }
  // Fail-closed: telemetry reveals who was denied what, so the mount root
  // carries an own ACL (overriding any permissive inherited default) that
  // grants read|list to the system principal only. Administrators widen
  // visibility with ordinary AddAclEntry calls.
  Acl restricted;
  restricted.AddEntry({AclEntryType::kAllow, system, AccessMode::kRead | AccessMode::kList});
  XSEC_RETURN_IF_ERROR(
      kernel_->name_space().SetAclRef(*mount, kernel_->acls().Create(std::move(restricted))));

  ReferenceMonitor* monitor = &kernel_->monitor();
  MonitorStats* stats = &monitor->stats();
  DecisionCache* cache = &monitor->cache();
  AuditLog* audit = &monitor->audit();
  auto count = [](uint64_t v) { return std::to_string(v); };

  // The sanctioned multi-counter view and its version stamp. The snapshot
  // leaf is multi-line, so it is excluded from dumps; `version` does *not*
  // refresh the publication on read — it answers "has anything been
  // published since I last looked", which a self-refreshing value could not.
  // Both leaves read the same atomically swapped epoch pointer, so the
  // version can never lag a snapshot a reader already rendered.
  XSEC_RETURN_IF_ERROR(
      MountLeaf("snapshot", [this] { return RenderSnapshot(); }, /*in_dump=*/false));
  XSEC_RETURN_IF_ERROR(MountLeaf("version", [this] { return std::to_string(version()); }));

  XSEC_RETURN_IF_ERROR(
      MountLeaf("checks/total", [stats, count] { return count(stats->checks_total()); }));
  XSEC_RETURN_IF_ERROR(
      MountLeaf("checks/allowed", [stats, count] { return count(stats->allowed_total()); }));
  XSEC_RETURN_IF_ERROR(
      MountLeaf("checks/denied", [stats, count] { return count(stats->denied_total()); }));
  for (int i = 0; i < kAccessModeCount; ++i) {
    AccessMode mode = static_cast<AccessMode>(1u << i);
    XSEC_RETURN_IF_ERROR(MountLeaf(
        StrFormat("checks/by-mode/%s", std::string(AccessModeName(mode)).c_str()),
        [stats, count, mode] { return count(stats->by_mode(mode)); }));
  }
  for (size_t r = 1; r < kDenyReasonCount; ++r) {  // skip kNone (that is an allow)
    DenyReason reason = static_cast<DenyReason>(r);
    XSEC_RETURN_IF_ERROR(MountLeaf(
        StrFormat("denials/by-reason/%s", std::string(DenyReasonName(reason)).c_str()),
        [stats, count, reason] { return count(stats->by_reason(reason)); }));
  }
  XSEC_RETURN_IF_ERROR(
      MountLeaf("cache/hits", [cache, count] { return count(cache->hits()); }));
  XSEC_RETURN_IF_ERROR(
      MountLeaf("cache/misses", [cache, count] { return count(cache->misses()); }));
  XSEC_RETURN_IF_ERROR(
      MountLeaf("cache/stale", [cache, count] { return count(cache->stale_hits()); }));
  XSEC_RETURN_IF_ERROR(MountLeaf("cache/hit_rate", [cache] {
    uint64_t hits = cache->hits();
    uint64_t probes = hits + cache->misses();
    // Fixed 4-digit rendering with a locale-independent '.' radix point:
    // this leaf is machine-parsed (tools/xsec_stats, golden tests), and
    // printf "%f" follows the process locale's decimal separator.
    return FormatFixed(
        probes == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(probes), 4);
  }));
  XSEC_RETURN_IF_ERROR(MountLeaf(
      "latency/p50", [stats, count] { return count(stats->LatencyQuantileNs(0.50)); }));
  XSEC_RETURN_IF_ERROR(MountLeaf(
      "latency/p90", [stats, count] { return count(stats->LatencyQuantileNs(0.90)); }));
  XSEC_RETURN_IF_ERROR(MountLeaf(
      "latency/p99", [stats, count] { return count(stats->LatencyQuantileNs(0.99)); }));
  XSEC_RETURN_IF_ERROR(MountLeaf(
      "latency/samples", [stats, count] { return count(stats->latency_samples()); }));
  XSEC_RETURN_IF_ERROR(MountLeaf(
      "audit/retained", [audit, count] { return count(audit->retained()); }));
  XSEC_RETURN_IF_ERROR(
      MountLeaf("audit/dropped", [audit, count] { return count(audit->dropped()); }));
  // Audit delivery (MODEL.md §11): registered sinks, and the records handed
  // to or dropped by them, summed over every sink.
  XSEC_RETURN_IF_ERROR(
      MountLeaf("audit/sinks", [audit, count] { return count(audit->sinks()); }));
  XSEC_RETURN_IF_ERROR(
      MountLeaf("audit/delivered", [audit, count] { return count(audit->delivered()); }));
  XSEC_RETURN_IF_ERROR(MountLeaf(
      "audit/sink_dropped", [audit, count] { return count(audit->sink_dropped()); }));
  // Resilient-sink health (MODEL.md §12): circuit state plus the retry /
  // give-up counters, and the allows that proceeded unaudited in fail-open
  // mode while the sink was down.
  XSEC_RETURN_IF_ERROR(
      MountLeaf("audit/sink_state", [audit] { return audit->sink_state(); }));
  XSEC_RETURN_IF_ERROR(
      MountLeaf("audit/retries", [audit, count] { return count(audit->sink_retries()); }));
  XSEC_RETURN_IF_ERROR(
      MountLeaf("audit/gave_up", [audit, count] { return count(audit->sink_gave_up()); }));
  XSEC_RETURN_IF_ERROR(MountLeaf("audit/unaudited_allows", [audit, count] {
    return count(audit->unaudited_allows());
  }));
  XSEC_RETURN_IF_ERROR(MountLeaf(
      "subscribers/active", [this] { return std::to_string(active_subscribers()); }));
  XSEC_RETURN_IF_ERROR(MountLeaf("subscribers/dropped", [this] {
    return std::to_string(subscriber_dropped_total());
  }));
  XSEC_RETURN_IF_ERROR(MountLeaf("subscribers/quota_denied", [this] {
    return std::to_string(quota_denied_total());
  }));
  XSEC_RETURN_IF_ERROR(MountLeaf("rate/checks_per_sec", [this] {
    MaybeTick();
    PublishedPtr cur = LoadPublished();
    return FormatFixed(cur == nullptr ? 0.0 : cur->checks_per_sec, 2);
  }));
  XSEC_RETURN_IF_ERROR(MountLeaf("rate/denials_per_sec", [this] {
    MaybeTick();
    PublishedPtr cur = LoadPublished();
    return FormatFixed(cur == nullptr ? 0.0 : cur->denials_per_sec, 2);
  }));

  snapshot_node_ = values_.at(JoinPath(kStatsMountPath, "snapshot")).node;

  auto svc = kernel_->RegisterService(kStatsServicePath, system);
  if (!svc.ok()) {
    return svc.status();
  }
  auto read_node = kernel_->RegisterProcedure(
      JoinPath(kStatsServicePath, "read"), system,
      [this](CallContext& ctx) -> StatusOr<Value> {
        auto path = ArgString(ctx.args, 0);
        if (!path.ok()) {
          return path.status();
        }
        auto value = ReadStat(*ctx.subject, *path);
        if (!value.ok()) {
          return value.status();
        }
        return Value{std::move(*value)};
      });
  if (!read_node.ok()) {
    return read_node.status();
  }
  auto dump_node = kernel_->RegisterProcedure(
      JoinPath(kStatsServicePath, "dump"), system,
      [this](CallContext& ctx) -> StatusOr<Value> {
        auto text = DumpTree(*ctx.subject);
        if (!text.ok()) {
          return text.status();
        }
        return Value{std::move(*text)};
      });
  if (!dump_node.ok()) {
    return dump_node.status();
  }
  // Shared by watch and poll: the optional trailing timeout argument, as an
  // absolute deadline no later than the call's own. A non-positive timeout
  // is a caller bug, not a zero-length wait, so it is rejected loudly.
  auto parse_deadline = [](const CallContext& ctx, size_t index) -> StatusOr<uint64_t> {
    int64_t timeout_ms = 1000;
    if (ctx.args.size() > index) {
      auto t = ArgInt(ctx.args, index);
      if (!t.ok()) {
        return t.status();
      }
      if (*t <= 0) {
        return InvalidArgumentError(
            StrFormat("timeout_ms must be positive, got %lld",
                      static_cast<long long>(*t)));
      }
      timeout_ms = *t;
    }
    if (timeout_ms > 60'000) {
      timeout_ms = 60'000;  // never parks a thread for minutes
    }
    uint64_t deadline = MonotonicNowNs() + static_cast<uint64_t>(timeout_ms) * 1'000'000;
    if (ctx.deadline_ns != 0 && ctx.deadline_ns < deadline) {
      deadline = ctx.deadline_ns;
    }
    return deadline;
  };

  // watch is a one-shot subscription: the channel it opens counts against
  // the quotas while it waits, and is closed on every exit path.
  auto watch_node = kernel_->RegisterProcedure(
      JoinPath(kStatsServicePath, "watch"), system,
      [this, parse_deadline](CallContext& ctx) -> StatusOr<Value> {
        auto since = ArgInt(ctx.args, 0);
        if (!since.ok()) {
          return since.status();
        }
        auto deadline = parse_deadline(ctx, 1);
        if (!deadline.ok()) {
          return deadline.status();
        }
        // Subscribe rejects since < -1, then checks read on the snapshot
        // leaf before anything blocks. With since = -1 its baseline
        // publication already folds in that check, so the caller blocks for
        // the next *external* change instead of unblocking on the counter
        // bump the watch itself caused.
        auto id = Subscribe(*ctx.subject, *since);
        if (!id.ok()) {
          return id.status();
        }
        auto text = PollSubscription(*ctx.subject, *id, *deadline, &ctx);
        // NotFound here means GcChannelsFor reaped the channel mid-wait.
        (void)Unsubscribe(*ctx.subject, *id);
        if (!text.ok()) {
          return text.status();
        }
        return Value{std::move(*text)};
      });
  if (!watch_node.ok()) {
    return watch_node.status();
  }
  auto subscribe_node = kernel_->RegisterProcedure(
      JoinPath(kStatsServicePath, "subscribe"), system,
      [this](CallContext& ctx) -> StatusOr<Value> {
        if (ctx.args.size() > 1) {
          return InvalidArgumentError("subscribe takes at most one argument (since)");
        }
        int64_t since = -1;
        if (!ctx.args.empty()) {
          auto s = ArgInt(ctx.args, 0);
          if (!s.ok()) {
            return s.status();
          }
          since = *s;
        }
        auto id = Subscribe(*ctx.subject, since);
        if (!id.ok()) {
          return id.status();
        }
        return Value{std::to_string(*id)};
      });
  if (!subscribe_node.ok()) {
    return subscribe_node.status();
  }
  auto poll_node = kernel_->RegisterProcedure(
      JoinPath(kStatsServicePath, "poll"), system,
      [this, parse_deadline](CallContext& ctx) -> StatusOr<Value> {
        auto id = ArgInt(ctx.args, 0);
        if (!id.ok()) {
          return id.status();
        }
        if (*id < 0) {
          return InvalidArgumentError("subscription handle cannot be negative");
        }
        auto deadline = parse_deadline(ctx, 1);
        if (!deadline.ok()) {
          return deadline.status();
        }
        auto text =
            PollSubscription(*ctx.subject, static_cast<uint64_t>(*id), *deadline, &ctx);
        if (!text.ok()) {
          return text.status();
        }
        return Value{std::move(*text)};
      });
  if (!poll_node.ok()) {
    return poll_node.status();
  }
  auto unsubscribe_node = kernel_->RegisterProcedure(
      JoinPath(kStatsServicePath, "unsubscribe"), system,
      [this](CallContext& ctx) -> StatusOr<Value> {
        auto id = ArgInt(ctx.args, 0);
        if (!id.ok()) {
          return id.status();
        }
        if (*id < 0) {
          return InvalidArgumentError("subscription handle cannot be negative");
        }
        XSEC_RETURN_IF_ERROR(Unsubscribe(*ctx.subject, static_cast<uint64_t>(*id)));
        return Value{"unsubscribed"};
      });
  if (!unsubscribe_node.ok()) {
    return unsubscribe_node.status();
  }

  Tick();  // version 1: the boot-time state
  return OkStatus();
}

StatusOr<std::string> StatsService::ReadStat(Subject& subject, std::string_view path) {
  if (!StartsWith(path, std::string(kStatsMountPath) + "/")) {
    return InvalidArgumentError(
        StrFormat("'%s' is outside the stats mount '%s'", std::string(path).c_str(),
                  std::string(kStatsMountPath).c_str()));
  }
  std::shared_lock<std::shared_mutex> lock(values_mu_);
  auto it = values_.find(std::string(path));
  if (it == values_.end()) {
    return NotFoundError(
        StrFormat("'%s' is not a stats leaf", std::string(path).c_str()));
  }
  Decision decision = kernel_->monitor().Check(subject, it->second.node, AccessMode::kRead);
  if (!decision.allowed) {
    return decision.ToStatus();
  }
  return it->second.render();
}

StatusOr<std::string> StatsService::DumpTree(Subject& subject) {
  std::string out;
  std::shared_lock<std::shared_mutex> lock(values_mu_);
  for (const auto& [path, leaf] : values_) {
    if (!leaf.in_dump) {
      continue;  // multi-line leaves (snapshot) don't fit the line format
    }
    if (!kernel_->monitor().Check(subject, leaf.node, AccessMode::kRead).allowed) {
      continue;  // the denial is counted and audited like any other
    }
    out += path + " " + leaf.render() + "\n";
  }
  return out;
}

std::string StatsService::RenderAll() const {
  std::string out;
  std::shared_lock<std::shared_mutex> lock(values_mu_);
  for (const auto& [path, leaf] : values_) {
    if (!leaf.in_dump) {
      continue;
    }
    out += path + " " + leaf.render() + "\n";
  }
  return out;
}

uint64_t StatsService::Tick() {
  ReferenceMonitor& monitor = kernel_->monitor();
  // Capture everything before taking pub_mu_, so concurrent Ticks serialize
  // only on building and swapping the epoch.
  MonitorStats::Snapshot snap = monitor.stats().TakeSnapshot();
  uint64_t cache_hits = monitor.cache().hits();
  uint64_t cache_misses = monitor.cache().misses();
  uint64_t cache_stale = monitor.cache().stale_hits();
  uint64_t audit_retained = monitor.audit().retained();
  uint64_t audit_dropped = monitor.audit().dropped();
  uint64_t now = MonotonicNowNs();

  PublishedPtr next;
  bool changed;
  {
    std::lock_guard<std::mutex> lock(pub_mu_);
    // Only this writer section swaps the pointer, so the load under pub_mu_
    // sees the latest epoch.
    PublishedPtr cur = LoadPublished();
    changed = cur == nullptr || !snap.SameCounters(cur->snap) ||
              cache_hits != cur->cache_hits || cache_misses != cur->cache_misses ||
              cache_stale != cur->cache_stale || audit_retained != cur->audit_retained ||
              audit_dropped != cur->audit_dropped;
    if (changed) {
      ++version_;
    }
    // The rate ring tracks cumulative counters per publication epoch.
    rate_ring_.push_back(RateEpoch{now, snap.checks_total, snap.denied});
    while (rate_ring_.size() > 2 &&
           now - rate_ring_[1].t_ns >= kRateWindowNs) {
      rate_ring_.pop_front();
    }
    // Build the immutable epoch and swap it in. Even an unchanged tick
    // republishes (same version): the windowed rates and tick time moved,
    // and readers must see them without ever taking this lock.
    auto epoch = std::make_shared<PublishedEpoch>();
    epoch->version = version_;
    snap.version = version_;
    epoch->snap = snap;
    epoch->cache_hits = cache_hits;
    epoch->cache_misses = cache_misses;
    epoch->cache_stale = cache_stale;
    epoch->audit_retained = audit_retained;
    epoch->audit_dropped = audit_dropped;
    epoch->tick_ns = now;
    epoch->checks_per_sec = ChecksPerSecLocked();
    epoch->denials_per_sec = DenialsPerSecLocked();
    epoch->rendered = RenderEpoch(*epoch);
    next = std::move(epoch);
    Publish(next);
    last_tick_ns_.store(now, std::memory_order_relaxed);
  }
  if (changed) {
    FanOut(next->version, next);
  }
  return next->version;
}

void StatsService::FanOut(uint64_t version, const PublishedPtr& epoch) {
  uint64_t shed = 0;  // batched into subscriber_dropped_total_ once, below
  {
    std::lock_guard<std::mutex> lock(sub_mu_);
    for (const auto& channel : fanout_order_) {
      if (version <= channel->last_version) {
        continue;  // a concurrent Tick already pushed a newer epoch
      }
      // Versions between the channel's last one and this were published by
      // Ticks whose fan-out this one overtook; they will be skipped above,
      // so they are counted as dropped here.
      shed += version - channel->last_version - 1;
      channel->last_version = version;
      if (XSEC_FAILPOINT_FIRED("stats.fanout.push")) {
        // Injected delivery failure: the epoch is lost to this channel
        // exactly like an eviction (a sleep spec instead stalls fan-out
        // under sub_mu_, the shape of a wedged delivery path).
        ++shed;
        continue;
      }
      if (channel->queue.size() >= options_.subscriber_queue_capacity) {
        channel->queue.pop_front();  // evict: the subscriber sees a gap
        ++shed;
      }
      channel->queue.push_back(epoch);
      if (channel->waiters != 0) {
        channel->cv.notify_all();
      }
    }
  }
  if (shed != 0) {
    subscriber_dropped_total_.fetch_add(shed, std::memory_order_relaxed);
  }
}

uint64_t StatsService::version() const {
  PublishedPtr cur = LoadPublished();
  return cur == nullptr ? 0 : cur->version;
}

void StatsService::MaybeTick() {
  uint64_t last = last_tick_ns_.load(std::memory_order_relaxed);
  if (last != 0 && MonotonicNowNs() - last < options_.epoch_interval_ns) {
    return;
  }
  Tick();
}

std::string StatsService::RenderSnapshot() {
  MaybeTick();
  PublishedPtr cur = LoadPublished();
  return cur == nullptr ? std::string() : cur->rendered;
}

StatusOr<uint64_t> StatsService::Subscribe(Subject& subject, int64_t since) {
  if (since < -1) {
    return InvalidArgumentError(
        StrFormat("since must be a version or -1, got %lld", static_cast<long long>(since)));
  }
  // The ONE admission check of the channel's lifetime: opening a stream of
  // snapshots is reading the snapshot leaf. From here on the handle itself
  // is the capability.
  Decision decision = kernel_->monitor().Check(subject, snapshot_node_, AccessMode::kRead);
  if (!decision.allowed) {
    return decision.ToStatus();
  }
  // Baseline a fresh publication (folds in the admission check above), so
  // the channel starts at a well-defined epoch.
  uint64_t baseline = Tick();
  auto channel = std::make_shared<SubscriberChannel>();
  channel->owner = subject.principal;
  std::lock_guard<std::mutex> lock(sub_mu_);
  if (subscribers_.size() >= options_.max_subscribers) {
    return ResourceExhaustedError(
        StrFormat("subscriber limit (%zu) reached", options_.max_subscribers));
  }
  if (options_.max_channels_per_principal != 0) {
    size_t owned = 0;
    for (const auto& [id, existing] : subscribers_) {
      if (existing->owner == subject.principal) {
        ++owned;
      }
    }
    if (owned >= options_.max_channels_per_principal) {
      quota_denied_total_.fetch_add(1, std::memory_order_relaxed);
      return ResourceExhaustedError(StrFormat(
          "per-principal channel quota (%zu) reached; unsubscribe or raise "
          "max_channels_per_principal",
          options_.max_channels_per_principal));
    }
  }
  // Compare against the published epoch in the same sub_mu_ hold that
  // registers the channel: every later publication fans out to it, and one
  // whose fan-out ran before this hold — a concurrent Tick after the
  // baseline — is caught up here instead of being lost uncounted. A caller
  // behind (or ahead, holding a version from a previous service incarnation
  // whose era is gone) gets the same one catch-up snapshot. Intermediate
  // epochs are not retained: a subscription delivers current state plus
  // every change from now on, not history.
  PublishedPtr current = LoadPublished();
  uint64_t seen = since >= 0 ? static_cast<uint64_t>(since) : baseline;
  if (current->version != seen) {
    channel->queue.push_back(current);
  }
  channel->last_version = current->version;
  channel->id = next_subscriber_id_++;
  subscribers_.emplace(channel->id, channel);
  fanout_order_.push_back(channel);
  return channel->id;
}

StatusOr<std::string> StatsService::PollSubscription(Subject& subject, uint64_t id,
                                                     uint64_t deadline_ns,
                                                     const CallContext* call) {
  std::shared_ptr<SubscriberChannel> channel;
  {
    std::lock_guard<std::mutex> lock(sub_mu_);
    auto it = subscribers_.find(id);
    if (it == subscribers_.end()) {
      return NotFoundError(StrFormat("no subscription with handle %llu",
                                     static_cast<unsigned long long>(id)));
    }
    if (it->second->owner != subject.principal) {
      // The handle is a capability bound to the principal it was issued to;
      // a guessed or leaked handle number grants nothing.
      return PermissionDeniedError("subscription handle belongs to another principal");
    }
    channel = it->second;
  }
  for (;;) {
    (void)XSEC_FAILPOINT_FIRED("stats.poll.wakeup");
    PublishedPtr epoch;
    {
      std::lock_guard<std::mutex> lock(sub_mu_);
      if (!channel->queue.empty()) {
        epoch = std::move(channel->queue.front());
        channel->queue.pop_front();
      } else if (channel->closed) {
        return FailedPreconditionError("subscription was closed");
      }
    }
    if (epoch != nullptr) {
      // Copied outside sub_mu_; the counters are cumulative, so the full
      // text is exact however many epochs were dropped before it.
      return epoch->rendered;
    }
    if (call != nullptr) {
      XSEC_RETURN_IF_ERROR(call->CheckDeadline());
    }
    uint64_t now = MonotonicNowNs();
    if (deadline_ns != 0 && now >= deadline_ns) {
      return DeadlineExceededError("no epoch published within the deadline");
    }
    // Self-clocking: the blocked poller captures an epoch itself once the
    // interval elapses (Tick fans out to this very channel).
    uint64_t next_capture =
        last_tick_ns_.load(std::memory_order_relaxed) + options_.epoch_interval_ns;
    if (now >= next_capture) {
      Tick();
      continue;
    }
    uint64_t wake = next_capture;
    if (deadline_ns != 0 && deadline_ns < wake) {
      wake = deadline_ns;
    }
    if (call != nullptr && now + kCancelPollIntervalNs < wake) {
      // A cancellable poller never parks a whole epoch blind: cap the slice
      // so the loop re-polls CheckDeadline at cancel granularity.
      wake = now + kCancelPollIntervalNs;
    }
    {
      std::unique_lock<std::mutex> lock(sub_mu_);
      if (channel->queue.empty() && !channel->closed) {
        // Registered under sub_mu_ before the wait releases it, so the
        // fan-out loop either sees waiters != 0 and notifies, or this
        // thread saw its push in the queue check above. No lost wakeup.
        ++channel->waiters;
        channel->cv.wait_for(lock, std::chrono::nanoseconds(wake - now));
        --channel->waiters;
      }
    }
    if (call != nullptr) {
      // Recheck before re-arming after a (possibly spurious) wakeup.
      XSEC_RETURN_IF_ERROR(call->CheckDeadline());
    }
  }
}

Status StatsService::Unsubscribe(Subject& subject, uint64_t id) {
  std::lock_guard<std::mutex> lock(sub_mu_);
  auto it = subscribers_.find(id);
  if (it == subscribers_.end()) {
    return NotFoundError(StrFormat("no subscription with handle %llu",
                                   static_cast<unsigned long long>(id)));
  }
  if (it->second->owner != subject.principal) {
    return PermissionDeniedError("subscription handle belongs to another principal");
  }
  it->second->closed = true;
  it->second->cv.notify_all();  // release any blocked poller
  subscribers_.erase(it);
  fanout_order_.erase(
      std::remove_if(fanout_order_.begin(), fanout_order_.end(),
                     [id](const auto& c) { return c->id == id; }),
      fanout_order_.end());
  return OkStatus();
}

size_t StatsService::GcChannelsFor(PrincipalId principal) {
  std::lock_guard<std::mutex> lock(sub_mu_);
  size_t closed = 0;
  for (auto it = subscribers_.begin(); it != subscribers_.end();) {
    if (it->second->owner == principal) {
      it->second->closed = true;
      it->second->cv.notify_all();  // release blocked pollers
      it = subscribers_.erase(it);
      ++closed;
    } else {
      ++it;
    }
  }
  if (closed != 0) {
    fanout_order_.erase(
        std::remove_if(fanout_order_.begin(), fanout_order_.end(),
                       [](const auto& c) { return c->closed; }),
        fanout_order_.end());
  }
  return closed;
}

size_t StatsService::active_subscribers() const {
  std::lock_guard<std::mutex> lock(sub_mu_);
  return subscribers_.size();
}

double StatsService::ChecksPerSecLocked() const {
  if (rate_ring_.size() < 2) {
    return 0.0;
  }
  const RateEpoch& oldest = rate_ring_.front();
  const RateEpoch& newest = rate_ring_.back();
  if (newest.t_ns <= oldest.t_ns || newest.checks < oldest.checks) {
    return 0.0;
  }
  return static_cast<double>(newest.checks - oldest.checks) * 1e9 /
         static_cast<double>(newest.t_ns - oldest.t_ns);
}

double StatsService::DenialsPerSecLocked() const {
  if (rate_ring_.size() < 2) {
    return 0.0;
  }
  const RateEpoch& oldest = rate_ring_.front();
  const RateEpoch& newest = rate_ring_.back();
  if (newest.t_ns <= oldest.t_ns || newest.denials < oldest.denials) {
    return 0.0;
  }
  return static_cast<double>(newest.denials - oldest.denials) * 1e9 /
         static_cast<double>(newest.t_ns - oldest.t_ns);
}

StatsService::PublishedPtr StatsService::LoadPublished() const {
  std::lock_guard<std::mutex> lock(published_mu_);
  return published_;
}

void StatsService::Publish(PublishedPtr next) {
  {
    std::lock_guard<std::mutex> lock(published_mu_);
    published_.swap(next);
  }
  // `next` now holds the displaced epoch; it is released here, unlocked.
}

std::string StatsService::RenderEpoch(const PublishedEpoch& cur) const {
  const std::string m(kStatsMountPath);
  const MonitorStats::Snapshot& s = cur.snap;
  std::string out;
  out += StrFormat("version %llu\n", static_cast<unsigned long long>(cur.version));
  auto line = [&out, &m](const char* rel, uint64_t v) {
    out += StrFormat("%s/%s %llu\n", m.c_str(), rel, static_cast<unsigned long long>(v));
  };
  auto text_line = [&out, &m](const char* rel, const std::string& v) {
    out += StrFormat("%s/%s %s\n", m.c_str(), rel, v.c_str());
  };
  line("checks/total", s.checks_total);
  line("checks/allowed", s.allowed);
  line("checks/denied", s.denied);
  for (int i = 0; i < kAccessModeCount; ++i) {
    AccessMode mode = static_cast<AccessMode>(1u << i);
    line(StrFormat("checks/by-mode/%s", std::string(AccessModeName(mode)).c_str()).c_str(),
         s.by_mode[i]);
  }
  for (size_t r = 1; r < kDenyReasonCount; ++r) {
    DenyReason reason = static_cast<DenyReason>(r);
    line(StrFormat("denials/by-reason/%s", std::string(DenyReasonName(reason)).c_str()).c_str(),
         s.by_reason[r]);
  }
  line("cache/hits", cur.cache_hits);
  line("cache/misses", cur.cache_misses);
  line("cache/stale", cur.cache_stale);
  uint64_t probes = cur.cache_hits + cur.cache_misses;
  text_line("cache/hit_rate",
            FormatFixed(probes == 0 ? 0.0
                                    : static_cast<double>(cur.cache_hits) /
                                          static_cast<double>(probes),
                        4));
  line("latency/p50", s.LatencyQuantileNs(0.50));
  line("latency/p90", s.LatencyQuantileNs(0.90));
  line("latency/p99", s.LatencyQuantileNs(0.99));
  line("latency/samples", s.latency_samples);
  line("audit/retained", cur.audit_retained);
  line("audit/dropped", cur.audit_dropped);
  text_line("rate/checks_per_sec", FormatFixed(cur.checks_per_sec, 2));
  text_line("rate/denials_per_sec", FormatFixed(cur.denials_per_sec, 2));
  return out;
}

}  // namespace xsec
