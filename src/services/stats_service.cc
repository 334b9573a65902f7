#include "src/services/stats_service.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <limits>
#include <utility>
#include <vector>

#include "src/base/failpoint.h"
#include "src/base/strings.h"
#include "src/extsys/supervisor.h"
#include "src/naming/path.h"

namespace xsec {

StatsService::StatsService(Kernel* kernel, StatsServiceOptions options)
    : kernel_(kernel), options_(std::move(options)) {}

StatsService::StatsService(Kernel* kernel, std::string mount_path, std::string service_path)
    : kernel_(kernel) {
  options_.mount_path = std::move(mount_path);
  options_.service_path = std::move(service_path);
}

StatsService::~StatsService() {
  {
    std::lock_guard<std::mutex> lock(wait_mu_);
    stop_ = true;
  }
  wait_cv_.notify_all();
  if (publisher_.joinable()) {
    publisher_.join();
  }
}

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
  std::string full = JoinPath(options_.mount_path, relative_path);
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
  auto mount = kernel_->name_space().BindPath(options_.mount_path, NodeKind::kDirectory, system);
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

  snapshot_node_ = values_.at(JoinPath(options_.mount_path, "snapshot")).node;

  auto svc = kernel_->RegisterService(options_.service_path, system);
  if (!svc.ok()) {
    return svc.status();
  }
  auto read_node = kernel_->RegisterProcedure(
      JoinPath(options_.service_path, "read"), system,
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
      JoinPath(options_.service_path, "dump"), system,
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
  // Shared by watch and poll: the optional trailing timeout argument. A
  // non-positive timeout used to park the caller for a zero-length wait that
  // always "timed out"; it is a caller bug, so it is rejected loudly.
  auto parse_timeout_ms = [](const std::vector<Value>& args,
                             size_t index) -> StatusOr<int64_t> {
    int64_t timeout_ms = 1000;
    if (args.size() > index) {
      auto t = ArgInt(args, index);
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
    return timeout_ms;
  };

  auto watch_node = kernel_->RegisterProcedure(
      JoinPath(options_.service_path, "watch"), system,
      [this, parse_timeout_ms](CallContext& ctx) -> StatusOr<Value> {
        auto since = ArgInt(ctx.args, 0);
        if (!since.ok()) {
          return since.status();
        }
        if (*since < -1) {
          return InvalidArgumentError(
              StrFormat("since must be a version or -1, got %lld",
                        static_cast<long long>(*since)));
        }
        auto timeout_ms = parse_timeout_ms(ctx.args, 1);
        if (!timeout_ms.ok()) {
          return timeout_ms.status();
        }
        // Admission before blocking: watching the snapshot is reading it.
        Decision decision =
            kernel_->monitor().Check(*ctx.subject, snapshot_node_, AccessMode::kRead);
        if (!decision.allowed) {
          return decision.ToStatus();
        }
        uint64_t since_v;
        if (*since < 0) {
          // "Any change after this call": baseline a fresh publication that
          // already folds in this watch's own admission check, so the caller
          // blocks for the next *external* change instead of unblocking on
          // the counter bump the watch itself just caused.
          since_v = Tick();
        } else {
          since_v = static_cast<uint64_t>(*since);
        }
        uint64_t deadline =
            MonotonicNowNs() + static_cast<uint64_t>(*timeout_ms) * 1'000'000;
        if (ctx.deadline_ns != 0 && ctx.deadline_ns < deadline) {
          deadline = ctx.deadline_ns;
        }
        auto text = WaitForUpdate(since_v, deadline, &ctx);
        if (!text.ok()) {
          return text.status();
        }
        return Value{std::move(*text)};
      });
  if (!watch_node.ok()) {
    return watch_node.status();
  }
  auto subscribe_node = kernel_->RegisterProcedure(
      JoinPath(options_.service_path, "subscribe"), system,
      [this](CallContext& ctx) -> StatusOr<Value> {
        int64_t since = -1;
        if (!ctx.args.empty()) {
          auto s = ArgInt(ctx.args, 0);
          if (!s.ok()) {
            return s.status();
          }
          since = *s;
        }
        SubscriberBackpressure backpressure = SubscriberBackpressure::kDropOldest;
        if (ctx.args.size() > 1) {
          auto policy = ArgString(ctx.args, 1);
          if (!policy.ok()) {
            return policy.status();
          }
          if (*policy == "block") {
            backpressure = SubscriberBackpressure::kBlockPublisher;
          } else if (*policy != "drop") {
            return InvalidArgumentError(
                StrFormat("backpressure policy must be 'drop' or 'block', got '%s'",
                          std::string(*policy).c_str()));
          }
        }
        auto id = Subscribe(*ctx.subject, since, backpressure);
        if (!id.ok()) {
          return id.status();
        }
        return Value{std::to_string(*id)};
      });
  if (!subscribe_node.ok()) {
    return subscribe_node.status();
  }
  auto poll_node = kernel_->RegisterProcedure(
      JoinPath(options_.service_path, "poll"), system,
      [this, parse_timeout_ms](CallContext& ctx) -> StatusOr<Value> {
        auto id = ArgInt(ctx.args, 0);
        if (!id.ok()) {
          return id.status();
        }
        if (*id < 0) {
          return InvalidArgumentError("subscription handle cannot be negative");
        }
        auto timeout_ms = parse_timeout_ms(ctx.args, 1);
        if (!timeout_ms.ok()) {
          return timeout_ms.status();
        }
        uint64_t deadline =
            MonotonicNowNs() + static_cast<uint64_t>(*timeout_ms) * 1'000'000;
        if (ctx.deadline_ns != 0 && ctx.deadline_ns < deadline) {
          deadline = ctx.deadline_ns;
        }
        auto text =
            PollSubscription(*ctx.subject, static_cast<uint64_t>(*id), deadline, &ctx);
        if (!text.ok()) {
          return text.status();
        }
        return Value{std::move(*text)};
      });
  if (!poll_node.ok()) {
    return poll_node.status();
  }
  auto unsubscribe_node = kernel_->RegisterProcedure(
      JoinPath(options_.service_path, "unsubscribe"), system,
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
  auto export_node = kernel_->RegisterProcedure(
      JoinPath(options_.service_path, "export"), system,
      [this](CallContext& ctx) -> StatusOr<Value> {
        auto id = ArgInt(ctx.args, 0);
        if (!id.ok()) {
          return id.status();
        }
        if (*id < 0) {
          return InvalidArgumentError("subscription handle cannot be negative");
        }
        auto token = ExportSubscription(*ctx.subject, static_cast<uint64_t>(*id));
        if (!token.ok()) {
          return token.status();
        }
        return Value{std::move(*token)};
      });
  if (!export_node.ok()) {
    return export_node.status();
  }
  auto resume_node = kernel_->RegisterProcedure(
      JoinPath(options_.service_path, "resume"), system,
      [this](CallContext& ctx) -> StatusOr<Value> {
        auto token = ArgString(ctx.args, 0);
        if (!token.ok()) {
          return token.status();
        }
        auto id = ResumeSubscription(*ctx.subject, std::string(*token));
        if (!id.ok()) {
          return id.status();
        }
        return Value{std::to_string(*id)};
      });
  if (!resume_node.ok()) {
    return resume_node.status();
  }

  Tick();  // version 1: the boot-time state

  if (options_.background_publisher) {
    publisher_ = std::thread([this] {
      std::unique_lock<std::mutex> lock(wait_mu_);
      while (!stop_) {
        wait_cv_.wait_for(lock, std::chrono::nanoseconds(options_.epoch_interval_ns));
        if (stop_) {
          break;
        }
        lock.unlock();
        Tick();
        lock.lock();
      }
    });
  }
  return OkStatus();
}

StatusOr<std::string> StatsService::ReadStat(Subject& subject, std::string_view path) {
  if (!StartsWith(path, options_.mount_path + "/")) {
    return InvalidArgumentError(
        StrFormat("'%s' is outside the stats mount '%s'", std::string(path).c_str(),
                  options_.mount_path.c_str()));
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
           now - rate_ring_[1].t_ns >= options_.rate_window_ns) {
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
    epoch->rendered = RenderEpoch(*epoch, nullptr);
    next = std::move(epoch);
    Publish(next);
    last_tick_ns_.store(now, std::memory_order_relaxed);
  }
  if (changed) {
    {
      // Empty critical section: a waiter that checked the pointer before the
      // swap is either already parked (the notify below wakes it) or still
      // holds wait_mu_ (this lock waits for it to park first).
      std::lock_guard<std::mutex> lock(wait_mu_);
    }
    wait_cv_.notify_all();
    FanOut(next->version, next);
  }
  return next->version;
}

void StatsService::FanOut(uint64_t version, const PublishedPtr& epoch) {
  // Fast path: one sub_mu_ hold pushes the epoch pointer to every channel
  // with room (or evicts per kDropOldest). The only slow case — a *full*
  // kBlockPublisher queue — is deferred, because its capped wait must not
  // hold sub_mu_ against every other channel.
  std::vector<std::shared_ptr<SubscriberChannel>> deferred;
  uint64_t shed = 0;  // batched into subscriber_dropped_total_ once, below
  {
    std::lock_guard<std::mutex> lock(sub_mu_);
    for (const auto& channel : fanout_order_) {
      if (channel->closed || version <= channel->last_version) {
        continue;  // gone, or a concurrent Tick already delivered this epoch
      }
      if (XSEC_FAILPOINT_FIRED("stats.fanout.push")) {
        // Injected delivery failure: the epoch is lost to this channel
        // exactly like a backpressure drop (a sleep spec instead stalls
        // fan-out under sub_mu_, the shape of a wedged delivery path).
        channel->last_version = version;
        ++channel->dropped;
        ++shed;
        continue;
      }
      if (channel->queue.size() >= options_.subscriber_queue_capacity) {
        if (channel->backpressure == SubscriberBackpressure::kBlockPublisher) {
          deferred.push_back(channel);  // last_version set when handled below
          continue;
        }
        channel->last_version = version;
        channel->queue.pop_front();  // evict: the subscriber sees a gap
        channel->queue.push_back(epoch);
        ++channel->dropped;
        ++shed;
        if (channel->waiters != 0) {
          channel->cv.notify_all();
        }
        continue;
      }
      channel->last_version = version;
      channel->queue.push_back(epoch);
      if (channel->waiters != 0) {
        channel->cv.notify_all();
      }
    }
  }
  if (shed != 0) {
    subscriber_dropped_total_.fetch_add(shed, std::memory_order_relaxed);
  }
  for (const auto& channel : deferred) {
    std::unique_lock<std::mutex> lock(sub_mu_);
    if (channel->closed || version <= channel->last_version) {
      continue;
    }
    if (channel->queue.size() >= options_.subscriber_queue_capacity) {
      // Wait for the subscriber to drain — capped, so a stuck subscriber
      // costs the publisher at most publisher_block_cap_ns per epoch.
      channel->cv.wait_for(
          lock, std::chrono::nanoseconds(options_.publisher_block_cap_ns), [&] {
            return channel->closed ||
                   channel->queue.size() < options_.subscriber_queue_capacity;
          });
      if (channel->closed) {
        continue;
      }
    }
    channel->last_version = version;
    if (channel->queue.size() >= options_.subscriber_queue_capacity) {
      // Past the cap: the new epoch is the one dropped.
      ++channel->dropped;
      subscriber_dropped_total_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    channel->queue.push_back(epoch);
    channel->cv.notify_all();
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

StatusOr<std::string> StatsService::WaitForUpdate(uint64_t since, uint64_t deadline_ns,
                                                  const CallContext* call) {
  for (;;) {
    // Wakeup-path injection point: a sleep spec delays each recheck cycle
    // (simulating a tardy wakeup), an error spec just counts a fire — the
    // wait itself must not fail, only the deadline/cancel checks below can
    // end it.
    (void)XSEC_FAILPOINT_FIRED("stats.poll.wakeup");
    // Lock-free fast path: the reader never touches the writer's lock. A
    // `since` *ahead* of the published version is a handle from before a
    // service restart (version counters restart at 1): the caller's era is
    // gone, so the honest answer is the current state now, not a park that
    // can only time out.
    PublishedPtr cur = LoadPublished();
    if ((cur == nullptr ? 0 : cur->version) != since) {
      return cur == nullptr ? std::string() : cur->rendered;
    }
    uint64_t now = MonotonicNowNs();
    if (call != nullptr) {
      XSEC_RETURN_IF_ERROR(call->CheckDeadline());  // lock-free cancellation point
    }
    if (deadline_ns != 0 && now >= deadline_ns) {
      return DeadlineExceededError(
          StrFormat("no stats update past version %llu within the deadline",
                    static_cast<unsigned long long>(since)));
    }
    // Self-clocking: when the current epoch has elapsed, this watcher takes
    // its own fresh capture instead of waiting for a publisher thread that
    // may not exist.
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
    if (call != nullptr && options_.cancel_poll_interval_ns != 0 &&
        now + options_.cancel_poll_interval_ns < wake) {
      // A cancellable waiter never parks a whole epoch blind: cap the slice
      // so the loop re-polls CheckDeadline at cancel granularity. (Before
      // this cap a cancelled watcher slept out the full slice — up to the
      // epoch interval — before noticing.)
      wake = now + options_.cancel_poll_interval_ns;
    }
    {
      std::unique_lock<std::mutex> lock(wait_mu_);
      // Re-check under wait_mu_ before parking: Tick swaps the pointer and
      // then passes through this mutex before notifying, so a version that
      // landed after the fast-path check cannot be slept through.
      PublishedPtr again = LoadPublished();
      if ((again == nullptr ? 0 : again->version) == since) {
        wait_cv_.wait_for(lock, std::chrono::nanoseconds(wake - now));
      }
    }
    if (call != nullptr) {
      // Recheck before re-arming: a spurious wakeup (or a notify for some
      // other waiter) must not put a cancelled caller back to sleep.
      XSEC_RETURN_IF_ERROR(call->CheckDeadline());
    }
  }
}

StatusOr<uint64_t> StatsService::Subscribe(Subject& subject, int64_t since,
                                           SubscriberBackpressure backpressure) {
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
  uint64_t version = Tick();
  PublishedPtr current = LoadPublished();
  auto channel = std::make_shared<SubscriberChannel>();
  channel->owner = subject.principal;
  channel->backpressure = backpressure;
  channel->last_version = version;
  if (since >= 0 && static_cast<uint64_t>(since) != version) {
    // The subscriber is behind — or ahead, holding a version from a previous
    // service incarnation whose era is gone. Either way: seed the queue with
    // one catch-up snapshot. Intermediate epochs are not retained — a
    // subscription delivers current state plus every change from now on,
    // not history. last_delivered stays null so the catch-up renders full.
    channel->queue.push_back(current);
  } else {
    // Baselined now: the next delivery is a delta against this epoch.
    channel->last_delivered = current;
  }
  {
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
    channel->id = next_subscriber_id_++;
    subscribers_.emplace(channel->id, channel);
    fanout_order_.push_back(channel);
  }
  Status mounted = MountSubscriberLeaves(channel);
  if (!mounted.ok()) {
    (void)Unsubscribe(subject, channel->id);
    return mounted;
  }
  {
    // The leaves were mounted outside sub_mu_ (lock order), so a concurrent
    // Unsubscribe or GcChannelsFor may have reaped the channel in between —
    // and its unmount pass can have run before the mount finished. Re-check
    // under the lock: if the channel is closed, the leaves just mounted are
    // orphans that would resurrect telemetry for a dead channel. Tear them
    // down and report the reap instead of handing out a dead capability.
    std::lock_guard<std::mutex> lock(sub_mu_);
    if (!channel->closed) {
      return channel->id;
    }
  }
  UnmountSubscriberLeaves(channel->id);
  return FailedPreconditionError("subscription was reaped during subscribe");
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
    PublishedPtr prev;
    {
      std::lock_guard<std::mutex> lock(sub_mu_);
      if (!channel->queue.empty()) {
        epoch = std::move(channel->queue.front());
        channel->queue.pop_front();
        ++channel->delivered;
        prev = channel->last_delivered;
        channel->last_delivered = epoch;
        channel->cv.notify_all();  // a capped publisher may be waiting for space
      } else if (channel->closed) {
        return FailedPreconditionError("subscription was closed");
      }
    }
    if (epoch != nullptr) {
      // Render outside sub_mu_: a delta against the channel's previous
      // delivery (cumulative counters, so epochs dropped in between are
      // folded in exactly), or the full text on a first/catch-up delivery.
      if (prev == nullptr) {
        return epoch->rendered;
      }
      return RenderEpoch(*epoch, prev.get());
    }
    if (call != nullptr) {
      XSEC_RETURN_IF_ERROR(call->CheckDeadline());
    }
    uint64_t now = MonotonicNowNs();
    if (deadline_ns != 0 && now >= deadline_ns) {
      return DeadlineExceededError("no epoch published within the deadline");
    }
    // Self-clocking, like WaitForUpdate: with no background publisher the
    // blocked poller captures an epoch itself once the interval elapses
    // (Tick fans out to this very channel).
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
    if (call != nullptr && options_.cancel_poll_interval_ns != 0 &&
        now + options_.cancel_poll_interval_ns < wake) {
      // Same cancel-granularity cap as WaitForUpdate: a cancelled poller
      // must not sleep out a whole epoch slice before noticing.
      wake = now + options_.cancel_poll_interval_ns;
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
  {
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
    it->second->cv.notify_all();  // release any blocked poller or publisher
    subscribers_.erase(it);
    fanout_order_.erase(
        std::remove_if(fanout_order_.begin(), fanout_order_.end(),
                       [id](const auto& c) { return c->id == id; }),
        fanout_order_.end());
  }
  UnmountSubscriberLeaves(id);
  return OkStatus();
}

StatusOr<std::string> StatsService::ExportSubscription(Subject& subject, uint64_t id) {
  std::lock_guard<std::mutex> lock(sub_mu_);
  auto it = subscribers_.find(id);
  if (it == subscribers_.end()) {
    return NotFoundError(StrFormat("no subscription with handle %llu",
                                   static_cast<unsigned long long>(id)));
  }
  const SubscriberChannel& channel = *it->second;
  if (channel.owner != subject.principal) {
    return PermissionDeniedError("subscription handle belongs to another principal");
  }
  // The durable identity is deliberately tiny: who, how far they have read,
  // and how they want backpressure handled. No capability material — resume
  // re-runs admission, so the token is a bookmark, not a bearer credential.
  return StrFormat(
      "xsec-sub-v1 principal=%lu since=%llu policy=%s",
      static_cast<unsigned long>(channel.owner.value),
      static_cast<unsigned long long>(channel.last_version),
      channel.backpressure == SubscriberBackpressure::kBlockPublisher ? "block" : "drop");
}

StatusOr<uint64_t> StatsService::ResumeSubscription(Subject& subject,
                                                    const std::string& token) {
  std::vector<std::string> parts = StrSplit(token, ' ', /*skip_empty=*/true);
  if (parts.size() != 4 || parts[0] != "xsec-sub-v1") {
    return InvalidArgumentError("unrecognized subscription token");
  }
  uint64_t principal = 0;
  uint64_t since = 0;
  SubscriberBackpressure backpressure = SubscriberBackpressure::kDropOldest;
  bool have_principal = false;
  bool have_since = false;
  bool have_policy = false;
  for (size_t i = 1; i < parts.size(); ++i) {
    size_t eq = parts[i].find('=');
    if (eq == std::string::npos) {
      return InvalidArgumentError("malformed subscription token field");
    }
    std::string key = parts[i].substr(0, eq);
    std::string val = parts[i].substr(eq + 1);
    if (key == "principal" || key == "since") {
      uint64_t parsed = 0;
      if (val.empty()) {
        return InvalidArgumentError("malformed subscription token field");
      }
      for (char c : val) {
        if (c < '0' || c > '9') {
          return InvalidArgumentError("malformed subscription token field");
        }
        if (parsed > (std::numeric_limits<uint64_t>::max() - (c - '0')) / 10) {
          return InvalidArgumentError("subscription token field overflows");
        }
        parsed = parsed * 10 + static_cast<uint64_t>(c - '0');
      }
      if (key == "principal") {
        principal = parsed;
        have_principal = true;
      } else {
        since = parsed;
        have_since = true;
      }
    } else if (key == "policy") {
      if (val == "block") {
        backpressure = SubscriberBackpressure::kBlockPublisher;
      } else if (val != "drop") {
        return InvalidArgumentError("subscription token policy must be drop or block");
      }
      have_policy = true;
    } else {
      return InvalidArgumentError("unrecognized subscription token field");
    }
  }
  if (!have_principal || !have_since || !have_policy) {
    return InvalidArgumentError("incomplete subscription token");
  }
  if (principal != subject.principal.value) {
    // A token names its owner; presenting someone else's bookmark is denied
    // before any admission work happens.
    return PermissionDeniedError("subscription token belongs to another principal");
  }
  if (since > static_cast<uint64_t>(std::numeric_limits<int64_t>::max())) {
    return InvalidArgumentError("subscription token version out of range");
  }
  // Subscribe re-runs the monitor admission Check: a principal whose read
  // right was revoked since the export is denied here, token or no token.
  // A `since` from the previous incarnation that differs from the current
  // version seeds one catch-up snapshot, so the resumed channel starts from
  // observable state instead of a silent gap.
  return Subscribe(subject, static_cast<int64_t>(since), backpressure);
}

size_t StatsService::GcChannelsFor(PrincipalId principal) {
  std::vector<uint64_t> ids;
  {
    std::lock_guard<std::mutex> lock(sub_mu_);
    for (auto it = subscribers_.begin(); it != subscribers_.end();) {
      if (it->second->owner == principal) {
        ids.push_back(it->first);
        it->second->closed = true;
        it->second->cv.notify_all();  // release blocked pollers/publishers
        it = subscribers_.erase(it);
      } else {
        ++it;
      }
    }
    if (!ids.empty()) {
      fanout_order_.erase(
          std::remove_if(fanout_order_.begin(), fanout_order_.end(),
                         [](const auto& c) { return c->closed; }),
          fanout_order_.end());
    }
  }
  // Leaves are unmounted outside sub_mu_ (lock order: values_mu_ is never
  // taken while sub_mu_ is held). A Subscribe racing this reap re-checks
  // `closed` after its own mount and tears the leaves down itself, so the
  // channel cannot come back as orphaned telemetry.
  for (uint64_t id : ids) {
    UnmountSubscriberLeaves(id);
  }
  return ids.size();
}

size_t StatsService::active_subscribers() const {
  std::lock_guard<std::mutex> lock(sub_mu_);
  return subscribers_.size();
}

Status StatsService::MountSubscriberLeaves(const std::shared_ptr<SubscriberChannel>& channel) {
  // Renders hold the channel shared_ptr, so a leaf read races safely with
  // Unsubscribe (it reports the channel's final counters until unmounted).
  std::string base = StrFormat("subscribers/%llu", static_cast<unsigned long long>(channel->id));
  XSEC_RETURN_IF_ERROR(MountLeaf(base + "/queued", [this, channel] {
    std::lock_guard<std::mutex> lock(sub_mu_);
    return std::to_string(channel->queue.size());
  }));
  XSEC_RETURN_IF_ERROR(MountLeaf(base + "/delivered", [this, channel] {
    std::lock_guard<std::mutex> lock(sub_mu_);
    return std::to_string(channel->delivered);
  }));
  XSEC_RETURN_IF_ERROR(MountLeaf(base + "/dropped", [this, channel] {
    std::lock_guard<std::mutex> lock(sub_mu_);
    return std::to_string(channel->dropped);
  }));
  return OkStatus();
}

void StatsService::UnmountSubscriberLeaves(uint64_t id) {
  std::string prefix = JoinPath(
      options_.mount_path,
      StrFormat("subscribers/%llu", static_cast<unsigned long long>(id)));
  std::unique_lock<std::shared_mutex> lock(values_mu_);
  for (auto it = values_.lower_bound(prefix); it != values_.end();) {
    if (!StartsWith(it->first, prefix + "/")) {
      break;
    }
    (void)kernel_->name_space().Unbind(it->second.node);
    it = values_.erase(it);
  }
  // The now-empty per-channel directory goes too.
  auto dir = kernel_->name_space().Lookup(prefix);
  if (dir.ok()) {
    (void)kernel_->name_space().Unbind(*dir);
  }
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

std::string StatsService::RenderEpoch(const PublishedEpoch& cur,
                                      const PublishedEpoch* prev) const {
  const std::string& m = options_.mount_path;
  const MonitorStats::Snapshot& s = cur.snap;
  std::string out;
  out += StrFormat("version %llu\n", static_cast<unsigned long long>(cur.version));
  if (prev != nullptr) {
    // Delta framing: every counter below is cumulative, so a delta against
    // any older epoch is exact — including across epochs the channel
    // dropped. Unchanged leaves are omitted.
    out += StrFormat("delta_from %llu\n", static_cast<unsigned long long>(prev->version));
  }
  auto line = [&out, &m, prev](const char* rel, uint64_t v, uint64_t prev_v) {
    if (prev != nullptr && v == prev_v) {
      return;
    }
    out += StrFormat("%s/%s %llu\n", m.c_str(), rel, static_cast<unsigned long long>(v));
  };
  auto text_line = [&out, &m, prev](const char* rel, const std::string& v,
                                    const std::string& prev_v) {
    if (prev != nullptr && v == prev_v) {
      return;
    }
    out += StrFormat("%s/%s %s\n", m.c_str(), rel, v.c_str());
  };
  const MonitorStats::Snapshot* p = prev == nullptr ? nullptr : &prev->snap;
  line("checks/total", s.checks_total, p == nullptr ? 0 : p->checks_total);
  line("checks/allowed", s.allowed, p == nullptr ? 0 : p->allowed);
  line("checks/denied", s.denied, p == nullptr ? 0 : p->denied);
  for (int i = 0; i < kAccessModeCount; ++i) {
    AccessMode mode = static_cast<AccessMode>(1u << i);
    line(StrFormat("checks/by-mode/%s", std::string(AccessModeName(mode)).c_str()).c_str(),
         s.by_mode[i], p == nullptr ? 0 : p->by_mode[i]);
  }
  for (size_t r = 1; r < kDenyReasonCount; ++r) {
    DenyReason reason = static_cast<DenyReason>(r);
    line(StrFormat("denials/by-reason/%s", std::string(DenyReasonName(reason)).c_str()).c_str(),
         s.by_reason[r], p == nullptr ? 0 : p->by_reason[r]);
  }
  line("cache/hits", cur.cache_hits, prev == nullptr ? 0 : prev->cache_hits);
  line("cache/misses", cur.cache_misses, prev == nullptr ? 0 : prev->cache_misses);
  line("cache/stale", cur.cache_stale, prev == nullptr ? 0 : prev->cache_stale);
  auto hit_rate = [](const PublishedEpoch& e) {
    uint64_t probes = e.cache_hits + e.cache_misses;
    return FormatFixed(probes == 0 ? 0.0
                                   : static_cast<double>(e.cache_hits) /
                                         static_cast<double>(probes),
                       4);
  };
  text_line("cache/hit_rate", hit_rate(cur),
            prev == nullptr ? std::string() : hit_rate(*prev));
  line("latency/p50", s.LatencyQuantileNs(0.50),
       p == nullptr ? 0 : p->LatencyQuantileNs(0.50));
  line("latency/p90", s.LatencyQuantileNs(0.90),
       p == nullptr ? 0 : p->LatencyQuantileNs(0.90));
  line("latency/p99", s.LatencyQuantileNs(0.99),
       p == nullptr ? 0 : p->LatencyQuantileNs(0.99));
  line("latency/samples", s.latency_samples, p == nullptr ? 0 : p->latency_samples);
  line("audit/retained", cur.audit_retained, prev == nullptr ? 0 : prev->audit_retained);
  line("audit/dropped", cur.audit_dropped, prev == nullptr ? 0 : prev->audit_dropped);
  text_line("rate/checks_per_sec", FormatFixed(cur.checks_per_sec, 2),
            prev == nullptr ? std::string() : FormatFixed(prev->checks_per_sec, 2));
  text_line("rate/denials_per_sec", FormatFixed(cur.denials_per_sec, 2),
            prev == nullptr ? std::string() : FormatFixed(prev->denials_per_sec, 2));
  return out;
}

}  // namespace xsec
