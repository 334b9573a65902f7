// Experiment F12 — subscription fan-out cost on the publish path.
//
// Tick() pushes each newly published epoch to every subscriber channel, so
// the publisher pays O(subscribers) per epoch. The tentpole claim is that a
// slow or absent consumer never wedges publication: a full queue evicts its
// oldest epoch, so the per-channel work is a deque rotation and a counter
// bump even when every queue is full. The figure sweeps:
//
//   PublishFanOut/subscribers:<n>   one mediated check + Tick, n channels,
//                                   none draining
//   SubscribeUnsubscribe            admission check + channel open/close
//                                   round trip (the control-plane cost)
//   MultiSinkDrain/sinks:<n>        audit delivery: one batch recorded, n
//                                   registered sinks each ~20us per record,
//                                   their delivery threads run in parallel
//                                   until Flush
//
// Expected shape: with the RCU-published epoch pointer the publisher's cost
// is ~flat in n — the fan-out step per channel is a pointer push, so the
// n:64 cell should sit within ~10% of n:1 (ci/check_bench_f12.py gates
// this). items_per_second counts published epochs.
//
// MultiSinkDrain uses real time: each sink sleeps ~20us per record, so with
// 2 sinks the sleeps overlap across delivery threads and total
// sink-deliveries/sec should be >= 1.5x the single sink even on one core
// (the gate in ci/check_bench_f12.py). Each sink checks that the sequences
// it is handed strictly increase; order_violations must be 0.

#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "src/extsys/kernel.h"
#include "src/monitor/audit.h"
#include "src/services/stats_service.h"

namespace xsec {
namespace {

StatsServiceOptions BenchOptions() {
  StatsServiceOptions options;
  // Publication is driven by the explicit Tick below; a huge epoch interval
  // keeps the self-clocking read paths out of the measurement.
  options.epoch_interval_ns = uint64_t{3600} * 1'000'000'000;
  options.max_subscribers = 1024;
  // Every bench channel belongs to the system principal; the per-principal
  // quota would cap the sweep at 4 subscribers.
  options.max_channels_per_principal = 0;
  return options;
}

void BM_PublishFanOut(benchmark::State& state) {
  Kernel kernel;
  StatsService stats(&kernel, BenchOptions());
  if (!stats.Install().ok()) {
    state.SkipWithError("Install failed");
    return;
  }
  Subject system = kernel.SystemSubject();
  std::vector<uint64_t> ids;
  for (int64_t i = 0; i < state.range(0); ++i) {
    auto id = stats.Subscribe(system, -1);
    if (!id.ok()) {
      state.SkipWithError("Subscribe failed");
      return;
    }
    ids.push_back(*id);
  }
  NodeId root = kernel.name_space().root();
  for (auto _ : state) {
    // A counter has to move or Tick publishes nothing; one mediated check is
    // the cheapest way to guarantee a fresh epoch every iteration.
    benchmark::DoNotOptimize(kernel.monitor().Check(system, root, AccessMode::kList));
    benchmark::DoNotOptimize(stats.Tick());
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["dropped"] =
      static_cast<double>(stats.subscriber_dropped_total());
  for (uint64_t id : ids) {
    (void)stats.Unsubscribe(system, id);
  }
}
BENCHMARK(BM_PublishFanOut)
    ->ArgName("subscribers")
    ->Arg(0)
    ->Arg(1)
    ->Arg(8)
    ->Arg(64);

void BM_SubscribeUnsubscribe(benchmark::State& state) {
  Kernel kernel;
  StatsService stats(&kernel, BenchOptions());
  if (!stats.Install().ok()) {
    state.SkipWithError("Install failed");
    return;
  }
  Subject system = kernel.SystemSubject();
  for (auto _ : state) {
    auto id = stats.Subscribe(system, -1);
    if (!id.ok()) {
      state.SkipWithError("Subscribe failed");
      return;
    }
    (void)stats.Unsubscribe(system, *id);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SubscribeUnsubscribe);

void BM_MultiSinkDrain(benchmark::State& state) {
  const int64_t sinks = state.range(0);
  AuditLog log(/*capacity=*/1 << 16);
  log.set_policy(AuditPolicy::kAll);
  auto order_violations = std::make_shared<std::atomic<uint64_t>>(0);
  for (int64_t i = 0; i < sinks; ++i) {
    // A sink that costs ~20us per record: the drain time is sleep-dominated,
    // so parallel delivery threads overlap their sleeps even on one core.
    // Calls to one sink are serialized, so `last` needs no lock.
    auto last = std::make_shared<uint64_t>(0);
    log.AddSink("bench" + std::to_string(i),
                [order_violations, last, first = true](const AuditRecord& record) mutable {
                  if (!first && record.sequence <= *last) {
                    order_violations->fetch_add(1, std::memory_order_relaxed);
                  }
                  first = false;
                  *last = record.sequence;
                  std::this_thread::sleep_for(std::chrono::microseconds(20));
                });
  }
  log.StartDrain();
  AuditRecord record;
  record.principal = PrincipalId{1};
  record.thread_id = 7;
  record.node = NodeId{1};
  record.path = "/svc/fs/read";
  record.modes = AccessMode::kRead;
  record.allowed = false;
  record.reason = DenyReason::kDacNoGrant;
  constexpr int kBatch = 64;
  for (auto _ : state) {
    for (int i = 0; i < kBatch; ++i) {
      log.Record(record);
    }
    // Flush blocks until every sink's cursor reaches the head, so an
    // iteration measures append + full parallel delivery.
    log.Flush();
  }
  log.StopDrain();
  // Each sink is handed the whole stream: total sink-deliveries scale with
  // the sink count while wall time stays ~flat when deliveries overlap.
  state.SetItemsProcessed(state.iterations() * kBatch * sinks);
  state.counters["order_violations"] = static_cast<double>(order_violations->load());
  state.counters["sink_dropped"] = static_cast<double>(log.sink_dropped());
}
BENCHMARK(BM_MultiSinkDrain)
    ->ArgName("sinks")
    ->Arg(1)
    ->Arg(2)
    ->UseRealTime();

}  // namespace
}  // namespace xsec

BENCHMARK_MAIN();
