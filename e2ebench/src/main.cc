// xsec_e2e: runs one workload from one closed-loop client thread and prints
// every metric with its unit, then one JSON result line.
//
//   xsec_e2e --workload <hot_invoke|policy_churn|extension_churn> --seed <n>
//            --seconds <s> --trace <0|1> [--spans <file>] [--selftest]
//
// --trace 0 measures the end-to-end metrics over the whole window.
// --trace 1 splits the window: an untraced half for the per-layer counters
// and the untraced throughput, then a traced half that replays sampled ops
// through each layer's entry point as child spans (written to --spans).
// --selftest runs a tiny ring briefly and exits non-zero unless every op
// matched the oracle and every counter identity held.

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "e2ebench/src/workload.h"

namespace xsec::e2e {
namespace {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool selftest = false;
  std::string spans;
};

bool ParseOptions(int argc, char** argv, Options* opts) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&](const char** out) {
      if (i + 1 >= argc) {
        return false;
      }
      *out = argv[++i];
      return true;
    };
    const char* v = nullptr;
    if (arg == "--selftest") {
      opts->selftest = true;
    } else if (arg == "--workload" && value(&v)) {
      opts->workload = v;
    } else if (arg == "--seed" && value(&v)) {
      opts->seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds" && value(&v)) {
      opts->seconds = std::strtod(v, nullptr);
    } else if (arg == "--trace" && value(&v)) {
      opts->trace = std::strcmp(v, "0") != 0;
    } else if (arg == "--spans" && value(&v)) {
      opts->spans = v;
    } else {
      return false;
    }
  }
  return !opts->workload.empty() && opts->seconds > 0;
}

// A smoothed quantile: the mean of the sorted samples within a narrow rank
// band around q, so a steady distribution does not read as one integer.
double SmoothQuantile(std::vector<uint64_t>& v, double q) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  size_t band = std::max<size_t>(1, n / 200);
  size_t center = std::min(n - 1, static_cast<size_t>(q * static_cast<double>(n)));
  size_t lo = center >= band ? center - band : 0;
  size_t hi = std::min(n, center + band + 1);
  double sum = 0;
  for (size_t i = lo; i < hi; ++i) {
    sum += static_cast<double>(v[i]);
  }
  return sum / static_cast<double>(hi - lo);
}

// Interquartile mean: the per-layer timing estimator.
double InterquartileMean(std::vector<uint64_t> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  size_t lo = v.size() / 4;
  size_t hi = std::max(lo + 1, v.size() - v.size() / 4);
  double sum = 0;
  for (size_t i = lo; i < hi; ++i) {
    sum += static_cast<double>(v[i]);
  }
  return sum / static_cast<double>(hi - lo);
}

double Ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

// Counters a window's identities and per-layer ratios are computed from.
struct Counters {
  uint64_t checks = 0;
  uint64_t allowed = 0;
  uint64_t denied = 0;
  std::array<uint64_t, kDenyReasonCount> by_reason{};
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_stale = 0;
  ReferenceMonitor::CompiledCounters compiled;
  uint64_t audit_denials = 0;
  uint64_t sink_received = 0;
  uint64_t sink_dropped = 0;
  uint64_t trips = 0;

  static Counters Read(Env& env) {
    Counters c;
    ReferenceMonitor& m = env.monitor();
    c.checks = m.stats().checks_total();
    c.allowed = m.stats().allowed_total();
    c.denied = m.stats().denied_total();
    for (size_t r = 0; r < kDenyReasonCount; ++r) {
      c.by_reason[r] = m.stats().by_reason(static_cast<DenyReason>(r));
    }
    c.cache_hits = m.cache().hits();
    c.cache_misses = m.cache().misses();
    c.cache_stale = m.cache().stale_hits();
    c.compiled = m.compiled_counters();
    c.audit_denials = m.audit().total_denials();
    c.sink_received = env.audit->received();
    c.sink_dropped = m.audit().sink_dropped();
    for (const auto& ext : env.supervisor->SnapshotAll()) {
      c.trips += ext.trips;
    }
    return c;
  }
};

// Sampled latencies are stored packed as (ns << 4 | uniform << 3 | Family)
// in one buffer allocated and touched before set-up, so the benchmark's own
// sample storage does not show up in world_rss_mb. `uniform` marks the
// hash-sampled ops, which weigh every op alike; rare kinds are sampled on
// every occurrence in addition, for their own family's figures.
inline constexpr size_t kSampleCapacity = size_t{4} << 20;
inline uint64_t PackSample(uint64_t ns, bool uniform, Family family) {
  return ns << 4 | static_cast<uint64_t>(uniform) << 3 | static_cast<uint64_t>(family);
}
inline uint64_t SampleNs(uint64_t packed) { return packed >> 4; }
inline bool SampleUniform(uint64_t packed) { return (packed & 8) != 0; }
inline Family SampleFamily(uint64_t packed) { return static_cast<Family>(packed & 7); }

struct Slice {
  uint64_t ops = 0;
  uint64_t ns = 0;
  size_t begin = 0;  // sample range in the runner's buffer
  size_t end = 0;
};

struct WindowResult {
  uint64_t ops = 0;
  uint64_t failed = 0;
  uint64_t wrong_allows = 0;
  uint64_t mutations = 0;
  double seconds = 0;
  std::vector<Slice> slices;
  const std::vector<uint64_t>* samples = nullptr;
  // Oracle totals over the ops run.
  uint64_t expect_allows = 0;
  std::array<uint64_t, kDenyReasonCount> expect_denied{};
  Counters before;
  Counters after;
  // Per-layer counters (counted windows only).
  uint64_t loads = 0;
  uint64_t link_checks = 0;
  double fresh_share_sum = 0;
  uint64_t fresh_samples = 0;
};

class Runner {
 public:
  Runner(Workload* workload, Env* env)
      : w_(*workload), env_(*env), ring_(workload->ring()), samples_(kSampleCapacity, 0) {}

  // The next op is the ring's first (for a freshly built world).
  void Rewind() { pos_ = 0; }

  // Runs ring ops from pos_ until `seconds` elapse (or `max_ops` ran).
  WindowResult Run(double seconds, uint64_t max_ops, bool counted, Tracer* tracer) {
    WindowResult r;
    r.samples = &samples_;
    size_t n_samples = 0;
    AuditLog& audit = env_.monitor().audit();
    audit.Flush();
    // The drainer is idle after Flush and stays so until this thread
    // retains another record, so its lag log can be reset here.
    env_.audit->lags().clear();
    r.before = Counters::Read(env_);
    const uint64_t slice_ns = static_cast<uint64_t>(std::min(0.1, seconds / 20) * 1e9);
    const uint64_t start = MonotonicNowNs();
    const uint64_t end = start + static_cast<uint64_t>(seconds * 1e9);
    uint64_t slice_start = start;
    uint64_t next_slice = start + slice_ns;
    Slice slice;
    uint64_t i = 0;
    for (;;) {
      const Op& op = ring_[pos_];
      // Frequent kinds are sampled 1 in 16 (traced 1 in 64) by a hash of the
      // op counter, so successive passes sample different ring positions.
      const bool rare = op.kind >= OpKind::kLoad;
      const uint64_t hash = i * 0x9E3779B97F4A7C15ull;
      const bool uniform = (hash >> 60) == 0;
      const bool sampled = (rare || uniform) && n_samples < samples_.size();
      const bool traced = tracer != nullptr && (rare || (hash >> 58) == 0);
      uint64_t t0 = 0;
      if (sampled) {
        t0 = MonotonicNowNs();
        if (op.expect.tally.n_denied > 0) {
          env_.audit->Register(audit.total_denials(), t0);
        }
      }
      uint64_t checks_before = 0;
      if (counted && op.kind == OpKind::kLoad) {
        checks_before = env_.monitor().stats().checks_total();
      }

      Outcome out = Execute(op);

      if (sampled) {
        uint64_t t1 = MonotonicNowNs();
        samples_[n_samples++] = PackSample(t1 - t0, uniform, FamilyOf(op.kind));
        if (traced) {
          Trace(*tracer, op, i, t0, t1);
        }
      }
      if (counted && op.kind == OpKind::kLoad) {
        r.link_checks += env_.monitor().stats().checks_total() - checks_before;
        ++r.loads;
      }
      if (op.kind == OpKind::kTick) {
        SampleCompiledFreshness(&r);
      }
      Verify(op, out, &r);
      r.expect_allows += op.expect.tally.allows;
      for (uint8_t k = 0; k < op.expect.tally.n_denied; ++k) {
        ++r.expect_denied[static_cast<size_t>(op.expect.tally.denied[k])];
      }
      if (op.kind == OpKind::kAdmin || op.kind == OpKind::kLoad || op.kind == OpKind::kUnload) {
        ++r.mutations;
      }
      ++i;
      ++slice.ops;
      pos_ = pos_ + 1 == ring_.size() ? 0 : pos_ + 1;
      if ((i & 15) == 0 || i == max_ops) {
        uint64_t now = MonotonicNowNs();
        if (now >= next_slice || now >= end || i == max_ops) {
          slice.ns = now - slice_start;
          slice.end = n_samples;
          r.slices.push_back(slice);
          slice = Slice{};
          slice.begin = n_samples;
          slice_start = now;
          next_slice = now + slice_ns;
        }
        if (now >= end || i == max_ops) {
          r.seconds = static_cast<double>(now - start) * 1e-9;
          break;
        }
      }
    }
    r.ops = i;
    uint64_t f0 = MonotonicNowNs();
    audit.Flush();
    if (tracer != nullptr) {
      tracer->Record(Layer::kFlush, UINT32_MAX, i, f0, MonotonicNowNs());
    }
    r.after = Counters::Read(env_);
    return r;
  }

 private:
  Outcome Execute(const Op& op) {
    switch (op.kind) {
      case OpKind::kTick:
        return Outcome{StatusCode::kOk, static_cast<int64_t>(env_.sys->stats().Tick())};
      case OpKind::kPoll:
        return ToOutcome(
            env_.sys->stats().PollSubscription(env_.system, env_.subscription, /*deadline_ns=*/1));
      default:
        return w_.Execute(env_, op);
    }
  }

  void Trace(Tracer& tracer, const Op& op, uint64_t id, uint64_t t0, uint64_t t1) {
    uint32_t span = tracer.OpSpan(op.kind, id, t0, t1);
    switch (op.kind) {
      case OpKind::kTick:
        tracer.Record(Layer::kTick, span, id, t0, t1);
        // Compile and audit-flush costs, measured at a stats tick at most
        // every kRecompileEveryNs (a compile can take tens of milliseconds
        // once extension churn has grown the name space): by then the
        // workload's latest mutations have invalidated the tables.
        if (t1 >= next_recompile_ns_) {
          tracer.Time(Layer::kRecompile, span, id, [&] { (void)env_.monitor().RecompileNow(); });
          tracer.Time(Layer::kFlush, span, id, [&] { env_.monitor().audit().Flush(); });
          next_recompile_ns_ = MonotonicNowNs() + kRecompileEveryNs;
        }
        return;
      case OpKind::kPoll:
        tracer.Record(Layer::kPoll, span, id, t0, t1);
        return;
      case OpKind::kUnload:
        tracer.Record(Layer::kUnload, span, id, t0, t1);
        return;
      case OpKind::kAdmin:
        return;  // timed as an op span; not decomposed
      default:
        tracer.Explain(op.kind, t1 - t0, w_.Replay(env_, tracer, span, id, op));
    }
  }

  void Verify(const Op& op, const Outcome& out, WindowResult* r) {
    const Expect& e = op.expect;
    bool ok;
    if (out.code == e.code) {
      ok = out.code != StatusCode::kOk || e.value == kAnyValue || out.value == e.value ||
           (e.alt_value != kAnyValue && out.value == e.alt_value);
    } else {
      ok = e.flaky_error_ok && out.code == StatusCode::kInternal;
    }
    if (ok) {
      return;
    }
    ++r->failed;
    bool wrong_allow = out.code == StatusCode::kOk && e.code != StatusCode::kOk;
    if (wrong_allow) {
      ++r->wrong_allows;
    }
    if (reported_++ < 10) {
      std::fprintf(stderr,
                   "mismatch: op %s subject %u target %u: got code %d value %" PRId64
                   ", expected code %d value %" PRId64 "%s\n",
                   OpKindName(op.kind), op.subject, op.target, static_cast<int>(out.code),
                   out.value, static_cast<int>(e.code), e.value,
                   wrong_allow ? " (WRONG ALLOW)" : "");
    }
  }

  void SampleCompiledFreshness(WindowResult* r) {
    ReferenceMonitor& m = env_.monitor();
    auto tables = m.compiled_snapshot();
    int fresh = 0;
    for (ShardId s = 0; s < kMonitorShardCount; ++s) {
      if (tables != nullptr && tables->stamps().ForDomain(s) == m.CurrentStampsFor(s)) {
        ++fresh;
      }
    }
    r->fresh_share_sum += fresh / static_cast<double>(kMonitorShardCount);
    ++r->fresh_samples;
  }

  Workload& w_;
  Env& env_;
  const std::vector<Op>& ring_;
  static constexpr uint64_t kRecompileEveryNs = 250'000'000;

  std::vector<uint64_t> samples_;
  size_t pos_ = 0;
  uint64_t next_recompile_ns_ = 0;
  int reported_ = 0;
};

// -- Window checks ------------------------------------------------------------

// The counter identities of a window: the monitor's stats agree with
// themselves and (untraced) with the oracle, and every retained denial
// reached the sink or was counted as dropped.
uint64_t CheckIdentities(const WindowResult& r, bool oracle, std::string* report) {
  uint64_t violations = 0;
  auto check = [&](bool holds, const std::string& what) {
    if (!holds) {
      ++violations;
      *report += "identity violated: " + what + "\n";
    }
  };
  const Counters& a = r.before;
  const Counters& b = r.after;
  uint64_t checks = b.checks - a.checks;
  check((b.allowed - a.allowed) + (b.denied - a.denied) == checks,
        "allowed + denied == checks_total");
  uint64_t retained = b.audit_denials - a.audit_denials;
  uint64_t delivered = (b.sink_received - a.sink_received) + (b.sink_dropped - a.sink_dropped);
  check(delivered == retained, "sink receipts + sink_dropped == retained denials (" +
                                   std::to_string(delivered) + " vs " + std::to_string(retained) +
                                   ")");
  if (oracle) {
    uint64_t expect_checks = r.expect_allows;
    for (uint64_t n : r.expect_denied) {
      expect_checks += n;
    }
    check(checks == expect_checks, "checks_total == oracle decisions (" + std::to_string(checks) +
                                       " vs " + std::to_string(expect_checks) + ")");
    check(b.by_reason[0] - a.by_reason[0] == r.expect_allows, "allowed == oracle allows");
    for (size_t reason = 1; reason < kDenyReasonCount; ++reason) {
      uint64_t got = b.by_reason[reason] - a.by_reason[reason];
      check(got == r.expect_denied[reason],
            std::string("denials by ") + std::string(DenyReasonName(static_cast<DenyReason>(reason))) +
                " == oracle (" + std::to_string(got) + " vs " +
                std::to_string(r.expect_denied[reason]) + ")");
    }
  }
  return violations;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void Print(const Metric& m, uint64_t samples = 0) {
  if (samples > 0) {
    std::printf("metric %-30s %.6g %s (n=%" PRIu64 ")\n", m.name.c_str(), m.value, m.unit.c_str(),
                samples);
  } else {
    std::printf("metric %-30s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

std::string Json(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    out += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

// Shared hosts slow a vCPU in plateaus of a few hundred milliseconds (on a
// 4-vCPU KVM guest, one hot_invoke run's 100-ms slices ranged 0.76-1.57 M
// ops/s), so a figure is taken from its least-disturbed samples, min-of-N
// style: the mean of the best tenth of the window's 100-ms slices, or of the
// run's set-ups. A slower program slows every sample, the best ones included.
constexpr double kBestShare = 0.1;

// Mean of the best `kBestShare` of `v` (the highest when `higher_is_better`).
double BestTenth(std::vector<double> v, bool higher_is_better) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  if (higher_is_better) {
    std::reverse(v.begin(), v.end());
  }
  size_t n = std::max<size_t>(1, static_cast<size_t>(kBestShare * static_cast<double>(v.size())));
  double sum = 0;
  for (size_t i = 0; i < n; ++i) {
    sum += v[i];
  }
  return sum / static_cast<double>(n);
}

double OpsPerSecond(const WindowResult& r) {
  std::vector<double> values;
  for (const Slice& s : r.slices) {
    if (s.ns > 0) {
      values.push_back(static_cast<double>(s.ops) * 1e9 / static_cast<double>(s.ns));
    }
  }
  return BestTenth(values, true);
}

// A per-slice latency quantile over the uniformly sampled ops, taken over
// the best slices.
double SliceQuantile(const WindowResult& r, double q) {
  std::vector<double> values;
  std::vector<uint64_t> v;
  for (const Slice& s : r.slices) {
    v.clear();
    for (size_t i = s.begin; i < s.end; ++i) {
      if (SampleUniform((*r.samples)[i])) {
        v.push_back(SampleNs((*r.samples)[i]));
      }
    }
    if (!v.empty()) {
      values.push_back(SmoothQuantile(v, q));
    }
  }
  return BestTenth(values, false);
}

// The window's latency samples: the uniformly sampled ops (`uniform`), or
// every sample of one family.
std::vector<uint64_t> WindowSamples(const WindowResult& r, bool uniform,
                                    Family family = Family::kInvoke) {
  std::vector<uint64_t> v;
  if (r.slices.empty()) {
    return v;
  }
  for (size_t i = r.slices.front().begin; i < r.slices.back().end; ++i) {
    uint64_t sample = (*r.samples)[i];
    if (uniform ? SampleUniform(sample) : SampleFamily(sample) == family) {
      v.push_back(SampleNs(sample));
    }
  }
  return v;
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// Current resident memory in MB, from /proc/self/statm (0 if unreadable).
double ResidentMb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) {
    return 0;
  }
  unsigned long size = 0;
  unsigned long resident = 0;
  int n = std::fscanf(f, "%lu %lu", &size, &resident);
  std::fclose(f);
  return n == 2 ? static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
                      (1024.0 * 1024.0)
                : 0;
}

int Main(int argc, char** argv) {
  Options opts;
  if (!ParseOptions(argc, argv, &opts)) {
    std::fprintf(stderr,
                 "usage: xsec_e2e --workload <hot_invoke|policy_churn|extension_churn> "
                 "--seed <n> --seconds <s> --trace <0|1> [--spans <file>] [--selftest]\n");
    return 2;
  }
  std::unique_ptr<Workload> workload;
  if (opts.workload == "hot_invoke") {
    workload = MakeHotInvoke();
  } else if (opts.workload == "policy_churn") {
    workload = MakePolicyChurn();
  } else if (opts.workload == "extension_churn") {
    workload = MakeExtensionChurn();
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", opts.workload.c_str());
    return 2;
  }
  std::printf("workload %s seed %" PRIu64 " seconds %g trace %d%s\n", workload->name(),
              opts.seed, opts.seconds, opts.trace ? 1 : 0, opts.selftest ? " selftest" : "");
  workload->Generate(opts.seed, opts.selftest);
  const auto& ring = workload->ring();

  // A set-up builds the world, compiles the policy tables, and warms up with
  // one full pass over the ring (which leaves the policy where the ring
  // starts). Set-ups run in two rounds, before the measured window (the last
  // world is the one measured) and after it, each of at least 5 set-ups and
  // 1.5 s, so setup_s, like the window's figures, is taken from the best
  // tenth of samples spread over the whole run.
  std::vector<double> setup_s;
  Env env;
  Runner runner(workload.get(), &env);
  // The world's footprint: resident memory after the first set-up minus
  // before it. The ring and the runner's sample buffer are resident before,
  // and the heap the generator freed is returned to the system first, so
  // the set-up cannot hide in it.
  malloc_trim(0);
  const double rss_before_mb = ResidentMb();
  double world_rss_mb = 0;
  uint64_t failed = 0;
  uint64_t wrong_allows = 0;
  auto set_up_round = [&] {
    const int min_setups = opts.selftest ? 1 : 5;
    const double min_seconds = opts.selftest ? 0 : 1.5;
    double total = 0;
    for (int k = 0; k < 30 && (k < min_setups || total < min_seconds); ++k) {
      env = Env{};
      runner.Rewind();
      uint64_t t0 = MonotonicNowNs();
      workload->Build(&env);
      Status compiled = env.monitor().RecompileNow();
      if (!compiled.ok()) {
        std::fprintf(stderr, "RecompileNow: %s\n", compiled.ToString().c_str());
      }
      WindowResult warm = runner.Run(1e9, ring.size(), false, nullptr);
      setup_s.push_back(static_cast<double>(MonotonicNowNs() - t0) * 1e-9);
      total += setup_s.back();
      if (setup_s.size() == 1) {
        // Quiesce the background recompiler and drainer, and return the
        // heap the warm-up freed, so the reading is the world's live memory.
        (void)env.monitor().RecompileNow();
        env.monitor().audit().Flush();
        malloc_trim(0);
        world_rss_mb = ResidentMb() - rss_before_mb;
      }
      failed += warm.failed;
      wrong_allows += warm.wrong_allows;
    }
  };
  set_up_round();

  const InputProps& props = workload->props();
  size_t cache_slots = env.monitor().cache().slot_count();
  std::printf("input seed=%" PRIu64 " ring_ops=%zu distinct_tuples=%" PRIu64
              " cache_slots=%zu tuples_per_slot=%.2f repeat_share=%.3f denial_share=%.3f "
              "mutations_per_1k=%.2f\n",
              opts.seed, ring.size(), props.distinct_tuples, cache_slots,
              static_cast<double>(props.distinct_tuples) / static_cast<double>(cache_slots),
              props.repeat_share, props.denial_share, props.mutations_per_1k);

  std::vector<Metric> json;
  std::string report;
  uint64_t attempted = 0;
  uint64_t violations = 0;

  auto window_report = [&](const WindowResult& r, const char* label) {
    uint64_t denied = 0;
    for (uint64_t n : r.expect_denied) {
      denied += n;
    }
    std::vector<uint64_t> rates;
    for (const Slice& s : r.slices) {
      if (s.ns > 0) {
        rates.push_back(s.ops * 1'000'000'000 / s.ns);
      }
    }
    std::printf("slices %s n=%zu ops_per_s min=%" PRIu64 " p25=%" PRIu64 " p50=%" PRIu64
                " p75=%" PRIu64 " max=%" PRIu64 "\n",
                label, rates.size(), Quantile(rates, 0), Quantile(rates, 0.25),
                Quantile(rates, 0.5), Quantile(rates, 0.75), Quantile(rates, 1.0));
    std::printf("window %s ops=%" PRIu64 " seconds=%.3f failed=%" PRIu64
                " measured_denied_decisions=%" PRIu64 " compiled_fresh_share=%.3f\n",
                label, r.ops, r.seconds, r.failed, denied,
                r.fresh_samples == 0 ? 0.0 : r.fresh_share_sum / static_cast<double>(r.fresh_samples));
  };

  // Every trace-0 metric; the kind-specific latencies print where the kind ran.
  auto end_to_end = [&](WindowResult& r) {
    std::vector<Metric> out;
    out.push_back({"ops_per_s", OpsPerSecond(r), "ops/s"});
    out.push_back({"op_p50_ns", SliceQuantile(r, 0.5), "ns"});
    out.push_back({"world_rss_mb", world_rss_mb, "MB"});
    for (const Metric& m : out) {
      Print(m);
    }
    // The whole window's tail, every slice included. Unbounded: its
    // run-to-run spread exceeds 0.25 on extension_churn, whose tail is the
    // link path over a name space that grows with every load.
    std::vector<uint64_t> uniform = WindowSamples(r, true);
    Print({"op_p99_ns", SmoothQuantile(uniform, 0.99), "ns"}, uniform.size());
    // Delivery lag of the window's registered denials. It rides on the
    // drainer thread's wake-up, which the host's noise moves by tens of
    // percent between runs: reported, not bounded.
    std::vector<uint64_t> lags = env.audit->lags();
    if (!lags.empty()) {
      Print({"audit_lag_p50_us", SmoothQuantile(lags, 0.5) / 1e3, "us"}, lags.size());
      Print({"audit_lag_p99_us", SmoothQuantile(lags, 0.99) / 1e3, "us"}, lags.size());
    }
    // The per-kind latencies, where the kind ran.
    struct Kind {
      Family family;
      const char* name;
      double scale;
      const char* unit;
      bool p50;
    };
    const Kind kinds[] = {
        {Family::kInvoke, "invoke", 1, "ns", true}, {Family::kFs, "fs", 1, "ns", true},
        {Family::kEvent, "event", 1, "ns", true},   {Family::kLink, "link", 1e3, "us", true},
        {Family::kUnlink, "unload", 1e3, "us", true}, {Family::kAdmin, "admin", 1e3, "us", false},
        {Family::kStats, "stats", 1e3, "us", true},
    };
    for (const Kind& k : kinds) {
      std::vector<uint64_t> v = WindowSamples(r, false, k.family);
      if (v.empty()) {
        continue;
      }
      if (k.p50) {
        Print({std::string(k.name) + "_p50_" + k.unit, SmoothQuantile(v, 0.5) / k.scale, k.unit},
              v.size());
      }
      Print({std::string(k.name) + "_p99_" + k.unit, SmoothQuantile(v, 0.99) / k.scale, k.unit},
            v.size());
    }
    Print({"peak_rss_mb", PeakRssMb(), "MB"});
    std::printf("metric %-30s %.6g - (%" PRIu64 "/%" PRIu64 ")\n", "failed_ratio",
                Ratio(r.failed, r.ops), r.failed, r.ops);
    return out;
  };

  // One measured window and every check made at its end. `oracle` compares
  // the decision totals with the oracle's (untraced windows only).
  auto measure = [&](double seconds, bool counted, Tracer* tracer, bool oracle) {
    workload->BeginWindow(env);
    WindowResult r = runner.Run(seconds, UINT64_MAX, counted, tracer);
    window_report(r, tracer == nullptr ? "untraced" : "traced");
    violations += CheckIdentities(r, oracle, &report) + workload->EndWindow(env, &report);
    failed += r.failed;
    wrong_allows += r.wrong_allows;
    attempted += r.ops;
    return r;
  };

  if (!opts.trace && !opts.selftest) {
    WindowResult r = measure(opts.seconds, false, nullptr, true);
    json = end_to_end(r);
  } else {
    double half = opts.selftest ? 1.0 : opts.seconds / 2;
    WindowResult plain = measure(half, true, nullptr, true);
    std::vector<Metric> e2e = end_to_end(plain);

    // Replays add decisions the oracle did not predict; only the stats'
    // and the audit pipeline's own identities must hold.
    Tracer tracer(250'000);
    WindowResult traced = measure(opts.selftest ? 0.5 : half, false, &tracer, false);

    // A workload without unloads gets extsys.unload timed on a scratch
    // extension after the window (load untimed, unload timed).
    if (tracer.durations(Layer::kUnload).empty()) {
      Subject dev = env.sys->Login(env.principals[PolicyModel::kDev], env.Class(MClass{}));
      ExtensionManifest scratch{"probe-scratch"};
      scratch.imports.push_back("/svc/probe/noop");
      for (int k = 0; k < 32; ++k) {
        auto id = env.sys->LoadExtension(scratch, dev);
        if (!id.ok()) {
          break;
        }
        uint64_t u0 = MonotonicNowNs();
        Status s = env.sys->UnloadExtension(dev, *id);
        tracer.Record(Layer::kUnload, UINT32_MAX, k, u0, MonotonicNowNs());
        (void)s;
      }
    }

    double plain_ops = e2e[0].value;
    double traced_ops = OpsPerSecond(traced);
    auto layer_ns = [&](Layer layer) { return InterquartileMean(tracer.durations(layer)); };
    auto layer_us = [&](Layer layer) { return layer_ns(layer) / 1e3; };
    const Counters& a = plain.before;
    const Counters& b = plain.after;
    uint64_t compiled_probes = (b.compiled.hits - a.compiled.hits) +
                               (b.compiled.fallbacks - a.compiled.fallbacks) +
                               (b.compiled.stale - a.compiled.stale);
    json = {
        {"naming.parse_ns", layer_ns(Layer::kParse), "ns"},
        {"naming.lookup_ns", layer_ns(Layer::kLookup), "ns"},
        {"monitor.check_path_ns", layer_ns(Layer::kCheckPath), "ns"},
        {"monitor.check_ns", layer_ns(Layer::kCheck), "ns"},
        {"monitor.checks_per_op", Ratio(b.checks - a.checks, plain.ops), "checks/op"},
        {"monitor.cache_hit_ratio",
         Ratio(b.cache_hits - a.cache_hits,
               (b.cache_hits - a.cache_hits) + (b.cache_misses - a.cache_misses)),
         "ratio"},
        {"monitor.compiled_probe_ns", layer_ns(Layer::kCompiledProbe), "ns"},
        {"monitor.compiled_hit_ratio", Ratio(b.compiled.hits - a.compiled.hits, compiled_probes),
         "ratio"},
        {"monitor.interpreted_ns", layer_ns(Layer::kInterpreted), "ns"},
        {"monitor.recompile_us", layer_us(Layer::kRecompile), "us"},
        {"monitor.stale_per_mutation",
         Ratio((b.cache_stale - a.cache_stale) + (b.compiled.stale - a.compiled.stale),
               plain.mutations),
         "count"},
        {"principal.closure_ns", layer_ns(Layer::kClosure), "ns"},
        {"dac.evaluate_ns", layer_ns(Layer::kDacEvaluate), "ns"},
        {"audit.denied_check_ns", layer_ns(Layer::kDeniedCheck), "ns"},
        {"audit.sink_dropped", static_cast<double>(b.sink_dropped - a.sink_dropped), "count"},
        {"audit.flush_us", layer_us(Layer::kFlush), "us"},
        {"extsys.call_capability_ns", layer_ns(Layer::kCallCapability), "ns"},
        {"extsys.handler_ns", layer_ns(Layer::kHandler), "ns"},
        {"extsys.select_ns", layer_ns(Layer::kSelect), "ns"},
        {"extsys.admit_ns", layer_ns(Layer::kAdmit), "ns"},
        {"extsys.unload_us", layer_us(Layer::kUnload), "us"},
        {"extsys.link_checks_per_load", Ratio(plain.link_checks, plain.loads), "checks/op"},
        {"extsys.trips", static_cast<double>(b.trips - a.trips), "count"},
        {"stats.tick_us", layer_us(Layer::kTick), "us"},
        {"stats.poll_us", layer_us(Layer::kPoll), "us"},
        {"trace.explained_share", tracer.ExplainedShareAll(), "ratio"},
        {"trace.overhead_pct", plain_ops > 0 ? 100.0 * (1.0 - traced_ops / plain_ops) : 0.0, "%"},
    };
    for (const Metric& m : json) {
      Print(m);
    }
    for (size_t k = 0; k < kOpKindCount; ++k) {
      OpKind kind = static_cast<OpKind>(k);
      if (!tracer.op_durations(kind).empty() && tracer.ExplainedShare(kind) > 0) {
        std::printf("explained %-16s %.3f of op time (n=%zu)\n", OpKindName(kind),
                    tracer.ExplainedShare(kind), tracer.op_durations(kind).size());
      }
    }
    std::printf("trace spans=%zu traced_ops_per_s=%.6g untraced_ops_per_s=%.6g\n",
                tracer.span_count(), traced_ops, plain_ops);
    if (!opts.spans.empty() && !tracer.Write(opts.spans)) {
      std::fprintf(stderr, "could not write spans to %s\n", opts.spans.c_str());
      return 1;
    }
  }

  set_up_round();
  std::printf("setup n=%zu min=%.4f median=%.4f max=%.4f s\n", setup_s.size(),
              *std::min_element(setup_s.begin(), setup_s.end()), Median(setup_s),
              *std::max_element(setup_s.begin(), setup_s.end()));
  Metric setup{"setup_s", BestTenth(setup_s, false), "s"};
  Print(setup, setup_s.size());
  if (!opts.trace) {
    json.push_back(setup);
  }

  if (!report.empty()) {
    std::fputs(report.c_str(), stderr);
  }
  failed += violations;
  bool correct = failed == 0;
  std::printf("result correct=%d failed=%" PRIu64 " wrong_allows=%" PRIu64 " attempted=%" PRIu64
              "\n",
              correct ? 1 : 0, failed, wrong_allows, attempted);
  if (opts.selftest) {
    std::printf("selftest %s %s\n", workload->name(), correct ? "ok" : "FAILED");
    return correct ? 0 : 1;
  }
  std::printf("%s\n", Json(correct, attempted, failed, json).c_str());
  std::fflush(stdout);
  return wrong_allows > 0 ? 3 : 0;
}

}  // namespace
}  // namespace xsec::e2e

int main(int argc, char** argv) { return xsec::e2e::Main(argc, argv); }
