// xsec_stats — exercise the mediation path and dump the monitor's stats tree.
//
// Usage:
//   xsec_stats [--policy <file>] [--checks N] [--seed S] [--ndjson <file|->]
//              [--ndjson-max-bytes B] [--ndjson-max-age-ms M] [--ndjson-keep K]
//              [--audit-drain] [--resilient] [--audit-required] [--snapshot]
//              [--fanout <sinks>] [--health] [--fail <name>=<spec>]...
//
// Boots a SecureSystem, optionally applies a policy file, runs a
// deterministic randomized workload of N access checks (a mix of allowed and
// denied), and prints every /sys/monitor/... stats leaf (or, with
// --snapshot, the consistent versioned snapshot rendering). With --ndjson,
// each audited decision is also streamed as one JSON object per line — '-'
// for stdout. When the target is a real file, --ndjson-max-bytes /
// --ndjson-max-age-ms / --ndjson-keep enable size/age rotation
// (file -> file.1 -> ... -> file.K). --audit-drain moves the sink I/O (and
// any rotation renames) onto the AuditLog's background drainer so the
// checking loop never writes the file itself; the drain is flushed before
// the stats print, so the output is identical either way. The workload is
// seeded, so two runs with the same arguments produce the same counters
// (latency quantiles and rates aside).
//
// --resilient wraps the NDJSON sink in a ResilientSink (retry + circuit
// breaker; health in the audit/* leaves of the printed tree), and
// --audit-required turns on fail-closed mode — together with
// --fail audit.sink.write=error they drive the whole self-healing pipeline
// from the command line.
//
// --fanout <sinks> registers that many more in-memory ring sinks beside the
// NDJSON one (AuditLog::AddSink). After the run the tool prints one
// `sink <name> delivered=D dropped=R` line per registered sink; every sink
// is a cursor over the same sequence-ordered log, so with no drops all of
// them agree on `delivered`. Combine with
// --fail audit.sink.deliver=error,nth=... to watch per-sink drops.
//
// --health enables the extension supervisor (MODEL.md §16) and loads a tiny
// demo world on it: a healthy extension plus one that fails until its
// circuit breaker trips and quarantines it. The printed tree then carries
// the /sys/monitor/health/... leaves, and the tool appends one
// `health ext <name> <state> ...` summary line per supervised extension plus
// the system health verdict — a command-line window onto the supervision
// plane's live state.
//
// --fail arms a failpoint before the workload (repeatable; spec grammar is
// src/base/failpoint.h, e.g. --fail audit.sink.write=error,nth=100). Arming
// goes through the mediated FaultService as the system subject — an audited
// administrate check on /sys/faults/<name>, not a registry backdoor — and
// the tool prints each failpoint's final state after the workload, so a
// fault sweep can see how many times each site actually fired.
//
// Exit status: 0 on success, 1 on bad arguments or an unloadable policy.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/base/rng.h"
#include "src/core/secure_system.h"
#include "src/policy/policy_io.h"

namespace {

int Fail(const char* message) {
  std::fprintf(stderr, "xsec_stats: %s\n", message);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string policy_file;
  std::string ndjson_file;
  uint64_t checks = 10000;
  uint64_t seed = 1;
  std::vector<std::string> fail_specs;
  xsec::NdjsonRotationPolicy rotation;
  bool snapshot = false;
  uint64_t fanout_sinks = 0;  // extra in-memory ring sinks
  bool audit_drain = false;
  bool resilient = false;
  bool audit_required = false;
  bool health = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (arg == "--policy") {
      const char* v = next();
      if (v == nullptr) return Fail("--policy needs a file");
      policy_file = v;
    } else if (arg == "--ndjson") {
      const char* v = next();
      if (v == nullptr) return Fail("--ndjson needs a file (or '-')");
      ndjson_file = v;
    } else if (arg == "--ndjson-max-bytes") {
      const char* v = next();
      if (v == nullptr) return Fail("--ndjson-max-bytes needs a byte count");
      rotation.max_bytes = std::strtoull(v, nullptr, 10);
    } else if (arg == "--ndjson-max-age-ms") {
      const char* v = next();
      if (v == nullptr) return Fail("--ndjson-max-age-ms needs a duration");
      rotation.max_age_ns = std::strtoull(v, nullptr, 10) * 1'000'000ull;
    } else if (arg == "--ndjson-keep") {
      const char* v = next();
      if (v == nullptr) return Fail("--ndjson-keep needs a count");
      rotation.max_keep = std::strtoull(v, nullptr, 10);
    } else if (arg == "--fail") {
      const char* v = next();
      if (v == nullptr) return Fail("--fail needs <name>=<spec>");
      fail_specs.emplace_back(v);
    } else if (arg == "--audit-drain") {
      audit_drain = true;
    } else if (arg == "--resilient") {
      resilient = true;
    } else if (arg == "--audit-required") {
      audit_required = true;
    } else if (arg == "--snapshot") {
      snapshot = true;
    } else if (arg == "--health") {
      health = true;
    } else if (arg == "--fanout") {
      const char* v = next();
      if (v == nullptr) return Fail("--fanout needs a sink count");
      fanout_sinks = std::strtoull(v, nullptr, 10);
      if (fanout_sinks == 0) return Fail("--fanout needs at least one sink");
    } else if (arg == "--checks") {
      const char* v = next();
      if (v == nullptr) return Fail("--checks needs a count");
      checks = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seed") {
      const char* v = next();
      if (v == nullptr) return Fail("--seed needs a number");
      seed = std::strtoull(v, nullptr, 10);
    } else {
      std::fprintf(stderr,
                   "usage: xsec_stats [--policy <file>] [--checks N] [--seed S] "
                   "[--ndjson <file|->] [--ndjson-max-bytes B] "
                   "[--ndjson-max-age-ms M] [--ndjson-keep K] [--audit-drain] "
                   "[--resilient] [--audit-required] [--snapshot] "
                   "[--fanout <sinks>] [--health] [--fail <name>=<spec>]...\n");
      return arg == "--help" ? 0 : 1;
    }
  }

  xsec::SecureSystem sys;

  xsec::ExtensionSupervisor* supervisor = nullptr;
  if (health) {
    auto enabled = sys.EnableSupervision();
    if (!enabled.ok()) {
      std::fprintf(stderr, "xsec_stats: %s\n", enabled.status().ToString().c_str());
      return 1;
    }
    supervisor = *enabled;
  }

  if (!policy_file.empty()) {
    std::ifstream in(policy_file);
    if (!in) return Fail("cannot open the policy file");
    std::ostringstream buffer;
    buffer << in.rdbuf();
    xsec::Status status = xsec::LoadPolicy(buffer.str(), &sys.kernel());
    if (!status.ok()) {
      std::fprintf(stderr, "xsec_stats: %s\n", status.ToString().c_str());
      return 1;
    }
  }

  std::ofstream ndjson_out;
  std::shared_ptr<xsec::NdjsonFileRotator> rotator;
  bool rotation_requested = rotation.max_bytes != 0 || rotation.max_age_ns != 0;
  std::function<void(const xsec::AuditRecord&)> sink;
  if (!ndjson_file.empty()) {
    if (ndjson_file != "-" && rotation_requested) {
      rotator = std::make_shared<xsec::NdjsonFileRotator>(ndjson_file, rotation);
      xsec::Status status = rotator->Open();
      if (!status.ok()) {
        std::fprintf(stderr, "xsec_stats: %s\n", status.ToString().c_str());
        return 1;
      }
      sink = xsec::MakeRotatingNdjsonSink(rotator);
    } else {
      if (rotation_requested) return Fail("rotation needs a real --ndjson file, not '-'");
      std::ostream* out = &std::cout;
      if (ndjson_file != "-") {
        ndjson_out.open(ndjson_file);
        if (!ndjson_out) return Fail("cannot open the ndjson file");
        out = &ndjson_out;
      }
      sink = xsec::MakeNdjsonSink(out);
    }
  }
  if (sink) {
    if (resilient) {
      // The stream sink itself does not fail; failures come from the
      // audit.sink.write failpoint inside ResilientSink::TryOnce, which is
      // the point of the flag: drive retry/circuit behavior from the CLI.
      auto wrapped = std::make_shared<xsec::ResilientSink>(
          [sink](const xsec::AuditRecord& record) -> xsec::Status {
            sink(record);
            return xsec::OkStatus();
          });
      sys.monitor().audit().InstallResilientSink(std::move(wrapped));
    } else {
      sys.monitor().audit().set_sink(std::move(sink));
    }
  } else if (resilient) {
    return Fail("--resilient needs --ndjson");
  }
  if (audit_required) {
    sys.monitor().audit().set_required(true);
  }
  if (audit_drain) {
    sys.monitor().audit().StartDrain();
  }
  for (uint64_t i = 0; i < fanout_sinks; ++i) {
    sys.monitor().audit().AddSink(
        "ring" + std::to_string(i),
        xsec::MakeMemoryRingSink(std::make_shared<xsec::AuditMemoryRing>()));
  }

  // A small world with deliberately mixed permissions: "reader" may read the
  // workload files, "outsider" may not, and nobody may touch /fs/secret.
  auto reader = sys.CreateUser("reader");
  auto outsider = sys.CreateUser("outsider");
  if (!reader.ok() || !outsider.ok()) return Fail("boot world setup failed");
  std::vector<std::string> paths;
  for (int i = 0; i < 8; ++i) {
    std::string path = "/fs/w" + std::to_string(i);
    auto node = sys.name_space().BindPath(path, xsec::NodeKind::kFile,
                                          sys.system_principal());
    if (!node.ok()) return Fail("boot world setup failed");
    xsec::Acl acl;
    acl.AddEntry({xsec::AclEntryType::kAllow, *reader,
                  xsec::AccessMode::kRead | xsec::AccessMode::kWrite});
    (void)sys.name_space().SetAclRef(*node, sys.kernel().acls().Create(std::move(acl)));
    paths.push_back(std::move(path));
  }
  auto secret = sys.name_space().BindPath("/fs/secret", xsec::NodeKind::kFile,
                                          sys.system_principal());
  if (!secret.ok()) return Fail("boot world setup failed");
  (void)sys.name_space().SetAclRef(*secret, sys.kernel().acls().Create(xsec::Acl()));
  paths.push_back("/fs/secret");

  xsec::Subject reader_s = sys.Login(*reader, sys.labels().Bottom());
  xsec::Subject outsider_s = sys.Login(*outsider, sys.labels().Bottom());

  // The --health demo world: two supervised extensions, one of which fails
  // until its breaker trips, so the printed health leaves show a live
  // quarantine rather than an all-healthy nothing.
  if (supervisor != nullptr) {
    auto hook = [&](const char* path) -> xsec::StatusOr<xsec::NodeId> {
      auto node = sys.kernel().RegisterInterface(path, sys.system_principal());
      if (!node.ok()) {
        return node;
      }
      xsec::Acl acl;
      acl.AddEntry({xsec::AclEntryType::kAllow, *reader,
                    xsec::AccessMode::kExtend | xsec::AccessMode::kExecute |
                        xsec::AccessMode::kList});
      (void)sys.name_space().SetAclRef(*node, sys.kernel().acls().Create(std::move(acl)));
      return node;
    };
    if (!hook("/svc/demo/steady").ok() || !hook("/svc/demo/flaky").ok()) {
      return Fail("--health demo setup failed");
    }
    xsec::ExtensionManifest steady;
    steady.name = "demo-steady";
    steady.exports.push_back({"/svc/demo/steady",
                              [](xsec::CallContext&) -> xsec::StatusOr<xsec::Value> {
                                return xsec::Value{true};
                              }});
    xsec::ExtensionManifest flaky;
    flaky.name = "demo-flaky";
    flaky.exports.push_back({"/svc/demo/flaky",
                             [](xsec::CallContext&) -> xsec::StatusOr<xsec::Value> {
                               return xsec::InternalError("demo extension fault");
                             }});
    if (!sys.LoadExtension(steady, reader_s).ok() ||
        !sys.LoadExtension(flaky, reader_s).ok()) {
      return Fail("--health demo setup failed");
    }
    (void)sys.Invoke(reader_s, "/svc/demo/steady", {});
    // Default trip_after consecutive failures quarantine the flaky one; the
    // extra attempt then fails fast as kUnavailable without running it.
    for (uint32_t i = 0; i <= supervisor->options().default_budget.trip_after; ++i) {
      (void)sys.Invoke(reader_s, "/svc/demo/flaky", {});
    }
  }

  // Arm requested failpoints through the mediated control plane (an audited
  // administrate check on /sys/faults/<name>), not by poking the registry.
  xsec::Subject system_s = sys.SystemSubject();
  std::vector<std::string> fail_names;
  for (const std::string& pair : fail_specs) {
    size_t eq = pair.find('=');
    if (eq == std::string::npos || eq == 0) return Fail("--fail needs <name>=<spec>");
    std::string name = pair.substr(0, eq);
    std::string spec = pair.substr(eq + 1);
    auto armed = sys.faults().Arm(system_s, name, spec);
    if (!armed.ok()) {
      std::fprintf(stderr, "xsec_stats: --fail %s: %s\n", pair.c_str(),
                   armed.status().ToString().c_str());
      return 1;
    }
    fail_names.push_back(std::move(name));
  }

  // Per-shard stamp-domain telemetry (/sys/monitor/shard/<i>/*) is always
  // live.
  xsec::Status shards_mounted = sys.stats().MountShards(&sys.monitor());
  if (!shards_mounted.ok()) {
    std::fprintf(stderr, "xsec_stats: %s\n", shards_mounted.ToString().c_str());
    return 1;
  }

  sys.stats().Tick();  // publish the boot-time baseline before the workload

  xsec::Rng rng(seed);
  for (uint64_t i = 0; i < checks; ++i) {
    xsec::Subject& subject = rng.NextBool(1, 2) ? reader_s : outsider_s;
    size_t target = rng.NextBelow(paths.size());
    xsec::AccessMode mode = rng.NextBool(1, 4) ? xsec::AccessMode::kWrite
                                               : xsec::AccessMode::kRead;
    (void)sys.monitor().CheckPath(subject, paths[target], mode);
  }

  if (audit_drain) {
    // Land every appended record (and any rotation it triggers) before the
    // gauges below are read, so drained and undrained runs print the same.
    sys.monitor().audit().StopDrain();
  }

  sys.stats().Tick();  // fold the workload into the published snapshot

  if (snapshot) {
    std::fputs(sys.stats().RenderSnapshot().c_str(), stdout);
  } else {
    std::fputs(sys.stats().RenderAll().c_str(), stdout);
  }
  if (rotator != nullptr) {
    std::fprintf(stdout, "ndjson_rotations %llu\n",
                 static_cast<unsigned long long>(rotator->rotations()));
  }
  if (fanout_sinks > 0) {
    for (const xsec::AuditSinkStats& sink : sys.monitor().audit().SinkStats()) {
      std::fprintf(stdout, "sink %s delivered=%llu dropped=%llu\n", sink.name.c_str(),
                   static_cast<unsigned long long>(sink.delivered),
                   static_cast<unsigned long long>(sink.dropped));
    }
  }
  for (const std::string& name : fail_names) {
    auto state = sys.faults().ReadFault(system_s, name);
    if (state.ok()) {
      std::fprintf(stdout, "fault %s %s\n", name.c_str(), state->c_str());
    }
  }
  if (supervisor != nullptr) {
    std::fprintf(stdout, "health system %s quarantined=%llu\n",
                 std::string(xsec::SystemHealthName(supervisor->system_health())).c_str(),
                 static_cast<unsigned long long>(supervisor->quarantined_count()));
    for (const xsec::ExtensionSupervisor::ExtSnapshot& snap : supervisor->SnapshotAll()) {
      std::fprintf(stdout,
                   "health ext %s %s invokes=%llu failures=%llu timeouts=%llu "
                   "trips=%llu releases=%llu rejected=%llu\n",
                   snap.name.c_str(),
                   std::string(xsec::ExtHealthName(snap.state)).c_str(),
                   static_cast<unsigned long long>(snap.invokes),
                   static_cast<unsigned long long>(snap.failures),
                   static_cast<unsigned long long>(snap.timeouts),
                   static_cast<unsigned long long>(snap.trips),
                   static_cast<unsigned long long>(snap.releases),
                   static_cast<unsigned long long>(snap.rejected));
    }
  }
  return 0;
}
