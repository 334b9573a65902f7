// Fault sweeps for the I/O data paths behind the mediated checks
// (MODEL.md §12): the memfs/netstack/vfs failure sites, which must fire
// after mediation and leave state intact, and the NDJSON export's simulated
// full disk, which must keep the file whole and trip the resilient sink.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "src/base/failpoint.h"
#include "src/core/secure_system.h"

namespace xsec {
namespace {

std::vector<uint8_t> Bytes(std::string_view text) {
  return std::vector<uint8_t>(text.begin(), text.end());
}

AuditRecord DenialRecord() {
  AuditRecord r;
  r.principal = PrincipalId{1};
  r.node = NodeId{3};
  r.path = "/fs/secret";
  r.modes = AccessMode::kRead;
  r.allowed = false;
  r.reason = DenyReason::kDacNoGrant;
  return r;
}

// -- Failpoints in the I/O data paths (memfs, vfs, NDJSON export) -------------

class FailpointDataPathTest : public ::testing::Test {
 protected:
  FailpointDataPathTest() {
    alice_ = *sys_.CreateUser("alice");
    NodeId home = *sys_.name_space().BindPath("/fs/home", NodeKind::kDirectory, alice_);
    Acl acl;
    acl.AddEntry({AclEntryType::kAllow, alice_, AccessModeSet::All()});
    (void)sys_.name_space().SetAclRef(home, sys_.kernel().acls().Create(std::move(acl)));
    alice_s_ = sys_.Login(alice_, sys_.labels().Bottom());
  }

  void TearDown() override { FailpointRegistry::Instance().DisarmAll(); }

  SecureSystem sys_;
  PrincipalId alice_;
  Subject alice_s_;
};

TEST_F(FailpointDataPathTest, MemfsInjectionsFailAfterMediationAndLeaveContentsIntact) {
  ASSERT_TRUE(sys_.fs().Create(alice_s_, "/fs/home/notes").ok());
  ASSERT_TRUE(sys_.fs().Write(alice_s_, "/fs/home/notes", Bytes("stable")).ok());

  auto& registry = FailpointRegistry::Instance();
  ASSERT_TRUE(registry.Arm("memfs.read", "error").ok());
  EXPECT_EQ(sys_.fs().Read(alice_s_, "/fs/home/notes").status().code(),
            StatusCode::kInternal);
  ASSERT_TRUE(registry.Arm("memfs.write", "error=resource-exhausted").ok());
  EXPECT_EQ(sys_.fs().Write(alice_s_, "/fs/home/notes", Bytes("clobber")).code(),
            StatusCode::kResourceExhausted);
  ASSERT_TRUE(registry.Arm("memfs.append", "error=resource-exhausted").ok());
  EXPECT_EQ(sys_.fs().Append(alice_s_, "/fs/home/notes", Bytes("tail")).code(),
            StatusCode::kResourceExhausted);
  ASSERT_TRUE(registry.Arm("memfs.list", "error").ok());
  EXPECT_EQ(sys_.fs().ListDir(alice_s_, "/fs/home").status().code(),
            StatusCode::kInternal);

  // Every injected failure fired after the mediated check and before any
  // mutation: the original contents are untouched.
  registry.DisarmAll();
  auto data = sys_.fs().Read(alice_s_, "/fs/home/notes");
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(*data, Bytes("stable"));
}

TEST_F(FailpointDataPathTest, MemfsNthGatingSkipsLeadingHits) {
  ASSERT_TRUE(sys_.fs().Create(alice_s_, "/fs/home/log").ok());
  ASSERT_TRUE(FailpointRegistry::Instance().Arm("memfs.append", "error,nth=2").ok());
  EXPECT_TRUE(sys_.fs().Append(alice_s_, "/fs/home/log", Bytes("a")).ok());
  EXPECT_EQ(sys_.fs().Append(alice_s_, "/fs/home/log", Bytes("b")).code(),
            StatusCode::kInternal);
  auto data = sys_.fs().Read(alice_s_, "/fs/home/log");
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(*data, Bytes("a")) << "the failed append must not leave a torn suffix";
}

TEST_F(FailpointDataPathTest, NetstackSendInjectionFailsAfterMediationAndQueuesNothing) {
  ASSERT_TRUE(sys_.net().CreateDevice(alice_s_, "eth0").ok());
  ASSERT_TRUE(sys_.net().Send(alice_s_, "eth0", Bytes("out")).ok());
  ASSERT_TRUE(FailpointRegistry::Instance()
                  .Arm("netstack.send", "error=resource-exhausted")
                  .ok());
  // A full tx ring: mediation allowed the send, the device I/O failed.
  EXPECT_EQ(sys_.net().Send(alice_s_, "eth0", Bytes("lost")).code(),
            StatusCode::kResourceExhausted);
  FailpointRegistry::Instance().DisarmAll();
  auto queued = sys_.net().TxQueued(alice_s_, "eth0");
  ASSERT_TRUE(queued.ok());
  EXPECT_EQ(*queued, 1) << "the failed send must queue nothing";
}

TEST_F(FailpointDataPathTest, NetstackRecvInjectionPreemptsFiltersAndProtocols) {
  ASSERT_TRUE(sys_.net().CreateDevice(alice_s_, "eth0").ok());
  ASSERT_TRUE(FailpointRegistry::Instance().Arm("netstack.recv", "error").ok());
  EXPECT_EQ(sys_.net().Inject(alice_s_, "eth0", "upper", Bytes("pkt")).status().code(),
            StatusCode::kInternal);
  FailpointRegistry::Instance().DisarmAll();
  // Without the injection the same call fails later and differently (no such
  // protocol is registered): the failpoint fired after mediation but before
  // any filter or protocol dispatch, and nothing was delivered.
  EXPECT_EQ(sys_.net().Inject(alice_s_, "eth0", "upper", Bytes("pkt")).status().code(),
            StatusCode::kNotFound);
  auto delivered = sys_.net().Delivered(alice_s_, "eth0");
  ASSERT_TRUE(delivered.ok());
  EXPECT_EQ(*delivered, 0);
}

TEST_F(FailpointDataPathTest, VfsForwardInjectionPreemptsDispatch) {
  ASSERT_TRUE(
      FailpointRegistry::Instance().Arm("vfs.forward", "error=deadline-exceeded").ok());
  // Without the failpoint this is kNotFound (no such type registered); the
  // injection fires before dispatch ever looks the type up.
  EXPECT_EQ(sys_.vfs().Read(alice_s_, "toyfs", "/a").status().code(),
            StatusCode::kDeadlineExceeded);
  FailpointRegistry::Instance().DisarmAll();
  EXPECT_EQ(sys_.vfs().Read(alice_s_, "toyfs", "/a").status().code(),
            StatusCode::kNotFound);
}

class NdjsonDiskFullTest : public ::testing::Test {
 protected:
  NdjsonDiskFullTest() {
    path_ = ::testing::TempDir() + "/xsec_diskfull_" +
            std::to_string(reinterpret_cast<uintptr_t>(this)) + ".ndjson";
    std::remove(path_.c_str());
  }
  ~NdjsonDiskFullTest() override {
    std::remove(path_.c_str());
    std::remove((path_ + ".1").c_str());
  }

  void TearDown() override { FailpointRegistry::Instance().DisarmAll(); }

  // All lines in the file, requiring each to be newline-terminated (the
  // NDJSON whole-line invariant).
  std::vector<std::string> WholeLines() {
    std::ifstream in(path_, std::ios::binary);
    std::string all((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
    std::vector<std::string> lines;
    size_t start = 0;
    while (start < all.size()) {
      size_t end = all.find('\n', start);
      EXPECT_NE(end, std::string::npos) << "file ends in a partial line";
      if (end == std::string::npos) {
        break;
      }
      lines.push_back(all.substr(start, end - start));
      start = end + 1;
    }
    return lines;
  }

  std::string path_;
};

TEST_F(NdjsonDiskFullTest, FullDiskDropsTheLineAndKeepsTheFileWhole) {
  NdjsonFileRotator rotator(path_, NdjsonRotationPolicy{});
  ASSERT_TRUE(rotator.Open().ok());
  rotator.Write(DenialRecord());
  rotator.Write(DenialRecord());

  // One simulated ENOSPC: the record is dropped, the partial line is
  // truncated back off, and the writer keeps going.
  ASSERT_TRUE(
      FailpointRegistry::Instance().Arm("audit.ndjson.write", "error,times=1").ok());
  rotator.Write(DenialRecord());
  EXPECT_EQ(rotator.write_failures(), 1u);
  rotator.Write(DenialRecord());
  EXPECT_EQ(rotator.write_failures(), 1u);

  std::vector<std::string> lines = WholeLines();
  ASSERT_EQ(lines.size(), 3u);  // 4 writes, 1 dropped
  for (const std::string& line : lines) {
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
  }
}

TEST_F(NdjsonDiskFullTest, FullDiskTripsTheResilientSinkFailClosed) {
  auto rotator = std::make_shared<NdjsonFileRotator>(path_, NdjsonRotationPolicy{});
  ASSERT_TRUE(rotator->Open().ok());

  AuditLog log;
  log.set_required(true);
  ResilientSinkOptions options;
  options.max_attempts = 1;
  options.backoff_initial_ns = 1'000;
  options.trip_after = 2;
  options.reopen_after_ns = 60'000'000'000;  // stays open for this test
  auto sink = std::make_shared<ResilientSink>(MakeRotatingNdjsonFallibleSink(rotator),
                                              options);
  log.InstallResilientSink(sink);

  log.Record(DenialRecord());
  EXPECT_EQ(sink->written(), 1u);
  ASSERT_FALSE(log.SinkTripped());

  // A persistently full disk: each dropped line is a failed attempt, and
  // the second one opens the circuit — the condition `audit_required`
  // monitors to start failing closed.
  ASSERT_TRUE(FailpointRegistry::Instance().Arm("audit.ndjson.write", "error").ok());
  log.Record(DenialRecord());
  log.Record(DenialRecord());
  EXPECT_TRUE(log.SinkTripped());
  EXPECT_EQ(log.sink_state(), "open");
  EXPECT_GE(rotator->write_failures(), 2u);
  // The ring still retains what the disk lost.
  EXPECT_EQ(log.retained(), 3u);
}

TEST_F(NdjsonDiskFullTest, FailedReopenAfterRotationTripsTheResilientSinkFailClosed) {
  NdjsonRotationPolicy policy;
  policy.max_bytes = 1;  // every write after the first rotates
  policy.max_keep = 1;
  auto rotator = std::make_shared<NdjsonFileRotator>(path_, policy);
  ASSERT_TRUE(rotator->Open().ok());

  MonitorOptions monitor_options;
  monitor_options.audit_policy = AuditPolicy::kAll;
  monitor_options.audit_required = true;
  SecureSystem sys(monitor_options);
  AuditLog& audit = sys.monitor().audit();
  ResilientSinkOptions options;
  options.max_attempts = 1;
  options.backoff_initial_ns = 1'000;
  options.trip_after = 2;
  options.reopen_after_ns = 60'000'000'000;  // stays open for this test
  auto sink = std::make_shared<ResilientSink>(MakeRotatingNdjsonFallibleSink(rotator),
                                              options);
  audit.InstallResilientSink(sink);

  PrincipalId alice = *sys.CreateUser("alice");
  NodeId file = *sys.name_space().BindPath("/fs/reopen", NodeKind::kFile,
                                           sys.system_principal());
  Acl acl;
  acl.AddEntry({AclEntryType::kAllow, alice, AccessMode::kRead});
  (void)sys.name_space().SetAclRef(file, sys.kernel().acls().Create(std::move(acl)));
  Subject alice_s = sys.Login(alice, sys.labels().Bottom());
  EXPECT_TRUE(sys.monitor().Check(alice_s, file, AccessMode::kRead).allowed);
  uint64_t written = sink->written();
  ASSERT_GE(written, 1u);

  // The rotation closes the file and its reopen fails, on every write from
  // here on: each record is a failed write, not a silent success.
  ASSERT_TRUE(FailpointRegistry::Instance().Arm("audit.rotate.open", "error").ok());
  (void)sys.monitor().Check(alice_s, file, AccessMode::kRead);
  (void)sys.monitor().Check(alice_s, file, AccessMode::kRead);
  EXPECT_EQ(sink->written(), written);
  EXPECT_GE(rotator->write_failures(), 2u);
  ASSERT_TRUE(audit.SinkTripped());
  EXPECT_EQ(audit.sink_state(), "open");
  Decision denied = sys.monitor().Check(alice_s, file, AccessMode::kRead);
  EXPECT_FALSE(denied.allowed);
  EXPECT_EQ(denied.reason, DenyReason::kAuditUnavailable);

  // Once the open succeeds again, the next write reopens the file and lands.
  FailpointRegistry::Instance().DisarmAll();
  uint64_t failures = rotator->write_failures();
  rotator->Write(DenialRecord());
  EXPECT_EQ(rotator->write_failures(), failures);
  std::vector<std::string> lines = WholeLines();
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("/fs/secret"), std::string::npos);
}

}  // namespace
}  // namespace xsec
