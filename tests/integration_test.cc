// End-to-end integration: the paper's world on one running system.
//
// An organization runs an extensible system with the §2.2 label layout. A
// department-1 developer ships a file-system extension built on mbufs
// (§1.1's example); users call it through the general VFS interface; a
// remote applet attempts the §1.2 attacks; administrators revoke access at
// runtime; the audit log accounts for every denial.

#include <gtest/gtest.h>

#include <map>

#include "src/core/secure_system.h"
#include "src/policy/policy_io.h"

namespace xsec {
namespace {

std::vector<uint8_t> Bytes(std::string_view text) {
  return std::vector<uint8_t>(text.begin(), text.end());
}

class IntegrationTest : public ::testing::Test {
 protected:
  IntegrationTest() {
    (void)sys_.labels().DefineLevels({"others", "organization", "local"});
    (void)sys_.labels().DefineCategory("myself");
    (void)sys_.labels().DefineCategory("department-1");
    (void)sys_.labels().DefineCategory("department-2");
    (void)sys_.labels().DefineCategory("outside");

    admin_user_ = *sys_.CreateUser("admin");
    dev_user_ = *sys_.CreateUser("dev");
    user1_ = *sys_.CreateUser("user1");
    user2_ = *sys_.CreateUser("user2");
    attacker_user_ = *sys_.CreateUser("attacker");

    local_all_ = *sys_.labels().MakeClass(
        "local", {"myself", "department-1", "department-2", "outside"});
    dep1_ = *sys_.labels().MakeClass("organization", {"department-1"});
    dep2_ = *sys_.labels().MakeClass("organization", {"department-2"});
    outside_ = *sys_.labels().MakeClass("others", {"outside"});

    admin_ = sys_.Login(admin_user_, local_all_);
    dev_ = sys_.Login(dev_user_, dep1_);
    alice_ = sys_.Login(user1_, dep1_);
    bob_ = sys_.Login(user2_, dep2_);
    attacker_ = sys_.Login(attacker_user_, outside_);
  }

  SecureSystem sys_;
  PrincipalId admin_user_, dev_user_, user1_, user2_, attacker_user_;
  SecurityClass local_all_, dep1_, dep2_, outside_;
  Subject admin_, dev_, alice_, bob_, attacker_;
};

TEST_F(IntegrationTest, FileSystemExtensionOverMbufsEndToEnd) {
  // The base system publishes the "logfs" extension point; only the dev may
  // implement it, everyone may call it.
  NodeId iface = *sys_.vfs().CreateFsType("logfs", sys_.system_principal());
  Acl iface_acl;
  iface_acl.AddEntry({AclEntryType::kAllow, dev_user_, AccessModeSet(AccessMode::kExtend)});
  iface_acl.AddEntry({AclEntryType::kAllow, sys_.everyone(),
                      AccessMode::kExecute | AccessMode::kList});
  (void)sys_.name_space().SetAclRef(iface, sys_.kernel().acls().Create(std::move(iface_acl)));

  // The extension stores file contents in mbufs it allocates through its
  // *imported* capability — the §1.1 "uses existing services (such as mbuf
  // management) and builds on them" structure.
  auto files = std::make_shared<std::map<std::string, int64_t>>();  // path -> mbuf id
  ExtensionManifest manifest;
  manifest.name = "logfs";
  manifest.origin = Origin::kOrganization;
  manifest.imports = {"/svc/mbuf/alloc", "/svc/mbuf/append", "/svc/mbuf/read"};
  manifest.exports.push_back(
      {sys_.vfs().TypeInterfacePath("logfs"),
       [files](CallContext& ctx) -> StatusOr<Value> {
         auto op = ArgString(ctx.args, 0);
         auto path = ArgString(ctx.args, 1);
         if (!op.ok() || !path.ok()) {
           return InvalidArgumentError("bad vfs call");
         }
         Kernel& kernel = *ctx.kernel;
         Subject& caller = *ctx.subject;
         if (*op == "write") {
           auto data = ArgBytes(ctx.args, 2);
           if (!data.ok()) {
             return data.status();
           }
           if (files->find(*path) == files->end()) {
             auto id = kernel.Invoke(caller, "/svc/mbuf/alloc",
                                     {Value{int64_t(data->size())}});
             if (!id.ok()) {
               return id.status();
             }
             (*files)[*path] = std::get<int64_t>(*id);
           }
           return kernel.Invoke(caller, "/svc/mbuf/append",
                                {Value{(*files)[*path]}, Value{*data}});
         }
         if (*op == "read") {
           auto it = files->find(*path);
           if (it == files->end()) {
             return NotFoundError("no such logfs file");
           }
           return kernel.Invoke(caller, "/svc/mbuf/read", {Value{it->second}});
         }
         return InvalidArgumentError("unsupported logfs op");
       }});

  auto ext = sys_.LoadExtension(manifest, dev_);
  ASSERT_TRUE(ext.ok()) << ext.status();

  // A department-1 user writes and reads through the *general* interface.
  ASSERT_TRUE(sys_.vfs().Write(alice_, "logfs", "/notes", Bytes("mbuf-backed")).ok());
  auto data = sys_.vfs().Read(alice_, "logfs", "/notes");
  ASSERT_TRUE(data.ok()) << data.status();
  EXPECT_EQ(*data, Bytes("mbuf-backed"));
  EXPECT_GT(sys_.mbufs().live_buffers(), 0u);

  // Class-selected dispatch bites: the handler was registered at the dev's
  // department-1 class, and bob's department-2 class does not dominate it —
  // so bob has no eligible implementation at all.
  EXPECT_EQ(sys_.vfs().Read(bob_, "logfs", "/missing").status().code(),
            StatusCode::kPermissionDenied);
  // A dual-role admin (dominating class) reaches the handler; his files are
  // separate (mbufs are principal-private), so alice's path is NotFound.
  EXPECT_EQ(sys_.vfs().Read(admin_, "logfs", "/admin-only").status().code(),
            StatusCode::kNotFound);

  // Unloading the extension kills the file-system type.
  ASSERT_TRUE(sys_.UnloadExtension(dev_, *ext).ok());
  EXPECT_EQ(sys_.vfs().Read(alice_, "logfs", "/notes").status().code(),
            StatusCode::kNotFound);
}

TEST_F(IntegrationTest, AttackSuiteIsFullyDeniedAndAudited) {
  sys_.monitor().audit().Clear();
  sys_.monitor().set_audit_policy(AuditPolicy::kDenialsOnly);

  // Victim state: a department-1 thread and a department-1 file.
  auto victim_thread = sys_.threads().Spawn(alice_, "worker");
  ASSERT_TRUE(victim_thread.ok());
  NodeId dep1_dir = *sys_.name_space().BindPath("/fs/dep1", NodeKind::kDirectory, user1_);
  (void)sys_.name_space().SetLabelRef(dep1_dir, sys_.labels().StoreLabel(dep1_));
  Acl dir_acl;
  dir_acl.AddEntry({AclEntryType::kAllow, user1_, AccessModeSet::All()});
  // Note the deliberately sloppy world grant: DAC alone would leak.
  dir_acl.AddEntry({AclEntryType::kAllow, sys_.everyone(),
                    AccessMode::kRead | AccessMode::kList});
  (void)sys_.name_space().SetAclRef(dep1_dir, sys_.kernel().acls().Create(std::move(dir_acl)));
  ASSERT_TRUE(sys_.fs().Create(alice_, "/fs/dep1/secret").ok());
  ASSERT_TRUE(sys_.fs().Write(alice_, "/fs/dep1/secret", Bytes("payroll")).ok());

  // Attack 1: ThreadMurder.
  EXPECT_EQ(sys_.threads().Kill(attacker_, *victim_thread).code(),
            StatusCode::kPermissionDenied);
  // Attack 2: read the secret despite the world-readable ACL (MAC stops it).
  EXPECT_EQ(sys_.fs().Read(attacker_, "/fs/dep1/secret").status().code(),
            StatusCode::kPermissionDenied);
  // Attack 3: same-level cross-department read (bob).
  EXPECT_EQ(sys_.fs().Read(bob_, "/fs/dep1/secret").status().code(),
            StatusCode::kPermissionDenied);
  // Attack 4: hijack the fs service by specializing an interface without an
  // extend grant.
  NodeId iface = *sys_.vfs().CreateFsType("evilfs", sys_.system_principal());
  (void)iface;
  ExtensionManifest evil;
  evil.name = "hijack";
  evil.exports.push_back({sys_.vfs().TypeInterfacePath("evilfs"),
                          [](CallContext&) -> StatusOr<Value> { return Value{}; }});
  EXPECT_EQ(sys_.LoadExtension(evil, attacker_).status().code(),
            StatusCode::kPermissionDenied);

  // Legitimate traffic still flows.
  EXPECT_TRUE(sys_.fs().Read(alice_, "/fs/dep1/secret").ok());
  EXPECT_TRUE(sys_.fs().Read(admin_, "/fs/dep1/secret").ok());  // read-down

  // Every attack left a denial record naming the attacker.
  auto denials = sys_.monitor().audit().Query(
      [&](const AuditRecord& r) { return !r.allowed; });
  int by_attacker = 0;
  int by_bob = 0;
  for (const AuditRecord& r : denials) {
    by_attacker += r.principal == attacker_user_ ? 1 : 0;
    by_bob += r.principal == user2_ ? 1 : 0;
  }
  EXPECT_GE(by_attacker, 3);
  EXPECT_GE(by_bob, 1);
  EXPECT_EQ(sys_.monitor().audit().total_denials(), denials.size());
  EXPECT_GE(sys_.monitor().stats().denied_total(), denials.size());
}

TEST_F(IntegrationTest, RuntimeRevocationTakesImmediateEffect) {
  // The dev links an extension importing the mbuf allocator; later the
  // administrator revokes execute on that procedure and the capability dies.
  NodeId alloc = *sys_.name_space().Lookup("/svc/mbuf/alloc");
  ExtensionManifest manifest;
  manifest.name = "allocator-client";
  manifest.imports = {"/svc/mbuf/alloc"};
  auto ext = sys_.LoadExtension(manifest, dev_);
  ASSERT_TRUE(ext.ok());
  const LinkedExtension* linked = sys_.kernel().GetExtension(*ext);

  EXPECT_TRUE(sys_.kernel()
                  .CallCapability(dev_, linked->imports[0], {Value{int64_t{8}}})
                  .ok());

  // Revoke: an explicit deny entry for the dev on the procedure node.
  Subject root = sys_.SystemSubject();
  ASSERT_TRUE(sys_.monitor()
                  .AddAclEntry(root, alloc,
                               {AclEntryType::kDeny, dev_user_,
                                AccessModeSet(AccessMode::kExecute)})
                  .ok());
  EXPECT_EQ(sys_.kernel()
                .CallCapability(dev_, linked->imports[0], {Value{int64_t{8}}})
                .status()
                .code(),
            StatusCode::kPermissionDenied);
  // Other principals are unaffected.
  EXPECT_TRUE(sys_.mbufs().Alloc(alice_, 8).ok());
}

TEST_F(IntegrationTest, AppendOnlyAuditTrailAcrossTrustLevels) {
  // The syslog sits at the top class; everyone may append, nobody below the
  // top may read or truncate — the full write-append story.
  NodeId node = sys_.log().log_node();
  Acl acl;
  acl.AddEntry({AclEntryType::kAllow, sys_.everyone(),
                AccessMode::kWriteAppend | AccessMode::kRead | AccessMode::kWrite});
  (void)sys_.name_space().SetAclRef(node, sys_.kernel().acls().Create(std::move(acl)));
  (void)sys_.name_space().SetLabelRef(node, sys_.labels().StoreLabel(local_all_));

  EXPECT_TRUE(sys_.log().AppendEntry(attacker_, "attacker was here").ok());
  EXPECT_TRUE(sys_.log().AppendEntry(alice_, "dep1 checkpoint").ok());
  EXPECT_EQ(sys_.log().ReadEntries(attacker_).status().code(),
            StatusCode::kPermissionDenied);
  EXPECT_EQ(sys_.log().Truncate(attacker_).code(), StatusCode::kPermissionDenied);
  auto entries = sys_.log().ReadEntries(admin_);
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), 2u);
}

TEST_F(IntegrationTest, RebootCyclePreservesTheWholePolicy) {
  // Build up nontrivial state, persist the policy, boot a *fresh* system
  // (services reinstall their handlers), reload — every protection decision
  // must come out the same, including ones that need labels, clearances,
  // negative entries, and the officer.
  NodeId dep1_dir = *sys_.name_space().BindPath("/fs/dep1", NodeKind::kDirectory, user1_);
  (void)sys_.name_space().SetLabelRef(dep1_dir, sys_.labels().StoreLabel(dep1_));
  Acl acl;
  acl.AddEntry({AclEntryType::kAllow, user1_, AccessModeSet::All()});
  acl.AddEntry({AclEntryType::kAllow, sys_.everyone(), AccessMode::kRead | AccessMode::kList});
  acl.AddEntry({AclEntryType::kDeny, user2_, AccessModeSet(AccessMode::kRead)});
  (void)sys_.name_space().SetAclRef(dep1_dir, sys_.kernel().acls().Create(std::move(acl)));
  sys_.monitor().set_security_officer(admin_user_);
  sys_.kernel().labels().SetClearance(user2_.value, dep2_);

  auto policy = SerializePolicy(sys_.kernel());
  ASSERT_TRUE(policy.ok()) << policy.status().ToString();

  SecureSystem rebooted;
  ASSERT_TRUE(LoadPolicy(*policy, &rebooted.kernel()).ok());

  auto subject_of = [&rebooted](const char* name, const SecurityClass& cls) {
    return rebooted.Login(*rebooted.principals().FindByName(name), cls);
  };
  Subject r_alice = subject_of("user1", dep1_);
  Subject r_bob = subject_of("user2", dep2_);
  Subject r_attacker = subject_of("attacker", outside_);
  NodeId r_dir = *rebooted.name_space().Lookup("/fs/dep1");

  // ACL + label semantics survived.
  EXPECT_TRUE(rebooted.monitor().Check(r_alice, r_dir, AccessMode::kWrite).allowed);
  EXPECT_FALSE(rebooted.monitor().Check(r_bob, r_dir, AccessMode::kRead).allowed);
  EXPECT_FALSE(rebooted.monitor().Check(r_attacker, r_dir, AccessMode::kRead).allowed);
  // The officer and clearance survived.
  EXPECT_EQ(rebooted.monitor().security_officer(),
            *rebooted.principals().FindByName("admin"));
  const SecurityClass* clearance = rebooted.kernel().labels().ClearanceOf(
      rebooted.principals().FindByName("user2")->value);
  ASSERT_NE(clearance, nullptr);
  EXPECT_TRUE(*clearance == dep2_);
  // And the live services work on the restored tree: alice creates a file
  // inside the restored labeled directory.
  EXPECT_TRUE(rebooted.fs().Create(r_alice, "/fs/dep1/after-reboot").ok());
  EXPECT_FALSE(rebooted.fs().Read(r_bob, "/fs/dep1/after-reboot").ok());
}

TEST_F(IntegrationTest, ClassSelectedDispatchServesEachCommunity) {
  // One "render" extension point, three implementations at three classes;
  // each caller gets the most trusted implementation it dominates.
  NodeId iface = *sys_.vfs().CreateFsType("render", sys_.system_principal());
  Acl acl;
  acl.AddEntry({AclEntryType::kAllow, sys_.everyone(),
                AccessMode::kExecute | AccessMode::kExtend | AccessMode::kList});
  (void)sys_.name_space().SetAclRef(iface, sys_.kernel().acls().Create(std::move(acl)));

  auto install = [&](std::string name, const SecurityClass& cls, std::string tag) {
    ExtensionManifest manifest;
    manifest.name = std::move(name);
    manifest.static_class = cls;
    manifest.exports.push_back(
        {sys_.vfs().TypeInterfacePath("render"),
         [tag](CallContext&) -> StatusOr<Value> { return Value{tag}; }});
    return sys_.LoadExtension(manifest, admin_);
  };
  ASSERT_TRUE(install("render-outside", outside_, "plain").ok());
  ASSERT_TRUE(install("render-dep1", dep1_, "dep1-themed").ok());
  ASSERT_TRUE(install("render-local", local_all_, "full").ok());

  auto call = [&](Subject& subject) -> std::string {
    auto result = sys_.kernel().RaiseEvent(
        subject, sys_.vfs().TypeInterfacePath("render"), {});
    return result.ok() ? std::get<std::string>(*result) : result.status().ToString();
  };
  EXPECT_EQ(call(attacker_), "plain");
  EXPECT_EQ(call(alice_), "dep1-themed");
  EXPECT_EQ(call(admin_), "full");
  // bob (department-2) dominates only the outside implementation? No — his
  // categories don't include "outside", so only handlers he dominates are
  // eligible; the outside handler is NOT dominated by dep2. He is denied.
  EXPECT_NE(call(bob_).find("PERMISSION_DENIED"), std::string::npos);
}

}  // namespace
}  // namespace xsec
