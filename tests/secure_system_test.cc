#include "src/core/secure_system.h"

#include <gtest/gtest.h>

namespace xsec {
namespace {

TEST(SecureSystemTest, BootInstallsServices) {
  SecureSystem sys;
  for (const char* path : {"/svc/fs", "/svc/mbuf", "/svc/threads", "/svc/log", "/svc/vfs",
                           "/fs", "/obj/threads", "/obj/syslog"}) {
    EXPECT_TRUE(sys.name_space().Lookup(path).ok()) << path;
  }
  for (const char* proc : {"/svc/fs/read", "/svc/fs/write", "/svc/mbuf/alloc",
                           "/svc/threads/spawn", "/svc/log/append", "/svc/vfs/read"}) {
    auto node = sys.name_space().Lookup(proc);
    ASSERT_TRUE(node.ok()) << proc;
    EXPECT_EQ(sys.name_space().Get(*node)->kind, NodeKind::kProcedure) << proc;
  }
}

TEST(SecureSystemTest, UsersJoinEveryoneAutomatically) {
  SecureSystem sys;
  auto alice = sys.CreateUser("alice");
  ASSERT_TRUE(alice.ok());
  auto closure = sys.principals().Closure(*alice);
  EXPECT_TRUE(closure->Test(sys.everyone().value));
}

TEST(SecureSystemTest, DefaultAclsMakeServicesCallable) {
  SecureSystem sys;
  auto alice = sys.CreateUser("alice");
  Subject subject = sys.Login(*alice, sys.labels().Bottom());
  // Listing the hierarchy and calling services work out of the box.
  auto stats = sys.Invoke(subject, "/svc/mbuf/stats", {});
  EXPECT_TRUE(stats.ok()) << stats.status();
  // Writing anywhere does not.
  EXPECT_EQ(sys.fs().Create(subject, "/fs/forbidden").status().code(),
            StatusCode::kPermissionDenied);
}

TEST(SecureSystemTest, SystemSubjectIsFullyPrivileged) {
  SecureSystem sys;
  (void)sys.labels().DefineLevels({"low", "high"});
  (void)sys.labels().DefineCategory("a");
  Subject root = sys.SystemSubject();
  EXPECT_TRUE(root.security_class == sys.labels().Top());
  EXPECT_EQ(root.principal, sys.system_principal());
}

TEST(SecureSystemTest, LoginProducesDistinctThreads) {
  SecureSystem sys;
  auto alice = sys.CreateUser("alice");
  Subject a = sys.Login(*alice, sys.labels().Bottom());
  Subject b = sys.Login(*alice, sys.labels().Bottom());
  EXPECT_NE(a.thread_id, b.thread_id);
  EXPECT_EQ(a.principal, b.principal);
}

TEST(SecureSystemTest, DuplicateUserRejected) {
  SecureSystem sys;
  ASSERT_TRUE(sys.CreateUser("alice").ok());
  EXPECT_EQ(sys.CreateUser("alice").status().code(), StatusCode::kAlreadyExists);
  ASSERT_TRUE(sys.CreateGroup("team").ok());
  EXPECT_EQ(sys.CreateGroup("team").status().code(), StatusCode::kAlreadyExists);
}

TEST(SecureSystemTest, MonitorOptionsPropagate) {
  MonitorOptions options;
  options.audit_policy = AuditPolicy::kAll;
  options.mac_enabled = false;
  SecureSystem sys(options);
  EXPECT_EQ(sys.monitor().audit().policy(), AuditPolicy::kAll);
  EXPECT_FALSE(sys.monitor().options().mac_enabled);
}

TEST(SecureSystemTest, LoginCheckedEnforcesCredentialAndClearance) {
  SecureSystem sys;
  (void)sys.labels().DefineLevels({"low", "mid", "high"});
  (void)sys.labels().DefineCategory("a");
  auto alice = sys.CreateUser("alice");
  ASSERT_TRUE(sys.principals().SetCredential(*alice, "sesame").ok());
  SecurityClass mid = *sys.labels().MakeClass("mid", {"a"});
  ASSERT_TRUE(sys.SetClearance(*alice, mid).ok());

  // Wrong credential.
  EXPECT_EQ(sys.LoginChecked("alice", "wrong", mid).status().code(),
            StatusCode::kPermissionDenied);
  // Within clearance (equal, and strictly below).
  EXPECT_TRUE(sys.LoginChecked("alice", "sesame", mid).ok());
  EXPECT_TRUE(sys.LoginChecked("alice", "sesame", sys.labels().Bottom()).ok());
  // Above clearance: level too high, or extra category.
  EXPECT_EQ(sys.LoginChecked("alice", "sesame", *sys.labels().MakeClass("high", {"a"}))
                .status()
                .code(),
            StatusCode::kPermissionDenied);
  // Unknown users and users without clearance.
  EXPECT_EQ(sys.LoginChecked("ghost", "x", mid).status().code(), StatusCode::kNotFound);
  auto bob = sys.CreateUser("bob");
  ASSERT_TRUE(sys.principals().SetCredential(*bob, "pw").ok());
  // No clearance set: any class goes.
  EXPECT_TRUE(sys.LoginChecked("bob", "pw", sys.labels().Top()).ok());
  EXPECT_EQ(sys.SetClearance(PrincipalId{9999}, mid).code(), StatusCode::kNotFound);
}

TEST(SecureSystemTest, AuditSeesDeniedServiceCalls) {
  SecureSystem sys;
  auto alice = sys.CreateUser("alice");
  Subject subject = sys.Login(*alice, sys.labels().Bottom());
  const uint64_t mark = sys.monitor().audit().total_denials();  // denials only: next sequence
  (void)sys.fs().Create(subject, "/fs/forbidden");
  auto denials = sys.monitor().audit().Query(
      [mark](const AuditRecord& r) { return r.sequence >= mark && !r.allowed; });
  ASSERT_FALSE(denials.empty());
  EXPECT_EQ(denials.front().principal, *alice);
}

}  // namespace
}  // namespace xsec
