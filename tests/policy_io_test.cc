#include "src/policy/policy_io.h"

#include <gtest/gtest.h>

#include "src/core/secure_system.h"

namespace xsec {
namespace {

TEST(PolicyIoTest, SerializeContainsEveryLayer) {
  Kernel kernel;
  (void)kernel.labels().DefineLevels({"low", "high"});
  (void)kernel.labels().DefineCategory("alpha");
  PrincipalId alice = *kernel.principals().CreateUser("alice");
  PrincipalId staff = *kernel.principals().CreateGroup("staff");
  (void)kernel.principals().AddMember(staff, alice);
  kernel.monitor().set_security_officer(alice);
  NodeId dir = *kernel.name_space().BindPath("/fs/data", NodeKind::kDirectory, alice);
  (void)kernel.name_space().SetLabelRef(
      dir, kernel.labels().StoreLabel(*kernel.labels().MakeClass("high", {"alpha"})));
  Acl acl;
  acl.AddEntry({AclEntryType::kAllow, staff, AccessMode::kRead | AccessMode::kList});
  acl.AddEntry({AclEntryType::kDeny, alice, AccessModeSet(AccessMode::kWrite)});
  (void)kernel.name_space().SetAclRef(dir, kernel.acls().Create(std::move(acl)));

  auto serialized = SerializePolicy(kernel);
  ASSERT_TRUE(serialized.ok()) << serialized.status().ToString();
  const std::string& text = *serialized;
  EXPECT_NE(text.find("xsec-policy v1"), std::string::npos);
  EXPECT_NE(text.find("levels low high"), std::string::npos);
  EXPECT_NE(text.find("category alpha"), std::string::npos);
  EXPECT_NE(text.find("user alice"), std::string::npos);
  EXPECT_NE(text.find("group staff"), std::string::npos);
  EXPECT_NE(text.find("member staff alice"), std::string::npos);
  EXPECT_NE(text.find("officer alice"), std::string::npos);
  EXPECT_NE(text.find("node /fs/data directory alice"), std::string::npos);
  EXPECT_NE(text.find("label /fs/data high alpha"), std::string::npos);
  EXPECT_NE(text.find("acl /fs/data allow staff read|list"), std::string::npos);
  EXPECT_NE(text.find("acl /fs/data deny alice write"), std::string::npos);
}

TEST(PolicyIoTest, RoundTripIsStable) {
  Kernel source;
  (void)source.labels().DefineLevels({"others", "organization", "local"});
  (void)source.labels().DefineCategory("dep1");
  (void)source.labels().DefineCategory("dep2");
  PrincipalId alice = *source.principals().CreateUser("alice");
  PrincipalId bob = *source.principals().CreateUser("bob");
  PrincipalId team = *source.principals().CreateGroup("team");
  (void)source.principals().AddMember(team, alice);
  (void)source.principals().AddMember(team, bob);
  NodeId a = *source.name_space().BindPath("/fs/a", NodeKind::kFile, alice);
  NodeId b = *source.name_space().BindPath("/fs/b/c", NodeKind::kObject, bob);
  (void)source.name_space().SetLabelRef(
      a, source.labels().StoreLabel(*source.labels().MakeClass("organization", {"dep1"})));
  Acl acl_a;
  acl_a.AddEntry({AclEntryType::kAllow, team, AccessModeSet(AccessMode::kRead)});
  (void)source.name_space().SetAclRef(a, source.acls().Create(std::move(acl_a)));
  Acl acl_b;
  acl_b.AddEntry({AclEntryType::kDeny, bob, AccessModeSet(AccessMode::kDelete)});
  acl_b.AddEntry({AclEntryType::kAllow, alice, AccessModeSet::All()});
  (void)source.name_space().SetAclRef(b, source.acls().Create(std::move(acl_b)));

  auto first = SerializePolicy(source);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  Kernel restored;
  ASSERT_TRUE(LoadPolicy(*first, &restored).ok());
  auto second = SerializePolicy(restored);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(*first, *second);
}

TEST(PolicyIoTest, RestoredKernelMakesIdenticalDecisions) {
  Kernel source;
  (void)source.labels().DefineLevels({"low", "high"});
  (void)source.labels().DefineCategory("a");
  PrincipalId alice = *source.principals().CreateUser("alice");
  PrincipalId bob = *source.principals().CreateUser("bob");
  NodeId secret = *source.name_space().BindPath("/fs/secret", NodeKind::kFile, alice);
  (void)source.name_space().SetLabelRef(
      secret, source.labels().StoreLabel(*source.labels().MakeClass("high", {"a"})));
  Acl acl;
  acl.AddEntry({AclEntryType::kAllow, alice, AccessMode::kRead | AccessMode::kWrite});
  acl.AddEntry({AclEntryType::kAllow, bob, AccessModeSet(AccessMode::kRead)});
  (void)source.name_space().SetAclRef(secret, source.acls().Create(std::move(acl)));

  auto serialized = SerializePolicy(source);
  ASSERT_TRUE(serialized.ok()) << serialized.status().ToString();
  Kernel restored;
  ASSERT_TRUE(LoadPolicy(*serialized, &restored).ok());

  PrincipalId r_alice = *restored.principals().FindByName("alice");
  PrincipalId r_bob = *restored.principals().FindByName("bob");
  NodeId r_secret = *restored.name_space().Lookup("/fs/secret");
  SecurityClass high = *restored.labels().MakeClass("high", {"a"});

  Subject alice_high = restored.CreateSubject(r_alice, high);
  Subject bob_low = restored.CreateSubject(r_bob, restored.labels().Bottom());
  Subject bob_high = restored.CreateSubject(r_bob, high);
  EXPECT_TRUE(restored.monitor().Check(alice_high, r_secret, AccessMode::kRead).allowed);
  EXPECT_TRUE(restored.monitor().Check(alice_high, r_secret, AccessMode::kWrite).allowed);
  EXPECT_FALSE(restored.monitor().Check(bob_low, r_secret, AccessMode::kRead).allowed);
  EXPECT_TRUE(restored.monitor().Check(bob_high, r_secret, AccessMode::kRead).allowed);
  EXPECT_FALSE(restored.monitor().Check(bob_high, r_secret, AccessMode::kWrite).allowed);
}

TEST(PolicyIoTest, LoadOntoBootedSystemReattachesPolicyToServices) {
  // Serialize a SecureSystem's policy and re-apply it to a fresh one: the
  // service nodes already exist and are reused.
  SecureSystem source;
  PrincipalId alice = *source.CreateUser("alice");
  (void)*source.CreateUser("carol");
  NodeId read_proc = *source.name_space().Lookup("/svc/fs/read");
  (void)source.monitor().AddAclEntry(
      source.SystemSubject(), read_proc,
      {AclEntryType::kDeny, alice, AccessModeSet(AccessMode::kExecute)});
  auto serialized = SerializePolicy(source.kernel());
  ASSERT_TRUE(serialized.ok()) << serialized.status().ToString();
  const std::string& text = *serialized;

  SecureSystem fresh;
  ASSERT_TRUE(LoadPolicy(text, &fresh.kernel()).ok());
  PrincipalId r_alice = *fresh.principals().FindByName("alice");
  Subject subject = fresh.Login(r_alice, fresh.labels().Bottom());
  // The procedure still has its handler (services installed it) AND the
  // restored deny applies.
  auto denied = fresh.Invoke(subject, "/svc/fs/read", {Value{std::string("/fs/x")}});
  EXPECT_EQ(denied.status().code(), StatusCode::kPermissionDenied);
  // Another restored user (in the restored "everyone" group) is unaffected.
  PrincipalId r_carol = *fresh.principals().FindByName("carol");
  Subject carol = fresh.Login(r_carol, fresh.labels().Bottom());
  auto not_found = fresh.Invoke(carol, "/svc/fs/read", {Value{std::string("/fs/x")}});
  EXPECT_EQ(not_found.status().code(), StatusCode::kNotFound);  // no such file, but callable
}

TEST(PolicyIoTest, CommentsAndBlankLinesIgnored) {
  Kernel kernel;
  std::string text =
      "# a policy\n"
      "xsec-policy v1\n"
      "\n"
      "user carol   # trailing comment\n"
      "group crew\n"
      "member crew carol\n";
  ASSERT_TRUE(LoadPolicy(text, &kernel).ok());
  EXPECT_TRUE(kernel.principals().FindByName("carol").ok());
  EXPECT_TRUE(kernel.principals().FindByName("crew").ok());
}

TEST(PolicyIoTest, MalformedPoliciesAreRejectedWithLineNumbers) {
  Kernel kernel;
  auto expect_fail = [&kernel](std::string_view text, std::string_view needle) {
    Kernel fresh;
    Status status = LoadPolicy(text, &fresh);
    ASSERT_FALSE(status.ok()) << text;
    EXPECT_NE(status.message().find(needle), std::string::npos) << status.message();
  };
  expect_fail("bogus header\n", "header");
  expect_fail("", "empty policy");
  expect_fail("xsec-policy v1\nfrobnicate x\n", "unknown directive");
  expect_fail("xsec-policy v1\nuser\n", "exactly one name");
  expect_fail("xsec-policy v1\nmember ghosts nobody\n", "unknown principal");
  expect_fail("xsec-policy v1\nnode /x widget system\n", "unknown node kind");
  expect_fail("xsec-policy v1\nlabel /missing low\n", "unknown node");
  expect_fail("xsec-policy v1\nuser u\nnode /x file u\nacl /x maybe u read\n", "polarity");
  expect_fail("xsec-policy v1\nuser u\nnode /x file u\nacl /x allow u fly\n",
              "unknown access mode");
  expect_fail("xsec-policy v1\nlevels a b\nlevels b a\n", "already defined differently");
  // Line numbers are reported.
  Status status = LoadPolicy("xsec-policy v1\n\nfrobnicate\n", &kernel);
  EXPECT_NE(status.message().find("line 3"), std::string::npos);
}

TEST(PolicyIoTest, ClearancesSurviveRoundTrip) {
  Kernel source;
  (void)source.labels().DefineLevels({"low", "high"});
  (void)source.labels().DefineCategory("a");
  PrincipalId alice = *source.principals().CreateUser("alice");
  CategorySet a(1);
  a.Set(0);
  source.labels().SetClearance(alice.value, SecurityClass(1, a));

  auto serialized = SerializePolicy(source);
  ASSERT_TRUE(serialized.ok()) << serialized.status().ToString();
  const std::string& text = *serialized;
  EXPECT_NE(text.find("clearance alice high a"), std::string::npos);

  Kernel restored;
  ASSERT_TRUE(LoadPolicy(text, &restored).ok());
  PrincipalId r_alice = *restored.principals().FindByName("alice");
  const SecurityClass* clearance = restored.labels().ClearanceOf(r_alice.value);
  ASSERT_NE(clearance, nullptr);
  EXPECT_EQ(clearance->level(), 1);
  EXPECT_TRUE(clearance->categories().Test(0));
  auto again = SerializePolicy(restored);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(text, *again);
}

TEST(PolicyIoTest, EmptyOwnAclSurvivesRoundTrip) {
  // An empty own ACL overrides inheritance (deny-all); it must not vanish.
  Kernel source;
  PrincipalId alice = *source.principals().CreateUser("alice");
  NodeId parent = *source.name_space().BindPath("/d", NodeKind::kDirectory, alice);
  Acl generous;
  generous.AddEntry({AclEntryType::kAllow, alice, AccessModeSet::All()});
  (void)source.name_space().SetAclRef(parent, source.acls().Create(std::move(generous)));
  NodeId child = *source.name_space().BindPath("/d/locked", NodeKind::kFile, alice);
  (void)source.name_space().SetAclRef(child, source.acls().Create(Acl()));  // deny-all

  auto serialized = SerializePolicy(source);
  ASSERT_TRUE(serialized.ok()) << serialized.status().ToString();
  const std::string& text = *serialized;
  EXPECT_NE(text.find("acl /d/locked none"), std::string::npos);

  Kernel restored;
  ASSERT_TRUE(LoadPolicy(text, &restored).ok());
  PrincipalId r_alice = *restored.principals().FindByName("alice");
  NodeId r_child = *restored.name_space().Lookup("/d/locked");
  Subject subject = restored.CreateSubject(r_alice, restored.labels().Bottom());
  EXPECT_FALSE(restored.monitor().Check(subject, r_child, AccessMode::kRead).allowed);
  // Round-trip stability.
  auto again = SerializePolicy(restored);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(text, *again);
}

TEST(PolicyIoTest, SerializeFailsOnUnnamedLevel) {
  // A label can hold a level index with no defined name (levels were never
  // defined, or the class was built numerically). Serializing it used to
  // emit "level-1", which LoadPolicy cannot parse; now it fails loudly.
  Kernel kernel;
  PrincipalId alice = *kernel.principals().CreateUser("alice");
  NodeId node = *kernel.name_space().BindPath("/x", NodeKind::kFile, alice);
  (void)kernel.name_space().SetLabelRef(
      node, kernel.labels().StoreLabel(SecurityClass(1, CategorySet())));

  auto serialized = SerializePolicy(kernel);
  ASSERT_FALSE(serialized.ok());
  EXPECT_EQ(serialized.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(serialized.status().message().find("/x"), std::string::npos)
      << serialized.status().message();
  EXPECT_NE(serialized.status().message().find("level"), std::string::npos);
}

TEST(PolicyIoTest, SerializeFailsOnUnnamedCategory) {
  Kernel kernel;
  (void)kernel.labels().DefineLevels({"low", "high"});
  PrincipalId alice = *kernel.principals().CreateUser("alice");
  CategorySet cats(3);
  cats.Set(2);  // no category names defined at all
  kernel.labels().SetClearance(alice.value, SecurityClass(1, cats));

  auto serialized = SerializePolicy(kernel);
  ASSERT_FALSE(serialized.ok());
  EXPECT_EQ(serialized.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(serialized.status().message().find("alice"), std::string::npos)
      << serialized.status().message();
  EXPECT_NE(serialized.status().message().find("category"), std::string::npos);
}

TEST(PolicyIoTest, SerializeFailsOnUnregisteredPrincipal) {
  // A node owned by a principal id outside the registry used to serialize
  // as "p42"; that token never loads back.
  Kernel kernel;
  PrincipalId alice = *kernel.principals().CreateUser("alice");
  NodeId node = *kernel.name_space().BindPath("/x", NodeKind::kFile, alice);
  (void)kernel.name_space().SetOwner(node, PrincipalId{42});

  auto serialized = SerializePolicy(kernel);
  ASSERT_FALSE(serialized.ok());
  EXPECT_EQ(serialized.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(serialized.status().message().find("42"), std::string::npos)
      << serialized.status().message();
  EXPECT_NE(serialized.status().message().find("/x"), std::string::npos);
}

TEST(PolicyIoTest, NamesThatWouldBreakTokenizationAreRejectedAtCreation) {
  // Spaces split tokens and '#' starts a comment in the policy format, so
  // both are rejected where names enter the system — serialization then
  // never has to escape.
  Kernel kernel;
  EXPECT_FALSE(kernel.principals().CreateUser("al ice").ok());
  EXPECT_FALSE(kernel.principals().CreateUser("ali#ce").ok());
  EXPECT_FALSE(kernel.principals().CreateUser("tab\tbed").ok());
  PrincipalId alice = *kernel.principals().CreateUser("alice");
  EXPECT_FALSE(kernel.name_space().BindPath("/a b", NodeKind::kFile, alice).ok());
  EXPECT_FALSE(kernel.name_space().BindPath("/a#b", NodeKind::kFile, alice).ok());
  EXPECT_TRUE(kernel.name_space().BindPath("/a.b-c_d", NodeKind::kFile, alice).ok());
}

TEST(PolicyIoTest, NodeDirectiveRejectsKindMismatch) {
  // Loading "node /x directory ..." onto an existing file must error, not
  // silently keep the file.
  Kernel kernel;
  PrincipalId alice = *kernel.principals().CreateUser("alice");
  (void)*kernel.name_space().BindPath("/x", NodeKind::kFile, alice);

  Status status = LoadPolicy(
      "xsec-policy v1\n"
      "user alice\n"
      "node /x directory alice\n",
      &kernel);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("line 3"), std::string::npos) << status.message();
  EXPECT_NE(status.message().find("already exists as file"), std::string::npos);
  // Matching kind still reuses the node and just reassigns the owner.
  PrincipalId bob = *kernel.principals().CreateUser("bob");
  (void)bob;
  ASSERT_TRUE(LoadPolicy(
                  "xsec-policy v1\n"
                  "user bob\n"
                  "node /x file bob\n",
                  &kernel)
                  .ok());
  EXPECT_EQ(kernel.name_space().Get(*kernel.name_space().Lookup("/x"))->owner, bob);
}

TEST(PolicyIoTest, FirstAclDirectiveResetsSubsequentAppend) {
  Kernel kernel;
  PrincipalId alice = *kernel.principals().CreateUser("alice");
  PrincipalId bob = *kernel.principals().CreateUser("bob");
  NodeId node = *kernel.name_space().BindPath("/x", NodeKind::kFile, alice);
  Acl stale;
  stale.AddEntry({AclEntryType::kAllow, bob, AccessModeSet::All()});
  (void)kernel.name_space().SetAclRef(node, kernel.acls().Create(std::move(stale)));

  std::string text =
      "xsec-policy v1\n"
      "acl /x allow alice read\n"
      "acl /x deny bob read\n";
  ASSERT_TRUE(LoadPolicy(text, &kernel).ok());
  const Acl* acl = kernel.acls().Get(kernel.name_space().Get(node)->acl_ref);
  ASSERT_EQ(acl->entries().size(), 2u);  // the stale grant is gone
  Subject bob_s = kernel.CreateSubject(bob, kernel.labels().Bottom());
  EXPECT_FALSE(kernel.monitor().Check(bob_s, node, AccessMode::kRead).allowed);
}

// -- A policy reload must invalidate cached decisions -----------------------

TEST(PolicyIoReloadTest, ReloadInvalidatesCachedAllows) {
  Kernel kernel;
  constexpr std::string_view kAllow =
      "xsec-policy v1\n"
      "user alice\n"
      "user bob\n"
      "node /fs/doc file alice\n"
      "acl /fs/doc allow bob read\n";
  ASSERT_TRUE(LoadPolicy(kAllow, &kernel).ok());
  NodeId doc = *kernel.name_space().Lookup("/fs/doc");
  PrincipalId bob = *kernel.principals().FindByName("bob");
  Subject subject{bob, SecurityClass(), 1};

  // Prime the decision cache with the allow.
  ASSERT_TRUE(kernel.monitor().Check(subject, doc, AccessModeSet(AccessMode::kRead)).allowed);
  ASSERT_TRUE(kernel.monitor().Check(subject, doc, AccessModeSet(AccessMode::kRead)).allowed);

  constexpr std::string_view kRevoke =
      "xsec-policy v1\n"
      "node /fs/doc file alice\n"
      "acl /fs/doc none\n";
  ASSERT_TRUE(LoadPolicy(kRevoke, &kernel).ok());

  // The cached allow must not survive the reload.
  Decision after = kernel.monitor().Check(subject, doc, AccessModeSet(AccessMode::kRead));
  EXPECT_FALSE(after.allowed);
  EXPECT_EQ(after.reason, DenyReason::kDacNoGrant);
}

TEST(PolicyIoReloadTest, OfficerOnlyReloadKeepsTheCacheWarm) {
  // The officer is read only by SetNodeLabel, which is never cached, so a
  // reload that only names an officer moves no stamp: the cached allow is
  // served as a hit, and the new officer's relabel is honoured at once.
  Kernel kernel;
  constexpr std::string_view kBase =
      "xsec-policy v1\n"
      "levels low high\n"
      "user alice\n"
      "user bob\n"
      "user carol\n"
      "node /fs/doc file alice\n"
      "acl /fs/doc allow bob read\n";
  ASSERT_TRUE(LoadPolicy(kBase, &kernel).ok());
  NodeId doc = *kernel.name_space().Lookup("/fs/doc");
  Subject bob{*kernel.principals().FindByName("bob"), kernel.labels().Bottom(), 1};
  ASSERT_TRUE(kernel.monitor().Check(bob, doc, AccessModeSet(AccessMode::kRead)).allowed);

  constexpr std::string_view kOfficerOnly =
      "xsec-policy v1\n"
      "officer carol\n";
  ASSERT_TRUE(LoadPolicy(kOfficerOnly, &kernel).ok());
  const uint64_t hits = kernel.monitor().cache().hits();
  const uint64_t misses = kernel.monitor().cache().misses();
  EXPECT_TRUE(kernel.monitor().Check(bob, doc, AccessModeSet(AccessMode::kRead)).allowed);
  EXPECT_EQ(kernel.monitor().cache().hits(), hits + 1);
  EXPECT_EQ(kernel.monitor().cache().misses(), misses);

  // Carol neither owns the node nor holds administrate on it: only the
  // officer rule lets her relabel it above her own class.
  Subject carol{*kernel.principals().FindByName("carol"), kernel.labels().Bottom(), 2};
  ASSERT_TRUE(
      kernel.monitor().SetNodeLabel(carol, doc, *kernel.labels().MakeClass("high", {})).ok());
  Decision after = kernel.monitor().Check(bob, doc, AccessModeSet(AccessMode::kRead));
  EXPECT_FALSE(after.allowed);
  EXPECT_EQ(after.reason, DenyReason::kMacFlow);
}

TEST(PolicyIoReloadTest, EveryDirectiveThatChangesADecisionStalesIt) {
  // One row per directive that can change a cached decision. Each row loads
  // its setup, primes bob's decision on /fs/doc (the second check is a
  // hit), reloads, and expects the decision to flip to the interpreted one:
  // the directive moved a stamp of the node's domain.
  constexpr std::string_view kBase =
      "xsec-policy v1\n"
      "levels low high\n"
      "user alice\n"
      "user bob\n"
      "group readers\n"
      "node /fs directory alice\n"
      "node /fs/doc file alice\n";
  struct Row {
    const char* directive;
    const char* setup;
    const char* reload;
    AccessMode mode;
  };
  const Row rows[] = {
      {"node (owner change)", "", "node /fs/doc file bob\n", AccessMode::kAdministrate},
      {"label", "acl /fs/doc allow bob read\nlabel /fs/doc low\n", "label /fs/doc high\n",
       AccessMode::kRead},
      {"acl none", "acl /fs allow bob read\n", "acl /fs/doc none\n", AccessMode::kRead},
      {"first acl", "acl /fs/doc allow bob read\n", "acl /fs/doc deny bob read\n",
       AccessMode::kRead},
      {"appended acl", "acl /fs/doc allow bob read\n",
       "acl /fs/doc allow bob read\nacl /fs/doc deny bob read\n", AccessMode::kRead},
      {"member", "acl /fs/doc allow readers read\n", "member readers bob\n", AccessMode::kRead},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(row.directive);
    Kernel kernel;
    ASSERT_TRUE(LoadPolicy(std::string(kBase) + row.setup, &kernel).ok());
    NodeId doc = *kernel.name_space().Lookup("/fs/doc");
    Subject bob{*kernel.principals().FindByName("bob"), kernel.labels().Bottom(), 1};
    ReferenceMonitor& monitor = kernel.monitor();
    const Decision before = monitor.Check(bob, doc, AccessModeSet(row.mode));
    const uint64_t hits = monitor.cache().hits();
    ASSERT_EQ(monitor.Check(bob, doc, AccessModeSet(row.mode)).allowed, before.allowed);
    ASSERT_EQ(monitor.cache().hits(), hits + 1) << "the decision was not cached";

    ASSERT_TRUE(LoadPolicy(std::string("xsec-policy v1\n") + row.reload, &kernel).ok());
    const Decision after = monitor.Check(bob, doc, AccessModeSet(row.mode));
    const Decision oracle = monitor.CheckInterpreted(bob, doc, AccessModeSet(row.mode));
    EXPECT_NE(after.allowed, before.allowed);
    EXPECT_EQ(after.allowed, oracle.allowed);
    EXPECT_EQ(after.reason, oracle.reason);
  }
}

TEST(PolicyIoReloadTest, LoadPolicyFileInvalidatesToo) {
  // Same regression through the durable-file path: an allow cached before
  // LoadPolicyFile must not survive a file whose policy revokes it.
  std::string path = testing::TempDir() + "/xsec_reload_policy.txt";
  {
    Kernel revoked;
    constexpr std::string_view kRevoke =
        "xsec-policy v1\n"
        "user alice\n"
        "user bob\n"
        "node /fs/doc file alice\n"
        "acl /fs/doc deny bob read\n";
    ASSERT_TRUE(LoadPolicy(kRevoke, &revoked).ok());
    ASSERT_TRUE(SavePolicyFile(revoked, path).ok());
  }
  Kernel kernel;
  constexpr std::string_view kAllow =
      "xsec-policy v1\n"
      "user alice\n"
      "user bob\n"
      "node /fs/doc file alice\n"
      "acl /fs/doc allow bob read\n";
  ASSERT_TRUE(LoadPolicy(kAllow, &kernel).ok());
  NodeId doc = *kernel.name_space().Lookup("/fs/doc");
  PrincipalId bob = *kernel.principals().FindByName("bob");
  Subject subject{bob, SecurityClass(), 1};
  ASSERT_TRUE(kernel.monitor().Check(subject, doc, AccessModeSet(AccessMode::kRead)).allowed);

  ASSERT_TRUE(LoadPolicyFile(path, &kernel, nullptr).ok());
  Decision after = kernel.monitor().Check(subject, doc, AccessModeSet(AccessMode::kRead));
  EXPECT_FALSE(after.allowed);
  EXPECT_EQ(after.reason, DenyReason::kDacExplicitDeny);
}

}  // namespace
}  // namespace xsec
