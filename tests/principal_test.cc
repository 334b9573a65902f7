#include "src/principal/registry.h"

#include <gtest/gtest.h>

namespace xsec {
namespace {

TEST(PrincipalRegistryTest, CreateAndLookup) {
  PrincipalRegistry reg;
  auto alice = reg.CreateUser("alice");
  ASSERT_TRUE(alice.ok());
  auto staff = reg.CreateGroup("staff");
  ASSERT_TRUE(staff.ok());
  EXPECT_NE(alice->value, staff->value);

  auto found = reg.FindByName("alice");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(*found, *alice);
  EXPECT_EQ(reg.Get(*alice)->kind, PrincipalKind::kUser);
  EXPECT_EQ(reg.Get(*staff)->kind, PrincipalKind::kGroup);
  EXPECT_EQ(reg.Get(*staff)->name, "staff");
}

TEST(PrincipalRegistryTest, DuplicateNamesRejected) {
  PrincipalRegistry reg;
  ASSERT_TRUE(reg.CreateUser("x").ok());
  EXPECT_EQ(reg.CreateUser("x").status().code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(reg.CreateGroup("x").status().code(), StatusCode::kAlreadyExists);
}

TEST(PrincipalRegistryTest, EmptyNameRejected) {
  PrincipalRegistry reg;
  EXPECT_EQ(reg.CreateUser("").status().code(), StatusCode::kInvalidArgument);
}

TEST(PrincipalRegistryTest, WhitespaceInNamesRejected) {
  PrincipalRegistry reg;
  EXPECT_EQ(reg.CreateUser("ali ce").status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(reg.CreateGroup("sta\tff").status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(reg.CreateUser("new\nline").status().code(), StatusCode::kInvalidArgument);
}

TEST(PrincipalRegistryTest, UnknownLookups) {
  PrincipalRegistry reg;
  EXPECT_EQ(reg.FindByName("ghost").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(reg.Get(PrincipalId{999}), nullptr);
}

TEST(PrincipalRegistryTest, DirectMembership) {
  PrincipalRegistry reg;
  PrincipalId alice = *reg.CreateUser("alice");
  PrincipalId staff = *reg.CreateGroup("staff");
  ASSERT_TRUE(reg.AddMember(staff, alice).ok());

  auto closure = reg.Closure(alice);
  EXPECT_TRUE(closure->Test(alice.value));
  EXPECT_TRUE(closure->Test(staff.value));

  auto members = reg.MembersOf(staff);
  ASSERT_TRUE(members.ok());
  EXPECT_EQ(members->size(), 1u);
}

TEST(PrincipalRegistryTest, TransitiveClosureThroughNestedGroups) {
  PrincipalRegistry reg;
  PrincipalId u = *reg.CreateUser("u");
  PrincipalId inner = *reg.CreateGroup("inner");
  PrincipalId middle = *reg.CreateGroup("middle");
  PrincipalId outer = *reg.CreateGroup("outer");
  ASSERT_TRUE(reg.AddMember(inner, u).ok());
  ASSERT_TRUE(reg.AddMember(middle, inner).ok());
  ASSERT_TRUE(reg.AddMember(outer, middle).ok());

  auto closure = reg.Closure(u);
  EXPECT_TRUE(closure->Test(inner.value));
  EXPECT_TRUE(closure->Test(middle.value));
  EXPECT_TRUE(closure->Test(outer.value));
  EXPECT_EQ(closure->Count(), 4u);  // self + three groups
}

TEST(PrincipalRegistryTest, ClosureOfNonMemberIsSelfOnly) {
  PrincipalRegistry reg;
  PrincipalId u = *reg.CreateUser("u");
  (void)*reg.CreateGroup("g");
  EXPECT_EQ(reg.Closure(u)->Count(), 1u);
}

TEST(PrincipalRegistryTest, CycleRejected) {
  PrincipalRegistry reg;
  PrincipalId a = *reg.CreateGroup("a");
  PrincipalId b = *reg.CreateGroup("b");
  PrincipalId c = *reg.CreateGroup("c");
  ASSERT_TRUE(reg.AddMember(a, b).ok());
  ASSERT_TRUE(reg.AddMember(b, c).ok());
  EXPECT_EQ(reg.AddMember(c, a).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(reg.AddMember(a, a).code(), StatusCode::kFailedPrecondition);
}

TEST(PrincipalRegistryTest, UsersCannotHaveMembers) {
  PrincipalRegistry reg;
  PrincipalId u = *reg.CreateUser("u");
  PrincipalId v = *reg.CreateUser("v");
  EXPECT_EQ(reg.AddMember(u, v).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(reg.MembersOf(u).status().code(), StatusCode::kInvalidArgument);
}

TEST(PrincipalRegistryTest, DuplicateMembershipRejected) {
  PrincipalRegistry reg;
  PrincipalId u = *reg.CreateUser("u");
  PrincipalId g = *reg.CreateGroup("g");
  ASSERT_TRUE(reg.AddMember(g, u).ok());
  EXPECT_EQ(reg.AddMember(g, u).code(), StatusCode::kAlreadyExists);
}

TEST(PrincipalRegistryTest, RemoveMemberShrinksClosure) {
  PrincipalRegistry reg;
  PrincipalId u = *reg.CreateUser("u");
  PrincipalId g = *reg.CreateGroup("g");
  ASSERT_TRUE(reg.AddMember(g, u).ok());
  EXPECT_TRUE(reg.Closure(u)->Test(g.value));
  ASSERT_TRUE(reg.RemoveMember(g, u).ok());
  EXPECT_FALSE(reg.Closure(u)->Test(g.value));
  EXPECT_EQ(reg.RemoveMember(g, u).code(), StatusCode::kNotFound);
}

TEST(PrincipalRegistryTest, MembershipEpochBumpsOnMutation) {
  PrincipalRegistry reg;
  PrincipalId u = *reg.CreateUser("u");
  PrincipalId g = *reg.CreateGroup("g");
  uint64_t e0 = reg.membership_epoch();
  ASSERT_TRUE(reg.AddMember(g, u).ok());
  uint64_t e1 = reg.membership_epoch();
  EXPECT_GT(e1, e0);
  ASSERT_TRUE(reg.RemoveMember(g, u).ok());
  EXPECT_GT(reg.membership_epoch(), e1);
}

TEST(PrincipalRegistryTest, AuthenticationRoundTrip) {
  PrincipalRegistry reg;
  PrincipalId u = *reg.CreateUser("alice");
  ASSERT_TRUE(reg.SetCredential(u, "sesame").ok());
  auto ok = reg.Authenticate("alice", "sesame");
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, u);
  EXPECT_EQ(reg.Authenticate("alice", "wrong").status().code(),
            StatusCode::kPermissionDenied);
  EXPECT_EQ(reg.Authenticate("ghost", "x").status().code(), StatusCode::kNotFound);
}

TEST(PrincipalRegistryTest, NoCredentialMeansNoLogin) {
  PrincipalRegistry reg;
  (void)*reg.CreateUser("alice");
  EXPECT_EQ(reg.Authenticate("alice", "").status().code(), StatusCode::kPermissionDenied);
}

TEST(PrincipalRegistryTest, GroupsCannotAuthenticate) {
  PrincipalRegistry reg;
  PrincipalId g = *reg.CreateGroup("staff");
  EXPECT_EQ(reg.SetCredential(g, "x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(reg.Authenticate("staff", "x").status().code(), StatusCode::kInvalidArgument);
}

TEST(PrincipalRegistryTest, DiamondMembershipCountedOnce) {
  PrincipalRegistry reg;
  PrincipalId u = *reg.CreateUser("u");
  PrincipalId left = *reg.CreateGroup("left");
  PrincipalId right = *reg.CreateGroup("right");
  PrincipalId top = *reg.CreateGroup("top");
  ASSERT_TRUE(reg.AddMember(left, u).ok());
  ASSERT_TRUE(reg.AddMember(right, u).ok());
  ASSERT_TRUE(reg.AddMember(top, left).ok());
  ASSERT_TRUE(reg.AddMember(top, right).ok());
  auto closure = reg.Closure(u);
  EXPECT_EQ(closure->Count(), 4u);
  EXPECT_TRUE(closure->Test(top.value));
}

}  // namespace
}  // namespace xsec
