#include "src/mac/label_authority.h"

#include <gtest/gtest.h>

namespace xsec {
namespace {

TEST(LabelAuthorityTest, ImplicitSingleLevelByDefault) {
  LabelAuthority auth;
  EXPECT_EQ(auth.level_count(), 1u);
  auto level = auth.LevelByName("unclassified");
  ASSERT_TRUE(level.ok());
  EXPECT_EQ(*level, 0);
}

TEST(LabelAuthorityTest, DefineLevelsAscending) {
  LabelAuthority auth;
  ASSERT_TRUE(auth.DefineLevels({"others", "organization", "local"}).ok());
  EXPECT_EQ(auth.level_count(), 3u);
  EXPECT_EQ(*auth.LevelByName("others"), 0);
  EXPECT_EQ(*auth.LevelByName("organization"), 1);
  EXPECT_EQ(*auth.LevelByName("local"), 2);
  EXPECT_EQ(auth.LevelByName("bogus").status().code(), StatusCode::kNotFound);
}

TEST(LabelAuthorityTest, DefineLevelsOnlyOnce) {
  LabelAuthority auth;
  ASSERT_TRUE(auth.DefineLevels({"a", "b"}).ok());
  EXPECT_EQ(auth.DefineLevels({"x"}).code(), StatusCode::kFailedPrecondition);
}

TEST(LabelAuthorityTest, DefineLevelsValidation) {
  LabelAuthority auth;
  EXPECT_EQ(auth.DefineLevels({}).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(auth.DefineLevels({"a", "a"}).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(auth.DefineLevels({""}).code(), StatusCode::kInvalidArgument);
}

TEST(LabelAuthorityTest, Categories) {
  LabelAuthority auth;
  auto c0 = auth.DefineCategory("myself");
  auto c1 = auth.DefineCategory("department-1");
  ASSERT_TRUE(c0.ok());
  ASSERT_TRUE(c1.ok());
  EXPECT_EQ(*c0, 0u);
  EXPECT_EQ(*c1, 1u);
  EXPECT_EQ(auth.category_count(), 2u);
  EXPECT_EQ(auth.DefineCategory("myself").status().code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(*auth.CategoryByName("department-1"), 1u);
  EXPECT_EQ(auth.CategoryByName("nope").status().code(), StatusCode::kNotFound);
}

TEST(LabelAuthorityTest, MakeClass) {
  LabelAuthority auth;
  ASSERT_TRUE(auth.DefineLevels({"others", "organization", "local"}).ok());
  (void)*auth.DefineCategory("myself");
  (void)*auth.DefineCategory("department-1");
  auto cls = auth.MakeClass("organization", {"department-1"});
  ASSERT_TRUE(cls.ok());
  EXPECT_EQ(cls->level(), 1);
  EXPECT_TRUE(cls->categories().Test(1));
  EXPECT_FALSE(cls->categories().Test(0));
  EXPECT_FALSE(auth.MakeClass("bogus", {}).ok());
  EXPECT_FALSE(auth.MakeClass("local", {"bogus"}).ok());
}

TEST(LabelAuthorityTest, TopAndBottom) {
  LabelAuthority auth;
  ASSERT_TRUE(auth.DefineLevels({"low", "high"}).ok());
  (void)*auth.DefineCategory("a");
  (void)*auth.DefineCategory("b");
  SecurityClass top = auth.Top();
  SecurityClass bottom = auth.Bottom();
  EXPECT_TRUE(top.Dominates(bottom));
  EXPECT_FALSE(bottom.Dominates(top));
  EXPECT_EQ(top.level(), 1);
  EXPECT_EQ(top.categories().Count(), 2u);
  EXPECT_EQ(bottom.level(), 0);
  EXPECT_EQ(bottom.categories().Count(), 0u);
  // Everything sits between bottom and top.
  auto mid = auth.MakeClass("high", {"a"});
  EXPECT_TRUE(top.Dominates(*mid));
  EXPECT_TRUE(mid->Dominates(bottom));
}

TEST(LabelAuthorityTest, ClassToStringUsesNames) {
  LabelAuthority auth;
  ASSERT_TRUE(auth.DefineLevels({"others", "organization", "local"}).ok());
  (void)*auth.DefineCategory("myself");
  (void)*auth.DefineCategory("department-1");
  auto cls = auth.MakeClass("organization", {"myself", "department-1"});
  EXPECT_EQ(auth.ClassToString(*cls), "organization:{myself,department-1}");
  EXPECT_EQ(auth.ClassToString(auth.Bottom()), "others:{}");
}

TEST(LabelAuthorityTest, LabelStorage) {
  LabelAuthority auth;
  ASSERT_TRUE(auth.DefineLevels({"low", "high"}).ok());
  (void)*auth.DefineCategory("a");
  // Storing a label moves no epoch: no node references it yet.
  uint64_t e0 = auth.shard_epoch(0);
  uint64_t r0 = auth.shard_epoch(kAllShards);
  LabelAuthority::LabelRef ref = auth.StoreLabel(*auth.MakeClass("high", {"a"}));
  EXPECT_EQ(auth.shard_epoch(0), e0);
  EXPECT_EQ(auth.shard_epoch(kAllShards), r0);
  ASSERT_NE(auth.GetLabel(ref), nullptr);
  EXPECT_EQ(auth.GetLabel(ref)->level(), 1);
  EXPECT_EQ(auth.GetLabel(9999), nullptr);

  // Replacing an untagged label moves every domain's epoch.
  ASSERT_TRUE(auth.ReplaceLabel(ref, auth.Bottom()).ok());
  EXPECT_GT(auth.shard_epoch(0), e0);
  EXPECT_GT(auth.shard_epoch(kAllShards), r0);
  EXPECT_EQ(auth.GetLabel(ref)->level(), 0);
  EXPECT_EQ(auth.ReplaceLabel(9999, auth.Bottom()).code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace xsec
