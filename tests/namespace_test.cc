#include "src/naming/namespace.h"

#include <gtest/gtest.h>

namespace xsec {
namespace {

PrincipalId Owner() { return PrincipalId{0}; }

TEST(NameSpaceTest, RootExists) {
  NameSpace ns;
  const Node* root = ns.Get(ns.root());
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->kind, NodeKind::kDirectory);
  EXPECT_EQ(ns.PathOf(ns.root()), "/");
  EXPECT_EQ(ns.node_count(), 1u);
}

TEST(NameSpaceTest, BindAndLookup) {
  NameSpace ns;
  auto svc = ns.Bind(ns.root(), "svc", NodeKind::kDirectory, Owner());
  ASSERT_TRUE(svc.ok());
  auto fs = ns.Bind(*svc, "fs", NodeKind::kService, Owner());
  ASSERT_TRUE(fs.ok());
  auto read = ns.Bind(*fs, "read", NodeKind::kProcedure, Owner());
  ASSERT_TRUE(read.ok());

  auto looked = ns.Lookup("/svc/fs/read");
  ASSERT_TRUE(looked.ok());
  EXPECT_EQ(*looked, *read);
  EXPECT_EQ(ns.PathOf(*read), "/svc/fs/read");
  EXPECT_EQ(ns.Get(*read)->kind, NodeKind::kProcedure);
}

TEST(NameSpaceTest, BindPathCreatesIntermediates) {
  NameSpace ns;
  auto node = ns.BindPath("/a/b/c/leaf", NodeKind::kFile, Owner());
  ASSERT_TRUE(node.ok());
  EXPECT_TRUE(ns.Lookup("/a").ok());
  EXPECT_TRUE(ns.Lookup("/a/b").ok());
  EXPECT_EQ(ns.Get(*ns.Lookup("/a/b"))->kind, NodeKind::kDirectory);
  EXPECT_EQ(ns.PathOf(*node), "/a/b/c/leaf");
}

TEST(NameSpaceTest, BindPathReusesExisting) {
  NameSpace ns;
  ASSERT_TRUE(ns.BindPath("/a/b/one", NodeKind::kFile, Owner()).ok());
  ASSERT_TRUE(ns.BindPath("/a/b/two", NodeKind::kFile, Owner()).ok());
  auto children = ns.List(*ns.Lookup("/a/b"));
  ASSERT_TRUE(children.ok());
  EXPECT_EQ(children->size(), 2u);
}

TEST(NameSpaceTest, DuplicateBindRejected) {
  NameSpace ns;
  ASSERT_TRUE(ns.Bind(ns.root(), "x", NodeKind::kDirectory, Owner()).ok());
  EXPECT_EQ(ns.Bind(ns.root(), "x", NodeKind::kFile, Owner()).status().code(),
            StatusCode::kAlreadyExists);
}

TEST(NameSpaceTest, LeavesCannotHaveChildren) {
  NameSpace ns;
  auto file = ns.Bind(ns.root(), "f", NodeKind::kFile, Owner());
  ASSERT_TRUE(file.ok());
  EXPECT_EQ(ns.Bind(*file, "child", NodeKind::kFile, Owner()).status().code(),
            StatusCode::kFailedPrecondition);
  auto proc = ns.Bind(ns.root(), "p", NodeKind::kProcedure, Owner());
  ASSERT_TRUE(proc.ok());
  EXPECT_FALSE(ns.Bind(*proc, "child", NodeKind::kFile, Owner()).ok());
}

TEST(NameSpaceTest, InvalidNamesRejected) {
  NameSpace ns;
  EXPECT_EQ(ns.Bind(ns.root(), "", NodeKind::kFile, Owner()).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(ns.Bind(ns.root(), "a/b", NodeKind::kFile, Owner()).ok());
  EXPECT_FALSE(ns.Bind(ns.root(), "..", NodeKind::kFile, Owner()).ok());
}

TEST(NameSpaceTest, LookupMissing) {
  NameSpace ns;
  EXPECT_EQ(ns.Lookup("/missing").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(ns.Lookup("bad-path").status().code(), StatusCode::kInvalidArgument);
}

TEST(NameSpaceTest, UnbindLeaf) {
  NameSpace ns;
  auto f = ns.BindPath("/a/f", NodeKind::kFile, Owner());
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE(ns.Unbind(*f).ok());
  EXPECT_EQ(ns.Lookup("/a/f").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(ns.Get(*f), nullptr);
  // The name can be rebound afterwards; a new id is issued.
  auto f2 = ns.BindPath("/a/f", NodeKind::kFile, Owner());
  ASSERT_TRUE(f2.ok());
  EXPECT_NE(*f2, *f);
}

TEST(NameSpaceTest, UnbindNonEmptyRejected) {
  NameSpace ns;
  ASSERT_TRUE(ns.BindPath("/a/f", NodeKind::kFile, Owner()).ok());
  EXPECT_EQ(ns.Unbind(*ns.Lookup("/a")).code(), StatusCode::kFailedPrecondition);
}

TEST(NameSpaceTest, UnbindRootRejected) {
  NameSpace ns;
  EXPECT_EQ(ns.Unbind(ns.root()).code(), StatusCode::kFailedPrecondition);
}

TEST(NameSpaceTest, ListIsSortedByName) {
  NameSpace ns;
  ASSERT_TRUE(ns.Bind(ns.root(), "zeta", NodeKind::kFile, Owner()).ok());
  ASSERT_TRUE(ns.Bind(ns.root(), "alpha", NodeKind::kFile, Owner()).ok());
  ASSERT_TRUE(ns.Bind(ns.root(), "mid", NodeKind::kFile, Owner()).ok());
  auto children = ns.List(ns.root());
  ASSERT_TRUE(children.ok());
  ASSERT_EQ(children->size(), 3u);
  EXPECT_EQ(ns.Get((*children)[0])->name, "alpha");
  EXPECT_EQ(ns.Get((*children)[1])->name, "mid");
  EXPECT_EQ(ns.Get((*children)[2])->name, "zeta");
}

TEST(NameSpaceTest, LookupWithAncestorsReportsChain) {
  NameSpace ns;
  auto leaf = ns.BindPath("/a/b/c", NodeKind::kFile, Owner());
  ASSERT_TRUE(leaf.ok());
  AncestorBuffer ancestors;
  auto node = ns.LookupWithAncestors("/a/b/c", &ancestors);
  EXPECT_FALSE(ancestors.spilled());
  ASSERT_TRUE(node.ok());
  ASSERT_EQ(ancestors.size(), 3u);
  EXPECT_EQ(ancestors[0], ns.root());
  EXPECT_EQ(ns.PathOf(ancestors[1]), "/a");
  EXPECT_EQ(ns.PathOf(ancestors[2]), "/a/b");
}

TEST(NameSpaceTest, GenerationsAdvanceOnMutation) {
  NameSpace ns;
  // A top-level leaf's domain is its owner's shard.
  const ShardId shard = ShardOfPrincipal(Owner().value);
  uint64_t g0 = ns.shard_generation(shard);
  auto node = ns.BindPath("/x", NodeKind::kFile, Owner());
  ASSERT_TRUE(node.ok());
  ASSERT_EQ(ns.ShardOf(*node), shard);
  uint64_t g1 = ns.shard_generation(shard);
  EXPECT_GT(g1, g0);
  ASSERT_TRUE(ns.SetAclRef(*node, 5).ok());
  uint64_t g2 = ns.shard_generation(shard);
  EXPECT_GT(g2, g1);
  ASSERT_TRUE(ns.SetLabelRef(*node, 3).ok());
  EXPECT_GT(ns.shard_generation(shard), g2);
}

TEST(NameSpaceTest, SecurityMetadataRoundTrip) {
  NameSpace ns;
  auto node = ns.BindPath("/x", NodeKind::kObject, Owner());
  ASSERT_TRUE(node.ok());
  EXPECT_EQ(ns.Get(*node)->acl_ref, kNoRef);
  EXPECT_EQ(ns.Get(*node)->label_ref, kNoRef);
  ASSERT_TRUE(ns.SetAclRef(*node, 7).ok());
  ASSERT_TRUE(ns.SetLabelRef(*node, 9).ok());
  ASSERT_TRUE(ns.SetOwner(*node, PrincipalId{42}).ok());
  EXPECT_EQ(ns.Get(*node)->acl_ref, 7u);
  EXPECT_EQ(ns.Get(*node)->label_ref, 9u);
  EXPECT_EQ(ns.Get(*node)->owner.value, 42u);
}

TEST(NameSpaceTest, MetadataOnDeadNodeFails) {
  NameSpace ns;
  auto node = ns.BindPath("/x", NodeKind::kFile, Owner());
  ASSERT_TRUE(ns.Unbind(*node).ok());
  EXPECT_EQ(ns.SetAclRef(*node, 1).code(), StatusCode::kNotFound);
  EXPECT_EQ(ns.SetLabelRef(*node, 1).code(), StatusCode::kNotFound);
  EXPECT_EQ(ns.SetOwner(*node, Owner()).code(), StatusCode::kNotFound);
}

TEST(NameSpaceTest, KindPredicates) {
  EXPECT_TRUE(KindAllowsChildren(NodeKind::kDirectory));
  EXPECT_TRUE(KindAllowsChildren(NodeKind::kService));
  EXPECT_TRUE(KindAllowsChildren(NodeKind::kInterface));
  EXPECT_TRUE(KindAllowsChildren(NodeKind::kObject));
  EXPECT_FALSE(KindAllowsChildren(NodeKind::kProcedure));
  EXPECT_FALSE(KindAllowsChildren(NodeKind::kFile));
}

TEST(NameSpaceTest, DeepHierarchyPathReconstruction) {
  NameSpace ns;
  std::string path;
  for (int i = 0; i < 20; ++i) {
    path += "/d" + std::to_string(i);
  }
  auto node = ns.BindPath(path, NodeKind::kDirectory, Owner());
  ASSERT_TRUE(node.ok());
  EXPECT_EQ(ns.PathOf(*node), path);
}

}  // namespace
}  // namespace xsec
