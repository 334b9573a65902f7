// Randomized end-to-end fuzzing of a full SecureSystem: a population of
// subjects at random classes performs random operations (file I/O, thread
// management, log appends, extension load/unload, ACL and label edits).
// Invariants checked throughout:
//
//   (1) no operation crashes or corrupts the system (every call returns a
//       Status; structural invariants of the name space hold afterwards);
//   (2) information-flow soundness: every *successful* fs read was performed
//       by a subject whose class dominates the file's effective label, and
//       every successful write/append targets a label dominating the writer;
//   (3) audit accounting: total checks = allows + denies, and the retained
//       denial records never exceed total denials.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/base/rng.h"
#include "src/core/secure_system.h"

namespace xsec {
namespace {

class KernelFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(KernelFuzzTest, RandomOperationStreamKeepsInvariants) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 7919 + 17);
  SecureSystem sys;
  sys.monitor().set_audit_policy(AuditPolicy::kDenialsOnly);
  (void)sys.labels().DefineLevels({"l0", "l1", "l2"});
  (void)sys.labels().DefineCategory("c0");
  (void)sys.labels().DefineCategory("c1");

  auto random_class = [&] {
    CategorySet cats(2);
    for (size_t c = 0; c < 2; ++c) {
      if (rng.NextBool(1, 2)) {
        cats.Set(c);
      }
    }
    return SecurityClass(static_cast<TrustLevel>(rng.NextBelow(3)), std::move(cats));
  };

  // Population.
  std::vector<Subject> subjects;
  std::vector<PrincipalId> users;
  for (int i = 0; i < 5; ++i) {
    PrincipalId user = *sys.CreateUser("fuzz-u" + std::to_string(i));
    users.push_back(user);
    subjects.push_back(sys.Login(user, random_class()));
  }
  // A communal directory everyone can write into (DAC-wise); labels vary.
  NodeId shared = *sys.name_space().BindPath("/fs/shared", NodeKind::kDirectory,
                                             sys.system_principal());
  Acl open_acl;
  open_acl.AddEntry({AclEntryType::kAllow, sys.everyone(), AccessModeSet::All()});
  (void)sys.name_space().SetAclRef(shared, sys.kernel().acls().Create(std::move(open_acl)));

  std::vector<std::string> files;
  std::vector<int64_t> threads;
  std::vector<ExtensionId> extensions;
  uint64_t flow_violations = 0;

  for (int op = 0; op < 1500; ++op) {
    Subject& subject = subjects[rng.NextBelow(subjects.size())];
    switch (rng.NextBelow(10)) {
      case 0: {  // create a file
        std::string path = "/fs/shared/f" + std::to_string(rng.NextBelow(20));
        auto node = sys.fs().Create(subject, path);
        if (node.ok()) {
          files.push_back(path);
        }
        break;
      }
      case 1: {  // read a file; verify flow on success
        if (files.empty()) {
          break;
        }
        const std::string& path = files[rng.NextBelow(files.size())];
        auto data = sys.fs().Read(subject, path);
        if (data.ok()) {
          auto node = sys.name_space().Lookup(path);
          if (node.ok()) {
            const SecurityClass& label = sys.monitor().EffectiveLabel(*node);
            if (!subject.security_class.Dominates(label)) {
              ++flow_violations;
            }
          }
        }
        break;
      }
      case 2: {  // write or append; verify the ⋆-property on success
        if (files.empty()) {
          break;
        }
        const std::string& path = files[rng.NextBelow(files.size())];
        bool append = rng.NextBool(1, 2);
        Status status = append ? sys.fs().Append(subject, path, {1, 2})
                               : sys.fs().Write(subject, path, {3, 4});
        if (status.ok()) {
          auto node = sys.name_space().Lookup(path);
          if (node.ok()) {
            const SecurityClass& label = sys.monitor().EffectiveLabel(*node);
            if (!label.Dominates(subject.security_class)) {
              ++flow_violations;
            }
          }
        }
        break;
      }
      case 3: {  // relabel a file through the monitor (must obey the rules)
        if (files.empty()) {
          break;
        }
        auto node = sys.name_space().Lookup(files[rng.NextBelow(files.size())]);
        if (node.ok()) {
          (void)sys.monitor().SetNodeLabel(subject, *node, random_class());
        }
        break;
      }
      case 4: {  // ACL edit through the monitor
        if (files.empty()) {
          break;
        }
        auto node = sys.name_space().Lookup(files[rng.NextBelow(files.size())]);
        if (node.ok()) {
          AclEntry entry{rng.NextBool(1, 3) ? AclEntryType::kDeny : AclEntryType::kAllow,
                         users[rng.NextBelow(users.size())],
                         AccessModeSet(static_cast<uint32_t>(rng.NextBelow(256)))};
          (void)sys.monitor().AddAclEntry(subject, *node, entry);
        }
        break;
      }
      case 5: {  // spawn a thread
        auto id = sys.threads().Spawn(subject, "t");
        if (id.ok()) {
          threads.push_back(*id);
        }
        break;
      }
      case 6: {  // try to kill a random thread (usually someone else's)
        if (!threads.empty()) {
          (void)sys.threads().Kill(subject, threads[rng.NextBelow(threads.size())]);
        }
        break;
      }
      case 7: {  // log traffic
        (void)sys.log().AppendEntry(subject, "fuzz");
        break;
      }
      case 8: {  // load an extension importing a random service procedure
        ExtensionManifest manifest;
        manifest.name = "fuzz-ext-" + std::to_string(op);
        manifest.imports = {rng.NextBool(1, 2) ? "/svc/mbuf/alloc" : "/svc/fs/read"};
        auto id = sys.LoadExtension(manifest, subject);
        if (id.ok()) {
          extensions.push_back(*id);
        }
        break;
      }
      case 9: {  // unload a random extension (often not ours: usually denied)
        if (!extensions.empty()) {
          size_t index = rng.NextBelow(extensions.size());
          if (sys.UnloadExtension(subject, extensions[index]).ok()) {
            extensions.erase(extensions.begin() + static_cast<ptrdiff_t>(index));
          }
        }
        break;
      }
    }
  }

  EXPECT_EQ(flow_violations, 0u) << "seed " << GetParam();

  // Audit accounting.
  const AuditLog& audit = sys.monitor().audit();
  EXPECT_GE(sys.monitor().stats().checks_total(), audit.total_denials());
  EXPECT_LE(audit.records().size() + audit.dropped(), audit.total_denials());

  // Structural sanity: every live node's parent is alive and lists it.
  NameSpace& ns = sys.name_space();
  for (uint32_t i = 0; i < ns.node_count(); ++i) {
    const Node* node = ns.Get(NodeId{i});
    if (node == nullptr || NodeId{i} == ns.root()) {
      continue;
    }
    const Node* parent = ns.Get(node->parent);
    ASSERT_NE(parent, nullptr) << "live node with dead parent";
    auto child = ns.Child(node->parent, node->name);
    ASSERT_TRUE(child.ok());
    EXPECT_EQ(*child, NodeId{i});
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelFuzzTest, ::testing::Range(0, 8));

}  // namespace
}  // namespace xsec
