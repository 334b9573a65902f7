// Additional property suites: dispatcher selection invariants, audit
// completeness, policy-serialization round-trips over random worlds, and the
// high-water-mark (floating label) extension.

#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "src/base/rng.h"
#include "src/extsys/dispatcher.h"
#include "src/monitor/reference_monitor.h"
#include "src/policy/policy_io.h"

namespace xsec {
namespace {

SecurityClass RandomClass(Rng& rng, size_t categories = 4, size_t levels = 3) {
  CategorySet cats(categories);
  for (size_t c = 0; c < categories; ++c) {
    if (rng.NextBool(1, 2)) {
      cats.Set(c);
    }
  }
  return SecurityClass(static_cast<TrustLevel>(rng.NextBelow(levels)), std::move(cats));
}

// ---- dispatcher selection invariants ----------------------------------------

class DispatcherPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(DispatcherPropertyTest, SelectionInvariants) {
  Rng rng(static_cast<uint64_t>(GetParam()) + 500);
  EventDispatcher dispatcher;
  NodeId iface{1};
  std::vector<SecurityClass> handler_classes;
  size_t n = 1 + rng.NextBelow(12);
  for (size_t i = 0; i < n; ++i) {
    SecurityClass cls = RandomClass(rng);
    handler_classes.push_back(cls);
    dispatcher.Register(iface, ExtensionId{static_cast<uint32_t>(i)}, cls,
                        [i](CallContext&) -> StatusOr<Value> {
                          return Value{static_cast<int64_t>(i)};
                        });
  }
  for (int trial = 0; trial < 30; ++trial) {
    SecurityClass caller = RandomClass(rng);
    std::vector<size_t> eligible;
    for (size_t i = 0; i < n; ++i) {
      if (caller.Dominates(handler_classes[i])) {
        eligible.push_back(i);
      }
    }
    auto selected = dispatcher.Select(iface, caller, DispatchMode::kClassSelected);
    auto broadcast = dispatcher.Select(iface, caller, DispatchMode::kBroadcast);
    if (eligible.empty()) {
      EXPECT_EQ(selected.status().code(), StatusCode::kPermissionDenied);
      EXPECT_EQ(broadcast.status().code(), StatusCode::kPermissionDenied);
      continue;
    }
    // Broadcast returns exactly the eligible set, in registration order.
    ASSERT_TRUE(broadcast.ok());
    ASSERT_EQ(broadcast->size(), eligible.size());
    for (size_t k = 0; k < eligible.size(); ++k) {
      EXPECT_EQ((*broadcast)[k]->extension.value, eligible[k]);
    }
    // Class-selected returns one eligible handler whose class no other
    // eligible handler strictly dominates (maximality).
    ASSERT_TRUE(selected.ok());
    ASSERT_EQ(selected->size(), 1u);
    size_t winner = selected->front()->extension.value;
    EXPECT_TRUE(caller.Dominates(handler_classes[winner]));
    for (size_t i : eligible) {
      EXPECT_FALSE(handler_classes[i].StrictlyDominates(handler_classes[winner]))
          << "handler " << i << " strictly dominates the selected " << winner;
    }
    // Determinism.
    auto again = dispatcher.Select(iface, caller, DispatchMode::kClassSelected);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again->front()->extension.value, winner);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DispatcherPropertyTest, ::testing::Range(0, 10));

// ---- audit completeness ------------------------------------------------------

TEST(AuditCompletenessTest, EveryDenialIsRetainedUnderDenialsOnly) {
  NameSpace ns;
  AclStore acls;
  PrincipalRegistry principals;
  LabelAuthority labels;
  MonitorOptions options;
  options.audit_policy = AuditPolicy::kDenialsOnly;
  options.audit_capacity = 1 << 14;
  ReferenceMonitor monitor(&ns, &acls, &principals, &labels, options);
  PrincipalId user = *principals.CreateUser("u");
  (void)labels.DefineLevels({"low", "high"});

  Rng rng(99);
  std::vector<NodeId> nodes;
  for (int i = 0; i < 10; ++i) {
    NodeId node = *ns.BindPath("/o/n" + std::to_string(i), NodeKind::kObject, PrincipalId{});
    if (rng.NextBool(1, 2)) {
      Acl acl;
      acl.AddEntry({AclEntryType::kAllow, user, AccessModeSet(AccessMode::kRead)});
      (void)ns.SetAclRef(node, acls.Create(std::move(acl)));
    }
    if (rng.NextBool(1, 2)) {
      (void)ns.SetLabelRef(node, labels.StoreLabel(SecurityClass(1, CategorySet(0))));
    }
    nodes.push_back(node);
  }
  Subject subject{user, labels.Bottom(), 1};
  uint64_t denials = 0;
  for (int round = 0; round < 50; ++round) {
    NodeId node = nodes[rng.NextBelow(nodes.size())];
    AccessModeSet modes(static_cast<AccessMode>(1u << rng.NextBelow(kAccessModeCount)));
    Decision d = monitor.Check(subject, node, modes);
    if (!d.allowed) {
      ++denials;
    }
  }
  EXPECT_EQ(monitor.stats().denied_total(), denials);
  EXPECT_EQ(monitor.audit().total_denials(), denials);
  EXPECT_EQ(monitor.audit().records().size(), denials);
  for (const AuditRecord& record : monitor.audit().records()) {
    EXPECT_FALSE(record.allowed);
    EXPECT_NE(record.reason, DenyReason::kNone);
    EXPECT_EQ(record.principal, user);
    EXPECT_FALSE(record.path.empty());
  }
}

// ---- policy round-trip over random worlds ------------------------------------

class PolicyRoundTripTest : public ::testing::TestWithParam<int> {};

TEST_P(PolicyRoundTripTest, SerializeLoadSerializeIsStable) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 31 + 5);
  Kernel source;
  (void)source.labels().DefineLevels({"l0", "l1", "l2"});
  (void)source.labels().DefineCategory("ca");
  (void)source.labels().DefineCategory("cb");
  std::vector<PrincipalId> principals;
  for (int i = 0; i < 4; ++i) {
    principals.push_back(*source.principals().CreateUser("u" + std::to_string(i)));
  }
  for (int i = 0; i < 2; ++i) {
    PrincipalId group = *source.principals().CreateGroup("g" + std::to_string(i));
    (void)source.principals().AddMember(group, principals[rng.NextBelow(4)]);
    principals.push_back(group);
  }
  // Clearances for a random subset, and sometimes a security officer — both
  // must survive the round-trip like everything else.
  for (int i = 0; i < 4; ++i) {
    if (rng.NextBool(1, 2)) {
      source.labels().SetClearance(principals[i].value, RandomClass(rng, 2, 3));
    }
  }
  if (rng.NextBool(1, 2)) {
    source.monitor().set_security_officer(principals[rng.NextBelow(4)]);
  }
  std::vector<NodeId> nodes{source.name_space().root()};
  for (int i = 0; i < 15; ++i) {
    NodeId parent = nodes[rng.NextBelow(nodes.size())];
    if (!KindAllowsChildren(source.name_space().Get(parent)->kind)) {
      continue;
    }
    NodeKind kind = static_cast<NodeKind>(rng.NextBelow(6));
    auto node = source.name_space().Bind(parent, "n" + std::to_string(i), kind,
                                         principals[rng.NextBelow(principals.size())]);
    if (!node.ok()) {
      continue;
    }
    nodes.push_back(*node);
    if (rng.NextBool(1, 2)) {
      Acl acl;
      // entries == 0 leaves an empty own ACL — the deny-all override case,
      // which serializes as "acl <path> none".
      size_t entries = rng.NextBelow(4);
      for (size_t e = 0; e < entries; ++e) {
        acl.AddEntry({rng.NextBool(1, 3) ? AclEntryType::kDeny : AclEntryType::kAllow,
                      principals[rng.NextBelow(principals.size())],
                      AccessModeSet(static_cast<uint32_t>(1 + rng.NextBelow(255)))});
      }
      (void)source.name_space().SetAclRef(*node, source.acls().Create(std::move(acl)));
    }
    if (rng.NextBool(1, 3)) {
      (void)source.name_space().SetLabelRef(
          *node, source.labels().StoreLabel(RandomClass(rng, 2, 3)));
    }
  }

  auto first = SerializePolicy(source);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  Kernel restored;
  ASSERT_TRUE(LoadPolicy(*first, &restored).ok()) << *first;
  auto second = SerializePolicy(restored);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(*first, *second);

  // The restored kernel agrees on clearances and the officer.
  for (int i = 0; i < 4; ++i) {
    const Principal* p = source.principals().Get(principals[i]);
    auto r_id = restored.principals().FindByName(p->name);
    ASSERT_TRUE(r_id.ok());
    const SecurityClass* src_clr = source.labels().ClearanceOf(principals[i].value);
    const SecurityClass* dst_clr = restored.labels().ClearanceOf(r_id->value);
    ASSERT_EQ(src_clr == nullptr, dst_clr == nullptr) << p->name;
    if (src_clr != nullptr) {
      EXPECT_TRUE(*src_clr == *dst_clr) << p->name;
    }
  }
  EXPECT_EQ(source.monitor().security_officer().valid(),
            restored.monitor().security_officer().valid());

  // Decisions agree on a sample of triples.
  for (int trial = 0; trial < 100; ++trial) {
    size_t pi = rng.NextBelow(principals.size());
    if (source.principals().Get(principals[pi])->kind != PrincipalKind::kUser) {
      continue;
    }
    NodeId node = nodes[rng.NextBelow(nodes.size())];
    SecurityClass cls = RandomClass(rng, 2, 3);
    AccessModeSet modes(static_cast<AccessMode>(1u << rng.NextBelow(kAccessModeCount)));
    Subject src_subject{principals[pi], cls, 1};
    auto restored_principal = restored.principals().FindByName(
        source.principals().Get(principals[pi])->name);
    ASSERT_TRUE(restored_principal.ok());
    auto restored_node = restored.name_space().Lookup(source.name_space().PathOf(node));
    ASSERT_TRUE(restored_node.ok());
    Subject dst_subject{*restored_principal, cls, 1};
    EXPECT_EQ(source.monitor().Check(src_subject, node, modes).allowed,
              restored.monitor().Check(dst_subject, *restored_node, modes).allowed);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PolicyRoundTripTest, ::testing::Range(0, 8));

// ---- floating (high-water-mark) labels ----------------------------------------

class FloatingLabelTest : public ::testing::Test {
 protected:
  FloatingLabelTest() {
    monitor_ = std::make_unique<ReferenceMonitor>(&ns_, &acls_, &principals_, &labels_,
                                                  MonitorOptions{
                                                      .audit_policy = AuditPolicy::kOff,
                                                  });
    user_ = *principals_.CreateUser("u");
    (void)labels_.DefineLevels({"low", "high"});
    (void)labels_.DefineCategory("a");
    low_file_ = MakeObject("/low", SecurityClass(0, CategorySet(1)));
    CategorySet a(1);
    a.Set(0);
    high_file_ = MakeObject("/high", SecurityClass(1, a));
  }

  NodeId MakeObject(std::string_view path, const SecurityClass& cls) {
    NodeId node = *ns_.BindPath(path, NodeKind::kFile, user_);
    Acl acl;
    acl.AddEntry({AclEntryType::kAllow, user_, AccessModeSet::All()});
    (void)ns_.SetAclRef(node, acls_.Create(std::move(acl)));
    (void)ns_.SetLabelRef(node, labels_.StoreLabel(cls));
    return node;
  }

  NameSpace ns_;
  AclStore acls_;
  PrincipalRegistry principals_;
  LabelAuthority labels_;
  std::unique_ptr<ReferenceMonitor> monitor_;
  PrincipalId user_;
  NodeId low_file_, high_file_;
};

TEST_F(FloatingLabelTest, SubjectFloatsUpOnRead) {
  CategorySet a(1);
  a.Set(0);
  Subject subject{user_, SecurityClass(1, a), 1};  // cleared for both files
  // Before reading anything, the subject (at high) may not write low.
  EXPECT_FALSE(monitor_->CheckFloating(&subject, low_file_, AccessMode::kWrite).allowed);
  // Reading high raises nothing (already at high).
  EXPECT_TRUE(monitor_->CheckFloating(&subject, high_file_, AccessMode::kRead).allowed);
  EXPECT_EQ(subject.security_class.level(), 1);
}

TEST_F(FloatingLabelTest, ReadThenWriteDownIsBlocked) {
  // The laundering sequence: start low, read low (fine), write low (fine);
  // then read high and try to write low again — the float blocks it.
  CategorySet a(1);
  a.Set(0);
  Subject subject{user_, SecurityClass(1, a), 1};
  Subject courier{user_, labels_.Bottom(), 2};
  EXPECT_TRUE(monitor_->CheckFloating(&courier, low_file_, AccessMode::kRead).allowed);
  EXPECT_TRUE(monitor_->CheckFloating(&courier, low_file_, AccessMode::kWrite).allowed);
  // The courier cannot read high yet (clearance): read-up denied, no float.
  EXPECT_FALSE(monitor_->CheckFloating(&courier, high_file_, AccessMode::kRead).allowed);
  EXPECT_TRUE(courier.security_class == labels_.Bottom());
  // A cleared subject that *does* read high floats and loses write-down.
  EXPECT_TRUE(monitor_->CheckFloating(&subject, high_file_, AccessMode::kRead).allowed);
  EXPECT_FALSE(monitor_->CheckFloating(&subject, low_file_, AccessMode::kWrite).allowed);
  // It can still append up and write at its floated level.
  EXPECT_TRUE(monitor_->CheckFloating(&subject, high_file_, AccessMode::kWrite).allowed);
}

TEST_F(FloatingLabelTest, DeniedAccessNeverFloats) {
  Subject subject{user_, labels_.Bottom(), 1};
  SecurityClass before = subject.security_class;
  EXPECT_FALSE(monitor_->CheckFloating(&subject, high_file_, AccessMode::kRead).allowed);
  EXPECT_TRUE(subject.security_class == before);
}

TEST_F(FloatingLabelTest, NonObservationModesNeverFloat) {
  CategorySet a(1);
  a.Set(0);
  Subject subject{user_, labels_.Bottom(), 1};
  // Appending up succeeds but must not raise the subject (no observation).
  EXPECT_TRUE(monitor_->CheckFloating(&subject, high_file_, AccessMode::kWriteAppend).allowed);
  EXPECT_TRUE(subject.security_class == labels_.Bottom());
}

}  // namespace
}  // namespace xsec
