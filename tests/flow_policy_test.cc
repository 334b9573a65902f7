#include "src/mac/flow_policy.h"

#include <gtest/gtest.h>

#include "src/base/rng.h"

namespace xsec {
namespace {

SecurityClass Cls(TrustLevel level, std::initializer_list<size_t> cats) {
  CategorySet set(8);
  for (size_t c : cats) {
    set.Set(c);
  }
  return SecurityClass(level, std::move(set));
}

class FlowPolicyTest : public ::testing::Test {
 protected:
  FlowPolicy strict_{FlowPolicyOptions{.write_up_requires_append = true}};
  FlowPolicy lax_{FlowPolicyOptions{.write_up_requires_append = false}};
  SecurityClass low_ = Cls(0, {});
  SecurityClass mid1_ = Cls(1, {1});
  SecurityClass mid2_ = Cls(1, {2});
  SecurityClass high_ = Cls(2, {1, 2});
};

TEST_F(FlowPolicyTest, ReadRequiresSubjectDominates) {
  EXPECT_TRUE(strict_.ModeAllowed(high_, mid1_, AccessMode::kRead));   // read down
  EXPECT_TRUE(strict_.ModeAllowed(mid1_, mid1_, AccessMode::kRead));   // read level
  EXPECT_FALSE(strict_.ModeAllowed(mid1_, high_, AccessMode::kRead));  // read up
  EXPECT_FALSE(strict_.ModeAllowed(mid1_, mid2_, AccessMode::kRead));  // incomparable
}

TEST_F(FlowPolicyTest, ListAndExecuteFollowReadRule) {
  for (AccessMode mode : {AccessMode::kList, AccessMode::kExecute}) {
    EXPECT_TRUE(strict_.ModeAllowed(high_, low_, mode));
    EXPECT_FALSE(strict_.ModeAllowed(low_, high_, mode));
  }
}

TEST_F(FlowPolicyTest, AppendFollowsStarProperty) {
  EXPECT_TRUE(strict_.ModeAllowed(low_, high_, AccessMode::kWriteAppend));   // append up
  EXPECT_TRUE(strict_.ModeAllowed(mid1_, mid1_, AccessMode::kWriteAppend));  // same level
  EXPECT_FALSE(strict_.ModeAllowed(high_, low_, AccessMode::kWriteAppend));  // append down
  EXPECT_FALSE(strict_.ModeAllowed(mid1_, mid2_, AccessMode::kWriteAppend));
}

TEST_F(FlowPolicyTest, ExtendFollowsReadRule) {
  // Extend follows the read rule so that handlers of different classes can
  // coexist on one interface (paper §2.2); flow control happens at dispatch.
  EXPECT_TRUE(strict_.ModeAllowed(high_, mid1_, AccessMode::kExtend));
  EXPECT_TRUE(strict_.ModeAllowed(mid1_, mid1_, AccessMode::kExtend));
  EXPECT_FALSE(strict_.ModeAllowed(low_, high_, AccessMode::kExtend));
  EXPECT_FALSE(strict_.ModeAllowed(mid1_, mid2_, AccessMode::kExtend));
}

TEST_F(FlowPolicyTest, StrictWriteRequiresEquality) {
  // The paper's parenthetical: blind overwrites up are forbidden; only
  // write-append flows up.
  EXPECT_FALSE(strict_.ModeAllowed(low_, high_, AccessMode::kWrite));
  EXPECT_TRUE(strict_.ModeAllowed(mid1_, mid1_, AccessMode::kWrite));
  EXPECT_FALSE(strict_.ModeAllowed(high_, low_, AccessMode::kWrite));  // write down never
  EXPECT_FALSE(strict_.ModeAllowed(low_, high_, AccessMode::kDelete));
  EXPECT_TRUE(strict_.ModeAllowed(mid1_, mid1_, AccessMode::kDelete));
}

TEST_F(FlowPolicyTest, LaxWriteAllowsWriteUp) {
  EXPECT_TRUE(lax_.ModeAllowed(low_, high_, AccessMode::kWrite));
  EXPECT_FALSE(lax_.ModeAllowed(high_, low_, AccessMode::kWrite));
  EXPECT_TRUE(lax_.ModeAllowed(low_, high_, AccessMode::kDelete));
}

TEST_F(FlowPolicyTest, AdministrateRequiresEquality) {
  EXPECT_TRUE(strict_.ModeAllowed(mid1_, mid1_, AccessMode::kAdministrate));
  EXPECT_FALSE(strict_.ModeAllowed(high_, mid1_, AccessMode::kAdministrate));
  EXPECT_FALSE(strict_.ModeAllowed(mid1_, high_, AccessMode::kAdministrate));
}

TEST_F(FlowPolicyTest, CheckReportsFirstViolatingMode) {
  FlowVerdict v = strict_.Check(low_, high_, AccessMode::kRead | AccessMode::kWriteAppend);
  EXPECT_FALSE(v.allowed);
  ASSERT_TRUE(v.violating_mode.has_value());
  EXPECT_EQ(*v.violating_mode, AccessMode::kRead);
  EXPECT_EQ(v.ToString(), "flow-violation(read)");
}

TEST_F(FlowPolicyTest, CheckAllowsCompatibleSets) {
  FlowVerdict v = strict_.Check(mid1_, mid1_,
                                AccessMode::kRead | AccessMode::kWrite | AccessMode::kList);
  EXPECT_TRUE(v.allowed);
  EXPECT_FALSE(v.violating_mode.has_value());
  EXPECT_EQ(v.ToString(), "flow-ok");
  EXPECT_TRUE(strict_.Check(mid1_, mid1_, AccessModeSet::None()).allowed);
}

// Property: no mode ever permits an information flow outside the lattice.
// Observation flows (read/list/execute) need S ⊒ O; modification flows need
// O ⊒ S; both strict and lax policies must satisfy this.
class FlowSoundnessTest : public ::testing::TestWithParam<int> {};

TEST_P(FlowSoundnessTest, AllDecisionsRespectLattice) {
  Rng rng(GetParam());
  FlowPolicy policies[] = {FlowPolicy{FlowPolicyOptions{true}},
                           FlowPolicy{FlowPolicyOptions{false}}};
  for (int i = 0; i < 200; ++i) {
    CategorySet cs(5), co(5);
    for (size_t c = 0; c < 5; ++c) {
      if (rng.NextBool(1, 2)) {
        cs.Set(c);
      }
      if (rng.NextBool(1, 2)) {
        co.Set(c);
      }
    }
    SecurityClass subject(static_cast<TrustLevel>(rng.NextBelow(3)), cs);
    SecurityClass object(static_cast<TrustLevel>(rng.NextBelow(3)), co);
    for (const FlowPolicy& policy : policies) {
      for (AccessMode mode : {AccessMode::kRead, AccessMode::kList,
                              AccessMode::kExecute, AccessMode::kExtend}) {
        if (policy.ModeAllowed(subject, object, mode)) {
          EXPECT_TRUE(subject.Dominates(object));
        }
      }
      for (AccessMode mode :
           {AccessMode::kWrite, AccessMode::kWriteAppend, AccessMode::kDelete}) {
        if (policy.ModeAllowed(subject, object, mode)) {
          EXPECT_TRUE(object.Dominates(subject));
        }
      }
      if (policy.ModeAllowed(subject, object, AccessMode::kAdministrate)) {
        EXPECT_TRUE(subject == object);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlowSoundnessTest, ::testing::Range(0, 10));

// FlowAllowedMask is the truth table FlowPolicy evaluates; pin all four
// dominance-bit combinations for both option settings, with special
// attention to the S = O double-dominance column (administrate, strict
// write/delete).
TEST(FlowAllowedMaskTest, TruthTableIsExhaustive) {
  for (bool strict : {true, false}) {
    FlowPolicyOptions options;
    options.write_up_requires_append = strict;
    const AccessModeSet observe =
        AccessMode::kRead | AccessMode::kList | AccessMode::kExecute | AccessMode::kExtend;

    // Incomparable: nothing flows.
    EXPECT_EQ(FlowAllowedMask(false, false, options).bits(), 0u);
    // S strictly above O: observation only.
    EXPECT_EQ(FlowAllowedMask(true, false, options), observe);
    // O strictly above S: write-up; destructive writes only when permissive.
    AccessModeSet up(AccessMode::kWriteAppend);
    if (!strict) {
      up |= AccessMode::kWrite | AccessMode::kDelete;
    }
    EXPECT_EQ(FlowAllowedMask(false, true, options), up);
    // S = O: everything, in both settings.
    EXPECT_EQ(FlowAllowedMask(true, true, options), AccessModeSet::All());
  }
}

TEST(FlowAllowedMaskTest, EqualClassesGetTheFullMask) {
  // The historical hazard: S = O reaches Check as two separate Dominates
  // calls; equal classes (including empty-category and capacity-skewed
  // pairs) must land in the S = O column, never the incomparable one.
  FlowPolicy flow{FlowPolicyOptions{true}};
  CategorySet a(2), b(40);
  a.Set(1);
  b.Set(1);
  SecurityClass s(1, std::move(a)), o(1, std::move(b));
  ASSERT_EQ(s, o);
  for (size_t bit = 0; bit < kAccessModeCount; ++bit) {
    EXPECT_TRUE(flow.ModeAllowed(s, o, static_cast<AccessMode>(uint32_t{1} << bit)));
  }
  EXPECT_TRUE(flow.Check(s, o, AccessModeSet::All()).allowed);
}

}  // namespace
}  // namespace xsec
