#include "src/mac/security_class.h"

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

TEST(SecurityClassTest, DominanceRequiresLevelAndCategories) {
  EXPECT_TRUE(Cls(2, {0, 1}).Dominates(Cls(1, {0})));
  EXPECT_TRUE(Cls(1, {0}).Dominates(Cls(1, {0})));
  EXPECT_FALSE(Cls(0, {0, 1}).Dominates(Cls(1, {0})));    // level too low
  EXPECT_FALSE(Cls(2, {1}).Dominates(Cls(1, {0})));       // missing category
  EXPECT_TRUE(Cls(1, {0, 1, 2}).Dominates(Cls(0, {})));   // bottom dominated by all
}

TEST(SecurityClassTest, StrictDominance) {
  EXPECT_TRUE(Cls(2, {0}).StrictlyDominates(Cls(1, {0})));
  EXPECT_FALSE(Cls(1, {0}).StrictlyDominates(Cls(1, {0})));
}

TEST(SecurityClassTest, Incomparability) {
  // Same level, disjoint categories: the paper's department-1 vs department-2.
  SecurityClass dep1 = Cls(1, {1});
  SecurityClass dep2 = Cls(1, {2});
  EXPECT_TRUE(dep1.IncomparableWith(dep2));
  EXPECT_FALSE(dep1.Dominates(dep2));
  EXPECT_FALSE(dep2.Dominates(dep1));
  // The dual-label applet dominates both.
  SecurityClass both = Cls(1, {1, 2});
  EXPECT_TRUE(both.Dominates(dep1));
  EXPECT_TRUE(both.Dominates(dep2));
}

TEST(SecurityClassTest, JoinAndMeet) {
  SecurityClass a = Cls(1, {1});
  SecurityClass b = Cls(2, {2});
  SecurityClass join = a.Join(b);
  EXPECT_EQ(join.level(), 2);
  EXPECT_TRUE(join.categories().Test(1));
  EXPECT_TRUE(join.categories().Test(2));
  SecurityClass meet = a.Meet(b);
  EXPECT_EQ(meet.level(), 1);
  EXPECT_EQ(meet.categories().Count(), 0u);
}

TEST(SecurityClassTest, EqualityAndHash) {
  EXPECT_TRUE(Cls(1, {1, 3}) == Cls(1, {1, 3}));
  EXPECT_FALSE(Cls(1, {1}) == Cls(1, {2}));
  EXPECT_FALSE(Cls(1, {1}) == Cls(2, {1}));
  EXPECT_EQ(Cls(1, {1, 3}).Hash(), Cls(1, {1, 3}).Hash());
}

TEST(SecurityClassTest, ToString) {
  EXPECT_EQ(Cls(2, {0, 3}).ToString(), "(2,{0,3})");
}

// Lattice laws over random classes.
class LatticePropertyTest : public ::testing::TestWithParam<int> {
 protected:
  SecurityClass RandomClass(Rng& rng) {
    CategorySet cats(6);
    for (size_t c = 0; c < 6; ++c) {
      if (rng.NextBool(1, 2)) {
        cats.Set(c);
      }
    }
    return SecurityClass(static_cast<TrustLevel>(rng.NextBelow(4)), std::move(cats));
  }
};

TEST_P(LatticePropertyTest, PartialOrderLaws) {
  Rng rng(GetParam());
  for (int i = 0; i < 50; ++i) {
    SecurityClass a = RandomClass(rng), b = RandomClass(rng), c = RandomClass(rng);
    // Reflexivity.
    EXPECT_TRUE(a.Dominates(a));
    // Antisymmetry.
    if (a.Dominates(b) && b.Dominates(a)) {
      EXPECT_TRUE(a == b);
    }
    // Transitivity.
    if (a.Dominates(b) && b.Dominates(c)) {
      EXPECT_TRUE(a.Dominates(c));
    }
  }
}

TEST_P(LatticePropertyTest, JoinIsLeastUpperBound) {
  Rng rng(GetParam() + 100);
  for (int i = 0; i < 50; ++i) {
    SecurityClass a = RandomClass(rng), b = RandomClass(rng);
    SecurityClass join = a.Join(b);
    EXPECT_TRUE(join.Dominates(a));
    EXPECT_TRUE(join.Dominates(b));
    // Least: any other upper bound dominates the join.
    SecurityClass other = RandomClass(rng);
    if (other.Dominates(a) && other.Dominates(b)) {
      EXPECT_TRUE(other.Dominates(join));
    }
  }
}

TEST_P(LatticePropertyTest, MeetIsGreatestLowerBound) {
  Rng rng(GetParam() + 200);
  for (int i = 0; i < 50; ++i) {
    SecurityClass a = RandomClass(rng), b = RandomClass(rng);
    SecurityClass meet = a.Meet(b);
    EXPECT_TRUE(a.Dominates(meet));
    EXPECT_TRUE(b.Dominates(meet));
    SecurityClass other = RandomClass(rng);
    if (a.Dominates(other) && b.Dominates(other)) {
      EXPECT_TRUE(meet.Dominates(other));
    }
  }
}

TEST_P(LatticePropertyTest, JoinMeetAlgebra) {
  Rng rng(GetParam() + 300);
  for (int i = 0; i < 50; ++i) {
    SecurityClass a = RandomClass(rng), b = RandomClass(rng);
    // Commutativity.
    EXPECT_TRUE(a.Join(b) == b.Join(a));
    EXPECT_TRUE(a.Meet(b) == b.Meet(a));
    // Idempotence.
    EXPECT_TRUE(a.Join(a) == a);
    EXPECT_TRUE(a.Meet(a) == a);
    // Absorption.
    EXPECT_TRUE(a.Join(a.Meet(b)) == a);
    EXPECT_TRUE(a.Meet(a.Join(b)) == a);
    // Dominance characterization via join/meet.
    EXPECT_EQ(a.Dominates(b), a.Join(b) == a);
    EXPECT_EQ(a.Dominates(b), a.Meet(b) == b);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LatticePropertyTest, ::testing::Range(0, 10));

// Antisymmetry, pinned explicitly because FlowAllowedMask keys its
// administrate/strict-write rules off the S = O case: mutual dominance must
// coincide with operator== — including for equal classes whose category
// bitsets differ only in capacity, and for empty-category classes.
TEST(SecurityClassProperty, MutualDominanceIsEquality) {
  Rng rng(0xeec5);
  for (int i = 0; i < 400; ++i) {
    CategorySet ca(3 + rng.NextBelow(5)), cb(3 + rng.NextBelow(5));
    for (size_t c = 0; c < 3; ++c) {
      if (rng.NextBool(1, 2)) {
        ca.Set(c);
      }
      if (rng.NextBool(1, 2)) {
        cb.Set(c);
      }
    }
    SecurityClass a(static_cast<TrustLevel>(rng.NextBelow(3)), std::move(ca));
    SecurityClass b(static_cast<TrustLevel>(rng.NextBelow(3)), std::move(cb));
    EXPECT_EQ(a.Dominates(b) && b.Dominates(a), a == b);
    // The derived predicates must agree with the same partition: exactly one
    // of {equal, a strict, b strict, incomparable} holds.
    int buckets = (a == b ? 1 : 0) + (a.StrictlyDominates(b) ? 1 : 0) +
                  (b.StrictlyDominates(a) ? 1 : 0) + (a.IncomparableWith(b) ? 1 : 0);
    EXPECT_EQ(buckets, 1) << "partition violated at trial " << i;
  }
}

TEST(SecurityClassProperty, CapacityNeverAffectsEqualityOrDominance) {
  CategorySet narrow(1), wide(64);
  narrow.Set(0);
  wide.Set(0);
  SecurityClass a(2, std::move(narrow));
  SecurityClass b(2, std::move(wide));
  EXPECT_EQ(a, b);
  EXPECT_TRUE(a.Dominates(b) && b.Dominates(a));
  EXPECT_FALSE(a.StrictlyDominates(b));
  EXPECT_FALSE(a.IncomparableWith(b));
  // Empty category sets of any capacity are one lattice point per level.
  SecurityClass e0(1, CategorySet(0)), e1(1, CategorySet(17));
  EXPECT_EQ(e0, e1);
  EXPECT_TRUE(e0.Dominates(e1) && e1.Dominates(e0));
}

}  // namespace
}  // namespace xsec
