#include <gtest/gtest.h>

#include "common/rng.h"
#include "corropt/fast_checker.h"
#include "corropt/path_counter.h"
#include "example_topologies.h"
#include "topology/fat_tree.h"
#include "topology/xgft.h"

namespace corropt::core {
namespace {

TEST(FastChecker, DisablesWhenCapacityPermits) {
  auto topo = topology::build_fat_tree(4);
  CapacityConstraint constraint(0.5);  // Each ToR may lose half its paths.
  LivePathCounts path_counts(topo);
  FastChecker checker(topo, path_counts, constraint);
  const auto tor = topo.tors().front();
  const auto uplinks = topo.switch_at(tor).uplinks;
  EXPECT_TRUE(checker.try_disable(uplinks[0]));  // 2/4 left: OK.
  EXPECT_FALSE(checker.try_disable(uplinks[1]));  // 0/4 left: refused.
  EXPECT_FALSE(topo.is_enabled(uplinks[0]));
  EXPECT_TRUE(topo.is_enabled(uplinks[1]));
}

TEST(FastChecker, IdempotentOnDisabledLinks) {
  auto topo = topology::build_fat_tree(4);
  CapacityConstraint constraint(0.5);
  LivePathCounts path_counts(topo);
  FastChecker checker(topo, path_counts, constraint);
  const auto link = topo.switch_at(topo.tors().front()).uplinks[0];
  EXPECT_TRUE(checker.try_disable(link));
  EXPECT_TRUE(checker.try_disable(link));
  EXPECT_EQ(topo.enabled_link_count(), topo.link_count() - 1);
}

TEST(FastChecker, ConsidersRemoteTors) {
  // An aggregation uplink affects every ToR in the pod; the fast checker
  // must account for ToRs that are not adjacent to the link.
  auto topo = topology::build_fat_tree(4);
  CapacityConstraint constraint(0.75);  // Each ToR needs 3 of 4 paths.
  LivePathCounts path_counts(topo);
  FastChecker checker(topo, path_counts, constraint);
  const auto tor = topo.tors().front();
  // Disable one ToR uplink elsewhere first... the pod ToR is at 4/4 now;
  // one agg-spine uplink in the pod removes 1 path from both pod ToRs.
  const auto agg = topo.link_at(topo.switch_at(tor).uplinks[0]).upper;
  const auto agg_uplinks = topo.switch_at(agg).uplinks;
  EXPECT_TRUE(checker.try_disable(agg_uplinks[0]));  // 3/4 for pod ToRs.
  // A second agg uplink in the same pod would leave them at 2/4 < 75%.
  const auto other_agg = topo.link_at(topo.switch_at(tor).uplinks[1]).upper;
  EXPECT_FALSE(checker.try_disable(topo.switch_at(other_agg).uplinks[0]));
}

TEST(FastChecker, CanDisableDoesNotMutate) {
  auto topo = topology::build_fat_tree(4);
  CapacityConstraint constraint(0.5);
  LivePathCounts path_counts(topo);
  FastChecker checker(topo, path_counts, constraint);
  const auto link = topo.switch_at(topo.tors().front()).uplinks[0];
  EXPECT_TRUE(checker.can_disable(link));
  EXPECT_TRUE(topo.is_enabled(link));
  EXPECT_EQ(topo.enabled_link_count(), topo.link_count());
}

TEST(FastChecker, BeatsSwitchLocalOnFig10Example) {
  // On the Figure 10 topology the fast checker (global view) disables
  // every corrupting link that keeps T at >= 60% of its 25 paths.
  testing::Fig10Example ex = testing::make_fig10_example();
  CapacityConstraint constraint(0.6);
  LivePathCounts path_counts(ex.topo);
  FastChecker checker(ex.topo, path_counts, constraint);
  std::size_t disabled = 0;
  for (common::LinkId link : ex.corrupting) {
    if (checker.try_disable(link)) ++disabled;
  }
  // Greedy in arrival order: T-A (20 paths), T-B (15), then A's and B's
  // uplinks cost nothing (already unreachable), then C's would drop below
  // 15 and are refused: 12 disabled, matching the optimum here.
  EXPECT_EQ(disabled, 12u);
  PathCounter counter(ex.topo);
  EXPECT_TRUE(counter.feasible(counter.up_paths(), constraint));
  EXPECT_EQ(counter.up_paths()[ex.tor.index()], 15u);
}

class FastCheckerPropertyTest : public ::testing::TestWithParam<int> {};

// Property: the fast checker never violates any ToR's capacity
// constraint, and its decision agrees with an independent feasibility
// check computed via brute-force path enumeration.
TEST_P(FastCheckerPropertyTest, NeverViolatesConstraint) {
  common::Rng rng(static_cast<std::uint64_t>(GetParam()) * 977 + 5);
  topology::XgftSpec spec;
  const int height = 2 + static_cast<int>(rng.uniform_index(2));
  for (int i = 0; i < height; ++i) {
    spec.children_per_node.push_back(
        1 + static_cast<int>(rng.uniform_index(3)));
    spec.parents_per_node.push_back(
        2 + static_cast<int>(rng.uniform_index(2)));
  }
  auto topo = topology::build_xgft(spec);
  const double fraction = rng.uniform(0.3, 0.9);
  CapacityConstraint constraint(fraction);
  LivePathCounts path_counts(topo);
  FastChecker checker(topo, path_counts, constraint);
  PathCounter counter(topo);

  for (int step = 0; step < 40; ++step) {
    const common::LinkId link(static_cast<common::LinkId::underlying_type>(
        rng.uniform_index(topo.link_count())));
    // Independent prediction of feasibility via brute force.
    LinkMask mask(topo.link_count());
    mask.set(link.index());
    bool expect_ok = true;
    for (common::SwitchId tor : topo.tors()) {
      const auto paths = count_paths_brute_force(topo, tor, &mask);
      if (paths < constraint.min_paths(
                       tor, counter.design_paths()[tor.index()])) {
        expect_ok = false;
        break;
      }
    }
    const bool was_enabled = topo.is_enabled(link);
    const bool disabled = checker.try_disable(link);
    if (was_enabled) {
      EXPECT_EQ(disabled, expect_ok) << "seed " << GetParam();
    }
    // Invariant: the network is always feasible after the checker acts.
    EXPECT_TRUE(counter.feasible(counter.up_paths(), constraint));
  }
}

INSTANTIATE_TEST_SUITE_P(Random, FastCheckerPropertyTest,
                         ::testing::Range(0, 15));

class IncrementalEquivalenceTest : public ::testing::TestWithParam<int> {};

// Property: the incremental (downstream-closure) decision agrees with a
// full masked sweep on every candidate, across random feasible states
// reached through interleaved disables and external enables/disables
// (which force cache refreshes).
TEST_P(IncrementalEquivalenceTest, MatchesFullSweep) {
  common::Rng rng(static_cast<std::uint64_t>(GetParam()) * 1013 + 3);
  topology::XgftSpec spec;
  const int height = 2 + static_cast<int>(rng.uniform_index(2));
  for (int i = 0; i < height; ++i) {
    spec.children_per_node.push_back(
        2 + static_cast<int>(rng.uniform_index(2)));
    spec.parents_per_node.push_back(
        2 + static_cast<int>(rng.uniform_index(2)));
  }
  auto topo = topology::build_xgft(spec);
  CapacityConstraint constraint(rng.uniform(0.3, 0.8));
  LivePathCounts path_counts(topo);
  FastChecker checker(topo, path_counts, constraint);

  for (int step = 0; step < 60; ++step) {
    const common::LinkId link(static_cast<common::LinkId::underlying_type>(
        rng.uniform_index(topo.link_count())));
    const int action = static_cast<int>(rng.uniform_index(3));
    if (action == 0) {
      // Compare incremental vs full on the same candidate.
      const bool incremental = checker.can_disable(link);
      const bool full = checker.can_disable(link, {});
      EXPECT_EQ(incremental, full)
          << "seed " << GetParam() << " step " << step << " link "
          << link.value();
      checker.try_disable(link);
    } else if (action == 1) {
      // External re-enable behind the checker's back.
      topo.set_enabled(link, true);
    } else {
      checker.try_disable(link);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Random, IncrementalEquivalenceTest,
                         ::testing::Range(0, 20));

}  // namespace
}  // namespace corropt::core
