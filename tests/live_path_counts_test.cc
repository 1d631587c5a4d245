// The controller's live path counts against a fresh recount.
//
// One LivePathCounts serves the fast checker, the optimizer and the
// simulator's samplers, kept current by closure folds, incremental
// delta notes and version-triggered recounts. Whatever the mix of
// controller decisions, changes nobody reported (RepairPipeline and
// MaintenanceModel flip links behind the controller's back) and
// checkpoint restores, current() must equal PathCounter::up_paths().
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "common/snapshot.h"
#include "corropt/controller.h"
#include "obs/metrics.h"
#include "obs/sink.h"
#include "topology/fat_tree.h"

namespace corropt::core {
namespace {

class LivePathCountsOracle : public ::testing::TestWithParam<bool> {};

TEST_P(LivePathCountsOracle, MatchesFreshRecountThroughChurnAndRestore) {
  const bool incremental = GetParam();
  topology::Topology topo = topology::build_fat_tree(8);
  ControllerConfig config;
  config.capacity_fraction = 0.5;
  config.incremental = incremental;
  Controller controller(topo, config);
  obs::MetricsRegistry registry;
  obs::Sink sink{&registry, nullptr, nullptr, 0};
  controller.set_sink(&sink);
  std::vector<common::LinkId> tickets;
  controller.set_ticket_callback(
      [&tickets](common::LinkId link) { tickets.push_back(link); });
  const PathCounter oracle(topo);

  common::Rng rng(2017);
  const auto random_link = [&] {
    return common::LinkId(static_cast<common::LinkId::underlying_type>(
        rng.uniform_index(topo.link_count())));
  };
  // One random step: a controller decision or an unreported flip.
  const auto step = [&] {
    const std::int64_t kind = rng.uniform_int(0, 9);
    if (kind <= 3) {
      controller.on_corruption_detected(random_link(),
                                        rng.log_uniform(1e-7, 1e-2));
    } else if (kind <= 5) {
      common::LinkId link = random_link();
      if (!tickets.empty() && kind == 4) {
        const std::size_t i = rng.uniform_index(tickets.size());
        link = tickets[i];
        tickets.erase(tickets.begin() + static_cast<std::ptrdiff_t>(i));
      }
      controller.on_link_repaired(link);
    } else if (kind == 6) {
      const std::vector<common::LinkId> marked =
          controller.corruption().links_sorted();
      if (!marked.empty()) {
        controller.on_corruption_cleared(
            marked[rng.uniform_index(marked.size())]);
      }
    } else {
      const common::LinkId link = random_link();
      topo.set_enabled(link, !topo.is_enabled(link));
    }
  };

  std::string checkpoint;
  for (int i = 0; i < 600; ++i) {
    // Several steps between reads, so unreported flips and noted
    // changes meet in one version gap.
    const std::int64_t steps = rng.uniform_int(1, 3);
    for (std::int64_t s = 0; s < steps; ++s) step();
    if (i == 200) {
      common::snap::Writer w;
      topo.snapshot_to(w);
      controller.snapshot_to(w);
      checkpoint = w.take();
    }
    if (i == 400) {
      common::snap::Reader r(checkpoint);
      topo.restore_from(r);
      controller.restore_from(r);
      tickets.clear();
    }
    ASSERT_EQ(controller.path_counts().current(), oracle.up_paths())
        << "after iteration " << i;
  }

  std::uint64_t delta_updates = 0;
  for (const auto& counter : registry.snapshot().counters) {
    if (counter.name == "fastcheck.delta_updates") {
      delta_updates = counter.value;
    }
  }
  // Incremental mode must actually have exercised the delta path.
  if (incremental) {
    EXPECT_GT(delta_updates, 0u);
  } else {
    EXPECT_EQ(delta_updates, 0u);
  }
  EXPECT_GT(controller.stats().optimizer_runs, 0u);
  EXPECT_GT(controller.stats().disabled_on_arrival, 0u);
}

INSTANTIATE_TEST_SUITE_P(ColdAndIncremental, LivePathCountsOracle,
                         ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Incremental" : "Cold";
                         });

}  // namespace
}  // namespace corropt::core
