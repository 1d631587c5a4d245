#include <gtest/gtest.h>

#include <cmath>
#include <unordered_map>
#include <utility>
#include <vector>

#include "analysis/locality.h"
#include "analysis/measurement_study.h"
#include "common/rng.h"
#include "stats/correlation.h"
#include "stats/descriptive.h"
#include "topology/fat_tree.h"

namespace corropt::analysis {
namespace {

// Study accumulator over per-direction state: `update(state, sample)`
// sees every sample that carried packets. The default tile grid keeps a
// direction's whole series in one partial, so merging moves states over.
template <typename State, typename Update>
struct PerDirection {
  Update update;
  std::unordered_map<std::uint32_t, State> states;

  struct Partial {
    Update update;
    std::unordered_map<std::uint32_t, State> states;
    void add(const telemetry::PollSample& sample) {
      if (sample.packets == 0) return;
      update(states[sample.direction.value()], sample);
    }
  };
  [[nodiscard]] Partial make_partial() const { return Partial{update, {}}; }
  void merge(Partial& partial) {
    for (auto& [dir, state] : partial.states) states[dir] = std::move(state);
  }
};

template <typename State, typename Update>
PerDirection<State, Update> per_direction(Update update) {
  return {update, {}};
}

// Sums corruption drops plus utilization over every sample.
struct SampleSum {
  double sum = 0.0;
  struct Partial {
    double sum = 0.0;
    void add(const telemetry::PollSample& s) {
      sum += static_cast<double>(s.corruption_drops) + s.utilization;
    }
  };
  [[nodiscard]] Partial make_partial() const { return {}; }
  void merge(Partial& partial) { sum += partial.sum; }
};

TEST(Locality, SwitchFractionCountsIncidentSwitches) {
  const auto topo = topology::build_fat_tree(4);  // 20 switches
  const auto tor = topo.tors().front();
  const std::vector<common::LinkId> links = {
      topo.switch_at(tor).uplinks[0]};
  // One link touches 2 of 20 switches.
  EXPECT_DOUBLE_EQ(switch_fraction(topo, links), 0.1);
  EXPECT_DOUBLE_EQ(switch_fraction(topo, {}), 0.0);
}

TEST(Locality, ColocatedLinksScoreBelowRandom) {
  const auto topo = topology::build_fat_tree(8);
  common::Rng rng(1);
  // All uplinks of one switch: maximal co-location.
  const auto tor = topo.tors().front();
  const std::vector<common::LinkId> clustered(
      topo.switch_at(tor).uplinks.begin(),
      topo.switch_at(tor).uplinks.end());
  const double clustered_ratio = locality_ratio(topo, clustered, rng);
  EXPECT_LT(clustered_ratio, 0.75);

  // Uniformly random links: ratio near 1.
  std::vector<common::LinkId> scattered;
  for (std::size_t index :
       rng.sample_without_replacement(topo.link_count(), 4)) {
    scattered.push_back(
        common::LinkId(static_cast<common::LinkId::underlying_type>(index)));
  }
  const double scattered_ratio = locality_ratio(topo, scattered, rng);
  EXPECT_NEAR(scattered_ratio, 1.0, 0.35);
  EXPECT_LT(clustered_ratio, scattered_ratio);
}

TEST(Locality, AsymmetryClassification) {
  const std::vector<double> up = {1e-4, 0.0, 1e-6, 0.0};
  const std::vector<double> down = {1e-5, 0.0, 0.0, 1e-3};
  const AsymmetryStats stats = asymmetry(up, down);
  EXPECT_EQ(stats.lossy_links, 3u);
  EXPECT_EQ(stats.bidirectional_links, 1u);
  ASSERT_EQ(stats.bidirectional_rates.size(), 1u);
  EXPECT_DOUBLE_EQ(stats.bidirectional_rates[0].first, 1e-4);
  EXPECT_DOUBLE_EQ(stats.bidirectional_rates[0].second, 1e-5);
  EXPECT_NEAR(stats.bidirectional_fraction(), 1.0 / 3.0, 1e-12);
}

TEST(MeasurementStudy, SeedsRequestedCorruptionPopulation) {
  const auto topo = topology::build_fat_tree(8);  // 256 links
  StudyConfig config;
  config.corrupting_link_fraction = 0.05;
  MeasurementStudy study(topo, config);
  EXPECT_GE(study.corrupting_links().size(), 12u);
  for (const auto& [link, rate] : study.corrupting_links()) {
    EXPECT_GE(rate, 1e-8);
  }
}

TEST(MeasurementStudy, CorruptionStableCongestionVariable) {
  // The Figure 2 property: corruption loss rate has a far lower
  // coefficient of variation than congestion loss rate.
  const auto topo = topology::build_fat_tree(8);
  StudyConfig config;
  config.days = 3;
  config.epoch = common::kHour;  // Coarser polls keep the test fast.
  config.corrupting_link_fraction = 0.05;
  config.congestion.hotspot_switch_fraction = 0.15;
  MeasurementStudy study(topo, config);

  // (corruption, congestion) loss-rate series per direction.
  using Series = std::pair<stats::RunningStats, stats::RunningStats>;
  auto acc = per_direction<Series>(
      [](Series& series, const telemetry::PollSample& sample) {
        series.first.add(sample.corruption_loss_rate());
        series.second.add(sample.congestion_loss_rate());
      });
  study.run(acc);

  stats::RunningStats corruption_cv, congestion_cv;
  for (auto& [dir, series] : acc.states) {
    if (series.first.mean() > 1e-8) {
      corruption_cv.add(series.first.coefficient_of_variation());
    }
    if (series.second.mean() > 1e-8) {
      congestion_cv.add(series.second.coefficient_of_variation());
    }
  }
  ASSERT_GT(corruption_cv.count(), 3u);
  ASSERT_GT(congestion_cv.count(), 3u);
  EXPECT_LT(corruption_cv.mean() * 1.5, congestion_cv.mean());
}

TEST(MeasurementStudy, CorruptionUncorrelatedCongestionCorrelated) {
  // The Figure 3 property, computed exactly as the paper does: Pearson
  // correlation between utilization and log10 loss rate.
  const auto topo = topology::build_fat_tree(8);
  StudyConfig config;
  config.days = 5;
  config.epoch = common::kHour;
  config.corrupting_link_fraction = 0.06;
  config.congestion.hotspot_switch_fraction = 0.15;
  MeasurementStudy study(topo, config);

  // (corruption, congestion) utilization-vs-log-loss per direction.
  using Pair =
      std::pair<stats::PearsonAccumulator, stats::PearsonAccumulator>;
  auto acc = per_direction<Pair>(
      [](Pair& pair, const telemetry::PollSample& sample) {
        const double corruption = sample.corruption_loss_rate();
        const double congestion = sample.congestion_loss_rate();
        if (corruption > 0.0) {
          pair.first.add(sample.utilization,
                         std::log10(std::max(corruption, 1e-10)));
        }
        if (congestion > 0.0) {
          pair.second.add(sample.utilization,
                          std::log10(std::max(congestion, 1e-10)));
        }
      });
  study.run(acc);

  stats::RunningStats corruption_r, congestion_r;
  for (auto& [dir, pair] : acc.states) {
    if (pair.first.count() > 20) corruption_r.add(pair.first.correlation());
    if (pair.second.count() > 20) congestion_r.add(pair.second.correlation());
  }
  ASSERT_GT(corruption_r.count(), 3u);
  ASSERT_GT(congestion_r.count(), 3u);
  // Paper: mean 0.19 for corruption vs 0.62 for congestion.
  EXPECT_LT(std::abs(corruption_r.mean()), 0.3);
  EXPECT_GT(congestion_r.mean(), 0.4);
}

TEST(MeasurementStudy, DeterministicAcrossRuns) {
  const auto topo = topology::build_fat_tree(4);
  StudyConfig config;
  config.days = 1;
  config.epoch = 6 * common::kHour;
  SampleSum a, b;
  MeasurementStudy(topo, config).run(a);
  MeasurementStudy(topo, config).run(b);
  EXPECT_DOUBLE_EQ(a.sum, b.sum);
}

}  // namespace
}  // namespace corropt::analysis
