// Section 5.1 runtime claim: "the combination of both techniques
// [pruning + reject cache] allows us to finish optimizer runs in less
// than one minute on a 1.3 GHz computer with 2 cores." This benchmark
// measures full optimizer runs on the large DCN for growing numbers of
// active corrupting links, plus the ablation without pruning.

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "corropt/optimizer.h"
#include "gbench_json.h"
#include "topology/fat_tree.h"

namespace {

using namespace corropt;

core::CorruptionSet random_corruption(const topology::Topology& topo,
                                      int count, common::Rng& rng) {
  core::CorruptionSet corruption;
  for (std::size_t index : rng.sample_without_replacement(
           topo.link_count(), static_cast<std::size_t>(count))) {
    corruption.mark(
        common::LinkId(static_cast<common::LinkId::underlying_type>(index)),
        rng.log_uniform(1e-7, 1e-2));
  }
  return corruption;
}

void BM_OptimizerRun(benchmark::State& state) {
  topology::Topology topo = topology::build_large_dcn();
  common::Rng rng(3);
  const core::CorruptionSet corruption =
      random_corruption(topo, static_cast<int>(state.range(0)), rng);
  core::CapacityConstraint constraint(0.75);
  for (auto _ : state) {
    // Re-enable everything so each iteration solves the same instance.
    state.PauseTiming();
    for (const auto& [link, rate] : corruption.entries()) {
      topo.set_enabled(link, true);
    }
    core::LivePathCounts path_counts(topo);
    core::Optimizer optimizer(topo, path_counts, constraint,
                              core::PenaltyFunction::linear());
    path_counts.current();  // The pruning baseline is counted untimed.
    state.ResumeTiming();
    benchmark::DoNotOptimize(optimizer.run(corruption));
  }
  state.counters["candidates"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_OptimizerRun)->Arg(10)->Arg(50)->Arg(100)->Arg(250)
    ->Unit(benchmark::kMillisecond);

// Same instance with an attached obs sink: quantifies the cost of the
// sharded counters and the run timer (expected within noise of
// BM_OptimizerRun — a handful of relaxed fetch_adds per run).
void BM_OptimizerRunObs(benchmark::State& state) {
  topology::Topology topo = topology::build_large_dcn();
  common::Rng rng(3);
  const core::CorruptionSet corruption =
      random_corruption(topo, static_cast<int>(state.range(0)), rng);
  core::CapacityConstraint constraint(0.75);
  obs::MetricsRegistry registry;
  obs::Sink sink{&registry, nullptr, nullptr, 0};
  for (auto _ : state) {
    state.PauseTiming();
    for (const auto& [link, rate] : corruption.entries()) {
      topo.set_enabled(link, true);
    }
    core::LivePathCounts path_counts(topo);
    core::Optimizer optimizer(topo, path_counts, constraint,
                              core::PenaltyFunction::linear());
    optimizer.set_sink(&sink);
    path_counts.current();
    state.ResumeTiming();
    benchmark::DoNotOptimize(optimizer.run(corruption));
  }
  state.counters["candidates"] = static_cast<double>(state.range(0));
  state.counters["metric_runs"] = static_cast<double>(
      registry.snapshot().counters.front().value);
}
BENCHMARK(BM_OptimizerRunObs)->Arg(250)->Unit(benchmark::kMillisecond);

void BM_OptimizerNoPruning(benchmark::State& state) {
  topology::Topology topo = topology::build_medium_dcn();
  common::Rng rng(4);
  const core::CorruptionSet corruption =
      random_corruption(topo, static_cast<int>(state.range(0)), rng);
  core::CapacityConstraint constraint(0.75);
  core::OptimizerConfig config;
  config.use_pruning = false;
  for (auto _ : state) {
    state.PauseTiming();
    for (const auto& [link, rate] : corruption.entries()) {
      topo.set_enabled(link, true);
    }
    core::LivePathCounts path_counts(topo);
    core::Optimizer optimizer(topo, path_counts, constraint,
                              core::PenaltyFunction::linear(), config);
    state.ResumeTiming();
    benchmark::DoNotOptimize(optimizer.run(corruption));
  }
  state.counters["candidates"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_OptimizerNoPruning)->Arg(10)->Arg(50)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return corropt::bench::run_gbench_with_json(argc, argv,
                                              "runtime_optimizer");
}
