// Section 5.1 runtime claim: the fast checker's path-count sweep is
// O(|E|) and takes 100-300 ms on the largest DCN on the paper's 1.3 GHz
// 2-core machine — effectively instantaneous decisions. This benchmark
// measures one fast-checker decision (can_disable: a full recount with
// the candidate link masked) across DCN sizes, demonstrating the linear
// scaling. Absolute numbers depend on the host.

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "corropt/fast_checker.h"
#include "gbench_json.h"
#include "topology/fat_tree.h"

namespace {

using namespace corropt;

void BM_FastCheckerDecision(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  topology::Topology topo = topology::build_fat_tree(k);
  core::CapacityConstraint constraint(0.75);
  core::LivePathCounts path_counts(topo);
  core::FastChecker checker(topo, path_counts, constraint);
  common::Rng rng(1);
  for (auto _ : state) {
    const common::LinkId link(static_cast<common::LinkId::underlying_type>(
        rng.uniform_index(topo.link_count())));
    benchmark::DoNotOptimize(checker.can_disable(link));
  }
  state.counters["links"] = static_cast<double>(topo.link_count());
}
BENCHMARK(BM_FastCheckerDecision)->Arg(16)->Arg(24)->Arg(32)->Arg(40);

void BM_FastCheckerLargeDcn(benchmark::State& state) {
  topology::Topology topo = topology::build_large_dcn();
  core::CapacityConstraint constraint(0.75);
  core::LivePathCounts path_counts(topo);
  core::FastChecker checker(topo, path_counts, constraint);
  common::Rng rng(2);
  for (auto _ : state) {
    const common::LinkId link(static_cast<common::LinkId::underlying_type>(
        rng.uniform_index(topo.link_count())));
    benchmark::DoNotOptimize(checker.can_disable(link));
  }
  state.counters["links"] = static_cast<double>(topo.link_count());
}
BENCHMARK(BM_FastCheckerLargeDcn);

// Ablation: the same decision via a full O(|E|) masked sweep, i.e.
// without the paper's downstream-closure optimization.
void BM_FastCheckerLargeDcnFullSweep(benchmark::State& state) {
  topology::Topology topo = topology::build_large_dcn();
  core::CapacityConstraint constraint(0.75);
  core::LivePathCounts path_counts(topo);
  core::FastChecker checker(topo, path_counts, constraint);
  common::Rng rng(2);
  for (auto _ : state) {
    const common::LinkId link(static_cast<common::LinkId::underlying_type>(
        rng.uniform_index(topo.link_count())));
    benchmark::DoNotOptimize(checker.can_disable(link, {}));
  }
  state.counters["links"] = static_cast<double>(topo.link_count());
}
BENCHMARK(BM_FastCheckerLargeDcnFullSweep);

// The underlying O(|E|) sweep on its own.
void BM_PathCountSweep(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  topology::Topology topo = topology::build_fat_tree(k);
  core::PathCounter counter(topo);
  for (auto _ : state) {
    benchmark::DoNotOptimize(counter.up_paths());
  }
  state.SetComplexityN(static_cast<std::int64_t>(topo.link_count()));
}
BENCHMARK(BM_PathCountSweep)
    ->Arg(8)
    ->Arg(16)
    ->Arg(24)
    ->Arg(32)
    ->Arg(40)
    ->Complexity(benchmark::oN);

}  // namespace

int main(int argc, char** argv) {
  return corropt::bench::run_gbench_with_json(argc, argv,
                                              "runtime_fastchecker");
}
