// Section 5.1, deeper topologies: "with r tiers above the ToR-level, a
// switch-local algorithm needs to keep c^(1/r) fraction of uplinks
// active" — so the switch-local disable budget shrinks as DCNs grow
// taller, while CorrOpt's exact path counting is depth-agnostic. This
// bench sweeps 2-, 3- and 4-tier XGFTs of comparable size and measures
// how many of a fixed set of corrupting links each approach can disable.
// The per-depth cases are independent and fan out over the thread pool;
// results land in BENCH_sec51_tiers.json.

#include <cstdio>
#include <fstream>
#include <vector>

#include "bench_util.h"
#include "common/json.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "corropt/fast_checker.h"
#include "corropt/switch_local.h"
#include "topology/xgft.h"

int main(int argc, char** argv) {
  using namespace corropt;
  const bench::BenchArgs args = bench::parse_bench_args(argc, argv);
  bench::print_header("Section 5.1 (multi-tier DCNs)",
                      "Fraction of 200 corrupting links disableable at "
                      "c = 75%, by topology depth");

  struct Case {
    const char* name;
    topology::XgftSpec spec;
  };
  std::vector<Case> cases;
  {
    topology::XgftSpec two;
    two.children_per_node = {16, 32};
    two.parents_per_node = {8, 16};
    cases.push_back({"2 tiers (ToR-Agg-Spine)", two});
    topology::XgftSpec three;
    three.children_per_node = {8, 8, 8};
    three.parents_per_node = {8, 8, 8};
    cases.push_back({"3 tiers", three});
    topology::XgftSpec four;
    four.children_per_node = {4, 4, 8, 8};
    four.parents_per_node = {8, 4, 4, 8};
    cases.push_back({"4 tiers", four});
  }

  struct CaseResult {
    std::size_t links = 0;
    int tiers = 0;
    double sc = 0.0;
    std::size_t local_disabled = 0;
    std::size_t global_disabled = 0;
    std::size_t corrupting = 0;
  };
  std::vector<CaseResult> results(cases.size());
  common::ThreadPool pool(args.threads);
  common::parallel_for_each(pool, cases.size(), [&cases, &results](
                                                    std::size_t index) {
    const Case& test_case = cases[index];
    topology::Topology local_topo = topology::build_xgft(test_case.spec);
    topology::Topology global_topo = topology::build_xgft(test_case.spec);
    CaseResult& result = results[index];
    result.links = local_topo.link_count();
    result.tiers = local_topo.top_level();
    result.sc = core::switch_local_threshold(0.75, result.tiers);

    // Per-case RNG: every depth draws its corrupting set from the same
    // fixed seed, as the sequential bench did.
    common::Rng rng(1234);
    std::vector<common::LinkId> corrupting;
    for (std::size_t i : rng.sample_without_replacement(
             local_topo.link_count(), 200)) {
      corrupting.push_back(common::LinkId(
          static_cast<common::LinkId::underlying_type>(i)));
    }
    result.corrupting = corrupting.size();

    core::SwitchLocalChecker local(local_topo, result.sc);
    core::CapacityConstraint constraint(0.75);
    core::LivePathCounts path_counts(global_topo);
    core::FastChecker global(global_topo, path_counts, constraint);
    for (common::LinkId link : corrupting) {
      result.local_disabled += local.try_disable(link);
      result.global_disabled += global.try_disable(link);
    }
  });

  std::printf("%-26s %8s %8s %10s %14s %14s\n", "topology", "links",
              "tiers", "sc", "switch-local", "corropt");
  std::ofstream out(args.json_path("sec51_tiers"));
  common::JsonWriter json(out);
  json.begin_object();
  json.member("schema", "corropt-bench-metrics/1");
  json.member("exhibit", "sec51_tiers");
  json.member("generator", "bench_sec51_multitier");
  json.member("threads", args.threads);
  json.key("scenarios").begin_array();
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const CaseResult& r = results[i];
    const double denom = static_cast<double>(r.corrupting);
    std::printf("%-26s %8zu %8d %10.3f %13.1f%% %13.1f%%\n", cases[i].name,
                r.links, r.tiers, r.sc, 100.0 * r.local_disabled / denom,
                100.0 * r.global_disabled / denom);
    std::printf("csv,sec51_tiers,%d,%.4f,%.4f,%.4f\n", r.tiers, r.sc,
                static_cast<double>(r.local_disabled) / denom,
                static_cast<double>(r.global_disabled) / denom);
    json.begin_object();
    json.member("name", cases[i].name);
    json.key("metrics").begin_object();
    json.member("link_count", r.links);
    json.member("tiers", r.tiers);
    json.member("switch_local_threshold", r.sc);
    json.member("switch_local_disabled_fraction", r.local_disabled / denom);
    json.member("corropt_disabled_fraction", r.global_disabled / denom);
    json.end_object();
    json.end_object();
  }
  json.end_array();
  json.end_object();
  std::printf("wrote %s (%zu scenarios)\n",
              args.json_path("sec51_tiers").c_str(), cases.size());
  std::printf(
      "\nas tiers are added, sc = c^(1/r) approaches 1 and the per-switch\n"
      "budget floor(m*(1-sc)) hits zero; CorrOpt's exact counting keeps\n"
      "disabling everything the true constraint allows.\n");
  return 0;
}
