// corropt_ctl: an operator-style command-line front end to the library.
//
//   corropt_ctl gen (medium|large|fat <k>)            > topo.csv
//   corropt_ctl stats <topo.csv>
//   corropt_ctl plan <topo.csv> <capacity%> <link:rate> [link:rate ...]
//   corropt_ctl wcmp <topo.csv> [switch-id]
//
// `gen` emits a topology file; `stats` summarizes one; `plan` runs the
// CorrOpt decision pipeline (fast checker per link, then the global
// optimizer) against a set of corrupting links and prints the disable
// plan; `wcmp` prints load-balancing weights for the (possibly degraded)
// topology in the file.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "corropt/fast_checker.h"
#include "corropt/optimizer.h"
#include "corropt/path_counter.h"
#include "corropt/routing.h"
#include "topology/fat_tree.h"
#include "topology/io.h"

namespace {

using namespace corropt;

int usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  corropt_ctl gen (medium|large|fat <k>)\n"
      "  corropt_ctl stats <topo.csv>\n"
      "  corropt_ctl plan <topo.csv> <capacity%%> <link:rate> [...] "
      "[save=<out.csv>]\n"
      "  corropt_ctl wcmp <topo.csv> [switch-id]\n");
  return 2;
}

std::optional<topology::Topology> load(const char* path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path);
    return std::nullopt;
  }
  std::string error;
  auto topo = topology::read_topology(in, &error);
  if (!topo.has_value()) {
    std::fprintf(stderr, "bad topology file: %s\n", error.c_str());
  }
  return topo;
}

int cmd_gen(int argc, char** argv) {
  if (argc < 1) return usage();
  topology::Topology topo;
  if (std::strcmp(argv[0], "medium") == 0) {
    topo = topology::build_medium_dcn();
  } else if (std::strcmp(argv[0], "large") == 0) {
    topo = topology::build_large_dcn();
  } else if (std::strcmp(argv[0], "fat") == 0 && argc >= 2) {
    topo = topology::build_fat_tree(std::atoi(argv[1]));
  } else {
    return usage();
  }
  topology::write_topology(std::cout, topo);
  return 0;
}

int cmd_stats(int argc, char** argv) {
  if (argc < 1) return usage();
  const auto topo = load(argv[0]);
  if (!topo.has_value()) return 1;
  std::printf("switches: %zu across %d levels\n", topo->switch_count(),
              topo->level_count());
  for (int level = 0; level < topo->level_count(); ++level) {
    std::printf("  level %d: %zu switches\n", level,
                topo->switches_at_level(level).size());
  }
  std::printf("links: %zu (%zu enabled)\n", topo->link_count(),
              topo->enabled_link_count());
  core::PathCounter counter(*topo);
  const auto counts = counter.up_paths();
  double worst = 1.0;
  for (common::SwitchId tor : topo->tors()) {
    const auto design = counter.design_paths()[tor.index()];
    if (design == 0) continue;
    worst = std::min(worst, static_cast<double>(counts[tor.index()]) /
                                static_cast<double>(design));
  }
  std::printf("worst ToR path fraction: %.1f%%\n", worst * 100.0);
  return 0;
}

int cmd_plan(int argc, char** argv) {
  if (argc < 3) return usage();
  auto topo = load(argv[0]);
  if (!topo.has_value()) return 1;
  const double capacity = std::atof(argv[1]) / 100.0;
  if (capacity <= 0.0 || capacity > 1.0) {
    std::fprintf(stderr, "capacity must be in (0, 100]\n");
    return 2;
  }
  // Optional trailing "save=<path>": write the degraded topology back
  // out so `wcmp`/`stats` can be run on the post-plan state.
  const char* save_path = nullptr;
  if (std::strncmp(argv[argc - 1], "save=", 5) == 0) {
    save_path = argv[argc - 1] + 5;
    --argc;
  }
  core::CapacityConstraint constraint(capacity);
  core::CorruptionSet corruption;
  for (int i = 2; i < argc; ++i) {
    const char* colon = std::strchr(argv[i], ':');
    if (colon == nullptr) return usage();
    const auto id = static_cast<common::LinkId::underlying_type>(
        std::strtoul(argv[i], nullptr, 10));
    if (id >= topo->link_count()) {
      std::fprintf(stderr, "unknown link %u\n", id);
      return 2;
    }
    corruption.mark(common::LinkId(id), std::atof(colon + 1));
  }

  std::printf("plan for %zu corrupting links, capacity constraint "
              "%.0f%%:\n",
              corruption.size(), capacity * 100.0);
  // Phase 1: the fast checker, per link in detection order (as the
  // controller would have run it online). Both phases share one set of
  // live path counts, as inside the controller.
  core::LivePathCounts path_counts(*topo);
  core::FastChecker checker(*topo, path_counts, constraint);
  for (common::LinkId link : corruption.active_in_detection_order(*topo)) {
    const bool disabled = checker.try_disable(link);
    std::printf("  fast checker: link %-6u rate %.2e -> %s\n", link.value(),
                corruption.rate(link),
                disabled ? "DISABLE" : "keep (capacity)");
  }
  // Phase 2: the optimizer over whatever is left, on the same counts.
  core::Optimizer optimizer(*topo, path_counts, constraint,
                            core::PenaltyFunction::linear());
  const core::OptimizerResult result = optimizer.run(corruption);
  for (common::LinkId link : result.disabled) {
    std::printf("  optimizer:    link %-6u rate %.2e -> DISABLE\n",
                link.value(), corruption.rate(link));
  }
  std::printf(
      "residual corruption penalty: %.3e/s over %zu still-active links\n",
      result.remaining_penalty, corruption.active(*topo).size());
  core::PathCounter counter(*topo);
  std::printf("network remains feasible: %s\n",
              counter.feasible(counter.up_paths(), constraint) ? "yes"
                                                               : "NO");
  if (save_path != nullptr) {
    std::ofstream out(save_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", save_path);
      return 1;
    }
    topology::write_topology(out, *topo);
    std::printf("degraded topology written to %s\n", save_path);
  }
  return 0;
}

int cmd_wcmp(int argc, char** argv) {
  if (argc < 1) return usage();
  const auto topo = load(argv[0]);
  if (!topo.has_value()) return 1;
  core::PathCounter counter(*topo);
  const core::WcmpTable table = core::compute_wcmp(*topo, counter);
  if (argc >= 2) {
    const auto id = static_cast<common::SwitchId::underlying_type>(
        std::strtoul(argv[1], nullptr, 10));
    if (id >= topo->switch_count()) {
      std::fprintf(stderr, "unknown switch %u\n", id);
      return 2;
    }
    for (const core::UplinkWeight& uplink : table.weights[id]) {
      std::printf("switch %u link %u weight %.4f\n", id,
                  uplink.link.value(), uplink.weight);
    }
    return 0;
  }
  std::printf("max link overload vs intact-balanced baseline: %.3fx\n",
              core::max_link_overload(*topo, table));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  if (command == "gen") return cmd_gen(argc - 2, argv + 2);
  if (command == "stats") return cmd_stats(argc - 2, argv + 2);
  if (command == "plan") return cmd_plan(argc - 2, argv + 2);
  if (command == "wcmp") return cmd_wcmp(argc - 2, argv + 2);
  return usage();
}
