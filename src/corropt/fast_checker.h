// CorrOpt's fast checker (Section 5.1).
//
// When a link starts corrupting packets the controller must decide
// immediately whether disabling it is safe. Conceptually the checker
// recounts every ToR's valley-free paths with the candidate link removed
// and disables it iff no capacity constraint would be violated. Following
// the paper's implementation note — "we check the downstream of l,
// updating the path counts with the same method, beginning with the
// switch directly downstream of l" — the checker caches the network's
// path counts and, per decision, recomputes only the downward closure of
// the candidate's lower endpoint: O(1) work per link of the affected
// subtree rather than of the whole DCN. The cached counts are the
// controller's LivePathCounts, shared with the optimizer and kept
// coherent by the topology's state version when other actors (the
// optimizer, repairs) flip links.
//
// Precondition for the incremental path: the network currently satisfies
// every ToR's constraint (the controller maintains this invariant). ToRs
// outside the candidate's downstream closure keep their path counts, so
// only closure ToRs need rechecking.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/ids.h"
#include "corropt/capacity.h"
#include "corropt/path_counter.h"
#include "obs/sink.h"
#include "topology/topology.h"

namespace corropt::core {

class FastChecker {
 public:
  // The checker mutates link state on `topo` when it disables a link,
  // and reads and maintains `counts` (built over the same topology).
  FastChecker(topology::Topology& topo, LivePathCounts& counts,
              const CapacityConstraint& constraint);

  // Returns true (and disables `link`) when the network stays feasible
  // with `link` off; otherwise leaves the link enabled and returns false.
  // Already-disabled links return true (idempotent).
  bool try_disable(common::LinkId link);

  // Whether disabling `link` would keep every ToR feasible, without
  // changing any state. Incremental (downstream-closure) evaluation.
  [[nodiscard]] bool can_disable(common::LinkId link);

  // Whether disabling `link` stays feasible even while `also_off` links
  // are simultaneously out of service. Used for collateral-aware
  // decisions (Section 8): repairing a breakout leg takes the healthy
  // siblings down too, so the conservative check masks the whole bundle.
  // Always evaluated with a full sweep.
  [[nodiscard]] bool can_disable(common::LinkId link,
                                 std::span<const common::LinkId> also_off)
      const;

  // Attaches observability: per-decision counters ("fastcheck.checks",
  // ".disables", ".closure_switches") and the "fastcheck.check_s"
  // wall-clock timer. Pass nullptr to detach.
  void set_sink(obs::Sink* sink);

 private:
  struct ClosureResult {
    bool feasible = true;
    // (switch, new up-path count) pairs for the downstream closure,
    // applied to the cache when the disable goes through.
    std::vector<std::pair<common::SwitchId, std::uint64_t>> updates;
  };

  // Evaluates the downstream closure of `link`'s lower endpoint with the
  // link masked off, against the current counts.
  ClosureResult evaluate_closure(common::LinkId link);

  topology::Topology* topo_;
  LivePathCounts* counts_;
  const CapacityConstraint* constraint_;
  // Scratch for closure traversal.
  std::vector<char> in_closure_;
  std::vector<common::SwitchId> closure_;
  std::vector<std::int32_t> slot_;

  // Observability (all inert when sink_ is null).
  obs::Sink* sink_ = nullptr;
  obs::Counter obs_checks_;
  obs::Counter obs_disables_;
  obs::Counter obs_closure_switches_;
  obs::Histogram obs_check_timer_;
};

}  // namespace corropt::core
