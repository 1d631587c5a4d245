// CorrOpt's global optimizer (Section 5.1).
//
// When a repaired link is re-enabled, capacity frees up and previously
// undisableable corrupting links may become disableable. The optimizer
// solves the underlying NP-complete problem (Theorem 5.1) exactly on
// practical instances via a stack of reductions:
//
//   1. Pruning: treat all active corrupting links as disabled and find
//      the ToRs V whose constraints would be violated. Every corrupting
//      link not upstream of V is safe to disable outright (ToRs outside V
//      tolerate even the full set, and feasibility is monotone in the set
//      of enabled links).
//   2. Segmentation (Section 8): the remaining candidates split into
//      independent segments per the endangered ToRs they share.
//   3. Branch-and-bound per segment: candidates are ordered by descending
//      penalty and searched depth-first, include-before-exclude, so the
//      most valuable subsets are reached first. A suffix-sum upper bound
//      prunes branches that cannot beat the incumbent; feasibility
//      monotonicity is exploited both ways through a reject cache (any
//      superset of a known-infeasible subset is infeasible) and an accept
//      cache (any subset of a known-feasible subset is feasible).
//      Feasibility sweeps are allocation-free and touch only the switches
//      whose path counts the segment's candidates can actually change —
//      everything else is folded into per-switch baseline constants.
//
// Independent segments can be solved concurrently (`solver_threads`):
// a candidate of one segment is never inside another segment's sweep
// region (it would have been merged by segmentation), so solving against
// the shared pre-segment topology state and applying the chosen disables
// serially afterward is bit-identical to the serial schedule.
//
// The result maximizes the total disabled penalty, i.e. minimizes the
// residual penalty sum over links of (1 - d_l) * I(f_l), subject to every
// ToR keeping its required fraction of valley-free paths to the spine.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/bitset.h"
#include "common/ids.h"
#include "obs/sink.h"
#include "corropt/capacity.h"
#include "corropt/corruption_set.h"
#include "corropt/path_counter.h"
#include "corropt/penalty.h"
#include "corropt/segmentation.h"
#include "topology/topology.h"

namespace corropt::core {

struct OptimizerConfig {
  // Segments larger than this fall back to a greedy ordering (disable in
  // decreasing penalty while feasible); the result is then flagged
  // non-exact. Real traces never hit this in our experiments.
  std::size_t max_exact_segment = 22;
  bool use_reject_cache = true;
  bool use_pruning = true;
  bool use_segmentation = true;

  // Accept cache: subsets of a mask already proven feasible are feasible
  // without a sweep (monotonicity in the other direction from the reject
  // cache). Ablation switch; exactness is unaffected.
  bool use_accept_cache = true;
  // Suffix-sum upper-bound cutoff: branches whose remaining candidates
  // cannot strictly beat the incumbent penalty are pruned. Ablation
  // switch; exactness is unaffected.
  bool use_bound = true;

  // Ablation switch for benchmarks: when false, singleton-infeasible
  // candidates are not pre-filtered before enumeration.
  bool prefilter_singletons = true;

  // Worker threads for solving independent segments concurrently; 1 (or
  // 0) solves serially. Results are bit-identical for any value.
  std::size_t solver_threads = 1;
};

struct OptimizerResult {
  // Links the optimizer disabled during this run.
  std::vector<LinkId> disabled;
  // Penalty of the links disabled by this run.
  double disabled_penalty = 0.0;
  // Penalty of corrupting links still enabled after this run.
  double remaining_penalty = 0.0;
  // False when any segment used the greedy fallback.
  bool exact = true;
  // Diagnostics.
  std::size_t pruned_safe_disables = 0;
  std::size_t segments = 0;
  // Subsets whose feasibility was established by an actual region sweep.
  std::size_t subsets_evaluated = 0;
  // Subsets (or whole subtrees, one count per pruning event) skipped via
  // infeasibility monotonicity: reject-cache hits plus branch prunes
  // under a subset just swept infeasible.
  std::size_t cache_skips = 0;
  // Subsets proven feasible by the accept cache without a sweep.
  std::size_t accept_skips = 0;
  // Branches cut by the penalty upper-bound test.
  std::size_t bound_skips = 0;
  // Segments answered from the incremental cache without a solve
  // (always 0 outside incremental mode).
  std::size_t segment_reuses = 0;
};

// Cumulative diagnostics for the incremental mode (DESIGN.md §12).
// Purely observational: none of these influence decisions.
struct OptimizerIncrementalStats {
  std::size_t runs = 0;
  std::size_t segment_solves = 0;
  std::size_t segment_reuses = 0;
  // Solves that started from a warm-start hint (previous solution of a
  // content-identical segment whose rates changed).
  std::size_t warm_hints = 0;
  // Pruning passes whose baseline (the shared live path counts) moved
  // to a new topology state by a full recount, or by delta folds.
  std::size_t baseline_full_recounts = 0;
  std::size_t baseline_delta_recounts = 0;
  // Runs that had to drop every cached segment because the topology
  // changed without a note_links_changed() call.
  std::size_t cold_fallbacks = 0;
};

// Per-solve scratch and the compiled sweep region; defined in the .cc.
// Each concurrent segment solver owns one, so no state is shared.
struct OptimizerSegmentScratch;
struct OptimizerSegmentOutcome;

class Optimizer {
 public:
  // The optimizer mutates link state on `topo` and reads its pruning
  // baseline from `counts` (built over the same topology).
  Optimizer(topology::Topology& topo, LivePathCounts& counts,
            const CapacityConstraint& constraint, PenaltyFunction penalty,
            OptimizerConfig config = {});
  ~Optimizer();

  Optimizer(const Optimizer&) = delete;
  Optimizer& operator=(const Optimizer&) = delete;

  // Globally optimizes over the active corrupting links, disabling the
  // optimal subset. Call whenever a link is (re-)enabled.
  OptimizerResult run(const CorruptionSet& corruption);

  // Attaches observability: every run() reports its OptimizerResult
  // counters to the registry and its wall time to the
  // "optimizer.run_s" timer (DESIGN.md §8). Counters are recorded on
  // the calling thread after the parallel segment merge, so they stay
  // bit-identical for any `solver_threads`. Pass nullptr to detach.
  void set_sink(obs::Sink* sink);

  // Incremental mode (DESIGN.md §12). When on, the optimizer keeps its
  // per-ToR upstream closures and per-segment solutions alive across
  // runs, invalidating only what a noted link change can actually affect.
  // Decisions are identical to a cold solve (disable set, penalties,
  // enabled mask); only search-effort diagnostics (subsets_evaluated and
  // friends) may differ. Requires the caller to report every external
  // enabled-state or corruption-rate change via note_links_changed(); an
  // unnoted topology change is detected by state_version and degrades to
  // a cold solve.
  void set_incremental(bool enabled);
  [[nodiscard]] bool incremental() const { return incremental_; }

  // Reports that the enabled state or corruption rate of `links` changed
  // since the last run()/note. Cheap: marks stale the cached segment
  // solutions whose sweep region intersects the changed links. Safe to
  // call with links the optimizer itself just disabled (their entries
  // simply go stale). No-op outside incremental mode. The path counts
  // are noted separately, on their owner (LivePathCounts).
  void note_links_changed(std::span<const LinkId> links);

  [[nodiscard]] const OptimizerIncrementalStats& incremental_stats() const {
    return inc_stats_;
  }

  // Drops all derived state (the baseline's violated-ToR list and the
  // incremental caches). Called on checkpoint restore (DESIGN.md §14):
  // they are keyed by the topology's state version, and a restore can
  // rewind the version counter to a value this optimizer already saw with
  // a *different* enabled mask — a stale hit would silently corrupt the
  // next run. Re-derivation is deterministic and touches no metrics, so
  // dropping keeps branch runs bit-identical to fresh ones.
  void drop_derived_state();

 private:
  OptimizerResult run_impl(const CorruptionSet& corruption);

  // Exact branch-and-bound (or greedy, over-budget) search within one
  // segment. Pure with respect to `topo_`: reads link state, never
  // writes, so segments may be solved concurrently. `warm`, when
  // non-null, is a previous solution (per-candidate selected flags, in
  // segment link order) evaluated once after cache setup to seed the
  // accept/reject caches — it never changes the decision, only the
  // search effort. `capture_region` additionally records the segment's
  // sweep-region link mask in the outcome (for incremental caching).
  OptimizerSegmentOutcome solve_segment(const Segment& segment,
                                        const CorruptionSet& corruption,
                                        OptimizerSegmentScratch& scratch,
                                        const std::vector<char>* warm,
                                        bool capture_region) const;

  // Builds the affected-switch sweep region of one segment into scratch.
  void compile_region(const Segment& segment,
                      OptimizerSegmentScratch& scratch) const;

  [[nodiscard]] const PathCounter& paths() const { return counts_->paths(); }

  topology::Topology* topo_;
  LivePathCounts* counts_;
  const CapacityConstraint* constraint_;
  PenaltyFunction penalty_;
  OptimizerConfig config_;
  // Scratch reused across runs (serial phases only).
  std::vector<std::uint64_t> scratch_paths_;
  common::DynamicBitset scratch_mask_;
  std::vector<char> scratch_visited_;
  std::unique_ptr<OptimizerSegmentScratch> scratch_;
  // The ToRs the shared counts violate (normally none), recomputed when
  // the counts move to a new version. With the counts as the unmasked
  // baseline, the pruning pass recounts only the downward closure of the
  // candidate links instead of the whole fabric.
  static constexpr std::uint64_t kNoVersion = ~std::uint64_t{0};
  std::vector<SwitchId> baseline_violated_;
  std::uint64_t violated_version_ = kNoVersion;
  PathCounter::SweepScratch sweep_scratch_;

  // --- Incremental mode state (DESIGN.md §12) ---
  // A previously solved segment kept across runs. Reused verbatim when
  // its sweep region saw no noted change and the candidate set + rates
  // are identical; otherwise its `selected` flags warm-start the solve.
  struct CachedSegment {
    std::vector<LinkId> links;    // Segment candidates, id-sorted.
    std::vector<SwitchId> tors;   // Endangered ToRs of the segment.
    std::vector<double> rates;    // Corruption rate per candidate.
    LinkMask region;              // Sweep-region link mask (uplinks).
    std::vector<char> selected;   // Solution flags, per candidate.
    double penalty = 0.0;
    bool exact = true;
    bool fresh = false;  // False once a noted change touches `region`.
  };

  void sync_incremental_state();
  // Brings baseline_violated_ up to the current counts (returned).
  const std::vector<std::uint64_t>& refresh_baseline();

  bool incremental_ = false;
  // Set when the topology changed without a note; the next run clears
  // all incremental state first.
  bool drift_ = false;
  std::uint64_t tracked_version_ = 0;
  std::unique_ptr<TorClosureCache> closures_;
  // Keyed by the segment's lowest candidate link id.
  std::unordered_map<std::uint32_t, CachedSegment> segment_cache_;
  OptimizerIncrementalStats inc_stats_;

  // Observability (all inert when sink_ is null).
  obs::Sink* sink_ = nullptr;
  obs::Counter obs_runs_;
  obs::Counter obs_disabled_;
  obs::Counter obs_pruned_;
  obs::Counter obs_segments_;
  obs::Counter obs_subsets_;
  obs::Counter obs_cache_skips_;
  obs::Counter obs_accept_skips_;
  obs::Counter obs_bound_skips_;
  obs::Histogram obs_disabled_per_run_;
  obs::Histogram obs_run_timer_;
};

}  // namespace corropt::core
