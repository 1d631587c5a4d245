#include "corropt/optimizer.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <limits>
#include <utility>

#include "common/logging.h"
#include "common/thread_pool.h"

namespace corropt::core {

namespace {
constexpr std::uint32_t kNoSlot = std::numeric_limits<std::uint32_t>::max();
}  // namespace

// Scratch for one segment solve. The segment's feasibility sweep is
// "compiled" once per solve: only switches whose path counts a candidate
// can change (an enabled uplink is a candidate, or leads to such a
// switch) are swept per subset; contributions of everything else are
// folded into per-switch baseline constants, and unaffected ToRs are
// checked once against the baseline. Per-subset work is then a single
// pass over flat edge arrays with zero allocation.
struct OptimizerSegmentScratch {
  struct Edge {
    // Baseline count of an unaffected upper endpoint (0 when affected).
    std::uint64_t base = 0;
    // Dense slot of an affected upper endpoint, or kNoSlot.
    std::uint32_t upper_slot = kNoSlot;
    // Candidate index of the uplink, or -1 for non-candidate links.
    std::int32_t cand = -1;
  };

  // Region discovery, indexed by switch.
  std::vector<char> in_region;
  std::vector<char> affected;
  std::vector<std::uint64_t> baseline;
  std::vector<std::uint32_t> slot_of;
  std::vector<std::uint32_t> frontier;
  // Candidate lookup, indexed by link.
  std::vector<std::int32_t> cand_of;
  // Compiled region: affected switches in level-descending order.
  std::vector<std::uint32_t> order;       // switch index per slot
  std::vector<std::uint32_t> edge_offset;  // slot count + 1 entries
  std::vector<Edge> edges;
  std::vector<std::uint64_t> const_base;  // fixed contribution per slot
  std::vector<std::uint64_t> required;    // min paths per slot (0 off ToRs)
  std::vector<std::uint64_t> counts;      // sweep output per slot
  // Search state.
  std::vector<double> link_penalty;
  std::vector<char> full_selected;
  std::vector<std::uint32_t> survivors;
  std::vector<std::uint32_t> pos_bit;  // candidate -> survivor-position bit
  std::vector<double> suffix;
  std::vector<std::uint32_t> accept_cache;
  std::vector<std::uint32_t> reject_cache;
};

struct OptimizerSegmentOutcome {
  // selected[i] != 0 -> disable segment.links[i].
  std::vector<char> selected;
  double penalty = 0.0;
  bool exact = true;
  std::size_t subsets_evaluated = 0;
  std::size_t cache_skips = 0;
  std::size_t accept_skips = 0;
  std::size_t bound_skips = 0;
  // Sweep-region link mask (every installed uplink of every in-region
  // switch); only filled when the solve was asked to capture it. A later
  // enabled-state change outside this mask cannot alter the segment's
  // feasibility sweeps, which is what makes cached solutions reusable.
  LinkMask region;
};

namespace {

// Feasibility of one subset over the compiled region. `selected(c)`
// answers whether candidate index c is in the subset. Level-descending
// slot order guarantees every affected upper is computed before it is
// read; ToR slots carry their requirement, so infeasibility exits early.
template <typename SelectedFn>
bool region_feasible(OptimizerSegmentScratch& s, SelectedFn&& selected) {
  const std::size_t slots = s.order.size();
  for (std::size_t k = 0; k < slots; ++k) {
    std::uint64_t total = s.const_base[k];
    const std::uint32_t begin = s.edge_offset[k];
    const std::uint32_t end = s.edge_offset[k + 1];
    for (std::uint32_t e = begin; e < end; ++e) {
      const OptimizerSegmentScratch::Edge& edge = s.edges[e];
      if (edge.cand >= 0 && selected(edge.cand)) continue;
      total += edge.upper_slot != kNoSlot ? s.counts[edge.upper_slot]
                                          : edge.base;
    }
    if (total < s.required[k]) return false;
    s.counts[k] = total;
  }
  return true;
}

}  // namespace

Optimizer::Optimizer(topology::Topology& topo, LivePathCounts& counts,
                     const CapacityConstraint& constraint,
                     PenaltyFunction penalty, OptimizerConfig config)
    : topo_(&topo),
      counts_(&counts),
      constraint_(&constraint),
      penalty_(penalty),
      config_(config),
      scratch_(std::make_unique<OptimizerSegmentScratch>()) {
  scratch_paths_.resize(topo.switch_count(), 0);
  scratch_mask_.assign(topo.link_count());
}

Optimizer::~Optimizer() = default;

const std::vector<std::uint64_t>& Optimizer::refresh_baseline() {
  const std::uint64_t recounts = counts_->full_recounts();
  const std::vector<std::uint64_t>& counts = counts_->current();
  if (counts_->version() != violated_version_) {
    baseline_violated_ = paths().violated_tors(counts, *constraint_);
    violated_version_ = counts_->version();
    if (incremental_) {
      ++(counts_->full_recounts() != recounts
             ? inc_stats_.baseline_full_recounts
             : inc_stats_.baseline_delta_recounts);
    }
  }
  return counts;
}

void Optimizer::drop_derived_state() {
  baseline_violated_.clear();
  violated_version_ = kNoVersion;
  drift_ = false;
  segment_cache_.clear();
  if (incremental_) tracked_version_ = topo_->state_version();
}

void Optimizer::set_incremental(bool enabled) {
  if (enabled == incremental_) return;
  incremental_ = enabled;
  drift_ = false;
  if (enabled) {
    tracked_version_ = topo_->state_version();
    if (closures_ == nullptr) {
      closures_ = std::make_unique<TorClosureCache>(paths());
    }
  } else {
    segment_cache_.clear();
    closures_.reset();
  }
}

void Optimizer::note_links_changed(std::span<const LinkId> links) {
  if (!incremental_) return;
  const std::uint64_t version = topo_->state_version();
  // No version movement means no effective enabled-state change (a
  // corruption-rate-only change is caught by the per-candidate rate
  // comparison at reuse time, so it needs no invalidation here).
  if (version == tracked_version_) return;
  const std::uint64_t delta = version - tracked_version_;
  tracked_version_ = version;
  if (drift_) return;
  // Every effective enabled-state change bumps the version by exactly
  // one, and callers note each change they make. A version gap larger
  // than this note can account for means something changed behind our
  // back with no note — staleness marks may be missing, so fall cold.
  if (delta > links.size()) {
    drift_ = true;  // Next run rebuilds from scratch.
    return;
  }
  for (auto& [key, entry] : segment_cache_) {
    if (!entry.fresh) continue;
    for (LinkId link : links) {
      if (entry.region.test(link.index())) {
        entry.fresh = false;
        break;
      }
    }
  }
}

void Optimizer::sync_incremental_state() {
  ++inc_stats_.runs;
  if (topo_->state_version() != tracked_version_) {
    // The topology changed behind our back (no note_links_changed):
    // staleness marks are incomplete, so no cached segment can be trusted.
    drift_ = true;
    tracked_version_ = topo_->state_version();
  }
  if (drift_) {
    ++inc_stats_.cold_fallbacks;
    segment_cache_.clear();
    drift_ = false;
  }
}

void Optimizer::compile_region(const Segment& segment,
                               OptimizerSegmentScratch& s) const {
  const std::size_t switches = topo_->switch_count();
  s.in_region.assign(switches, 0);
  s.affected.assign(switches, 0);
  s.baseline.assign(switches, 0);
  s.slot_of.assign(switches, kNoSlot);
  s.cand_of.assign(topo_->link_count(), -1);
  for (std::size_t i = 0; i < segment.links.size(); ++i) {
    s.cand_of[segment.links[i].index()] = static_cast<std::int32_t>(i);
  }

  // Upstream closure of the segment's ToRs over *installed* links: a
  // disabled link upstream of an endangered ToR still belongs to the
  // region, since re-enabling decisions may involve it.
  s.frontier.clear();
  for (SwitchId tor : segment.tors) {
    if (!s.in_region[tor.index()]) {
      s.in_region[tor.index()] = 1;
      s.frontier.push_back(static_cast<std::uint32_t>(tor.index()));
    }
  }
  while (!s.frontier.empty()) {
    const std::uint32_t current = s.frontier.back();
    s.frontier.pop_back();
    const PathCounter::UplinkSpan span = paths().uplinks_of(current);
    for (std::size_t u = 0; u < span.count; ++u) {
      const std::uint32_t upper = span.upper[u];
      if (!s.in_region[upper]) {
        s.in_region[upper] = 1;
        s.frontier.push_back(upper);
      }
    }
  }

  // One level-descending pass computes baseline counts (current enabled
  // state, no candidate removed), affectedness, and the compiled edges.
  // The region is upward-closed, so every upper endpoint of a region
  // switch was processed before the switch itself.
  s.order.clear();
  s.edge_offset.clear();
  s.edges.clear();
  s.const_base.clear();
  s.required.clear();
  const common::DynamicBitset& enabled = topo_->enabled_mask();
  const std::span<const std::uint32_t> sweep = paths().sweep_order();
  const std::size_t top_count = paths().top_switch_count();
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const std::uint32_t sw = sweep[i];
    if (!s.in_region[sw]) continue;
    if (i < top_count) {
      s.baseline[sw] = 1;  // Top level: constant, never affected.
      continue;
    }
    const PathCounter::UplinkSpan span = paths().uplinks_of(sw);
    std::uint64_t base_total = 0;
    bool affected = false;
    for (std::size_t u = 0; u < span.count; ++u) {
      if (!enabled.test(span.link[u])) continue;
      const std::uint32_t upper = span.upper[u];
      base_total += s.baseline[upper];
      if (s.cand_of[span.link[u]] >= 0 || s.affected[upper]) affected = true;
    }
    s.baseline[sw] = base_total;
    if (!affected) continue;
    s.affected[sw] = 1;
    s.slot_of[sw] = static_cast<std::uint32_t>(s.order.size());
    s.order.push_back(sw);
    s.edge_offset.push_back(static_cast<std::uint32_t>(s.edges.size()));
    std::uint64_t fixed = 0;
    for (std::size_t u = 0; u < span.count; ++u) {
      if (!enabled.test(span.link[u])) continue;
      const std::uint32_t upper = span.upper[u];
      const std::int32_t cand = s.cand_of[span.link[u]];
      if (cand < 0 && !s.affected[upper]) {
        fixed += s.baseline[upper];
        continue;
      }
      OptimizerSegmentScratch::Edge edge;
      edge.cand = cand;
      if (s.affected[upper]) {
        edge.upper_slot = s.slot_of[upper];
      } else {
        edge.base = s.baseline[upper];
      }
      s.edges.push_back(edge);
    }
    s.const_base.push_back(fixed);
    const topology::Switch& info = topo_->switches()[sw];
    s.required.push_back(
        info.level == 0
            ? constraint_->min_paths(info.id, paths().design_paths()[sw])
            : 0);
  }
  s.edge_offset.push_back(static_cast<std::uint32_t>(s.edges.size()));
  s.counts.assign(s.order.size(), 0);
}

OptimizerSegmentOutcome Optimizer::solve_segment(
    const Segment& segment, const CorruptionSet& corruption,
    OptimizerSegmentScratch& s, const std::vector<char>* warm,
    bool capture_region) const {
  assert(!segment.links.empty());
  const std::size_t n = segment.links.size();
  OptimizerSegmentOutcome out;
  out.selected.assign(n, 0);

  compile_region(segment, s);
  if (capture_region) {
    // All installed uplinks of in-region switches: the exact dependence
    // set of every feasibility sweep this solve can run.
    out.region.assign(topo_->link_count());
    for (std::size_t sw = 0; sw < s.in_region.size(); ++sw) {
      if (!s.in_region[sw]) continue;
      const PathCounter::UplinkSpan span = paths().uplinks_of(
          static_cast<std::uint32_t>(sw));
      for (std::size_t u = 0; u < span.count; ++u) {
        out.region.set(span.link[u]);
      }
    }
  }

  // Disabling links never adds paths, so a ToR already below its
  // requirement at baseline dooms every subset: return the empty
  // solution without enumerating anything.
  for (SwitchId tor : segment.tors) {
    const std::uint64_t required =
        constraint_->min_paths(tor, paths().design_paths()[tor.index()]);
    if (s.baseline[tor.index()] < required) return out;
  }

  s.link_penalty.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    s.link_penalty[i] = penalty_(corruption.rate(segment.links[i]));
  }

  // Greedy fallback for over-budget segments (no bitmask: segments can
  // be arbitrarily wide here).
  if (n > config_.max_exact_segment || n >= 31) {
    std::vector<std::uint32_t> order(n);
    for (std::uint32_t i = 0; i < n; ++i) order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                if (s.link_penalty[a] != s.link_penalty[b]) {
                  return s.link_penalty[a] > s.link_penalty[b];
                }
                return a < b;
              });
    for (std::uint32_t i : order) {
      out.selected[i] = 1;
      ++out.subsets_evaluated;
      if (!region_feasible(s, [&](std::int32_t c) {
            return out.selected[c] != 0;
          })) {
        out.selected[i] = 0;
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (out.selected[i] != 0) out.penalty += s.link_penalty[i];
    }
    out.exact = false;
    CORROPT_LOG_WARNING << "optimizer: segment of " << n
                        << " links exceeded exact budget; greedy fallback";
    return out;
  }

  // Pre-filter: a candidate infeasible on its own can never be part of a
  // feasible subset (feasibility is monotone), so drop it outright.
  double best_penalty = 0.0;
  s.survivors.clear();
  for (std::size_t i = 0; i < n; ++i) {
    if (config_.prefilter_singletons) {
      ++out.subsets_evaluated;
      if (!region_feasible(s, [i](std::int32_t c) {
            return static_cast<std::size_t>(c) == i;
          })) {
        continue;
      }
      if (s.link_penalty[i] > best_penalty) {
        std::fill(out.selected.begin(), out.selected.end(), 0);
        out.selected[i] = 1;
        best_penalty = s.link_penalty[i];
      }
    }
    s.survivors.push_back(static_cast<std::uint32_t>(i));
  }
  if (s.survivors.empty()) {
    out.penalty = best_penalty;
    return out;
  }

  // Whole surviving set feasible? Most runs end here.
  s.full_selected.assign(n, 0);
  for (std::uint32_t i : s.survivors) s.full_selected[i] = 1;
  ++out.subsets_evaluated;
  if (region_feasible(s, [&](std::int32_t c) {
        return s.full_selected[c] != 0;
      })) {
    out.selected = s.full_selected;
    for (std::uint32_t i : s.survivors) out.penalty += s.link_penalty[i];
    return out;
  }

  // Branch-and-bound over survivor subsets: positions ordered by
  // descending penalty (ties by candidate index) so the include-first
  // DFS reaches high-value subsets early and the suffix-sum bound bites.
  // Masks fit in 32 bits: this path only runs for n <= 30.
  std::sort(s.survivors.begin(), s.survivors.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              if (s.link_penalty[a] != s.link_penalty[b]) {
                return s.link_penalty[a] > s.link_penalty[b];
              }
              return a < b;
            });
  const std::size_t m = s.survivors.size();
  s.pos_bit.assign(n, 0);
  s.suffix.assign(m + 1, 0.0);
  for (std::size_t j = m; j-- > 0;) {
    s.pos_bit[s.survivors[j]] = 1u << j;
    s.suffix[j] = s.suffix[j + 1] + s.link_penalty[s.survivors[j]];
  }

  s.accept_cache.clear();
  s.reject_cache.clear();
  if (config_.use_accept_cache && config_.prefilter_singletons) {
    // Every survivor was just proven feasible alone.
    for (std::size_t j = 0; j < m; ++j) s.accept_cache.push_back(1u << j);
  }
  if (config_.use_reject_cache) {
    // The full survivor set was just swept infeasible.
    s.reject_cache.push_back(
        m >= 32 ? ~0u : (1u << m) - 1);
  }

  // Feasibility of one mask via the caches, sweeping only on a miss.
  auto evaluate = [&](std::uint32_t mask) -> bool {
    if (config_.use_accept_cache) {
      for (std::uint32_t entry : s.accept_cache) {
        if ((mask & ~entry) == 0) {
          ++out.accept_skips;
          return true;
        }
      }
    }
    if (config_.use_reject_cache) {
      for (std::uint32_t entry : s.reject_cache) {
        if ((entry & ~mask) == 0) {
          ++out.cache_skips;
          return false;
        }
      }
    }
    ++out.subsets_evaluated;
    const bool ok = region_feasible(s, [&](std::int32_t c) {
      return (mask & s.pos_bit[c]) != 0;
    });
    if (ok) {
      if (config_.use_accept_cache) s.accept_cache.push_back(mask);
    } else if (config_.use_reject_cache) {
      s.reject_cache.push_back(mask);
    }
    return ok;
  };

  // Warm-start hint (incremental mode): a previous solution of this
  // segment, evaluated once so its verdict lands in the accept or reject
  // cache as a proven fact. Cache answers always equal what a sweep
  // would report (monotonicity both ways), so the DFS below makes
  // bit-identical decisions with or without the hint — only the number
  // of sweeps changes. Skipped if any hinted candidate failed the
  // singleton prefilter (the old solution cannot be feasible now) or the
  // hint is a singleton (already seeded above).
  if (warm != nullptr && warm->size() == n) {
    std::uint32_t hint = 0;
    bool usable = true;
    for (std::size_t i = 0; i < n; ++i) {
      if ((*warm)[i] == 0) continue;
      if (s.pos_bit[i] == 0) {
        usable = false;
        break;
      }
      hint |= s.pos_bit[i];
    }
    if (usable && std::popcount(hint) >= 2) evaluate(hint);
  }

  std::uint32_t best_mask = 0;
  bool best_from_dfs = false;
  // `mask` is the committed prefix over positions [0, j); `feasible`
  // tells whether it satisfies the region (always true when the reject
  // side is on — infeasible prefixes are pruned by monotonicity; with it
  // off, infeasible subtrees are descended and swept node by node, which
  // is exactly the ablation's "no monotonicity exploitation" contract).
  auto dfs = [&](auto&& self, std::size_t j, std::uint32_t mask, double pen,
                 bool feasible) -> void {
    if (feasible && pen > best_penalty) {
      best_penalty = pen;
      best_mask = mask;
      best_from_dfs = true;
    }
    if (j == m) return;
    if (config_.use_bound && pen + s.suffix[j] <= best_penalty) {
      ++out.bound_skips;
      return;
    }
    const std::uint32_t bit = 1u << j;
    const double p = s.link_penalty[s.survivors[j]];
    const bool child_ok = feasible ? evaluate(mask | bit) : false;
    if (child_ok) {
      self(self, j + 1, mask | bit, pen + p, true);
    } else if (config_.use_reject_cache) {
      // Monotone prune: every superset of an infeasible set is
      // infeasible; the whole include-subtree dies here.
      if (feasible) ++out.cache_skips;
      // (!feasible is unreachable: infeasible prefixes are never
      // descended when the reject side is on.)
    } else {
      if (!feasible) {
        // Parent already infeasible, but without the reject side we may
        // not assume monotonicity: sweep the child like any other.
        evaluate(mask | bit);
      }
      self(self, j + 1, mask | bit, pen + p, false);
    }
    self(self, j + 1, mask, pen, feasible);
  };
  dfs(dfs, 0, 0u, 0.0, true);

  if (best_from_dfs) {
    std::fill(out.selected.begin(), out.selected.end(), 0);
    for (std::size_t j = 0; j < m; ++j) {
      if ((best_mask >> j) & 1u) out.selected[s.survivors[j]] = 1;
    }
  }
  out.penalty = best_penalty;
  return out;
}

void Optimizer::set_sink(obs::Sink* sink) {
  sink_ = sink;
  if (sink == nullptr || sink->metrics == nullptr) {
    obs_runs_ = obs::Counter();
    obs_disabled_ = obs::Counter();
    obs_pruned_ = obs::Counter();
    obs_segments_ = obs::Counter();
    obs_subsets_ = obs::Counter();
    obs_cache_skips_ = obs::Counter();
    obs_accept_skips_ = obs::Counter();
    obs_bound_skips_ = obs::Counter();
    obs_disabled_per_run_ = obs::Histogram();
    obs_run_timer_ = obs::Histogram();
    return;
  }
  obs::MetricsRegistry& metrics = *sink->metrics;
  obs_runs_ = metrics.counter("optimizer.runs");
  obs_disabled_ = metrics.counter("optimizer.links_disabled");
  obs_pruned_ = metrics.counter("optimizer.pruned_safe_disables");
  obs_segments_ = metrics.counter("optimizer.segments");
  obs_subsets_ = metrics.counter("optimizer.subsets_evaluated");
  obs_cache_skips_ = metrics.counter("optimizer.cache_skips");
  obs_accept_skips_ = metrics.counter("optimizer.accept_skips");
  obs_bound_skips_ = metrics.counter("optimizer.bound_skips");
  obs_disabled_per_run_ = metrics.histogram(
      "optimizer.disabled_per_run", {0, 1, 2, 5, 10, 25, 50, 100, 250});
  obs_run_timer_ = metrics.timer("optimizer.run_s");
}

OptimizerResult Optimizer::run(const CorruptionSet& corruption) {
  const obs::ScopedTimer timer(obs_run_timer_,
                               sink_ != nullptr ? sink_->trace : nullptr,
                               "optimizer.run");
  OptimizerResult result = run_impl(corruption);
  // Recorded post-merge on the calling thread: deterministic for any
  // solver_threads (the timer above is wall clock and exempt).
  obs_runs_.add();
  obs_disabled_.add(result.disabled.size());
  obs_pruned_.add(result.pruned_safe_disables);
  obs_segments_.add(result.segments);
  obs_subsets_.add(result.subsets_evaluated);
  obs_cache_skips_.add(result.cache_skips);
  obs_accept_skips_.add(result.accept_skips);
  obs_bound_skips_.add(result.bound_skips);
  obs_disabled_per_run_.record(static_cast<double>(result.disabled.size()));
  return result;
}

OptimizerResult Optimizer::run_impl(const CorruptionSet& corruption) {
  if (incremental_) sync_incremental_state();
  OptimizerResult result;
  const std::vector<LinkId> candidates = corruption.active(*topo_);
  if (candidates.empty()) {
    result.remaining_penalty = 0.0;
    return result;
  }

  std::vector<LinkId> to_disable;
  std::vector<LinkId> contested = candidates;
  std::vector<SwitchId> endangered;

  if (config_.use_pruning) {
    // Hypothetically disable everything and see which ToRs complain. The
    // recount is incremental against cached unmasked counts: only the
    // downward closure of the candidates can change.
    const std::vector<std::uint64_t>& baseline = refresh_baseline();
    scratch_mask_.assign(topo_->link_count());
    for (LinkId link : candidates) scratch_mask_.set(link.index());
    paths().masked_violated_tors_into(endangered, baseline,
                                      baseline_violated_, scratch_mask_,
                                      candidates, *constraint_,
                                      scratch_paths_, sweep_scratch_);
    if (endangered.empty()) {
      // The full set is feasible: disable everything. `candidates` is
      // the id-sorted active set, so summing over it keeps the
      // floating-point fold order independent of the corruption map's
      // insert/erase history (checkpoint restores rebuild that map).
      for (LinkId link : candidates) {
        result.disabled_penalty += penalty_(corruption.rate(link));
      }
      for (LinkId link : candidates) topo_->set_enabled(link, false);
      result.disabled = candidates;
      result.remaining_penalty =
          corruption.total_active_penalty(*topo_, penalty_);
      note_links_changed(result.disabled);
      return result;
    }
    // Links not upstream of any endangered ToR are safe. In incremental
    // mode the union of memoized per-ToR closures is the same mask.
    if (incremental_) {
      scratch_mask_.assign(topo_->link_count());
      for (SwitchId tor : endangered) {
        scratch_mask_ |= closures_->closure(tor);
      }
    } else {
      paths().upstream_links_into(scratch_mask_, scratch_visited_, endangered);
    }
    contested.clear();
    for (LinkId link : candidates) {
      if (scratch_mask_.test(link.index())) {
        contested.push_back(link);
      } else {
        to_disable.push_back(link);
        ++result.pruned_safe_disables;
      }
    }
  } else {
    endangered = topo_->tors();
  }

  std::vector<Segment> segments;
  if (config_.use_segmentation) {
    segments = segment_candidates(paths(), contested, endangered,
                                  incremental_ ? closures_.get() : nullptr);
  } else if (!contested.empty()) {
    Segment all;
    all.links = contested;
    all.tors = endangered;
    segments.push_back(std::move(all));
  }
  result.segments = segments.size();

  // Disable the safe links before solving segments so their (absent)
  // contribution to path counts is reflected in feasibility sweeps.
  for (LinkId link : to_disable) topo_->set_enabled(link, false);

  // Incremental reuse: a cached solution answers a segment outright when
  // its candidates, ToRs, and rates are identical and no noted change
  // touched its sweep region since it was solved. A content-identical
  // but stale (or rate-shifted) entry instead warm-starts the solve.
  // Warm pointers reference live cache entries; the cache is not mutated
  // until after the (possibly parallel) solves complete.
  std::vector<OptimizerSegmentOutcome> outcomes(segments.size());
  std::vector<const std::vector<char>*> warm(segments.size(), nullptr);
  std::vector<char> reused(segments.size(), 0);
  if (incremental_) {
    for (std::size_t i = 0; i < segments.size(); ++i) {
      const Segment& segment = segments[i];
      const auto it = segment_cache_.find(
          static_cast<std::uint32_t>(segment.links.front().index()));
      if (it == segment_cache_.end()) continue;
      const CachedSegment& entry = it->second;
      if (entry.links != segment.links || entry.tors != segment.tors) continue;
      bool rates_match = true;
      for (std::size_t k = 0; k < segment.links.size(); ++k) {
        if (entry.rates[k] != corruption.rate(segment.links[k])) {
          rates_match = false;
          break;
        }
      }
      if (entry.fresh && rates_match) {
        outcomes[i].selected = entry.selected;
        outcomes[i].penalty = entry.penalty;
        outcomes[i].exact = entry.exact;
        reused[i] = 1;
        ++result.segment_reuses;
        ++inc_stats_.segment_reuses;
      } else {
        warm[i] = &entry.selected;
        ++inc_stats_.warm_hints;
      }
    }
  }

  // Solve segments against the shared pre-segment state; candidates of
  // one segment never enter another segment's sweep region (segmentation
  // would have merged them), so deferring the set_enabled calls keeps
  // this bit-identical to the serial schedule for any thread count.
  const std::size_t workers = std::min(
      std::max<std::size_t>(config_.solver_threads, 1), segments.size());
  if (workers > 1) {
    common::ThreadPool pool(workers);
    common::parallel_for_each(pool, segments.size(), [&](std::size_t i) {
      if (reused[i] != 0) return;
      OptimizerSegmentScratch scratch;
      outcomes[i] =
          solve_segment(segments[i], corruption, scratch, warm[i],
                        incremental_);
    });
  } else {
    for (std::size_t i = 0; i < segments.size(); ++i) {
      if (reused[i] != 0) continue;
      outcomes[i] =
          solve_segment(segments[i], corruption, *scratch_, warm[i],
                        incremental_);
    }
  }
  if (incremental_) {
    inc_stats_.segment_solves += segments.size() - result.segment_reuses;
  }

  for (std::size_t i = 0; i < segments.size(); ++i) {
    const Segment& segment = segments[i];
    const OptimizerSegmentOutcome& outcome = outcomes[i];
    result.exact = result.exact && outcome.exact;
    result.subsets_evaluated += outcome.subsets_evaluated;
    result.cache_skips += outcome.cache_skips;
    result.accept_skips += outcome.accept_skips;
    result.bound_skips += outcome.bound_skips;
    for (std::size_t k = 0; k < segment.links.size(); ++k) {
      if (outcome.selected[k] != 0) {
        topo_->set_enabled(segment.links[k], false);
        to_disable.push_back(segment.links[k]);
      }
    }
  }

  // Persist the freshly solved segments for the next run, then note our
  // own disables: any cache entry whose region they touch (including
  // ones just stored that selected a link) must go stale — its
  // pre-disable state is gone.
  if (incremental_) {
    for (std::size_t i = 0; i < segments.size(); ++i) {
      if (reused[i] != 0) continue;
      const Segment& segment = segments[i];
      const OptimizerSegmentOutcome& outcome = outcomes[i];
      CachedSegment& entry = segment_cache_[
          static_cast<std::uint32_t>(segment.links.front().index())];
      entry.links = segment.links;
      entry.tors = segment.tors;
      entry.rates.resize(segment.links.size());
      for (std::size_t k = 0; k < segment.links.size(); ++k) {
        entry.rates[k] = corruption.rate(segment.links[k]);
      }
      entry.region = outcome.region;
      entry.selected = outcome.selected;
      entry.penalty = outcome.penalty;
      entry.exact = outcome.exact;
      entry.fresh = true;
    }
  }

  result.disabled = std::move(to_disable);
  for (LinkId link : result.disabled) {
    result.disabled_penalty += penalty_(corruption.rate(link));
  }
  result.remaining_penalty = corruption.total_active_penalty(*topo_, penalty_);
  note_links_changed(result.disabled);
  return result;
}

}  // namespace corropt::core
