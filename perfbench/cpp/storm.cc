// storm: bench_whatif's fault-storm what-if on the medium DCN.
//
// 45 days at 100x the default fault density, CorrOpt at c = 0.75. The
// timed section runs the shared history to 85% of the horizon
// (BranchRunner::checkpoint_base), then forks 8 futures — the remaining
// onsets shifted by i x 7 min — across the pool (BranchRunner::run).
// Checks: every branch equals its recorded result (default seed) or the
// first repetition's, and, once per traced run, branch 0 equals
// BranchRunner::run_fresh. The traced run takes the same path through
// the step-level calls checkpoint_base and run are made of (constructor,
// begin_run, step, snapshot, restore_run, finish_run), one span each.
#include <optional>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "scenario_runner.h"
#include "sim/branch_runner.h"
#include "topology/fat_tree.h"
#include "trace/trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace corropt;

constexpr std::size_t kBranches = 8;
constexpr common::SimDuration kDuration = 45 * common::kDay;
// bench_whatif's fork point, computed the same way.
constexpr auto kBranchTime = static_cast<common::SimTime>(0.85 * kDuration);
constexpr double kFaultDensity = 100 * 1.5e-4;  // 100x the default
constexpr std::uint64_t kDefaultSeed = 900;
// Restores timed in a traced repetition: the 8 branches plus probes, so
// that snapshot.restore_p50_s has ten samples beyond it.
constexpr std::size_t kRestoreSamples = 24;

// The fields of a branch's SimulationMetrics the checks compare.
struct Fingerprint {
  double penalty = 0.0;
  double mean_tor_fraction = 0.0;
  std::size_t faults = 0;
  std::size_t tickets = 0;
  std::size_t optimizer_runs = 0;
  bool operator==(const Fingerprint&) const = default;
};

Fingerprint fingerprint(const sim::SimulationMetrics& m) {
  return {m.integrated_penalty, m.mean_tor_fraction, m.faults_injected,
          m.tickets_opened, m.controller.optimizer_runs};
}

// Branch results of the default seed (bench_whatif's recipe), recorded
// from this benchmark; the penalties sum to bench_whatif's 1.480578e6.
const std::vector<Fingerprint> kRecorded = {
    {184024.83205072145, 0.90413416979037997, 12236, 16847, 13944},
    {184651.33367061286, 0.90406990878590887, 12236, 16863, 13953},
    {184390.64476382855, 0.90408458884199094, 12236, 16862, 13953},
    {184589.45117762565, 0.90414932663460901, 12235, 16858, 13949},
    {186764.35606001213, 0.90414105059615379, 12235, 16846, 13947},
    {185122.34925760439, 0.90414259137468989, 12235, 16853, 13946},
    {186442.20012248488, 0.90416153742997596, 12234, 16856, 13937},
    {184592.87297536791, 0.90417553492618563, 12232, 16846, 13934},
};

topology::Topology build_topology() { return topology::build_medium_dcn(); }

sim::ScenarioConfig scenario(const Options& options, obs::Sink* sink) {
  sim::ScenarioConfig config;
  config.mode = core::CheckerMode::kCorrOpt;
  config.capacity_fraction = 0.75;
  config.duration = kDuration;
  config.seed = bench::derive_seed(options.storm_seed + 1, 0);
  config.outcome.first_attempt_success = 0.8;
  config.sink = sink;
  return config;
}

std::vector<trace::TraceEvent> make_trace(const Options& options,
                                          const topology::Topology& topo) {
  common::Rng rng(bench::derive_seed(options.storm_seed, 0));
  trace::TraceParams params;
  params.faults_per_link_per_day = kFaultDensity;
  params.duration = kDuration;
  return trace::CorruptionTraceGenerator(topo, params, rng).generate();
}

// Branch i's future: the shared history verbatim, every later onset
// shifted by i x 7 minutes.
std::vector<std::vector<trace::TraceEvent>> make_futures(
    const std::vector<trace::TraceEvent>& events, std::size_t cursor) {
  std::vector<std::vector<trace::TraceEvent>> futures;
  for (std::size_t b = 0; b < kBranches; ++b) {
    futures.push_back(events);
    for (std::size_t i = cursor; i < events.size(); ++i) {
      futures.back()[i].time +=
          static_cast<common::SimTime>(b) * 7 * common::kMinute;
    }
  }
  return futures;
}

bool at_branch_time(const sim::MitigationSimulation& sim) {
  return sim.now() >= kBranchTime;
}

class Storm final : public Workload {
 public:
  explicit Storm(const Options& options) : options_(options) {
    if (options_.storm_seed == kDefaultSeed) expected_ = kRecorded;
  }

  double setup_only() override {
    const double t0 = now_s();
    const Inputs inputs = set_up();
    return now_s() - t0;
  }

  Repetition timed(Report& report) override {
    DecisionRecorders recorders(1 + kBranches);
    Inputs inputs = set_up();
    const double t1 = now_s();
    const sim::Checkpoint base = inputs.runner.checkpoint_base(
        scenario(options_, recorders.sink(0)), inputs.events, at_branch_time);
    const auto futures = make_futures(inputs.events, base.trace_cursor);
    std::vector<sim::BranchSpec> specs(kBranches);
    for (std::size_t b = 0; b < kBranches; ++b) {
      specs[b].name = "future=" + std::to_string(b);
      specs[b].config = scenario(options_, recorders.sink(1 + b));
      specs[b].events = &futures[b];
    }
    const std::vector<sim::BranchResult> results =
        inputs.runner.run(base, specs, *inputs.pool);
    const double t2 = now_s();

    Repetition rep;
    rep.wall_s = t2 - t1;
    rep.ops = common::to_days(kBranchTime) +
              static_cast<double>(kBranches) *
                  common::to_days(kDuration - kBranchTime);  // simulated days
    recorders.collect(rep.detect_ms, rep.repair_ms);
    std::vector<Fingerprint> got;
    for (const sim::BranchResult& r : results) {
      got.push_back(fingerprint(r.metrics));
      rep.penalty += r.metrics.integrated_penalty;
      rep.mean_tor_fraction += r.metrics.mean_tor_fraction;
    }
    rep.mean_tor_fraction /= static_cast<double>(kBranches);
    events_ = std::move(inputs.events);
    check_branches(report, got,
                   "storm branch differs from its recorded result");
    return rep;
  }

  void final_traced(Report& report,
                    std::map<std::string, double>& /*layers*/) override {
    // Branch 0's future is the unshifted trace: a fresh end-to-end run of
    // it must equal the branch.
    const sim::BranchRunner runner(build_topology);
    const Fingerprint fresh =
        fingerprint(runner.run_fresh(scenario(options_, nullptr), events_));
    report.account(1, fresh == expected_.at(0) ? 0 : 1,
                   "storm branch 0 differs from BranchRunner::run_fresh");
  }

  std::map<std::string, double> traced(Report& report, SpanLog& log) override {
    std::vector<trace::TraceEvent> events;
    {
      std::optional<topology::Topology> topo;
      {
        const ScopedSpan span(&log, "topology.build");
        topo.emplace(build_topology());
      }
      const ScopedSpan span(&log, "trace.generate");
      events = make_trace(options_, *topo);
    }
    common::ThreadPool pool(options_.threads);
    RegistryTotals registry;
    const double start = now_s();

    // checkpoint_base, call by call.
    sim::Checkpoint base;
    {
      const ScopedSpan prefix(&log, "checkpoint_base");
      obs::MetricsRegistry prefix_registry;
      obs::Sink sink{&prefix_registry, nullptr, nullptr, 0};
      std::optional<topology::Topology> topo;
      {
        const ScopedSpan span(&log, "topology.build");
        topo.emplace(build_topology());
      }
      std::optional<sim::MitigationSimulation> sim;
      {
        const ScopedSpan span(&log, "MitigationSimulation");
        sim.emplace(*topo, scenario(options_, &sink));
      }
      {
        const ScopedSpan span(&log, "begin_run");
        sim->begin_run(events);
      }
      while (!at_branch_time(*sim)) {
        const ScopedSpan span(&log, "step");
        if (!sim->step()) {
          throw std::runtime_error("storm prefix hit the horizon");
        }
      }
      {
        const ScopedSpan span(&log, "snapshot");
        base = sim->snapshot();
      }
      registry.add(prefix_registry.snapshot());
    }

    // BranchRunner::run, call by call, one span log per branch.
    const auto futures = make_futures(events, base.trace_cursor);
    std::vector<Fingerprint> got(kBranches);
    std::vector<SpanLog> logs;
    std::vector<std::unique_ptr<obs::MetricsRegistry>> registries;
    std::vector<obs::MetricsSnapshot> restored(kBranches);
    for (std::size_t b = 0; b < kBranches; ++b) {
      logs.emplace_back(static_cast<std::uint32_t>(b + 1));
      registries.push_back(std::make_unique<obs::MetricsRegistry>());
    }
    const std::size_t fanout = log.open("BranchRunner::run");
    common::parallel_for_each(pool, kBranches, [&](std::size_t b) {
      SpanLog& blog = logs[b];
      const ScopedSpan branch(&blog, "branch");
      obs::Sink sink{registries[b].get(), nullptr, nullptr, 0};
      std::optional<topology::Topology> topo;
      {
        const ScopedSpan span(&blog, "topology.build");
        topo.emplace(build_topology());
      }
      std::optional<sim::MitigationSimulation> sim;
      {
        const ScopedSpan span(&blog, "MitigationSimulation");
        sim.emplace(*topo, scenario(options_, &sink));
      }
      {
        const ScopedSpan span(&blog, "restore_run");
        sim->restore_run(futures[b], base);
      }
      // The checkpoint carries the prefix's registry contents; only what
      // the branch adds after the restore is its own work.
      restored[b] = registries[b]->snapshot();
      for (bool more = true; more;) {
        const ScopedSpan span(&blog, "step");
        more = sim->step();
      }
      const ScopedSpan span(&blog, "finish_run");
      got[b] = fingerprint(sim->finish_run());
    });
    log.close(fanout);
    const double traced_wall = now_s() - start;
    for (std::size_t b = 0; b < kBranches; ++b) {
      log.adopt(logs[b], static_cast<std::int64_t>(fanout));
      registry.add(registries[b]->snapshot());
      registry.add(restored[b], -1.0);
    }
    check_branches(report, got,
                   "traced storm branch differs from the timed run");

    // Restore probes: more samples of restore_run than the 8 branches.
    std::vector<double> restore_s = durations(log, "restore_run");
    for (std::size_t i = restore_s.size(); i < kRestoreSamples; ++i) {
      topology::Topology topo = build_topology();
      obs::MetricsRegistry probe_registry;
      obs::Sink sink{&probe_registry, nullptr, nullptr, 0};
      sim::MitigationSimulation sim(topo, scenario(options_, &sink));
      const double t = now_s();
      sim.restore_run(futures[i % kBranches], base);
      restore_s.push_back(now_s() - t);
    }

    std::map<std::string, double> m;
    m["traced_wall_s"] = traced_wall;
    m["topology.build_s"] = total_s(log, "topology.build");
    m["trace.generate_s"] = total_s(log, "trace.generate");
    m["trace.events"] = static_cast<double>(events.size());
    const std::vector<double> step_s = durations(log, "step");
    m["sim.ctor_s"] = total_s(log, "MitigationSimulation");
    m["sim.steps"] = static_cast<double>(step_s.size());
    m["sim.step_s"] = total_s(log, "step");
    m["sim.step_p50_us"] = percentile(step_s, 0.50) * 1e6;
    m["sim.step_p99_us"] = percentile(step_s, 0.99) * 1e6;
    m["sim.finish_s"] = total_s(log, "finish_run");
    m["sim.branch_prefix_s"] = total_s(log, "checkpoint_base");
    m["sim.branch_fanout_s"] = total_s(log, "BranchRunner::run");
    m["snapshot.encode_s"] = total_s(log, "snapshot");
    m["snapshot.bytes"] = static_cast<double>(base.bytes.size());
    m["snapshot.restore_p50_s"] = percentile(restore_s, 0.50);
    add_registry_metrics(registry, m);
    return m;
  }

 private:
  struct Inputs {
    sim::BranchRunner runner{build_topology};
    std::vector<trace::TraceEvent> events;
    std::unique_ptr<common::ThreadPool> pool;
  };

  // The timed run's set-up: the runner, the storm trace, the pool.
  Inputs set_up() const {
    Inputs inputs;
    inputs.events = make_trace(options_, build_topology());
    inputs.pool = std::make_unique<common::ThreadPool>(options_.threads);
    return inputs;
  }

  void check_branches(Report& report, const std::vector<Fingerprint>& got,
                      const std::string& why) {
    if (expected_.empty()) expected_ = got;
    std::uint64_t mismatched = 0;
    for (std::size_t b = 0; b < kBranches; ++b) {
      if (b >= got.size() || !(got[b] == expected_[b])) ++mismatched;
    }
    report.account(kBranches, mismatched, why);
  }

  const Options options_;
  std::vector<Fingerprint> expected_;
  std::vector<trace::TraceEvent> events_;
};

}  // namespace

std::unique_ptr<Workload> make_storm(const Options& options) {
  return std::make_unique<Storm>(options);
}

}  // namespace perfbench
