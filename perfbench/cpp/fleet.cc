// fleet: the paper's 70-DC deployment (§7), FleetCampaign::run on a pool.
//
// Timed section: FleetCampaign::run. Check: the fleet aggregates equal
// the "fleet" block of the checked-in BENCH_fleet.json (default seed),
// or those of the first repetition (any other seed). The traced run
// replays each DC's shard — the steps fleet::run_dc takes — with a span
// around every call, checks each DC against the timed run, and runs one
// extra 1-thread pass for fleet.shard_inflation.
#include <algorithm>
#include <fstream>
#include <optional>
#include <sstream>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "fleet/fleet_campaign.h"
#include "fleet/fleet_json.h"
#include "fleet/fleet_spec.h"
#include "sim/mitigation_sim.h"
#include "trace/trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace corropt;

constexpr std::size_t kDcCount = 70;
constexpr common::SimDuration kDuration = 90 * common::kDay;
constexpr std::uint64_t kDefaultSeed = 2017;

// The top-level "fleet": {...} block of a fleet JSON document.
std::string aggregates_block(const std::string& document) {
  const std::size_t at = document.rfind("\n  \"fleet\": {");
  return at == std::string::npos ? std::string() : document.substr(at);
}

struct Shard {
  sim::SimulationMetrics metrics;
  std::size_t trace_events = 0;
};

// fleet::run_dc's recipe, one public call at a time, with spans.
Shard run_shard(const fleet::FleetSpec& spec, const fleet::DcSpec& dc,
                obs::Sink& sink, SpanLog& log) {
  const ScopedSpan shard_span(&log, "shard");
  std::optional<topology::Topology> topo;
  {
    const ScopedSpan span(&log, "topology.build");
    topo.emplace(fleet::build_dc_topology(dc));
  }
  std::vector<trace::TraceEvent> events;
  {
    const ScopedSpan span(&log, "trace.generate");
    common::Rng rng(
        fleet::derive_dc_seed(spec.seed, dc.key, fleet::SeedStream::kTrace));
    events = trace::CorruptionTraceGenerator(*topo, dc.trace, rng).generate();
  }
  sim::ScenarioConfig config = dc.config;
  config.seed =
      fleet::derive_dc_seed(spec.seed, dc.key, fleet::SeedStream::kSim);
  config.sink = &sink;
  std::optional<sim::MitigationSimulation> sim;
  {
    const ScopedSpan span(&log, "MitigationSimulation");
    sim.emplace(*topo, config);
  }
  {
    const ScopedSpan span(&log, "begin_run");
    sim->begin_run(events);
  }
  for (bool more = true; more;) {
    const ScopedSpan span(&log, "step");
    more = sim->step();
  }
  Shard shard;
  shard.trace_events = events.size();
  const ScopedSpan span(&log, "finish_run");
  shard.metrics = sim->finish_run();
  return shard;
}

class Fleet final : public Workload {
 public:
  explicit Fleet(const Options& options) : options_(options) {
    if (options_.fleet_seed == kDefaultSeed) {
      std::ifstream in(options_.root + "/BENCH_fleet.json");
      std::stringstream text;
      text << in.rdbuf();
      expected_block_ = aggregates_block(text.str());
      if (expected_block_.empty()) {
        throw std::runtime_error("no fleet block in " + options_.root +
                                 "/BENCH_fleet.json");
      }
    }
  }

  double setup_only() override {
    DecisionRecorders recorders(kDcCount);
    const double t0 = now_s();
    const fleet::FleetCampaign campaign = set_up(recorders);
    return now_s() - t0;
  }

  Repetition timed(Report& report) override {
    DecisionRecorders recorders(kDcCount);
    const fleet::FleetCampaign campaign = set_up(recorders);
    fleet::CampaignOptions campaign_options;
    campaign_options.threads = options_.threads;
    const double t1 = now_s();
    result_ = campaign.run(campaign_options);
    const double t2 = now_s();

    Repetition rep;
    rep.wall_s = t2 - t1;
    for (const fleet::DcSpec& dc : campaign.spec().dcs) {
      rep.ops += common::to_days(dc.config.duration);  // DC-days
    }
    recorders.collect(rep.detect_ms, rep.repair_ms);
    rep.penalty = result_.fleet.integrated_penalty;
    rep.mean_tor_fraction = result_.fleet.mean_tor_fraction;

    const std::string block =
        aggregates_block(fleet::fleet_json_string(result_, "bench_fleet"));
    if (expected_block_.empty()) expected_block_ = block;
    const bool ok = block == expected_block_ && result_.dcs.size() == kDcCount;
    report.account(kDcCount, ok ? 0 : kDcCount,
                   "fleet aggregates differ from BENCH_fleet.json");
    return rep;
  }

  std::map<std::string, double> traced(Report& report, SpanLog& log) override {
    Pass pass = run_pass(options_.threads, log);
    check_pass(report, pass);
    const RegistryTotals& reg = pass.registry;
    const std::vector<double> shard_s = durations(log, "shard");
    const std::vector<double> step_s = durations(log, "step");
    std::map<std::string, double> m;
    m["traced_wall_s"] = pass.wall_s;
    m["topology.build_s"] = total_s(log, "topology.build");
    m["trace.generate_s"] = total_s(log, "trace.generate");
    double events = 0.0;
    for (const Shard& shard : pass.shards) {
      events += static_cast<double>(shard.trace_events);
    }
    m["trace.events"] = events;
    double shard_sum = 0.0, shard_max = 0.0;
    for (const double s : shard_s) {
      shard_sum += s;
      shard_max = std::max(shard_max, s);
    }
    m["fleet.shard_p50_s"] = percentile(shard_s, 0.5);
    m["fleet.shard_max_s"] = shard_max;
    m["fleet.shard_sum_s"] = shard_sum;
    m["fleet.pool_efficiency"] =
        shard_sum / (static_cast<double>(options_.threads) * pass.wall_s);
    m["sim.ctor_s"] = total_s(log, "MitigationSimulation");
    m["sim.steps"] = static_cast<double>(step_s.size());
    m["sim.step_s"] = total_s(log, "step");
    m["sim.step_p50_us"] = percentile(step_s, 0.50) * 1e6;
    m["sim.step_p99_us"] = percentile(step_s, 0.99) * 1e6;
    m["sim.finish_s"] = total_s(log, "finish_run");
    add_registry_metrics(reg, m);
    return m;
  }

  void final_traced(Report& report,
                    std::map<std::string, double>& layers) override {
    SpanLog log;
    check_pass(report, run_pass(1, log));
    layers["fleet.shard_inflation"] =
        layers.at("fleet.shard_sum_s") / total_s(log, "shard");
  }

 private:
  // The timed run's set-up: the fleet spec, each DC wired to its
  // decision recorder, and the campaign.
  fleet::FleetCampaign set_up(DecisionRecorders& recorders) const {
    fleet::FleetSpec spec =
        fleet::make_deployment_fleet(kDcCount, kDuration, options_.fleet_seed);
    for (std::size_t i = 0; i < spec.dcs.size(); ++i) {
      spec.dcs[i].config.sink = recorders.sink(i);
    }
    return fleet::FleetCampaign(std::move(spec));
  }

  struct Pass {
    fleet::FleetSpec spec;
    std::vector<Shard> shards;
    RegistryTotals registry;
    double wall_s = 0.0;
  };

  // Runs every DC's shard on a `threads`-wide pool, one registry per
  // DC, shard spans adopted under one "fleet.pass" span.
  Pass run_pass(std::size_t threads, SpanLog& log) const {
    Pass pass;
    pass.spec =
        fleet::make_deployment_fleet(kDcCount, kDuration, options_.fleet_seed);
    const std::size_t n = pass.spec.dcs.size();
    pass.shards.resize(n);
    std::vector<std::unique_ptr<obs::MetricsRegistry>> registries;
    std::vector<obs::Sink> sinks(n);
    std::vector<SpanLog> logs;
    for (std::size_t i = 0; i < n; ++i) {
      registries.push_back(std::make_unique<obs::MetricsRegistry>());
      sinks[i].metrics = registries.back().get();
      logs.emplace_back(static_cast<std::uint32_t>(i + 1));
    }
    const double start = now_s();
    const std::size_t pass_span = log.open("fleet.pass");
    {
      common::ThreadPool pool(threads);
      common::parallel_for_each(pool, n, [&](std::size_t i) {
        pass.shards[i] =
            run_shard(pass.spec, pass.spec.dcs[i], sinks[i], logs[i]);
      });
    }
    log.close(pass_span);
    pass.wall_s = now_s() - start;
    for (std::size_t i = 0; i < n; ++i) {
      log.adopt(logs[i], static_cast<std::int64_t>(pass_span));
      pass.registry.add(registries[i]->snapshot());
    }
    return pass;
  }

  // Each traced shard must match the timed run's row for the same DC.
  void check_pass(Report& report, const Pass& pass) const {
    std::uint64_t mismatched = 0;
    for (std::size_t i = 0; i < pass.shards.size(); ++i) {
      const sim::SimulationMetrics& m = pass.shards[i].metrics;
      const std::string& name = pass.spec.dcs[i].name;
      const auto row = std::find_if(
          result_.dcs.begin(), result_.dcs.end(),
          [&](const fleet::DcResult& r) { return r.name == name; });
      if (row == result_.dcs.end() ||
          row->metrics.integrated_penalty != m.integrated_penalty ||
          row->metrics.mean_tor_fraction != m.mean_tor_fraction ||
          row->metrics.faults_injected != m.faults_injected ||
          row->metrics.controller.optimizer_runs !=
              m.controller.optimizer_runs) {
        ++mismatched;
      }
    }
    report.account(pass.shards.size(), mismatched,
                   "traced fleet shards differ from the timed run");
  }

  const Options options_;
  std::string expected_block_;
  fleet::FleetResult result_;
};

}  // namespace

std::unique_ptr<Workload> make_fleet(const Options& options) {
  return std::make_unique<Fleet>(options);
}

}  // namespace perfbench
