// churn: a closed-loop service::ControlLoop replay on one caller thread.
//
// bench_runtime_controller's churn_storm stream — large DCN, 12x the
// default fault density, p_burst 0.4, burst_max 8, 30 days — fed event
// by event to a ControlLoop (CorrOpt, c = 0.875, default
// ControllerConfig). Each ControlLoop::process call is timed from here,
// split by event kind. Penalty and the ToR path fraction are read
// between calls, outside the timings, and summed as they are read. Check: decisions_digest() and the
// penalty equal their recorded values (default seed) or the first
// repetition's.
#include <optional>

#include "corropt/path_counter.h"
#include "scenario_runner.h"
#include "service/churn.h"
#include "service/control_loop.h"
#include "topology/fat_tree.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace corropt;

constexpr common::SimDuration kDuration = 30 * common::kDay;
constexpr std::uint64_t kDefaultSeed = 4242;

// The default seed's stream (bench_runtime_controller's churn_storm),
// recorded from this benchmark.
struct Recorded {
  std::uint64_t digest = 0;
  double penalty = 0.0;
  std::size_t events = 0;
};
constexpr Recorded kRecorded = {0xe06c7323a1c45d75ULL, 208662.94093785086,
                                 13304};

service::ChurnParams stream_params(const Options& options) {
  service::ChurnParams params;
  params.trace.faults_per_link_per_day = 12 * 1.5e-4;
  params.trace.duration = kDuration;
  params.trace.p_burst = 0.40;
  params.trace.burst_max = 8;
  params.seed = bench::derive_seed(options.churn_seed, 2);
  return params;
}

service::ControlLoopConfig loop_config() {
  service::ControlLoopConfig config;
  config.controller.mode = core::CheckerMode::kCorrOpt;
  config.controller.capacity_fraction = 0.875;
  return config;
}

// The ToR-average fraction of design up-paths the topology has now —
// the quantity CapacitySampler averages in the simulations.
double tor_fraction(const core::PathCounter& paths,
                    const topology::Topology& topo) {
  const std::vector<std::uint64_t> counts = paths.up_paths();
  const auto& design = paths.design_paths();
  double sum = 0.0;
  for (const common::SwitchId tor : topo.tors()) {
    const auto d = static_cast<double>(design[tor.index()]);
    sum += d == 0.0 ? 1.0 : static_cast<double>(counts[tor.index()]) / d;
  }
  return sum / static_cast<double>(topo.tors().size());
}

const char* span_name(service::TelemetryKind kind) {
  switch (kind) {
    case service::TelemetryKind::kCorruptionDetected:
      return "process.detect";
    case service::TelemetryKind::kLinkRepaired:
      return "process.repair";
    case service::TelemetryKind::kCorruptionCleared:
      return "process.clear";
  }
  return "process";
}

class Churn final : public Workload {
 public:
  explicit Churn(const Options& options) : options_(options) {
    if (options_.churn_seed == kDefaultSeed) expected_ = kRecorded;
  }

  double setup_only() override {
    const double t0 = now_s();
    const Inputs inputs = set_up();
    return now_s() - t0;
  }

  Repetition timed(Report& report) override {
    Inputs inputs = set_up();
    const topology::Topology& topo = *inputs.topo;
    const std::vector<service::TelemetryEvent>& stream = inputs.stream;
    service::ControlLoop& loop = *inputs.loop;

    // Hourly samples of the ToR fraction, summed as they are taken.
    const core::PathCounter paths(topo);
    double fraction_sum = 0.0;
    std::size_t samples = 0;

    Repetition rep;
    rep.ops = static_cast<double>(stream.size());
    common::SimTime next_sample = 0;
    common::SimTime last_time = 0;
    double rate = 0.0;
    for (const service::TelemetryEvent& event : stream) {
      for (; next_sample < event.time; next_sample += common::kHour) {
        fraction_sum += tor_fraction(paths, topo);
        ++samples;
      }
      rep.penalty += rate * static_cast<double>(event.time - last_time);
      const auto start = Clock::now();
      loop.process(event);
      const double ms = seconds_between(start, Clock::now()) * 1e3;
      rep.wall_s += ms * 1e-3;
      if (event.kind == service::TelemetryKind::kCorruptionDetected) {
        rep.detect_ms.push_back(ms);
      } else if (event.kind == service::TelemetryKind::kLinkRepaired) {
        rep.repair_ms.push_back(ms);
      }
      rate = loop.controller().active_penalty();
      last_time = event.time;
    }
    rep.penalty += rate * static_cast<double>(kDuration - last_time);
    for (; next_sample < kDuration; next_sample += common::kHour) {
      fraction_sum += tor_fraction(paths, topo);
      ++samples;
    }
    rep.mean_tor_fraction = fraction_sum / static_cast<double>(samples);

    const Recorded got{loop.decisions_digest(), rep.penalty, stream.size()};
    check(report, got, "churn decisions differ from the recorded digest");
    return rep;
  }

  std::map<std::string, double> traced(Report& report, SpanLog& log) override {
    std::optional<topology::Topology> topo;
    {
      const ScopedSpan span(&log, "topology.build");
      topo.emplace(topology::build_large_dcn());
    }
    std::vector<service::TelemetryEvent> stream;
    {
      const ScopedSpan span(&log, "make_churn_stream");
      stream = service::make_churn_stream(*topo, stream_params(options_));
    }
    obs::MetricsRegistry registry;
    obs::Sink sink{&registry, nullptr, nullptr, 0};
    std::optional<service::ControlLoop> loop;
    {
      const ScopedSpan span(&log, "ControlLoop");
      loop.emplace(*topo, loop_config(), &sink);
    }
    double penalty = 0.0;
    common::SimTime last_time = 0;
    double rate = 0.0;
    for (const service::TelemetryEvent& event : stream) {
      penalty += rate * static_cast<double>(event.time - last_time);
      {
        const ScopedSpan span(&log, span_name(event.kind));
        loop->process(event);
      }
      rate = loop->controller().active_penalty();
      last_time = event.time;
    }
    penalty += rate * static_cast<double>(kDuration - last_time);
    check(report, {loop->decisions_digest(), penalty, stream.size()},
          "traced churn decisions differ from the timed run");

    RegistryTotals totals;
    totals.add(registry.snapshot());
    std::map<std::string, double> m;
    m["topology.build_s"] = total_s(log, "topology.build");
    m["service.stream_s"] = total_s(log, "make_churn_stream");
    m["corropt.detect_s"] = total_s(log, "process.detect");
    m["corropt.repair_s"] = total_s(log, "process.repair");
    m["corropt.clear_s"] = total_s(log, "process.clear");
    m["traced_wall_s"] = m["corropt.detect_s"] + m["corropt.repair_s"] +
                         m["corropt.clear_s"];
    add_registry_metrics(totals, m);
    return m;
  }

 private:
  struct Inputs {
    std::unique_ptr<topology::Topology> topo;  // the loop points into it
    std::vector<service::TelemetryEvent> stream;
    std::unique_ptr<service::ControlLoop> loop;
  };

  // The timed run's set-up: topology, stream, control loop.
  Inputs set_up() const {
    Inputs inputs;
    inputs.topo =
        std::make_unique<topology::Topology>(topology::build_large_dcn());
    inputs.stream =
        service::make_churn_stream(*inputs.topo, stream_params(options_));
    inputs.loop =
        std::make_unique<service::ControlLoop>(*inputs.topo, loop_config());
    return inputs;
  }

  void check(Report& report, const Recorded& got, const std::string& why) {
    if (expected_.events == 0) expected_ = got;
    const bool ok = got.digest == expected_.digest &&
                    got.penalty == expected_.penalty &&
                    got.events == expected_.events;
    report.account(got.events, ok ? 0 : got.events, why);
  }

  const Options options_;
  Recorded expected_;
};

}  // namespace

std::unique_ptr<Workload> make_churn(const Options& options) {
  return std::make_unique<Churn>(options);
}

}  // namespace perfbench
