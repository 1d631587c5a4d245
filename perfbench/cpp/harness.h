// Shared plumbing of perfbench: options, clocks, spans, the
// metric catalogue, summary statistics and the result line.
//
// perfbench runs one workload per process. A timed run (--trace 0)
// repeats the workload's set-up and timed section until --seconds have
// passed and reports medians over the repetitions; a traced run
// (--trace 1) alternates untraced and traced repetitions and reports the
// per-layer figures of the traced ones (README.md).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/sink.h"
#include "obs/timer.h"

namespace perfbench {

struct Options {
  std::string workload;
  // The harness seed (--seed). The workload inputs are fixed by the
  // per-workload seeds below, so that the quality metrics are the same
  // in every run; see README.md, "Seeds".
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  // Pool size: min(4, hardware threads).
  std::size_t threads = 1;
  // Checkout root (holds BENCH_fleet.json) and the directory perfbench
  // writes its logs and span files into.
  std::string root = ".";
  std::string out_dir = ".";
  // Workload seeds; the defaults are the recipes of bench_fleet,
  // bench_whatif and bench_runtime_controller.
  std::uint64_t fleet_seed = 2017;
  std::uint64_t storm_seed = 900;
  std::uint64_t churn_seed = 4242;
  // Internal: time this many set-ups, print their median, exit.
  std::size_t setup_probe = 0;
};

// ---- time -------------------------------------------------------------

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Seconds since the process-wide origin (first call).
[[nodiscard]] double now_s();

// ---- spans --------------------------------------------------------------

// One timed call into the program, recorded from the harness's own code.
struct Span {
  const char* name = "";  // string literal
  double start_s = 0.0;
  double end_s = 0.0;
  std::int64_t parent = -1;  // index into the same log, -1 for a root
  std::uint32_t lane = 0;    // which task recorded it; 0 is the main thread
  [[nodiscard]] double duration_s() const { return end_s - start_s; }
};

// An in-memory span log for one thread of work. Spans nest by an
// explicit stack of open spans; logs recorded on pool threads are merged
// into the run's log with adopt().
class SpanLog {
 public:
  explicit SpanLog(std::uint32_t lane = 0) : lane_(lane) {}
  std::size_t open(const char* name);
  void close(std::size_t id);
  // Appends `other`'s spans; its roots become children of `parent`.
  void adopt(const SpanLog& other, std::int64_t parent);
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  std::uint32_t lane_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

// RAII span; a null log records nothing, so one code path serves the
// timed and the traced runs.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name)
      : log_(log), id_(log != nullptr ? log->open(name) : 0) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  std::size_t id_;
};

// Durations (seconds) of every span named `name`.
[[nodiscard]] std::vector<double> durations(const SpanLog& log,
                                            const std::string& name);
[[nodiscard]] double total_s(const SpanLog& log, const std::string& name);
// Writes one JSON object per span (id, parent, name, lane, start, end,
// self time) to `path`.
void write_spans(const SpanLog& log, const std::string& path);

// ---- per-decision latencies inside a simulation ------------------------

// Trace-only obs sinks: with one attached, the fast checker and the
// optimizer record one span per decision ("fastcheck.*",
// "optimizer.run") and nothing else — no registry, no journal. One sink
// per simulation, since each simulation advances its sink's clock.
class DecisionRecorders {
 public:
  explicit DecisionRecorders(std::size_t sims);
  [[nodiscard]] corropt::obs::Sink* sink(std::size_t i) { return &sinks_[i]; }
  // Appends the fast-checker decision latencies (ms) to `detect_ms` and
  // the optimizer re-plan latencies (ms) to `repair_ms`.
  void collect(std::vector<double>& detect_ms,
               std::vector<double>& repair_ms) const;

 private:
  std::vector<std::unique_ptr<corropt::obs::TraceRecorder>> recorders_;
  std::vector<corropt::obs::Sink> sinks_;
};

// ---- obs registry totals -------------------------------------------------

// Counter values and timer sums (seconds) of registry snapshots, by
// name. add() folds in one snapshot; a sign of -1 takes one out.
struct RegistryTotals {
  std::map<std::string, double> values;
  void add(const corropt::obs::MetricsSnapshot& snapshot, double sign = 1.0);
  [[nodiscard]] double get(const std::string& name) const;
};

// Per-layer metrics read from the registry: the optimizer, fast checker
// and controller counters and timers, and sim.self_s when `layers`
// already holds sim.step_s.
void add_registry_metrics(const RegistryTotals& registry,
                          std::map<std::string, double>& layers);

// ---- statistics ----------------------------------------------------------

[[nodiscard]] double median(std::vector<double> values);
// Nearest-rank percentile. Throws unless at least ten samples lie beyond
// it, the benchmark's rule for reporting a percentile.
[[nodiscard]] double percentile(std::vector<double> values, double q);

// ---- metric catalogue and the result line ---------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};
// The end-to-end metrics (--trace 0) and the per-layer metrics
// (--trace 1), in BENCHMARK.json order.
[[nodiscard]] const std::vector<MetricDef>& end_to_end_metrics();
[[nodiscard]] const std::vector<MetricDef>& per_layer_metrics();

struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  // Every metric of the run's catalogue; a metric a workload does not
  // exercise stays 0 (per-layer only, README.md).
  std::map<std::string, double> metrics;
  std::vector<std::string> problems;

  // Records `ops` operations, `failed_ops` of which failed, with a
  // reason when any did.
  void account(std::uint64_t ops, std::uint64_t failed_ops,
               const std::string& why);
  [[nodiscard]] bool correct() const {
    return failed == 0 && problems.empty();
  }
};

// One repetition of a timed section, as the end-to-end metrics need it.
struct Repetition {
  double wall_s = 0.0;
  double ops = 0.0;  // input-defined units of work (README.md)
  std::vector<double> detect_ms;
  std::vector<double> repair_ms;
  double penalty = 0.0;
  double mean_tor_fraction = 0.0;
};

// Medians over repetitions of every end-to-end metric, plus `setup_s`
// and peak RSS.
void summarize(const std::vector<Repetition>& reps, double setup_s,
               Report& report);

// Peak resident set of the process, MB.
[[nodiscard]] double peak_rss_mb();

// Prints the human-readable table and, as the last line of stdout, the
// JSON result object.
void print_report(const Options& options, const Report& report);

}  // namespace perfbench
