#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

double now_s() {
  static const Clock::time_point origin = Clock::now();
  return seconds_between(origin, Clock::now());
}

// ---- spans --------------------------------------------------------------

std::size_t SpanLog::open(const char* name) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
  span.lane = lane_;
  span.start_s = now_s();
  spans_.push_back(span);
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void SpanLog::close(std::size_t id) {
  spans_[id].end_s = now_s();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

void SpanLog::adopt(const SpanLog& other, std::int64_t parent) {
  const auto offset = static_cast<std::int64_t>(spans_.size());
  for (Span span : other.spans_) {
    span.parent = span.parent < 0 ? parent : span.parent + offset;
    spans_.push_back(span);
  }
}

std::vector<double> durations(const SpanLog& log, const std::string& name) {
  std::vector<double> out;
  for (const Span& span : log.spans()) {
    if (name == span.name) out.push_back(span.duration_s());
  }
  return out;
}

double total_s(const SpanLog& log, const std::string& name) {
  double sum = 0.0;
  for (const double d : durations(log, name)) sum += d;
  return sum;
}

void write_spans(const SpanLog& log, const std::string& path) {
  const std::vector<Span>& spans = log.spans();
  std::vector<double> child_s(spans.size(), 0.0);
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      child_s[static_cast<std::size_t>(span.parent)] += span.duration_s();
    }
  }
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write span file " + path);
  char line[512];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::snprintf(line, sizeof(line),
                  "{\"id\": %zu, \"parent\": %lld, \"name\": \"%s\", "
                  "\"lane\": %u, \"start_us\": %.3f, \"end_us\": %.3f, "
                  "\"self_us\": %.3f}\n",
                  i, static_cast<long long>(s.parent), s.name, s.lane,
                  s.start_s * 1e6, s.end_s * 1e6,
                  (s.duration_s() - child_s[i]) * 1e6);
    out << line;
  }
}

// ---- per-decision latencies ------------------------------------------------

DecisionRecorders::DecisionRecorders(std::size_t sims) : sinks_(sims) {
  for (std::size_t i = 0; i < sims; ++i) {
    recorders_.push_back(std::make_unique<corropt::obs::TraceRecorder>());
    sinks_[i].trace = recorders_.back().get();
  }
}

void DecisionRecorders::collect(std::vector<double>& detect_ms,
                                std::vector<double>& repair_ms) const {
  // TraceRecorder exposes its spans only as Chrome trace JSON, one
  // {"name": ..., "dur": <us>} object per span.
  for (const auto& recorder : recorders_) {
    if (recorder->dropped() != 0) {
      throw std::runtime_error("decision trace recorder dropped spans");
    }
    std::ostringstream json;
    recorder->write_chrome_trace(json);
    const std::string text = json.str();
    const std::string name_key = "\"name\": \"";
    const std::string dur_key = "\"dur\": ";
    for (std::size_t at = text.find(name_key); at != std::string::npos;
         at = text.find(name_key, at + 1)) {
      const std::size_t name_start = at + name_key.size();
      const std::size_t name_end = text.find('"', name_start);
      const std::size_t dur = text.find(dur_key, name_end);
      if (name_end == std::string::npos || dur == std::string::npos) {
        throw std::runtime_error("malformed decision trace");
      }
      const double ms = std::strtod(text.c_str() + dur + dur_key.size(),
                                    nullptr) *
                        1e-3;
      const std::string name = text.substr(name_start, name_end - name_start);
      if (name.rfind("fastcheck.", 0) == 0) {
        detect_ms.push_back(ms);
      } else if (name == "optimizer.run") {
        repair_ms.push_back(ms);
      }
    }
  }
}

// ---- registry totals ----------------------------------------------------

void RegistryTotals::add(const corropt::obs::MetricsSnapshot& snapshot,
                         double sign) {
  for (const auto& counter : snapshot.counters) {
    values[counter.name] += sign * static_cast<double>(counter.value);
  }
  for (const auto& timer : snapshot.timers) {
    values[timer.name] += sign * timer.sum;
  }
}

double RegistryTotals::get(const std::string& name) const {
  const auto it = values.find(name);
  return it == values.end() ? 0.0 : it->second;
}

void add_registry_metrics(const RegistryTotals& reg,
                          std::map<std::string, double>& m) {
  const double runs = reg.get("optimizer.runs");
  const double checks = reg.get("fastcheck.checks");
  m["optimizer.runs"] = runs;
  m["optimizer.segments"] = reg.get("optimizer.segments");
  m["optimizer.subsets_evaluated"] = reg.get("optimizer.subsets_evaluated");
  m["optimizer.subsets_per_run"] =
      runs > 0 ? reg.get("optimizer.subsets_evaluated") / runs : 0.0;
  m["optimizer.run_s"] = reg.get("optimizer.run_s");
  m["fastcheck.checks"] = checks;
  m["fastcheck.check_s"] = reg.get("fastcheck.check_s");
  m["fastcheck.disable_ratio"] =
      checks > 0 ? reg.get("fastcheck.disables") / checks : 0.0;
  m["controller.refused_capacity"] = reg.get("controller.refused_capacity");
  if (m.count("sim.step_s") != 0) {
    m["sim.self_s"] =
        m["sim.step_s"] - m["optimizer.run_s"] - m["fastcheck.check_s"];
  }
}

// ---- statistics ---------------------------------------------------------

double median(std::vector<double> values) {
  if (values.empty()) throw std::runtime_error("median of no values");
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double percentile(std::vector<double> values, double q) {
  const auto n = static_cast<double>(values.size());
  if (n * (1.0 - q) < 10.0) {
    throw std::runtime_error("too few samples for percentile " +
                             std::to_string(q) + ": " +
                             std::to_string(values.size()));
  }
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * n));
  return values[std::max<std::size_t>(rank, 1) - 1];
}

// ---- catalogue ----------------------------------------------------------

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"wall_s", "s"},
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
      {"ops_per_s", "1/s"},
      {"detect_p50_ms", "ms"},
      {"detect_p99_ms", "ms"},
      {"repair_p50_ms", "ms"},
      {"repair_p99_ms", "ms"},
      {"penalty", "penalty"},
      {"mean_tor_fraction", "fraction"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = {
      {"topology.build_s", "s"},
      {"trace.generate_s", "s"},
      {"trace.events", "count"},
      {"service.stream_s", "s"},
      {"fleet.shard_p50_s", "s"},
      {"fleet.shard_max_s", "s"},
      {"fleet.shard_sum_s", "s"},
      {"fleet.pool_efficiency", "ratio"},
      {"fleet.shard_inflation", "ratio"},
      {"sim.ctor_s", "s"},
      {"sim.steps", "count"},
      {"sim.step_s", "s"},
      {"sim.step_p50_us", "us"},
      {"sim.step_p99_us", "us"},
      {"sim.self_s", "s"},
      {"sim.finish_s", "s"},
      {"sim.branch_prefix_s", "s"},
      {"sim.branch_fanout_s", "s"},
      {"corropt.detect_s", "s"},
      {"corropt.repair_s", "s"},
      {"corropt.clear_s", "s"},
      {"optimizer.runs", "count"},
      {"optimizer.segments", "count"},
      {"optimizer.subsets_evaluated", "count"},
      {"optimizer.subsets_per_run", "count"},
      {"optimizer.run_s", "s"},
      {"optimizer.greedy_fallbacks", "count"},
      {"fastcheck.checks", "count"},
      {"fastcheck.check_s", "s"},
      {"fastcheck.disable_ratio", "ratio"},
      {"controller.refused_capacity", "count"},
      {"snapshot.encode_s", "s"},
      {"snapshot.bytes", "bytes"},
      {"snapshot.restore_p50_s", "s"},
      {"obs.tracing_overhead", "ratio"},
  };
  return defs;
}

// ---- report -------------------------------------------------------------

void Report::account(std::uint64_t ops, std::uint64_t failed_ops,
                     const std::string& why) {
  attempted += ops;
  failed += failed_ops;
  if (failed_ops != 0) problems.push_back(why);
}

void summarize(const std::vector<Repetition>& reps, double setup_s,
               Report& report) {
  std::vector<double> wall, ops, d50, d99, r50, r99, penalty, tor;
  for (const Repetition& rep : reps) {
    wall.push_back(rep.wall_s);
    ops.push_back(rep.ops / rep.wall_s);
    d50.push_back(percentile(rep.detect_ms, 0.50));
    d99.push_back(percentile(rep.detect_ms, 0.99));
    r50.push_back(percentile(rep.repair_ms, 0.50));
    r99.push_back(percentile(rep.repair_ms, 0.99));
    penalty.push_back(rep.penalty);
    tor.push_back(rep.mean_tor_fraction);
  }
  std::map<std::string, double>& m = report.metrics;
  m["wall_s"] = median(wall);
  m["setup_s"] = setup_s;
  m["ops_per_s"] = median(ops);
  m["detect_p50_ms"] = median(d50);
  m["detect_p99_ms"] = median(d99);
  m["repair_p50_ms"] = median(r50);
  m["repair_p99_ms"] = median(r99);
  // Deterministic: every repetition is checked to agree.
  m["penalty"] = penalty.front();
  m["mean_tor_fraction"] = tor.front();
  m["peak_rss_mb"] = peak_rss_mb();
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: run.py execs perfbench, and
  // ru_maxrss would include the Python process's peak from before exec.
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

void print_report(const Options& options, const Report& report) {
  const std::vector<MetricDef>& defs =
      options.trace ? per_layer_metrics() : end_to_end_metrics();
  std::printf("perfbench %s (%s run, seed %llu, %zu threads, %.0f s)\n",
              options.workload.c_str(), options.trace ? "traced" : "timed",
              static_cast<unsigned long long>(options.seed), options.threads,
              options.seconds);
  for (const MetricDef& def : defs) {
    std::printf("  %-30s %18.9g %s\n", def.name, report.metrics.at(def.name),
                def.unit);
  }
  std::printf("  attempted %llu, failed %llu\n",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  for (const std::string& problem : report.problems) {
    std::printf("  FAILED: %s\n", problem.c_str());
  }
  std::string json = "{\"correct\": ";
  json += report.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  char entry[256];
  for (std::size_t i = 0; i < defs.size(); ++i) {
    std::snprintf(entry, sizeof(entry),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", defs[i].name,
                  report.metrics.at(defs[i].name), defs[i].unit);
    json += entry;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
