// The three workloads (README.md). Each one knows how to set itself up,
// run and check one timed repetition, and run one traced repetition;
// main.cc owns the repetition loop.
#pragma once

#include <map>
#include <memory>
#include <string>

#include "harness.h"

namespace perfbench {

class Workload {
 public:
  virtual ~Workload() = default;
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  // One set-up of the timed run — everything before the first timed
  // call — discarded; returns its duration (setup_s, main.cc).
  virtual double setup_only() = 0;

  // One timed repetition: set-up, the timed section, then the output
  // checks (outside the timings), accounted in `report`.
  virtual Repetition timed(Report& report) = 0;

  // One traced repetition: the same work through the same public calls
  // (or their step-level equivalents), each wrapped in a span in `log`,
  // with an obs registry attached through the program's sink parameter.
  // Returns the per-layer metrics this workload exercises plus
  // "traced_wall_s", the traced counterpart of the timed section.
  virtual std::map<std::string, double> traced(Report& report,
                                               SpanLog& log) = 0;

  // Work done once per traced process, after the repetitions: fleet's
  // 1-thread pass (fleet.shard_inflation), storm's fresh reference run.
  virtual void final_traced(Report& /*report*/,
                            std::map<std::string, double>& /*layers*/) {}
};

std::unique_ptr<Workload> make_fleet(const Options& options);
std::unique_ptr<Workload> make_storm(const Options& options);
std::unique_ptr<Workload> make_churn(const Options& options);

}  // namespace perfbench
