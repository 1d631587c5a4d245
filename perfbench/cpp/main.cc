// perfbench: the CorrOpt benchmark harness (README.md).
//
//   perfbench --workload fleet|storm|churn --seed N --seconds S --trace 0|1
//             [--root DIR] [--out-dir DIR]
//             [--fleet-seed N] [--storm-seed N] [--churn-seed N]
//
//   perfbench ... --setup-probe N   (internal: see run_probe)
//
// Prints a table, then as the last line of stdout one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// Exits 1 when any check failed, 2 on a usage error.
#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <thread>

#include "workloads.h"

extern char** environ;

namespace perfbench {

namespace {

[[noreturn]] void usage(const std::string& problem) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload fleet|storm|churn --seed N "
               "--seconds S --trace 0|1\n"
               "                 [--root DIR] [--out-dir DIR]\n"
               "                 [--fleet-seed N] [--storm-seed N] "
               "[--churn-seed N]\n",
               problem.c_str());
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const char* text) {
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') usage("bad value for " + flag);
  return value;
}

Options parse(int argc, char** argv) {
  Options o;
  o.threads =
      std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4);
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const char* value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = parse_u64(flag, value);
    } else if (flag == "--seconds") {
      o.seconds = static_cast<double>(parse_u64(flag, value));
    } else if (flag == "--trace") {
      o.trace = parse_u64(flag, value) != 0;
    } else if (flag == "--root") {
      o.root = value;
    } else if (flag == "--out-dir") {
      o.out_dir = value;
    } else if (flag == "--fleet-seed") {
      o.fleet_seed = parse_u64(flag, value);
    } else if (flag == "--storm-seed") {
      o.storm_seed = parse_u64(flag, value);
    } else if (flag == "--churn-seed") {
      o.churn_seed = parse_u64(flag, value);
    } else if (flag == "--setup-probe") {
      o.setup_probe = parse_u64(flag, value);
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (o.workload != "fleet" && o.workload != "storm" && o.workload != "churn") {
    usage("--workload must be fleet, storm or churn");
  }
  return o;
}

// The program's stderr (fd 2) goes to a log file while the workload
// runs: the optimizer warns once per segment that falls back to greedy
// (644 times per storm repetition), which would bury the harness's
// output. The traced run counts those warnings.
class StderrLog {
 public:
  explicit StderrLog(const std::string& path) : path_(path) {
    std::fflush(stderr);
    saved_ = dup(2);
    const int fd = open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (saved_ < 0 || fd < 0) usage("cannot write " + path);
    dup2(fd, 2);
    close(fd);
  }
  ~StderrLog() {
    std::fflush(stderr);
    dup2(saved_, 2);
    close(saved_);
  }
  StderrLog(const StderrLog&) = delete;
  StderrLog& operator=(const StderrLog&) = delete;

  [[nodiscard]] long offset() const { return lseek(2, 0, SEEK_CUR); }

  // Occurrences of `needle` written since `offset`. Counted per
  // occurrence, not per line: pool threads write their warnings piecewise,
  // so two can share a line.
  [[nodiscard]] double count_since(long offset,
                                   const std::string& needle) const {
    std::ifstream in(path_);
    in.seekg(offset);
    double count = 0;
    for (std::string line; std::getline(in, line);) {
      for (std::size_t at = line.find(needle); at != std::string::npos;
           at = line.find(needle, at + needle.size())) {
        ++count;
      }
    }
    return count;
  }

 private:
  std::string path_;
  int saved_ = -1;
};

std::unique_ptr<Workload> make_workload(const Options& o) {
  if (o.workload == "fleet") return make_fleet(o);
  if (o.workload == "storm") return make_storm(o);
  return make_churn(o);
}

// setup_s comes from fresh processes spread over the run. On a shared
// 4-vCPU VM a process often runs all its set-ups in one of two modes
// (about 4 ms or 6.5 ms for storm and churn), and the machine's speed
// drifts over seconds; set-ups timed only in the run's own process, or
// all at one moment, made setup_s swing by a third between runs. Each
// probe process times kProbeSetups set-ups and prints their median;
// setup_s is the median over kProbeProcesses probes.
constexpr std::size_t kProbeProcesses = 24;
constexpr std::size_t kProbeSetups = 5;

// Runs one probe: this executable with --setup-probe, its stdout read
// through a pipe.
double run_probe(const Options& o) {
  char exe[4096];
  const ssize_t len = readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  if (len <= 0) throw std::runtime_error("cannot find /proc/self/exe");
  exe[len] = '\0';
  const std::vector<std::string> args = {
      exe, "--workload", o.workload, "--setup-probe",
      std::to_string(kProbeSetups), "--root", o.root, "--out-dir", o.out_dir,
      "--fleet-seed", std::to_string(o.fleet_seed),
      "--storm-seed", std::to_string(o.storm_seed),
      "--churn-seed", std::to_string(o.churn_seed)};
  std::vector<char*> argv;
  for (const std::string& arg : args) {
    argv.push_back(const_cast<char*>(arg.c_str()));
  }
  argv.push_back(nullptr);

  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  pid_t pid = 0;
  const int spawned =
      posix_spawn(&pid, exe, &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  std::string out;
  char buf[256];
  for (ssize_t n; spawned == 0 && (n = read(fds[0], buf, sizeof(buf))) != 0;) {
    if (n > 0) out.append(buf, static_cast<std::size_t>(n));
    else if (errno != EINTR) break;
  }
  close(fds[0]);
  if (spawned != 0) throw std::runtime_error("cannot start a set-up probe");
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("set-up probe failed");
  }
  return std::strtod(out.c_str(), nullptr);
}

// --trace 0: repeat until --seconds have passed, then the medians. The
// set-up probes run between repetitions, as many as the share of the
// run that has passed.
void run_timed(Workload& workload, const Options& o, Report& report) {
  std::vector<Repetition> reps;
  std::vector<double> probes;
  const double start = now_s();
  do {
    reps.push_back(workload.timed(report));
    std::printf("  repetition %zu: wall_s %.6f\n", reps.size(),
                reps.back().wall_s);
    const double done = std::min(1.0, (now_s() - start) / o.seconds);
    while (static_cast<double>(probes.size()) <
           done * static_cast<double>(kProbeProcesses)) {
      probes.push_back(run_probe(o));
    }
  } while (now_s() - start < o.seconds);
  while (probes.size() < kProbeProcesses) probes.push_back(run_probe(o));
  summarize(reps, median(probes), report);
}

// --trace 1: after a warm-up repetition, alternate untraced and traced
// repetitions until --seconds have passed; each per-layer metric is the
// median over the traced ones. The spans of the last traced repetition
// go to the span file.
void run_traced(Workload& workload, const Options& o, const StderrLog& log,
                Report& report) {
  std::vector<double> untraced_wall;
  std::map<std::string, std::vector<double>> layers;
  SpanLog spans;
  const double start = now_s();
  // Warm-up: a process's first repetition pays for faulting in fresh
  // memory (fleet's runs twice as long), which would skew the overhead.
  workload.timed(report);
  do {
    untraced_wall.push_back(workload.timed(report).wall_s);
    std::printf("  untraced repetition: wall_s %.6f\n", untraced_wall.back());
    spans = SpanLog();
    const long offset = log.offset();
    std::map<std::string, double> m = workload.traced(report, spans);
    m["optimizer.greedy_fallbacks"] =
        log.count_since(offset, "exceeded exact budget; greedy fallback");
    std::printf("  traced repetition: wall_s %.6f\n", m.at("traced_wall_s"));
    for (const auto& [name, value] : m) layers[name].push_back(value);
  } while (now_s() - start < o.seconds);

  std::map<std::string, double> result;
  for (const auto& [name, values] : layers) result[name] = median(values);
  result["obs.tracing_overhead"] =
      result.at("traced_wall_s") / median(untraced_wall) - 1.0;
  workload.final_traced(report, result);
  for (const MetricDef& def : per_layer_metrics()) {
    const auto it = result.find(def.name);
    if (it != result.end()) report.metrics[def.name] = it->second;
  }
  write_spans(spans, o.out_dir + "/spans-" + o.workload + ".jsonl");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options options = parse(argc, argv);
  if (options.setup_probe > 0) {
    const std::unique_ptr<Workload> workload = make_workload(options);
    std::vector<double> setups;
    while (setups.size() < options.setup_probe) {
      setups.push_back(workload->setup_only());
    }
    std::printf("%.9g\n", median(setups));
    return 0;
  }
  Report report;
  for (const MetricDef& def : options.trace ? per_layer_metrics()
                                            : end_to_end_metrics()) {
    report.metrics[def.name] = 0.0;
  }
  try {
    const StderrLog log(options.out_dir + "/program-stderr-" +
                        options.workload + ".log");
    const std::unique_ptr<Workload> workload = make_workload(options);
    if (options.trace) {
      run_traced(*workload, options, log, report);
    } else {
      run_timed(*workload, options, report);
    }
  } catch (const std::exception& e) {
    report.account(1, 1, std::string("exception: ") + e.what());
  }
  print_report(options, report);
  return report.correct() ? 0 : 1;
}
