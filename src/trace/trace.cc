#include "trace/trace.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <charconv>
#include <stdexcept>
#include <istream>
#include <ostream>
#include <sstream>
#include <string>

#include "common/csv.h"
#include "common/logging.h"

namespace corropt::trace {

CorruptionTraceGenerator::CorruptionTraceGenerator(
    const topology::Topology& topo, TraceParams params, common::Rng& rng)
    : topo_(&topo), params_(params), rng_(&rng) {}

std::vector<TraceEvent> CorruptionTraceGenerator::generate() {
  assert(params_.faults_per_link_per_day > 0.0);
  assert(params_.duration > 0);
  faults::FaultFactory factory(*topo_, params_.mix, *rng_);

  // Pod membership index for burst targeting.
  std::vector<std::vector<common::LinkId>> pod_links;
  for (const topology::Link& link : topo_->links()) {
    const int pod = topo_->switch_at(link.lower).pod;
    if (pod < 0) continue;
    if (static_cast<std::size_t>(pod) >= pod_links.size()) {
      pod_links.resize(static_cast<std::size_t>(pod) + 1);
    }
    pod_links[static_cast<std::size_t>(pod)].push_back(link.id);
  }

  auto add_fault = [&](std::vector<TraceEvent>& events, common::LinkId link,
                       double time) {
    TraceEvent event;
    event.time = static_cast<SimTime>(time);
    event.fault = factory.make_random_fault(link, event.time);
    events.push_back(std::move(event));
  };

  // Poisson process over the whole link population: exponential
  // inter-arrival times with aggregate rate links * per-link rate.
  const double aggregate_per_second =
      params_.faults_per_link_per_day *
      static_cast<double>(topo_->link_count()) /
      static_cast<double>(common::kDay);
  std::vector<TraceEvent> events;
  double t = rng_->exponential(1.0 / aggregate_per_second);
  while (t < static_cast<double>(params_.duration)) {
    const common::LinkId link(static_cast<common::LinkId::underlying_type>(
        rng_->uniform_index(topo_->link_count())));
    add_fault(events, link, t);

    // Correlated follow-up faults near the seed fault.
    if (params_.p_burst > 0.0 && rng_->bernoulli(params_.p_burst)) {
      const int extra =
          1 + static_cast<int>(rng_->uniform_index(
                  static_cast<std::uint64_t>(params_.burst_max)));
      const topology::Switch& lower =
          topo_->switch_at(topo_->link_at(link).lower);
      for (int i = 0; i < extra; ++i) {
        common::LinkId target = link;
        if (rng_->bernoulli(params_.p_burst_same_switch) ||
            lower.pod < 0 ||
            pod_links[static_cast<std::size_t>(lower.pod)].empty()) {
          target = lower.uplinks[rng_->uniform_index(lower.uplinks.size())];
        } else {
          const auto& pool = pod_links[static_cast<std::size_t>(lower.pod)];
          target = pool[rng_->uniform_index(pool.size())];
        }
        const double when =
            t + rng_->uniform(0.0,
                              static_cast<double>(params_.burst_window));
        if (when < static_cast<double>(params_.duration)) {
          add_fault(events, target, when);
        }
      }
    }
    t += rng_->exponential(1.0 / aggregate_per_second);
  }
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.time < b.time;
            });
  return events;
}

namespace {

std::string pack_links(const std::vector<common::LinkId>& links) {
  std::string out;
  for (std::size_t i = 0; i < links.size(); ++i) {
    if (i != 0) out.push_back(';');
    out += std::to_string(links[i].value());
  }
  return out;
}

std::string pack_actions(const std::vector<faults::RepairAction>& actions) {
  std::string out;
  for (std::size_t i = 0; i < actions.size(); ++i) {
    if (i != 0) out.push_back(';');
    out += std::to_string(static_cast<int>(actions[i]));
  }
  return out;
}

std::string pack_effects(const std::vector<faults::DirectionEffect>& effects) {
  std::ostringstream out;
  // max_digits10 so that doubles survive the text round trip exactly.
  out.precision(17);
  for (std::size_t i = 0; i < effects.size(); ++i) {
    if (i != 0) out << ';';
    const faults::DirectionEffect& e = effects[i];
    out << e.direction.value() << ':' << e.extra_attenuation_db << ':'
        << e.tx_power_delta_db << ':' << e.tx_decay_db_per_day << ':'
        << e.corruption_rate;
  }
  return out.str();
}

// Parses an integer field that must name one of `all`'s enumerators.
template <typename Enum, std::size_t N>
Enum parse_enum(const std::string& field, const std::array<Enum, N>& all) {
  const int value = std::stoi(field);
  for (const Enum e : all) {
    if (static_cast<int>(e) == value) return e;
  }
  throw std::invalid_argument("enum value " + field + " out of range");
}

// Splits on `sep`, preserving empty fields — including a trailing one,
// so "1:2:" is three fields and a row with an empty final column fails
// its shape/number checks instead of silently shifting. An empty input
// has no fields at all (the packers emit "" for empty lists).
std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> parts;
  if (s.empty()) return parts;
  std::string current;
  for (char c : s) {
    if (c == sep) {
      parts.push_back(current);
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  parts.push_back(current);
  return parts;
}

}  // namespace

void write_trace(std::ostream& out, const std::vector<TraceEvent>& events) {
  common::CsvWriter csv(out);
  csv.row("time_s", "root_cause", "links", "fixing_actions", "effects");
  for (const TraceEvent& event : events) {
    csv.row(event.time, static_cast<int>(event.fault.cause),
            pack_links(event.fault.links),
            pack_actions(event.fault.fixing_actions),
            pack_effects(event.fault.effects));
  }
}

std::vector<TraceEvent> read_trace(std::istream& in) {
  std::vector<TraceEvent> events;
  std::string line;
  bool header = true;
  std::size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (header) {
      header = false;
      continue;
    }
    if (line.empty()) continue;
    // Malformed rows are skipped with a warning rather than corrupting
    // the replay: trace files travel between machines and tools.
    try {
      const std::vector<std::string> fields = common::parse_csv_row(line);
      if (fields.size() != 5) throw std::invalid_argument("field count");
      TraceEvent event;
      event.time = std::stoll(fields[0]);
      event.fault.onset = event.time;
      event.fault.cause = parse_enum(fields[1], faults::kAllRootCauses);
      for (const std::string& part : split(fields[2], ';')) {
        event.fault.links.emplace_back(
            static_cast<common::LinkId::underlying_type>(std::stoul(part)));
      }
      for (const std::string& part : split(fields[3], ';')) {
        event.fault.fixing_actions.push_back(
            parse_enum(part, faults::kAllRepairActions));
      }
      for (const std::string& part : split(fields[4], ';')) {
        const std::vector<std::string> cols = split(part, ':');
        if (cols.size() != 5) throw std::invalid_argument("effect shape");
        faults::DirectionEffect effect;
        effect.direction = common::DirectionId(
            static_cast<common::DirectionId::underlying_type>(
                std::stoul(cols[0])));
        effect.extra_attenuation_db = std::stod(cols[1]);
        effect.tx_power_delta_db = std::stod(cols[2]);
        effect.tx_decay_db_per_day = std::stod(cols[3]);
        effect.corruption_rate = std::stod(cols[4]);
        event.fault.effects.push_back(effect);
      }
      if (event.fault.links.empty()) {
        throw std::invalid_argument("no links");
      }
      events.push_back(std::move(event));
    } catch (const std::exception& error) {
      CORROPT_LOG_WARNING << "trace: skipping malformed row "
                          << line_number << " (" << error.what() << ")";
    }
  }
  return events;
}

}  // namespace corropt::trace
