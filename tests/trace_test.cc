#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/rng.h"
#include "topology/fat_tree.h"
#include "trace/trace.h"

namespace corropt::trace {
namespace {

TEST(TraceGenerator, ArrivalRateMatchesConfig) {
  const auto topo = topology::build_fat_tree(8);  // 256 links
  common::Rng rng(1);
  TraceParams params;
  params.faults_per_link_per_day = 0.01;
  params.duration = 200 * common::kDay;
  CorruptionTraceGenerator generator(topo, params, rng);
  const auto events = generator.generate();
  const double expected = 0.01 * 256 * 200;
  EXPECT_NEAR(static_cast<double>(events.size()), expected,
              4.0 * std::sqrt(expected));
}

TEST(TraceGenerator, EventsSortedAndInRange) {
  const auto topo = topology::build_fat_tree(4);
  common::Rng rng(2);
  TraceParams params;
  params.faults_per_link_per_day = 0.1;
  params.duration = 30 * common::kDay;
  const auto events = CorruptionTraceGenerator(topo, params, rng).generate();
  ASSERT_FALSE(events.empty());
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].time, events[i].time);
  }
  for (const TraceEvent& event : events) {
    EXPECT_GE(event.time, 0);
    EXPECT_LT(event.time, params.duration);
    EXPECT_FALSE(event.fault.links.empty());
    for (common::LinkId link : event.fault.links) {
      EXPECT_LT(link.index(), topo.link_count());
    }
    EXPECT_FALSE(event.fault.effects.empty());
    EXPECT_FALSE(event.fault.fixing_actions.empty());
    EXPECT_EQ(event.fault.onset, event.time);
  }
}

TEST(TraceGenerator, DeterministicGivenSeed) {
  const auto topo = topology::build_fat_tree(4);
  TraceParams params;
  params.duration = 60 * common::kDay;
  params.faults_per_link_per_day = 0.05;
  common::Rng rng_a(42), rng_b(42);
  const auto a = CorruptionTraceGenerator(topo, params, rng_a).generate();
  const auto b = CorruptionTraceGenerator(topo, params, rng_b).generate();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].time, b[i].time);
    EXPECT_EQ(a[i].fault.cause, b[i].fault.cause);
    EXPECT_EQ(a[i].fault.links, b[i].fault.links);
  }
}

TEST(TraceCsv, RoundTripPreservesEverything) {
  const auto topo = topology::build_fat_tree(4);
  common::Rng rng(3);
  TraceParams params;
  params.duration = 100 * common::kDay;
  params.faults_per_link_per_day = 0.02;
  const auto events = CorruptionTraceGenerator(topo, params, rng).generate();
  ASSERT_FALSE(events.empty());

  std::stringstream buffer;
  write_trace(buffer, events);
  const auto parsed = read_trace(buffer);

  ASSERT_EQ(parsed.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(parsed[i].time, events[i].time);
    EXPECT_EQ(parsed[i].fault.cause, events[i].fault.cause);
    EXPECT_EQ(parsed[i].fault.links, events[i].fault.links);
    EXPECT_EQ(parsed[i].fault.fixing_actions,
              events[i].fault.fixing_actions);
    ASSERT_EQ(parsed[i].fault.effects.size(), events[i].fault.effects.size());
    for (std::size_t j = 0; j < events[i].fault.effects.size(); ++j) {
      const auto& in = events[i].fault.effects[j];
      const auto& out = parsed[i].fault.effects[j];
      EXPECT_EQ(out.direction, in.direction);
      EXPECT_NEAR(out.extra_attenuation_db, in.extra_attenuation_db, 1e-9);
      EXPECT_NEAR(out.tx_power_delta_db, in.tx_power_delta_db, 1e-9);
      EXPECT_NEAR(out.corruption_rate, in.corruption_rate,
                  in.corruption_rate * 1e-9);
    }
  }
}

TEST(TraceCsv, EmptyTrace) {
  std::stringstream buffer;
  write_trace(buffer, {});
  EXPECT_TRUE(read_trace(buffer).empty());
}

}  // namespace
}  // namespace corropt::trace

namespace corropt::trace {
namespace {

TEST(TraceCsv, SkipsMalformedRowsWithoutDying) {
  std::stringstream buffer(
      "time_s,root_cause,links,fixing_actions,effects\n"
      "nonsense row\n"
      "100,0,5,0;1,10:8.0:0:0:0.001\n"
      "200,0,7,0,badeffect\n"
      "300,xyz,7,0,14:8.0:0:0:0.001\n"
      "400,1,,1,16:8.0:0:0:0.001\n"
      // Enum fields naming no enumerator (cause 99, action -1 or 6).
      "410,99,5,0,10:8.0:0:0:0.001\n"
      "420,0,6,-1,12:8.0:0:0:0.001\n"
      "430,0,7,2;6,14:8.0:0:0:0.001\n"
      "500,4,8;9,5,16:0:0:0:0.001;18:0:0:0:0.0012\n");
  const auto events = read_trace(buffer);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].time, 100);
  EXPECT_EQ(events[0].fault.links.size(), 1u);
  EXPECT_EQ(events[1].time, 500);
  EXPECT_EQ(events[1].fault.links.size(), 2u);
  EXPECT_EQ(events[1].fault.effects.size(), 2u);
  // The last enumerators still parse.
  EXPECT_EQ(events[1].fault.cause, faults::RootCause::kSharedComponent);
  EXPECT_EQ(events[1].fault.fixing_actions,
            std::vector<faults::RepairAction>{
                faults::RepairAction::kReplaceSharedComponent});
}

TEST(TraceCsv, TrailingEmptyFieldsAreMalformedNotTruncated) {
  // Regression: split() used to drop a trailing empty field, so an
  // effect written as "10:8.0:0:0:" parsed as four columns and the row
  // died on the shape check while "8;" silently became one link. Both
  // now fail their own parse (empty numeric field) and only those rows
  // are skipped.
  std::stringstream buffer(
      "time_s,root_cause,links,fixing_actions,effects\n"
      "100,0,5,0,10:8.0:0:0:\n"
      "200,0,8;,0,16:8.0:0:0:0.001\n"
      "300,0,6,0;,12:8.0:0:0:0.001\n"
      "400,0,7,0,14:8.0:0:0:0.002\n");
  const auto events = read_trace(buffer);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].time, 400);
  ASSERT_EQ(events[0].fault.effects.size(), 1u);
  EXPECT_DOUBLE_EQ(events[0].fault.effects[0].corruption_rate, 0.002);
}

}  // namespace
}  // namespace corropt::trace
