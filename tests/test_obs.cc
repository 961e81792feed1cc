// lg::obs — metrics registry semantics, trace-ring wraparound, the on/off
// switches, JSON emission, run-report golden output, and an end-to-end check
// that a full poison-repair cycle leaves the expected metric/trace footprint.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/lifeguard.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "util/env_knobs.h"
#include "util/json.h"
#include "util/scheduler.h"
#include "workload/scenarios.h"
#include "workload/sim_world.h"

namespace lg {
namespace {

using obs::MetricsRegistry;
using obs::TraceKind;
using obs::TraceRing;

// ---------------------------------------------------------------- metrics

TEST(Metrics, CounterFindOrCreateReturnsSameHandle) {
  MetricsRegistry reg;
  auto& a = reg.counter("lg.test.hits");
  auto& b = reg.counter("lg.test.hits");
  EXPECT_EQ(&a, &b);
  a.inc();
  b.inc(2);
  EXPECT_EQ(a.value(), 3u);
  EXPECT_EQ(a.name(), "lg.test.hits");
}

TEST(Metrics, DisabledRegistryIgnoresUpdates) {
  MetricsRegistry reg;
  auto& c = reg.counter("lg.test.hits");
  auto& g = reg.gauge("lg.test.depth");
  auto& d = reg.distribution("lg.test.latency");
  reg.set_enabled(false);
  c.inc(5);
  g.set(9.0);
  d.observe(1.0);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0.0);
  EXPECT_EQ(g.max(), 0.0);
  EXPECT_EQ(d.summary().count(), 0u);
  // Re-enabling resumes normal operation on the same handles.
  reg.set_enabled(true);
  c.inc();
  EXPECT_EQ(c.value(), 1u);
}

TEST(Metrics, GaugeTracksHighWaterMark) {
  MetricsRegistry reg;
  auto& g = reg.gauge("lg.test.depth");
  g.set(3.0);
  g.set(1.0);
  EXPECT_EQ(g.value(), 1.0);
  EXPECT_EQ(g.max(), 3.0);
  g.maximize(7.0);
  EXPECT_EQ(g.value(), 1.0);  // maximize never asserts a current value
  EXPECT_EQ(g.max(), 7.0);
}

TEST(Metrics, DistributionFeedsSummaryAndQuantiles) {
  MetricsRegistry reg;
  auto& d = reg.distribution("lg.test.latency");
  for (const double x : {1.0, 2.0, 3.0}) d.observe(x);
  EXPECT_EQ(d.summary().count(), 3u);
  EXPECT_DOUBLE_EQ(d.summary().mean(), 2.0);
  EXPECT_DOUBLE_EQ(d.cdf().quantile(0.5), 2.0);
}

TEST(Metrics, ResetZeroesValuesButKeepsHandles) {
  MetricsRegistry reg;
  auto& c = reg.counter("lg.test.hits");
  auto& g = reg.gauge("lg.test.depth");
  auto& d = reg.distribution("lg.test.latency");
  c.inc(4);
  g.set(2.0);
  d.observe(8.0);
  reg.reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0.0);
  EXPECT_EQ(g.max(), 0.0);
  EXPECT_EQ(d.summary().count(), 0u);
  // Same handle keeps working post-reset.
  c.inc();
  EXPECT_EQ(reg.counter("lg.test.hits").value(), 1u);
  EXPECT_EQ(&reg.counter("lg.test.hits"), &c);
}

TEST(Metrics, ViewsAreNameSorted) {
  MetricsRegistry reg;
  reg.counter("lg.z.last");
  reg.counter("lg.a.first");
  reg.counter("lg.m.middle");
  const auto view = reg.counters();
  ASSERT_EQ(view.size(), 3u);
  EXPECT_EQ(view[0]->name(), "lg.a.first");
  EXPECT_EQ(view[1]->name(), "lg.m.middle");
  EXPECT_EQ(view[2]->name(), "lg.z.last");
}

// ---------------------------------------------------------------- tracing

TEST(Trace, DisabledRingRecordsNothing) {
  TraceRing ring(8);
  ring.record(1.0, TraceKind::kProbeIssued);
  EXPECT_EQ(ring.recorded(), 0u);
  EXPECT_EQ(ring.size(), 0u);
}

TEST(Trace, WraparoundKeepsNewestOldestFirst) {
  TraceRing ring(4);
  ring.set_enabled(true);
  for (int i = 0; i < 6; ++i) {
    ring.record(static_cast<double>(i), TraceKind::kProbeIssued,
                static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(ring.recorded(), 6u);
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.dropped(), 2u);
  const auto events = ring.events();
  ASSERT_EQ(events.size(), 4u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].a, i + 2) << "oldest surviving event is #2";
    EXPECT_DOUBLE_EQ(events[i].t, static_cast<double>(i + 2));
  }
}

TEST(Trace, ClearResetsCounts) {
  TraceRing ring(4);
  ring.set_enabled(true);
  ring.record(1.0, TraceKind::kUpdateSent);
  ring.clear();
  EXPECT_EQ(ring.recorded(), 0u);
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_TRUE(ring.events().empty());
}

// Exhaustiveness regression: every enumerator below the kCount sentinel must
// map to a real, unique name. Adding a TraceKind without extending
// trace_kind_name() fails here (the switch's default-ish "?" leaks through),
// and a copy-pasted duplicate name fails the uniqueness half.
TEST(Trace, EveryKindHasAUniqueName) {
  std::set<std::string> names;
  for (int k = 0; k < static_cast<int>(TraceKind::kCount); ++k) {
    const char* name = obs::trace_kind_name(static_cast<TraceKind>(k));
    EXPECT_STRNE(name, "?") << "unnamed TraceKind enumerator " << k;
    EXPECT_TRUE(names.insert(name).second)
        << "duplicate trace kind name: " << name;
  }
  EXPECT_STREQ(obs::trace_kind_name(TraceKind::kCount), "?");
}

// --------------------------------------------------------------- switches

// Sets (value) or unsets (nullptr) one environment variable for a scope and
// restores its prior state afterwards.
class EnvGuard {
 public:
  EnvGuard(const char* name, const char* value) : name_(name) {
    if (const char* prior = std::getenv(name)) prior_ = prior;
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~EnvGuard() {
    if (prior_) {
      ::setenv(name_, prior_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }
  EnvGuard(const EnvGuard&) = delete;
  EnvGuard& operator=(const EnvGuard&) = delete;

 private:
  const char* name_;
  std::optional<std::string> prior_;
};

// One rule for LG_METRICS, LG_TRACE, LG_SPANS and LG_CHECK: on/1 enables,
// off/0 disables, anything else (unset included) keeps the fallback.
TEST(EnvKnobsTest, SwitchRule) {
  struct Row {
    const char* value;
    bool from_off;  // result with fallback false
    bool from_on;   // result with fallback true
  };
  const Row rows[] = {
      {nullptr, false, true}, {"1", true, true},   {"on", true, true},
      {"0", false, false},    {"off", false, false}, {"yes", false, true},
      {"", false, true},
  };
  for (const Row& row : rows) {
    const EnvGuard env("LG_METRICS", row.value);
    const char* shown = row.value != nullptr ? row.value : "(unset)";
    EXPECT_EQ(util::env_switch("LG_METRICS", false), row.from_off)
        << "LG_METRICS=" << shown;
    EXPECT_EQ(util::env_switch("LG_METRICS", true), row.from_on)
        << "LG_METRICS=" << shown;
  }
}

// Benches enable the ring before reading LG_TRACE, so a value the rule does
// not know must leave tracing on, not switch it off.
TEST(EnvKnobsTest, UnknownTraceValueKeepsEnabledRing) {
  const EnvGuard env("LG_TRACE", "yes");
  TraceRing ring(8);
  ring.set_enabled(true);
  ring.configure_from_env();
  EXPECT_TRUE(ring.enabled());
}

// LG_TRACE_OUT makes spans default on: an unknown LG_SPANS value keeps that
// default, and only an explicit off overrides it.
TEST(EnvKnobsTest, TraceOutEnablesSpansUnlessSwitchedOff) {
  const EnvGuard out("LG_TRACE_OUT", "unused-trace.json");
  const EnvGuard spans("LG_SPANS", "yes");
  obs::SpanRegistry reg;
  reg.configure_from_env();
  EXPECT_TRUE(reg.enabled());
  const EnvGuard off("LG_SPANS", "off");
  reg.configure_from_env();
  EXPECT_FALSE(reg.enabled());
}

// An empty LG_TRACE_OUT names no file: the exporter skips it, so it must not
// switch spans on either.
TEST(EnvKnobsTest, EmptyTraceOutLeavesSpansOff) {
  const EnvGuard out("LG_TRACE_OUT", "");
  const EnvGuard spans("LG_SPANS", nullptr);
  obs::SpanRegistry reg;
  reg.configure_from_env();
  EXPECT_FALSE(reg.enabled());
}

// strtod reads these as numbers; an infinite LG_SERVICE_HORIZON would never
// end the service plane's tick loop, so every numeric knob rejects them
// with the usual diagnostic naming the knob.
TEST(EnvKnobsTest, RejectsNonFiniteNumbers) {
  for (const char* value : {"inf", "infinity", "1e999", "-inf", "nan"}) {
    const EnvGuard env("LG_SERVICE_HORIZON", value);
    try {
      (void)util::env_double_knob("LG_SERVICE_HORIZON", 7200.0, 1.0);
      ADD_FAILURE() << "LG_SERVICE_HORIZON=" << value << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()),
                std::string("LG_SERVICE_HORIZON: expected a finite number, "
                            "got '") + value + "'");
    }
  }
}

// Each numeric parser on a knob a bench reads it for: every malformed value
// throws one diagnostic, the knob's name, the rule the value breaks (a
// minimum in its shortest form) and the value, and a valid value parses.
TEST(EnvKnobsTest, StrictParsersRejectMalformedInput) {
  // A malformed value and the rule the diagnostic states for it.
  struct Bad {
    const char* value;
    const char* rule;
  };
  struct Row {
    const char* knob;
    double (*parse)(const char* knob);
    std::vector<Bad> malformed;
    const char* valid;
    double want;
  };
  const char* kPositive = "expected a positive integer";
  const char* kDecimal = "expected a decimal integer";
  const char* kFinite = "expected a finite number";
  const Row rows[] = {
      {"LG_FLEET_TARGETS",
       [](const char* k) {
         return static_cast<double>(util::env_size_knob(k, 1000));
       },
       {{"garbage", kPositive},
        {"1O00", kPositive},
        {"0", kPositive},
        {"-5", kPositive},
        {" 500", kPositive},
        {"+500", kPositive}},
       "250",
       250.0},
      {"LG_FAULTS",
       [](const char* k) { return util::env_fraction_knob(k, 0.0); },
       {{"abc", kFinite}, {"1.5", "must be in [0, 1]"}},
       "0.5",
       0.5},
      {"LG_FAULTS_SEED",
       [](const char* k) {
         return static_cast<double>(util::env_u64_knob(k, 0x666c7453ULL));
       },
       {{"12x", kDecimal}, {"-3", kDecimal}, {"0x12", kDecimal}},
       "77",
       77.0},
      {"LG_SERVICE_ANNOUNCE_BUDGET",
       [](const char* k) { return util::env_double_knob(k, 60.0, 0.0); },
       {{"12.5x", kFinite}, {"-1", "must be >= 0"}},
       "12.5",
       12.5},
      {"LG_SERVICE_HORIZON",
       [](const char* k) { return util::env_double_knob(k, 7200.0, 1.0); },
       {{"0.5", "must be >= 1"}},
       "3600",
       3600.0},
  };
  for (const Row& row : rows) {
    for (const Bad& bad : row.malformed) {
      const EnvGuard env(row.knob, bad.value);
      try {
        (void)row.parse(row.knob);
        ADD_FAILURE() << row.knob << "='" << bad.value << "' was accepted";
      } catch (const std::invalid_argument& e) {
        EXPECT_EQ(std::string(e.what()), std::string(row.knob) + ": " +
                                             bad.rule + ", got '" +
                                             bad.value + "'");
      }
    }
    const EnvGuard env(row.knob, row.valid);
    EXPECT_EQ(row.parse(row.knob), row.want) << row.knob << "=" << row.valid;
  }
}

// ------------------------------------------------------------------- json

TEST(Json, EscapesControlAndSpecialCharacters) {
  EXPECT_EQ(util::json_escape("a\"b\\c\n\t"), "a\\\"b\\\\c\\n\\t");
  EXPECT_EQ(util::json_escape(std::string("x\x01y")), "x\\u0001y");
}

TEST(Json, NumberRendering) {
  EXPECT_EQ(util::json_number(3.0), "3");
  EXPECT_EQ(util::json_number(-42.0), "-42");
  EXPECT_EQ(util::json_number(0.5), "0.5");
  EXPECT_EQ(util::json_number(std::nan("")), "null");
}

TEST(Json, WriterProducesNestedDocument) {
  util::JsonWriter w;
  w.begin_object();
  w.kv("name", "x");
  w.key("items");
  w.begin_array();
  w.value(1);
  w.value(2.5);
  w.end_array();
  w.kv("ok", true);
  w.end_object();
  EXPECT_EQ(w.str(),
            "{\n"
            "  \"name\": \"x\",\n"
            "  \"items\": [\n"
            "    1,\n"
            "    2.5\n"
            "  ],\n"
            "  \"ok\": true\n"
            "}");
}

// ----------------------------------------------------------------- report

// Golden-file style check: a small report serialized from a local registry,
// ring, and span registry must match byte-for-byte. This pins the v2 schema
// (v1 fields unchanged, plus traces.ring_dropped and the spans profile).
TEST(Report, GoldenJson) {
  MetricsRegistry reg;
  reg.counter("lg.test.hits").inc(3);
  auto& g = reg.gauge("lg.test.depth");
  g.set(2.0);
  g.set(1.0);
  auto& d = reg.distribution("lg.test.latency");
  for (const double x : {1.0, 2.0, 3.0}) d.observe(x);

  TraceRing ring(8);
  ring.set_enabled(true);
  ring.record(1.5, TraceKind::kProbeIssued, 10, 20);
  ring.record(2.5, TraceKind::kRepairReverted, 11, 0, 3.25);

  obs::SpanRegistry spans;
  spans.set_enabled(true);
  spans.set_seed(7);
  const obs::SpanId work = spans.begin(1.0, "demo.work", 0, 10, 20);
  spans.end(work, 2.5);             // closed, duration 1.5 s
  (void)spans.begin(3.0, "demo.idle");  // left open

  obs::RunReport report("golden");
  report.set_config("seed", 7.0);
  report.set_config("label", "demo");
  report.set_config("flag", true);
  report.headline("score", 0.5);
  report.capture_metrics(reg);
  report.capture_traces(ring);
  report.capture_spans(spans);

  const std::string expected =
      "{\n"
      "  \"schema\": \"lg.run_report.v2\",\n"
      "  \"report\": \"golden\",\n"
      "  \"config\": {\n"
      "    \"flag\": true,\n"
      "    \"label\": \"demo\",\n"
      "    \"seed\": 7\n"
      "  },\n"
      "  \"headline\": {\n"
      "    \"score\": 0.5\n"
      "  },\n"
      "  \"metrics\": {\n"
      "    \"counters\": {\n"
      "      \"lg.bgp.updates_sent\": 0,\n"
      "      \"lg.scheduler.events_executed\": 0,\n"
      "      \"lg.test.hits\": 3\n"
      "    },\n"
      "    \"gauges\": {\n"
      "      \"lg.test.depth\": {\n"
      "        \"value\": 1,\n"
      "        \"max\": 2\n"
      "      }\n"
      "    },\n"
      "    \"distributions\": {\n"
      "      \"lg.test.latency\": {\n"
      "        \"count\": 3,\n"
      "        \"mean\": 2,\n"
      "        \"stddev\": 1,\n"
      "        \"min\": 1,\n"
      "        \"max\": 3,\n"
      "        \"p50\": 2,\n"
      "        \"p90\": 3,\n"
      "        \"p99\": 3\n"
      "      }\n"
      "    }\n"
      "  },\n"
      "  \"traces\": {\n"
      "    \"recorded\": 2,\n"
      "    \"dropped\": 0,\n"
      "    \"ring_dropped\": 0,\n"
      "    \"events\": [\n"
      "      {\n"
      "        \"t\": 1.5,\n"
      "        \"kind\": \"probe_issued\",\n"
      "        \"a\": 10,\n"
      "        \"b\": 20,\n"
      "        \"value\": 0\n"
      "      },\n"
      "      {\n"
      "        \"t\": 2.5,\n"
      "        \"kind\": \"repair_reverted\",\n"
      "        \"a\": 11,\n"
      "        \"b\": 0,\n"
      "        \"value\": 3.25\n"
      "      }\n"
      "    ]\n"
      "  },\n"
      "  \"spans\": {\n"
      "    \"captured\": true,\n"
      "    \"count\": 1,\n"
      "    \"open\": 1,\n"
      "    \"by_name\": {\n"
      "      \"demo.idle\": {\n"
      "        \"count\": 0,\n"
      "        \"open\": 1,\n"
      "        \"total_seconds\": 0,\n"
      "        \"mean\": 0,\n"
      "        \"min\": 0,\n"
      "        \"max\": 0,\n"
      "        \"p50\": 0,\n"
      "        \"p90\": 0,\n"
      "        \"p99\": 0\n"
      "      },\n"
      "      \"demo.work\": {\n"
      "        \"count\": 1,\n"
      "        \"open\": 0,\n"
      "        \"total_seconds\": 1.5,\n"
      "        \"mean\": 1.5,\n"
      "        \"min\": 1.5,\n"
      "        \"max\": 1.5,\n"
      "        \"p50\": 1.5,\n"
      "        \"p90\": 1.5,\n"
      "        \"p99\": 1.5\n"
      "      }\n"
      "    }\n"
      "  }\n"
      "}\n";
  EXPECT_EQ(report.to_json(), expected);
}

// A report that never captured spans still carries the (empty) v2 section,
// so downstream schema validation does not need a conditional.
TEST(Report, SpansSectionPresentWhenNotCaptured) {
  obs::RunReport report("nospans");
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"spans\": {"), std::string::npos);
  EXPECT_NE(json.find("\"captured\": false"), std::string::npos);
  EXPECT_NE(json.find("\"by_name\": {}"), std::string::npos);
}

// Ring wraparound drops surface in the report even though the report itself
// kept every event it was handed.
TEST(Report, RingDroppedSurfacesWraparound) {
  TraceRing ring(4);
  ring.set_enabled(true);
  for (int i = 0; i < 6; ++i) {
    ring.record(static_cast<double>(i), TraceKind::kUpdateSent);
  }
  obs::RunReport report("ringdrop");
  report.capture_traces(ring);
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"recorded\": 6"), std::string::npos);
  EXPECT_NE(json.find("\"dropped\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"ring_dropped\": 2"), std::string::npos);
}

TEST(Report, WriteFileRoundTrips) {
  obs::RunReport report("roundtrip");
  report.set_config("n", 2.0);
  report.headline("answer", 42.0);
  MetricsRegistry reg;
  reg.counter("lg.bgp.updates_sent").inc(17);
  report.capture_metrics(reg);

  const std::string path = ::testing::TempDir() + "BENCH_roundtrip.json";
  ASSERT_TRUE(report.write_file(path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(), report.to_json());
  std::remove(path.c_str());
}

// A harness driving a bare scheduler (no SimWorld publishing lg.scheduler.*)
// feeds it to the report directly; the later metrics capture — which the
// bench JsonReport runs at scope exit — must not zero the executed count.
TEST(Report, CapturedSchedulerSurvivesMetricsCapture) {
  util::Scheduler sched;
  for (int i = 0; i < 5; ++i) sched.at(static_cast<double>(i), [] {});
  sched.run();
  ASSERT_EQ(sched.executed(), 5u);

  MetricsRegistry reg;
  reg.counter("lg.bgp.updates_sent").inc(2);
  obs::RunReport report("bare_scheduler");
  report.capture_scheduler(sched);
  report.capture_metrics(reg);
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"lg.scheduler.events_executed\": 5"),
            std::string::npos);
  EXPECT_NE(json.find("\"lg.scheduler.queue_depth_hwm\""), std::string::npos);
}

TEST(Report, CapturedTracesKeepNewestWhenTruncated) {
  TraceRing ring(16);
  ring.set_enabled(true);
  for (int i = 0; i < 10; ++i) {
    ring.record(static_cast<double>(i), TraceKind::kUpdateSent,
                static_cast<std::uint64_t>(i));
  }
  obs::RunReport report("truncated");
  report.capture_traces(ring, /*max_events=*/4);
  const std::string json = report.to_json();
  // The newest four events (6..9) survive; the report records all ten.
  EXPECT_NE(json.find("\"recorded\": 10"), std::string::npos);
  EXPECT_NE(json.find("\"dropped\": 6"), std::string::npos);
  EXPECT_NE(json.find("\"a\": 9"), std::string::npos);
  EXPECT_EQ(json.find("\"a\": 5"), std::string::npos);
}

// ------------------------------------------------------------ integration

// A full poison-repair cycle (the §6 case study in miniature, as in
// test_lifeguard.cc) must leave the expected observability footprint:
// nonzero BGP/scheduler counters, a completed repair, and a trace whose
// simulated timestamps never run backwards.
TEST(ObsIntegration, PoisonRepairCycleLeavesMetricFootprint) {
  auto& reg = MetricsRegistry::global();
  auto& ring = TraceRing::global();
  reg.set_enabled(true);
  reg.reset();
  ring.set_enabled(true);
  ring.clear();

  workload::SimWorld world(workload::SimWorld::small_config(31));
  topo::AsId origin = world.topology().first_multihomed_stub();
  ASSERT_NE(origin, topo::kInvalidAs);

  core::LifeguardConfig cfg;
  cfg.decision.min_elapsed_seconds = 300.0;
  core::Lifeguard guard(world.scheduler(), world.engine(), world.prober(),
                        origin, cfg);
  std::vector<measure::VantagePoint> helpers;
  for (const topo::AsId as : world.stub_vantage_ases(5)) {
    if (as == origin) continue;
    world.announce_production(as);
    helpers.push_back(measure::VantagePoint::in_as(as));
  }
  guard.set_helpers(helpers);
  guard.start();
  world.advance(700.0);

  workload::ScenarioGenerator gen(world, 41);
  std::optional<workload::FailureScenario> scenario;
  for (const topo::AsId target_as : world.topology().stubs) {
    if (target_as == origin) continue;
    std::vector<topo::AsId> witness_ases;
    for (const auto& h : helpers) witness_ases.push_back(h.as);
    auto s = gen.make(origin, target_as, core::FailureDirection::kReverse,
                      false, witness_ases);
    if (!s) continue;
    core::PoisonDecider decider(world.graph());
    const topo::AsId sources[] = {target_as};
    if (!decider.decide(origin, s->culprit_as, 1000.0, sources).poison) {
      gen.repair(*s);
      continue;
    }
    scenario = std::move(s);
    break;
  }
  ASSERT_TRUE(scenario.has_value()) << "no poisonable scenario found";
  gen.repair(*scenario);
  guard.add_target(scenario->target);
  world.advance(1300.0);

  scenario->failure_ids.push_back(world.failures().inject(dp::Failure{
      .at_as = scenario->culprit_as, .toward_as = origin}));
  world.advance(1500.0);
  gen.repair(*scenario);
  world.advance(400.0);

  ASSERT_EQ(guard.episodes().size(), 1u);
  EXPECT_GT(guard.episodes().front().repaired_at, 0.0);

  // Counter footprint.
  EXPECT_GT(reg.counter("lg.bgp.updates_sent").value(), 0u);
  EXPECT_GT(reg.counter("lg.scheduler.events_executed").value(), 0u);
  EXPECT_GT(reg.counter("lg.measure.pings").value(), 0u);
  EXPECT_EQ(reg.counter("lg.episode.opened").value(), 1u);
  EXPECT_EQ(reg.counter("lg.episode.remediated").value(), 1u);
  EXPECT_EQ(reg.distribution("lg.episode.time_to_repair").summary().count(),
            1u);

  // Trace footprint: detection, poison, repair lifecycle all present, with
  // monotone non-decreasing simulated timestamps.
  EXPECT_GT(ring.recorded(), 0u);
  const auto events = ring.events();
  bool saw_poison = false;
  bool saw_reverted = false;
  double last_t = -1.0;
  for (const auto& e : events) {
    EXPECT_GE(e.t, last_t) << "trace timestamps must not run backwards";
    last_t = e.t;
    if (e.kind == TraceKind::kPoisonApplied) saw_poison = true;
    if (e.kind == TraceKind::kRepairReverted) saw_reverted = true;
  }
  EXPECT_TRUE(saw_poison);
  EXPECT_TRUE(saw_reverted);

  // Clean up for other tests in this process.
  ring.set_enabled(false);
  ring.clear();
  reg.reset();
}

}  // namespace
}  // namespace lg
