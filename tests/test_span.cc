// lg::obs spans — deterministic id streams, registry scoping and merge,
// reparenting, and the Perfetto/Chrome trace-event exporter (golden output,
// structural validity, monotone timestamps, parent/child nesting).
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "obs/perfetto.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "run/trial_runner.h"

namespace lg {
namespace {

using obs::SpanId;
using obs::SpanRegistry;
using obs::TraceKind;
using obs::TraceRing;

std::string hex_id(std::uint64_t id) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(id));
  return std::string(buf);
}

// ---------------------------------------------------------------- registry

TEST(Span, DisabledRegistryRecordsNothing) {
  SpanRegistry spans;  // disabled by default
  const SpanId id = spans.begin(1.0, "x");
  EXPECT_EQ(id, 0u);
  spans.end(id, 2.0);          // no-ops, must not crash
  spans.annotate(id, "k", 1.0);
  spans.reparent(id, 0);
  EXPECT_EQ(spans.size(), 0u);
  EXPECT_EQ(spans.open_count(), 0u);
}

TEST(Span, BeginEndAnnotateRoundTrip) {
  SpanRegistry spans;
  spans.set_enabled(true);
  spans.set_seed(42);
  const SpanId id = spans.begin(1.5, "work", 0, 10, 20);
  ASSERT_NE(id, 0u);
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_TRUE(spans.records().front().open());
  EXPECT_EQ(spans.records().front().duration(), 0.0);
  EXPECT_EQ(spans.open_count(), 1u);

  spans.annotate(id, "deferrals", 2.0);
  spans.end(id, 4.0);
  const auto& rec = spans.records().front();
  EXPECT_FALSE(rec.open());
  EXPECT_DOUBLE_EQ(rec.duration(), 2.5);
  EXPECT_EQ(rec.a, 10u);
  EXPECT_EQ(rec.b, 20u);
  ASSERT_EQ(rec.notes.size(), 1u);
  EXPECT_STREQ(rec.notes[0].first, "deferrals");
  EXPECT_EQ(spans.open_count(), 0u);
}

TEST(Span, IdStreamDependsOnlyOnSeedAndSequence) {
  SpanRegistry a, b, c;
  for (SpanRegistry* reg : {&a, &b, &c}) reg->set_enabled(true);
  a.set_seed(7);
  b.set_seed(7);
  c.set_seed(8);
  std::vector<SpanId> ids_a, ids_b, ids_c;
  for (int i = 0; i < 4; ++i) {
    ids_a.push_back(a.begin(0.0, "s"));
    ids_b.push_back(b.begin(0.0, "s"));
    ids_c.push_back(c.begin(0.0, "s"));
  }
  EXPECT_EQ(ids_a, ids_b) << "same seed => same id stream";
  EXPECT_NE(ids_a, ids_c) << "different seed => different id stream";
  for (std::size_t i = 0; i < ids_a.size(); ++i) {
    EXPECT_NE(ids_a[i], 0u);
    for (std::size_t j = i + 1; j < ids_a.size(); ++j) {
      EXPECT_NE(ids_a[i], ids_a[j]) << "ids unique within a registry";
    }
  }
  EXPECT_EQ(a.digest(), b.digest());
}

TEST(Span, ReparentRelinksAfterTheFact) {
  SpanRegistry spans;
  spans.set_enabled(true);
  const SpanId early = spans.begin(1.0, "state");  // root at creation
  const SpanId episode = spans.begin(2.0, "episode");
  spans.reparent(early, episode);
  EXPECT_EQ(spans.records()[0].parent, episode);
  EXPECT_EQ(spans.records()[1].parent, 0u);
}

TEST(Span, MergePreservesIdsAndParentLinks) {
  SpanRegistry trial;
  trial.set_enabled(true);
  trial.set_seed(99);
  trial.set_track(3);
  const SpanId parent = trial.begin(1.0, "episode");
  const SpanId child = trial.begin(2.0, "state", parent);
  trial.end(child, 3.0);
  trial.end(parent, 4.0);

  SpanRegistry dst;
  dst.set_enabled(true);
  dst.merge(trial);
  ASSERT_EQ(dst.size(), 2u);
  EXPECT_EQ(dst.records()[0].id, parent);
  EXPECT_EQ(dst.records()[1].id, child);
  EXPECT_EQ(dst.records()[1].parent, parent);
  EXPECT_EQ(dst.records()[0].track, 3u);
  EXPECT_EQ(dst.digest(), trial.digest());
}

TEST(Span, ScopedRegistryInstallsThreadCurrent) {
  SpanRegistry local;
  local.set_enabled(true);
  {
    obs::ScopedSpanRegistry scope(local);
    EXPECT_EQ(&SpanRegistry::current(), &local);
    SpanRegistry::current().begin(0.0, "scoped");
  }
  EXPECT_NE(&SpanRegistry::current(), &local);
  EXPECT_EQ(local.size(), 1u);
}

// The property the whole plane leans on: the merged span tree is identical
// for any thread count, because ids derive from trial seeds and the runner
// merges per-trial registries in trial-index order.
TEST(Span, TrialRunnerMergeIsThreadCountInvariant) {
  const auto run_with_threads = [](std::size_t threads) {
    SpanRegistry dst;
    dst.set_enabled(true);
    obs::ScopedSpanRegistry scope(dst);
    run::TrialRunnerConfig cfg;
    cfg.threads = threads;
    cfg.base_seed = 1234;
    run::TrialRunner runner(cfg);
    runner.run(8, [](run::TrialContext& ctx) {
      auto& spans = SpanRegistry::current();
      const SpanId outer =
          spans.begin(0.0, "trial", 0, static_cast<std::uint64_t>(ctx.index));
      const SpanId inner = spans.begin(1.0, "inner", outer);
      spans.annotate(inner, "seed_low", static_cast<double>(ctx.seed & 0xFF));
      spans.end(inner, 2.0);
      spans.end(outer, 3.0);
      return 0;
    });
    return dst.digest();
  };
  const std::string serial = run_with_threads(1);
  const std::string parallel = run_with_threads(4);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);
}

// ---------------------------------------------------------------- perfetto

TEST(Perfetto, GoldenJson) {
  SpanRegistry spans;
  spans.set_enabled(true);
  spans.set_seed(7);
  const SpanId parent = spans.begin(1.0, "fleet.episode", 0, 167772161, 42);
  const SpanId child = spans.begin(2.0, "fleet.suspect", parent);
  spans.end(child, 3.0);
  spans.annotate(parent, "outcome", 5.0);
  spans.end(parent, 4.0);
  const SpanId open_span = spans.begin(3.5, "fleet.holddown", parent);
  (void)open_span;

  TraceRing ring(8);
  ring.set_enabled(true);
  ring.record(2.5, TraceKind::kProbeIssued, 9, 8);

  const std::string parent_hex = hex_id(spans.records()[0].id);
  const std::string child_hex = hex_id(spans.records()[1].id);
  const std::string open_hex = hex_id(spans.records()[2].id);

  const std::string expected = std::string() +
      "{\n"
      "  \"displayTimeUnit\": \"ms\",\n"
      "  \"traceEvents\": [\n"
      "    {\n"
      "      \"ph\": \"M\",\n"
      "      \"pid\": 1,\n"
      "      \"tid\": 0,\n"
      "      \"name\": \"process_name\",\n"
      "      \"args\": {\n"
      "        \"name\": \"lifeguard-sim\"\n"
      "      }\n"
      "    },\n"
      "    {\n"
      "      \"ph\": \"M\",\n"
      "      \"pid\": 1,\n"
      "      \"tid\": 0,\n"
      "      \"name\": \"thread_name\",\n"
      "      \"args\": {\n"
      "        \"name\": \"trace events\"\n"
      "      }\n"
      "    },\n"
      "    {\n"
      "      \"ph\": \"M\",\n"
      "      \"pid\": 1,\n"
      "      \"tid\": 1,\n"
      "      \"name\": \"thread_name\",\n"
      "      \"args\": {\n"
      "        \"name\": \"shard 0\"\n"
      "      }\n"
      "    },\n"
      "    {\n"
      "      \"ph\": \"X\",\n"
      "      \"pid\": 1,\n"
      "      \"tid\": 1,\n"
      "      \"ts\": 1000000,\n"
      "      \"dur\": 3000000,\n"
      "      \"name\": \"fleet.episode\",\n"
      "      \"args\": {\n"
      "        \"id\": \"" + parent_hex + "\",\n"
      "        \"a\": 167772161,\n"
      "        \"b\": 42,\n"
      "        \"notes\": [\n"
      "          [\n"
      "            \"outcome\",\n"
      "            5\n"
      "          ]\n"
      "        ]\n"
      "      }\n"
      "    },\n"
      "    {\n"
      "      \"ph\": \"X\",\n"
      "      \"pid\": 1,\n"
      "      \"tid\": 1,\n"
      "      \"ts\": 2000000,\n"
      "      \"dur\": 1000000,\n"
      "      \"name\": \"fleet.suspect\",\n"
      "      \"args\": {\n"
      "        \"id\": \"" + child_hex + "\",\n"
      "        \"parent\": \"" + parent_hex + "\",\n"
      "        \"a\": 0,\n"
      "        \"b\": 0\n"
      "      }\n"
      "    },\n"
      "    {\n"
      "      \"ph\": \"i\",\n"
      "      \"pid\": 1,\n"
      "      \"tid\": 0,\n"
      "      \"ts\": 2500000,\n"
      "      \"s\": \"t\",\n"
      "      \"name\": \"probe_issued\",\n"
      "      \"args\": {\n"
      "        \"a\": 9,\n"
      "        \"b\": 8,\n"
      "        \"value\": 0\n"
      "      }\n"
      "    },\n"
      "    {\n"
      "      \"ph\": \"X\",\n"
      "      \"pid\": 1,\n"
      "      \"tid\": 1,\n"
      "      \"ts\": 3500000,\n"
      "      \"dur\": 0,\n"
      "      \"name\": \"fleet.holddown\",\n"
      "      \"args\": {\n"
      "        \"id\": \"" + open_hex + "\",\n"
      "        \"parent\": \"" + parent_hex + "\",\n"
      "        \"a\": 0,\n"
      "        \"b\": 0,\n"
      "        \"open\": true\n"
      "      }\n"
      "    }\n"
      "  ]\n"
      "}\n";
  EXPECT_EQ(obs::perfetto_trace_json(spans, ring), expected);
}

// Structural checks on a larger machine-built trace: balanced JSON
// structure, monotone non-decreasing "ts" stream, and every child's parent
// id present among the emitted span ids.
TEST(Perfetto, ExportIsBalancedMonotoneAndNested) {
  SpanRegistry spans;
  spans.set_enabled(true);
  spans.set_seed(3);
  TraceRing ring(64);
  ring.set_enabled(true);
  std::vector<SpanId> roots;
  for (int i = 0; i < 5; ++i) {
    const double t0 = i * 10.0;
    const SpanId root = spans.begin(t0, "episode", 0,
                                    static_cast<std::uint64_t>(i));
    roots.push_back(root);
    for (int j = 0; j < 3; ++j) {
      const SpanId child = spans.begin(t0 + j, "phase", root);
      ring.record(t0 + j + 0.5, TraceKind::kProbeIssued,
                  static_cast<std::uint64_t>(i));
      spans.end(child, t0 + j + 1.0);
    }
    spans.end(root, t0 + 9.0);
  }
  const std::string json = obs::perfetto_trace_json(spans, ring);

  // Balanced structure, string-aware.
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (const char ch : json) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (ch == '\\') {
        escaped = true;
      } else if (ch == '"') {
        in_string = false;
      }
      continue;
    }
    if (ch == '"') in_string = true;
    if (ch == '{' || ch == '[') ++depth;
    if (ch == '}' || ch == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);

  // Monotone "ts" stream (metadata events carry no "ts").
  double last_ts = -1.0;
  std::size_t ts_count = 0;
  for (std::size_t pos = json.find("\"ts\": "); pos != std::string::npos;
       pos = json.find("\"ts\": ", pos + 1)) {
    const double ts = std::stod(json.substr(pos + 6));
    EXPECT_GE(ts, last_ts) << "timestamps must not run backwards";
    last_ts = ts;
    ++ts_count;
  }
  EXPECT_EQ(ts_count, spans.size() + ring.size());

  // Every emitted parent reference resolves to an emitted id.
  for (const auto& rec : spans.records()) {
    if (rec.parent == 0) continue;
    EXPECT_NE(json.find("\"id\": \"" + hex_id(rec.parent) + "\""),
              std::string::npos);
  }
  // And nesting is real: each child interval sits inside its root's.
  for (const auto& rec : spans.records()) {
    if (rec.parent == 0) continue;
    for (std::size_t i = 0; i < roots.size(); ++i) {
      if (roots[i] != rec.parent) continue;
      const auto& root_rec = spans.records()[i * 4];
      EXPECT_GE(rec.begin, root_rec.begin);
      EXPECT_LE(rec.end, root_rec.end);
    }
  }
}

TEST(Perfetto, EmptySourcesStillProduceALoadableSkeleton) {
  SpanRegistry spans;
  TraceRing ring(4);
  const std::string json = obs::perfetto_trace_json(spans, ring);
  // Process metadata only: no duration events, no instants.
  EXPECT_NE(json.find("\"displayTimeUnit\": \"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_EQ(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_EQ(json.find("\"ph\": \"i\""), std::string::npos);
}

TEST(Perfetto, WriteFileRoundTrips) {
  SpanRegistry spans;
  spans.set_enabled(true);
  const SpanId id = spans.begin(1.0, "x");
  spans.end(id, 2.0);
  TraceRing ring(4);
  const std::string path = ::testing::TempDir() + "lg_trace_roundtrip.json";
  ASSERT_TRUE(obs::write_perfetto_trace(path, spans, ring));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string contents;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) contents.append(buf, n);
  std::fclose(f);
  EXPECT_EQ(contents, obs::perfetto_trace_json(spans, ring));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace lg
