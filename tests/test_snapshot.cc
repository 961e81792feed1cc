// Checkpoint/restore substrate:
//  * util/codec: varint, flag, enum and bit-exact double round-trips, loud
//    failure on truncation and version drift, and a stated record minimum
//    checked on save;
//  * util: Rng and Scheduler layouts round-trip (loading refuses live
//    events);
//  * every other type with its own layout — metrics / span / trace
//    registries, distributions, token buckets, probe admission, the failure
//    injector, the responsiveness model — re-saves a loaded copy
//    byte-identically, and the copy behaves like the original;
//  * util/codec: LEB128 varints, ascending index lists and bounded rings
//    reject overlong, truncated, repeated and out-of-range input;
//  * bgp/snapshot: a quiesced engine re-serializes byte-identically after a
//    load into a fresh engine over the same topology and clock; running
//    MRAI timers survive the load; a pending deferred flush refuses to save;
//  * golden digests: the bytes of a service shard's checkpoint and of an
//    engine snapshot that fills every optional field are pinned, so a codec
//    change that alters the format fails here, not in a restore diff.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "bgp/engine.h"
#include "bgp/types.h"
#include "dataplane/failures.h"
#include "faults/fault_plane.h"
#include "fleet/budget.h"
#include "fleet/service_plane.h"
#include "measure/responsiveness.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "topology/addressing.h"
#include "topology/generator.h"
#include "util/codec.h"
#include "util/hashing.h"
#include "util/rng.h"
#include "util/scheduler.h"
#include "workload/sim_world.h"

namespace lg {
namespace {

// `t` saved through its layout.
template <class T>
std::string save(const T& t) {
  util::BinWriter w;
  T::layout(w, t);
  return w.take();
}

// `blob` loaded into `t` through its layout, which must read all of it.
template <class T>
void load(const std::string& blob, T& t) {
  util::BinReader r(blob);
  T::layout(r, t);
  EXPECT_TRUE(r.at_end());
}

// Gives `to` the clock of `from`, as a shard restore does before it loads
// the engine.
void copy_clock(const util::Scheduler& from, util::Scheduler& to) {
  load(save(from), to);
}

// ------------------------------------------------------------------ codec

enum class Hue : std::uint8_t { kRed, kGreen, kBlue };

TEST(CodecTest, RoundTripsEveryScalarType) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  util::BinWriter w;
  w.magic(0x54534554u, 3);
  w.b(true);
  w.b(false);
  w.enum8(Hue::kBlue, Hue::kBlue, "hue");
  w.var(0xdeadbeefu);
  w.var(kMax);
  w.f64(-0.1);
  w.f64(std::numeric_limits<double>::infinity());
  w.str("hello\0world");  // embedded NUL truncates at the literal, fine
  w.vec(std::vector<std::uint32_t>{1, 2, 300}, 1,
        [&](std::uint32_t v) { w.var(v); });
  w.count(1, 8);
  w.record(8, [&] { w.f64(0.5); });
  w.opt(std::optional<double>{2.5}, [&](double v) { w.f64(v); });
  w.opt(std::optional<double>{}, [&](double v) { w.f64(v); });

  const std::string blob = w.take();
  util::BinReader r(blob);
  r.magic(0x54534554u, 3);
  EXPECT_TRUE(r.b());
  EXPECT_FALSE(r.b());
  Hue hue = Hue::kRed;
  r.enum8(hue, Hue::kBlue, "hue");
  EXPECT_EQ(hue, Hue::kBlue);
  std::uint32_t u32 = 0;
  r.var(u32);
  EXPECT_EQ(u32, 0xdeadbeefu);
  std::uint64_t u64 = 0;
  r.var(u64);
  EXPECT_EQ(u64, kMax);
  EXPECT_DOUBLE_EQ(r.f64(), -0.1);
  EXPECT_TRUE(std::isinf(r.f64()));
  EXPECT_EQ(r.str(), "hello");
  std::vector<std::uint32_t> v;
  r.vec(v, 1, [&](std::uint32_t& x) { r.var(x); });
  EXPECT_EQ(v, (std::vector<std::uint32_t>{1, 2, 300}));
  ASSERT_EQ(r.count(8), 1u);
  r.record(8, [&] { EXPECT_EQ(r.f64(), 0.5); });
  std::optional<double> some, none{7.0};
  r.opt(some, [&](double& x) { r.f64(x); });
  r.opt(none, [&](double& x) { r.f64(x); });
  EXPECT_EQ(some, std::optional<double>{2.5});
  EXPECT_EQ(none, std::nullopt);
  EXPECT_TRUE(r.at_end());
}

TEST(CodecTest, DoublesAreBitExact) {
  // A value with no short decimal representation: printf/parse would lose
  // the low bits; the codec must not.
  const double v = 0.1 + 0.2;
  util::BinWriter w;
  w.f64(v);
  const std::string blob = w.take();
  util::BinReader r(blob);
  const double back = r.f64();
  EXPECT_EQ(std::memcmp(&v, &back, sizeof(v)), 0);
}

TEST(CodecTest, FailsLoudlyOnCorruption) {
  util::BinWriter w;
  w.magic(0x31474154u, 1);
  w.f64(7.0);
  const std::string blob = w.take();

  util::BinReader wrong_tag(blob);
  EXPECT_THROW(wrong_tag.magic(0x32474154u, 1), std::runtime_error);
  util::BinReader wrong_version(blob);
  EXPECT_THROW(wrong_version.magic(0x31474154u, 2), std::runtime_error);

  const std::string truncated = blob.substr(0, blob.size() - 4);
  util::BinReader r(truncated);
  r.magic(0x31474154u, 1);
  EXPECT_THROW(r.f64(), std::runtime_error);

  // A length prefix larger than the remaining blob must throw before any
  // allocation, not attempt an attacker-sized reserve.
  util::BinWriter w2;
  w2.var(std::numeric_limits<std::uint64_t>::max());
  const std::string huge = w2.take();
  util::BinReader r2(huge);
  EXPECT_THROW(r2.str(), std::runtime_error);
}

TEST(CodecTest, VarintsRoundTripAtEveryWidth) {
  const std::uint64_t values[] = {0,          1,          0x7f,
                                  0x80,       0x3fff,     0x4000,
                                  0xffffffff, 1ULL << 63, ~0ULL};
  util::BinWriter w;
  for (const std::uint64_t v : values) w.var(v);
  const std::string blob = w.take();
  // One byte per started group of seven bits: 1+1+1+2+2+3+5+10+10.
  EXPECT_EQ(blob.size(), 35u);
  util::BinReader r(blob);
  for (const std::uint64_t v : values) EXPECT_EQ(r.var(), v);
  EXPECT_TRUE(r.at_end());
}

std::string codec_error(const std::string& blob,
                        void (*read)(util::BinReader&)) {
  util::BinReader r(blob);
  try {
    read(r);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(CodecTest, VarintRejectsOverlongAndTruncatedInput) {
  const auto read = [](util::BinReader& r) { (void)r.var(); };
  // Eleven bytes, every one continued: past the ten a u64 can need.
  EXPECT_NE(codec_error(std::string(10, '\x80') + '\x01', read)
                .find("varint longer than 10 bytes"),
            std::string::npos);
  // Ten bytes whose last one sets bits past bit 63.
  EXPECT_NE(codec_error(std::string(9, '\xff') + '\x02', read)
                .find("past 64 bits"),
            std::string::npos);
  // A continued byte at the end of the blob.
  EXPECT_NE(codec_error(std::string("\x96\x80", 2), read).find("truncated"),
            std::string::npos);
  // A count is bounded by the bytes left: three records of at least four
  // bytes cannot fit in eight.
  util::BinWriter w;
  w.var(3);
  w.f64(7.0);
  EXPECT_EQ(codec_error(w.blob(), [](util::BinReader& r) { (void)r.count(2); }),
            "");
  EXPECT_EQ(codec_error(w.blob(), [](util::BinReader& r) { (void)r.count(4); }),
            "snapshot: record count exceeds blob length");
  // A value is bounded by its field: 2^32 does not fit 32 bits.
  util::BinWriter wide;
  wide.var(1ULL << 32);
  EXPECT_EQ(codec_error(wide.blob(),
                        [](util::BinReader& r) {
                          std::uint32_t v = 0;
                          r.var(v);
                        }),
            "snapshot: varint 4294967296 does not fit its field");
}

// A stated minimum is a claim the writer checks: a record shorter than it
// throws on save, whichever helper writes the record, because the reader's
// count bound would turn the valid blob away.
TEST(CodecTest, StatedMinimumAboveRecordThrowsOnSave) {
  const std::vector<std::uint32_t> v = {1, 300};  // one and two bytes
  util::BinWriter exact;
  EXPECT_NO_THROW(exact.vec(v, 1, [&](std::uint32_t x) { exact.var(x); }));
  util::BinWriter w;
  try {
    w.vec(v, 2, [&](std::uint32_t x) { w.var(x); });
    ADD_FAILURE() << "a 1-byte record passed a 2-byte minimum";
  } catch (const std::logic_error& e) {
    EXPECT_STREQ(e.what(),
                 "snapshot: a 1-byte record under a stated minimum of 2 bytes");
  }
  const std::unordered_map<std::uint32_t, double> m = {{7, 0.5}};
  util::BinWriter map_w;
  EXPECT_THROW(util::sorted_map(map_w, m, 10,
                                [&](std::uint32_t k, double x) {
                                  map_w.var(k);
                                  map_w.f64(x);
                                }),
               std::logic_error);
  util::BinWriter asc_w;
  EXPECT_THROW(util::ascending(asc_w, 3, 3, "test slot",
                               [](std::size_t i) { return i == 1; },
                               [&](std::size_t i) { asc_w.var(i); }),
               std::logic_error);
  util::BinWriter rec_w;
  EXPECT_THROW(rec_w.record(9, [&] { rec_w.f64(1.0); }), std::logic_error);
}

// ascending() over a 6-entry table, loading these steps.
std::string ascending_error(const std::vector<std::uint64_t>& steps) {
  util::BinWriter w;
  w.var(steps.size());
  for (const std::uint64_t step : steps) w.var(step);
  return codec_error(w.blob(), [](util::BinReader& r) {
    util::ascending(r, 6, 1, "test slot", [](std::size_t) { return true; },
                    [](std::size_t) {});
  });
}

TEST(CodecTest, AscendingIndicesRoundTripAndRejectBadSteps) {
  const std::vector<bool> occupied = {false, true, true, false, false, true};
  util::BinWriter w;
  util::ascending(w, occupied.size(), 1, "test slot",
                  [&](std::size_t i) { return occupied[i]; },
                  [&](std::size_t i) { w.var(i); });
  // Count 3, then (step, entry) per index: 1, 1+1 = 2, 2+3 = 5.
  EXPECT_EQ(w.blob(), std::string("\x03\x01\x01\x01\x02\x03\x05", 7));
  const std::string blob = w.take();
  util::BinReader r(blob);
  std::vector<std::size_t> got;
  util::ascending(r, occupied.size(), 1, "test slot",
                  [](std::size_t) { return true; },
                  [&](std::size_t i) {
                    EXPECT_EQ(r.var(), i);
                    got.push_back(i);
                  });
  EXPECT_EQ(got, (std::vector<std::size_t>{1, 2, 5}));
  EXPECT_TRUE(r.at_end());

  EXPECT_EQ(ascending_error({0, 5}), "");
  EXPECT_EQ(ascending_error({6}), "snapshot: test slot index at or past 6");
  EXPECT_EQ(ascending_error({2, 4}), "snapshot: test slot index at or past 6");
  EXPECT_EQ(ascending_error({2, 0}), "snapshot: test slot indices do not ascend");
  EXPECT_EQ(ascending_error({1, ~0ULL}),
            "snapshot: test slot index at or past 6");
}

// util::ring over eight slots after `total` pushes, loading a blob that
// holds `count` one-byte entries.
std::string ring_error(std::uint64_t total, std::size_t count) {
  util::BinWriter w;
  w.var(count);
  for (std::size_t i = 0; i < count; ++i) w.var(i);
  const std::string blob = w.take();
  util::BinReader r(blob);
  std::vector<std::uint32_t> slots;
  try {
    util::ring(r, slots, total, 8, 1, "test ring",
               [&](std::uint32_t& x) { r.var(x); });
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(CodecTest, RingRoundTripsAndRejectsCountsItCannotHold) {
  // Twelve pushes into eight slots: push k sits at slot k % 8, and pushes
  // 4 to 11 are held.
  std::vector<std::uint32_t> slots(8);
  for (std::uint32_t k = 0; k < 12; ++k) slots[k % 8] = k;
  util::BinWriter w;
  util::ring(w, slots, 12, 8, 1, "test ring",
             [&](std::uint32_t x) { w.var(x); });
  EXPECT_EQ(w.blob(),
            std::string("\x08\x04\x05\x06\x07\x08\x09\x0a\x0b", 9));
  const std::string blob = w.take();
  util::BinReader r(blob);
  std::vector<std::uint32_t> back;
  util::ring(r, back, 12, 8, 1, "test ring",
             [&](std::uint32_t& x) { r.var(x); });
  EXPECT_EQ(back, slots);
  EXPECT_TRUE(r.at_end());

  EXPECT_EQ(ring_error(12, 8), "");
  EXPECT_EQ(ring_error(3, 3), "");
  // Fewer than held: a merged trace ring holds fewer than its total counts.
  EXPECT_EQ(ring_error(3, 2), "");
  // More entries than pushes were made.
  EXPECT_EQ(ring_error(3, 4),
            "snapshot: test ring holds 4 entries, past the 3 its push total "
            "and capacity allow");
  // More entries than the ring has slots.
  EXPECT_EQ(ring_error(12, 9),
            "snapshot: test ring holds 9 entries, past the 8 its push total "
            "and capacity allow");
}

// -------------------------------------------------------------------- rng

TEST(RngStateTest, RestoreContinuesIdenticalSequence) {
  util::Rng a(123, 456);
  (void)a.normal(0.0, 1.0);  // populate the cached-normal half
  const std::string blob = save(a);
  std::vector<double> expect;
  for (int i = 0; i < 8; ++i) expect.push_back(a.normal(0.0, 1.0));

  util::Rng b;  // different seed entirely; loading must overwrite all of it
  load(blob, b);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(b.normal(0.0, 1.0), expect[i]);
}

// -------------------------------------------------------------- scheduler

TEST(SchedulerStateTest, RoundTripsCountersAndRefusesLiveEvents) {
  util::Scheduler s;
  int fired = 0;
  s.at(1.0, [&] { ++fired; });
  s.at(2.0, [&] { ++fired; });
  s.run();
  EXPECT_EQ(fired, 2);
  const std::string blob = save(s);
  // The clock, then the executed counter.
  util::BinReader fields(blob);
  EXPECT_DOUBLE_EQ(fields.f64(), 2.0);
  EXPECT_EQ(fields.var(), 2u);

  util::Scheduler fresh;
  load(blob, fresh);
  EXPECT_DOUBLE_EQ(fresh.now(), 2.0);
  EXPECT_EQ(fresh.executed(), 2u);

  // Closures cannot be serialized: loading over pending events would
  // silently drop them, so it must throw instead.
  util::Scheduler busy;
  busy.at(5.0, [] {});
  util::BinReader r(blob);
  EXPECT_THROW(util::Scheduler::layout(r, busy), std::runtime_error);
}

// ------------------------------------------------------------- registries

TEST(CheckpointTest, MetricsRegistryRoundTripsVerbatim) {
  obs::MetricsRegistry reg;
  reg.set_enabled(true);
  reg.counter("a.count").inc(41);
  reg.counter("a.count").inc();
  reg.gauge("b.gauge").set(17.5);
  reg.gauge("b.gauge").set(3.25);  // max must survive too
  auto& d = reg.distribution("c.dist");
  for (const double v : {1.0, 2.0, 7.5, -3.0}) d.observe(v);

  const std::string blob = save(reg);

  // Restore targets a fresh registry (the service-plane restore path always
  // does); merge-into-nonempty is not part of the contract. A handle taken
  // before the load stays valid and sees the loaded value.
  obs::MetricsRegistry back;
  back.set_enabled(true);
  const obs::Counter& live = back.counter("a.count");
  load(blob, back);

  EXPECT_EQ(back.counter("a.count").value(), 42u);
  EXPECT_EQ(live.value(), 42u);
  EXPECT_DOUBLE_EQ(back.gauge("b.gauge").value(), 3.25);
  // Byte-level check: re-saving the restored registry reproduces the blob
  // exactly (same names, same order, same bit patterns).
  EXPECT_EQ(blob, save(back));
}

TEST(CheckpointTest, SpanRegistryRoundTripsVerbatim) {
  obs::SpanRegistry reg;
  reg.set_enabled(true);
  const auto root = reg.begin(0.0, "root", 0, 1, 2);
  const auto child = reg.begin(1.0, "child", root);
  reg.annotate(child, "key", 2.5);
  reg.end(child, 3.0);
  reg.end(root, 4.0);
  const auto open = reg.begin(5.0, "still-open");
  (void)open;

  const std::string blob = save(reg);

  obs::SpanRegistry back;
  load(blob, back);
  ASSERT_EQ(back.records().size(), reg.records().size());

  EXPECT_EQ(blob, save(back));

  // The restored id stream continues where the original would have: the
  // next span begun on either registry gets the same id.
  const auto a = reg.begin(6.0, "next");
  const auto b = back.begin(6.0, "next");
  EXPECT_EQ(a, b);
}

TEST(CheckpointTest, TraceRingRoundTripsVerbatim) {
  obs::TraceRing ring(8);
  ring.set_enabled(true);
  for (int i = 0; i < 12; ++i) {  // overflow the ring: oldest four drop
    ring.record(static_cast<double>(i), obs::TraceKind::kEpisodeOpened,
                static_cast<std::uint64_t>(i), 0, 0.5 * i);
  }
  const std::string blob = save(ring);

  obs::TraceRing back(8);
  back.set_enabled(true);
  load(blob, back);
  const auto same = [](const obs::TraceRing& x, const obs::TraceRing& y) {
    EXPECT_EQ(x.size(), y.size());
    EXPECT_EQ(x.recorded(), y.recorded());
    EXPECT_EQ(x.dropped(), y.dropped());
    const auto a = x.events();
    const auto b = y.events();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].t, b[i].t);
      EXPECT_EQ(a[i].kind, b[i].kind);
      EXPECT_EQ(a[i].a, b[i].a);
    }
  };
  same(ring, back);
  EXPECT_EQ(save(back), blob);
  // The next record overwrites the oldest event in both.
  ring.record(12.0, obs::TraceKind::kEpisodeClosed, 12);
  back.record(12.0, obs::TraceKind::kEpisodeClosed, 12);
  same(ring, back);

  // A ring that merged a wrapped one: its total counts three drops it
  // inherited and never held, so it loads holding two events, not five.
  obs::TraceRing wrapped(2);
  wrapped.set_enabled(true);
  for (int i = 0; i < 5; ++i) {
    wrapped.record(static_cast<double>(i), obs::TraceKind::kProbeLost,
                   static_cast<std::uint64_t>(i) + 1);
  }
  obs::TraceRing merged(8);
  merged.set_enabled(true);
  merged.merge(wrapped);
  ASSERT_EQ(merged.size(), 2u);
  ASSERT_EQ(merged.dropped(), 3u);
  const std::string merged_blob = save(merged);

  obs::TraceRing merged_back(8);
  load(merged_blob, merged_back);
  EXPECT_EQ(merged_back.size(), 2u);
  EXPECT_EQ(merged_back.recorded(), 5u);
  EXPECT_EQ(merged_back.dropped(), 3u);
  same(merged, merged_back);
  EXPECT_EQ(save(merged_back), merged_blob);
  // Seven more records fill the ring and overwrite its oldest event in both.
  for (int i = 5; i < 12; ++i) {
    for (obs::TraceRing* r : {&merged, &merged_back}) {
      r->record(static_cast<double>(i), obs::TraceKind::kProbeAnswered,
                static_cast<std::uint64_t>(i) + 1);
    }
  }
  EXPECT_EQ(merged_back.events().front().a, 5u);
  same(merged, merged_back);
}

// A distribution's Welford accumulator and samples load bit-exactly, and
// the loaded one keeps accumulating as the original does.
TEST(CheckpointTest, DistributionRoundTripsItsSummary) {
  obs::MetricsRegistry reg;
  obs::Distribution& d = reg.distribution("d");
  for (const double v : {0.1, 0.2, 0.7, 1e6, -3.5}) d.observe(v);
  const std::string blob = save(reg);

  obs::MetricsRegistry back;
  load(blob, back);
  EXPECT_EQ(save(back), blob);
  obs::Distribution& got = back.distribution("d");
  const auto same = [&] {
    EXPECT_EQ(got.summary().count(), d.summary().count());
    EXPECT_EQ(got.summary().mean(), d.summary().mean());
    EXPECT_EQ(got.summary().variance(), d.summary().variance());
    EXPECT_EQ(got.summary().min(), d.summary().min());
    EXPECT_EQ(got.summary().max(), d.summary().max());
    EXPECT_EQ(got.cdf().sorted_samples(), d.cdf().sorted_samples());
  };
  same();
  d.observe(2.5);
  got.observe(2.5);
  same();
}

// Loading a bucket's tokens, clock and counters: the loaded bucket grants
// and denies the next requests exactly as the original does.
TEST(CheckpointTest, TokenBucketRoundTripsAndGrantsTheSame) {
  fleet::TokenBucket bucket(0.5, 3.0);
  ASSERT_TRUE(bucket.try_spend(1.0, 2.0));
  ASSERT_FALSE(bucket.try_spend(1.5, 2.0));
  const std::string blob = save(bucket);

  fleet::TokenBucket back(0.5, 3.0);
  load(blob, back);
  EXPECT_EQ(save(back), blob);
  std::vector<bool> want, got;
  for (const double t : {2.0, 2.5, 4.0, 9.0, 9.1}) {
    want.push_back(bucket.try_spend(t, 1.5));
    got.push_back(back.try_spend(t, 1.5));
  }
  EXPECT_EQ(got, want);
  EXPECT_EQ(want, (std::vector<bool>{true, false, false, true, true}));
  EXPECT_EQ(back.granted(), bucket.granted());
  EXPECT_EQ(back.denied(), bucket.denied());
  EXPECT_EQ(back.spent(), bucket.spent());
}

// The admission controller's bucket and adapted estimate load together:
// the loaded controller admits and defers the same next isolations.
TEST(CheckpointTest, ProbeAdmissionRoundTripsAndAdmitsTheSame) {
  fleet::ProbeAdmission adm(10.0, 600.0);
  ASSERT_TRUE(adm.try_admit(0.0));
  adm.settle(0.0, 100.0);  // a cheap isolation pulls the estimate down
  ASSERT_TRUE(adm.try_admit(1.0));
  const std::string blob = save(adm);

  fleet::ProbeAdmission back(10.0, 600.0);
  load(blob, back);
  EXPECT_EQ(save(back), blob);
  EXPECT_EQ(back.cost_estimate(), adm.cost_estimate());
  std::vector<bool> want, got;
  for (const double t : {1.0, 1.5, 2.0, 30.0}) {
    want.push_back(adm.try_admit(t));
    got.push_back(back.try_admit(t));
    if (want.back()) adm.settle(t, 400.0);
    if (got.back()) back.settle(t, 400.0);
  }
  EXPECT_EQ(got, want);
  EXPECT_EQ(want, (std::vector<bool>{true, false, false, true}));
  EXPECT_EQ(back.cost_estimate(), adm.cost_estimate());
  EXPECT_EQ(back.admitted(), adm.admitted());
  EXPECT_EQ(back.deferred(), adm.deferred());
}

// The failure injector loads its active failures and its id counter: the
// next failure injected gets the id the original would have issued, which
// no other check catches unless two ids collide.
TEST(CheckpointTest, FailureInjectorRoundTripsAndIssuesTheSameNextId) {
  dp::FailureInjector inj;
  dp::Failure at_as;
  at_as.at_as = 7;
  at_as.toward_as = 3;
  dp::Failure at_link;
  at_link.at_link = topo::AsLinkKey(5, 2);
  at_link.direction_from = 5;
  const dp::FailureId first = inj.inject(at_as);
  inj.inject(at_link);
  inj.inject(at_as);
  ASSERT_TRUE(inj.clear(first));
  const std::string blob = save(inj);

  dp::FailureInjector back;
  load(blob, back);
  EXPECT_EQ(save(back), blob);
  ASSERT_EQ(back.active().size(), inj.active().size());
  for (std::size_t i = 0; i < inj.active().size(); ++i) {
    EXPECT_EQ(back.active()[i].first, inj.active()[i].first);
    EXPECT_EQ(back.active()[i].second.str(), inj.active()[i].second.str());
  }
  EXPECT_EQ(back.drops_on_link(5, 2, 9), inj.drops_on_link(5, 2, 9));
  EXPECT_EQ(back.drops_on_link(2, 5, 9), inj.drops_on_link(2, 5, 9));
  const dp::FailureId next = inj.inject(at_link);
  EXPECT_EQ(next, 4u);
  EXPECT_EQ(back.inject(at_link), next);
}

// The responsiveness model's rate-limit stream loads mid-sequence: the
// loaded model draws the same next verdicts, which a fresh one does not.
TEST(CheckpointTest, ResponsivenessRoundTripsAndDrawsTheSame) {
  measure::ResponsivenessConfig cfg;
  cfg.rate_limit_drop_prob = 0.5;
  measure::Responsiveness resp(cfg);
  for (int i = 0; i < 7; ++i) (void)resp.rate_limited();
  const std::string blob = save(resp);

  measure::Responsiveness back(cfg);
  load(blob, back);
  EXPECT_EQ(save(back), blob);
  measure::Responsiveness fresh(cfg);
  std::vector<bool> want, got, from_start;
  for (int i = 0; i < 32; ++i) {
    want.push_back(resp.rate_limited());
    got.push_back(back.rate_limited());
    from_start.push_back(fresh.rate_limited());
  }
  EXPECT_EQ(got, want);
  EXPECT_NE(from_start, want);
}

// ---------------------------------------------------------- bgp snapshot

TEST(EngineSnapshotTest, QuiescedEngineReserializesByteIdentically) {
  workload::SimWorldConfig wc = workload::SimWorld::small_config(7);
  workload::SimWorld world(wc);
  // Some real announcement state on top of the infrastructure baseline:
  // a plain origination and a selective policy with a poisoned default.
  const topo::AsId origin = world.topology().stubs.front();
  bgp::OriginPolicy pol;
  pol.default_path = bgp::PathRef(bgp::poisoned_path(
      origin, {world.topology().stubs.back()}, 3));
  world.engine().originate(origin, topo::AddressPlan::production_prefix(origin),
                           std::move(pol));
  world.converge();

  util::BinWriter w;
  world.engine().serialize(w);
  const std::string blob = w.take();

  workload::SimWorld fresh(wc);
  fresh.converge();
  copy_clock(world.scheduler(), fresh.scheduler());
  util::BinReader r(blob);
  fresh.engine().serialize(r);

  util::BinWriter w2;
  fresh.engine().serialize(w2);
  EXPECT_EQ(blob, w2.blob()) << "snapshot does not round-trip bit-exactly";
}

// How an engine numbers its prefixes internally never reaches a blob: a
// snapshot saved by an engine that first saw A, B, C loads into one over the
// same graph that first saw C, B, A, re-serializes to the same bytes, and
// answers every route and FIB query the way the saving engine does.
TEST(EngineSnapshotTest, LoadsIntoEngineWithOtherPrefixIdOrder) {
  const topo::Fig2Topology topo = topo::make_fig2_topology();
  const topo::Prefix a = topo::AddressPlan::production_prefix(topo.o);
  const topo::Prefix b = topo::AddressPlan::sentinel_prefix(topo.o);
  const topo::Prefix c = topo::AddressPlan::production_prefix(topo.e);
  const auto originate = [&](bgp::BgpEngine& engine, const topo::Prefix& p) {
    bgp::OriginPolicy pol;
    if (p == c) {
      pol.default_path = bgp::AsPath{topo.e};
      engine.originate(topo.e, p, std::move(pol));
      return;
    }
    // A is poisoned through A, so its FIB answers differ from B's.
    pol.default_path = p == a ? bgp::PathRef(bgp::poisoned_path(
                                    topo.o, {topo.a}, 3))
                              : bgp::PathRef(bgp::AsPath{topo.o});
    engine.originate(topo.o, p, std::move(pol));
  };

  util::Scheduler sched;
  bgp::BgpEngine engine(topo.graph, sched);
  for (const topo::Prefix& p : {a, b, c}) originate(engine, p);
  sched.run();
  util::BinWriter w;
  engine.serialize(w);
  const std::string blob = w.take();

  util::Scheduler other_sched;
  bgp::BgpEngine other(topo.graph, other_sched);
  for (const topo::Prefix& p : {c, b, a}) originate(other, p);
  other_sched.run();
  copy_clock(sched, other_sched);
  util::BinReader r(blob);
  other.serialize(r);

  util::BinWriter w2;
  other.serialize(w2);
  EXPECT_EQ(blob, w2.blob()) << "prefix id order leaked into the snapshot";

  const topo::Ipv4 probes[] = {
      a.first_address() + 1, b.first_address() + 1,
      topo::AddressPlan::sentinel_unused_subprefix(topo.o).first_address() + 1,
      c.first_address() + 1};
  for (const topo::AsId as : topo.graph.as_ids()) {
    for (const topo::Prefix& p : {a, b, c}) {
      const bgp::Route* want = engine.best_route(as, p);
      const bgp::Route* got = other.best_route(as, p);
      ASSERT_EQ(want == nullptr, got == nullptr)
          << "presence mismatch at AS " << as << " for " << p.str();
      if (want != nullptr) {
        EXPECT_EQ(*want, *got) << "route mismatch at AS " << as << " for "
                               << p.str();
      }
    }
    for (const topo::Ipv4 dst : probes) {
      const bgp::FibResult want = engine.fib_lookup(as, dst);
      const bgp::FibResult got = other.fib_lookup(as, dst);
      EXPECT_EQ(want.has_route, got.has_route) << "AS " << as;
      EXPECT_EQ(want.local, got.local) << "AS " << as;
      EXPECT_EQ(want.via_default, got.via_default) << "AS " << as;
      EXPECT_EQ(want.next_hop, got.next_hop) << "AS " << as;
      EXPECT_EQ(want.matched, got.matched) << "AS " << as;
    }
  }
}

// A snapshot is operator input: lengths and indices that would overflow the
// loading engine's tables must be rejected with a diagnostic.

std::string load_error(bgp::BgpEngine& engine, const std::string& blob) {
  util::BinReader r(blob);
  try {
    engine.serialize(r);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

// Same AS ids and the same six directed sessions, different adjacency: the
// MRAI tables fit, the per-neighbour RIB arrays do not.
topo::AsGraph chain_graph() {
  topo::AsGraph g;
  for (topo::AsId as = 1; as <= 4; ++as) g.add_as(as);
  g.add_link(2, 1, topo::Rel::kCustomer);
  g.add_link(3, 2, topo::Rel::kCustomer);
  g.add_link(4, 3, topo::Rel::kCustomer);
  return g;
}

topo::AsGraph star_graph() {
  topo::AsGraph g;
  for (topo::AsId as = 1; as <= 4; ++as) g.add_as(as);
  for (topo::AsId as = 2; as <= 4; ++as) {
    g.add_link(1, as, topo::Rel::kCustomer);
  }
  return g;
}

TEST(EngineSnapshotTest, RejectsRibArraysSizedForAnotherAdjacency) {
  const topo::AsGraph chain = chain_graph();
  util::Scheduler sched;
  bgp::EngineConfig ec;
  ec.default_mrai = 0.0;
  bgp::BgpEngine engine(chain, sched, ec);
  bgp::OriginPolicy pol;
  pol.default_path = bgp::PathRef(bgp::baseline_path(1, 1));
  engine.originate(1, topo::AddressPlan::production_prefix(1), std::move(pol));
  sched.run();
  util::BinWriter w;
  engine.serialize(w);

  const topo::AsGraph star = star_graph();
  util::Scheduler star_sched;
  bgp::BgpEngine star_engine(star, star_sched, ec);
  EXPECT_NE(load_error(star_engine, w.blob()).find("neighbours"),
            std::string::npos);
}

TEST(EngineSnapshotTest, RejectsMraiTablesSizedForAnotherTopology) {
  // Seeds 7 and 8 give the same AS ids over different session counts.
  workload::SimWorld world(workload::SimWorld::small_config(7));
  util::BinWriter w;
  world.engine().serialize(w);
  workload::SimWorld other(workload::SimWorld::small_config(8));
  EXPECT_NE(load_error(other.engine(), w.blob()).find("MRAI table"),
            std::string::npos);
}

// A fault-free blob loads into an engine built under the fault plane, and
// the restored engine pumps an update through it.
TEST(EngineSnapshotTest, FaultFreeBlobLoadsUnderTheFaultPlane) {
  std::string clean_blob;
  {
    workload::SimWorld world(workload::SimWorld::small_config(7));
    util::BinWriter w;
    world.engine().serialize(w);
    clean_blob = w.take();
  }
  faults::FaultPlane plane(faults::FaultConfig::at_intensity(0.3));
  faults::ScopedFaultPlane scope(plane);
  workload::SimWorld world(workload::SimWorld::small_config(7));
  EXPECT_EQ(load_error(world.engine(), clean_blob), "");
  const topo::AsId origin = world.topology().stubs.front();
  const topo::Prefix prefix(0x0c000000u, 24);
  bgp::OriginPolicy pol;
  pol.default_path = bgp::PathRef(bgp::baseline_path(origin, 1));
  world.engine().originate(origin, prefix, std::move(pol));
  world.converge();
  EXPECT_NE(world.engine().best_route(world.topology().stubs.back(), prefix),
            nullptr);
}

// An engine blob relabelled with an older section version: this build
// reads version 5 only, and the version header turns the blob away before
// any of it is misread.
std::string older_version_error(char version) {
  const topo::AsGraph chain = chain_graph();
  util::Scheduler sched;
  bgp::BgpEngine engine(chain, sched, bgp::EngineConfig{});
  util::BinWriter w;
  engine.serialize(w);
  std::string blob = w.take();
  // The section opens with its tag, then its version as a little-endian u32.
  EXPECT_EQ(static_cast<unsigned char>(blob[4]), 5u);
  blob[4] = version;
  return load_error(engine, blob);
}

// Version 2 engine blobs carried per-(session, prefix) sequence counters.
TEST(EngineSnapshotTest, RejectsVersionTwoEngineBlob) {
  EXPECT_NE(older_version_error(2).find("section version 2"),
            std::string::npos);
}

// Version 3 engine blobs stored every RIB slot and MRAI entry densely.
TEST(EngineSnapshotTest, RejectsVersionThreeEngineBlob) {
  EXPECT_EQ(older_version_error(3),
            "snapshot: section version 3, this build reads version 5");
}

// Version 4 engine blobs wrote path elements, AS numbers and counters at a
// fixed width.
TEST(EngineSnapshotTest, RejectsVersionFourEngineBlob) {
  EXPECT_EQ(older_version_error(4),
            "snapshot: section version 4, this build reads version 5");
}

// AS 4 is the provider of ASes 1, 2 and 3, and the last speaker.
topo::AsGraph hub_last_graph() {
  topo::AsGraph g;
  for (topo::AsId as = 1; as <= 4; ++as) g.add_as(as);
  for (topo::AsId as = 1; as <= 3; ++as) {
    g.add_link(4, as, topo::Rel::kCustomer);
  }
  return g;
}

// A corrupt Adj-RIB-Out slot list is rejected, not indexed. AS 1's prefix
// reaches the hub, which advertises it on to its other customers; the hub's
// section ends with that state's Adj-RIB-Out entries (slot step, tag, path
// id, communities id: one byte each), then 41 bytes: two empty side-tables
// (out hints, damping), an absent forced egress, 33 prefix-length flags and
// five zero counters, one varint byte each.
TEST(EngineSnapshotTest, RejectsCorruptAdjRibOutSlots) {
  const topo::AsGraph g = hub_last_graph();
  util::Scheduler sched;
  bgp::EngineConfig ec;
  ec.default_mrai = 0.0;
  bgp::BgpEngine engine(g, sched, ec);
  bgp::OriginPolicy pol;
  pol.default_path = bgp::PathRef(bgp::AsPath{1});
  engine.originate(1, topo::AddressPlan::production_prefix(1), std::move(pol));
  sched.run();
  ASSERT_EQ(engine.speaker(4).adj_out_state(
                topo::AddressPlan::production_prefix(1), 3),
            bgp::BgpSpeaker::AdjOutState::kAdvertised);
  util::BinWriter w;
  engine.serialize(w);
  const std::string blob = w.take();
  ASSERT_EQ(blob.substr(blob.size() - 5), std::string(5, '\0'))
      << "the hub rejected a route, so a counter is not zero";
  const std::size_t last_step = blob.size() - 41 - 4;
  ASSERT_EQ(blob[last_step + 1], 2) << "not an advertised slot's tag";

  util::Scheduler load_sched;
  bgp::BgpEngine loaded(g, load_sched, ec);
  ASSERT_EQ(load_error(loaded, blob), "");
  std::string bad = blob;
  bad[last_step] = 0;  // the slot before, again
  EXPECT_EQ(load_error(loaded, bad),
            "snapshot: Adj-RIB-Out slot indices do not ascend");
  bad[last_step] = 9;  // past the hub's three neighbours
  EXPECT_EQ(load_error(loaded, bad),
            "snapshot: Adj-RIB-Out slot index at or past 3");
}

// A best route's learned-from byte is range-checked like every enum byte.
// AS 2 originates a prefix to AS 1 over a customer link in one engine and a
// peer link in the other, so the two blobs differ only in that byte of AS
// 1's best route: kCustomer (0) against kPeer (1).
TEST(EngineSnapshotTest, RejectsLearnedFromPastItsEnum) {
  const auto save = [](topo::Rel rel, topo::AsGraph& g, util::Scheduler& sched,
                       std::unique_ptr<bgp::BgpEngine>& engine) {
    g.add_as(1);
    g.add_as(2);
    g.add_link(1, 2, rel);
    bgp::EngineConfig ec;
    ec.default_mrai = 0.0;
    engine = std::make_unique<bgp::BgpEngine>(g, sched, ec);
    bgp::OriginPolicy pol;
    pol.default_path = bgp::PathRef(bgp::AsPath{2});
    engine->originate(2, topo::AddressPlan::production_prefix(2),
                      std::move(pol));
    sched.run();
    util::BinWriter w;
    engine->serialize(w);
    return w.take();
  };
  topo::AsGraph customer_graph, peer_graph;
  util::Scheduler customer_sched, peer_sched;
  std::unique_ptr<bgp::BgpEngine> customer, peer;
  const std::string blob =
      save(topo::Rel::kCustomer, customer_graph, customer_sched, customer);
  const std::string peer_blob =
      save(topo::Rel::kPeer, peer_graph, peer_sched, peer);
  ASSERT_EQ(blob.size(), peer_blob.size());
  std::vector<std::size_t> differ;
  for (std::size_t i = 0; i < blob.size(); ++i) {
    if (blob[i] != peer_blob[i]) differ.push_back(i);
  }
  ASSERT_EQ(differ.size(), 1u);
  const std::size_t at = differ.front();
  ASSERT_EQ(blob[at], static_cast<char>(bgp::LearnedFrom::kCustomer));
  ASSERT_EQ(peer_blob[at], static_cast<char>(bgp::LearnedFrom::kPeer));

  std::string bad = blob;
  bad[at] = static_cast<char>(bgp::LearnedFrom::kLocal);
  EXPECT_EQ(load_error(*customer, bad), "");
  bad[at] = 4;
  EXPECT_EQ(load_error(*customer, bad),
            "snapshot: learned-from byte 4 is out of range");
}

// A two-AS engine at a jitter-free 30 s MRAI whose customer AS 2 announced
// a prefix at time 0: the session from AS 2 runs a timer to exactly 30 s.
struct TwoAsEngine {
  topo::AsGraph graph;
  util::Scheduler sched;
  std::unique_ptr<bgp::BgpEngine> engine;
  topo::Prefix prefix = topo::AddressPlan::production_prefix(2);

  TwoAsEngine() {
    graph.add_as(1);
    graph.add_as(2);
    graph.add_link(1, 2, topo::Rel::kCustomer);
    bgp::EngineConfig ec;
    ec.default_mrai = 30.0;
    ec.mrai_jitter_frac = 0.0;
    engine = std::make_unique<bgp::BgpEngine>(graph, sched, ec);
    announce(bgp::AsPath{2});
    sched.run(1.0);
  }
  void announce(bgp::AsPath path) {
    bgp::OriginPolicy pol;
    pol.default_path = bgp::PathRef(std::move(path));
    engine->originate(2, prefix, std::move(pol));
  }
};

// A corrupt MRAI session index is rejected, not indexed. Directed sessions
// are 0 (AS 1 to AS 2) and 1 (AS 2 to AS 1); the one running timer is
// session 1's, written as its index then its deadline.
TEST(EngineSnapshotTest, RejectsMraiSessionPastSessionCount) {
  TwoAsEngine two;
  util::BinWriter w;
  two.engine->serialize(w);
  const std::string blob = w.take();
  util::BinWriter deadline;
  deadline.f64(30.0);
  const std::size_t at = blob.find(deadline.blob());
  ASSERT_NE(at, std::string::npos) << "AS 2's timer was not saved";
  ASSERT_EQ(at, blob.rfind(deadline.blob()));
  ASSERT_EQ(blob[at - 1], 1) << "the timer is not session 1's";

  TwoAsEngine other;
  copy_clock(two.sched, other.sched);
  ASSERT_EQ(load_error(*other.engine, blob), "");
  std::string bad = blob;
  bad[at - 1] = 2;  // past the two directed sessions
  EXPECT_EQ(load_error(*other.engine, bad),
            "snapshot: MRAI session index at or past 2");
}

// A deferred send's flush closure lives in the scheduler, which no snapshot
// carries, so an engine with one pending refuses to save and says why.
TEST(EngineSnapshotTest, SaveRefusesPendingMraiFlush) {
  TwoAsEngine two;
  util::BinWriter before;
  two.engine->serialize(before);  // timers running, nothing deferred
  // A new path while AS 2's timer runs to 30 s: the send waits for it.
  two.announce(bgp::baseline_path(2, 2));
  util::BinWriter w;
  try {
    two.engine->serialize(w);
    ADD_FAILURE() << "saved with a deferred flush pending";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("deferred MRAI flush is pending"),
              std::string::npos)
        << e.what();
  }
  // Once the flush has run, the engine saves again.
  two.sched.run();
  util::BinWriter after;
  EXPECT_NO_THROW(two.engine->serialize(after));
}

// Everything observable about an engine's routes, in ascending AS and
// prefix order: every Adj-RIB-In entry, best route and advertised unit.
std::string rib_dump(const bgp::BgpEngine& engine) {
  std::ostringstream out;
  const topo::AsGraph& g = engine.graph();
  for (const topo::AsId as : g.as_ids()) {
    const bgp::BgpSpeaker& sp = engine.speaker(as);
    for (const topo::Prefix& p : sp.known_prefixes()) {
      out << as << " " << p.str();
      for (const bgp::Route& r : sp.rib_in(p)) {
        out << " in " << r.neighbor << "[" << bgp::path_str(r.path) << "]";
      }
      if (const bgp::Route* best = sp.best_route(p)) {
        out << " best " << best->neighbor << "["
            << bgp::path_str(best->path) << "]";
      }
      for (const topo::Neighbor& nbr : g.neighbors(as)) {
        if (const auto unit = sp.adj_out_unit(p, nbr.id)) {
          out << " out " << nbr.id << "[" << bgp::path_str(unit->path)
              << "]";
        }
      }
      out << "\n";
    }
  }
  return out.str();
}

// Timers still running at the save defer the restored engine's sends just
// as they defer the original's.
TEST(EngineSnapshotTest, LiveMraiTimersSurviveRestore) {
  obs::MetricsRegistry reg;
  const obs::ScopedMetricsRegistry scope(reg);
  const auto count = [&](const char* name) {
    return reg.counter(name).value();
  };
  workload::SimWorldConfig wc = workload::SimWorld::small_config(7);
  ASSERT_EQ(wc.engine.default_mrai, 30.0);
  workload::SimWorld world(wc);
  const topo::AsId origin = world.topology().first_multihomed_stub();
  const topo::Prefix prefix = topo::AddressPlan::production_prefix(origin);
  bgp::OriginPolicy pol;
  pol.default_path = bgp::PathRef(bgp::AsPath{origin});
  world.engine().originate(origin, prefix, pol);
  world.converge();
  util::BinWriter w;
  world.engine().serialize(w);
  const std::string blob = w.take();

  wc.announce_infrastructure = false;
  workload::SimWorld restored(wc);
  copy_clock(world.scheduler(), restored.scheduler());
  util::BinReader r(blob);
  restored.engine().serialize(r);
  ASSERT_EQ(rib_dump(restored.engine()), rib_dump(world.engine()));

  // The same poisoning on both, at the same instant, timers still running.
  const topo::AsId poison = world.graph().providers(origin).front();
  bgp::OriginPolicy poisoned;
  poisoned.default_path =
      bgp::PathRef(bgp::poisoned_path(origin, {poison}, 3));
  const auto repair = [&](workload::SimWorld& wd) {
    const std::uint64_t deferrals = count("lg.bgp.mrai_deferrals");
    const std::uint64_t delivered = count("lg.bgp.updates_delivered");
    wd.engine().originate(origin, prefix, poisoned);
    wd.converge();
    return std::pair{count("lg.bgp.mrai_deferrals") - deferrals,
                     count("lg.bgp.updates_delivered") - delivered};
  };
  const auto want = repair(world);
  const auto got = repair(restored);
  EXPECT_GT(want.first, 0u) << "no send met a running timer";
  EXPECT_EQ(got.first, want.first) << "deferrals";
  EXPECT_EQ(got.second, want.second) << "delivered updates";
  EXPECT_EQ(rib_dump(restored.engine()), rib_dump(world.engine()));
  EXPECT_EQ(restored.scheduler().now(), world.scheduler().now());
}

// ---------------------------------------------------------- golden bytes

// FNV-1a digests of checkpoint blobs as the format stands. Tags, versions
// and field order are all part of the canon: existing checkpoints must keep
// loading, so a change here is a format change.
constexpr std::uint64_t kShardBlobDigest = 0x1a13736e25af4adaULL;
constexpr std::uint64_t kEngineBlobDigest = 0x28fc6faaa05f4bdbULL;

TEST(GoldenCheckpointTest, ServiceShardBlobIsPinned) {
  // The small config of tests/test_service_plane.cc, checkpointed mid-stream.
  fleet::ServiceConfig cfg;
  cfg.prefixes = 64;
  cfg.clients = 32;
  cfg.shards = 4;
  cfg.horizon_seconds = 1800.0;
  cfg.warmup_seconds = 120.0;
  cfg.drain_cap_seconds = 3600.0;
  cfg.outages_per_hour = 96.0;
  cfg.shard_topology.num_tier1 = 3;
  cfg.shard_topology.num_large_transit = 6;
  cfg.shard_topology.num_small_transit = 12;
  cfg.shard_topology.num_stubs = 40;
  const fleet::ServiceResult half =
      fleet::ServiceScheduler(cfg).run_until(900.0);
  ASSERT_EQ(half.shards.size(), 4u);
  const std::string& blob = half.shards[2].checkpoint;
  ASSERT_FALSE(blob.empty());
  EXPECT_EQ(util::fnv1a(blob), kShardBlobDigest) << "size " << blob.size();
}

// An engine state that fills every field the service plane leaves empty:
// damping entries, an origin policy with per-neighbour overrides,
// communities and an avoid hint, and a forced egress, all converged under
// the fault plane.
std::string rich_engine_blob() {
  faults::FaultPlane plane(faults::FaultConfig::at_intensity(0.3));
  faults::ScopedFaultPlane scope(plane);
  workload::SimWorld world(workload::SimWorld::small_config(7));
  for (const topo::AsId as : world.graph().as_ids()) {
    world.engine().speaker(as).mutable_config().damping_enabled = true;
  }
  topo::AsId origin = world.topology().first_multihomed_stub();
  std::vector<topo::AsId> providers = world.graph().providers(origin);
  std::sort(providers.begin(), providers.end());
  const topo::AsId avoid = world.topology().transit().front();
  bgp::OriginPolicy pol;
  pol.default_path = bgp::PathRef(bgp::baseline_path(origin, 2));
  pol.per_neighbor[providers.front()] =
      bgp::PathRef(bgp::poisoned_path(origin, {avoid}, 3));
  pol.per_neighbor[providers.back()] = std::nullopt;
  pol.communities = {0x00010002u, 0x00030004u};
  pol.avoid_hint =
      bgp::AvoidHint{avoid, topo::AsLinkKey(avoid, providers.front())};
  world.engine().originate(origin, topo::AddressPlan::production_prefix(origin),
                           std::move(pol));
  world.engine().speaker(world.topology().stubs.back())
      .set_forced_egress(
          world.graph().providers(world.topology().stubs.back()).front());
  world.converge();
  util::BinWriter w;
  world.engine().serialize(w);
  return w.take();
}

TEST(GoldenCheckpointTest, RichEngineSnapshotIsPinned) {
  const std::string blob = rich_engine_blob();
  EXPECT_EQ(util::fnv1a(blob), kEngineBlobDigest) << "size " << blob.size();
}

}  // namespace
}  // namespace lg
