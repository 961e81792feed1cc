// Checkpoint/restore substrate:
//  * util/codec: fixed-width little-endian round-trips, bit-exact doubles,
//    loud failure on truncation and version drift;
//  * util: Rng and Scheduler state round-trips (restore refuses live events);
//  * fleet/checkpoint: metrics / span / trace registry round-trips restore
//    saved contents verbatim;
//  * bgp/snapshot: a quiesced engine re-serializes byte-identically after a
//    load into a fresh engine over the same topology;
//  * golden digests: the bytes of a service shard's checkpoint and of an
//    engine snapshot that fills every optional field are pinned, so a codec
//    change that alters the format fails here, not in a restore diff.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "bgp/types.h"
#include "faults/fault_plane.h"
#include "fleet/checkpoint.h"
#include "fleet/service_plane.h"
#include "topology/addressing.h"
#include "util/codec.h"
#include "util/hashing.h"
#include "util/rng.h"
#include "util/scheduler.h"
#include "workload/sim_world.h"

namespace lg {
namespace {

// ------------------------------------------------------------------ codec

TEST(CodecTest, RoundTripsEveryScalarType) {
  util::BinWriter w;
  w.magic(0x54534554u, 3);
  w.u8(0xab);
  w.b(true);
  w.b(false);
  w.u32(0xdeadbeefu);
  w.u64(0x0123456789abcdefULL);
  w.i64(-42);
  w.f64(-0.1);
  w.f64(std::numeric_limits<double>::infinity());
  w.str("hello\0world");  // embedded NUL truncates at the literal, fine
  w.vec(std::vector<std::uint32_t>{1, 2, 3}, 4,
        [&](std::uint32_t v) { w.u32(v); });
  w.opt(std::optional<double>{2.5}, [&](double v) { w.f64(v); });
  w.opt(std::optional<double>{}, [&](double v) { w.f64(v); });

  const std::string blob = w.take();
  util::BinReader r(blob);
  r.magic(0x54534554u, 3);
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_TRUE(r.b());
  EXPECT_FALSE(r.b());
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_DOUBLE_EQ(r.f64(), -0.1);
  EXPECT_TRUE(std::isinf(r.f64()));
  EXPECT_EQ(r.str(), "hello");
  std::vector<std::uint32_t> v;
  r.vec(v, 4, [&](std::uint32_t& x) { r.u32(x); });
  EXPECT_EQ(v, (std::vector<std::uint32_t>{1, 2, 3}));
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
  w.u64(7);
  const std::string blob = w.take();

  util::BinReader wrong_tag(blob);
  EXPECT_THROW(wrong_tag.magic(0x32474154u, 1), std::runtime_error);
  util::BinReader wrong_version(blob);
  EXPECT_THROW(wrong_version.magic(0x31474154u, 2), std::runtime_error);

  const std::string truncated = blob.substr(0, blob.size() - 4);
  util::BinReader r(truncated);
  r.magic(0x31474154u, 1);
  EXPECT_THROW(r.u64(), std::runtime_error);

  // A length prefix larger than the remaining blob must throw before any
  // allocation, not attempt an attacker-sized reserve.
  util::BinWriter w2;
  w2.u64(std::numeric_limits<std::uint64_t>::max());
  const std::string huge = w2.take();
  util::BinReader r2(huge);
  EXPECT_THROW(r2.str(), std::runtime_error);
}

// -------------------------------------------------------------------- rng

TEST(RngStateTest, RestoreContinuesIdenticalSequence) {
  util::Rng a(123, 456);
  (void)a.normal(0.0, 1.0);  // populate the cached-normal half
  const auto state = a.save_state();
  std::vector<double> expect;
  for (int i = 0; i < 8; ++i) expect.push_back(a.normal(0.0, 1.0));

  util::Rng b;  // different seed entirely; restore must overwrite all of it
  b.restore_state(state);
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
  const auto state = s.save_state();
  EXPECT_DOUBLE_EQ(state.now, 2.0);
  EXPECT_EQ(state.executed, 2u);

  util::Scheduler fresh;
  fresh.restore_state(state);
  EXPECT_DOUBLE_EQ(fresh.now(), 2.0);
  EXPECT_EQ(fresh.executed(), 2u);

  // Closures cannot be serialized: restoring over pending events would
  // silently drop them, so it must throw instead.
  util::Scheduler busy;
  busy.at(5.0, [] {});
  EXPECT_THROW(busy.restore_state(state), std::runtime_error);
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

  util::BinWriter w;
  fleet::serialize(w, reg);
  const std::string blob = w.take();

  // Restore targets a fresh registry (the service-plane restore path always
  // does); merge-into-nonempty is not part of the contract.
  obs::MetricsRegistry back;
  back.set_enabled(true);
  util::BinReader r(blob);
  fleet::serialize(r, back);

  EXPECT_EQ(back.counter("a.count").value(), 42u);
  EXPECT_DOUBLE_EQ(back.gauge("b.gauge").value(), 3.25);
  // Byte-level check: re-saving the restored registry reproduces the blob
  // exactly (same names, same order, same bit patterns).
  util::BinWriter w2;
  fleet::serialize(w2, back);
  EXPECT_EQ(blob, w2.blob());
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

  util::BinWriter w;
  fleet::serialize(w, reg);
  const std::string blob = w.take();

  obs::SpanRegistry back;
  util::BinReader r(blob);
  fleet::serialize(r, back);
  ASSERT_EQ(back.records().size(), reg.records().size());

  util::BinWriter w2;
  fleet::serialize(w2, back);
  EXPECT_EQ(blob, w2.blob());

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
  util::BinWriter w;
  fleet::serialize(w, ring);
  const std::string blob = w.take();

  obs::TraceRing back(8);
  back.set_enabled(true);
  util::BinReader r(blob);
  fleet::serialize(r, back);
  EXPECT_EQ(back.recorded(), ring.recorded());
  EXPECT_EQ(back.dropped(), ring.dropped());
  const auto a = ring.events();
  const auto b = back.events();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].t, b[i].t);
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].a, b[i].a);
  }
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
  util::BinReader r(blob);
  fresh.engine().serialize(r);

  util::BinWriter w2;
  fresh.engine().serialize(w2);
  EXPECT_EQ(blob, w2.blob()) << "snapshot does not round-trip bit-exactly";
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

// Version 2 engine blobs carried per-(session, prefix) sequence counters;
// this build reads version 3 only and says so.
TEST(EngineSnapshotTest, RejectsVersionTwoEngineBlob) {
  const topo::AsGraph chain = chain_graph();
  util::Scheduler sched;
  bgp::BgpEngine engine(chain, sched, bgp::EngineConfig{});
  util::BinWriter w;
  engine.serialize(w);
  std::string blob = w.take();
  // The section opens with its tag, then its version as a little-endian u32.
  ASSERT_EQ(static_cast<unsigned char>(blob[4]), 3u);
  blob[4] = 2;
  EXPECT_NE(load_error(engine, blob).find("section version 2"),
            std::string::npos);
}

// ---------------------------------------------------------- golden bytes

// FNV-1a digests of checkpoint blobs as the format stands. Tags, versions
// and field order are all part of the canon: existing checkpoints must keep
// loading, so a change here is a format change.
constexpr std::uint64_t kShardBlobDigest = 0x50496ed9551a177dULL;
constexpr std::uint64_t kEngineBlobDigest = 0x5fc5ef7a607bf977ULL;

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
