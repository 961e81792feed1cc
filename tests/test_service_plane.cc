// The multi-prefix service plane (fleet/service_plane.h) and its streaming
// workload (workload/outage_stream.h):
//  * OutageStream — determinism per seed, peek stability, save/load
//    continuation, silent-stream semantics;
//  * TargetTable's serviced-prefix universe — dense disjoint keys;
//  * run_service_shard — same (config, shard, seed) means an identical
//    report, different seeds diverge;
//  * checkpoint/restore — an interrupted shard resumed from its blob
//    finishes with exactly the state an uninterrupted run reaches.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "fleet/service_plane.h"
#include "fleet/target_table.h"
#include "util/codec.h"
#include "util/hashing.h"
#include "workload/outage_stream.h"

namespace lg {
namespace {

// ----------------------------------------------------------- outage stream

workload::OutageStreamConfig stream_config(std::uint64_t seed) {
  workload::OutageStreamConfig cfg;
  cfg.rate_per_hour = 60.0;
  cfg.duration_cap_seconds = 900.0;
  cfg.seed = seed;
  return cfg;
}

TEST(OutageStreamTest, DeterministicPerSeedAndPeekStable) {
  workload::OutageStream a(stream_config(11));
  workload::OutageStream b(stream_config(11));
  for (int i = 0; i < 32; ++i) {
    // Peeking must not advance the process, however often we do it.
    const double peek = a.next_start();
    EXPECT_EQ(a.next_start(), peek);
    const auto ea = a.next();
    const auto eb = b.next();
    EXPECT_EQ(ea.start_seconds, peek);
    EXPECT_EQ(ea.start_seconds, eb.start_seconds);
    EXPECT_EQ(ea.duration_seconds, eb.duration_seconds);
    EXPECT_GT(ea.duration_seconds, 0.0);
    EXPECT_LE(ea.duration_seconds, 900.0);
  }
  EXPECT_EQ(a.generated(), 32u);

  workload::OutageStream c(stream_config(12));
  bool diverged = false;
  workload::OutageStream a2(stream_config(11));
  for (int i = 0; i < 32 && !diverged; ++i) {
    diverged = c.next().start_seconds != a2.next().start_seconds;
  }
  EXPECT_TRUE(diverged) << "different seeds produced the same arrivals";
}

TEST(OutageStreamTest, ArrivalsAreMonotoneAndRateShaped) {
  workload::OutageStream s(stream_config(3));
  double prev = 0.0;
  double last = 0.0;
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    const auto e = s.next();
    EXPECT_GE(e.start_seconds, prev);
    prev = e.start_seconds;
    last = e.start_seconds;
  }
  // 60/h over 2000 arrivals ≈ 2000 minutes; allow a wide stochastic band.
  const double hours = last / 3600.0;
  EXPECT_GT(n / hours, 40.0);
  EXPECT_LT(n / hours, 90.0);
}

TEST(OutageStreamTest, SaveLoadContinuesTheSameSequence) {
  workload::OutageStream s(stream_config(21));
  for (int i = 0; i < 10; ++i) (void)s.next();
  (void)s.next_start();  // checkpoint with a pending arrival outstanding

  util::BinWriter w;
  s.serialize(w);
  const std::string blob = w.take();

  std::vector<workload::OutageEvent> expect;
  for (int i = 0; i < 16; ++i) expect.push_back(s.next());

  workload::OutageStream restored(stream_config(21));
  util::BinReader r(blob);
  restored.serialize(r);
  EXPECT_EQ(restored.generated(), 11u);  // 10 consumed + 1 pending
  for (int i = 0; i < 16; ++i) {
    const auto e = restored.next();
    EXPECT_EQ(e.start_seconds, expect[i].start_seconds);
    EXPECT_EQ(e.duration_seconds, expect[i].duration_seconds);
  }
}

TEST(OutageStreamTest, ZeroRateStreamIsSilent) {
  workload::OutageStreamConfig cfg = stream_config(1);
  cfg.rate_per_hour = 0.0;
  workload::OutageStream s(cfg);
  EXPECT_TRUE(std::isinf(s.next_start()));
  EXPECT_EQ(s.generated(), 0u);
}

// The default stream (24/h, one-hour cap) at a fixed seed, pinned bit for
// bit: its durations, cap and RNG stream are the fleet's and service
// plane's outage workload.
TEST(OutageStreamTest, DefaultStreamIsPinned) {
  workload::OutageStreamConfig cfg;
  cfg.seed = 42;
  workload::OutageStream s(cfg);
  util::Fnv1a h;
  for (int i = 0; i < 512; ++i) {
    const auto e = s.next();
    h.f64(e.start_seconds);
    h.f64(e.duration_seconds);
  }
  EXPECT_EQ(h.state, 0x8b1ab75aa6dbe123ULL);
}

// --------------------------------------------------- serviced-prefix universe

TEST(TargetTableTest, ShardUniverseKeysAreDenseAndDisjoint) {
  const std::size_t total = 1000, shards = 16, clients = 64;
  fleet::TargetTable table(total, shards);
  std::set<std::uint32_t> seen;
  std::size_t count = 0;
  for (std::size_t s = 0; s < shards; ++s) {
    const auto universe = table.shard_universe(s, clients);
    EXPECT_EQ(universe.size(), table.shard_quota(s));
    EXPECT_EQ(universe.front().key, table.shard_start(s));
    for (const auto& sp : universe) {
      EXPECT_TRUE(seen.insert(sp.key).second) << "duplicate key " << sp.key;
      EXPECT_LT(sp.client, clients);
      ++count;
    }
  }
  EXPECT_EQ(count, total);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), static_cast<std::uint32_t>(total - 1));
}

// ------------------------------------------------------------ service shard

fleet::ServiceConfig small_service_config() {
  fleet::ServiceConfig cfg;
  cfg.prefixes = 64;
  cfg.clients = 32;
  cfg.shards = 4;
  cfg.horizon_seconds = 1800.0;
  cfg.warmup_seconds = 120.0;
  cfg.drain_cap_seconds = 3600.0;
  cfg.outages_per_hour = 96.0;  // fleet-wide; /4 shards keeps shards busy
  cfg.shard_topology.num_tier1 = 3;
  cfg.shard_topology.num_large_transit = 6;
  cfg.shard_topology.num_small_transit = 12;
  cfg.shard_topology.num_stubs = 40;
  return cfg;
}

std::string report_digest(const fleet::ServiceShardReport& r) {
  fleet::ServiceResult one;
  one.shards.push_back(r);
  return one.fingerprint();
}

TEST(ServicePlaneTest, ShardRunIsDeterministicPerSeed) {
  const fleet::ServiceConfig cfg = small_service_config();
  const auto a = fleet::run_service_shard(cfg, 0, 77);
  const auto b = fleet::run_service_shard(cfg, 0, 77);
  EXPECT_EQ(report_digest(a), report_digest(b));
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.ticks, b.ticks);
  EXPECT_GT(a.outages_injected, 0u);
  EXPECT_GT(a.episodes_opened, 0u);
  EXPECT_EQ(a.episodes_opened, a.episodes_closed);
  EXPECT_EQ(a.open_at_end, 0u);

  const auto c = fleet::run_service_shard(cfg, 0, 78);
  EXPECT_NE(report_digest(a), report_digest(c))
      << "different seeds produced identical shard behaviour";
}

TEST(ServicePlaneTest, EveryClosedEpisodeHasConsistentTimestamps) {
  const fleet::ServiceConfig cfg = small_service_config();
  const auto r = fleet::run_service_shard(cfg, 1, 5);
  ASSERT_FALSE(r.records.empty());
  for (const auto& rec : r.records) {
    EXPECT_GE(rec.opened_at, cfg.warmup_seconds);
    EXPECT_GE(rec.closed_at, rec.opened_at);
    EXPECT_LT(rec.key, cfg.prefixes);
    if (rec.outcome == fleet::EpisodeOutcome::kRemediated) {
      EXPECT_GE(rec.remediated_at, rec.opened_at);
      EXPECT_GE(rec.slot, 0);
      EXPECT_NE(rec.blamed, topo::kInvalidAs);
    }
  }
  EXPECT_GE(r.announce_utilization, 0.0);
  EXPECT_LE(r.announce_utilization, 1.0);
}

TEST(ServicePlaneTest, CheckpointRestoreMatchesUninterruptedRun) {
  const fleet::ServiceConfig cfg = small_service_config();
  const std::uint64_t seed = 91;

  const auto full = fleet::run_service_shard(cfg, 2, seed);

  fleet::ServiceRun checkpoint;
  checkpoint.checkpoint_at = 900.0;  // mid-stream, episodes in flight
  const auto half = fleet::run_service_shard(cfg, 2, seed, checkpoint);
  ASSERT_FALSE(half.checkpoint.empty());
  EXPECT_LT(half.ticks, full.ticks);

  fleet::ServiceRun resume;
  resume.restore_blob = &half.checkpoint;
  const auto resumed = fleet::run_service_shard(cfg, 2, seed, resume);

  EXPECT_EQ(resumed.fingerprint, full.fingerprint);
  EXPECT_EQ(resumed.ticks, full.ticks);
  EXPECT_EQ(resumed.outages_injected, full.outages_injected);
  EXPECT_EQ(resumed.episodes_opened, full.episodes_opened);
  EXPECT_EQ(resumed.outcomes, full.outcomes);
  EXPECT_EQ(resumed.announce_spent, full.announce_spent);
  EXPECT_EQ(resumed.slot_leases, full.slot_leases);
  EXPECT_EQ(report_digest(resumed), report_digest(full));
}

// Golden FNV-1a digest of the small config's ServiceResult fingerprint:
// per-shard counters, outcome counts, the rolling record FNV and every
// ring record. The uninterrupted run and the run resumed from a mid-stream
// checkpoint must both match it.
constexpr std::uint64_t kSmallServiceDigest = 0x5429f717a3d73380ULL;

TEST(ServicePlaneTest, SmallConfigFingerprintIsPinned) {
  const fleet::ServiceConfig cfg = small_service_config();
  const fleet::ServiceResult full = fleet::ServiceScheduler(cfg).run();
  EXPECT_EQ(util::fnv1a(full.fingerprint()), kSmallServiceDigest)
      << full.fingerprint();

  fleet::ServiceScheduler scheduler(cfg);
  const fleet::ServiceResult half = scheduler.run_until(900.0);
  std::vector<std::string> blobs;
  for (const auto& shard : half.shards) blobs.push_back(shard.checkpoint);
  const fleet::ServiceResult resumed = scheduler.resume(blobs);
  EXPECT_EQ(util::fnv1a(resumed.fingerprint()), kSmallServiceDigest)
      << resumed.fingerprint();
}

TEST(ServicePlaneTest, RestoreRejectsBlobFromDifferentShard) {
  const fleet::ServiceConfig cfg = small_service_config();
  fleet::ServiceRun checkpoint;
  checkpoint.checkpoint_at = 600.0;
  const auto half = fleet::run_service_shard(cfg, 0, 13, checkpoint);
  ASSERT_FALSE(half.checkpoint.empty());

  fleet::ServiceRun resume;
  resume.restore_blob = &half.checkpoint;
  EXPECT_THROW(fleet::run_service_shard(cfg, 1, 13, resume),
               std::runtime_error);
}

TEST(ServicePlaneTest, RestoreRejectsSlotBeyondConfiguredCount) {
  // Busy enough that two slots are leased at the checkpoint.
  fleet::ServiceConfig cfg = small_service_config();
  cfg.outages_per_hour = 480.0;
  cfg.announce_per_hour = 600.0;
  fleet::ServiceRun checkpoint;
  checkpoint.checkpoint_at = 900.0;
  const auto half = fleet::run_service_shard(cfg, 0, 91, checkpoint);
  ASSERT_FALSE(half.checkpoint.empty());

  fleet::ServiceConfig one_slot = cfg;
  one_slot.slots = 1;
  fleet::ServiceRun resume;
  resume.restore_blob = &half.checkpoint;
  try {
    fleet::run_service_shard(one_slot, 0, 91, resume);
    ADD_FAILURE() << "restore accepted a slot beyond the configured count";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("holds slot 1"), std::string::npos)
        << e.what();
  }
}

// Regression: restore used to cast any byte into a per-prefix state. A
// busy shard checkpointed with 16 state bytes set to 9 resumed with 2
// episodes stuck open and ticked until the drain cap. The episode machine's
// section now rejects the byte.
TEST(ServicePlaneTest, RestoreRejectsCorruptEpisodeStateByte) {
  fleet::ServiceConfig cfg = small_service_config();
  cfg.outages_per_hour = 480.0;
  cfg.announce_per_hour = 600.0;
  fleet::ServiceRun checkpoint;
  checkpoint.checkpoint_at = 900.0;
  const auto half = fleet::run_service_shard(cfg, 0, 91, checkpoint);
  ASSERT_FALSE(half.checkpoint.empty());

  // The machine section opens with its tag and version ("EPSD", 2); slot
  // 0's state byte follows eleven varints: three counters, seven outcome
  // counts and the slot count.
  const std::string header("EPSD\x02\x00\x00\x00", 8);
  const std::size_t at = half.checkpoint.find(header);
  ASSERT_NE(at, std::string::npos);
  const std::string section = half.checkpoint.substr(at + 8);
  util::BinReader counters(section);
  for (int i = 0; i < 11; ++i) (void)counters.var();
  std::string blob = half.checkpoint;
  blob[at + 8 + section.size() - counters.remaining()] = 9;

  fleet::ServiceRun resume;
  resume.restore_blob = &blob;
  try {
    fleet::run_service_shard(cfg, 0, 91, resume);
    ADD_FAILURE() << "restore accepted an out-of-range episode state";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("episode state byte 9"),
              std::string::npos)
        << e.what();
  }
}

// A closed episode's slot is stored plus one (0 = never leased), and a
// value past the 15 slots a shard can hold is rejected. The record is found
// by its key, client, client AS, blamed AS and three timestamps; its
// outcome byte and its slot follow them.
TEST(ServicePlaneTest, RestoreRejectsRecordSlotPastShardSlots) {
  fleet::ServiceConfig cfg = small_service_config();
  cfg.outages_per_hour = 480.0;
  cfg.announce_per_hour = 600.0;
  fleet::ServiceRun checkpoint;
  checkpoint.checkpoint_at = 1200.0;  // two closed episodes have held slots
  const auto half = fleet::run_service_shard(cfg, 0, 91, checkpoint);
  const auto leased =
      std::find_if(half.records.begin(), half.records.end(),
                   [](const auto& rec) { return rec.slot >= 0; });
  ASSERT_NE(leased, half.records.end());
  util::BinWriter head;
  head.var(leased->key);
  head.var(leased->client);
  head.var(leased->client_as);
  head.var(leased->blamed);
  head.f64(leased->opened_at);
  head.f64(leased->remediated_at);
  head.f64(leased->closed_at);
  const std::size_t at = half.checkpoint.find(head.blob());
  ASSERT_NE(at, std::string::npos);
  ASSERT_EQ(at, half.checkpoint.rfind(head.blob()));
  const std::size_t slot_at = at + head.blob().size() + 1;
  ASSERT_EQ(half.checkpoint[slot_at], leased->slot + 1);

  std::string blob = half.checkpoint;
  fleet::ServiceRun resume;
  resume.restore_blob = &blob;
  blob[slot_at] = 16;
  try {
    fleet::run_service_shard(cfg, 0, 91, resume);
    ADD_FAILURE() << "restore accepted a record slot past the shard's 15";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(),
                 "service checkpoint: an episode record holds slot 15, past "
                 "the 15 a shard can hold");
  }
}

// The slot-owner table must mirror the prefixes' leases. It holds one
// varint per configured slot: the index of the prefix leasing it, or
// 0xffffffff (five bytes) when free. A blob that marked a held slot free
// used to load, so a second prefix could lease the slot and the first
// one's close withdrew the second's announcement. The table is found as
// the one run of a count byte equal to the slot count followed by that many
// owners, each free or a prefix of the shard, at least one leased; a run
// starting inside the one before it (a leased owner equal to the slot
// count) is not another table.
TEST(ServicePlaneTest, RestoreRejectsSlotOwnerThatDisagreesWithLeases) {
  fleet::ServiceConfig cfg = small_service_config();
  cfg.outages_per_hour = 480.0;
  cfg.announce_per_hour = 600.0;
  fleet::ServiceRun checkpoint;
  checkpoint.checkpoint_at = 900.0;  // two slots are leased
  const auto half = fleet::run_service_shard(cfg, 0, 91, checkpoint);
  const std::string& blob = half.checkpoint;
  constexpr std::uint64_t kFree = 0xffffffffu;
  struct Owner {
    std::size_t at = 0;
    std::size_t bytes = 0;
    std::uint64_t prefix = 0;
  };
  std::vector<std::size_t> tables;
  std::vector<Owner> owners;
  for (std::size_t at = 0; at < blob.size(); ++at) {
    if (static_cast<unsigned char>(blob[at]) != cfg.slots) continue;
    const std::string rest = blob.substr(at + 1, 5 * cfg.slots);
    util::BinReader r(rest);
    std::vector<Owner> table;
    try {
      for (std::size_t s = 0; s < cfg.slots; ++s) {
        const std::size_t start = rest.size() - r.remaining();
        const std::uint64_t prefix = r.var();
        if (prefix != kFree && prefix >= half.prefixes) break;
        table.push_back({at + 1 + start, rest.size() - r.remaining() - start,
                         prefix});
      }
    } catch (const std::runtime_error&) {
      continue;
    }
    const auto n_leased = std::count_if(
        table.begin(), table.end(),
        [&](const Owner& o) { return o.prefix != kFree; });
    if (table.size() == cfg.slots && n_leased != 0 &&
        n_leased != static_cast<std::ptrdiff_t>(cfg.slots)) {
      tables.push_back(at);
      owners = table;
      at = table.back().at + table.back().bytes - 1;
    }
  }
  ASSERT_EQ(tables.size(), 1u) << "the owner table is not unique";
  const auto leased = std::find_if(
      owners.begin(), owners.end(),
      [&](const Owner& o) { return o.prefix != kFree; });
  const auto unleased = std::find_if(
      owners.begin(), owners.end(),
      [&](const Owner& o) { return o.prefix == kFree; });
  const std::size_t leased_slot = leased - owners.begin();
  const std::size_t unleased_slot = unleased - owners.begin();
  ASSERT_EQ(leased->bytes, 1u);

  const auto load_error = [&](const std::string& bad) {
    fleet::ServiceRun resume;
    resume.restore_blob = &bad;
    try {
      fleet::run_service_shard(cfg, 0, 91, resume);
    } catch (const std::runtime_error& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  const auto rejects = [](std::size_t slot) {
    return "service checkpoint: slot " + std::to_string(slot) +
           "'s owner does not match the prefix leasing it";
  };
  // A leased slot marked free.
  std::string bad = blob;
  bad.replace(leased->at, leased->bytes, "\xff\xff\xff\xff\x0f");
  EXPECT_EQ(load_error(bad), rejects(leased_slot));
  // A leased slot owned by another prefix.
  bad = blob;
  bad[leased->at] = static_cast<char>((leased->prefix + 1) % half.prefixes);
  EXPECT_EQ(load_error(bad), rejects(leased_slot));
  // A free slot owned by the prefix leasing another one.
  bad = blob;
  bad.replace(unleased->at, unleased->bytes, 1,
              static_cast<char>(leased->prefix));
  EXPECT_EQ(load_error(bad), rejects(unleased_slot));
}

// Slots beyond 15 used to be cut silently.
TEST(ServiceConfigTest, RunRejectsConfigsItCannotRun) {
  const auto expect_rejected = [](const fleet::ServiceConfig& cfg,
                                  const char* field) {
    try {
      fleet::run_service_shard(cfg, 0, 7);
      ADD_FAILURE() << field << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << e.what();
    }
  };
  fleet::ServiceConfig cfg = small_service_config();
  cfg.slots = 16;
  expect_rejected(cfg, "ServiceConfig::slots");
}

}  // namespace
}  // namespace lg
