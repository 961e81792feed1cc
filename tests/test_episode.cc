// core::EpisodeMachine — the one episode lifecycle every driver records
// through:
//  * holddown escalation: doubling per flap, shift and ceiling clamps;
//  * transitions: open/move/close bookkeeping, outcome counts, flap
//    re-entries, released record storage reused by the next episode;
//  * the stall watchdog flags a parked episode once per residency;
//  * the checkpoint layout round-trips and rejects corrupt bytes.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "core/episode.h"
#include "obs/metrics.h"
#include "util/codec.h"

namespace lg {
namespace {

using core::EpisodeMachine;
using core::EpisodeOutcome;
using core::EpisodeState;
using core::EpisodeTiming;

TEST(EpisodeMachineTest, HolddownDurationShiftAndClampEdges) {
  EpisodeTiming t;
  t.holddown_seconds = 10.0;
  t.holddown_max_seconds = 1e9;  // effectively uncapped for the shifts
  EXPECT_DOUBLE_EQ(t.holddown(0), 10.0);
  EXPECT_DOUBLE_EQ(t.holddown(1), 20.0);
  EXPECT_DOUBLE_EQ(t.holddown(10), 10.0 * 1024.0);
  // Shift clamps at 10: deeper flap generations cannot overflow the
  // multiplier, they saturate at 2^10.
  EXPECT_DOUBLE_EQ(t.holddown(11), t.holddown(10));
  EXPECT_DOUBLE_EQ(t.holddown(1000), t.holddown(10));
  // Negative flap counts clamp to the base duration.
  EXPECT_DOUBLE_EQ(t.holddown(-7), 10.0);
  // The configured ceiling saturates the escalation.
  t.holddown_max_seconds = 55.0;
  EXPECT_DOUBLE_EQ(t.holddown(0), 10.0);
  EXPECT_DOUBLE_EQ(t.holddown(2), 40.0);
  EXPECT_DOUBLE_EQ(t.holddown(3), 55.0);
  EXPECT_DOUBLE_EQ(t.holddown(10), 55.0);
}

// ------------------------------------------------------------ transitions

EpisodeTiming fleet_timing() {
  EpisodeTiming t;
  t.holddown_seconds = 600.0;
  t.holddown_max_seconds = 3600.0;
  t.flap_window_seconds = 1800.0;
  return t;
}

TEST(EpisodeMachineTest, OneEpisodeFromSuspectToHolddown) {
  obs::MetricsRegistry reg;
  obs::ScopedMetricsRegistry scope(reg);
  EpisodeMachine m(fleet_timing());
  ASSERT_EQ(m.add(0x0a000001, 7), 0u);
  ASSERT_EQ(m.add(0x0a000002, 8), 1u);

  m.move(0, EpisodeState::kSuspect, 60.0);
  EXPECT_FALSE(m.is_open(0));
  core::EpisodeRecord& rec = m.open(0, 120.0, 60.0);
  EXPECT_TRUE(m.is_open(0));
  EXPECT_EQ(rec.target, 0x0a000001u);
  EXPECT_EQ(rec.target_as, 7u);
  EXPECT_DOUBLE_EQ(rec.opened_at, 60.0);
  EXPECT_DOUBLE_EQ(rec.detected_at, 120.0);
  EXPECT_EQ(rec.flap_generation, 0);

  m.defer_probe(0, 150.0);
  m.move(0, EpisodeState::kIsolate, 180.0);
  m.move(0, EpisodeState::kRemediate, 250.0);
  m.defer_budget(0, 280.0);
  m.remediated(0, 310.0);
  EXPECT_EQ(m.state(0), EpisodeState::kVerify);
  m.fail_back(0, 400.0);
  EXPECT_EQ(m.state(0), EpisodeState::kIsolate);
  m.move(0, EpisodeState::kRemediate, 450.0);
  m.remediated(0, 450.0);  // a second remediation keeps the first stamp
  m.repaired(0, 900.0);
  m.close(0, 900.0, EpisodeOutcome::kRemediated, /*holddown=*/true);

  const core::EpisodeRecord& done = m.records().front();
  EXPECT_EQ(done.outcome, EpisodeOutcome::kRemediated);
  EXPECT_DOUBLE_EQ(done.remediated_at, 310.0);
  EXPECT_DOUBLE_EQ(done.repaired_at, 900.0);
  EXPECT_DOUBLE_EQ(done.closed_at, 900.0);
  EXPECT_EQ(done.probe_deferrals, 1);
  EXPECT_EQ(done.budget_deferrals, 1);
  EXPECT_EQ(done.reisolations, 1);
  EXPECT_FALSE(m.is_open(0));
  EXPECT_EQ(m.state(0), EpisodeState::kHolddown);
  EXPECT_TRUE(m.holding_down(0, 1499.0));
  EXPECT_FALSE(m.holding_down(0, 1500.0));
  EXPECT_EQ(m.state(1), EpisodeState::kMonitor);

  EXPECT_EQ(m.opened(), 1u);
  EXPECT_EQ(m.closed(), 1u);
  EXPECT_EQ(m.open_count(), 0u);
  EXPECT_EQ(m.outcomes()[static_cast<std::size_t>(EpisodeOutcome::kRemediated)],
            1u);
  EXPECT_EQ(reg.counter("lg.episode.opened").value(), 1u);
  EXPECT_EQ(reg.counter("lg.episode.remediated").value(), 1u);
  EXPECT_EQ(reg.counter("lg.episode.probe_deferrals").value(), 1u);
  EXPECT_EQ(reg.counter("lg.episode.budget_deferrals").value(), 1u);
  EXPECT_EQ(reg.counter("lg.episode.failbacks").value(), 1u);
  EXPECT_EQ(reg.distribution("lg.episode.time_to_remediate").summary().count(),
            1u);
  EXPECT_DOUBLE_EQ(
      reg.distribution("lg.episode.time_to_repair").summary().mean(), 780.0);
}

TEST(EpisodeMachineTest, ReopeningInsideTheFlapWindowEscalatesHolddown) {
  obs::MetricsRegistry reg;
  obs::ScopedMetricsRegistry scope(reg);
  EpisodeMachine m(fleet_timing());
  m.add(0x0a000001, 7);
  m.open(0, 100.0, 40.0);
  m.close(0, 200.0, EpisodeOutcome::kVerifyTimeout, /*holddown=*/true);
  EXPECT_TRUE(m.holding_down(0, 799.0));
  m.move(0, EpisodeState::kMonitor, 800.0);

  // Inside the window: a flap re-entry, and a doubled holddown after it.
  EXPECT_EQ(m.open(0, 1000.0, 940.0).flap_generation, 1);
  m.close(0, 1100.0, EpisodeOutcome::kVerifyTimeout, /*holddown=*/true);
  EXPECT_TRUE(m.holding_down(0, 2299.0));
  EXPECT_FALSE(m.holding_down(0, 2300.0));
  m.move(0, EpisodeState::kMonitor, 2300.0);

  // Past the window the count starts over; declined closes skip holddown.
  EXPECT_EQ(m.open(0, 5000.0, 4940.0).flap_generation, 0);
  m.close(0, 5100.0, EpisodeOutcome::kNoBlame, /*holddown=*/false);
  EXPECT_EQ(m.state(0), EpisodeState::kMonitor);
  EXPECT_EQ(m.flap_reentries(), 1u);
  EXPECT_EQ(reg.counter("lg.episode.flap_reentries").value(), 1u);
  // kNoBlame counts as declined.
  EXPECT_EQ(reg.counter("lg.episode.declined").value(), 1u);
  EXPECT_EQ(m.records().size(), 3u);
}

TEST(EpisodeMachineTest, ReleasedRecordStorageIsReused) {
  EpisodeMachine m(fleet_timing());
  m.add(0x0a000001, 7);
  m.add(0x0a000002, 8);
  m.open(0, 100.0, 100.0);
  m.open(1, 100.0, 100.0);
  m.close(0, 200.0, EpisodeOutcome::kResolvedSelf, /*holddown=*/true);
  m.release(0);
  m.record(1).note = "still open";
  m.open(0, 900.0, 900.0);
  EXPECT_EQ(m.records().size(), 2u) << "the released record was not reused";
  EXPECT_EQ(m.record(0).outcome, EpisodeOutcome::kOpen);
  EXPECT_DOUBLE_EQ(m.record(0).detected_at, 900.0);
  EXPECT_EQ(m.record(1).note, "still open");
}

TEST(EpisodeMachineTest, StallWatchdogFlagsOncePerResidency) {
  obs::MetricsRegistry reg;
  obs::ScopedMetricsRegistry scope(reg);
  EpisodeMachine m(fleet_timing());
  m.add(0x0a000001, 7);
  m.open(0, 0.0, 0.0);
  m.move(0, EpisodeState::kVerify, 0.0);
  m.watch(0, 1800.0);  // not yet past the threshold
  EXPECT_EQ(reg.counter("lg.episode.stalled").value(), 0u);
  m.watch(0, 1830.0);
  m.watch(0, 3600.0);
  EXPECT_EQ(reg.counter("lg.episode.stalled").value(), 1u);
  // A new residency re-arms the watchdog; HOLDDOWN never stalls.
  m.move(0, EpisodeState::kIsolate, 3600.0);
  m.watch(0, 5430.0);
  EXPECT_EQ(reg.counter("lg.episode.stalled").value(), 2u);
  m.close(0, 5430.0, EpisodeOutcome::kVerifyTimeout, /*holddown=*/true);
  m.watch(0, 9000.0);
  EXPECT_EQ(reg.counter("lg.episode.stalled").value(), 2u);
}

// -------------------------------------------------------------- checkpoint

// Two slots: slot 0 idle in MONITOR, slot 1 with an open episode in VERIFY.
EpisodeMachine checkpointed_machine() {
  EpisodeMachine m(fleet_timing());
  m.add(0x0a000001, 7);
  m.add(0x0a000002, 8);
  m.move(1, EpisodeState::kSuspect, 30.0);
  core::EpisodeRecord& rec = m.open(1, 90.0, 30.0);
  rec.blamed = 42;
  rec.action = core::RepairAction::kPoison;
  m.defer_probe(1, 100.0);
  m.remediated(1, 300.0);
  return m;
}

std::string save(const EpisodeMachine& m) {
  util::BinWriter w;
  EpisodeMachine::layout(w, m);
  return w.take();
}

// Offset of slot 0's state byte: tag and version, then three counters,
// seven outcome counts and the slot count, each below 128 and so one varint
// byte.
constexpr std::size_t kFirstStateByte = 8 + 3 + 7 + 1;

std::string load_error(std::string blob) {
  EpisodeMachine fresh(fleet_timing());
  fresh.add(0x0a000001, 7);
  fresh.add(0x0a000002, 8);
  util::BinReader r(blob);
  try {
    EpisodeMachine::layout(r, fresh);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return {};
}

TEST(EpisodeMachineTest, LayoutRoundTripsOpenEpisodes) {
  const EpisodeMachine m = checkpointed_machine();
  const std::string blob = save(m);
  ASSERT_EQ(static_cast<int>(blob[kFirstStateByte]),
            static_cast<int>(EpisodeState::kMonitor));

  EpisodeMachine loaded(fleet_timing());
  loaded.add(0x0a000001, 7);
  loaded.add(0x0a000002, 8);
  util::BinReader r(blob);
  EpisodeMachine::layout(r, loaded);
  EXPECT_EQ(save(loaded), blob);
  EXPECT_EQ(loaded.open_count(), 1u);
  EXPECT_EQ(loaded.state(1), EpisodeState::kVerify);
  ASSERT_TRUE(loaded.is_open(1));
  EXPECT_EQ(loaded.record(1).target, 0x0a000002u);
  EXPECT_EQ(loaded.record(1).blamed, 42u);
  EXPECT_EQ(loaded.record(1).action, core::RepairAction::kPoison);
  EXPECT_EQ(loaded.record(1).probe_deferrals, 1);
  EXPECT_DOUBLE_EQ(loaded.record(1).remediated_at, 300.0);
}

TEST(EpisodeMachineTest, LayoutRejectsOutOfRangeStateByte) {
  std::string blob = save(checkpointed_machine());
  blob[kFirstStateByte] = 9;
  EXPECT_NE(load_error(blob).find("episode state byte 9"), std::string::npos);
}

TEST(EpisodeMachineTest, LayoutRejectsStateWithoutItsOpenEpisode) {
  std::string blob = save(checkpointed_machine());
  // Slot 0 holds no episode; claiming ISOLATE for it must fail.
  blob[kFirstStateByte] = static_cast<char>(EpisodeState::kIsolate);
  EXPECT_NE(load_error(blob).find("has no open episode"), std::string::npos);
}

TEST(EpisodeMachineTest, LayoutRejectsDisagreeingOpenCount) {
  std::string blob = save(checkpointed_machine());
  blob[blob.size() - 1] = 3;  // the trailing open-episode count
  EXPECT_NE(load_error(blob).find("open-episode count 3"), std::string::npos);
}

}  // namespace
}  // namespace lg
