// The destabilizing announcer's play-book: deterministic strategic
// announce/withdraw sequences in the style of Lychev et al.'s partial-
// deployment attacks — an edge AS alternately advertising (with a varying
// prepend count, so successive announcements are distinct paths and force
// re-exploration) and withdrawing its prefix, keeping neighbors' MRAI
// queues and damping penalties churning.
//
// Only the *schedule* lives here, as a pure function of (seed, AS id,
// knobs): the adversary layer sits below lg_bgp and lg_workload, so the
// driver that maps steps onto a live engine is workload::DestabilizerWorkload
// (src/workload/destabilizer.h). Every schedule is finite (max_cycles),
// which is what keeps trials quiescent: the benches run with route-flap
// damping off. Receivers that do enable damping (tests/test_adversary.cc)
// also suppress the flapping session once its penalty crosses the
// threshold.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "topology/as_graph.h"

namespace lg::adversary {

struct DestabilizerConfig {
  // Mean half-cycle between actions; each step's gap is a hashed value in
  // [mean * (1 - jitter_frac), mean * (1 + jitter_frac)].
  double mean_period_seconds = 90.0;
  double jitter_frac = 0.5;
  // Announce/withdraw pairs per destabilizer. Finite by design so every
  // trial still quiesces.
  std::size_t max_cycles = 6;
  // Prepend count cycles through [0, prepend_variants) across successive
  // announcements, making each announcement a *different* path (a plain
  // re-announcement of an identical path is a no-op to the engine's
  // Adj-RIB-Out diffing and would destabilize nothing).
  std::size_t prepend_variants = 3;
};

enum class StepKind : std::uint8_t { kAnnounce, kWithdraw };

struct Step {
  double at = 0.0;  // seconds after the workload starts
  StepKind kind = StepKind::kAnnounce;
  // Extra self-prepends for a kAnnounce (origin path = 1 + prepends hops).
  std::size_t prepends = 0;
};

// The full finite schedule for one destabilizer, a pure function of its
// inputs: 2 * max_cycles steps, strictly increasing times, alternating
// announce/withdraw starting with an announce.
std::vector<Step> destabilizer_schedule(std::uint64_t seed, topo::AsId as,
                                        const DestabilizerConfig& cfg);

}  // namespace lg::adversary
