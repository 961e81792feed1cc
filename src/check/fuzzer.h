// lg::check — seed-driven scenario fuzzer.
//
// One scenario = one 64-bit seed. The seed deterministically derives a small
// random topology, per-AS policy knobs (loop thresholds, community
// stripping, Cogent-style peer filters, default routes, and — when the
// adversary dimension is on — path-length and Peerlock import filters from
// a seed-derived lg::adversary plane), and an event script
// of originates / withdraws / poisons / prepends / selective announcements /
// flaps — optionally executed under an lg::faults plane, so update loss,
// delay, and session resets churn the control plane while it converges.
//
// At quiescence the scenario is judged three ways:
//  1. differential — every (AS, prefix) best route must match the naive
//     synchronous ReferenceBgp fixpoint for the surviving policies;
//  2. invariants — the full InvariantChecker audit must be clean;
//  3. idempotence — re-running the export step (BgpEngine::reexport_all)
//     must send zero messages.
//
// A failing seed reproduces exactly: harnesses print the seed as a
// LG_CHECK_SEED=<n> line, and tests/test_check replays that environment
// variable before running its sweep (see docs/OPERATORS.md).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "check/invariants.h"

namespace lg::check {

struct ScenarioOptions {
  std::uint64_t seed = 1;
  // > 0 runs the scenario under faults::FaultConfig::at_intensity(f) with a
  // seed-derived fault seed; 0 keeps the control plane clean.
  double fault_intensity = 0.0;
  // Upper bound on extra script events per origin (past the initial
  // originate).
  std::size_t max_events_per_origin = 4;
  // > 0 scopes an lg::adversary plane at that prevalence with a
  // seed-derived adversary seed: path-length filters and Peerlock apply to
  // both the engine and the reference, which must still agree exactly.
  // 0 keeps the scenario's RNG stream identical to pre-adversary builds.
  double adversary_prevalence = 0.0;
};

struct ScenarioResult {
  std::uint64_t seed = 0;
  std::size_t ases = 0;
  std::size_t events = 0;
  bool engine_quiesced = false;     // scheduler drained within the time cap
  bool reference_converged = false; // ReferenceBgp::solve stabilized
  std::size_t mismatches = 0;       // differential best-route disagreements
  std::string first_mismatch;
  std::vector<Violation> violations;
  std::uint64_t reexport_messages = 0;  // must be 0 at a true fixpoint
  std::uint64_t faults_injected = 0;    // plane verdicts that perturbed the run
  std::uint64_t updates_held = 0;       // sends held back to keep order

  bool ok() const {
    return engine_quiesced && reference_converged && mismatches == 0 &&
           violations.empty() && reexport_messages == 0;
  }
  // One-line judgment for logs.
  std::string summary() const;
};

// Builds, runs, and judges the scenario for `opt.seed`. Deterministic: the
// same options always produce the same result.
ScenarioResult run_scenario(const ScenarioOptions& opt);

struct SweepSummary {
  std::size_t runs = 0;
  std::vector<std::uint64_t> failing_seeds;
  bool ok() const { return failing_seeds.empty(); }
};

// Runs seeds [first_seed, first_seed + count) at the given fault intensity.
// When log_failures is set, each failing seed prints a replayable
// "LG_CHECK_SEED=<seed>" line to stderr. `adversary_prevalence` is
// forwarded to every scenario's adversary plane (0 = no plane).
SweepSummary run_sweep(std::uint64_t first_seed, std::size_t count,
                       double fault_intensity = 0.0,
                       bool log_failures = true,
                       double adversary_prevalence = 0.0);

// The LG_CHECK_SEED environment variable, if set: the seed a previous
// failing run asked to have replayed.
std::optional<std::uint64_t> replay_seed_from_env();

}  // namespace lg::check
