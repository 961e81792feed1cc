// lg::fleet — deterministic fan-out of the fleet over threads.
//
// The fleet is partitioned into a FIXED number of shards (FleetConfig::
// shards), each an independent simulated universe: its own SimWorld, its
// own EpisodeManager, its own slice of the monitored-target table and of
// the global budgets, all derived from run::trial_seed(base_seed, shard).
// Shards execute on lg::run::TrialRunner — the same discipline as every
// multi-trial bench — so results, merged metrics, and reports are
// byte-identical for any LG_THREADS; only wall-clock changes. The thread
// count never influences the partition: that is the shard count's job.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "fleet/episode_manager.h"
#include "topology/generator.h"

namespace lg::fleet {

struct FleetConfig {
  // Monitored destinations across the whole fleet.
  std::size_t targets = 1000;
  // Fixed shard count — the unit of determinism and parallelism.
  std::size_t shards = 16;
  // 0 = LG_THREADS / hardware (never affects output, only wall-clock).
  std::size_t threads = 0;
  std::uint64_t base_seed = 0x666c6565ULL;  // "flee"
  // Monitoring horizon in simulated seconds; in-flight episodes are allowed
  // to settle past it.
  double horizon_seconds = 2.0 * 3600.0;
  // Fleet-wide outage arrival rate (split over shards); durations follow
  // the EC2-calibrated mixture, truncated so a bounded run can settle.
  double outages_per_hour = 24.0;
  // Per-shard world size. Must hold enough responding routers for
  // targets/shards destinations.
  topo::TopologyParams shard_topology;
  EpisodeConfig episode;
};

struct ShardReport {
  std::size_t shard = 0;
  std::uint64_t seed = 0;
  AsId origin = topo::kInvalidAs;
  std::size_t targets = 0;
  std::size_t outages_injected = 0;
  std::vector<core::EpisodeRecord> episodes;
  // Budget accounting at end of run.
  double announce_spent = 0.0;
  double announce_capacity = 0.0;  // burst + rate * horizon: the hard cap
  std::uint64_t announce_granted = 0;
  std::uint64_t announce_denied = 0;
  std::uint64_t probe_admitted = 0;
  std::uint64_t probe_deferred = 0;
  std::uint64_t flap_reentries = 0;
  // Anything that failed to settle during the drain (should be zero).
  std::size_t open_at_end = 0;
  std::size_t poisons_at_end = 0;
};

struct FleetResult {
  FleetConfig config;
  std::vector<ShardReport> shards;

  std::size_t episodes_opened() const;
  std::size_t episodes_closed() const;
  std::size_t outcome_count(EpisodeOutcome o) const;
  std::size_t outages_injected() const;
  std::uint64_t flap_reentries() const;
  // detected_at -> remediated_at latencies of remediated episodes, sorted.
  std::vector<double> remediate_latencies() const;
  double announce_spent() const;
  double announce_capacity() const;
  std::uint64_t announce_denied() const;
  std::uint64_t probe_deferred() const;
  // Every shard within its announcement cap (the bench's acceptance
  // criterion: utilization can never exceed the configured bucket).
  bool budget_respected() const;
  // Closed episodes per simulated hour of monitoring horizon.
  double episodes_per_sim_hour() const;
  // Stable textual digest of every episode record — equal strings mean
  // byte-identical fleet behaviour (the determinism tests diff this).
  std::string fingerprint() const;
};

class FleetScheduler {
 public:
  explicit FleetScheduler(FleetConfig cfg);

  // Run every shard to quiescence and merge reports in shard order.
  FleetResult run();

  const FleetConfig& config() const noexcept { return cfg_; }

 private:
  FleetConfig cfg_;
};

// One shard, runnable directly (the fuzzer and unit tests drive a single
// shard without the runner). `seed` plays the role of trial_seed(base,
// shard). Metrics land in whatever registry is current.
ShardReport run_fleet_shard(const FleetConfig& cfg, std::size_t shard,
                            std::uint64_t seed);

}  // namespace lg::fleet
