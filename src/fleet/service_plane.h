// lg::fleet — the multi-prefix always-on service plane.
//
// The fleet's EpisodeManager multiplexes episodes onto the ONE production
// prefix its origin owns. A real deployment fronts an address portfolio: a
// provider is responsible for many customer prefixes, each with its own
// origin policy, each failing (and flapping, and healing) on its own clock.
// The service plane generalizes the fleet to that shape:
//
//  * a keyed universe of (prefix, origin-policy) pairs — ServicedPrefix —
//    partitioned over the same fixed shard count as the fleet (the shard
//    count, never the thread count, defines the partition);
//  * one core::EpisodeMachine slot per prefix (MONITOR → ISOLATE →
//    REMEDIATE → VERIFY → HOLDDOWN), on the fleet's holddown and flap
//    timing (fleet/episode_manager.h) and observed like every other
//    episode;
//  * a serviced prefix is its key (bookkeeping identity + policy), never
//    routed itself; real BGP work is leased through a small pool of
//    physical /28 remediation slots carved from the origin's production
//    /24, which stays announced with the baseline and therefore acts as
//    the covering sentinel (§3.1.2) for every leased slot — captive ASes
//    keep a route, and repairs on the original path stay observable;
//  * remediation is a *selective* announcement (§3.1.2 / Fig. 3): the slot
//    /28 withholds or poisons only via the implicated provider, everyone
//    else sees the baseline;
//  * the workload is a streaming, open-ended outage arrival process
//    (workload::OutageStream), not a pre-sampled trial script — most
//    episodes close kResolvedSelf waiting on the fleet-wide announcement
//    budget, which is exactly the paper's §5.4 pacing story;
//  * a shard checkpoints mid-stream — scheduler, BGP engine (SoA RIBs and
//    interned tables), per-prefix machines, budgets, RNGs, observability
//    registries — into a versioned binary blob, and a fresh process restores
//    it and continues byte-identically (stdout, BENCH_*.json, span trees,
//    any LG_THREADS).
//
// Memory discipline at 100k prefixes: per-prefix state is a few dozen POD
// bytes, episode records and remediation latencies live in bounded rings
// with a rolling FNV-1a fingerprint standing in for evicted history, so
// steady-state RSS is flat no matter how long the stream runs.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "fleet/episode_manager.h"
#include "fleet/target_table.h"
#include "topology/generator.h"

namespace lg::fleet {

// Service tick, simulated seconds: ping cadence, per-prefix state-machine
// step and failure-expiry check. Checkpoints land on tick boundaries.
inline constexpr double kServiceTickSeconds = core::kPingIntervalSeconds;

struct ServiceConfig {
  // Serviced (prefix, origin-policy) pairs across the whole fleet.
  std::size_t prefixes = 2000;
  // Monitored client destinations across the fleet; each serviced prefix
  // maps onto one client (key % clients) whose reachability stands in for
  // the prefix's.
  std::size_t clients = 256;
  // Fixed shard count — the unit of determinism and parallelism.
  std::size_t shards = 16;
  // 0 = LG_THREADS / hardware (never affects output, only wall-clock).
  std::size_t threads = 0;
  std::uint64_t base_seed = 0x73727670ULL;  // "srvp"
  // Length of the streaming trace in simulated seconds. The plane itself is
  // open-ended; the horizon only bounds one harness run.
  double horizon_seconds = 2.0 * 3600.0;
  // Outage injection starts here (baseline must be converged first).
  double warmup_seconds = 300.0;
  // After the horizon, keep ticking (without new injections) until
  // everything settles, at most this long.
  double drain_cap_seconds = 2.0 * 3600.0;
  // Physical /28 remediation slots per shard, carved from the origin's
  // production /24. At most 15: the /28 containing the production host
  // address is never leased, so detection pings keep riding the baseline.
  std::size_t slots = 8;
  // Fleet-wide announcement budget, split over shards (fleet/budget.h).
  double announce_per_hour = kAnnouncePerHour;
  // Fleet-wide streaming outage arrival rate (split over shards).
  double outages_per_hour = 24.0;
  topo::TopologyParams shard_topology;

  // Apply LG_SERVICE_PREFIXES / LG_SERVICE_CLIENTS / LG_SERVICE_HORIZON
  // (seconds) / LG_SERVICE_OUTAGE_RATE (per hour) /
  // LG_SERVICE_ANNOUNCE_BUDGET (per hour) on top of `base`. Malformed or
  // out-of-range values throw std::invalid_argument with a diagnostic
  // naming the knob (util/env_knobs.h).
  static ServiceConfig from_env(ServiceConfig base);
  static ServiceConfig from_env() { return from_env(ServiceConfig{}); }
};

// One closed (or force-closed) per-prefix episode, as kept in the bounded
// report ring.
struct ServiceEpisodeRecord {
  std::uint32_t key = 0;  // universe key of the serviced prefix
  Ipv4 client = 0;
  AsId client_as = topo::kInvalidAs;
  AsId blamed = topo::kInvalidAs;
  double opened_at = -1.0;
  double remediated_at = -1.0;
  double closed_at = -1.0;
  EpisodeOutcome outcome = EpisodeOutcome::kOpen;
  std::int16_t slot = -1;  // leased physical slot, -1 = never held one
  std::uint16_t flap_generation = 0;
  std::uint16_t probe_deferrals = 0;
  std::uint16_t budget_deferrals = 0;
};

struct ServiceShardReport {
  std::size_t shard = 0;
  std::uint64_t seed = 0;
  AsId origin = topo::kInvalidAs;
  std::size_t clients = 0;
  std::size_t prefixes = 0;
  std::uint64_t ticks = 0;
  std::uint64_t outages_injected = 0;
  std::uint64_t episodes_opened = 0;
  std::uint64_t episodes_closed = 0;
  // Indexed by EpisodeOutcome (slot 6 = kCaptive, adversarial runs only).
  std::array<std::uint64_t, core::kEpisodeOutcomes> outcomes{};
  // Rolling FNV-1a over every closed record, in close order — the compact
  // determinism surface even after the record ring evicts history.
  std::uint64_t fingerprint = 0;
  double announce_spent = 0.0;
  double announce_capacity = 0.0;
  double announce_utilization = 0.0;  // must be in [0, 1] — asserted by benches
  std::uint64_t announce_granted = 0;
  std::uint64_t announce_denied = 0;
  std::uint64_t probe_admitted = 0;
  std::uint64_t probe_deferred = 0;
  std::uint64_t slot_leases = 0;
  std::uint64_t slot_waits = 0;
  std::size_t open_at_end = 0;
  // Bounded ring contents, oldest first.
  std::vector<ServiceEpisodeRecord> records;
  // detected -> remediated latencies of remediated episodes (bounded ring).
  std::vector<double> remediate_latencies;
  // Filled only when the run checkpointed: the shard's serialized state.
  std::string checkpoint;
};

struct ServiceResult {
  ServiceConfig config;
  std::vector<ServiceShardReport> shards;

  std::uint64_t episodes_opened() const;
  std::uint64_t episodes_closed() const;
  std::uint64_t outcome_count(EpisodeOutcome o) const;
  std::uint64_t outages_injected() const;
  // Closed episodes per simulated hour.
  double episodes_per_sim_hour() const;
  // Merged remediation latencies, sorted.
  std::vector<double> remediate_latencies() const;
  // Every shard inside its announcement cap with utilization in [0, 1].
  bool budget_respected() const;
  // Stable textual digest (per-shard counters + ring records + FNV) —
  // equal strings mean byte-identical service-plane behaviour.
  std::string fingerprint() const;
};

// Checkpoint/restore control for one run.
struct ServiceRun {
  // > 0: stop at the first tick boundary >= this simulated time and
  // serialize each shard into its report's `checkpoint` blob instead of
  // finishing the horizon.
  double checkpoint_at = 0.0;
  // Non-null: resume this shard from the blob (produced by a checkpointing
  // run with the same config) and continue to the horizon.
  const std::string* restore_blob = nullptr;
};

// One shard, runnable directly (unit tests drive single shards). `seed`
// plays the role of run::trial_seed(base_seed, shard). Metrics, spans and
// trace land in whatever registries are current. Throws
// std::invalid_argument naming the field when slots exceeds 15.
ServiceShardReport run_service_shard(const ServiceConfig& cfg,
                                     std::size_t shard, std::uint64_t seed,
                                     const ServiceRun& run = {});

class ServiceScheduler {
 public:
  explicit ServiceScheduler(ServiceConfig cfg);

  // Run every shard over the full horizon and merge reports in shard order.
  ServiceResult run();
  // Run until `checkpoint_at`; each report carries its checkpoint blob.
  ServiceResult run_until(double checkpoint_at);
  // Resume every shard from `blobs` (one per shard) to the horizon.
  ServiceResult resume(const std::vector<std::string>& blobs);

  // Checkpoint container file: magic/version header + one blob per shard.
  static void write_checkpoint(const ServiceResult& result,
                               const std::string& path);
  static std::vector<std::string> read_checkpoint(const std::string& path,
                                                  std::size_t expect_shards);

  const ServiceConfig& config() const noexcept { return cfg_; }

 private:
  ServiceResult run_impl(const ServiceRun& base,
                         const std::vector<std::string>* blobs);
  ServiceConfig cfg_;
};

}  // namespace lg::fleet
