// §6 extension — fleet-scale outage response (lg::fleet).
//
// The paper's deployment monitored targets on the order of hundreds and
// repaired outages one at a time; §5.4 argues the approach scales to
// Internet-wide deployment if announcement volume is paced. This harness
// measures that claim end-to-end: the lg::fleet service plane monitors
// 100 → 5000 destinations across 16 deterministic shards, injects Poisson
// outage workloads at two rates, and reports episode throughput, the
// time-to-remediate distribution, and announcement-budget utilization —
// which must never exceed the configured token bucket (the acceptance
// criterion of the plane's §5.4 pacing story).
//
// Parallel structure: FleetScheduler fans its shards out on
// lg::run::TrialRunner, so stdout and BENCH_sec6_fleet_scale.json are
// byte-identical for any LG_THREADS value; only wall-clock changes (written
// to stderr).
//
// Environment: LG_FLEET_TARGETS=<n> replaces the target sweep with one size
// (docs/OPERATORS.md).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "fleet/fleet_scheduler.h"
#include "run/trial_runner.h"
#include "util/env_knobs.h"
#include "util/strings.h"

using namespace lg;

namespace {

fleet::FleetConfig cell_config(std::size_t targets, double outages_per_hour) {
  fleet::FleetConfig cfg;
  cfg.targets = targets;
  cfg.outages_per_hour = outages_per_hour;
  // Per-shard world sized so the largest cell (5000/16 = 313 targets) fits
  // inside one shard's responding router population.
  cfg.shard_topology.num_tier1 = 4;
  cfg.shard_topology.num_large_transit = 10;
  cfg.shard_topology.num_small_transit = 30;
  cfg.shard_topology.num_stubs = 110;
  return cfg;
}

double quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const std::size_t idx = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[idx < sorted.size() ? idx : sorted.size() - 1];
}

}  // namespace

int main() {
  bench::header("Section 6 extension — fleet-scale outage response",
                "lg::fleet episode throughput, remediation latency, and "
                "announcement pacing vs fleet size");
  bench::JsonReport jr("sec6_fleet_scale");
  // The 5000-target cells record far more episode events than the default
  // 4096-slot ring holds; at 64 K the merged ring keeps the full run
  // (report "traces"/"ring_dropped" stays 0) and a Perfetto export shows
  // every instant, not just the tail.
  obs::TraceRing::global().set_capacity(1 << 16);

  std::vector<std::size_t> sizes = {100, 500, 1000, 2500, 5000};
  if (std::getenv("LG_FLEET_TARGETS") != nullptr) {
    sizes = {util::env_size_knob("LG_FLEET_TARGETS", 0)};
  }
  const std::vector<double> rates = {12.0, 48.0};

  jr->set_config("sizes", static_cast<double>(sizes.size()));
  jr->set_config("outage_rates", static_cast<double>(rates.size()));
  {
    const fleet::FleetConfig probe = cell_config(sizes.front(), rates.front());
    jr->set_config("shards", static_cast<double>(probe.shards));
    jr->set_config("horizon_seconds", probe.horizon_seconds);
    jr->set_config("announce_per_hour", fleet::kAnnouncePerHour);
    jr->set_config("probe_rate_per_second", fleet::kProbeRatePerSecond);
  }

  struct CellRow {
    std::size_t targets = 0;
    double rate = 0.0;
    fleet::FleetResult result;
  };
  std::vector<CellRow> cells;

  for (const double rate : rates) {
    for (const std::size_t size : sizes) {
      const fleet::FleetConfig cfg = cell_config(size, rate);
      const std::string label = "fleet " + std::to_string(size) +
                                " targets @" + util::fixed(rate, 0) + "/h";
      fleet::FleetScheduler scheduler(cfg);
      const auto wall_start = std::chrono::steady_clock::now();
      CellRow cell;
      cell.targets = size;
      cell.rate = rate;
      {
        bench::WallClock wc(label, cfg.shards, run::thread_count(cfg.threads));
        cell.result = scheduler.run();
      }
      const double wall = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - wall_start)
                              .count();
      // Wall-clock throughput is hardware-dependent: stderr only.
      std::fprintf(stderr, "[%s] %.1f episodes/sec wall-clock\n",
                   label.c_str(),
                   wall > 0.0
                       ? static_cast<double>(cell.result.episodes_closed()) /
                             wall
                       : 0.0);
      cells.push_back(std::move(cell));
    }
  }

  bench::section("Episode throughput and remediation latency");
  std::printf(
      "  %-8s %-8s %-9s %-8s %-8s %-10s %-9s %-9s %-9s %-9s\n", "targets",
      "out/h", "episodes", "closed", "remed", "eps/simh", "t_rem p50",
      "t_rem p90", "defer_pr", "defer_an");
  for (const CellRow& cell : cells) {
    const auto lat = cell.result.remediate_latencies();
    std::printf(
        "  %-8zu %-8.0f %-9zu %-8zu %-8zu %-10.1f %-9s %-9s %-9llu %-9llu\n",
        cell.targets, cell.rate, cell.result.episodes_opened(),
        cell.result.episodes_closed(),
        cell.result.outcome_count(fleet::EpisodeOutcome::kRemediated),
        cell.result.episodes_per_sim_hour(),
        lat.empty() ? "n/a" : (util::fixed(quantile(lat, 0.5), 0) + " s").c_str(),
        lat.empty() ? "n/a" : (util::fixed(quantile(lat, 0.9), 0) + " s").c_str(),
        static_cast<unsigned long long>(cell.result.probe_deferred()),
        static_cast<unsigned long long>(cell.result.announce_denied()));
  }

  bench::section("Announcement-budget utilization (hard cap: 1.0)");
  std::printf("  %-8s %-8s %-12s %-12s %-12s %-10s\n", "targets", "out/h",
              "spent", "capacity", "utilization", "respected");
  bool util_in_bounds = true;
  for (const CellRow& cell : cells) {
    const double cap = cell.result.announce_capacity();
    const double util =
        cap > 0.0 ? cell.result.announce_spent() / cap : 0.0;
    // Regression surface for the utilization > 1.0 bug: no drain phase or
    // horizon undershoot may ever push reported utilization out of [0, 1].
    util_in_bounds = util_in_bounds && util >= 0.0 && util <= 1.0;
    std::printf("  %-8zu %-8.0f %-12.1f %-12.1f %-12.3f %-10s\n", cell.targets,
                cell.rate, cell.result.announce_spent(), cap, util,
                cell.result.budget_respected() ? "yes" : "NO");
  }

  bench::section("Outcome mix (largest cell, high outage rate)");
  const CellRow& big = cells.back();
  {
    using O = fleet::EpisodeOutcome;
    for (const O o : {O::kResolvedSelf, O::kNoBlame, O::kDeclined,
                      O::kRemediated, O::kVerifyTimeout}) {
      bench::kv(core::episode_outcome_name(o),
                std::to_string(big.result.outcome_count(o)));
    }
    bench::kv("flap re-entries", std::to_string(big.result.flap_reentries()));
    bench::kv("open at end (must be 0)",
              std::to_string([&] {
                std::size_t n = 0;
                for (const auto& s : big.result.shards) n += s.open_at_end;
                return n;
              }()));
  }

  bench::section("Time-to-remediate CDF (largest cell, high outage rate)");
  {
    const auto lat = big.result.remediate_latencies();
    if (lat.empty()) {
      std::printf("  (no remediated episodes)\n");
    } else {
      for (const double q : {0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 1.00}) {
        std::printf("  p%-4.0f %8.0f s\n", q * 100.0, quantile(lat, q));
      }
    }
  }

  bool all_respected = true;
  for (const CellRow& cell : cells) {
    all_respected = all_respected && cell.result.budget_respected();
    const std::string suffix =
        std::to_string(cell.targets) + "_r" + util::fixed(cell.rate, 0);
    const auto lat = cell.result.remediate_latencies();
    jr->headline("episodes_opened_" + suffix,
                 static_cast<double>(cell.result.episodes_opened()));
    jr->headline("episodes_per_sim_hour_" + suffix,
                 cell.result.episodes_per_sim_hour());
    if (!lat.empty()) {
      jr->headline("remediate_p50_s_" + suffix, quantile(lat, 0.5));
      jr->headline("remediate_p90_s_" + suffix, quantile(lat, 0.9));
    }
    const double cap = cell.result.announce_capacity();
    jr->headline("announce_utilization_" + suffix,
                 cap > 0.0 ? cell.result.announce_spent() / cap : 0.0);
  }
  jr->headline("budget_respected_all_cells", all_respected ? 1.0 : 0.0);
  jr->headline("utilization_in_bounds", util_in_bounds ? 1.0 : 0.0);
  if (!util_in_bounds) {
    std::printf("\n  ERROR: announcement utilization outside [0, 1]\n");
    return 1;
  }
  // Stall-watchdog verdict across every cell (lg.episode.stalled aggregates in
  // the global registry as shards merge). Expected 0 on a healthy plane; a
  // nonzero value names episodes parked past core::kStallSeconds.
  jr->headline(
      "episodes_stalled",
      static_cast<double>(
          obs::MetricsRegistry::global().counter("lg.episode.stalled").value()));
  if (!all_respected) {
    std::printf("\n  ERROR: a shard exceeded its announcement budget cap\n");
    return 1;
  }
  // Every episode must settle: continuations run past the horizon.
  std::size_t open_at_end = 0;
  for (const CellRow& cell : cells) {
    for (const auto& s : cell.result.shards) open_at_end += s.open_at_end;
  }
  if (open_at_end != 0) {
    std::printf("\n  ERROR: %zu episodes still open at the end of the run\n",
                open_at_end);
    return 1;
  }
  return 0;
}
