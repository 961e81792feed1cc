// fleet_outages: the whole detect -> isolate -> poison -> verify -> revert
// lifecycle. fleet::run_fleet_shard runs each of the 16 shards of a
// 5000-target fleet (the sec6_fleet_scale shard topology) in turn on this
// thread, each with its own metrics registry, exactly as
// fleet::FleetScheduler's trial runner would. Probes, forwarding, isolation
// and EpisodeManager do real work; BGP runs ~150 prefixes on a 154-AS graph
// at MRAI 30 s.
//
// The traced run also calls measure::Prober and core::IsolationEngine
// directly on one shard-sized SimWorld, with failures injected by
// workload::ScenarioGenerator as bench/sec5_3_accuracy does.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench.h"
#include "core/isolation.h"
#include "fleet/fleet_scheduler.h"
#include "run/trial_runner.h"
#include "workload/scenarios.h"
#include "workload/sim_world.h"

namespace lgbench {

namespace {

using lg::topo::AsId;

constexpr std::size_t kSetupReps = 3;
constexpr std::size_t kIsolationsPerDirection = 40;
// Four times the sec6_fleet_scale high-rate cell. Episodes per outage are
// heavy-tailed (a reverse-path failure darkens every target behind the
// culprit), so at 48/h one batch's episode count swings by a third from
// input to input; at this rate it swings by about a tenth.
constexpr double kOutagesPerHour = 192.0;

lg::fleet::FleetConfig make_config(const Options& opt, std::uint64_t seed) {
  lg::fleet::FleetConfig cfg;
  cfg.targets = opt.smoke ? 500 : 5000;
  cfg.outages_per_hour = kOutagesPerHour;
  cfg.threads = 1;
  cfg.base_seed = seed ^ 0x666c6565ULL;  // "flee"
  cfg.shard_topology.num_tier1 = 4;
  cfg.shard_topology.num_large_transit = 10;
  cfg.shard_topology.num_small_transit = 30;
  cfg.shard_topology.num_stubs = 110;
  return cfg;
}

// The SimWorldConfig run_fleet_shard derives for a shard seed.
lg::workload::SimWorldConfig shard_world(const lg::fleet::FleetConfig& cfg,
                                         std::uint64_t seed) {
  lg::workload::SimWorldConfig wc;
  wc.topology = cfg.shard_topology;
  wc.topology.seed = seed;
  wc.engine.seed = seed + 1;
  wc.responsiveness.seed = seed + 2;
  return wc;
}

// Sum of the lg.measure.* counters that are probes sent (replies, losses
// and retries are outcomes of those probes, not extra probes).
std::uint64_t probes_sent(lg::obs::MetricsRegistry& reg) {
  std::uint64_t n = 0;
  for (const char* name :
       {"lg.measure.pings", "lg.measure.spoofed_pings",
        "lg.measure.traceroute_probes",
        "lg.measure.spoofed_traceroute_probes", "lg.measure.option_probes"}) {
    n += reg.counter(name).value();
  }
  return n;
}

struct Rep {
  double wall_s = 0.0;
  std::vector<double> shard_s;  // traced only
  lg::fleet::FleetResult result;
  std::uint64_t updates = 0;
  std::uint64_t best_changes = 0;
  std::uint64_t sched_events = 0;
  double sched_max_pending = 0.0;
  std::uint64_t probes = 0;
};

// All shards in order. `traced` also times each shard.
Rep run_batch(const lg::fleet::FleetConfig& cfg, bool traced) {
  Rep rep;
  rep.result.config = cfg;
  const auto start = Clock::now();
  for (std::size_t s = 0; s < cfg.shards; ++s) {
    lg::obs::MetricsRegistry reg;
    const lg::obs::ScopedMetricsRegistry scope(reg);
    const auto t0 = traced ? Clock::now() : Clock::time_point{};
    rep.result.shards.push_back(lg::fleet::run_fleet_shard(
        cfg, s, lg::run::trial_seed(cfg.base_seed, s)));
    if (traced) rep.shard_s.push_back(seconds_since(t0));
    rep.updates += reg.counter("lg.bgp.updates_delivered").value();
    rep.best_changes += reg.counter("lg.bgp.best_path_changes").value();
    rep.sched_events += reg.counter("lg.scheduler.events_executed").value();
    rep.sched_max_pending =
        std::max(rep.sched_max_pending,
                 reg.gauge("lg.scheduler.queue_depth_hwm").max());
    rep.probes += probes_sent(reg);
  }
  rep.wall_s = seconds_since(start);
  return rep;
}

// Episodes still open after the drain must be ones the horizon cut off.
// EpisodeManager stops monitoring at the horizon, and with it the retries
// of detections still waiting for isolation (deferred by probe admission,
// or detected in the last retry window); the drain settles everything
// past isolation. Any other open episode, or any poison left announced,
// fails.
void check_settled(const lg::fleet::FleetConfig& cfg, const Rep& rep,
                   const std::string& tag, Report& out) {
  const double last_window = cfg.horizon_seconds -
                             cfg.episode.defer_retry_seconds -
                             cfg.episode.ping_interval;
  std::size_t truncated = 0, stuck = 0, poisons = 0;
  for (const auto& s : rep.result.shards) {
    poisons += s.poisons_at_end;
    for (const auto& e : s.episodes) {
      if (e.outcome != lg::fleet::EpisodeOutcome::kOpen) continue;
      const bool awaiting_isolation =
          e.isolated_at < 0.0 &&
          (e.probe_deferrals > 0 || e.detected_at >= last_window);
      ++(awaiting_isolation ? truncated : stuck);
    }
  }
  out.check(stuck == 0, std::to_string(stuck) +
                            " episodes open at end past isolation" + tag);
  out.check(poisons == 0,
            std::to_string(poisons) + " poisons left at end" + tag);
  if (truncated > 0) {
    std::printf("  fleet_outages: %zu episodes open at the horizon%s\n",
                truncated, tag.c_str());
  }
}

// Direct Prober / IsolationEngine calls on one shard-sized world.
void isolation_probe(const lg::fleet::FleetConfig& cfg, Report& out) {
  lg::obs::MetricsRegistry reg;
  const lg::obs::ScopedMetricsRegistry scope(reg);
  lg::workload::SimWorld world(
      shard_world(cfg, lg::run::trial_seed(cfg.base_seed, 0)));
  const auto vp_ases = world.stub_vantage_ases(12);
  for (const AsId as : vp_ases) world.announce_production(as);
  world.converge();
  const auto vp = lg::measure::VantagePoint::in_as(vp_ases[0]);
  std::vector<lg::measure::VantagePoint> helpers;
  std::vector<AsId> witnesses;
  for (std::size_t i = 1; i < vp_ases.size(); ++i) {
    helpers.push_back(lg::measure::VantagePoint::in_as(vp_ases[i]));
    witnesses.push_back(vp_ases[i]);
  }
  lg::core::PathAtlas atlas;
  lg::core::IsolationEngine engine(world.prober(), atlas);
  lg::workload::ScenarioGenerator gen(world, cfg.base_seed);

  using lg::core::FailureDirection;
  std::vector<double> ping_us, trace_us, isolate_us;
  std::uint64_t isolate_probes = 0;
  std::size_t blamed_right = 0;
  for (const FailureDirection direction :
       {FailureDirection::kForward, FailureDirection::kReverse,
        FailureDirection::kBidirectional}) {
    std::size_t tested = 0;
    for (const AsId target_as : world.topology().stubs) {
      if (tested >= kIsolationsPerDirection) break;
      if (target_as == vp.as) continue;
      auto scenario = gen.make(vp.as, target_as, direction, false, witnesses);
      if (!scenario) continue;
      // Warm the atlas with the failure lifted, then re-install it.
      for (const auto id : scenario->failure_ids) world.failures().clear(id);
      scenario->failure_ids.clear();
      atlas.refresh(world.prober(), vp, scenario->target, 0.0);
      if (direction != FailureDirection::kReverse) {
        scenario->failure_ids.push_back(world.failures().inject(
            lg::dp::Failure{.at_as = scenario->culprit_as,
                            .toward_as = target_as}));
      }
      if (direction != FailureDirection::kForward) {
        scenario->failure_ids.push_back(world.failures().inject(
            lg::dp::Failure{.at_as = scenario->culprit_as,
                            .toward_as = vp.as}));
      }
      auto t0 = Clock::now();
      (void)world.prober().ping(vp.as, scenario->target, vp.addr);
      ping_us.push_back(1e6 * seconds_since(t0));
      t0 = Clock::now();
      (void)world.prober().traceroute(vp.as, scenario->target, vp.addr);
      trace_us.push_back(1e6 * seconds_since(t0));
      t0 = Clock::now();
      const auto result = engine.isolate(vp, scenario->target, helpers);
      isolate_us.push_back(1e6 * seconds_since(t0));
      isolate_probes += result.probes_used;
      if (result.blamed_as == scenario->culprit_as) ++blamed_right;
      ++tested;
      gen.repair(*scenario);
    }
  }
  out.check(!isolate_us.empty() && isolate_probes > 0,
            "isolation probe found no scenarios");
  out.check(2 * blamed_right >= isolate_us.size(),
            "isolation blamed the injected culprit in under half the cases");
  out.set("measure.ping_us.p50", quantile(ping_us, 0.50), "us");
  out.set("measure.ping_us.p99", quantile(ping_us, 0.99), "us");
  out.set("measure.traceroute_us.p50", quantile(trace_us, 0.50), "us");
  out.set("measure.traceroute_us.p99", quantile(trace_us, 0.99), "us");
  out.set("core.isolate_us.p50", quantile(isolate_us, 0.50), "us");
  out.set("core.isolate_us.p99", quantile(isolate_us, 0.99), "us");
  out.set("core.isolate_probes", static_cast<double>(isolate_probes), "count");
  std::printf("  fleet_outages: isolation probe ran %zu isolations, %zu "
              "blamed the injected culprit\n",
              isolate_us.size(), blamed_right);
}

}  // namespace

void run_fleet_outages(const Options& opt, Report& out) {
  const lg::fleet::FleetConfig cfg0 = make_config(opt, input_seed(opt, 0));

  // ---- set-up of input 0: its shard worlds, built directly with the seeds
  // and configs the shards derive (each is rebuilt inside its shard). ----
  std::vector<double> build_s;
  for (std::size_t i = 0; i < kSetupReps; ++i) {
    lg::obs::MetricsRegistry reg;
    const lg::obs::ScopedMetricsRegistry scope(reg);
    const auto t0 = Clock::now();
    for (std::size_t s = 0; s < cfg0.shards; ++s) {
      const lg::workload::SimWorld world(
          shard_world(cfg0, lg::run::trial_seed(cfg0.base_seed, s)));
    }
    build_s.push_back(seconds_since(t0));
  }

  // ---- timed repetitions, one input each ----
  const auto runs = repeat<Rep>(opt, "fleet_outages",
                                [&](std::size_t input, bool traced) {
    return run_batch(make_config(opt, input_seed(opt, input)), traced);
  });

  // ---- checks ----
  for (std::size_t r = 0; r < runs.plain.size(); ++r) {
    const Rep& rep = runs.plain[r];
    const std::string tag = " (input " + std::to_string(r) + ")";
    out.check(rep.result.budget_respected(),
              "announcement budget exceeded" + tag);
    check_settled(cfg0, rep, tag, out);
    out.check(rep.result.episodes_closed() > 0 &&
                  rep.result.outcome_count(
                      lg::fleet::EpisodeOutcome::kRemediated) > 0 &&
                  rep.updates > 0 && rep.sched_events > 0 && rep.probes > 0,
              "a fleet, BGP, scheduler or probe counter read zero" + tag);
  }
  const Rep& first = runs.plain.front();
  for (std::size_t r = 0; r < runs.traced.size(); ++r) {
    out.check(runs.traced[r].result.fingerprint() ==
                  runs.plain[r].result.fingerprint(),
              "traced run of input " + std::to_string(r) + " differs");
  }
  out.check(run_batch(cfg0, false).result.fingerprint() ==
                first.result.fingerprint(),
            "re-running input 0 gave a different fleet fingerprint");
  const auto closed = first.result.episodes_closed();
  const auto remediated =
      first.result.outcome_count(lg::fleet::EpisodeOutcome::kRemediated);
  std::printf("  fleet_outages: %zu inputs; input 0: %zu targets, %zu "
              "shards, %zu episodes closed, %zu remediated\n",
              runs.plain.size(), cfg0.targets, cfg0.shards, closed,
              remediated);

  // ---- metrics: medians over inputs; counts are input 0's ----
  out.set("wall_s",
          median_of(runs.plain, [](const Rep& r) { return r.wall_s; }), "s");
  out.set("setup_s", median(build_s), "s");
  out.set("peak_rss_mb", runs.rss_mb, "MB");
  out.set("updates_per_s", median_of(runs.plain, [](const Rep& r) {
            return static_cast<double>(r.updates) / r.wall_s;
          }),
          "1/s");
  out.set("episodes_per_s", median_of(runs.plain, [](const Rep& r) {
            return static_cast<double>(r.result.episodes_closed()) / r.wall_s;
          }),
          "1/s");

  out.set("workload.world_build_s", median(build_s), "s");
  out.set("util.sched_events", static_cast<double>(first.sched_events),
          "count");
  out.set("util.sched_max_pending", first.sched_max_pending, "count");
  out.set("bgp.best_change_ratio",
          static_cast<double>(first.best_changes) /
              static_cast<double>(first.updates),
          "ratio");
  out.set("fleet.episodes_closed", static_cast<double>(closed), "count");
  out.set("fleet.remediations", static_cast<double>(remediated), "count");
  out.set("measure.probes", static_cast<double>(first.probes), "count");
  out.set("measure.probes_per_episode",
          static_cast<double>(first.probes) / static_cast<double>(closed),
          "count");
  if (!opt.trace) return;

  // ---- per-layer timings, from the traced repetitions ----
  std::vector<double> shard_s;
  for (const Rep& rep : runs.traced) {
    shard_s.insert(shard_s.end(), rep.shard_s.begin(), rep.shard_s.end());
  }
  out.set("fleet.shard_s.p50", quantile(shard_s, 0.50), "s");
  out.set("fleet.shard_s.max", max_of(shard_s), "s");
  out.set("trace.overhead_s", trace_overhead_s(runs), "s");
  out.set("trace.layer_coverage", layer_coverage(runs, [](const Rep& r) {
            double sum = 0.0;
            for (const double s : r.shard_s) sum += s;
            return sum;
          }),
          "ratio");
  isolation_probe(cfg0, out);
}

}  // namespace lgbench
