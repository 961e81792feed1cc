// service_checkpoint: the always-on service plane and its checkpoint codec.
// fleet::ServiceScheduler over a 100k-prefix universe on the
// sec6_service_plane shard topology: run() to the horizon, then
// run_until(horizon / 2) and resume() from the checkpoint blobs of the same
// config. Per-prefix episode ticks and shard (de)serialization dominate;
// BGP runs at MRAI 0, below the link delay.
//
// The service plane's RIBs are known to diverge from check::ReferenceBgp
// at MRAI 0 (the engine's per-session delivery-order issue), so the oracle
// is not used here: the checks are resume equivalence and the budget.
#include <cstdio>
#include <string>
#include <vector>

#include "bench.h"
#include "fleet/service_plane.h"
#include "run/trial_runner.h"
#include "workload/sim_world.h"

namespace lgbench {

namespace {

constexpr std::size_t kSetupReps = 3;
// Eight times the sec6_service_plane default: each outage closes a
// heavy-tailed number of per-prefix episodes, so at 24/h one batch's
// episode count swings by a third from input to input; at this rate it
// swings by about a tenth.
constexpr double kOutagesPerHour = 192.0;

lg::fleet::ServiceConfig make_config(const Options& opt, std::uint64_t seed) {
  lg::fleet::ServiceConfig cfg;
  cfg.prefixes = opt.smoke ? 2000 : 100000;
  cfg.outages_per_hour = kOutagesPerHour;
  cfg.threads = 1;
  cfg.base_seed = seed ^ 0x73727670ULL;  // "srvp"
  cfg.shard_topology.num_tier1 = 4;
  cfg.shard_topology.num_large_transit = 10;
  cfg.shard_topology.num_small_transit = 30;
  cfg.shard_topology.num_stubs = 110;
  return cfg;
}

// The SimWorldConfig run_service_shard derives for a shard seed.
lg::workload::SimWorldConfig shard_world(const lg::fleet::ServiceConfig& cfg,
                                         std::uint64_t seed) {
  lg::workload::SimWorldConfig wc;
  wc.topology = cfg.shard_topology;
  wc.topology.seed = seed;
  wc.engine.seed = seed + 1;
  wc.engine.default_mrai = 0.0;
  wc.responsiveness.seed = seed + 2;
  return wc;
}

// Counters of one pass, read from the registry the pass merged into.
struct PassCounters {
  std::uint64_t updates = 0;
  std::uint64_t best_changes = 0;
  std::uint64_t sched_events = 0;
  double sched_max_pending = 0.0;
};

PassCounters read_counters(lg::obs::MetricsRegistry& reg) {
  PassCounters c;
  c.updates = reg.counter("lg.bgp.updates_delivered").value();
  c.best_changes = reg.counter("lg.bgp.best_path_changes").value();
  c.sched_events = reg.counter("lg.scheduler.events_executed").value();
  c.sched_max_pending = reg.gauge("lg.scheduler.queue_depth_hwm").max();
  return c;
}

struct Rep {
  double run_s = 0.0, run_until_s = 0.0, resume_s = 0.0, wall_s = 0.0;
  std::vector<double> shard_s;  // traced: per shard of the run() pass
  lg::fleet::ServiceResult full, resumed;
  std::size_t checkpoint_bytes = 0;
  std::size_t blobs = 0;
  PassCounters run, resume;

  // Work of the timed region: the uninterrupted pass plus the interrupted
  // one. The resume pass restores the checkpointed counters, so its
  // registry and result already include the run_until pass's share.
  double updates() const {
    return static_cast<double>(run.updates + resume.updates);
  }
  double episodes() const {
    return static_cast<double>(full.episodes_closed() +
                               resumed.episodes_closed());
  }
};

// The run() pass. Traced: the trial runner ServiceScheduler uses, with every
// shard timed.
lg::fleet::ServiceResult run_pass(const lg::fleet::ServiceConfig& cfg,
                                  bool traced, std::vector<double>& shard_s) {
  if (!traced) return lg::fleet::ServiceScheduler(cfg).run();
  lg::run::TrialRunnerConfig rc;
  rc.threads = cfg.threads;
  rc.base_seed = cfg.base_seed;
  lg::run::TrialRunner runner(rc);
  shard_s.assign(cfg.shards, 0.0);
  lg::fleet::ServiceResult result;
  result.config = cfg;
  result.shards = runner.run(cfg.shards, [&](lg::run::TrialContext& ctx) {
    const auto t0 = Clock::now();
    auto report = lg::fleet::run_service_shard(cfg, ctx.index, ctx.seed);
    shard_s[ctx.index] = seconds_since(t0);
    return report;
  });
  return result;
}

Rep run_batch(const lg::fleet::ServiceConfig& cfg, bool traced) {
  Rep rep;
  lg::fleet::ServiceScheduler scheduler(cfg);
  {
    lg::obs::MetricsRegistry reg;
    const lg::obs::ScopedMetricsRegistry scope(reg);
    const auto t0 = Clock::now();
    rep.full = run_pass(cfg, traced, rep.shard_s);
    rep.run_s = seconds_since(t0);
    rep.run = read_counters(reg);
  }
  std::vector<std::string> blobs;
  {
    lg::obs::MetricsRegistry reg;
    const lg::obs::ScopedMetricsRegistry scope(reg);
    const auto t0 = Clock::now();
    auto half = scheduler.run_until(cfg.horizon_seconds / 2);
    rep.run_until_s = seconds_since(t0);
    for (auto& s : half.shards) {
      rep.checkpoint_bytes += s.checkpoint.size();
      blobs.push_back(std::move(s.checkpoint));
    }
  }
  rep.blobs = blobs.size();
  {
    lg::obs::MetricsRegistry reg;
    const lg::obs::ScopedMetricsRegistry scope(reg);
    const auto t0 = Clock::now();
    rep.resumed = scheduler.resume(blobs);
    rep.resume_s = seconds_since(t0);
    rep.resume = read_counters(reg);
  }
  rep.wall_s = rep.run_s + rep.run_until_s + rep.resume_s;
  return rep;
}

double mib(std::size_t bytes) {
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

}  // namespace

void run_service_checkpoint(const Options& opt, Report& out) {
  const lg::fleet::ServiceConfig cfg0 = make_config(opt, input_seed(opt, 0));

  // ---- set-up of input 0: its shard worlds (MRAI 0), built directly with
  // the seeds and configs the shards derive. ----
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
  const auto runs = repeat<Rep>(opt, "service_checkpoint",
                                [&](std::size_t input, bool traced) {
    return run_batch(make_config(opt, input_seed(opt, input)), traced);
  });

  // ---- checks ----
  for (std::size_t r = 0; r < runs.plain.size(); ++r) {
    const Rep& rep = runs.plain[r];
    const std::string tag = " (input " + std::to_string(r) + ")";
    std::uint64_t ticks = 0;
    for (const auto& s : rep.full.shards) ticks += s.ticks;
    out.check(rep.blobs == cfg0.shards && rep.checkpoint_bytes > 0,
              "run_until produced no checkpoint blobs" + tag);
    out.check(rep.resumed.fingerprint() == rep.full.fingerprint(),
              "resumed run differs from the uninterrupted run" + tag);
    out.check(rep.full.budget_respected() && rep.resumed.budget_respected(),
              "announcement budget exceeded" + tag);
    out.check(rep.full.episodes_closed() > 0 && ticks > 0 &&
                  rep.run.updates > 0 && rep.run.sched_events > 0,
              "a service, BGP or scheduler counter read zero" + tag);
  }
  const Rep& first = runs.plain.front();
  for (std::size_t r = 0; r < runs.traced.size(); ++r) {
    out.check(runs.traced[r].full.fingerprint() ==
                  runs.plain[r].full.fingerprint(),
              "traced run of input " + std::to_string(r) + " differs");
  }
  {
    lg::obs::MetricsRegistry reg;
    const lg::obs::ScopedMetricsRegistry scope(reg);
    out.check(lg::fleet::ServiceScheduler(cfg0).run().fingerprint() ==
                  first.full.fingerprint(),
              "re-running input 0 gave a different service fingerprint");
  }
  std::uint64_t ticks = 0;
  for (const auto& s : first.full.shards) ticks += s.ticks;
  std::printf("  service_checkpoint: %zu inputs; input 0: %zu prefixes, %zu "
              "shards, %llu episodes closed per pass, %.1f MB of "
              "checkpoints\n",
              runs.plain.size(), cfg0.prefixes, cfg0.shards,
              static_cast<unsigned long long>(first.full.episodes_closed()),
              mib(first.checkpoint_bytes));

  // ---- metrics: medians over inputs; counts are input 0's ----
  out.set("wall_s",
          median_of(runs.plain, [](const Rep& r) { return r.wall_s; }), "s");
  out.set("setup_s", median(build_s), "s");
  out.set("peak_rss_mb", runs.rss_mb, "MB");
  out.set("updates_per_s", median_of(runs.plain, [](const Rep& r) {
            return r.updates() / r.wall_s;
          }),
          "1/s");
  out.set("episodes_per_s", median_of(runs.plain, [](const Rep& r) {
            return r.episodes() / r.wall_s;
          }),
          "1/s");

  out.set("workload.world_build_s", median(build_s), "s");
  out.set("util.sched_events", static_cast<double>(first.run.sched_events),
          "count");
  out.set("util.sched_max_pending", first.run.sched_max_pending, "count");
  out.set("bgp.best_change_ratio",
          static_cast<double>(first.run.best_changes) /
              static_cast<double>(first.run.updates),
          "ratio");
  out.set("fleet.service_ticks", static_cast<double>(ticks), "count");
  out.set("fleet.checkpoint_mb", mib(first.checkpoint_bytes), "MB");
  if (!opt.trace) return;

  // ---- per-layer timings, from the traced repetitions ----
  const auto& traced = runs.traced;
  std::vector<double> shard_s;
  for (const Rep& rep : traced) {
    shard_s.insert(shard_s.end(), rep.shard_s.begin(), rep.shard_s.end());
  }
  const double run_s = median_of(traced, [](const Rep& r) { return r.run_s; });
  const double until_s =
      median_of(traced, [](const Rep& r) { return r.run_until_s; });
  const double resume_s =
      median_of(traced, [](const Rep& r) { return r.resume_s; });
  out.set("fleet.service_run_s", run_s, "s");
  out.set("fleet.service_run_until_s", until_s, "s");
  out.set("fleet.service_resume_s", resume_s, "s");
  out.set("fleet.checkpoint_roundtrip_s", until_s + resume_s - run_s, "s");
  out.set("fleet.service_shard_s.p50", quantile(shard_s, 0.50), "s");
  out.set("fleet.service_shard_s.max", max_of(shard_s), "s");
  out.set("trace.overhead_s", trace_overhead_s(runs), "s");
  out.set("trace.layer_coverage", layer_coverage(runs, [](const Rep& r) {
            double sum = r.run_until_s + r.resume_s;
            for (const double s : r.shard_s) sum += s;
            return sum;
          }),
          "ratio");
}

}  // namespace lgbench
