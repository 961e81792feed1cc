#include "check/fuzzer.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <utility>

#include "adversary/adversary_plane.h"
#include "bgp/engine.h"
#include "check/reference_bgp.h"
#include "faults/fault_plane.h"
#include "obs/metrics.h"
#include "topology/addressing.h"
#include "topology/generator.h"
#include "util/env_knobs.h"
#include "util/rng.h"
#include "util/scheduler.h"

namespace lg::check {

namespace {

using topo::AsId;
using topo::Prefix;

struct ScriptEvent {
  double t = 0.0;
  AsId as = topo::kInvalidAs;
  Prefix prefix;
  // nullopt = withdraw; else (re)originate under this policy.
  std::optional<bgp::OriginPolicy> policy;
};

// Random per-AS policy knobs, applied identically to the engine speaker and
// the reference. Damping and avoid hints stay off: damping is
// history-dependent (no synchronous fixpoint), and avoid-hint tie-breaking
// is iteration-order-dependent in the engine when several distinct hints
// coexist.
void randomize_speaker_configs(util::Rng& rng, const topo::AsGraph& graph,
                               bgp::BgpEngine& engine, ReferenceBgp& ref) {
  for (const AsId id : graph.as_ids()) {
    bgp::SpeakerConfig cfg;
    if (rng.bernoulli(0.15)) cfg.loop_threshold = 2;
    if (rng.bernoulli(0.20)) cfg.strips_communities = true;
    if (rng.bernoulli(0.20)) cfg.has_default_route = true;
    if (rng.bernoulli(0.10)) {
      cfg.reject_customer_routes_containing_my_peers = true;
    }
    engine.speaker(id).mutable_config() = cfg;
    ref.config(id) = cfg;
  }
}

bgp::OriginPolicy plain_policy(util::Rng& rng, AsId origin) {
  bgp::OriginPolicy policy;
  policy.default_path = bgp::PathRef(
      bgp::baseline_path(origin, 1 + rng.uniform_u32(3)));
  if (rng.bernoulli(0.3)) {
    policy.communities.push_back(0xFF000000u | rng.uniform_u32(1 << 16));
  }
  return policy;
}

bgp::AsPath random_poisoned_path(util::Rng& rng, AsId origin,
                                 const std::vector<AsId>& candidates) {
  std::vector<AsId> poisons{rng.pick(candidates)};
  if (candidates.size() > 1 && rng.bernoulli(0.3)) {
    const AsId second = rng.pick(candidates);
    // A repeated poison models the double-insertion needed against
    // loop_threshold == 2 ASes (paper §7.1).
    poisons.push_back(second);
  }
  const std::size_t total = poisons.size() + 2 + rng.uniform_u32(2);
  return bgp::poisoned_path(origin, poisons, total);
}

bgp::OriginPolicy poisoned_policy(util::Rng& rng, AsId origin,
                                  const std::vector<AsId>& candidates) {
  bgp::OriginPolicy policy;
  policy.default_path =
      bgp::PathRef(random_poisoned_path(rng, origin, candidates));
  return policy;
}

// Selective announcement (§3.1.2): a per-neighbor mix of plain, poisoned,
// and withheld variants around a default.
bgp::OriginPolicy selective_policy(util::Rng& rng, AsId origin,
                                   const topo::AsGraph& graph,
                                   const std::vector<AsId>& candidates) {
  bgp::OriginPolicy policy = rng.bernoulli(0.5)
                                 ? plain_policy(rng, origin)
                                 : poisoned_policy(rng, origin, candidates);
  for (const auto& n : graph.neighbors(origin)) {
    if (!rng.bernoulli(0.4)) continue;
    const auto choice = rng.uniform_u32(3);
    if (choice == 0) {
      policy.per_neighbor[n.id] = std::nullopt;  // withhold
    } else if (choice == 1) {
      policy.per_neighbor[n.id] =
          bgp::PathRef(bgp::baseline_path(origin, 1 + rng.uniform_u32(3)));
    } else {
      policy.per_neighbor[n.id] =
          bgp::PathRef(random_poisoned_path(rng, origin, candidates));
    }
  }
  return policy;
}

}  // namespace

std::string ScenarioResult::summary() const {
  std::string out = "seed=" + std::to_string(seed) +
                    " ases=" + std::to_string(ases) +
                    " events=" + std::to_string(events);
  if (ok()) return out + " ok";
  if (!engine_quiesced) out += " ENGINE-NOT-QUIESCED";
  if (!reference_converged) out += " REFERENCE-NOT-CONVERGED";
  if (mismatches != 0) {
    out += " mismatches=" + std::to_string(mismatches) + " first[" +
           first_mismatch + "]";
  }
  if (!violations.empty()) {
    out += " violations=" + std::to_string(violations.size()) + " first[" +
           violations.front().invariant + ": " + violations.front().detail +
           "]";
  }
  if (reexport_messages != 0) {
    out += " reexport_messages=" + std::to_string(reexport_messages);
  }
  return out;
}

ScenarioResult run_scenario(const ScenarioOptions& opt) {
  ScenarioResult result;
  result.seed = opt.seed;
  util::Rng rng(opt.seed, 0x636865636bULL);  // "check"

  // ---- Topology: small enough to converge in milliseconds, varied enough
  // to exercise multihoming, peering, and captive stubs. ----
  topo::TopologyParams tp;
  tp.num_tier1 = 2 + rng.uniform_u32(2);
  tp.num_large_transit = 3 + rng.uniform_u32(3);
  tp.num_small_transit = 2 + rng.uniform_u32(6);
  tp.num_stubs = 6 + rng.uniform_u32(12);
  tp.large_transit_peer_prob = 0.25;
  tp.small_transit_peer_prob = 0.10;
  tp.seed = rng.next_u64();
  topo::GeneratedTopology gt = topo::generate_topology(tp);
  result.ases = gt.graph.num_ases();

  // ---- Substrate: scheduler + optional fault plane + engine + oracle.
  // Each scenario reports into its own metrics registry so sweeps never
  // pollute the caller's (or the global) metrics. ----
  obs::MetricsRegistry reg;
  obs::ScopedMetricsRegistry scoped_reg(reg);
  faults::FaultConfig fc;
  if (opt.fault_intensity > 0.0) {
    fc = faults::FaultConfig::at_intensity(opt.fault_intensity);
    // The stock intensity mapping keeps extra delays far below the default
    // MRAI, so a delayed update can never be overtaken by a newer one.
    // Stretch delays and tighten reset epochs to scenario timescales so the
    // reordering hazard — a newer update due before an older one on its
    // session, which the engine must hold back — actually occurs.
    fc.update_delay_prob = 0.4 * opt.fault_intensity;
    fc.update_delay_max_seconds = 30.0 * opt.fault_intensity;
    fc.session_reset_period = 150.0;
    fc.session_reset_prob = 0.3 * opt.fault_intensity;
    fc.session_down_seconds = 10.0 + 20.0 * opt.fault_intensity;
    fc.update_retransmit_seconds = 10.0;
  }
  fc.seed = rng.next_u64();
  faults::FaultPlane plane(fc);
  faults::ScopedFaultPlane scoped_plane(plane);
  // Adversary dimension: plane scoped before the engine so construction
  // applies the hostile profiles. Config and RNG draws happen only when the
  // dimension is on, so prevalence-0 sweeps replay pre-adversary streams.
  std::optional<adversary::AdversaryPlane> aplane;
  std::optional<adversary::ScopedAdversaryPlane> scoped_aplane;
  if (opt.adversary_prevalence > 0.0) {
    adversary::AdversaryConfig ac =
        adversary::AdversaryConfig::at_prevalence(opt.adversary_prevalence);
    // Destabilizer timing is a workload concern; the fuzzer's own event
    // script already flaps origins, so keep the script authoritative.
    ac.destabilizer_prevalence = 0.0;
    ac.seed = rng.next_u64();
    aplane.emplace(ac);
    scoped_aplane.emplace(*aplane);
  }
  util::Scheduler sched;
  bgp::EngineConfig ec;
  ec.seed = rng.next_u64();
  // Vary advertisement pacing: short MRAIs are what let fault delays exceed
  // the send gap on a session (and are common on real edge routers). 0 and
  // 1 ms sit below the link delay and the 5 ms pump quantum, so consecutive
  // updates on a session are in flight together and must keep their order.
  static constexpr double kMraiChoices[] = {0.0, 0.001, 2.0, 10.0, 30.0};
  ec.default_mrai = kMraiChoices[rng.uniform_u32(5)];
  bgp::BgpEngine engine(gt.graph, sched, ec);
  ReferenceBgp ref(gt.graph);
  randomize_speaker_configs(rng, gt.graph, engine, ref);
  if (aplane.has_value()) {
    // randomize_speaker_configs assigns whole SpeakerConfig structs, which
    // clobbers the profiles the engine applied at construction. Re-merge
    // them into BOTH sides so the differential judges identical policies.
    const adversary::RoleTable roles(gt.graph);
    for (const AsId id : gt.graph.as_ids()) {
      const adversary::Profile prof =
          aplane->profile_for(id, roles.role(id));
      if (!prof.any()) continue;
      for (bgp::SpeakerConfig* cfg :
           {&engine.speaker(id).mutable_config(), &ref.config(id)}) {
        if (prof.path_length_limit > 0) {
          cfg->path_length_limit = prof.path_length_limit;
        }
        if (prof.default_route) cfg->has_default_route = true;
        if (prof.peerlock) cfg->peerlock_filter = true;
      }
    }
  }

  // ---- Event script. ----
  const std::vector<AsId> transit = gt.transit();
  const std::size_t num_origins =
      1 + rng.uniform_u32(static_cast<std::uint32_t>(
              std::min<std::size_t>(3, gt.stubs.size())));
  std::vector<AsId> origins;
  for (std::size_t i = 0; i < num_origins; ++i) {
    const AsId o = rng.pick(gt.stubs);
    if (std::find(origins.begin(), origins.end(), o) == origins.end()) {
      origins.push_back(o);
    }
  }
  std::vector<ScriptEvent> script;
  double t = 0.0;
  const auto push = [&](AsId as, const Prefix& p,
                        std::optional<bgp::OriginPolicy> policy) {
    t += rng.uniform(5.0, 180.0);
    script.push_back({t, as, p, std::move(policy)});
  };
  for (const AsId origin : origins) {
    // Poison candidates: transit ASes plus the origin's own neighbors.
    std::vector<AsId> candidates = transit;
    for (const auto& n : gt.graph.neighbors(origin)) {
      candidates.push_back(n.id);
    }
    candidates.erase(
        std::remove(candidates.begin(), candidates.end(), origin),
        candidates.end());

    const Prefix production = topo::AddressPlan::production_prefix(origin);
    push(origin, production, plain_policy(rng, origin));
    if (rng.bernoulli(0.6)) {
      // Sentinel less-specific, always plain (§4.2).
      push(origin, topo::AddressPlan::sentinel_prefix(origin),
           plain_policy(rng, origin));
    }
    const std::size_t extra = rng.uniform_u32(
        static_cast<std::uint32_t>(opt.max_events_per_origin + 1));
    for (std::size_t i = 0; i < extra; ++i) {
      switch (rng.uniform_u32(5)) {
        case 0:  // poison
          push(origin, production,
               poisoned_policy(rng, origin, candidates));
          break;
        case 1:  // prepend (longer plain baseline)
          push(origin, production, plain_policy(rng, origin));
          break;
        case 2:  // selective announcement
          push(origin, production,
               selective_policy(rng, origin, gt.graph, candidates));
          break;
        case 3:  // flap: withdraw, then re-announce shortly after
          push(origin, production, std::nullopt);
          push(origin, production, plain_policy(rng, origin));
          break;
        default:  // withdraw (possibly final)
          push(origin, production, std::nullopt);
          break;
      }
    }
  }
  result.events = script.size();

  // Surviving policy per (origin, prefix) — the reference solves for these.
  std::map<std::pair<AsId, Prefix>, std::optional<bgp::OriginPolicy>> final_;
  for (const ScriptEvent& ev : script) {
    final_[{ev.as, ev.prefix}] = ev.policy;
    sched.at(ev.t, [&engine, ev] {
      if (ev.policy) {
        engine.originate(ev.as, ev.prefix, *ev.policy);
      } else {
        engine.withdraw(ev.as, ev.prefix);
      }
    });
  }

  // ---- Converge. The cap only guards against a runaway schedule (a
  // scenario that keeps generating events forever is itself a failure). ----
  const double cap = t + 1e6;
  sched.run(cap);
  result.engine_quiesced = sched.empty();

  // ---- Judge 1: differential against the synchronous reference. ----
  for (const auto& [key, policy] : final_) {
    if (policy) ref.originate(key.first, key.second, *policy);
  }
  result.reference_converged = ref.solve();
  if (result.engine_quiesced && result.reference_converged) {
    std::vector<Prefix> universe;
    for (const auto& [key, policy] : final_) {
      if (std::find(universe.begin(), universe.end(), key.second) ==
          universe.end()) {
        universe.push_back(key.second);
      }
    }
    for (const AsId as : gt.graph.as_ids()) {
      for (const Prefix& p : universe) {
        const bgp::Route* got = engine.best_route(as, p);
        const RefRoute* want = ref.best_route(as, p);
        const bool match =
            (got == nullptr) == (want == nullptr) &&
            (got == nullptr || (got->path == want->path &&
                                got->neighbor == want->neighbor));
        if (match) continue;
        ++result.mismatches;
        if (result.first_mismatch.empty()) {
          result.first_mismatch =
              "as=" + std::to_string(as) + " prefix=" + p.str() +
              " engine=" +
              (got != nullptr ? bgp::path_str(got->path) : "(none)") +
              " reference=" +
              (want != nullptr ? bgp::path_str(want->path) : "(none)");
        }
      }
    }

    // ---- Judge 2: the invariant audit. ----
    result.violations = InvariantChecker(engine).check_all();

    // ---- Judge 3: export idempotence at the fixpoint. ----
    const std::uint64_t before = engine.total_messages();
    engine.reexport_all();
    sched.run(cap);
    result.reexport_messages = engine.total_messages() - before;
  }
  result.faults_injected = plane.injected();
  result.updates_held = reg.counter("lg.bgp.updates_held").value();
  return result;
}

SweepSummary run_sweep(std::uint64_t first_seed, std::size_t count,
                       double fault_intensity, bool log_failures,
                       double adversary_prevalence) {
  SweepSummary summary;
  for (std::size_t i = 0; i < count; ++i) {
    ScenarioOptions opt;
    opt.seed = first_seed + i;
    opt.fault_intensity = fault_intensity;
    opt.adversary_prevalence = adversary_prevalence;
    const ScenarioResult result = run_scenario(opt);
    ++summary.runs;
    if (!result.ok()) {
      summary.failing_seeds.push_back(result.seed);
      if (log_failures) {
        std::fprintf(stderr,
                     "LG_CHECK failure (fault_intensity=%g "
                     "adversary_prevalence=%g): %s\n"
                     "  replay with LG_CHECK_SEED=%llu\n",
                     fault_intensity, adversary_prevalence,
                     result.summary().c_str(),
                     static_cast<unsigned long long>(result.seed));
      }
    }
  }
  return summary;
}

std::optional<std::uint64_t> replay_seed_from_env() {
  const char* v = std::getenv("LG_CHECK_SEED");
  if (v == nullptr || *v == '\0') return std::nullopt;
  return util::env_u64_knob("LG_CHECK_SEED", 0);
}

}  // namespace lg::check
