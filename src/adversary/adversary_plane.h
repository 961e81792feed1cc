// lg::adversary — the hostile-policy plane. LIFEGUARD's repair primitive
// assumes a *cooperative* Internet that honors poisoned announcements;
// measurement studies show three widespread policies break that assumption:
//  * path-length import filters reject announcements whose AS_PATH exceeds
//    a local threshold, killing long poisoned/prepended paths (Smith et al.,
//    "Withdrawing the BGP Re-Routing Curtain");
//  * default-routed stubs keep *forwarding* toward a provider even after a
//    poison withdraws the route, so the control plane looks repaired while
//    the data plane is still captive (Bush et al.);
//  * Peerlock/leak filters at the tier-1 clique drop any path where a locked
//    AS appears behind a non-customer — exactly the leak shape poisoning
//    produces (McDaniel et al., "Flexsealing BGP").
// A fourth behavior, the destabilizing announcer, plays strategic
// announce/withdraw sequences (Lychev et al.) to keep convergence churning;
// its schedule generator lives in adversary/destabilizer.h.
//
// Per-AS behavior profiles are *pure functions* of (seed, AS id, role,
// prevalence knobs) — stateless util::hash_unit draws, the same determinism
// design as lg::faults. The consequence is that bgp::BgpEngine, the
// check::ReferenceBgp oracle, and the fuzzer can each derive the profile
// assignment independently and agree exactly, with no shared RNG stream to
// perturb and no thread-count sensitivity.
//
// Wiring is util/thread_current.h's idiom, shared with lg::faults: consumers
// resolve AdversaryPlane::current() at construction; harnesses install a
// plane with ScopedAdversaryPlane *before* building their SimWorld. The
// fallback plane is disabled and reduces every hook to a single cached
// branch, which keeps adversary-free bench outputs byte-identical to a build
// without this layer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "topology/as_graph.h"
#include "util/thread_current.h"

namespace lg::obs {
class Counter;
}  // namespace lg::obs

namespace lg::adversary {

using topo::AsId;

struct AdversaryConfig {
  // Master switch. A disabled plane assigns no profiles, registers no
  // metrics, and never perturbs consumers — required for the "adversary off
  // = byte-identical benches" guarantee.
  bool enabled = false;
  std::uint64_t seed = 0x61647673ULL;  // "advs"

  // Prevalence of each behavior over its *eligible* population, in [0, 1]:
  //  * path-length filters: every AS;
  //  * default routes: stub ASes only (where the practice is common);
  //  * Peerlock: the tier-1 clique plus large transit ASes;
  //  * destabilizers: stub ASes only (a multihomed edge playing games).
  double pathlen_prevalence = 0.0;
  double default_route_prevalence = 0.0;
  double peerlock_prevalence = 0.0;
  double destabilizer_prevalence = 0.0;

  // A filtering AS draws its AS_PATH length threshold uniformly from
  // [pathlen_min_limit, pathlen_max_limit]. The defaults straddle the
  // poisoned-announcement lengths LIFEGUARD emits (baseline prepend is 3
  // hops at the origin; deeper poisons and long alternate paths go over).
  std::size_t pathlen_min_limit = 5;
  std::size_t pathlen_max_limit = 8;

  // Preset used by bench/sec8_adversarial and LG_ADVERSARY: one prevalence
  // knob applied to every behavior class (0 = disabled clean plane).
  static AdversaryConfig at_prevalence(double prevalence);
  // Honor LG_ADVERSARY ("off"/"0" = disabled, else a prevalence in [0, 1])
  // plus the per-behavior overrides LG_ADVERSARY_SEED,
  // LG_ADVERSARY_PATHLEN, LG_ADVERSARY_DEFAULT_ROUTE,
  // LG_ADVERSARY_PEERLOCK, LG_ADVERSARY_DESTABILIZERS, and
  // LG_ADVERSARY_PATHLEN_LIMIT (sets min=max). Parsing is strict
  // (util/env_knobs.h): malformed or out-of-range values throw
  // std::invalid_argument naming the knob, never a silent fallback.
  static AdversaryConfig from_env(AdversaryConfig base);
  static AdversaryConfig from_env() { return from_env(AdversaryConfig{}); }
};

// Coarse role of an AS in the topology, the unit of behavior eligibility.
enum class Role : std::uint8_t { kTier1, kLargeTransit, kSmallTransit, kStub };

// The behaviors one AS exhibits. Plain data (no bgp types) so the adversary
// layer stays below lg_bgp; the engine and the oracle merge these bits into
// their own per-speaker configs.
struct Profile {
  // Reject announcements whose AS_PATH exceeds this many hops; 0 = no
  // filter.
  std::size_t path_length_limit = 0;
  // Data-plane default route toward the first provider (stubs): forwarding
  // survives the control-plane withdrawal a poison causes.
  bool default_route = false;
  // Peerlock/leak filter: drop paths where a locked AS appears behind a
  // neighbor that is neither locked itself nor the locked AS's customer.
  bool peerlock = false;
  // Plays strategic announce/withdraw sequences (see destabilizer.h).
  bool destabilizer = false;

  bool any() const noexcept {
    return path_length_limit != 0 || default_route || peerlock || destabilizer;
  }
};

// Role classification, a pure function of the immutable graph: tier-1 = no
// providers; stub = no customers (and not tier-1); large transit = the
// large side of topo::split_transits. Built once per world by whoever
// applies profiles; roles are indexed by the graph's AS index.
class RoleTable {
 public:
  explicit RoleTable(const topo::AsGraph& graph);
  Role role(AsId id) const;  // kStub for an AS not in the graph

 private:
  const topo::AsGraph* graph_;
  std::vector<Role> roles_;  // by AsGraph::index_of
};

// The Peerlock locked set: the provider-free clique, sorted ascending.
// Engine and oracle each compute this independently from the same graph.
std::vector<AsId> locked_ases(const topo::AsGraph& graph);

// current() is the plane instrumented code consults: the one installed on
// this thread by ScopedAdversaryPlane, else fallback().
class AdversaryPlane : public util::ThreadCurrent<AdversaryPlane> {
 public:
  explicit AdversaryPlane(AdversaryConfig cfg = {});
  AdversaryPlane(const AdversaryPlane&) = delete;
  AdversaryPlane& operator=(const AdversaryPlane&) = delete;

  // A process-wide, permanently disabled plane.
  static AdversaryPlane& fallback();

  bool enabled() const noexcept { return cfg_.enabled; }
  const AdversaryConfig& config() const noexcept { return cfg_; }

  // The behavior profile of `as`, a pure function of (seed, as, role,
  // prevalences). Safe to ask repeatedly from any thread; a disabled plane
  // always returns the empty profile.
  Profile profile_for(AsId as, Role role) const;

  // One engine reports the profile population it applied, so lg.adversary.*
  // accounting reflects behaviors that are actually wired into a world (the
  // profile_for draws themselves are pure and repeatable). Enabled only.
  void note_applied(std::size_t pathlen_filters, std::size_t default_routed,
                    std::size_t peerlock_filters, std::size_t destabilizers);

 private:
  AdversaryConfig cfg_;

  // Observability handles, resolved at construction — only for an enabled
  // plane, so adversary-free runs never even register lg.adversary.*.
  obs::Counter* c_pathlen_filters_ = nullptr;
  obs::Counter* c_default_routed_ = nullptr;
  obs::Counter* c_peerlock_filters_ = nullptr;
  obs::Counter* c_destabilizers_ = nullptr;
};

// Makes a plane thread-current, so every consumer constructed inside the
// scope (BgpEngine, ReferenceBgp, Lifeguard, a whole SimWorld) wires itself
// to it.
using ScopedAdversaryPlane = util::Scoped<AdversaryPlane>;

}  // namespace lg::adversary
