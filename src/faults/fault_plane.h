// lg::faults — deterministic fault injection for the *infrastructure* the
// simulator itself runs on. The dataplane's FailureInjector models the
// outages LIFEGUARD exists to repair; the FaultPlane models everything that
// misbehaves *around* those outages while the system is trying to work:
// flapping BGP sessions that eat or delay updates, ICMP probes lost on the
// wire, vantage points dropping out mid-isolation. PAPER.md §7.1 only
// studies poisoning anomalies on a clean substrate — this plane lets the
// robustness harness (bench/sec7_robustness) measure location accuracy and
// repair success while the measurement and control planes degrade.
//
// Determinism is the design center. Every verdict is derived by *stateless
// hashing* (seed, fault kind, subject key, epoch/sequence) rather than a
// shared sequential RNG stream:
//  * time-windowed faults (session resets, vantage dropout) are pure
//    functions of (seed, subject, epoch index) — query order, query count,
//    and which thread asks are all irrelevant;
//  * per-event faults (update loss/delay, probe loss) consume a per-subject
//    sequence counter, so adding traffic on one session never perturbs the
//    fault pattern seen by another.
// Consequence: a faulty run is bit-identical for a given seed under any
// LG_THREADS value (each trial owns its plane), and a disabled plane makes
// every hook a single branch — existing benches are byte-for-byte unchanged.
//
// Wiring is util/thread_current.h's idiom, shared with lg::obs: consumers
// (BgpEngine, Prober, Lifeguard) resolve FaultPlane::current() at
// construction; harnesses install a plane with ScopedFaultPlane for the
// lifetime of the world they build. The fallback plane is disabled.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "topology/as_graph.h"
#include "util/thread_current.h"

namespace lg::obs {
class Counter;
class TraceRing;
}  // namespace lg::obs

namespace lg::faults {

using topo::AsId;

struct FaultConfig {
  // Master switch. A disabled plane never draws, never counts, never
  // perturbs consumers — required for the "faults off = byte-identical
  // benches" guarantee.
  bool enabled = false;
  std::uint64_t seed = 0x6661756cU;  // "faul"

  // ---- BGP control plane ----
  // Per-update silent loss (the update is re-exported after
  // update_retransmit_seconds, modeling TCP/session-level recovery, so the
  // control plane stays eventually consistent).
  double update_loss_prob = 0.0;
  double update_retransmit_seconds = 30.0;
  // Per-update extra propagation delay: with probability update_delay_prob
  // an update takes up to update_delay_max_seconds longer.
  double update_delay_prob = 0.0;
  double update_delay_max_seconds = 0.0;
  // Session resets: simulated time is cut into epochs of
  // session_reset_period seconds; each (session, epoch) pair independently
  // resets with probability session_reset_prob and stays down for the first
  // session_down_seconds of the epoch. 0 period disables resets.
  double session_reset_period = 0.0;
  double session_reset_prob = 0.0;
  double session_down_seconds = 30.0;

  // ---- Measurement plane ----
  // Per-probe observation loss (the prober never sees the reply).
  double probe_loss_prob = 0.0;
  // Vantage-point dropout, epoch-windowed like session resets: a dropped-out
  // VP neither sources probes nor receives (spoofed) replies.
  double vantage_dropout_period = 0.0;
  double vantage_dropout_prob = 0.0;
  double vantage_down_seconds = 120.0;

  // Preset used by the robustness bench and LG_FAULTS: scale every fault
  // class by one intensity knob in [0, 1] (0 = disabled clean plane).
  static FaultConfig at_intensity(double intensity);
  // Honor LG_FAULTS ("off"/"0" = disabled, else an intensity in [0, 1])
  // and LG_FAULTS_SEED (decimal seed override). Unset = disabled default.
  // Parsing is strict (util/env_knobs.h): a malformed or out-of-range value
  // throws std::invalid_argument naming the knob.
  static FaultConfig from_env();
};

// current() is the plane instrumented code consults: the one installed on
// this thread by ScopedFaultPlane, else fallback().
class FaultPlane : public util::ThreadCurrent<FaultPlane> {
 public:
  explicit FaultPlane(FaultConfig cfg = {});
  FaultPlane(const FaultPlane&) = delete;
  FaultPlane& operator=(const FaultPlane&) = delete;

  // A process-wide, permanently disabled plane.
  static FaultPlane& fallback();

  bool enabled() const noexcept { return cfg_.enabled; }
  const FaultConfig& config() const noexcept { return cfg_; }

  // ---- BGP session hooks (BgpEngine) ----
  // Is the from->to session up at simulated time `now`? Pure function of
  // (seed, session, epoch) — safe to ask repeatedly.
  bool session_up(AsId from, AsId to, double now) const;
  // Earliest time >= now at which the session is up (`now` itself if up).
  double session_restored_at(AsId from, AsId to, double now) const;
  // Should this update (the session's next in sequence) be silently lost?
  // Consumes the session's fault-sequence counter; counts + traces.
  bool lose_update(AsId from, AsId to, double now);
  // Extra propagation delay for this update (0.0 for most updates).
  double update_delay(AsId from, AsId to, double now);

  // ---- Measurement hooks (Prober) ----
  // Should this probe's observation be lost? Consumes the source AS's
  // probe-sequence counter; counts + traces.
  bool lose_probe(AsId src_as, double now);
  // Is the vantage point hosted in `vp_as` alive at `now`? Pure function of
  // (seed, vp, epoch); a down VP sources nothing and hears nothing.
  bool vantage_up(AsId vp_as, double now) const;

  // Consumers report that they acted on a down session / vantage point, so
  // lg.faults.* accounting reflects faults that actually bit (the up/down
  // tests themselves are pure and repeatable).
  void note_session_hit(AsId from, AsId to, double now);
  void note_vantage_hit(AsId vp_as, double now);

  // Total faults injected so far (drops + delays + dropout hits), for
  // harness sanity checks.
  std::uint64_t injected() const noexcept { return injected_; }

 private:
  // Epoch-windowed downtime test shared by sessions and vantage points.
  bool down_in_window(std::uint64_t kind, std::uint64_t key, double now,
                      double period, double prob, double down_seconds) const;
  double restored_at(std::uint64_t kind, std::uint64_t key, double now,
                     double period, double prob, double down_seconds) const;
  std::uint64_t next_seq(std::uint64_t key);

  FaultConfig cfg_;
  std::uint64_t injected_ = 0;
  // Per-subject fault-sequence counters (session id / source AS). The map
  // only grows with distinct subjects, not with traffic.
  std::unordered_map<std::uint64_t, std::uint64_t> seq_;

  // Observability handles, resolved at construction — only for an enabled
  // plane, so fault-free runs never even register lg.faults.* metrics.
  obs::Counter* c_updates_dropped_ = nullptr;
  obs::Counter* c_updates_delayed_ = nullptr;
  obs::Counter* c_session_hits_ = nullptr;
  obs::Counter* c_probes_dropped_ = nullptr;
  obs::Counter* c_vantage_hits_ = nullptr;
  obs::TraceRing* trace_ = nullptr;
};

// Makes a plane thread-current, so every consumer constructed inside the
// scope (BgpEngine, Prober, Lifeguard, a whole SimWorld) wires itself to it.
using ScopedFaultPlane = util::Scoped<FaultPlane>;

}  // namespace lg::faults
