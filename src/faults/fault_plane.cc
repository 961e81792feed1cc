#include "faults/fault_plane.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/env_knobs.h"
#include "util/rng.h"

namespace lg::faults {

namespace {

// Distinct tags per fault class keep the hash streams independent even for
// identical subject keys.
constexpr std::uint64_t kTagSession = 0x5345535349f4a001ULL;
constexpr std::uint64_t kTagUpdateLoss = 0x55504c4f53530002ULL;
constexpr std::uint64_t kTagUpdateDelayP = 0x5550444c59500003ULL;
constexpr std::uint64_t kTagUpdateDelayV = 0x5550444c59560004ULL;
constexpr std::uint64_t kTagProbeLoss = 0x50524f424c530005ULL;
constexpr std::uint64_t kTagVantage = 0x56414e5441470006ULL;

std::uint64_t session_key(AsId from, AsId to) noexcept {
  return (static_cast<std::uint64_t>(from) << 32) | to;
}

}  // namespace

FaultConfig FaultConfig::at_intensity(double intensity) {
  const double f = std::clamp(intensity, 0.0, 1.0);
  FaultConfig cfg;
  cfg.enabled = f > 0.0;
  cfg.update_loss_prob = 0.05 * f;
  cfg.update_retransmit_seconds = 30.0;
  cfg.update_delay_prob = 0.20 * f;
  cfg.update_delay_max_seconds = 10.0 * f;
  cfg.session_reset_period = 600.0;
  cfg.session_reset_prob = 0.10 * f;
  cfg.session_down_seconds = 20.0 + 40.0 * f;
  cfg.probe_loss_prob = 0.15 * f;
  cfg.vantage_dropout_period = 600.0;
  cfg.vantage_dropout_prob = 0.10 * f;
  cfg.vantage_down_seconds = 120.0;
  return cfg;
}

FaultConfig FaultConfig::from_env() {
  FaultConfig cfg;  // disabled default
  if (const char* v = std::getenv("LG_FAULTS")) {
    if (std::strcmp(v, "off") != 0 && std::strcmp(v, "0") != 0) {
      cfg = at_intensity(util::env_fraction_knob("LG_FAULTS", 0.0));
    }
  }
  cfg.seed = util::env_u64_knob("LG_FAULTS_SEED", cfg.seed);
  return cfg;
}

FaultPlane::FaultPlane(FaultConfig cfg) : cfg_(cfg) {
  // A disabled plane registers nothing: the lg.faults.* metrics only appear
  // in a run's report when a fault plane was actually enabled, keeping
  // fault-free bench reports byte-identical to a build without this layer.
  if (cfg_.enabled) {
    auto& reg = obs::MetricsRegistry::current();
    c_updates_dropped_ = &reg.counter("lg.faults.updates_dropped");
    c_updates_delayed_ = &reg.counter("lg.faults.updates_delayed");
    c_session_hits_ = &reg.counter("lg.faults.session_down_hits");
    c_probes_dropped_ = &reg.counter("lg.faults.probes_dropped");
    c_vantage_hits_ = &reg.counter("lg.faults.vantage_down_hits");
  }
  trace_ = &obs::TraceRing::current();
}

// Shared by every thread that never installed a plane. Its obs handles
// resolve against whatever registry is current at first use, but a
// disabled plane never touches them.
FaultPlane& FaultPlane::fallback() {
  static FaultPlane plane{FaultConfig{}};
  return plane;
}

bool FaultPlane::down_in_window(std::uint64_t kind, std::uint64_t key,
                                double now, double period, double prob,
                                double down_seconds) const {
  if (!cfg_.enabled || period <= 0.0 || prob <= 0.0 || now < 0.0) return false;
  const auto epoch = static_cast<std::uint64_t>(now / period);
  if (util::hash_unit(cfg_.seed, kind, key, epoch) >= prob) return false;
  // The fault occupies the start of the epoch; offset the start slightly by
  // a second hash so faults across subjects do not align on epoch edges.
  const double slack = period - std::min(down_seconds, period);
  const double start =
      static_cast<double>(epoch) * period +
      slack * util::hash_unit(cfg_.seed, kind ^ 0x5aULL, key, epoch);
  return now >= start && now < start + std::min(down_seconds, period);
}

double FaultPlane::restored_at(std::uint64_t kind, std::uint64_t key,
                               double now, double period, double prob,
                               double down_seconds) const {
  if (!down_in_window(kind, key, now, period, prob, down_seconds)) return now;
  const auto epoch = static_cast<std::uint64_t>(now / period);
  const double slack = period - std::min(down_seconds, period);
  const double start =
      static_cast<double>(epoch) * period +
      slack * util::hash_unit(cfg_.seed, kind ^ 0x5aULL, key, epoch);
  return start + std::min(down_seconds, period);
}

std::uint64_t FaultPlane::next_seq(std::uint64_t key) { return seq_[key]++; }

bool FaultPlane::session_up(AsId from, AsId to, double now) const {
  return !down_in_window(kTagSession, session_key(from, to), now,
                         cfg_.session_reset_period, cfg_.session_reset_prob,
                         cfg_.session_down_seconds);
}

double FaultPlane::session_restored_at(AsId from, AsId to, double now) const {
  return restored_at(kTagSession, session_key(from, to), now,
                     cfg_.session_reset_period, cfg_.session_reset_prob,
                     cfg_.session_down_seconds);
}

bool FaultPlane::lose_update(AsId from, AsId to, double now) {
  if (!cfg_.enabled || cfg_.update_loss_prob <= 0.0) return false;
  const std::uint64_t key = session_key(from, to);
  if (util::hash_unit(cfg_.seed, kTagUpdateLoss, key, next_seq(key)) >=
      cfg_.update_loss_prob) {
    return false;
  }
  ++injected_;
  c_updates_dropped_->inc();
  trace_->record(now, obs::TraceKind::kFaultUpdateDropped, from, to);
  return true;
}

double FaultPlane::update_delay(AsId from, AsId to, double now) {
  if (!cfg_.enabled || cfg_.update_delay_prob <= 0.0 ||
      cfg_.update_delay_max_seconds <= 0.0) {
    return 0.0;
  }
  const std::uint64_t key = session_key(from, to);
  const std::uint64_t n = next_seq(key ^ kTagUpdateDelayP);
  if (util::hash_unit(cfg_.seed, kTagUpdateDelayP, key, n) >=
      cfg_.update_delay_prob) {
    return 0.0;
  }
  const double delay = cfg_.update_delay_max_seconds *
                       util::hash_unit(cfg_.seed, kTagUpdateDelayV, key, n);
  ++injected_;
  c_updates_delayed_->inc();
  trace_->record(now, obs::TraceKind::kFaultUpdateDelayed, from, to, delay);
  return delay;
}

bool FaultPlane::lose_probe(AsId src_as, double now) {
  if (!cfg_.enabled || cfg_.probe_loss_prob <= 0.0) return false;
  const std::uint64_t key = src_as;
  const std::uint64_t n = next_seq(key ^ kTagProbeLoss);
  if (util::hash_unit(cfg_.seed, kTagProbeLoss, key, n) >=
      cfg_.probe_loss_prob) {
    return false;
  }
  ++injected_;
  c_probes_dropped_->inc();
  trace_->record(now, obs::TraceKind::kFaultProbeDropped, src_as);
  return true;
}

bool FaultPlane::vantage_up(AsId vp_as, double now) const {
  return !down_in_window(kTagVantage, vp_as, now, cfg_.vantage_dropout_period,
                         cfg_.vantage_dropout_prob, cfg_.vantage_down_seconds);
}

void FaultPlane::note_session_hit(AsId from, AsId to, double now) {
  if (!cfg_.enabled) return;
  ++injected_;
  c_session_hits_->inc();
  trace_->record(now, obs::TraceKind::kFaultSessionDown, from, to);
}

void FaultPlane::note_vantage_hit(AsId vp_as, double now) {
  if (!cfg_.enabled) return;
  ++injected_;
  c_vantage_hits_->inc();
  trace_->record(now, obs::TraceKind::kFaultVantageDown, vp_as);
}

}  // namespace lg::faults
