#include "bgp/engine.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "adversary/adversary_plane.h"
#include "faults/fault_plane.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace lg::bgp {

namespace {

// Rejects the configs the pump cannot model, naming the field. A zero
// quantum makes bucket_of() convert +inf to an integer; a zero link delay
// lets an export land in the frontier being pumped.
void validate(const EngineConfig& cfg) {
  util::require_period("EngineConfig::pump_quantum", cfg.pump_quantum);
  util::require_period("EngineConfig::link_delay_min", cfg.link_delay_min);
  const auto reject = [](const char* field, const char* want, double v) {
    throw std::invalid_argument(std::string("EngineConfig::") + field +
                                ": " + want + ", got " + std::to_string(v));
  };
  if (!(cfg.link_delay_max >= cfg.link_delay_min) ||
      !std::isfinite(cfg.link_delay_max)) {
    reject("link_delay_max", "must be finite and >= link_delay_min",
           cfg.link_delay_max);
  }
  if (!(cfg.mrai_jitter_frac >= 0.0 && cfg.mrai_jitter_frac <= 1.0)) {
    reject("mrai_jitter_frac", "must be in [0, 1]", cfg.mrai_jitter_frac);
  }
  if (!(cfg.default_mrai >= 0.0) || !std::isfinite(cfg.default_mrai)) {
    reject("default_mrai", "must be finite and >= 0", cfg.default_mrai);
  }
  if (cfg.world_threads > 1) {
    throw std::invalid_argument(
        "EngineConfig::world_threads must be 0 or 1: the frontier pump is "
        "single-threaded");
  }
}

}  // namespace

BgpEngine::BgpEngine(const topo::AsGraph& graph, util::Scheduler& sched,
                     EngineConfig cfg)
    : graph_(&graph), sched_(&sched), cfg_(cfg), rng_(cfg.seed, 0x62677065ULL) {
  validate(cfg);
  auto& reg = obs::MetricsRegistry::current();
  c_updates_sent_ = &reg.counter("lg.bgp.updates_sent");
  c_announces_sent_ = &reg.counter("lg.bgp.announces_sent");
  c_withdrawals_sent_ = &reg.counter("lg.bgp.withdrawals_sent");
  c_updates_delivered_ = &reg.counter("lg.bgp.updates_delivered");
  c_mrai_deferrals_ = &reg.counter("lg.bgp.mrai_deferrals");
  c_best_path_changes_ = &reg.counter("lg.bgp.best_path_changes");
  trace_ = &obs::TraceRing::current();
  spans_ = &obs::SpanRegistry::current();
  faults_ = &faults::FaultPlane::current();
  // These counters exist only under an enabled fault plane: it is the only
  // source of lost updates and, at MRAI >= 0.1 s, of updates held behind an
  // older one. Registering them unconditionally would add zero-valued rows
  // to every fault-free run report.
  if (faults_->enabled()) {
    c_updates_lost_ = &reg.counter("lg.bgp.updates_lost");
    c_updates_held_ = &reg.counter("lg.bgp.updates_held");
  }

  // The session layout: each AS's neighbors sorted by id (slot order) with
  // their relationships, concatenated with prefix-sum offsets, and the
  // graph-order -> slot permutation the export fan-out walks. Every link is
  // two directed sessions. Speakers get spans over their rows, so these
  // vectors are never resized after this block.
  const std::vector<AsId>& ids = graph.as_ids();
  const std::size_t n = ids.size();
  const std::size_t sessions = 2 * graph.num_links();
  sess_base_.reserve(n + 1);
  sess_base_.push_back(0);
  sess_nbr_.reserve(sessions);
  sess_rel_.reserve(sessions);
  export_slot_.resize(sessions);
  std::vector<std::pair<AsId, std::uint32_t>> by_id;  // (neighbor, position)
  for (std::size_t i = 0; i < n; ++i) {
    const auto& ns = graph.neighbors(ids[i]);
    by_id.clear();
    for (std::uint32_t k = 0; k < ns.size(); ++k) {
      by_id.emplace_back(ns[k].id, k);
    }
    std::sort(by_id.begin(), by_id.end());
    const std::uint32_t base = sess_base_.back();
    for (std::uint32_t slot = 0; slot < by_id.size(); ++slot) {
      const std::uint32_t k = by_id[slot].second;
      sess_nbr_.push_back(ns[k].id);
      sess_rel_.push_back(ns[k].rel);
      export_slot_[base + k] = slot;
    }
    sess_base_.push_back(static_cast<std::uint32_t>(sess_nbr_.size()));
  }
  speakers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t base = sess_base_[i];
    const std::size_t deg = sess_base_[i + 1] - base;
    speakers_.push_back(BgpSpeaker(ids[i], graph,
                                   {sess_nbr_.data() + base, deg},
                                   {sess_rel_.data() + base, deg},
                                   prefix_ids_));
  }
  sent_by_.assign(n, 0);
  best_changes_.assign(n, 0);

  // Peerlock locked set: computed unconditionally (cheap const queries
  // against the immutable graph) so every speaker always holds the pointer;
  // the filter is inert unless an adversary profile turns it on.
  locked_ases_ = adversary::locked_ases(graph);
  for (auto& sp : speakers_) sp.set_locked_ases(&locked_ases_);
  // Adversary plane, same resolution idiom as the fault plane above. With
  // the plane enabled, merge every AS's hash-derived behavior profile into
  // its speaker config; check::ReferenceBgp derives the same profiles
  // independently, which is what keeps the differential oracle authoritative
  // under adversarial policies.
  adversary_ = &adversary::AdversaryPlane::current();
  if (adversary_->enabled()) {
    const adversary::RoleTable roles(graph);
    std::size_t n_pathlen = 0, n_defroute = 0, n_peerlock = 0, n_destab = 0;
    for (auto& sp : speakers_) {
      const adversary::Profile p =
          adversary_->profile_for(sp.id(), roles.role(sp.id()));
      if (!p.any()) continue;
      auto& scfg = sp.mutable_config();
      if (p.path_length_limit != 0) {
        scfg.path_length_limit = p.path_length_limit;
        ++n_pathlen;
      }
      if (p.default_route) {
        scfg.has_default_route = true;
        ++n_defroute;
      }
      if (p.peerlock) {
        scfg.peerlock_filter = true;
        ++n_peerlock;
      }
      if (p.destabilizer) ++n_destab;
    }
    adversary_->note_applied(n_pathlen, n_defroute, n_peerlock, n_destab);
  }
}

BgpEngine::~BgpEngine() = default;

BgpSpeaker& BgpEngine::speaker(AsId id) {
  return speakers_[graph_->checked_index(id)];
}

const BgpSpeaker& BgpEngine::speaker(AsId id) const {
  return speakers_[graph_->checked_index(id)];
}

void BgpEngine::remove_observer(RouteObserver* observer) {
  observers_.erase(std::remove(observers_.begin(), observers_.end(), observer),
                   observers_.end());
}

void BgpEngine::originate(AsId as, const Prefix& prefix, OriginPolicy policy) {
  const std::uint32_t i = graph_->checked_index(as);
  const std::uint32_t pid = prefix_ids_.intern(prefix);
  speakers_[i].set_origin_policy(prefix, std::move(policy));
  schedule_exports(i, pid, speakers_[i].state_at(pid));
}

void BgpEngine::withdraw(AsId as, const Prefix& prefix) {
  const std::uint32_t i = graph_->checked_index(as);
  const std::uint32_t pid = prefix_ids_.intern(prefix);
  speakers_[i].clear_origin_policy(prefix);
  schedule_exports(i, pid, speakers_[i].state_at(pid));
}

void BgpEngine::schedule_exports(std::uint32_t fi, std::uint32_t pid,
                                 BgpSpeaker::PrefixState* st) {
  const std::uint32_t base = sess_base_[fi];
  const std::uint32_t end = sess_base_[fi + 1];
  if (base == end) return;
  MraiState* mrai = mrai_table(pid).data() + base;
  for (std::uint32_t k = base; k < end; ++k) {
    const std::uint32_t slot = export_slot_[k];
    try_send(fi, slot, pid, st, mrai[slot]);
  }
}

double BgpEngine::mrai_for(std::uint32_t fi) {
  const double own = speakers_[fi].config().mrai_seconds;
  const double base = own >= 0.0 ? own : cfg_.default_mrai;
  const double lo = base * (1.0 - cfg_.mrai_jitter_frac);
  return rng_.uniform(lo, base);
}

std::vector<BgpEngine::MraiState>& BgpEngine::mrai_table(std::uint32_t pid) {
  if (pid >= mrai_.size()) mrai_.resize(pid + 1);
  std::vector<MraiState>& table = mrai_[pid];
  if (table.empty()) table.resize(sess_nbr_.size());
  return table;
}

BgpEngine::MraiState& BgpEngine::mrai_entry(std::uint32_t fi,
                                            std::uint32_t slot,
                                            std::uint32_t pid) {
  return mrai_table(pid)[sess_base_[fi] + slot];
}

void BgpEngine::try_send(std::uint32_t fi, std::uint32_t slot,
                         std::uint32_t pid) {
  try_send(fi, slot, pid, speakers_[fi].state_at(pid),
           mrai_entry(fi, slot, pid));
}

void BgpEngine::try_send(std::uint32_t fi, std::uint32_t slot,
                         std::uint32_t pid, BgpSpeaker::PrefixState* st,
                         MraiState& mrai) {
  const double now = sched_->now();
  if (now >= mrai.ready_at) {
    send_now(fi, slot, pid, st, mrai);
    return;
  }
  if (!mrai.flush_scheduled) {
    mrai.flush_scheduled = true;
    c_mrai_deferrals_->inc();
    trace_->record(now, obs::TraceKind::kMraiDefer, graph_->as_ids()[fi],
                   sess_nbr_[sess_base_[fi] + slot], mrai.ready_at - now);
    sched_->at(mrai.ready_at, [this, fi, slot, pid] {
      MraiState& m = mrai_entry(fi, slot, pid);
      m.flush_scheduled = false;
      send_now(fi, slot, pid, speakers_[fi].state_at(pid), m);
    });
  }
}

void BgpEngine::send_now(std::uint32_t fi, std::uint32_t slot,
                         std::uint32_t pid, BgpSpeaker::PrefixState* st,
                         MraiState& mrai) {
  const AsId from = graph_->as_ids()[fi];
  const AsId to = sess_nbr_[sess_base_[fi] + slot];
  const double now = sched_->now();
  // Fault plane: a reset session sends nothing. Retry once it is back up —
  // the diff against Adj-RIB-Out then sends whatever is current, so the
  // control plane stays eventually consistent through the outage.
  if (faults_->enabled() && !faults_->session_up(from, to, now)) {
    faults_->note_session_hit(from, to, now);
    const double up = faults_->session_restored_at(from, to, now);
    sched_->at(up + 1e-3, [this, fi, slot, pid] { try_send(fi, slot, pid); });
    return;
  }
  if (st == nullptr) return;  // no state: nothing to say, nothing said
  BgpSpeaker& sender = speakers_[fi];
  std::optional<BgpSpeaker::ExportUnit> current = sender.export_unit(*st, slot);
  if (sender.adj_out_state(*st, slot) ==
      BgpSpeaker::AdjOutState::kNeverAdvertised) {
    if (!current) return;  // never advertised, nothing now
  } else if (sender.adj_out_equals(*st, slot, current)) {
    return;  // nothing new to say (a withdrawal gets past only if advertised)
  }
  // Fault plane: decide loss BEFORE recording the Adj-RIB-Out. A lost update
  // must leave adj-out untouched, or the retransmit scheduled here would see
  // "already advertised" and never re-send.
  if (faults_->enabled() && faults_->lose_update(from, to, now)) {
    mrai.ready_at = now + mrai_for(fi);
    ++total_messages_;
    ++sent_by_[fi];
    c_updates_sent_->inc();
    // A lost update is neither an announce nor a withdrawal on the wire;
    // book it under its own counter so sent == announces + withdrawals +
    // lost stays an identity, and leave a trace of the eaten send.
    c_updates_lost_->inc();
    trace_->record(now, obs::TraceKind::kUpdateLost, from, to);
    sched_->after(faults_->config().update_retransmit_seconds,
                  [this, fi, slot, pid] { try_send(fi, slot, pid); });
    return;
  }
  sender.record_advertised(*st, slot, current);
  mrai.ready_at = now + mrai_for(fi);

  ++total_messages_;
  ++sent_by_[fi];
  c_updates_sent_->inc();
  UpdateMessage msg;
  msg.from = from;
  msg.to = to;
  msg.prefix = prefix_ids_.prefix(pid);
  if (current) {
    msg.type = MsgType::kAnnounce;
    msg.path = std::move(current->path);
    msg.communities = std::move(current->communities);
    msg.avoid_hint = current->avoid_hint;
    c_announces_sent_->inc();
    trace_->record(now, obs::TraceKind::kUpdateSent, from, to);
  } else {
    msg.type = MsgType::kWithdraw;
    c_withdrawals_sent_->inc();
    trace_->record(now, obs::TraceKind::kWithdrawSent, from, to);
  }
  // The delivery time is final here; the pump never revisits it.
  double due = now + link_delay();
  if (faults_->enabled()) {
    due += faults_->update_delay(from, to, now);
    // Fault plane: a session down at the arrival instant holds the update
    // until it is back up, modelling TCP/session recovery.
    for (;;) {
      const double at = static_cast<double>(bucket_of(due)) * cfg_.pump_quantum;
      if (faults_->session_up(from, to, at)) break;
      faults_->note_session_hit(from, to, now);
      due = faults_->session_restored_at(from, to, at) + 1e-3;
    }
  }
  // TCP order: never due before the previous update on this (session,
  // prefix), so a newer update cannot overtake an older one at any MRAI.
  if (due < mrai.last_due) {
    due = mrai.last_due;
    if (c_updates_held_ != nullptr) {
      c_updates_held_->inc();
      trace_->record(now, obs::TraceKind::kUpdateHeld, from, to);
    }
  }
  mrai.last_due = due;
  delivery_scheduled();
  enqueue_delivery(due, {std::move(msg), pid});
}

void BgpEngine::delivery_scheduled() {
  if (++in_flight_ == 1 && spans_->enabled()) {
    pump_span_ = spans_->begin(sched_->now(), "bgp.pump");
    pump_delivered_start_ = delivered_total_;
  }
}

void BgpEngine::delivery_done() {
  if (--in_flight_ == 0 && pump_span_ != 0) {
    spans_->annotate(
        pump_span_, "updates_delivered",
        static_cast<double>(delivered_total_ - pump_delivered_start_));
    spans_->end(pump_span_, sched_->now());
    pump_span_ = 0;
  }
}

std::int64_t BgpEngine::bucket_of(double due) const {
  return static_cast<std::int64_t>(std::ceil(due / cfg_.pump_quantum));
}

void BgpEngine::enqueue_delivery(double due, Delivery d) {
  // One pump tick per live bucket: later arrivals for the same quantum just
  // append. A bucket cannot be resurrected after its tick ran — anything
  // enqueued *during* the tick at the bucket's own instant lands back in the
  // map and re-schedules, and the scheduler's batch extraction runs it in
  // the same step, preserving at-that-instant delivery.
  const std::int64_t bucket = bucket_of(due);
  const auto [it, inserted] = frontier_.try_emplace(bucket);
  if (inserted) it->second = msg_pool_.acquire();
  it->second.push_back(std::move(d));
  if (inserted) {
    sched_->at(static_cast<double>(bucket) * cfg_.pump_quantum,
               [this, bucket] { pump_frontier(bucket); });
  }
}

void BgpEngine::deliver_to(std::uint32_t r, std::size_t lo, std::size_t hi,
                           std::vector<Delivery>& batch, double now) {
  BgpSpeaker& receiver = speakers_[r];
  // With a single message there is nothing to net out: the frontier outcome
  // is exactly the per-event outcome, so skip the best-route snapshot and
  // the post-loop value comparison (the dominant case in sparse phases of
  // convergence, where copying Routes would swamp the import itself).
  const bool single = hi - lo == 1;
  touches_.clear();
  for (std::size_t k = lo; k < hi; ++k) {
    const Delivery& d = batch[static_cast<std::uint32_t>(pump_order_[k])];
    const UpdateMessage& msg = d.msg;
    // Resolve the receiver's state once per prefix, on first touch, and
    // snapshot the pre-frontier best there, so the export step below can
    // detect *net* route changes across the frontier.
    std::size_t touch = 0;
    while (touch < touches_.size() && touches_[touch].pid != d.pid) ++touch;
    if (touch == touches_.size()) {
      BgpSpeaker::PrefixState& st = receiver.state_for(d.pid);
      touches_.push_back({d.pid, &st, single ? std::nullopt : st.best, false});
    }
    PrefixTouch& t = touches_[touch];
    const bool changed = receiver.process_update(*t.state, msg, now);
    last_activity_ = now;
    ++delivered_total_;
    c_updates_delivered_->inc();
    trace_->record(now, obs::TraceKind::kUpdateDelivered, msg.from, msg.to);
    if (changed) {
      ++best_changes_[r];
      c_best_path_changes_->inc();
      trace_->record(now, obs::TraceKind::kBestPathChange, msg.to);
      t.changed = true;
    }
    // Flap damping: if this session is now suppressed, re-evaluate once the
    // penalty decays to the reuse threshold.
    if (receiver.config().damping_enabled) {
      if (const auto delay =
              receiver.damping_reuse_delay(msg.prefix, msg.from, now)) {
        const AsId from = msg.from;
        const std::uint32_t pid = d.pid;
        sched_->after(*delay + 0.001, [this, r, from, pid] {
          BgpSpeaker& spk = speakers_[r];
          if (spk.recheck_damping(prefix_ids_.prefix(pid), from,
                                  sched_->now())) {
            ++best_changes_[r];
            c_best_path_changes_->inc();
            trace_->record(sched_->now(), obs::TraceKind::kBestPathChange,
                           graph_->as_ids()[r]);
            BgpSpeaker::PrefixState* st = spk.state_at(pid);
            notify(r, pid, *st);
            schedule_exports(r, pid, st);
          }
        });
      }
    }
  }
  // Notify + export once per prefix with a *net* best-route change: a
  // frontier that flip-flops a best route inside one quantum produces no
  // spurious route event and no export churn.
  for (const PrefixTouch& t : touches_) {
    if (!t.changed || (!single && t.state->best == t.before)) continue;
    notify(r, t.pid, *t.state);
    schedule_exports(r, t.pid, t.state);
  }
}

void BgpEngine::pump_frontier(std::int64_t bucket) {
  const auto fit = frontier_.find(bucket);
  if (fit == frontier_.end()) return;
  std::vector<Delivery> batch = std::move(fit->second);
  frontier_.erase(fit);
  const double now = sched_->now();

  // Receivers in AS-index order, each receiver's messages in arrival order:
  // one sort of (receiver index << 32 | arrival index) keys. Exports land in
  // later buckets, so applying each receiver's side effects in place cannot
  // reorder anything this frontier still has to deliver.
  pump_order_.clear();
  for (std::uint32_t i = 0; i < batch.size(); ++i) {
    const std::uint64_t r = graph_->checked_index(batch[i].msg.to);
    pump_order_.push_back(r << 32 | i);
  }
  std::sort(pump_order_.begin(), pump_order_.end());

  for (std::size_t lo = 0; lo < pump_order_.size();) {
    const auto r = static_cast<std::uint32_t>(pump_order_[lo] >> 32);
    std::size_t hi = lo + 1;
    while (hi < pump_order_.size() && (pump_order_[hi] >> 32) == r) ++hi;
    deliver_to(r, lo, hi, batch, now);
    lo = hi;
  }
  // Messages leave flight only after the cascade above: any exports this
  // frontier triggered are already counted, so a still-busy pump span stays
  // open across back-to-back frontiers.
  for (std::size_t n = batch.size(); n > 0; --n) delivery_done();
  msg_pool_.release(std::move(batch));
}

void BgpEngine::notify(std::uint32_t r, std::uint32_t pid,
                       const BgpSpeaker::PrefixState& st) {
  if (observers_.empty()) return;
  RouteEvent event;
  event.time = sched_->now();
  event.as = graph_->as_ids()[r];
  event.prefix = prefix_ids_.prefix(pid);
  event.best = st.best;
  for (RouteObserver* obs : observers_) obs->on_route_change(event);
}

void BgpEngine::reset_counters() {
  total_messages_ = 0;
  last_activity_ = sched_->now();
  std::fill(sent_by_.begin(), sent_by_.end(), 0);
  std::fill(best_changes_.begin(), best_changes_.end(), 0);
  // Re-base the pump delta with the phase reset; in-flight count and any
  // open pump span are untouched (messages stay in flight regardless).
  delivered_total_ = 0;
  pump_delivered_start_ = 0;
  // Keep the registry's lg.bgp.* counters in lockstep with the engine-local
  // ones: a run report generated after a reset should only show the phase
  // since the reset, not silently include setup-phase convergence traffic.
  c_updates_sent_->reset();
  c_announces_sent_->reset();
  c_withdrawals_sent_->reset();
  c_updates_delivered_->reset();
  c_mrai_deferrals_->reset();
  c_best_path_changes_->reset();
  if (c_updates_lost_ != nullptr) c_updates_lost_->reset();
  if (c_updates_held_ != nullptr) c_updates_held_->reset();
}

void BgpEngine::reexport_all() {
  const std::vector<std::uint32_t> order = prefix_ids_.in_prefix_order();
  for (std::uint32_t i = 0; i < speakers_.size(); ++i) {
    for (const std::uint32_t pid : order) {
      if (auto* st = speakers_[i].state_at(pid)) schedule_exports(i, pid, st);
    }
  }
}

BgpEngine::RibMemoryTotals BgpEngine::rib_memory() const {
  RibMemoryTotals t;
  for (const BgpSpeaker& spk : speakers_) {
    const BgpSpeaker::RibMemory m = spk.rib_memory();
    t.bytes += m.bytes;
    t.routes += m.routes;
    t.adj_out_slots += m.adj_out_slots;
    t.prefix_states += m.prefixes;
  }
  // Engine-side per-session state: flat MRAI tables and the session layout
  // the speakers share, fan-out permutation included.
  t.bytes += sess_base_.capacity() * sizeof(std::uint32_t) +
             sess_nbr_.capacity() * sizeof(AsId) +
             sess_rel_.capacity() * sizeof(topo::Rel) +
             export_slot_.capacity() * sizeof(std::uint32_t);
  t.bytes += prefix_ids_.bytes() + mrai_.capacity() * sizeof(mrai_[0]);
  for (const auto& table : mrai_) {
    t.bytes += table.capacity() * sizeof(MraiState);
  }
  t.bytes += msg_pool_.spare_bytes();
  return t;
}

std::uint64_t BgpEngine::messages_sent_by(AsId as) const {
  const std::uint32_t idx = graph_->index_of(as);
  return idx == topo::AsGraph::kNoIndex ? 0 : sent_by_[idx];
}

std::uint64_t BgpEngine::best_changes_of(AsId as) const {
  const std::uint32_t idx = graph_->index_of(as);
  return idx == topo::AsGraph::kNoIndex ? 0 : best_changes_[idx];
}

std::uint64_t BgpEngine::pathlen_rejections() const {
  std::uint64_t n = 0;
  for (const auto& sp : speakers_) n += sp.rejected_pathlen();
  return n;
}

std::uint64_t BgpEngine::peerlock_rejections() const {
  std::uint64_t n = 0;
  for (const auto& sp : speakers_) n += sp.rejected_peerlock();
  return n;
}

}  // namespace lg::bgp
