#include "bgp/speaker.h"

#include <algorithm>
#include <cmath>

namespace lg::bgp {

namespace {
// The first entry of a (key, value) side-table sorted by key whose key is
// not below `key`.
template <class Table, class Key>
auto lower_entry(Table& t, Key key) {
  return std::lower_bound(
      t.begin(), t.end(), key,
      [](const auto& e, Key k) { return e.first < k; });
}
}  // namespace

BgpSpeaker::BgpSpeaker(AsId id, const topo::AsGraph& graph,
                       std::span<const AsId> nbr_ids,
                       std::span<const topo::Rel> nbr_rel, PrefixIds& ids)
    : id_(id),
      graph_(&graph),
      nbr_ids_(nbr_ids),
      nbr_rel_(nbr_rel),
      ids_(&ids) {}

std::uint32_t BgpSpeaker::slot_of(AsId neighbor) const {
  const auto it =
      std::lower_bound(nbr_ids_.begin(), nbr_ids_.end(), neighbor);
  if (it == nbr_ids_.end() || *it != neighbor) return kNoSlot;
  return static_cast<std::uint32_t>(it - nbr_ids_.begin());
}

std::optional<topo::Rel> BgpSpeaker::rel_of(AsId neighbor) const {
  const std::uint32_t slot = slot_of(neighbor);
  if (slot == kNoSlot) return std::nullopt;
  return nbr_rel_[slot];
}

const AvoidHint* BgpSpeaker::hint_at(const HintTable& t, std::uint32_t slot) {
  const auto it = lower_entry(t, slot);
  if (it == t.end() || it->first != slot) return nullptr;
  return &it->second;
}

void BgpSpeaker::set_hint(HintTable& t, std::uint32_t slot,
                          const std::optional<AvoidHint>& hint) {
  const auto it = lower_entry(t, slot);
  const bool found = it != t.end() && it->first == slot;
  if (hint) {
    if (found) {
      it->second = *hint;
    } else {
      t.insert(it, {slot, *hint});
    }
  } else if (found) {
    t.erase(it);
  }
}

BgpSpeaker::DampingState* BgpSpeaker::damping_of(const PrefixState& st,
                                                 AsId neighbor) {
  if (st.cold == nullptr) return nullptr;
  const auto it = lower_entry(st.cold->damping, neighbor);
  if (it == st.cold->damping.end() || it->first != neighbor) return nullptr;
  return &it->second;
}

BgpSpeaker::PrefixState& BgpSpeaker::new_state(std::uint32_t pid) {
  if (pid >= states_.size()) states_.resize(pid + 1);
  states_[pid] = std::make_unique<PrefixState>();
  len_present_[ids_->prefix(pid).length()] = true;
  return *states_[pid];
}

void BgpSpeaker::set_origin_policy(const Prefix& prefix, OriginPolicy policy) {
  auto& st = state_for(prefix);
  if (st.cold == nullptr) st.cold = std::make_unique<ColdState>();
  st.cold->origin = std::move(policy);
  // Intern the policy's community set once; every export shares the buffer.
  st.cold->origin_comm = CommunitiesRef(st.cold->origin->communities);
}

void BgpSpeaker::clear_origin_policy(const Prefix& prefix) {
  PrefixState* st = find_state(prefix);
  if (st == nullptr || st->cold == nullptr) return;
  if (st->cold->damping.empty()) {
    st->cold.reset();
  } else {
    st->cold->origin.reset();
    st->cold->origin_comm = CommunitiesRef();
  }
}

bool BgpSpeaker::originates(const Prefix& prefix) const {
  const auto* st = find_state(prefix);
  return st != nullptr && st->origin() != nullptr;
}

const OriginPolicy* BgpSpeaker::origin_policy(const Prefix& prefix) const {
  const auto* st = find_state(prefix);
  return st != nullptr ? st->origin() : nullptr;
}

bool BgpSpeaker::import_acceptable(const UpdateMessage& msg) {
  // Loop prevention: reject when our ASN appears loop_threshold+ times.
  if (!cfg_.loop_detection_disabled &&
      count_occurrences(msg.path, id_) >= cfg_.loop_threshold) {
    ++rejected_loop_;
    return false;
  }
  if (cfg_.reject_customer_routes_containing_my_peers) {
    const auto rel = rel_of(msg.from);
    if (rel == topo::Rel::kCustomer) {
      for (const AsId hop : msg.path) {
        if (rel_of(hop) == topo::Rel::kPeer) {
          ++rejected_peer_filter_;
          return false;
        }
      }
    }
  }
  // Path-length filter (lg::adversary): paths longer than the local
  // threshold never make it into the Adj-RIB-In — the practice that limits
  // poisoning reach in the wild.
  if (cfg_.path_length_limit > 0 &&
      msg.path.size() > cfg_.path_length_limit) {
    ++rejected_pathlen_;
    return false;
  }
  // Peerlock/leak filter (lg::adversary): a locked AS appearing behind a
  // hop that is neither locked itself (clique exemption) nor the locked
  // AS's customer is a route leak — exactly the shape a poison O-A-O takes
  // when A is in the clique. Pure const queries against the immutable graph
  // and the engine-owned sorted locked set.
  if (cfg_.peerlock_filter && locked_ases_ != nullptr &&
      !locked_ases_->empty()) {
    const AsPath& path = msg.path.get();
    for (std::size_t i = 1; i < path.size(); ++i) {
      const AsId locked = path[i];
      if (locked == id_) continue;
      if (!std::binary_search(locked_ases_->begin(), locked_ases_->end(),
                              locked)) {
        continue;
      }
      const AsId in_front = path[i - 1];
      if (std::binary_search(locked_ases_->begin(), locked_ases_->end(),
                             in_front)) {
        continue;  // clique-internal hop, legitimate
      }
      // relationship(a, b) is b's role from a's view: kProvider means the
      // locked AS provides transit to the hop in front — the customer
      // exemption that keeps ordinary customer-learned routes importable.
      if (graph_->relationship(in_front, locked) == topo::Rel::kProvider) {
        continue;
      }
      ++rejected_peerlock_;
      return false;
    }
  }
  return true;
}

namespace {
void decay_penalty(double& penalty, double& last, double now,
                   double half_life) {
  if (now > last && half_life > 0.0) {
    penalty *= std::exp2(-(now - last) / half_life);
  }
  last = std::max(last, now);
}
}  // namespace

bool BgpSpeaker::process_update(const UpdateMessage& msg, double now) {
  return process_update(state_for(msg.prefix), msg, now);
}

bool BgpSpeaker::process_update(PrefixState& st, const UpdateMessage& msg,
                                double now) {
  const std::uint32_t slot = slot_of(msg.from);
  if (slot == kNoSlot) return false;  // not adjacent: drop

  if (cfg_.damping_enabled) {
    if (st.cold == nullptr) st.cold = std::make_unique<ColdState>();
    DampingTable& table = st.cold->damping;
    auto it = lower_entry(table, msg.from);
    if (it == table.end() || it->first != msg.from) {
      it = table.insert(it, {msg.from, DampingState{}});
    }
    DampingState& damping = it->second;
    decay_penalty(damping.penalty, damping.last_update, now,
                  cfg_.damping_half_life_seconds);
    damping.penalty += cfg_.damping_penalty_per_update;
    if (damping.penalty >= cfg_.damping_suppress_threshold) {
      damping.suppressed = true;
    }
  }

  if (msg.type == MsgType::kAnnounce && import_acceptable(msg)) {
    if (st.in.empty()) st.in.assign(nbr_ids_.size());
    st.in.path()[slot] = msg.path;
    st.in.comm()[slot] = msg.communities;
    set_in_present(st, slot);
    set_hint(st.in_hints, slot, msg.avoid_hint);
    if (msg.avoid_hint && msg.avoid_hint->as == id_) {
      ++avoid_notifications_;  // Notification property: we are the problem
    }
  } else if (!st.in.empty() && st.in.bytes(kInPresent)[slot] != 0) {
    // Withdrawal, or an announcement rejected by import policy: either way
    // the neighbor's previous route is no longer usable (BGP implicit
    // replacement semantics). Release the shared buffers with the slot.
    st.in.bytes(kInPresent)[slot] = 0;
    st.in.path()[slot] = PathRef();
    st.in.comm()[slot] = CommunitiesRef();
    set_hint(st.in_hints, slot, std::nullopt);
  }
  return recompute_best(msg.prefix, st);
}

bool BgpSpeaker::recompute_best(const Prefix& prefix, PrefixState& st) {
  // AVOID_PROBLEM semantics: if any candidate carries a hint, routes whose
  // path hits the hinted AS/link form a lower tier — used only when no
  // clean route exists (Avoidance + Backup properties, §3). The hint table
  // is sorted by slot, so the canonical pick is the lowest-neighbor-id
  // carrier — the same choice the ReferenceBgp oracle makes.
  const AvoidHint* hint = nullptr;
  if (cfg_.honors_avoid_hints && !st.in_hints.empty()) {
    hint = &st.in_hints.front().second;
  }
  const std::uint32_t n = st.in.size();
  const PathRef* in_path = st.in.path();
  const std::uint8_t* in_learned = st.in.bytes(kInLearned);
  const std::uint8_t* in_present = st.in.bytes(kInPresent);
  std::uint32_t win = kNoSlot;
  int win_pref = 0;
  std::size_t win_len = 0;
  bool win_flagged = false;
  for (std::uint32_t s = 0; s < n; ++s) {
    if (in_present[s] == 0) continue;
    if (cfg_.damping_enabled) {
      const DampingState* d = damping_of(st, nbr_ids_[s]);
      if (d != nullptr && d->suppressed) continue;
    }
    const bool flagged = hint && path_hits_avoid_hint(in_path[s], *hint);
    const int pref = local_pref(static_cast<LearnedFrom>(in_learned[s]));
    const std::size_t len = in_path[s].size();
    // Slots scan in ascending neighbor-id order and the comparisons are
    // strict, so ties keep the lowest neighbor — exactly better_route's
    // local-pref desc, path-len asc, neighbor-id asc total order.
    if (win == kNoSlot || (win_flagged && !flagged) ||
        (win_flagged == flagged &&
         (pref > win_pref || (pref == win_pref && len < win_len)))) {
      win = s;
      win_pref = pref;
      win_len = len;
      win_flagged = flagged;
    }
  }

  bool changed;
  if (win == kNoSlot) {
    changed = st.best.has_value();
    if (changed) st.best.reset();
  } else {
    const AsId nbr = nbr_ids_[win];
    const auto learned = static_cast<LearnedFrom>(in_learned[win]);
    const CommunitiesRef& comm = st.in.comm()[win];
    const AvoidHint* win_hint = hint_at(st.in_hints, win);
    changed =
        !st.best || st.best->neighbor != nbr || st.best->learned != learned ||
        !(st.best->path == in_path[win]) || !(st.best->communities == comm) ||
        st.best->avoid_hint.has_value() != (win_hint != nullptr) ||
        (win_hint != nullptr && st.best->avoid_hint &&
         !(*st.best->avoid_hint == *win_hint));
    if (changed) {
      Route r;
      r.prefix = prefix;
      r.path = in_path[win];
      r.neighbor = nbr;
      r.learned = learned;
      r.communities = comm;
      if (win_hint != nullptr) r.avoid_hint = *win_hint;
      st.best = std::move(r);
    }
  }
  // The cached self-prepended export path mirrors the Loc-RIB.
  if (changed) st.export_cache_valid = false;
  return changed;
}

const Route* BgpSpeaker::best_route(const Prefix& prefix) const {
  const auto* st = find_state(prefix);
  return st != nullptr && st->best ? &*st->best : nullptr;
}

std::vector<Route> BgpSpeaker::rib_in(const Prefix& prefix) const {
  std::vector<Route> out;
  if (const auto* st = find_state(prefix)) {
    for (std::uint32_t s = 0; s < st->in.size(); ++s) {
      if (st->in.bytes(kInPresent)[s] == 0) continue;
      Route r;
      r.prefix = prefix;
      r.path = st->in.path()[s];
      r.neighbor = nbr_ids_[s];
      r.learned = static_cast<LearnedFrom>(st->in.bytes(kInLearned)[s]);
      r.communities = st->in.comm()[s];
      if (const AvoidHint* h = hint_at(st->in_hints, s)) r.avoid_hint = *h;
      out.push_back(std::move(r));
    }
    std::sort(out.begin(), out.end(), [](const Route& a, const Route& b) {
      return better_route(a, b);
    });
  }
  return out;
}

FibResult BgpSpeaker::fib_lookup(topo::Ipv4 dst) const {
  for (int len = 32; len >= 0; --len) {
    if (!len_present_[len]) continue;
    const Prefix candidate(dst, static_cast<std::uint8_t>(len));
    const auto* st = find_state(candidate);
    if (st == nullptr) continue;
    if (st->origin() != nullptr) {
      return FibResult{.has_route = true,
                       .local = true,
                       .via_default = false,
                       .next_hop = id_,
                       .matched = candidate};
    }
    if (st->best) {
      return FibResult{.has_route = true,
                       .local = false,
                       .via_default = false,
                       .next_hop = forced_egress_.value_or(st->best->neighbor),
                       .matched = candidate};
    }
    // State exists but no usable route: keep searching less specifics —
    // this is exactly how a captive AS falls back onto the sentinel.
  }
  if (cfg_.has_default_route) {
    if (const auto gw = default_gateway()) {
      return FibResult{.has_route = true,
                       .local = false,
                       .via_default = true,
                       .next_hop = *gw,
                       .matched = Prefix(0, 0)};
    }
  }
  return FibResult{};
}

std::optional<BgpSpeaker::ExportUnit> BgpSpeaker::export_path(
    const Prefix& prefix, AsId neighbor) const {
  const auto* st = find_state(prefix);
  return st == nullptr ? std::nullopt : export_unit(*st, slot_of(neighbor));
}

std::optional<BgpSpeaker::ExportUnit> BgpSpeaker::export_unit(
    const PrefixState& st, std::uint32_t slot) const {
  if (slot >= nbr_ids_.size()) return std::nullopt;
  const AsId neighbor = nbr_ids_[slot];

  if (const OriginPolicy* origin = st.origin()) {
    const auto& path = origin->path_for(neighbor);
    if (!path) return std::nullopt;
    return ExportUnit{*path, st.cold->origin_comm, origin->avoid_hint};
  }

  if (!st.best) return std::nullopt;
  const Route& best = *st.best;
  if (best.neighbor == neighbor) return std::nullopt;  // split horizon
  // Gao-Rexford: customer routes go to everyone; peer/provider routes only
  // to customers.
  const bool allowed = best.learned == LearnedFrom::kCustomer ||
                       nbr_rel_[slot] == topo::Rel::kCustomer;
  if (!allowed) return std::nullopt;
  // Self-prepended Loc-RIB path, built once per best-route change and shared
  // by every neighbor export, the in-flight update, the receiver RIB, and
  // the Adj-RIB-Out slots (delta encoding: per-neighbor state is refs into
  // this unit, not copies).
  if (!st.export_cache_valid) {
    AsPath prepended;
    prepended.reserve(best.path.size() + 1);
    prepended.push_back(id_);
    prepended.insert(prepended.end(), best.path.begin(), best.path.end());
    auto& mst = const_cast<PrefixState&>(st);
    mst.export_cache = PathRef(std::move(prepended));
    mst.export_cache_valid = true;
  }
  ExportUnit out;
  out.path = st.export_cache;
  if (!cfg_.strips_communities) out.communities = best.communities;
  out.avoid_hint = best.avoid_hint;  // signed hints survive end-to-end
  return out;
}

BgpSpeaker::AdjOutState BgpSpeaker::adj_out_state(const Prefix& prefix,
                                                  AsId neighbor) const {
  const auto* st = find_state(prefix);
  return st == nullptr ? AdjOutState::kNeverAdvertised
                       : adj_out_state(*st, slot_of(neighbor));
}

BgpSpeaker::AdjOutState BgpSpeaker::adj_out_state(const PrefixState& st,
                                                  std::uint32_t slot) const {
  if (slot >= st.out.size()) return AdjOutState::kNeverAdvertised;
  const std::uint8_t tag = st.out.bytes(kOutTag)[slot];
  if (tag == kOutUnset) return AdjOutState::kNeverAdvertised;
  return tag == kOutNone ? AdjOutState::kWithdrawn : AdjOutState::kAdvertised;
}

std::optional<BgpSpeaker::ExportUnit> BgpSpeaker::adj_out_unit(
    const Prefix& prefix, AsId neighbor) const {
  const auto* st = find_state(prefix);
  if (st == nullptr) return std::nullopt;
  const std::uint32_t slot = slot_of(neighbor);
  if (adj_out_state(*st, slot) != AdjOutState::kAdvertised) {
    return std::nullopt;
  }
  ExportUnit out;
  out.path = st->out.path()[slot];
  out.communities = st->out.comm()[slot];
  if (const AvoidHint* h = hint_at(st->out_hints, slot)) out.avoid_hint = *h;
  return out;
}

bool BgpSpeaker::adj_out_equals(const PrefixState& st, std::uint32_t slot,
                                const std::optional<ExportUnit>& unit) const {
  const bool advertised = adj_out_state(st, slot) == AdjOutState::kAdvertised;
  if (!advertised || !unit) return advertised == unit.has_value();
  const AvoidHint* hint = hint_at(st.out_hints, slot);
  return st.out.path()[slot] == unit->path &&
         st.out.comm()[slot] == unit->communities &&
         (hint == nullptr ? !unit->avoid_hint
                          : unit->avoid_hint && *hint == *unit->avoid_hint);
}

void BgpSpeaker::record_advertised(const Prefix& prefix, AsId neighbor,
                                   std::optional<ExportUnit> unit) {
  const std::uint32_t slot = slot_of(neighbor);
  if (slot == kNoSlot) return;  // engine only records for real sessions
  record_advertised(state_for(prefix), slot, unit);
}

void BgpSpeaker::record_advertised(PrefixState& st, std::uint32_t slot,
                                   const std::optional<ExportUnit>& unit) {
  if (st.out.empty()) st.out.assign(nbr_ids_.size());
  if (unit) {
    st.out.bytes(kOutTag)[slot] = kOutUnit;
    st.out.path()[slot] = unit->path;
    st.out.comm()[slot] = unit->communities;
    set_hint(st.out_hints, slot, unit->avoid_hint);
  } else {
    st.out.bytes(kOutTag)[slot] = kOutNone;
    st.out.path()[slot] = PathRef();
    st.out.comm()[slot] = CommunitiesRef();
    set_hint(st.out_hints, slot, std::nullopt);
  }
}

std::vector<Prefix> BgpSpeaker::known_prefixes() const {
  std::vector<Prefix> out;
  for (std::uint32_t pid = 0; pid < states_.size(); ++pid) {
    if (states_[pid] != nullptr) out.push_back(ids_->prefix(pid));
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::optional<double> BgpSpeaker::damping_reuse_delay(const Prefix& prefix,
                                                      AsId neighbor,
                                                      double now) const {
  const auto* st = find_state(prefix);
  const DampingState* d = st == nullptr ? nullptr : damping_of(*st, neighbor);
  if (d == nullptr || !d->suppressed) return std::nullopt;
  double penalty = d->penalty;
  double last = d->last_update;
  decay_penalty(penalty, last, now, cfg_.damping_half_life_seconds);
  if (penalty <= cfg_.damping_reuse_threshold) return 0.0;
  return cfg_.damping_half_life_seconds *
         std::log2(penalty / cfg_.damping_reuse_threshold);
}

bool BgpSpeaker::recheck_damping(const Prefix& prefix, AsId neighbor,
                                 double now) {
  PrefixState* st = find_state(prefix);
  DampingState* d = st == nullptr ? nullptr : damping_of(*st, neighbor);
  if (d == nullptr || !d->suppressed) return false;
  decay_penalty(d->penalty, d->last_update, now,
                cfg_.damping_half_life_seconds);
  if (d->penalty > cfg_.damping_reuse_threshold) return false;
  d->suppressed = false;
  return recompute_best(prefix, *st);
}

bool BgpSpeaker::is_suppressed(const Prefix& prefix, AsId neighbor) const {
  const auto* st = find_state(prefix);
  const DampingState* d = st == nullptr ? nullptr : damping_of(*st, neighbor);
  return d != nullptr && d->suppressed;
}

std::optional<AsId> BgpSpeaker::default_gateway() const {
  // Slots ascend by neighbor id, so the first provider is the lowest ASN.
  for (std::size_t s = 0; s < nbr_ids_.size(); ++s) {
    if (nbr_rel_[s] == topo::Rel::kProvider) return nbr_ids_[s];
  }
  return std::nullopt;
}

BgpSpeaker::RibMemory BgpSpeaker::rib_memory() const {
  RibMemory m;
  m.bytes += sizeof(*this) + states_.capacity() * sizeof(states_[0]);
  for (const auto& st : states_) {
    if (st == nullptr) continue;
    ++m.prefixes;
    m.bytes += sizeof(PrefixState) + st->in.allocated() + st->out.allocated() +
               (st->in_hints.capacity() + st->out_hints.capacity()) *
                   sizeof(HintTable::value_type);
    if (st->cold != nullptr) {
      m.bytes += sizeof(ColdState) + st->cold->damping.capacity() *
                                         sizeof(DampingTable::value_type);
    }
    for (std::uint32_t s = 0; s < st->in.size(); ++s) {
      m.routes += st->in.bytes(kInPresent)[s];
    }
    for (std::uint32_t s = 0; s < st->out.size(); ++s) {
      if (st->out.bytes(kOutTag)[s] == kOutUnit) ++m.adj_out_slots;
    }
  }
  return m;
}

}  // namespace lg::bgp
