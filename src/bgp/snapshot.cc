// BGP engine checkpoint/restore (see engine.h / speaker.h declarations).
//
// Format: one engine section (tag "BGEN") holding RNG state, counters, the
// running MRAI timers, and the per-speaker sections (tag "BSPK") in AS-index
// order. All keyed state is serialized in sorted-key order, and per-prefix
// state in ascending prefix order, never by the engine's prefix ids: ids
// number prefixes in the order an engine first saw them, and a snapshot must
// be byte-identical across processes and load into an engine that numbered
// its prefixes differently. Every layout below is written once and driven by
// both util::BinWriter and util::BinReader (util/codec.h), so the save and
// load directions cannot drift apart.
//
// A snapshot holds only the state a restore needs. Each RIB side stores its
// slot count and then only its occupied slots, each MRAI table only the
// timers still running, and a best route no prefix (it is its state's). A
// converged RIB leaves most slots empty and every timer expired, so this is
// a fraction of the dense in-memory tables.
//
// Shared buffers: PathRef/CommunitiesRef deliberately share one immutable
// buffer across every holder (Adj-RIB-In, Loc-RIB best, export cache,
// Adj-RIB-Out, origin policies). A snapshot preserves that sharing — both
// for size (one /24 universe at 100k prefixes holds millions of holder
// slots over a few thousand distinct paths) and so a restored engine has
// the same allocation shape as the original — through engine-wide intern
// pools. Saving interns buffers by *address* (all copies of one ref share
// the buffer, so the address is the identity) and assigns dense ids in
// first-encounter order, which is deterministic because every layout walks
// its state in sorted order. Id 0 is reserved for the empty ref; a new
// buffer's contents are written inline at its first reference, so loading
// rebuilds the pool in one pass.
#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bgp/engine.h"
#include "bgp/speaker.h"
#include "util/codec.h"

namespace lg::bgp {

namespace {

constexpr std::uint32_t kEngineTag = 0x4e454742;   // "BGEN"
constexpr std::uint32_t kSpeakerTag = 0x4b505342;  // "BSPK"
// v2: SpeakerConfig grew the adversarial import policies (path_length_limit,
// peerlock_filter) and their rejection counters.
// v3: deliveries keep per-(session, prefix) order by send-time due times, so
// the MRAI entries lost their sequence counter and the delivered-sequence
// tables are gone.
// v4: sparse RIB sides (occupied slots only, learned-from derived from the
// session), running MRAI timers only (the flush flag left the format), and
// varint counts and intern ids.
// v5: every integer a varint; a best route's prefix left the format.
constexpr std::uint32_t kVersion = 5;

// One intern table: buffer address -> id when saving, id -> ref when
// loading.
template <class Ref, class Values>
class InternPool {
 public:
  template <class Ar, util::MaybeConst<Ref> R>
  void operator()(Ar& ar, R& ref) {
    if constexpr (Ar::kLoading) {
      const std::uint64_t id = ar.var();
      if (id < refs_.size()) {
        ref = refs_[id];
        return;
      }
      if (id != refs_.size()) {
        throw std::runtime_error("snapshot: intern id out of order");
      }
      Values values;
      ar.vec(values, 1, [&](auto& v) { ar.var(v); });
      ref = refs_.emplace_back(std::move(values));
    } else {
      if (ref.empty()) {
        ar.var(0);
        return;
      }
      const auto [it, fresh] = ids_.try_emplace(
          &ref.get(), static_cast<std::uint32_t>(ids_.size() + 1));
      ar.var(it->second);
      if (fresh) ar.vec(ref.get(), 1, [&](auto v) { ar.var(v); });
    }
  }

 private:
  std::unordered_map<const void*, std::uint32_t> ids_;
  std::vector<Ref> refs_{Ref{}};  // index 0 is the empty ref
};

template <class Ar, util::MaybeConst<Prefix> P>
void prefix(Ar& ar, P& p) {
  topo::Ipv4 addr = p.addr();
  std::uint8_t len = p.length();
  ar.var(addr);
  ar.var(len);
  if constexpr (Ar::kLoading) p = Prefix(addr, len);
}

template <class Ar, util::MaybeConst<AvoidHint> H>
void avoid_hint(Ar& ar, H& h) {
  ar.var(h.as);
  ar.opt(h.link, [&](auto& link) { topo::AsLinkKey::layout(ar, link); });
}

template <class Ar, class Table>
void hint_table(Ar& ar, Table& t) {
  ar.vec(t, 3, [&](auto& entry) {
    ar.var(entry.first);
    avoid_hint(ar, entry.second);
  });
}

// A table indexed by prefix id, laid out as a map keyed by prefix (the
// layout util::sorted_map gives one): the entry count, then each entry's
// prefix and `fn(pid)` in ascending prefix order. Saving walks `order` (every
// id in ascending prefix order) and writes the ids `has` accepts; loading
// interns each prefix read and refuses one seen twice.
template <class Ar, class Ids, class Has, class Fn>
void by_prefix(Ar& ar, Ids& ids, const std::vector<std::uint32_t>& order,
               std::size_t min_entry_bytes, Has&& has, Fn&& fn) {
  if constexpr (Ar::kLoading) {
    const std::size_t n = ar.count(min_entry_bytes);
    for (std::size_t i = 0; i < n; ++i) {
      Prefix p;
      prefix(ar, p);
      const std::uint32_t pid = ids.intern(p);
      if (has(pid)) {
        throw std::runtime_error("snapshot: prefix " + p.str() + " twice");
      }
      fn(pid);
    }
  } else {
    std::size_t n = 0;
    for (const std::uint32_t pid : order) n += has(pid) ? 1 : 0;
    ar.count(n, min_entry_bytes);
    for (const std::uint32_t pid : order) {
      if (!has(pid)) continue;
      ar.record(min_entry_bytes, [&] {
        const Prefix p = ids.prefix(pid);
        prefix(ar, p);
        fn(pid);
      });
    }
  }
}

}  // namespace

struct SnapshotPools {
  InternPool<PathRef, AsPath> path;
  InternPool<CommunitiesRef, Communities> comm;
  // Every prefix id in ascending prefix order (empty when loading).
  std::vector<std::uint32_t> order;
};

namespace {

// A best route. Its prefix is its prefix state's own, so loading sets it
// from the state instead of reading it.
template <class Ar, util::MaybeConst<Route> R>
void route(Ar& ar, SnapshotPools& pools, const Prefix& p, R& rt) {
  if constexpr (Ar::kLoading) rt.prefix = p;
  pools.path(ar, rt.path);
  ar.var(rt.neighbor);
  ar.enum8(rt.learned, LearnedFrom::kLocal, "learned-from");
  pools.comm(ar, rt.communities);
  ar.opt(rt.avoid_hint, [&](auto& h) { avoid_hint(ar, h); });
}

template <class Ar, util::MaybeConst<OriginPolicy> P>
void policy(Ar& ar, SnapshotPools& pools, P& pol) {
  ar.opt(pol.default_path, [&](auto& p) { pools.path(ar, p); });
  util::sorted_map(ar, pol.per_neighbor, 2, [&](auto& as, auto& entry) {
    ar.var(as);
    ar.opt(entry, [&](auto& p) { pools.path(ar, p); });
  });
  ar.vec(pol.communities, 1, [&](auto& c) { ar.var(c); });
  ar.opt(pol.avoid_hint, [&](auto& h) { avoid_hint(ar, h); });
}

}  // namespace

template <class Ar, class Self>
void BgpSpeaker::layout(Ar& ar, Self& self, SnapshotPools& pools) {
  ar.magic(kSpeakerTag, kVersion);
  AsId id = self.id_;
  ar.var(id);
  if (id != self.id_) {
    throw std::runtime_error("snapshot: speaker AS mismatch (snapshot " +
                             std::to_string(id) + ", engine " +
                             std::to_string(self.id_) + ")");
  }
  // Per-slot RIB arrays are empty until first use, then sized to the
  // neighbour count; any other length would index past the slot table.
  const std::size_t n_slots = self.nbr_ids_.size();
  const auto check_slots = [&](std::size_t n, const char* table) {
    if (n != 0 && n != n_slots) {
      throw std::runtime_error(
          std::string("snapshot: AS ") + std::to_string(self.id_) + " " +
          table + " has " + std::to_string(n) + " slots, the topology gives " +
          std::to_string(n_slots) + " neighbours (different topology?)");
    }
  };

  // Runtime-mutable config (mutable_config() lets harnesses flip policy
  // flags after construction, so the snapshot carries them).
  auto& cfg = self.cfg_;
  ar.var(cfg.loop_threshold);
  ar.b(cfg.loop_detection_disabled);
  ar.b(cfg.reject_customer_routes_containing_my_peers);
  ar.b(cfg.has_default_route);
  ar.b(cfg.strips_communities);
  ar.b(cfg.honors_avoid_hints);
  ar.b(cfg.damping_enabled);
  ar.f64(cfg.damping_penalty_per_update);
  ar.f64(cfg.damping_suppress_threshold);
  ar.f64(cfg.damping_reuse_threshold);
  ar.f64(cfg.damping_half_life_seconds);
  ar.f64(cfg.mrai_seconds);
  ar.var(cfg.path_length_limit);
  ar.b(cfg.peerlock_filter);

  if constexpr (Ar::kLoading) self.states_.clear();
  const auto has = [&](std::uint32_t pid) {
    return self.state_at(pid) != nullptr;
  };
  by_prefix(ar, *self.ids_, pools.order, 12, has, [&](std::uint32_t pid) {
    if constexpr (Ar::kLoading) self.state_for(pid);
    auto& st = *self.state_at(pid);

    // Each RIB side: its slot count, then its occupied slots only.
    std::size_t n_in = st.in.size();
    ar.var(n_in);
    if constexpr (Ar::kLoading) {
      check_slots(n_in, "Adj-RIB-In");
      st.in.assign(n_in);
    }
    if (n_in != 0) {
      const std::uint8_t* present = st.in.bytes(kInPresent);
      util::ascending(
          ar, n_in, 3, "Adj-RIB-In slot",
          [&](std::size_t s) { return present[s] != 0; },
          [&](std::size_t s) {
            pools.path(ar, st.in.path()[s]);
            pools.comm(ar, st.in.comm()[s]);
            if constexpr (Ar::kLoading) self.set_in_present(st, s);
          });
    }
    hint_table(ar, st.in_hints);

    ar.opt(st.best, [&](auto& rt) {
      route(ar, pools, self.ids_->prefix(pid), rt);
    });
    // The cold part is written whether or not the state has one (an absent
    // one as empty); loading keeps it only if something in it is set.
    static const ColdState kNoCold;
    auto& cold = [&]() -> auto& {
      if constexpr (Ar::kLoading) {
        return *(st.cold = std::make_unique<ColdState>());
      } else {
        return st.cold != nullptr ? *st.cold : kNoCold;
      }
    }();
    ar.opt(cold.origin, [&](auto& pol) { policy(ar, pools, pol); });
    pools.comm(ar, cold.origin_comm);
    pools.path(ar, st.export_cache);
    ar.b(st.export_cache_valid);

    // Adj-RIB-Out: a sent slot's tag, and the refs of an advertised one.
    std::size_t n_out = st.out.size();
    ar.var(n_out);
    if constexpr (Ar::kLoading) {
      check_slots(n_out, "Adj-RIB-Out");
      st.out.assign(n_out);
    }
    if (n_out != 0) {
      std::uint8_t* tag = st.out.bytes(kOutTag);
      util::ascending(
          ar, n_out, 2, "Adj-RIB-Out slot",
          [&](std::size_t s) { return tag[s] != kOutUnset; },
          [&](std::size_t s) {
            ar.var(tag[s]);
            if constexpr (Ar::kLoading) {
              if (tag[s] != kOutNone && tag[s] != kOutUnit) {
                throw std::runtime_error(
                    "snapshot: AS " + std::to_string(self.id_) +
                    " Adj-RIB-Out tag byte " + std::to_string(tag[s]) +
                    " is out of range");
              }
            }
            if (tag[s] == kOutUnit) {
              pools.path(ar, st.out.path()[s]);
              pools.comm(ar, st.out.comm()[s]);
            }
          });
    }
    hint_table(ar, st.out_hints);

    ar.vec(cold.damping, 18, [&](auto& entry) {
      ar.var(entry.first);
      ar.f64(entry.second.penalty);
      ar.f64(entry.second.last_update);
      ar.b(entry.second.suppressed);
    });
    if constexpr (Ar::kLoading) {
      const auto& d = cold.damping;
      for (std::size_t i = 1; i < d.size(); ++i) {
        if (!(d[i - 1].first < d[i].first)) {
          throw std::runtime_error("snapshot: AS " + std::to_string(self.id_) +
                                   " damping entries out of order");
        }
      }
      if (!cold.origin && cold.origin_comm.empty() && d.empty()) {
        st.cold.reset();
      }
    }
  });

  ar.opt(self.forced_egress_, [&](auto& as) { ar.var(as); });
  for (auto& present : self.len_present_) ar.b(present);
  ar.var(self.rejected_loop_);
  ar.var(self.rejected_peer_filter_);
  ar.var(self.rejected_pathlen_);
  ar.var(self.rejected_peerlock_);
  ar.var(self.avoid_notifications_);
}

template <class Ar, class Self>
void BgpEngine::layout(Ar& ar, Self& self) {
  if (!self.frontier_.empty() || self.in_flight_ != 0) {
    throw std::runtime_error(
        "BgpEngine::serialize: updates in flight (quiesce first)");
  }
  // A deferred send's flush closure lives in the scheduler, which no
  // snapshot carries: a restored flag would silence the session for that
  // prefix for good.
  for (const auto& table : self.mrai_) {
    for (const MraiState& m : table) {
      if (m.flush_scheduled) {
        throw std::runtime_error(
            "BgpEngine::serialize: a deferred MRAI flush is pending (run "
            "the scheduler past it first)");
      }
    }
  }
  ar.magic(kEngineTag, kVersion);
  util::Rng::layout(ar, self.rng_);
  ar.var(self.total_messages_);
  ar.f64(self.last_activity_);
  ar.var(self.delivered_total_);
  ar.var(self.pump_delivered_start_);
  ar.vec(self.sent_by_, 1, [&](auto& v) { ar.var(v); });
  ar.vec(self.best_changes_, 1, [&](auto& v) { ar.var(v); });
  const std::size_t n_speakers = self.speakers_.size();
  if (self.sent_by_.size() != n_speakers ||
      self.best_changes_.size() != n_speakers) {
    throw std::runtime_error("snapshot: engine counter size mismatch "
                             "(different topology?)");
  }

  // MRAI tables: per prefix, the timers still running (ready_at past the
  // scheduler's now), each keyed by its directed session, sess_base_[sender]
  // plus the neighbor's slot. An expired deadline never defers a send again
  // (the argument that already leaves last_due out), so a loaded engine
  // starts every other entry afresh and makes a prefix's table at its first
  // fan-out.
  SnapshotPools pools;
  if constexpr (Ar::kLoading) {
    self.mrai_.clear();
  } else {
    pools.order = self.prefix_ids_.in_prefix_order();
  }
  std::size_t n_sessions = self.sess_nbr_.size();
  ar.var(n_sessions);
  if (n_sessions != self.sess_nbr_.size()) {
    throw std::runtime_error(
        "snapshot: MRAI tables cover " + std::to_string(n_sessions) +
        " directed sessions, the topology has " +
        std::to_string(self.sess_nbr_.size()) + " (different topology?)");
  }
  const double now = self.sched_->now();
  const auto running = [&](const MraiState& m) { return m.ready_at > now; };
  const auto has = [&](std::uint32_t pid) {
    if (pid >= self.mrai_.size()) return false;
    const auto& table = self.mrai_[pid];
    if constexpr (Ar::kLoading) {
      return !table.empty();
    } else {
      return std::any_of(table.begin(), table.end(), running);
    }
  };
  by_prefix(ar, self.prefix_ids_, pools.order, 3, has, [&](std::uint32_t pid) {
    auto& table = [&]() -> auto& {
      if constexpr (Ar::kLoading) {
        return self.mrai_table(pid);
      } else {
        return self.mrai_[pid];
      }
    }();
    util::ascending(
        ar, n_sessions, 9, "MRAI session",
        [&](std::size_t k) { return running(table[k]); },
        [&](std::size_t k) { ar.f64(table[k].ready_at); });
  });

  std::size_t n = n_speakers;
  ar.var(n);
  if (n != n_speakers) {
    throw std::runtime_error("snapshot: speaker count mismatch "
                             "(different topology?)");
  }
  for (auto& sp : self.speakers_) BgpSpeaker::layout(ar, sp, pools);
}

void BgpEngine::serialize(util::BinWriter& w) const { layout(w, *this); }
void BgpEngine::serialize(util::BinReader& r) { layout(r, *this); }

}  // namespace lg::bgp
