// One AS-level BGP speaker: Adj-RIB-In per neighbor, the decision process,
// Gao-Rexford export policy, origin announcement policies (including crafted
// poisoned paths), and a longest-prefix-match FIB view.
//
// Loop prevention is the paper's lever: when the origin announces O-A-O, A's
// import filter sees its own ASN and rejects (treating the update as a
// withdrawal of whatever that neighbor previously advertised), so A and
// everything captive behind it lose the route while other ASes route around.
//
// Storage layout: a speaker keeps one PrefixState per prefix it has heard
// of, in a vector indexed by the engine-wide dense prefix id (PrefixIds,
// bgp/prefix_ids.h), each state its own allocation so its address outlives
// growth of the vector. A state is the hot part of the per-prefix RIB: the
// Loc-RIB best route, the cached self-prepended export path, and two RIB
// sides stored as struct-of-arrays over the speaker's *neighbor slots* (the
// rank of a neighbor's AS id in this speaker's sorted adjacency, which is
// its row of the engine's session layout). Each side is one allocation,
// made on first use: the Adj-RIB-In's path, communities, learned-from and
// presence columns, and the Adj-RIB-Out's path, communities and tag
// columns. A resident route costs 34 bytes of holder state (PathRef +
// CommunitiesRef + two tag bytes) plus buffers shared across all holders.
// Slots ascend by neighbor id, the order the decision process ties on.
// Avoid hints are rare, so they live in small sorted side-tables instead of
// widening every slot. What only a few states need, the origin policy and
// flap-damping penalties, lives in a cold part that origins and damping
// speakers allocate. See docs/TOPOLOGIES.md for the bytes/route model.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "bgp/prefix_ids.h"
#include "bgp/types.h"
#include "topology/as_graph.h"
#include "topology/prefix.h"

namespace lg::bgp {

class BgpEngine;
struct SnapshotPools;

struct SpeakerConfig {
  // Import is rejected when our own ASN appears >= loop_threshold times in
  // the received path. Real-world default is 1; ASes that use the public
  // Internet between sites raise it (§7.1, e.g. AS286 accepts one own-ASN
  // occurrence, so poisoning them requires inserting their ASN twice).
  std::size_t loop_threshold = 1;
  // §7.1 pathological variant: never reject on own ASN.
  bool loop_detection_disabled = false;
  // Cogent-style policy: refuse updates from *customers* whose path contains
  // one of our settlement-free peers (§7.1).
  bool reject_customer_routes_containing_my_peers = false;
  // Data-plane default route toward the first provider when no FIB entry
  // matches (common at stubs; affects poisoning reach, see Bush et al.).
  bool has_default_route = false;
  // Do not propagate community attributes on re-exported routes — the
  // behaviour the paper observed at tier-1s, which breaks communities as a
  // notification channel (§2.3, [30]).
  bool strips_communities = false;
  // Honor AVOID_PROBLEM hints (§3's hypothetical primitive): deprioritize
  // routes whose paths hit the hinted AS/link, falling back to them only
  // when nothing else exists.
  bool honors_avoid_hints = true;
  // Route-flap damping (RFC 2439 style, simplified): each update from a
  // neighbor adds a penalty that decays exponentially; past the suppress
  // threshold the neighbor's route is unusable until the penalty decays to
  // the reuse threshold. This is why the paper's experiments spaced
  // announcements 90 minutes apart. Off by default.
  bool damping_enabled = false;
  double damping_penalty_per_update = 1000.0;
  double damping_suppress_threshold = 2000.0;
  double damping_reuse_threshold = 750.0;
  double damping_half_life_seconds = 900.0;
  // Per-neighbor MRAI override; <0 means "use engine default".
  double mrai_seconds = -1.0;
  // ---- Adversarial import policies (lg::adversary profiles; merged in by
  // the engine when an AdversaryPlane is enabled, and honored identically
  // by check::ReferenceBgp) ----
  // Reject announcements whose AS_PATH exceeds this many hops — the
  // practice that kills long poisoned/prepended paths (Smith et al.).
  // 0 disables the filter.
  std::size_t path_length_limit = 0;
  // Peerlock/leak filter (McDaniel et al.): reject any path in which a
  // locked AS (tier-1 clique, see BgpSpeaker::set_locked_ases) appears
  // behind a hop that is neither locked itself nor the locked AS's
  // customer — the leak shape poisoned announcements produce.
  bool peerlock_filter = false;
};

struct FibResult {
  bool has_route = false;
  bool local = false;                 // delivered inside this AS
  bool via_default = false;           // matched only the default route
  AsId next_hop = topo::kInvalidAs;   // valid when has_route && !local
  Prefix matched;                     // matched prefix (unset for default)
};

// One allocation holding a RIB side's columns over a speaker's n neighbor
// slots: n PathRefs, n CommunitiesRefs, then kBytes one-byte columns of n
// entries each (zeroed). Empty, allocating nothing and handing out null
// columns, until assign(n). Like a pointer, a const SlotColumns still
// hands out mutable columns.
template <std::size_t kBytes>
class SlotColumns {
 public:
  SlotColumns() = default;
  SlotColumns(const SlotColumns&) = delete;
  SlotColumns& operator=(const SlotColumns&) = delete;
  ~SlotColumns() { release(); }

  void assign(std::size_t slots) {
    release();
    if (slots == 0) return;
    const auto n = static_cast<std::uint32_t>(slots);
    block_ = static_cast<std::byte*>(::operator new(bytes_for(n)));
    std::memcpy(block_, &n, sizeof n);
    std::uninitialized_value_construct_n(path(), n);
    std::uninitialized_value_construct_n(comm(), n);
    std::memset(bytes(0), 0, kBytes * std::size_t{n});
  }
  bool empty() const noexcept { return block_ == nullptr; }
  std::uint32_t size() const noexcept {
    std::uint32_t n = 0;
    if (block_ != nullptr) std::memcpy(&n, block_, sizeof n);
    return n;
  }
  PathRef* path() const noexcept {
    if (block_ == nullptr) return nullptr;
    return std::launder(reinterpret_cast<PathRef*>(block_ + kHeader));
  }
  CommunitiesRef* comm() const noexcept {
    if (block_ == nullptr) return nullptr;
    return std::launder(reinterpret_cast<CommunitiesRef*>(
        block_ + kHeader + size() * sizeof(PathRef)));
  }
  std::uint8_t* bytes(std::size_t col) const noexcept {
    if (block_ == nullptr) return nullptr;
    const std::size_t n = size();
    return reinterpret_cast<std::uint8_t*>(
        block_ + kHeader + n * (sizeof(PathRef) + sizeof(CommunitiesRef)) +
        col * n);
  }
  // What the block allocates (0 while empty).
  std::size_t allocated() const noexcept {
    return block_ == nullptr ? 0 : bytes_for(size());
  }

 private:
  // The slot count, padded so the ref columns stay aligned.
  static constexpr std::size_t kHeader = alignof(PathRef);
  static std::size_t bytes_for(std::size_t n) noexcept {
    return kHeader + n * (sizeof(PathRef) + sizeof(CommunitiesRef) + kBytes);
  }
  void release() noexcept {
    if (block_ == nullptr) return;
    const std::uint32_t n = size();
    std::destroy_n(path(), n);
    std::destroy_n(comm(), n);
    ::operator delete(block_);
    block_ = nullptr;
  }

  std::byte* block_ = nullptr;
};

// Speakers are made by a BgpEngine, which owns their adjacency; reach one
// with BgpEngine::speaker().
class BgpSpeaker {
 public:
  AsId id() const noexcept { return id_; }
  const SpeakerConfig& config() const noexcept { return cfg_; }
  SpeakerConfig& mutable_config() noexcept { return cfg_; }

  // ---- Origination ----
  void set_origin_policy(const Prefix& prefix, OriginPolicy policy);
  void clear_origin_policy(const Prefix& prefix);
  bool originates(const Prefix& prefix) const;
  const OriginPolicy* origin_policy(const Prefix& prefix) const;

  // ---- Import (driven by the engine) ----
  // Applies import filters and flap damping (at simulated time `now`),
  // updates Adj-RIB-In, reruns the decision process. Returns true iff the
  // best route for msg.prefix changed.
  bool process_update(const UpdateMessage& msg, double now = 0.0);

  // ---- Flap damping (engine-driven timers) ----
  // Seconds until the suppressed (prefix, neighbor) session decays to its
  // reuse threshold; nullopt when not suppressed.
  std::optional<double> damping_reuse_delay(const Prefix& prefix,
                                            AsId neighbor, double now) const;
  // Decay the penalty; if it crossed the reuse threshold, unsuppress and
  // rerun the decision process. Returns true iff the best route changed.
  bool recheck_damping(const Prefix& prefix, AsId neighbor, double now);
  bool is_suppressed(const Prefix& prefix, AsId neighbor) const;

  // ---- Views ----
  const Route* best_route(const Prefix& prefix) const;
  // All Adj-RIB-In entries for a prefix (diagnostics/tests), best first.
  std::vector<Route> rib_in(const Prefix& prefix) const;
  // Longest-prefix-match over origin + best routes. Falls back to the
  // default route if configured.
  FibResult fib_lookup(topo::Ipv4 dst) const;

  // One advertisable unit: path + attached attributes. Path and communities
  // are shared refs, so the engine's UpdateMessage, the delivery lambda, the
  // receiver's Adj-RIB-In, and every neighbor's Adj-RIB-Out slot share the
  // same buffers.
  struct ExportUnit {
    PathRef path;
    CommunitiesRef communities;
    std::optional<AvoidHint> avoid_hint;
    friend bool operator==(const ExportUnit&, const ExportUnit&) = default;
  };

  // What we would advertise to `neighbor` right now (nullopt = nothing).
  // For re-exported routes the self-prepended path is computed once per
  // Loc-RIB change and shared by every neighbor (Adj-RIB-Out delta
  // encoding: per-neighbor state is a tag plus refs into the shared unit).
  // This and the Adj-RIB-Out calls below are (prefix, neighbor) wrappers
  // over the slot-level forms the engine's export fan-out uses.
  std::optional<ExportUnit> export_path(const Prefix& prefix,
                                        AsId neighbor) const;

  // ---- Adj-RIB-Out bookkeeping (the engine diffs against this when MRAI
  // fires). Encoded per neighbor slot as a one-byte tag; kAdvertised slots
  // additionally hold refs shared with the Loc-RIB export unit.
  enum class AdjOutState : std::uint8_t {
    kNeverAdvertised,  // no update ever sent on this session for this prefix
    kWithdrawn,        // last update was a withdrawal (or explicit "nothing")
    kAdvertised,       // last update announced adj_out_unit()
  };
  AdjOutState adj_out_state(const Prefix& prefix, AsId neighbor) const;
  // The advertised unit; nullopt unless adj_out_state == kAdvertised.
  std::optional<ExportUnit> adj_out_unit(const Prefix& prefix,
                                         AsId neighbor) const;
  void record_advertised(const Prefix& prefix, AsId neighbor,
                         std::optional<ExportUnit> unit);

  // Prefixes this speaker has any state for, ascending.
  std::vector<Prefix> known_prefixes() const;

  // Relationship of `neighbor` to this AS, via the dense slot table
  // (O(log degree), no graph hashing).
  std::optional<topo::Rel> rel_of(AsId neighbor) const;

  // Data-plane egress override: force all transit traffic out via this
  // neighbor (the knob an edge network turns to repair *forward* path
  // failures by picking a different provider, §2.3). Cleared with nullopt.
  void set_forced_egress(std::optional<AsId> neighbor) {
    forced_egress_ = neighbor;
  }
  std::optional<AsId> forced_egress() const noexcept { return forced_egress_; }
  // First provider (lowest ASN) — target of the default route.
  std::optional<AsId> default_gateway() const;

  // The Peerlock locked set consulted by peerlock_filter: a sorted vector
  // owned by the engine (one copy per world, shared by every speaker).
  // Null until installed; the filter is inert without it.
  void set_locked_ases(const std::vector<AsId>* locked) noexcept {
    locked_ases_ = locked;
  }

  // Import rejection counters (diagnostics).
  std::uint64_t rejected_loop() const noexcept { return rejected_loop_; }
  std::uint64_t rejected_peer_filter() const noexcept {
    return rejected_peer_filter_;
  }
  std::uint64_t rejected_pathlen() const noexcept { return rejected_pathlen_; }
  std::uint64_t rejected_peerlock() const noexcept {
    return rejected_peerlock_;
  }
  // AVOID_PROBLEM's Notification property: how many announcements named
  // this AS as the problem (its operators would be alerted).
  std::uint64_t avoid_notifications() const noexcept {
    return avoid_notifications_;
  }

  // Deterministic structural memory accounting: the bytes this speaker
  // allocates for its RIB (the speaker itself, its state index, every
  // prefix state, the cold parts, the column blocks and side-tables) and
  // resident route counts. Shared path/community buffers are excluded (one
  // allocation per distinct buffer, not per holder), as are an origin
  // policy's own containers. Feeds the bytes/route headline of BM_RibMemory
  // and bench/internet_scale; see docs/TOPOLOGIES.md for the model.
  struct RibMemory {
    std::size_t bytes = 0;          // container footprint in bytes
    std::size_t routes = 0;         // present Adj-RIB-In slots
    std::size_t adj_out_slots = 0;  // advertised Adj-RIB-Out slots
    std::size_t prefixes = 0;       // prefix states held
  };
  RibMemory rib_memory() const;

  // ---- Checkpoint/restore (implemented in bgp/snapshot.cc) ----
  // The checkpoint layout of this speaker's complete RIB state: every prefix
  // state (the occupied Adj-RIB-In and Adj-RIB-Out slots, best route, origin
  // policy, export cache, damping), the runtime-mutable config, the forced
  // egress, and the rejection counters. One function for both directions
  // (util/codec.h): Self is const BgpSpeaker when Ar is util::BinWriter.
  // Shared path/community buffers are interned engine-wide through `pools`,
  // so a buffer held by many slots is written once and the sharing survives
  // the round trip.
  template <class Ar, class Self>
  static void layout(Ar& ar, Self& self, SnapshotPools& pools);

 private:
  // The engine's export fan-out and import path resolve a prefix state once
  // and then work by neighbor slot through the private slot-level calls.
  friend class BgpEngine;

  struct DampingState {
    double penalty = 0.0;
    double last_update = 0.0;
    bool suppressed = false;
  };
  // Sparse (key, value) side-tables, ascending by key: avoid hints by
  // neighbor slot, damping state by neighbor AS id. Few entries each, so
  // they do not widen the dense columns.
  using HintTable = std::vector<std::pair<std::uint32_t, AvoidHint>>;
  using DampingTable = std::vector<std::pair<AsId, DampingState>>;

  // What only origins and damping speakers need, allocated on first use.
  struct ColdState {
    std::optional<OriginPolicy> origin;
    // Interned copy of origin->communities, built once at
    // set_origin_policy so export_unit never re-allocates it.
    CommunitiesRef origin_comm;
    DampingTable damping;
  };

  // The byte columns of the two RIB sides: the Adj-RIB-In's learned-from
  // (a LearnedFrom) and presence bytes, and the Adj-RIB-Out's tag.
  enum InByte : std::size_t { kInLearned = 0, kInPresent = 1 };
  enum OutByte : std::size_t { kOutTag = 0 };
  enum AdjOutTag : std::uint8_t { kOutUnset = 0, kOutNone = 1, kOutUnit = 2 };

  struct PrefixState {
    std::optional<Route> best;
    // Cached self-prepended Loc-RIB export path, shared by every neighbor
    // this route is advertised to. Invalidated on best-route change.
    PathRef export_cache;
    // Adj-RIB-In: path, communities, learned-from and presence by slot.
    // Sized on the first accepted import (origin-only states stay empty).
    SlotColumns<2> in;
    // Adj-RIB-Out delta encoding: a tag byte plus path/communities refs
    // that alias the shared export unit. Sized on the first record.
    SlotColumns<1> out;
    HintTable in_hints;  // entries only for present slots carrying a hint
    HintTable out_hints;
    std::unique_ptr<ColdState> cold;
    bool export_cache_valid = false;

    const OriginPolicy* origin() const {
      return cold != nullptr && cold->origin ? &*cold->origin : nullptr;
    }
  };
  // A plain (neither origin nor damped) state and its index slot, before
  // its column blocks: the per-(speaker, prefix) fixed cost.
  static_assert(sizeof(PrefixState) + sizeof(std::unique_ptr<PrefixState>) <=
                192);

  // `nbr_ids` / `nbr_rel`: this AS's row of the engine's session layout
  // (neighbor ids ascending, and what each is to this AS). `ids`: the
  // engine's prefix ids, which index this speaker's states.
  BgpSpeaker(AsId id, const topo::AsGraph& graph,
             std::span<const AsId> nbr_ids,
             std::span<const topo::Rel> nbr_rel, PrefixIds& ids);

  // Slot of `neighbor` in the sorted adjacency, or kNoSlot.
  std::uint32_t slot_of(AsId neighbor) const;
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  static const AvoidHint* hint_at(const HintTable& t, std::uint32_t slot);
  static void set_hint(HintTable& t, std::uint32_t slot,
                       const std::optional<AvoidHint>& hint);
  // The damping entry of (st's prefix, neighbor), or nullptr; the cold part
  // is held by pointer, so a const state still yields a mutable entry.
  static DampingState* damping_of(const PrefixState& st, AsId neighbor);

  // Mark Adj-RIB-In slot `slot` of `st` present, learned from the session's
  // relationship (the import path and a snapshot load both do).
  void set_in_present(PrefixState& st, std::uint32_t slot) const {
    LearnedFrom learned = LearnedFrom::kProvider;
    switch (nbr_rel_[slot]) {
      case topo::Rel::kCustomer:
        learned = LearnedFrom::kCustomer;
        break;
      case topo::Rel::kPeer:
        learned = LearnedFrom::kPeer;
        break;
      case topo::Rel::kProvider:
        break;
    }
    st.in.bytes(kInLearned)[slot] = static_cast<std::uint8_t>(learned);
    st.in.bytes(kInPresent)[slot] = 1;
  }
  // Returns true if best changed.
  bool recompute_best(const Prefix& prefix, PrefixState& st);
  bool import_acceptable(const UpdateMessage& msg);
  // The state for prefix id `pid`, created on first use; lookups by prefix
  // or id (find_state, state_at) never create one.
  PrefixState& state_for(std::uint32_t pid) {
    PrefixState* st = state_at(pid);
    return st != nullptr ? *st : new_state(pid);
  }
  PrefixState& new_state(std::uint32_t pid);
  PrefixState& state_for(const Prefix& prefix) {
    return state_for(ids_->intern(prefix));
  }
  PrefixState* state_at(std::uint32_t pid) {
    return pid < states_.size() ? states_[pid].get() : nullptr;
  }
  const PrefixState* state_at(std::uint32_t pid) const {
    return pid < states_.size() ? states_[pid].get() : nullptr;
  }
  PrefixState* find_state(const Prefix& prefix) {
    return state_at(ids_->find(prefix));
  }
  const PrefixState* find_state(const Prefix& prefix) const {
    return state_at(ids_->find(prefix));
  }

  // ---- Slot-level forms of the public (prefix, neighbor) calls: `st` is
  // this speaker's state for msg.prefix / the exported prefix, `slot` a
  // neighbor slot (kNoSlot: not a neighbor).
  bool process_update(PrefixState& st, const UpdateMessage& msg, double now);
  std::optional<ExportUnit> export_unit(const PrefixState& st,
                                        std::uint32_t slot) const;
  AdjOutState adj_out_state(const PrefixState& st, std::uint32_t slot) const;
  // adj_out_unit() == unit at this slot, without building the advertised
  // unit.
  bool adj_out_equals(const PrefixState& st, std::uint32_t slot,
                      const std::optional<ExportUnit>& unit) const;
  void record_advertised(PrefixState& st, std::uint32_t slot,
                         const std::optional<ExportUnit>& unit);

  AsId id_;
  const topo::AsGraph* graph_;  // Peerlock's relationship queries
  SpeakerConfig cfg_;
  // Slot -> neighbor id / relationship, owned by the engine.
  std::span<const AsId> nbr_ids_;
  std::span<const topo::Rel> nbr_rel_;
  PrefixIds* ids_;  // owned by the engine
  // Prefix id -> state (null: none). One allocation per state keeps each
  // address fixed while the vector grows, so the engine's pump may hold a
  // state across an observer that originates a new prefix here.
  std::vector<std::unique_ptr<PrefixState>> states_;
  std::optional<AsId> forced_egress_;
  bool len_present_[33] = {};
  const std::vector<AsId>* locked_ases_ = nullptr;
  std::uint64_t rejected_loop_ = 0;
  std::uint64_t rejected_peer_filter_ = 0;
  std::uint64_t rejected_pathlen_ = 0;
  std::uint64_t rejected_peerlock_ = 0;
  std::uint64_t avoid_notifications_ = 0;
};

}  // namespace lg::bgp
