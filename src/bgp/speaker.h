// One AS-level BGP speaker: Adj-RIB-In per neighbor, the decision process,
// Gao-Rexford export policy, origin announcement policies (including crafted
// poisoned paths), and a longest-prefix-match FIB view.
//
// Loop prevention is the paper's lever: when the origin announces O-A-O, A's
// import filter sees its own ASN and rejects (treating the update as a
// withdrawal of whatever that neighbor previously advertised), so A and
// everything captive behind it lose the route while other ASes route around.
//
// Storage layout (Internet-scale refactor): per-prefix state is a
// struct-of-arrays RIB keyed by a dense per-speaker *neighbor slot* — the
// rank of the neighbor's AS id in this speaker's sorted adjacency. That
// adjacency (ids and relationships) is the speaker's row of the engine's
// session layout, built once when the engine is constructed; every RIB
// table (Adj-RIB-In paths, interned communities, learned-from tags,
// presence bits, Adj-RIB-Out tags) is a flat vector indexed by slot.
// Compared with the former unordered_map<AsId, Route> layout this removes
// per-entry node allocations and hashing, shrinks a resident route to ~34
// bytes of holder state (PathRef + CommunitiesRef + two tag bytes) plus
// buffers shared across all holders, and makes iteration order the
// deterministic ascending-neighbor-id order the decision process already
// ties on. Avoid hints are rare, so they live in small sorted sparse
// side-tables instead of widening every slot. See docs/TOPOLOGIES.md for
// the bytes/route model.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

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

  // Prefixes this speaker has any state for.
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

  // Deterministic structural memory accounting: bytes held by this
  // speaker's RIB containers (shared path/community buffers excluded — they
  // are counted once per distinct buffer, not per holder) and resident
  // route counts. Feeds the bytes/route headline of BM_RibMemory and
  // bench/internet_scale; see docs/TOPOLOGIES.md for the model.
  struct RibMemory {
    std::size_t bytes = 0;          // container footprint in bytes
    std::size_t routes = 0;         // present Adj-RIB-In slots
    std::size_t adj_out_slots = 0;  // advertised Adj-RIB-Out slots
    std::size_t prefixes = 0;       // prefix states held
  };
  RibMemory rib_memory() const;

  // ---- Checkpoint/restore (implemented in bgp/snapshot.cc) ----
  // The checkpoint layout of this speaker's complete RIB state: every prefix
  // state (Adj-RIB-In SoA tables, best route, origin policy, export cache,
  // Adj-RIB-Out tags, damping), the runtime-mutable config, the forced
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
  // Sparse (slot, hint) side-table, ascending by slot. Hints are attached
  // to a small minority of routes, so they do not widen the dense arrays.
  using HintTable = std::vector<std::pair<std::uint32_t, AvoidHint>>;

  struct PrefixState {
    // ---- Adj-RIB-In, struct-of-arrays over neighbor slots. Sized lazily
    // on the first accepted import (origin-only states stay empty).
    std::vector<PathRef> in_path;
    std::vector<CommunitiesRef> in_comm;
    std::vector<std::uint8_t> in_learned;  // LearnedFrom
    std::vector<std::uint8_t> in_present;
    HintTable in_hints;  // entries only for present slots carrying a hint

    std::optional<Route> best;
    std::optional<OriginPolicy> origin;
    // Interned copy of origin->communities, built once at
    // set_origin_policy so export_path never re-allocates it.
    CommunitiesRef origin_comm;

    // Cached self-prepended Loc-RIB export path, shared by every neighbor
    // this route is advertised to. Invalidated on best-route change.
    PathRef export_cache;
    bool export_cache_valid = false;

    // ---- Adj-RIB-Out delta encoding, struct-of-arrays over neighbor
    // slots: a tag byte (AdjOutTag) plus path/communities refs that alias
    // the shared export unit. Sized lazily on the first record.
    std::vector<std::uint8_t> out_tag;
    std::vector<PathRef> out_path;
    std::vector<CommunitiesRef> out_comm;
    HintTable out_hints;

    std::unordered_map<AsId, DampingState> damping;
  };
  enum AdjOutTag : std::uint8_t { kOutUnset = 0, kOutNone = 1, kOutUnit = 2 };

  // `nbr_ids` / `nbr_rel`: this AS's row of the engine's session layout
  // (neighbor ids ascending, and what each is to this AS).
  BgpSpeaker(AsId id, const topo::AsGraph& graph,
             std::span<const AsId> nbr_ids,
             std::span<const topo::Rel> nbr_rel);

  // Slot of `neighbor` in the sorted adjacency, or kNoSlot.
  std::uint32_t slot_of(AsId neighbor) const;
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  static void ensure_in(PrefixState& st, std::size_t n);
  static void ensure_out(PrefixState& st, std::size_t n);
  static const AvoidHint* hint_at(const HintTable& t, std::uint32_t slot);
  static void set_hint(HintTable& t, std::uint32_t slot,
                       const std::optional<AvoidHint>& hint);

  // Returns true if best changed.
  bool recompute_best(const Prefix& prefix, PrefixState& st);
  bool import_acceptable(const UpdateMessage& msg);
  PrefixState& state_for(const Prefix& prefix);
  const PrefixState* find_state(const Prefix& prefix) const;
  PrefixState* find_state(const Prefix& prefix);

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
  std::unordered_map<Prefix, PrefixState, topo::PrefixHash> prefixes_;
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
