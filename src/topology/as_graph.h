// AS-level topology annotated with Gao-Rexford business relationships.
//
// Every routing decision in the simulator (export filters, local preference)
// and LIFEGUARD's a-priori alternate-path check (§5.1: remove the poisoned
// AS's links, test valley-free reachability) operates on this graph.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace lg::topo {

using AsId = std::uint32_t;
inline constexpr AsId kInvalidAs = 0;  // ASN 0 is reserved; we use it as null.

// Relationship of a neighbor *to me*: my kCustomer pays me, my kProvider is
// paid by me, my kPeer settles free.
enum class Rel : std::uint8_t { kCustomer, kProvider, kPeer };

Rel reverse(Rel r) noexcept;
const char* rel_name(Rel r) noexcept;

// Coarse role in the hierarchy, assigned by the generator and recomputable
// from the graph (no providers => tier-1, no customers => stub).
enum class AsTier : std::uint8_t { kTier1, kTransit, kStub };

struct Neighbor {
  AsId id = kInvalidAs;
  Rel rel = Rel::kPeer;  // what `id` is to me
};

// Undirected AS adjacency; canonical form has a < b.
struct AsLinkKey {
  AsId a = kInvalidAs;
  AsId b = kInvalidAs;
  AsLinkKey() = default;
  AsLinkKey(AsId x, AsId y) : a(x < y ? x : y), b(x < y ? y : x) {}
  friend bool operator==(const AsLinkKey&, const AsLinkKey&) = default;

  // Checkpoint layout for the util/codec.h archives (K is const AsLinkKey
  // when saving); a loaded key is put back in canonical order.
  template <class Ar, class K>
  static void layout(Ar& ar, K& k) {
    ar.var(k.a);
    ar.var(k.b);
    if constexpr (Ar::kLoading) k = AsLinkKey(k.a, k.b);
  }
};

struct AsLinkKeyHash {
  std::size_t operator()(const AsLinkKey& k) const noexcept {
    return std::hash<std::uint64_t>{}(
        (static_cast<std::uint64_t>(k.a) << 32) | k.b);
  }
};

// ASes are stored densely in ascending-id order; an AS's *index* is its
// rank in as_ids(). The graph owns the one AS-id -> index map the BGP
// engine, the valley-free oracle and the adversary role table all index
// through: an offset table over the id span for the contiguous
// ids the generators emit, a hash map for sparse real ASNs (CAIDA files).
// Adding ASes in ascending order appends; an out-of-order add shifts the
// ASes above it and rebuilds the map, O(n).
class AsGraph {
 public:
  static constexpr std::uint32_t kNoIndex = 0xffffffffu;

  // Adds an AS; id must be nonzero and unique.
  void add_as(AsId id, AsTier tier = AsTier::kStub);
  bool has_as(AsId id) const { return index_of(id) != kNoIndex; }
  // Dense index of `id` (its rank in as_ids()), or kNoIndex. O(1).
  std::uint32_t index_of(AsId id) const noexcept {
    if (!sparse_index_.empty()) {
      const auto it = sparse_index_.find(id);
      return it == sparse_index_.end() ? kNoIndex : it->second;
    }
    const std::uint64_t off = std::uint64_t{id} - min_id_;  // wraps below
    return off < id_to_index_.size() ? id_to_index_[off] : kNoIndex;
  }
  // index_of, throwing std::out_of_range for an unknown AS.
  std::uint32_t checked_index(AsId id) const;

  // Adds an undirected link; `rel_of_b_to_a` is what b is from a's view
  // (e.g. Rel::kProvider means b provides transit to a).
  void add_link(AsId a, AsId b, Rel rel_of_b_to_a);
  // Scans the shorter of the two neighbour lists.
  bool has_link(AsId a, AsId b) const;
  // Relationship of b as seen from a, if the link exists.
  std::optional<Rel> relationship(AsId a, AsId b) const;

  // In link-insertion order.
  const std::vector<Neighbor>& neighbors(AsId id) const;
  std::vector<AsId> customers(AsId id) const;
  std::vector<AsId> providers(AsId id) const;
  std::vector<AsId> peers(AsId id) const;
  std::size_t degree(AsId id) const { return neighbors(id).size(); }

  AsTier tier(AsId id) const;

  const std::vector<AsId>& as_ids() const noexcept { return ids_; }
  std::vector<AsId> as_ids_with_tier(AsTier t) const;  // ascending
  std::vector<AsLinkKey> links() const;       // sorted for determinism
  std::size_t num_ases() const noexcept { return ids_.size(); }
  std::size_t num_links() const noexcept { return num_links_; }

  // Recompute tiers from the relationship structure.
  void reclassify_tiers();

  // Sanity invariants (connected via some relationship, tier-1s form
  // providers-free set, every non-tier-1 AS has a provider path to a tier-1).
  // Returns an explanation of the first violation, or nullopt if clean.
  std::optional<std::string> validate() const;

 private:
  struct Node {
    AsTier tier = AsTier::kStub;
    std::vector<Neighbor> neighbors;
  };
  // Brings the id -> index map up to date after ids_[pos] was inserted.
  void index_inserted(std::size_t pos);

  std::vector<AsId> ids_;    // ascending
  std::vector<Node> nodes_;  // parallel to ids_
  // Offset table over [min_id_, ids_.back()] while that span is at most
  // 4n + 1024 ids; otherwise sparse_index_ holds every AS.
  AsId min_id_ = 0;
  std::vector<std::uint32_t> id_to_index_;
  std::unordered_map<AsId, std::uint32_t> sparse_index_;
  // The adjacency lists are the only copy of the links.
  std::size_t num_links_ = 0;
};

}  // namespace lg::topo
