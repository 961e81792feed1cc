// Policy-compliant (valley-free) reachability.
//
// Two uses from the paper:
//  * §5.1 — "to simulate poisoning an AS A on a path from S to O, we remove
//    all of A's links from the topology, then check if S can restore
//    connectivity while avoiding A (a path exists between S and O that obeys
//    export policies)". ValleyFreeOracle::reachable() is that check.
//  * §2.2 — spliced-path validation via the "three-tuple test": a candidate
//    path is accepted only if the AS subpath of length three centered at the
//    splice point appeared in at least one observed traceroute.
//    ObservedTripleSet implements the test.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_set>
#include <vector>

#include "topology/as_graph.h"

namespace lg::topo {

// Things to route around: whole ASes and/or individual inter-AS links.
struct Avoidance {
  std::unordered_set<AsId> ases;
  std::unordered_set<AsLinkKey, AsLinkKeyHash> links;

  bool blocks_as(AsId id) const { return ases.contains(id); }
  bool blocks_link(AsId a, AsId b) const {
    return links.contains(AsLinkKey(a, b));
  }
  bool empty() const { return ases.empty() && links.empty(); }

  static Avoidance of_as(AsId id) {
    Avoidance a;
    a.ases.insert(id);
    return a;
  }
  static Avoidance of_link(AsId x, AsId y) {
    Avoidance a;
    a.links.insert(AsLinkKey(x, y));
    return a;
  }
};

// The oracle snapshots the graph's links at construction into a CSR
// adjacency over the graph's AS indices (AsGraph::index_of; each AS's arcs
// in AsGraph::neighbors() order, so BFS ties break in graph order) and
// searches flat arrays. A graph changed after construction makes every
// query throw std::logic_error rather than answer from the stale snapshot.
// Queries are const, only read the graph, and allocate their own scratch,
// so one oracle (and its graph) may serve many threads.
class ValleyFreeOracle {
 public:
  explicit ValleyFreeOracle(const AsGraph& graph);

  // Is there any valley-free path src -> dst (up* peer? down*) whose interior
  // and endpoints avoid the given ASes/links? Endpoints inside `avoid.ases`
  // make the answer trivially false.
  bool reachable(AsId src, AsId dst, const Avoidance& avoid = {}) const;

  // Fewest-AS-hops valley-free path src..dst (inclusive); empty if none.
  std::vector<AsId> shortest_path(AsId src, AsId dst,
                                  const Avoidance& avoid = {}) const;

 private:
  struct Arc {
    std::uint32_t to;  // AS index of the neighbor
    Rel rel;           // what the neighbor is to the arc's tail
  };

  const AsGraph* graph_;
  std::size_t num_ases_;   // graph size at construction: the staleness check
  std::size_t num_links_;
  // Arcs of AS index i are arcs_[first_[i] .. first_[i + 1]).
  std::vector<std::uint32_t> first_;
  std::vector<Arc> arcs_;
};

// Set of consecutive AS triples observed on measured paths; encodes
// empirically observable export policy (§2.2, [25]).
class ObservedTripleSet {
 public:
  void add_path(std::span<const AsId> path);
  bool contains(AsId a, AsId b, AsId c) const;
  std::size_t size() const noexcept { return triples_.size(); }

  // Validates a full spliced AS path: every interior triple must have been
  // observed. Paths of length <= 2 are trivially valid.
  bool path_valid(std::span<const AsId> path) const;

 private:
  struct Key {
    AsId a, b, c;
    friend bool operator==(const Key&, const Key&) = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept {
      std::uint64_t h = k.a;
      h = h * 1000003ULL + k.b;
      h = h * 1000003ULL + k.c;
      return std::hash<std::uint64_t>{}(h);
    }
  };
  std::unordered_set<Key, KeyHash> triples_;
};

}  // namespace lg::topo
