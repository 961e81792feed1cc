#include "topology/valley_free.h"

#include <algorithm>
#include <stdexcept>

namespace lg::topo {

namespace {

// A BFS state packs a dense AS index with whether the path may still travel
// "up" (customer->provider) or "across" (one peer edge): index << 1 | phase.
// After the first down or across move only provider->customer edges are
// legal.
constexpr std::uint32_t kUp = 0;
constexpr std::uint32_t kDown = 1;
constexpr std::uint32_t kUnseen = 0xffffffffu;
constexpr std::uint32_t kBlocked = 0xfffffffeu;

}  // namespace

ValleyFreeOracle::ValleyFreeOracle(const AsGraph& graph)
    : graph_(&graph),
      num_ases_(graph.num_ases()),
      num_links_(graph.num_links()) {
  first_.reserve(num_ases_ + 1);
  arcs_.reserve(2 * num_links_);
  first_.push_back(0);
  for (const AsId id : graph.as_ids()) {
    for (const Neighbor& n : graph.neighbors(id)) {
      arcs_.push_back({graph.index_of(n.id), n.rel});
    }
    first_.push_back(static_cast<std::uint32_t>(arcs_.size()));
  }
}

bool ValleyFreeOracle::reachable(AsId src, AsId dst,
                                 const Avoidance& avoid) const {
  return !shortest_path(src, dst, avoid).empty();
}

std::vector<AsId> ValleyFreeOracle::shortest_path(
    AsId src, AsId dst, const Avoidance& avoid) const {
  if (graph_->num_ases() != num_ases_ || graph_->num_links() != num_links_) {
    throw std::logic_error(
        "ValleyFreeOracle: the graph changed after the oracle was built");
  }
  const AsGraph& g = *graph_;
  const std::uint32_t s = g.index_of(src);
  const std::uint32_t d = g.index_of(dst);
  if (s == AsGraph::kNoIndex || d == AsGraph::kNoIndex) return {};
  if (avoid.blocks_as(src) || avoid.blocks_as(dst)) return {};
  if (src == dst) return {src};

  // parent[state] is the state it was reached from (the start is its own
  // parent). Avoided ASes are pre-marked in both phases, so they are never
  // entered.
  const std::vector<AsId>& ids = g.as_ids();
  std::vector<std::uint32_t> parent(2 * ids.size(), kUnseen);
  for (const AsId id : avoid.ases) {
    if (const std::uint32_t i = g.index_of(id); i != AsGraph::kNoIndex) {
      parent[i << 1 | kUp] = parent[i << 1 | kDown] = kBlocked;
    }
  }
  const bool avoid_links = !avoid.links.empty();
  std::vector<std::uint32_t> queue;
  const std::uint32_t start = s << 1 | kUp;
  parent[start] = start;
  queue.push_back(start);
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const std::uint32_t cur = queue[head];
    const std::uint32_t at = cur >> 1;
    const bool up = (cur & 1) == kUp;
    for (std::uint32_t e = first_[at]; e < first_[at + 1]; ++e) {
      const Arc arc = arcs_[e];
      if (!up && arc.rel != Rel::kCustomer) continue;  // downhill after apex
      if (avoid_links && avoid.blocks_link(ids[at], ids[arc.to])) continue;
      // Climbing continues only over a provider edge; a peer or customer
      // edge is the apex.
      const std::uint32_t next =
          arc.to << 1 | (up && arc.rel == Rel::kProvider ? kUp : kDown);
      if (parent[next] != kUnseen) continue;
      parent[next] = cur;
      if (arc.to != d) {
        queue.push_back(next);
        continue;
      }
      std::vector<AsId> path;
      for (std::uint32_t st = next;; st = parent[st]) {
        path.push_back(ids[st >> 1]);
        if (parent[st] == st) break;
      }
      std::reverse(path.begin(), path.end());
      return path;
    }
  }
  return {};
}

void ObservedTripleSet::add_path(std::span<const AsId> path) {
  if (path.size() < 3) return;
  for (std::size_t i = 0; i + 2 < path.size(); ++i) {
    triples_.insert(Key{path[i], path[i + 1], path[i + 2]});
    // Observing a path in one direction implies the reverse export chain is
    // plausible for the splice test as well; the paper checks the AS subpath
    // of length three in observed traceroutes which flow both directions
    // between PlanetLab sites, so we record the reversed triple too.
    triples_.insert(Key{path[i + 2], path[i + 1], path[i]});
  }
}

bool ObservedTripleSet::contains(AsId a, AsId b, AsId c) const {
  return triples_.contains(Key{a, b, c});
}

bool ObservedTripleSet::path_valid(std::span<const AsId> path) const {
  if (path.size() < 3) return true;
  for (std::size_t i = 0; i + 2 < path.size(); ++i) {
    if (!contains(path[i], path[i + 1], path[i + 2])) return false;
  }
  return true;
}

}  // namespace lg::topo
