#include "topology/as_graph.h"

#include <algorithm>
#include <stdexcept>

namespace lg::topo {

Rel reverse(Rel r) noexcept {
  switch (r) {
    case Rel::kCustomer:
      return Rel::kProvider;
    case Rel::kProvider:
      return Rel::kCustomer;
    case Rel::kPeer:
      return Rel::kPeer;
  }
  return Rel::kPeer;
}

const char* rel_name(Rel r) noexcept {
  switch (r) {
    case Rel::kCustomer:
      return "customer";
    case Rel::kProvider:
      return "provider";
    case Rel::kPeer:
      return "peer";
  }
  return "?";
}

void AsGraph::add_as(AsId id, AsTier tier) {
  if (id == kInvalidAs) throw std::invalid_argument("AS id 0 is reserved");
  if (has_as(id)) throw std::invalid_argument("duplicate AS " + std::to_string(id));
  const std::size_t pos = static_cast<std::size_t>(
      std::lower_bound(ids_.begin(), ids_.end(), id) - ids_.begin());
  ids_.insert(ids_.begin() + pos, id);
  nodes_.insert(nodes_.begin() + pos, Node{tier, {}});
  index_inserted(pos);
}

void AsGraph::index_inserted(std::size_t pos) {
  const std::size_t n = ids_.size();
  const std::uint64_t span = std::uint64_t{ids_.back()} - ids_.front() + 1;
  const bool direct = span <= 4 * std::uint64_t{n} + 1024;
  // An append that keeps the map's form is one entry; anything else (the
  // first AS, an insert that shifts indices, a change of form) rebuilds.
  if (pos + 1 == n && n > 1 && direct == sparse_index_.empty()) {
    const auto idx = static_cast<std::uint32_t>(pos);
    if (direct) {
      id_to_index_.resize(static_cast<std::size_t>(span), kNoIndex);
      id_to_index_[ids_[pos] - min_id_] = idx;
    } else {
      sparse_index_.emplace(ids_[pos], idx);
    }
    return;
  }
  min_id_ = ids_.front();
  id_to_index_.clear();
  sparse_index_.clear();
  if (direct) {
    id_to_index_.assign(static_cast<std::size_t>(span), kNoIndex);
    for (std::size_t i = 0; i < n; ++i) {
      id_to_index_[ids_[i] - min_id_] = static_cast<std::uint32_t>(i);
    }
  } else {
    sparse_index_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      sparse_index_.emplace(ids_[i], static_cast<std::uint32_t>(i));
    }
  }
}

void AsGraph::add_link(AsId a, AsId b, Rel rel_of_b_to_a) {
  if (a == b) throw std::invalid_argument("self-link on AS " + std::to_string(a));
  const std::uint32_t ia = index_of(a);
  const std::uint32_t ib = index_of(b);
  if (ia == kNoIndex || ib == kNoIndex) {
    throw std::invalid_argument("link references unknown AS");
  }
  if (!links_.insert(AsLinkKey(a, b)).second) {
    throw std::invalid_argument("duplicate link " + std::to_string(a) + "-" +
                                std::to_string(b));
  }
  nodes_[ia].neighbors.push_back({b, rel_of_b_to_a});
  nodes_[ib].neighbors.push_back({a, reverse(rel_of_b_to_a)});
}

std::optional<Rel> AsGraph::relationship(AsId a, AsId b) const {
  for (const auto& n : neighbors(a)) {
    if (n.id == b) return n.rel;
  }
  return std::nullopt;
}

const std::vector<Neighbor>& AsGraph::neighbors(AsId id) const {
  static const std::vector<Neighbor> kEmpty;
  const std::uint32_t i = index_of(id);
  return i == kNoIndex ? kEmpty : nodes_[i].neighbors;
}

namespace {
std::vector<AsId> filter_neighbors(const std::vector<Neighbor>& ns, Rel want) {
  std::vector<AsId> out;
  for (const auto& n : ns) {
    if (n.rel == want) out.push_back(n.id);
  }
  return out;
}
}  // namespace

std::vector<AsId> AsGraph::customers(AsId id) const {
  return filter_neighbors(neighbors(id), Rel::kCustomer);
}
std::vector<AsId> AsGraph::providers(AsId id) const {
  return filter_neighbors(neighbors(id), Rel::kProvider);
}
std::vector<AsId> AsGraph::peers(AsId id) const {
  return filter_neighbors(neighbors(id), Rel::kPeer);
}

std::uint32_t AsGraph::checked_index(AsId id) const {
  const std::uint32_t i = index_of(id);
  if (i == kNoIndex) throw std::out_of_range("unknown AS " + std::to_string(id));
  return i;
}

AsTier AsGraph::tier(AsId id) const { return nodes_[checked_index(id)].tier; }

std::vector<AsId> AsGraph::as_ids_with_tier(AsTier t) const {
  std::vector<AsId> out;
  for (std::size_t i = 0; i < ids_.size(); ++i) {
    if (nodes_[i].tier == t) out.push_back(ids_[i]);
  }
  return out;
}

std::vector<AsLinkKey> AsGraph::links() const {
  std::vector<AsLinkKey> out(links_.begin(), links_.end());
  std::sort(out.begin(), out.end(), [](const AsLinkKey& x, const AsLinkKey& y) {
    return x.a != y.a ? x.a < y.a : x.b < y.b;
  });
  return out;
}

void AsGraph::reclassify_tiers() {
  for (Node& node : nodes_) {
    bool has_provider = false;
    bool has_customer = false;
    for (const auto& n : node.neighbors) {
      has_provider |= n.rel == Rel::kProvider;
      has_customer |= n.rel == Rel::kCustomer;
    }
    if (!has_provider) {
      node.tier = AsTier::kTier1;
    } else if (has_customer) {
      node.tier = AsTier::kTransit;
    } else {
      node.tier = AsTier::kStub;
    }
  }
}

std::optional<std::string> AsGraph::validate() const {
  const std::size_t n = ids_.size();
  if (n == 0) return "graph has no ASes";
  // Tier-1 ASes must have no providers; stubs must have no customers.
  for (std::size_t i = 0; i < n; ++i) {
    for (const auto& nb : nodes_[i].neighbors) {
      if (nodes_[i].tier == AsTier::kTier1 && nb.rel == Rel::kProvider) {
        return "tier-1 AS " + std::to_string(ids_[i]) + " has a provider";
      }
      if (nodes_[i].tier == AsTier::kStub && nb.rel == Rel::kCustomer) {
        return "stub AS " + std::to_string(ids_[i]) + " has a customer";
      }
    }
  }
  // Every AS must reach a tier-1 by walking provider edges (no orphan
  // islands), which is what makes default-free routing possible.
  std::vector<std::uint8_t> reaches_t1(n, 0);
  std::vector<std::uint32_t> queue;
  for (std::size_t i = 0; i < n; ++i) {
    if (nodes_[i].tier == AsTier::kTier1) {
      reaches_t1[i] = 1;
      queue.push_back(static_cast<std::uint32_t>(i));
    }
  }
  if (queue.empty()) return "graph has no tier-1 AS";
  for (std::size_t head = 0; head < queue.size(); ++head) {
    for (const auto& nb : nodes_[queue[head]].neighbors) {
      // nb is a customer of the AS at queue[head] => nb can reach tier-1
      // via its provider chain.
      const std::uint32_t c = index_of(nb.id);
      if (nb.rel == Rel::kCustomer && reaches_t1[c] == 0) {
        reaches_t1[c] = 1;
        queue.push_back(c);
      }
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (reaches_t1[i] == 0) {
      return "AS " + std::to_string(ids_[i]) +
             " has no provider path to a tier-1";
    }
  }
  // The customer-provider hierarchy must be acyclic.
  std::vector<std::uint8_t> state(n, 0);  // 0 unseen, 1 in-stack, 2 done
  std::function<bool(std::uint32_t)> dfs = [&](std::uint32_t u) {
    state[u] = 1;
    for (const auto& nb : nodes_[u].neighbors) {
      if (nb.rel != Rel::kCustomer) continue;  // walk provider->customer edges
      const std::uint32_t v = index_of(nb.id);
      if (state[v] == 1) return false;
      if (state[v] == 0 && !dfs(v)) return false;
    }
    state[u] = 2;
    return true;
  };
  for (std::uint32_t i = 0; i < n; ++i) {
    if (state[i] == 0 && !dfs(i)) {
      return "customer-provider cycle involving AS " + std::to_string(ids_[i]);
    }
  }
  return std::nullopt;
}

}  // namespace lg::topo
