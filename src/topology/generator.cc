#include "topology/generator.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <tuple>

#include "topology/io.h"
#include "util/env_knobs.h"

namespace lg::topo {

namespace {

// generate_topology's provider counts: large transit pick 2-3 tier-1/large
// providers; small transit pick 1-3 from tier-1/large; a stub picks one,
// a second with this probability, and then a third with the next.
constexpr double kStubSecondProviderProb = 0.40;
constexpr double kStubThirdProviderProb = 0.10;

// generate_internet_scale's degree model (docs/TOPOLOGIES.md): the
// CAIDA-like share of ASes with customers; transits take 2 providers, +1
// with kTransitExtraProviderProb; stubs take 1, with chances of a 2nd/3rd
// matching observed multihoming rates; and the expected settlement-free
// peering links added per transit AS.
constexpr double kTransitFraction = 0.14;
constexpr double kTransitExtraProviderProb = 0.50;
constexpr double kScaleStubSecondProviderProb = 0.45;
constexpr double kScaleStubThirdProviderProb = 0.12;
constexpr double kPeerLinksPerTransit = 1.0;

// Weighted pick by current degree + 1 (preferential attachment).
AsId pick_preferential(const AsGraph& g, const std::vector<AsId>& pool,
                       util::Rng& rng, const std::vector<AsId>& exclude) {
  std::vector<AsId> candidates;
  std::vector<double> weights;
  double total = 0.0;
  for (const AsId id : pool) {
    if (std::find(exclude.begin(), exclude.end(), id) != exclude.end())
      continue;
    const double w = static_cast<double>(g.degree(id)) + 1.0;
    candidates.push_back(id);
    weights.push_back(w);
    total += w;
  }
  if (candidates.empty()) throw std::runtime_error("empty provider pool");
  double x = rng.uniform01() * total;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    x -= weights[i];
    if (x <= 0.0) return candidates[i];
  }
  return candidates.back();
}

}  // namespace

GeneratedTopology generate_topology(const TopologyParams& params) {
  if (params.num_tier1 < 2) throw std::invalid_argument("need >= 2 tier-1s");
  GeneratedTopology topo;
  util::Rng rng(params.seed, /*stream=*/0x70706f6cULL);
  AsId next_id = 1;

  auto make_level = [&](std::uint32_t n, AsTier tier) {
    std::vector<AsId> ids;
    ids.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      topo.graph.add_as(next_id, tier);
      ids.push_back(next_id++);
    }
    return ids;
  };

  topo.tier1 = make_level(params.num_tier1, AsTier::kTier1);
  topo.large_transit = make_level(params.num_large_transit, AsTier::kTransit);
  topo.small_transit = make_level(params.num_small_transit, AsTier::kTransit);
  topo.stubs = make_level(params.num_stubs, AsTier::kStub);

  // Tier-1 full peering clique (the default-free zone).
  for (std::size_t i = 0; i < topo.tier1.size(); ++i) {
    for (std::size_t j = i + 1; j < topo.tier1.size(); ++j) {
      topo.graph.add_link(topo.tier1[i], topo.tier1[j], Rel::kPeer);
    }
  }

  // Large transit: 2-3 providers among tier-1s (clamped to availability),
  // peering among themselves.
  for (const AsId id : topo.large_transit) {
    const int nprov =
        std::min(static_cast<int>(topo.tier1.size()),
                 static_cast<int>(2 + rng.uniform_u32(2)));  // 2..3
    std::vector<AsId> chosen;
    for (int k = 0; k < nprov; ++k) {
      chosen.push_back(pick_preferential(topo.graph, topo.tier1, rng, chosen));
      topo.graph.add_link(id, chosen.back(), Rel::kProvider);
    }
  }
  for (std::size_t i = 0; i < topo.large_transit.size(); ++i) {
    for (std::size_t j = i + 1; j < topo.large_transit.size(); ++j) {
      if (rng.bernoulli(params.large_transit_peer_prob)) {
        topo.graph.add_link(topo.large_transit[i], topo.large_transit[j],
                            Rel::kPeer);
      }
    }
  }

  // Small transit: 1-3 providers among tier-1 + large transit (weighted
  // toward large transit, which is where regional ISPs attach), sparse
  // peering among themselves.
  std::vector<AsId> upper = topo.tier1;
  upper.insert(upper.end(), topo.large_transit.begin(),
               topo.large_transit.end());
  for (const AsId id : topo.small_transit) {
    const int nprov =
        std::min(static_cast<int>(upper.size()),
                 static_cast<int>(1 + rng.uniform_u32(3)));  // 1..3
    std::vector<AsId> chosen;
    for (int k = 0; k < nprov; ++k) {
      chosen.push_back(pick_preferential(topo.graph, upper, rng, chosen));
      topo.graph.add_link(id, chosen.back(), Rel::kProvider);
    }
  }
  for (std::size_t i = 0; i < topo.small_transit.size(); ++i) {
    for (std::size_t j = i + 1; j < topo.small_transit.size(); ++j) {
      if (rng.bernoulli(params.small_transit_peer_prob)) {
        topo.graph.add_link(topo.small_transit[i], topo.small_transit[j],
                            Rel::kPeer);
      }
    }
  }

  // Stubs: 1-3 providers among transit ASes.
  std::vector<AsId> transit_pool = topo.large_transit;
  transit_pool.insert(transit_pool.end(), topo.small_transit.begin(),
                      topo.small_transit.end());
  for (const AsId id : topo.stubs) {
    std::vector<AsId> chosen;
    chosen.push_back(pick_preferential(topo.graph, transit_pool, rng, chosen));
    topo.graph.add_link(id, chosen.back(), Rel::kProvider);
    if (rng.bernoulli(kStubSecondProviderProb)) {
      chosen.push_back(
          pick_preferential(topo.graph, transit_pool, rng, chosen));
      topo.graph.add_link(id, chosen.back(), Rel::kProvider);
      if (rng.bernoulli(kStubThirdProviderProb)) {
        chosen.push_back(
            pick_preferential(topo.graph, transit_pool, rng, chosen));
        topo.graph.add_link(id, chosen.back(), Rel::kProvider);
      }
    }
  }

  // BGP-Mux-style origins: one provider in each of `mux_provider_count`
  // distinct large-transit ASes, approximating disjoint upstream chains.
  for (std::uint32_t i = 0; i < params.num_mux_origins; ++i) {
    if (params.mux_provider_count > topo.large_transit.size()) {
      throw std::invalid_argument("not enough large transits for mux origin");
    }
    topo.graph.add_as(next_id, AsTier::kStub);
    const AsId mux = next_id++;
    const auto picks = rng.sample_without_replacement(
        topo.large_transit.size(), params.mux_provider_count);
    for (const auto idx : picks) {
      topo.graph.add_link(mux, topo.large_transit[idx], Rel::kProvider);
    }
    topo.mux_origins.push_back(mux);
    topo.stubs.push_back(mux);
  }

  if (const auto err = topo.graph.validate()) {
    throw std::runtime_error("generated topology invalid: " + *err);
  }
  return topo;
}

namespace {

// O(1)-per-pick preferential attachment: every candidate appears in the
// endpoint pool once at creation and once more per customer link it gains,
// so a uniform draw over the pool is a draw weighted by (degree + 1) —
// the same distribution pick_preferential computes in O(pool), without the
// scan. This is what makes 70k-AS generation sub-second.
class PreferentialPool {
 public:
  void add(AsId id) { endpoints_.push_back(id); }

  // Draw a candidate distinct from `self` and not already in `chosen`.
  AsId pick(util::Rng& rng, AsId self, const std::vector<AsId>& chosen) const {
    for (int attempt = 0; attempt < 64; ++attempt) {
      const AsId id = endpoints_[rng.uniform_u32(
          static_cast<std::uint32_t>(endpoints_.size()))];
      if (id == self) continue;
      if (std::find(chosen.begin(), chosen.end(), id) != chosen.end()) {
        continue;
      }
      return id;
    }
    // Degenerate pools (e.g. two candidates, both excluded) fall back to a
    // deterministic scan for the lowest eligible id.
    for (const AsId id : endpoints_) {
      if (id != self &&
          std::find(chosen.begin(), chosen.end(), id) == chosen.end()) {
        return id;
      }
    }
    throw std::runtime_error("empty provider pool");
  }

 private:
  std::vector<AsId> endpoints_;
};

}  // namespace

GeneratedTopology generate_internet_scale(const InternetScaleParams& params) {
  if (params.num_tier1 < 2) throw std::invalid_argument("need >= 2 tier-1s");
  const std::uint32_t n_transit = std::max<std::uint32_t>(
      1, static_cast<std::uint32_t>(
             std::lround(kTransitFraction *
                         static_cast<double>(params.total_ases))));
  if (params.total_ases < params.num_tier1 + n_transit + 1) {
    throw std::invalid_argument("total_ases too small for the role split");
  }
  const std::uint32_t n_stub = params.total_ases - params.num_tier1 - n_transit;

  GeneratedTopology topo;
  util::Rng rng(params.seed, /*stream=*/0x696e6574ULL);
  AsId next_id = 1;

  // Tier-1 clique (the default-free zone).
  topo.tier1.reserve(params.num_tier1);
  for (std::uint32_t i = 0; i < params.num_tier1; ++i) {
    topo.graph.add_as(next_id, AsTier::kTier1);
    topo.tier1.push_back(next_id++);
  }
  for (std::size_t i = 0; i < topo.tier1.size(); ++i) {
    for (std::size_t j = i + 1; j < topo.tier1.size(); ++j) {
      topo.graph.add_link(topo.tier1[i], topo.tier1[j], Rel::kPeer);
    }
  }

  // Transit layer: each new transit multihomes to 2 (sometimes 3) providers
  // drawn preferentially from the ASes created before it — a growth process
  // whose stationary degree distribution is the heavy tail observed in the
  // real AS graph. Creation order makes the customer-provider DAG acyclic
  // by construction.
  PreferentialPool provider_pool;
  for (const AsId t1 : topo.tier1) provider_pool.add(t1);
  std::vector<AsId> transits;
  transits.reserve(n_transit);
  std::vector<AsId> chosen;
  for (std::uint32_t i = 0; i < n_transit; ++i) {
    topo.graph.add_as(next_id, AsTier::kTransit);
    const AsId id = next_id++;
    const int nprov = 2 + (rng.bernoulli(kTransitExtraProviderProb) ? 1 : 0);
    chosen.clear();
    for (int k = 0; k < nprov; ++k) {
      const AsId prov = provider_pool.pick(rng, id, chosen);
      chosen.push_back(prov);
      topo.graph.add_link(id, prov, Rel::kProvider);
      provider_pool.add(prov);  // one more endpoint per customer gained
    }
    provider_pool.add(id);
    transits.push_back(id);
  }

  // Settlement-free peering among transits: expected kPeerLinksPerTransit
  // links each, partner drawn preferentially (big regionals peer most).
  if (!transits.empty()) {
    PreferentialPool transit_pool;
    for (const AsId t : transits) transit_pool.add(t);
    const auto n_peer_links = static_cast<std::uint64_t>(
        std::llround(kPeerLinksPerTransit *
                     static_cast<double>(transits.size())));
    chosen.clear();
    for (std::uint64_t k = 0; k < n_peer_links; ++k) {
      const AsId a =
          transits[rng.uniform_u32(static_cast<std::uint32_t>(transits.size()))];
      const AsId b = transit_pool.pick(rng, a, chosen);
      // Skip pairs already linked (provider chains or an earlier peering);
      // the expected-count model tolerates the misses.
      if (a == b || topo.graph.has_link(a, b)) continue;
      topo.graph.add_link(a, b, Rel::kPeer);
    }
  }

  // Stub edge: 1-3 providers drawn preferentially from the transit layer
  // (tier-1s included — large enterprises do buy transit from them).
  for (std::uint32_t i = 0; i < n_stub; ++i) {
    topo.graph.add_as(next_id, AsTier::kStub);
    const AsId id = next_id++;
    int nprov = 1;
    if (rng.bernoulli(kScaleStubSecondProviderProb)) {
      nprov = 2;
      if (rng.bernoulli(kScaleStubThirdProviderProb)) nprov = 3;
    }
    chosen.clear();
    for (int k = 0; k < nprov; ++k) {
      const AsId prov = provider_pool.pick(rng, id, chosen);
      chosen.push_back(prov);
      topo.graph.add_link(id, prov, Rel::kProvider);
      provider_pool.add(prov);
    }
    topo.stubs.push_back(id);
  }

  // Role split for feed/vantage selection.
  std::tie(topo.large_transit, topo.small_transit) =
      split_transits(topo.graph, std::move(transits));

  if (const auto err = topo.graph.validate()) {
    throw std::runtime_error("generated topology invalid: " + *err);
  }
  return topo;
}

std::pair<std::vector<AsId>, std::vector<AsId>> split_transits(
    const AsGraph& graph, std::vector<AsId> transits) {
  std::sort(transits.begin(), transits.end(), [&](AsId a, AsId b) {
    const auto da = graph.degree(a);
    const auto db = graph.degree(b);
    return da != db ? da > db : a < b;
  });
  const auto n_large = static_cast<std::ptrdiff_t>(
      transits.empty() ? 0 : std::max<std::size_t>(1, transits.size() / 10));
  std::vector<AsId> large(transits.begin(), transits.begin() + n_large);
  std::vector<AsId> small(transits.begin() + n_large, transits.end());
  std::sort(large.begin(), large.end());
  std::sort(small.begin(), small.end());
  return {std::move(large), std::move(small)};
}

GeneratedTopology classify_topology(AsGraph graph) {
  graph.reclassify_tiers();
  if (const auto err = graph.validate()) {
    throw std::runtime_error("loaded topology invalid: " + *err);
  }
  GeneratedTopology topo;
  topo.tier1 = graph.as_ids_with_tier(AsTier::kTier1);
  topo.stubs = graph.as_ids_with_tier(AsTier::kStub);
  std::tie(topo.large_transit, topo.small_transit) =
      split_transits(graph, graph.as_ids_with_tier(AsTier::kTransit));
  topo.graph = std::move(graph);
  return topo;
}

const char* env_topology_file() {
  const char* file = std::getenv("LG_TOPOLOGY_FILE");
  return file != nullptr && file[0] != '\0' ? file : nullptr;
}

std::optional<GeneratedTopology> env_topology(std::uint64_t seed) {
  if (const char* file = env_topology_file()) {
    return classify_topology(load_caida_file(file));
  }
  if (const char* scale = std::getenv("LG_TOPOLOGY_SCALE");
      scale != nullptr && scale[0] != '\0') {
    const std::size_t n = util::env_size_knob("LG_TOPOLOGY_SCALE", 0);
    if (n < 16 || n > 10'000'000) {
      throw std::invalid_argument(
          "LG_TOPOLOGY_SCALE: must be in [16, 10000000], got '" +
          std::string(scale) + "'");
    }
    InternetScaleParams params;
    params.total_ases = static_cast<std::uint32_t>(n);
    params.seed = seed;
    return generate_internet_scale(params);
  }
  return std::nullopt;
}

GeneratedTopology topology_from_env(const TopologyParams& fallback) {
  if (auto topo = env_topology(fallback.seed)) return std::move(*topo);
  return generate_topology(fallback);
}

Fig2Topology make_fig2_topology() {
  // Relationships chosen so the paper's routing tables emerge from default
  // policy: E prefers the shorter provider route via A (A-B-O) over the
  // longer one via D (D-C-B-O); F is single-homed behind A ("captive").
  Fig2Topology t;
  t.o = 10;
  t.a = 20;
  t.b = 30;
  t.c = 40;
  t.d = 50;
  t.e = 60;
  t.f = 70;
  t.graph.add_as(t.a, AsTier::kTier1);
  t.graph.add_as(t.c, AsTier::kTier1);
  t.graph.add_as(t.b, AsTier::kTransit);
  t.graph.add_as(t.d, AsTier::kTransit);
  t.graph.add_as(t.o, AsTier::kStub);
  t.graph.add_as(t.e, AsTier::kStub);
  t.graph.add_as(t.f, AsTier::kStub);
  t.graph.add_link(t.o, t.b, Rel::kProvider);  // B provides transit to O
  t.graph.add_link(t.b, t.a, Rel::kProvider);  // A provides transit to B
  t.graph.add_link(t.b, t.c, Rel::kProvider);  // C provides transit to B
  t.graph.add_link(t.c, t.d, Rel::kCustomer);  // D is C's customer
  t.graph.add_link(t.a, t.c, Rel::kPeer);      // tier-1 peering
  t.graph.add_link(t.e, t.a, Rel::kProvider);  // E multihomed to A and D
  t.graph.add_link(t.e, t.d, Rel::kProvider);
  t.graph.add_link(t.f, t.a, Rel::kProvider);  // F captive behind A
  if (const auto err = t.graph.validate()) {
    throw std::runtime_error("fig2 topology invalid: " + *err);
  }
  return t;
}

Fig3Topology make_fig3_topology() {
  // O multihomed to D1/D2; A reaches O via two disjoint customer chains
  // (B1-D1 and B2-D2). B2 gets the numerically lower ASN so that A's
  // tie-break initially selects the path through B2 — the scenario then
  // steers traffic off the A-B2 link by poisoning A only via D2.
  Fig3Topology t;
  t.a = 100;
  t.b2 = 110;
  t.b1 = 120;
  t.c1 = 130;
  t.c2 = 140;
  t.c3 = 150;
  t.c4 = 160;
  t.d1 = 170;
  t.d2 = 180;
  t.o = 190;
  t.graph.add_as(t.a, AsTier::kTier1);
  t.graph.add_as(t.b1, AsTier::kTransit);
  t.graph.add_as(t.b2, AsTier::kTransit);
  t.graph.add_as(t.d1, AsTier::kTransit);
  t.graph.add_as(t.d2, AsTier::kTransit);
  t.graph.add_as(t.c1, AsTier::kStub);
  t.graph.add_as(t.c2, AsTier::kStub);
  t.graph.add_as(t.c3, AsTier::kStub);
  t.graph.add_as(t.c4, AsTier::kStub);
  t.graph.add_as(t.o, AsTier::kStub);
  t.graph.add_link(t.b1, t.a, Rel::kProvider);   // A provides to B1, B2
  t.graph.add_link(t.b2, t.a, Rel::kProvider);
  t.graph.add_link(t.d1, t.b1, Rel::kProvider);  // B1 provides to D1
  t.graph.add_link(t.d2, t.b2, Rel::kProvider);  // B2 provides to D2
  t.graph.add_link(t.o, t.d1, Rel::kProvider);   // O multihomed
  t.graph.add_link(t.o, t.d2, Rel::kProvider);
  t.graph.add_link(t.c1, t.b1, Rel::kProvider);
  t.graph.add_link(t.c2, t.a, Rel::kProvider);
  t.graph.add_link(t.c3, t.a, Rel::kProvider);
  t.graph.add_link(t.c4, t.b2, Rel::kProvider);
  if (const auto err = t.graph.validate()) {
    throw std::runtime_error("fig3 topology invalid: " + *err);
  }
  return t;
}

}  // namespace lg::topo
