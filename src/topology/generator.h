// Synthetic Internet-like AS topology generator.
//
// Substitute for the paper's real-Internet substrate (BGP feeds + BitTorrent
// traceroute AS graph): a three-level hierarchy — a tier-1 peering clique,
// transit ASes attached by preferential attachment (giving the heavy-tailed
// degree distribution observed in the real AS graph), and multihomed stubs —
// all annotated with customer/provider/peer relationships so that policy
// routing and poisoning behave as they do in the wild.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "topology/as_graph.h"
#include "util/rng.h"

namespace lg::topo {

struct TopologyParams {
  std::uint32_t num_tier1 = 8;
  std::uint32_t num_large_transit = 30;
  std::uint32_t num_small_transit = 120;
  std::uint32_t num_stubs = 600;

  // Peering link probabilities within/between transit levels.
  double large_transit_peer_prob = 0.20;
  double small_transit_peer_prob = 0.03;

  // BGP-Mux-style origins: stubs with exactly `mux_provider_count`
  // providers, each in a *distinct* large-transit AS — the multi-PoP,
  // one-provider-per-PoP deployment the paper uses for selective poisoning
  // (§5.2). Listed in GeneratedTopology::mux_origins.
  std::uint32_t num_mux_origins = 0;
  std::uint32_t mux_provider_count = 5;

  std::uint64_t seed = 42;
};

struct GeneratedTopology {
  AsGraph graph;
  std::vector<AsId> tier1;
  std::vector<AsId> large_transit;
  std::vector<AsId> small_transit;
  std::vector<AsId> stubs;
  std::vector<AsId> mux_origins;  // also included in `stubs`

  std::vector<AsId> transit() const {
    std::vector<AsId> out = large_transit;
    out.insert(out.end(), small_transit.begin(), small_transit.end());
    return out;
  }

  // The first stub with at least two providers — the origin poison repair
  // needs, since it shifts traffic to an alternate provider — or kInvalidAs
  // when no stub qualifies.
  AsId first_multihomed_stub() const {
    for (const AsId as : stubs) {
      if (graph.providers(as).size() >= 2) return as;
    }
    return kInvalidAs;
  }
};

// Generates a valid topology (GeneratedTopology::graph passes validate()).
GeneratedTopology generate_topology(const TopologyParams& params);

// Degree-matched synthetic generator at real-Internet scale (~70k ASes,
// average degree ~6, heavy-tailed transit degrees). Same three-level
// Gao-Rexford structure as generate_topology, but built with O(1)
// repeated-endpoint preferential attachment so 70k ASes generate in well
// under a second — the quadratic peering loops of TopologyParams would take
// hours there. Knobs, constants and the degree model are documented in
// docs/TOPOLOGIES.md.
struct InternetScaleParams {
  std::uint32_t total_ases = 70000;
  std::uint32_t num_tier1 = 12;  // full peering clique (DFZ core)
  std::uint64_t seed = 42;
};
GeneratedTopology generate_internet_scale(const InternetScaleParams& params);

// The large-transit cut: the top tenth of `transits` by degree (degree
// descending, ties by lower id; at least one when any exist) is large, the
// rest small. Returns {large, small}, each ascending. generate_internet_scale,
// classify_topology and adversary::RoleTable all cut here.
std::pair<std::vector<AsId>, std::vector<AsId>> split_transits(
    const AsGraph& graph, std::vector<AsId> transits);

// Wrap an externally loaded graph (e.g. a CAIDA relationship file) in the
// role structure experiments expect: tiers are reclassified from the
// relationship structure, transits are split by split_transits. Throws if
// the graph fails validate().
GeneratedTopology classify_topology(AsGraph graph);

// LG_TOPOLOGY_FILE when it is set and non-empty, else nullptr.
const char* env_topology_file();

// The topology the environment names, or nullopt when it names none:
//   LG_TOPOLOGY_FILE=<path>  — load a CAIDA serial-1/2 relationship file;
//   LG_TOPOLOGY_SCALE=<n>    — generate_internet_scale with n total ASes,
//                              seeded with `seed`.
// FILE wins over SCALE, and an empty value counts as unset. This is the one
// reader of both knobs.
std::optional<GeneratedTopology> env_topology(std::uint64_t seed);

// env_topology(fallback.seed), else generate_topology(fallback): the wiring
// point workload::SimWorld uses.
GeneratedTopology topology_from_env(const TopologyParams& fallback);

// Tiny fixed topologies used by unit tests and the paper's illustrative
// figures.
//
// Figure 2 of the paper: origin O with provider B; B has provider A and peer
// C; E is a customer of A and C (multi-homed); F is a stub customer of A
// ("captive"); D is a customer of C and provider of E... exact shape below.
struct Fig2Topology {
  AsGraph graph;
  AsId o = 0, a = 0, b = 0, c = 0, d = 0, e = 0, f = 0;
};
Fig2Topology make_fig2_topology();

// Figure 3 of the paper: origin O multihomed to D1 and D2, which reach A via
// disjoint paths (D1-B1-A, D2-B2-A); C1..C4 single/multi-homed around them.
struct Fig3Topology {
  AsGraph graph;
  AsId o = 0, a = 0, b1 = 0, b2 = 0, c1 = 0, c2 = 0, c3 = 0, c4 = 0, d1 = 0,
       d2 = 0;
};
Fig3Topology make_fig3_topology();

}  // namespace lg::topo
