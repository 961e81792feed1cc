#include "topology/valley_free.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "run/trial_runner.h"
#include "topology/generator.h"
#include "util/hashing.h"
#include "util/rng.h"

namespace lg::topo {
namespace {

// Chain: 1 (tier-1) provides to 2, which provides to 3. Peer 4 of 2.
AsGraph chain_with_peer() {
  AsGraph g;
  g.add_as(1, AsTier::kTier1);
  g.add_as(2, AsTier::kTransit);
  g.add_as(3, AsTier::kStub);
  g.add_as(4, AsTier::kTransit);
  g.add_as(5, AsTier::kStub);
  g.add_link(2, 1, Rel::kProvider);
  g.add_link(3, 2, Rel::kProvider);
  g.add_link(2, 4, Rel::kPeer);
  g.add_link(4, 1, Rel::kProvider);
  g.add_link(5, 4, Rel::kProvider);
  return g;
}

TEST(ValleyFreeTest, UpThenDownIsAllowed) {
  const auto g = chain_with_peer();
  const ValleyFreeOracle oracle(g);
  // 3 -> 2 -> 4 -> 5: up to provider 2, peer across to 4, down to 5.
  EXPECT_TRUE(oracle.reachable(3, 5));
  const auto path = oracle.shortest_path(3, 5);
  EXPECT_EQ(path, (std::vector<AsId>{3, 2, 4, 5}));
}

TEST(ValleyFreeTest, ValleyIsRejected) {
  AsGraph g;
  // 1 and 3 are providers of 2; 2 is the valley: 1 -> 2 -> 3 would go
  // down then up, which export policy forbids.
  g.add_as(1, AsTier::kTier1);
  g.add_as(3, AsTier::kTier1);
  g.add_as(2, AsTier::kStub);
  g.add_link(2, 1, Rel::kProvider);
  g.add_link(2, 3, Rel::kProvider);
  const ValleyFreeOracle oracle(g);
  EXPECT_FALSE(oracle.reachable(1, 3));
  EXPECT_TRUE(oracle.reachable(1, 2));
  EXPECT_TRUE(oracle.reachable(2, 3));
}

TEST(ValleyFreeTest, TwoPeerHopsAreRejected) {
  AsGraph g;
  g.add_as(1, AsTier::kTier1);
  g.add_as(2, AsTier::kTier1);
  g.add_as(3, AsTier::kTier1);
  g.add_link(1, 2, Rel::kPeer);
  g.add_link(2, 3, Rel::kPeer);
  const ValleyFreeOracle oracle(g);
  // 1 -> 2 (peer) -> 3 (peer) requires two peer traversals: invalid.
  EXPECT_FALSE(oracle.reachable(1, 3));
  EXPECT_TRUE(oracle.reachable(1, 2));
}

TEST(ValleyFreeTest, AvoidedAsBlocksPath) {
  const auto g = chain_with_peer();
  const ValleyFreeOracle oracle(g);
  EXPECT_TRUE(oracle.reachable(3, 1));
  EXPECT_FALSE(oracle.reachable(3, 1, Avoidance::of_as(2)));
  EXPECT_FALSE(oracle.reachable(3, 5, Avoidance::of_as(4)));
}

TEST(ValleyFreeTest, UpAfterPeerIsRejected) {
  const auto g = chain_with_peer();
  const ValleyFreeOracle oracle(g);
  // With link 2-1 blocked, the only remaining candidate 3 -> 2 -> 4 -> 1
  // needs an *up* move (4 to its provider 1) after the peer hop 2-4, which
  // export policy forbids: 4 would not export a peer-learned route to a
  // provider... and symmetric reasoning kills the reverse. No path.
  EXPECT_TRUE(oracle.shortest_path(3, 1, Avoidance::of_link(2, 1)).empty());
}

TEST(ValleyFreeTest, AvoidedLinkForcesDetourViaSecondProvider) {
  auto g = chain_with_peer();
  g.add_as(6, AsTier::kTransit);
  g.add_link(2, 6, Rel::kProvider);  // 6 is 2's second provider
  g.add_link(6, 1, Rel::kProvider);  // 1 is 6's provider
  const ValleyFreeOracle oracle(g);
  // 3 -> 2 -> 1 blocked on link 2-1: climb via provider 6 instead.
  const auto path = oracle.shortest_path(3, 1, Avoidance::of_link(2, 1));
  EXPECT_EQ(path, (std::vector<AsId>{3, 2, 6, 1}));
}

TEST(ValleyFreeTest, EndpointInAvoidSetIsUnreachable) {
  const auto g = chain_with_peer();
  const ValleyFreeOracle oracle(g);
  EXPECT_FALSE(oracle.reachable(3, 1, Avoidance::of_as(3)));
  EXPECT_FALSE(oracle.reachable(3, 1, Avoidance::of_as(1)));
}

TEST(ValleyFreeTest, SelfIsTriviallyReachable) {
  const auto g = chain_with_peer();
  const ValleyFreeOracle oracle(g);
  EXPECT_EQ(oracle.shortest_path(3, 3), std::vector<AsId>{3});
}

TEST(ValleyFreeTest, UnknownAsesAreUnreachable) {
  const auto g = chain_with_peer();
  const ValleyFreeOracle oracle(g);
  EXPECT_FALSE(oracle.reachable(3, 99));
  EXPECT_FALSE(oracle.reachable(99, 3));
}

TEST(ValleyFreeTest, GeneratedTopologyIsFullyConnected) {
  const auto topo = generate_topology({.num_tier1 = 4,
                                       .num_large_transit = 8,
                                       .num_small_transit = 20,
                                       .num_stubs = 50,
                                       .seed = 5});
  const ValleyFreeOracle oracle(topo.graph);
  // Every stub can reach every tier-1 (via its provider chain) and
  // vice versa (down the customer cone or across the clique).
  for (const AsId stub : topo.stubs) {
    for (const AsId t1 : topo.tier1) {
      EXPECT_TRUE(oracle.reachable(stub, t1))
          << "stub " << stub << " cannot reach tier1 " << t1;
      EXPECT_TRUE(oracle.reachable(t1, stub))
          << "tier1 " << t1 << " cannot reach stub " << stub;
    }
  }
}

// Pins which of several equal-length valley-free paths comes back (the BFS
// tie-break), since core::Lifeguard acts on the returned path. The queries
// mix every input class: no avoidance, an AS or a link taken from the
// unconstrained path, an avoided endpoint, src == dst and an unknown AS.
// One FNV-1a digest covers every path and its length, empty ones included.
TEST(ValleyFreeOracleTest, ShortestPathsArePinned) {
  const auto topo = generate_internet_scale({.total_ases = 5000, .seed = 11});
  const AsGraph& g = topo.graph;
  const std::vector<AsId> ases = g.as_ids();
  const ValleyFreeOracle oracle(g);
  util::Rng rng(2012, 0x70696e);
  util::Fnv1a digest;
  std::size_t nonempty = 0;
  for (int q = 0; q < 2000; ++q) {
    const AsId src = rng.pick(ases);
    AsId dst = rng.pick(ases);
    Avoidance avoid;
    const int kind = q % 6;
    if (kind == 1 || kind == 2) {
      const auto base = oracle.shortest_path(src, dst);
      if (base.size() >= 3) {
        const auto i = 1 + rng.uniform_u32(
                               static_cast<std::uint32_t>(base.size() - 2));
        avoid = kind == 1 ? Avoidance::of_as(base[i])
                          : Avoidance::of_link(base[i - 1], base[i]);
      }
    } else if (kind == 3) {
      avoid = Avoidance::of_as(dst);
    } else if (kind == 4) {
      dst = src;
    } else if (kind == 5) {
      dst = ases.back() + 1 + rng.uniform_u32(100);
    }
    const auto path = oracle.shortest_path(src, dst, avoid);
    nonempty += path.empty() ? 0 : 1;
    digest.u64(path.size());
    for (const AsId hop : path) digest.u64(hop);
  }
  EXPECT_GT(nonempty, 1000u);
  EXPECT_EQ(digest.state, 0x58abe7cf4c922b55ULL);
}

// The oracle answers from a snapshot taken at construction; a graph changed
// afterwards must fail loudly instead of yielding stale paths.
TEST(ValleyFreeOracleTest, RejectsGraphChangedAfterConstruction) {
  auto g = chain_with_peer();
  const ValleyFreeOracle oracle(g);
  EXPECT_EQ(oracle.shortest_path(3, 1), (std::vector<AsId>{3, 2, 1}));
  g.add_link(3, 4, Rel::kProvider);
  EXPECT_THROW(oracle.shortest_path(3, 1), std::logic_error);
  EXPECT_THROW(oracle.reachable(5, 1), std::logic_error);
}

// One graph and one oracle serve every trial thread, as in
// bench/sec5_1_efficacy: each query reads AS indices, arcs and ids the
// graph and the oracle own, and nothing else. Answers at 4 threads must
// equal a serial pass; under ThreadSanitizer (the CI tsan job) this is
// also the data-race check on those shared reads.
TEST(ValleyFreeOracleTest, SharedAcrossTrialThreads) {
  const auto topo = generate_internet_scale({.total_ases = 5000, .seed = 5});
  const AsGraph& g = topo.graph;
  const ValleyFreeOracle oracle(g);
  // A trial's digest of 40 queries drawn from its own seed: every path,
  // plus the endpoints' indices and degrees read straight from the graph.
  const auto trial = [&](std::uint64_t seed) {
    util::Rng rng(seed, 0x74736e);
    util::Fnv1a digest;
    for (int q = 0; q < 40; ++q) {
      const AsId src = rng.pick(g.as_ids());
      const AsId dst = rng.pick(g.as_ids());
      const Avoidance avoid = Avoidance::of_as(rng.pick(g.as_ids()));
      digest.u64(g.index_of(src));
      digest.u64(g.degree(dst));
      for (const AsId hop : oracle.shortest_path(src, dst, avoid)) {
        digest.u64(hop);
      }
    }
    return digest.state;
  };
  run::TrialRunner runner({.threads = 4});
  const std::vector<std::uint64_t> parallel = runner.run(
      16, [&](const run::TrialContext& ctx) { return trial(ctx.seed); });
  for (std::size_t i = 0; i < parallel.size(); ++i) {
    EXPECT_EQ(parallel[i], trial(run::trial_seed(runner.base_seed(), i)))
        << "trial " << i;
  }
}

TEST(ObservedTripleSetTest, ContainsRecordedTriplesBothDirections) {
  ObservedTripleSet set;
  const std::vector<AsId> path{1, 2, 3, 4};
  set.add_path(path);
  EXPECT_TRUE(set.contains(1, 2, 3));
  EXPECT_TRUE(set.contains(2, 3, 4));
  EXPECT_TRUE(set.contains(3, 2, 1));  // reversed
  EXPECT_FALSE(set.contains(1, 3, 4));
}

TEST(ObservedTripleSetTest, ShortPathsRecordNothingButValidate) {
  ObservedTripleSet set;
  set.add_path(std::vector<AsId>{1, 2});
  EXPECT_EQ(set.size(), 0u);
  EXPECT_TRUE(set.path_valid(std::vector<AsId>{7, 8}));
}

TEST(ObservedTripleSetTest, PathValidRequiresEveryInteriorTriple) {
  ObservedTripleSet set;
  set.add_path(std::vector<AsId>{1, 2, 3});
  set.add_path(std::vector<AsId>{2, 3, 4});
  EXPECT_TRUE(set.path_valid(std::vector<AsId>{1, 2, 3, 4}));
  // 3-4-5 never observed.
  EXPECT_FALSE(set.path_valid(std::vector<AsId>{2, 3, 4, 5}));
}

}  // namespace
}  // namespace lg::topo
