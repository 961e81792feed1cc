#include "topology/generator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "topology/io.h"
#include "util/hashing.h"

namespace lg::topo {
namespace {

// FNV-1a over every link (sorted) and its relationship. The count and shape
// tests pass for many graphs; a golden digest fails if any constant, draw or
// draw order inside a generator moves.
std::uint64_t links_digest(const GeneratedTopology& topo) {
  util::Fnv1a h;
  for (const AsLinkKey& link : topo.graph.links()) {
    const Rel rel = *topo.graph.relationship(link.a, link.b);
    h.u64(link.a);
    h.u64(link.b);
    h.byte(static_cast<std::uint8_t>(rel));
  }
  return h.state;
}

TEST(GeneratorTest, ProducesRequestedCounts) {
  const TopologyParams params{.num_tier1 = 5,
                              .num_large_transit = 10,
                              .num_small_transit = 20,
                              .num_stubs = 40,
                              .seed = 1};
  const auto topo = generate_topology(params);
  EXPECT_EQ(topo.tier1.size(), 5u);
  EXPECT_EQ(topo.large_transit.size(), 10u);
  EXPECT_EQ(topo.small_transit.size(), 20u);
  EXPECT_EQ(topo.stubs.size(), 40u);
  EXPECT_EQ(topo.graph.num_ases(), 75u);
}

TEST(GeneratorTest, ValidatesCleanly) {
  const auto topo = generate_topology({.seed = 2});
  EXPECT_FALSE(topo.graph.validate().has_value());
}

TEST(GeneratorTest, Tier1FormsFullPeerClique) {
  const auto topo = generate_topology({.num_tier1 = 6, .seed = 3});
  for (std::size_t i = 0; i < topo.tier1.size(); ++i) {
    for (std::size_t j = i + 1; j < topo.tier1.size(); ++j) {
      EXPECT_EQ(topo.graph.relationship(topo.tier1[i], topo.tier1[j]),
                Rel::kPeer);
    }
  }
}

TEST(GeneratorTest, StubsHaveOnlyProviders) {
  const auto topo = generate_topology({.seed = 4});
  for (const AsId stub : topo.stubs) {
    EXPECT_TRUE(topo.graph.customers(stub).empty());
    const auto providers = topo.graph.providers(stub);
    EXPECT_GE(providers.size(), 1u);
    EXPECT_LE(providers.size(), 3u);
  }
}

TEST(GeneratorTest, DeterministicForSameSeed) {
  const auto a = generate_topology({.seed = 77});
  const auto b = generate_topology({.seed = 77});
  EXPECT_EQ(a.graph.links(), b.graph.links());
}

TEST(GeneratorTest, DifferentSeedsDiffer) {
  const auto a = generate_topology({.seed = 1});
  const auto b = generate_topology({.seed = 2});
  EXPECT_NE(a.graph.links(), b.graph.links());
}

TEST(GeneratorTest, DegreeDistributionIsHeavyTailed) {
  const auto topo = generate_topology({.seed = 9});
  std::vector<std::size_t> degrees;
  for (const AsId as : topo.graph.as_ids()) {
    degrees.push_back(topo.graph.degree(as));
  }
  std::sort(degrees.rbegin(), degrees.rend());
  // Preferential attachment: the max degree should be far above the median.
  const auto median = degrees[degrees.size() / 2];
  EXPECT_GT(degrees.front(), median * 5);
}

TEST(GeneratorTest, DefaultTopologyIsPinned) {
  const auto topo = generate_topology(TopologyParams{});
  EXPECT_EQ(links_digest(topo), 0x3dd5368a8f4fa92bULL)
      << topo.graph.num_links();
}

TEST(GeneratorTest, RejectsDegenerateParams) {
  EXPECT_THROW(generate_topology({.num_tier1 = 1}), std::invalid_argument);
}

TEST(InternetScaleTest, ProducesValidGraphAtModestScale) {
  const auto topo = generate_internet_scale({.total_ases = 2000, .seed = 5});
  EXPECT_EQ(topo.graph.num_ases(), 2000u);
  EXPECT_FALSE(topo.graph.validate().has_value());
  EXPECT_EQ(topo.tier1.size(), 12u);
  EXPECT_FALSE(topo.large_transit.empty());
  EXPECT_FALSE(topo.small_transit.empty());
  EXPECT_FALSE(topo.stubs.empty());
  EXPECT_EQ(topo.tier1.size() + topo.large_transit.size() +
                topo.small_transit.size() + topo.stubs.size(),
            2000u);
}

TEST(InternetScaleTest, DeterministicPerSeed) {
  const auto a = generate_internet_scale({.total_ases = 1000, .seed = 7});
  const auto b = generate_internet_scale({.total_ases = 1000, .seed = 7});
  const auto c = generate_internet_scale({.total_ases = 1000, .seed = 8});
  EXPECT_EQ(a.graph.links(), b.graph.links());
  EXPECT_NE(a.graph.links(), c.graph.links());
}

TEST(InternetScaleTest, DegreeStatsMatchInternetShape) {
  const auto topo = generate_internet_scale({.total_ases = 5000, .seed = 11});
  std::vector<std::size_t> degrees;
  std::size_t total_degree = 0;
  for (const AsId as : topo.graph.as_ids()) {
    degrees.push_back(topo.graph.degree(as));
    total_degree += degrees.back();
  }
  const double avg =
      static_cast<double>(total_degree) / static_cast<double>(degrees.size());
  // Real AS graph: average degree ~4-6, heavy tail at the top.
  EXPECT_GT(avg, 2.0);
  EXPECT_LT(avg, 10.0);
  std::sort(degrees.rbegin(), degrees.rend());
  EXPECT_GT(degrees.front(), degrees[degrees.size() / 2] * 20);
}

TEST(InternetScaleTest, GraphIsPinned) {
  const auto topo = generate_internet_scale({.total_ases = 5000, .seed = 42});
  EXPECT_EQ(links_digest(topo), 0x8119091dce9e8041ULL)
      << topo.graph.num_links();
}

TEST(InternetScaleTest, RejectsDegenerateParams) {
  EXPECT_THROW(generate_internet_scale({.total_ases = 10, .num_tier1 = 12}),
               std::invalid_argument);
}

TEST(ClassifyTopologyTest, WrapsLoadedGraphWithRoles) {
  const auto generated = generate_internet_scale({.total_ases = 800, .seed = 3});
  auto reloaded = classify_topology(from_caida(to_caida(generated.graph)));
  EXPECT_EQ(reloaded.graph.num_ases(), generated.graph.num_ases());
  EXPECT_EQ(reloaded.tier1.size(), generated.tier1.size());
  // Role partition covers the graph; large transit = top decile by degree.
  EXPECT_EQ(reloaded.tier1.size() + reloaded.large_transit.size() +
                reloaded.small_transit.size() + reloaded.stubs.size(),
            reloaded.graph.num_ases());
  for (const AsId as : reloaded.large_transit) {
    EXPECT_EQ(reloaded.graph.tier(as), AsTier::kTransit);
  }
  for (const AsId as : reloaded.stubs) {
    EXPECT_TRUE(reloaded.graph.customers(as).empty());
  }
}

// RAII env guard so failures can't leak topology overrides into later tests.
class EnvGuard {
 public:
  EnvGuard(const char* key, const std::string& value) : key_(key) {
    ::setenv(key, value.c_str(), 1);
  }
  ~EnvGuard() { ::unsetenv(key_); }

 private:
  const char* key_;
};

TEST(TopologyFromEnvTest, DefaultsToFallbackParams) {
  const TopologyParams fallback{.num_tier1 = 4,
                                .num_large_transit = 8,
                                .num_small_transit = 16,
                                .num_stubs = 40,
                                .seed = 21};
  const auto topo = topology_from_env(fallback);
  EXPECT_EQ(topo.graph.links(), generate_topology(fallback).graph.links());
}

TEST(TopologyFromEnvTest, ScaleOverrideGeneratesInternetScale) {
  const EnvGuard guard("LG_TOPOLOGY_SCALE", "500");
  const TopologyParams fallback{.seed = 33};
  const auto topo = topology_from_env(fallback);
  EXPECT_EQ(topo.graph.num_ases(), 500u);
  // The fallback's seed carries over so trials stay reproducible.
  InternetScaleParams params;
  params.total_ases = 500;
  params.seed = 33;
  EXPECT_EQ(topo.graph.links(), generate_internet_scale(params).graph.links());
}

TEST(TopologyFromEnvTest, FileOverrideWinsOverScale) {
  const auto source = generate_topology({.num_tier1 = 3,
                                         .num_large_transit = 6,
                                         .num_small_transit = 12,
                                         .num_stubs = 30,
                                         .seed = 13});
  const std::string path = ::testing::TempDir() + "/lg_topo_env_test.txt";
  save_caida_file(source.graph, path);
  const EnvGuard file_guard("LG_TOPOLOGY_FILE", path);
  const EnvGuard scale_guard("LG_TOPOLOGY_SCALE", "500");
  const auto topo = topology_from_env({});
  EXPECT_EQ(topo.graph.links(), source.graph.links());
  std::remove(path.c_str());
}

TEST(TopologyFromEnvTest, BadScaleValueThrows) {
  // Digits only: a sign or a blank is as malformed as a word.
  for (const char* value : {"bogus", "3", " 500", "+500"}) {
    const EnvGuard guard("LG_TOPOLOGY_SCALE", value);
    EXPECT_THROW(topology_from_env({}), std::invalid_argument)
        << "LG_TOPOLOGY_SCALE='" << value << "'";
  }
}

TEST(Fig2TopologyTest, MatchesPaperStructure) {
  const auto t = make_fig2_topology();
  EXPECT_EQ(t.graph.relationship(t.o, t.b), Rel::kProvider);
  EXPECT_EQ(t.graph.relationship(t.b, t.a), Rel::kProvider);
  EXPECT_EQ(t.graph.relationship(t.a, t.c), Rel::kPeer);
  // F is captive: single provider A.
  EXPECT_EQ(t.graph.providers(t.f), std::vector<AsId>{t.a});
  // E is multihomed to A and D.
  const auto e_prov = t.graph.providers(t.e);
  EXPECT_EQ(e_prov.size(), 2u);
  EXPECT_FALSE(t.graph.validate().has_value());
}

TEST(Fig3TopologyTest, DisjointChainsToA) {
  const auto t = make_fig3_topology();
  // O multihomed to D1 and D2.
  const auto o_prov = t.graph.providers(t.o);
  EXPECT_EQ(o_prov.size(), 2u);
  // The two chains D1-B1-A and D2-B2-A share only A.
  EXPECT_TRUE(t.graph.has_link(t.d1, t.b1));
  EXPECT_TRUE(t.graph.has_link(t.d2, t.b2));
  EXPECT_TRUE(t.graph.has_link(t.b1, t.a));
  EXPECT_TRUE(t.graph.has_link(t.b2, t.a));
  EXPECT_FALSE(t.graph.has_link(t.d1, t.b2));
  EXPECT_FALSE(t.graph.has_link(t.b1, t.b2));
  // B2 numerically lower so A's tie-break initially picks the B2 chain.
  EXPECT_LT(t.b2, t.b1);
  EXPECT_FALSE(t.graph.validate().has_value());
}

}  // namespace
}  // namespace lg::topo
