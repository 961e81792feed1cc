#include "topology/as_graph.h"

#include <gtest/gtest.h>

namespace lg::topo {
namespace {

AsGraph triangle() {
  AsGraph g;
  g.add_as(1, AsTier::kTier1);
  g.add_as(2, AsTier::kTransit);
  g.add_as(3, AsTier::kStub);
  g.add_link(2, 1, Rel::kProvider);  // 1 provides to 2
  g.add_link(3, 2, Rel::kProvider);  // 2 provides to 3
  return g;
}

TEST(RelTest, ReverseIsInvolution) {
  EXPECT_EQ(reverse(Rel::kCustomer), Rel::kProvider);
  EXPECT_EQ(reverse(Rel::kProvider), Rel::kCustomer);
  EXPECT_EQ(reverse(Rel::kPeer), Rel::kPeer);
  for (const auto r : {Rel::kCustomer, Rel::kProvider, Rel::kPeer}) {
    EXPECT_EQ(reverse(reverse(r)), r);
  }
}

TEST(AsGraphTest, AddAsRejectsDuplicatesAndZero) {
  AsGraph g;
  g.add_as(1);
  EXPECT_THROW(g.add_as(1), std::invalid_argument);
  EXPECT_THROW(g.add_as(0), std::invalid_argument);
}

TEST(AsGraphTest, AddLinkValidation) {
  AsGraph g;
  g.add_as(1);
  g.add_as(2);
  EXPECT_THROW(g.add_link(1, 1, Rel::kPeer), std::invalid_argument);
  EXPECT_THROW(g.add_link(1, 9, Rel::kPeer), std::invalid_argument);
  g.add_link(1, 2, Rel::kPeer);
  EXPECT_THROW(g.add_link(2, 1, Rel::kPeer), std::invalid_argument);
}

TEST(AsGraphTest, RelationshipIsSymmetricallyReversed) {
  const auto g = triangle();
  EXPECT_EQ(g.relationship(2, 1), Rel::kProvider);  // 1 is 2's provider
  EXPECT_EQ(g.relationship(1, 2), Rel::kCustomer);  // 2 is 1's customer
  EXPECT_FALSE(g.relationship(1, 3).has_value());
}

TEST(AsGraphTest, NeighborQueries) {
  const auto g = triangle();
  EXPECT_EQ(g.providers(3), std::vector<AsId>{2});
  EXPECT_EQ(g.customers(1), std::vector<AsId>{2});
  EXPECT_TRUE(g.peers(1).empty());
  EXPECT_EQ(g.degree(2), 2u);
  EXPECT_TRUE(g.neighbors(99).empty());
}

TEST(AsGraphTest, IdsAndLinksAreSortedDeterministically) {
  const auto g = triangle();
  EXPECT_EQ(g.as_ids(), (std::vector<AsId>{1, 2, 3}));
  const auto links = g.links();
  ASSERT_EQ(links.size(), 2u);
  EXPECT_EQ(links[0].a, 1u);
  EXPECT_EQ(links[0].b, 2u);
}

// Ids added in any order come back ascending, and each AS keeps its
// neighbors in link-insertion order (the engine's draw order depends on it).
TEST(AsGraphTest, OutOfOrderAddsKeepAscendingIds) {
  AsGraph g;
  for (const AsId id : {40u, 7u, 4200000000u, 13u, 1u, 64512u}) g.add_as(id);
  EXPECT_EQ(g.as_ids(),
            (std::vector<AsId>{1, 7, 13, 40, 64512, 4200000000u}));
  g.add_link(13, 4200000000u, Rel::kProvider);
  g.add_link(13, 1, Rel::kPeer);
  g.add_link(13, 40, Rel::kCustomer);
  g.add_as(20);  // lands between 13 and 40
  g.add_link(13, 20, Rel::kCustomer);
  EXPECT_EQ(g.as_ids(),
            (std::vector<AsId>{1, 7, 13, 20, 40, 64512, 4200000000u}));
  std::vector<AsId> order;
  for (const Neighbor& n : g.neighbors(13)) order.push_back(n.id);
  EXPECT_EQ(order, (std::vector<AsId>{4200000000u, 1, 40, 20}));
  EXPECT_EQ(g.relationship(4200000000u, 13), Rel::kCustomer);
  EXPECT_EQ(g.relationship(20, 13), Rel::kProvider);
  EXPECT_TRUE(g.has_as(64512));
  EXPECT_FALSE(g.has_as(64513));
  EXPECT_TRUE(g.neighbors(4199999999u).empty());
  EXPECT_EQ(g.degree(7), 0u);
}

TEST(AsGraphTest, ValidatePassesOnCleanHierarchy) {
  EXPECT_FALSE(triangle().validate().has_value());
}

TEST(AsGraphTest, ValidateCatchesTier1WithProvider) {
  AsGraph g;
  g.add_as(1, AsTier::kTier1);
  g.add_as(2, AsTier::kTier1);
  g.add_link(1, 2, Rel::kProvider);  // tier-1 with a provider: invalid
  const auto err = g.validate();
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("tier-1"), std::string::npos);
}

TEST(AsGraphTest, ValidateCatchesOrphanIsland) {
  AsGraph g;
  g.add_as(1, AsTier::kTier1);
  g.add_as(2, AsTier::kStub);
  g.add_as(3, AsTier::kStub);
  g.add_link(2, 1, Rel::kProvider);
  // AS 3 has no provider chain to a tier-1 (it is marked stub but has no
  // links at all): tiers say stub, but reclassify first marks it tier-1;
  // keep its declared tier and expect a violation.
  const auto err = g.validate();
  ASSERT_TRUE(err.has_value());
}

TEST(AsGraphTest, ReclassifyTiersFromStructure) {
  AsGraph g;
  g.add_as(1, AsTier::kStub);  // wrong on purpose
  g.add_as(2, AsTier::kStub);
  g.add_as(3, AsTier::kTier1);  // wrong on purpose
  g.add_link(2, 1, Rel::kProvider);
  g.add_link(3, 2, Rel::kProvider);
  g.reclassify_tiers();
  EXPECT_EQ(g.tier(1), AsTier::kTier1);
  EXPECT_EQ(g.tier(2), AsTier::kTransit);
  EXPECT_EQ(g.tier(3), AsTier::kStub);
}

TEST(AsGraphTest, TierThrowsOnUnknownAs) {
  const AsGraph g;
  EXPECT_THROW(g.tier(1), std::out_of_range);
}

TEST(AsLinkKeyTest, CanonicalOrdering) {
  const AsLinkKey k1(5, 3);
  const AsLinkKey k2(3, 5);
  EXPECT_EQ(k1, k2);
  EXPECT_EQ(k1.a, 3u);
  EXPECT_EQ(AsLinkKeyHash{}(k1), AsLinkKeyHash{}(k2));
}

}  // namespace
}  // namespace lg::topo
