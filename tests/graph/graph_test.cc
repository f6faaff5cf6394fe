#include "graph/graph.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/alloc_tracker.h"

namespace cad::graph {
namespace {

TEST(GraphTest, EmptyGraph) {
  Graph g(4);
  EXPECT_EQ(g.n_vertices(), 4);
  EXPECT_EQ(g.n_edges(), 0);
  EXPECT_EQ(g.TotalWeight(), 0.0);
  EXPECT_TRUE(g.SortedEdges().empty());
}

TEST(GraphTest, UndirectedEdgeVisibleFromBothSides) {
  Graph g(3);
  g.AddEdge(0, 2, 0.8);
  EXPECT_EQ(g.n_edges(), 1);
  EXPECT_TRUE(g.HasEdge(0, 2));
  EXPECT_TRUE(g.HasEdge(2, 0));
  EXPECT_FALSE(g.HasEdge(0, 1));
  EXPECT_EQ(g.degree(0), 1);
  EXPECT_EQ(g.degree(2), 1);
  EXPECT_EQ(g.degree(1), 0);
}

TEST(GraphTest, WeightedDegreeUsesAbsoluteWeights) {
  Graph g(3);
  g.AddEdge(0, 1, -0.5);
  g.AddEdge(0, 2, 0.25);
  EXPECT_DOUBLE_EQ(g.WeightedDegree(0), 0.75);
  EXPECT_DOUBLE_EQ(g.TotalWeight(), 0.75);
}

TEST(GraphTest, SortedEdgesCanonicalOrder) {
  Graph g(4);
  g.AddEdge(2, 3, 1.0);
  g.AddEdge(0, 1, 2.0);
  g.AddEdge(1, 3, 3.0);
  const std::vector<Edge> edges = g.SortedEdges();
  ASSERT_EQ(edges.size(), 3u);
  EXPECT_EQ(edges[0].u, 0);
  EXPECT_EQ(edges[0].v, 1);
  EXPECT_EQ(edges[1].u, 1);
  EXPECT_EQ(edges[1].v, 3);
  EXPECT_EQ(edges[2].u, 2);
  EXPECT_EQ(edges[2].v, 3);
  // Negative weights keep their sign in the edge list.
  EXPECT_EQ(edges[0].weight, 2.0);

  // A vertex whose larger neighbours were added out of order is sorted too.
  Graph h(4);
  h.AddEdge(0, 3, -1.0);
  h.AddEdge(2, 1, 2.0);
  h.AddEdge(0, 1, 3.0);
  const std::vector<Edge> sorted = h.SortedEdges();
  ASSERT_EQ(sorted.size(), 3u);
  EXPECT_EQ(sorted[0].u, 0);
  EXPECT_EQ(sorted[0].v, 1);
  EXPECT_EQ(sorted[0].weight, 3.0);
  EXPECT_EQ(sorted[1].u, 0);
  EXPECT_EQ(sorted[1].v, 3);
  EXPECT_EQ(sorted[1].weight, -1.0);
  EXPECT_EQ(sorted[2].u, 1);
  EXPECT_EQ(sorted[2].v, 2);
  EXPECT_EQ(sorted[2].weight, 2.0);
}

TEST(GraphTest, NeighborsCarryWeights) {
  Graph g(2);
  g.AddEdge(0, 1, -0.9);
  ASSERT_EQ(g.neighbors(0).size(), 1u);
  EXPECT_EQ(g.neighbors(0)[0].vertex, 1);
  EXPECT_EQ(g.neighbors(0)[0].weight, -0.9);
}

TEST(GraphTest, AssignAdjacencyReplacesEveryListAndKeepsCapacity) {
  Graph g(2);
  g.AddEdge(0, 1, 0.5);
  // Path 0 - 1 - 2, each list in the order given.
  const std::vector<int> offsets = {0, 1, 3, 4};
  const std::vector<Graph::Neighbor> path = {
      {1, 0.9}, {2, -0.8}, {0, 0.9}, {1, -0.8}};
  g.AssignAdjacency(offsets, path);
  EXPECT_EQ(g.n_vertices(), 3);
  EXPECT_EQ(g.n_edges(), 2);
  ASSERT_EQ(g.degree(1), 2);
  EXPECT_EQ(g.neighbors(1)[0].vertex, 2);
  EXPECT_EQ(g.neighbors(1)[0].weight, -0.8);
  EXPECT_EQ(g.neighbors(1)[1].vertex, 0);
  EXPECT_FALSE(g.HasEdge(0, 2));

  // A smaller assignment reuses every list's storage.
  const Graph::Neighbor* list1 = g.neighbors(1).data();
  const std::vector<int> one_edge = {0, 0, 1, 2};
  const std::vector<Graph::Neighbor> edge = {{2, 0.3}, {1, 0.3}};
  g.AssignAdjacency(one_edge, edge);
  EXPECT_EQ(g.n_edges(), 1);
  EXPECT_EQ(g.degree(0), 0);
  ASSERT_EQ(g.degree(1), 1);
  EXPECT_EQ(g.neighbors(1).data(), list1);
  EXPECT_TRUE(g.HasEdge(2, 1));
}

// The adjacency of an n-vertex cycle: vertex u's list is {u - 1, u + 1}.
void CycleAdjacency(int n, std::vector<int>* offsets,
                    std::vector<Graph::Neighbor>* neighbors) {
  offsets->assign(1, 0);
  neighbors->clear();
  for (int u = 0; u < n; ++u) {
    neighbors->push_back({(u + n - 1) % n, 0.5});
    neighbors->push_back({(u + 1) % n, 0.5});
    offsets->push_back(static_cast<int>(neighbors->size()));
  }
}

// A graph rebuilt with fewer vertices keeps the lists of the vertices it
// drops, so regrowing to the earlier size with the same lists allocates
// nothing. Louvain's level graphs shrink across levels and grow back in the
// next round.
TEST(GraphTest, ShrinkAndRegrowKeepsDroppedListsCapacity) {
  common::LinkAllocHook();
  ASSERT_TRUE(common::AllocHookInstalled());
  std::vector<int> offsets8, offsets3;
  std::vector<Graph::Neighbor> cycle8, cycle3;
  CycleAdjacency(8, &offsets8, &cycle8);
  CycleAdjacency(3, &offsets3, &cycle3);

  Graph g;
  g.AssignAdjacency(offsets8, cycle8);
  g.AssignAdjacency(offsets3, cycle3);
  EXPECT_EQ(g.n_vertices(), 3);
  EXPECT_EQ(g.n_edges(), 3);
  int64_t before = common::ThreadAllocCount();
  g.AssignAdjacency(offsets8, cycle8);
  EXPECT_EQ(common::ThreadAllocCount() - before, 0);
  ASSERT_EQ(g.n_vertices(), 8);
  EXPECT_EQ(g.n_edges(), 8);
  for (int u = 0; u < 8; ++u) {
    ASSERT_EQ(g.degree(u), 2);
    EXPECT_EQ(g.neighbors(u)[0].vertex, (u + 7) % 8);
    EXPECT_EQ(g.neighbors(u)[1].vertex, (u + 1) % 8);
  }

  // Reset keeps them too, and the regrown vertices start isolated.
  g.Reset(3);
  EXPECT_EQ(g.n_vertices(), 3);
  before = common::ThreadAllocCount();
  g.Reset(8);
  g.AssignAdjacency(offsets8, cycle8);
  EXPECT_EQ(common::ThreadAllocCount() - before, 0);
  g.Reset(8);
  for (int u = 0; u < 8; ++u) EXPECT_EQ(g.degree(u), 0);
  EXPECT_EQ(g.n_edges(), 0);
  EXPECT_TRUE(g.SortedEdges().empty());
}

}  // namespace
}  // namespace cad::graph
