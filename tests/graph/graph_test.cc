#include "graph/graph.h"

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace cad::graph
