// Weighted undirected graph with a fixed vertex set.
//
// This is the substrate for the paper's Time-Series Graphs (TSGs): vertices
// are sensors, edges connect highly correlated sensors, and the edge weight
// is the Pearson correlation within one window (possibly negative).
#ifndef CAD_GRAPH_GRAPH_H_
#define CAD_GRAPH_GRAPH_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "check/check.h"
#include "common/status.h"

namespace cad::graph {

struct Edge {
  int u = 0;
  int v = 0;
  double weight = 0.0;
};

class Graph {
 public:
  Graph() = default;
  explicit Graph(int n_vertices) : adjacency_(n_vertices) {}

  // Re-shapes to `n_vertices` isolated vertices. Inner adjacency capacity is
  // retained, so a graph rebuilt every round stops allocating once it has
  // seen its peak per-vertex degree.
  void Reset(int n_vertices) {
    if (static_cast<int>(adjacency_.size()) != n_vertices) {
      adjacency_.resize(n_vertices);
    }
    for (auto& adjacency : adjacency_) adjacency.clear();
    n_edges_ = 0;
  }

  int n_vertices() const { return static_cast<int>(adjacency_.size()); }
  int64_t n_edges() const { return n_edges_; }

  // Adds an undirected edge; u != v, both in range. Duplicate edges are the
  // caller's responsibility (the kNN builder never produces them).
  void AddEdge(int u, int v, double weight) {
    CAD_CHECK(u != v, "self-loop");
    CAD_CHECK(u >= 0 && u < n_vertices() && v >= 0 && v < n_vertices(),
              "edge endpoint out of range");
    // cad-lint: allow(CL007) adjacency capacity is retained across Reset(); steady-state rebuilds push into reserved storage (engine_alloc_test)
    adjacency_[u].push_back({v, weight});
    adjacency_[v].push_back({u, weight});
    ++n_edges_;
  }

  struct Neighbor {
    int vertex;
    double weight;
  };

  const std::vector<Neighbor>& neighbors(int u) const { return adjacency_[u]; }

  int degree(int u) const { return static_cast<int>(adjacency_[u].size()); }

  // Sum of |weight| over incident edges; Louvain and modularity operate on
  // absolute weights because correlation edges may be negative and a strong
  // anti-correlation is still a strong tie.
  double WeightedDegree(int u) const {
    double sum = 0.0;
    for (const Neighbor& nb : adjacency_[u]) sum += std::abs(nb.weight);
    return sum;
  }

  // Total |weight| over all edges (each edge counted once).
  double TotalWeight() const {
    double sum = 0.0;
    for (int u = 0; u < n_vertices(); ++u) sum += WeightedDegree(u);
    return sum / 2.0;
  }

  // All edges with u < v, sorted lexicographically (useful for tests and for
  // deterministic serialization). The Into form reuses `edges`' capacity.
  // Edges come out already sorted when each vertex's larger neighbours were
  // added in ascending order, as the kNN builder and Louvain's aggregation
  // add them; the sort runs only when they were not.
  void SortedEdgesInto(std::vector<Edge>* edges) const {
    edges->clear();
    // cad-lint: allow(CL007) reserve into retained capacity: the caller's workspace vector keeps its storage across rounds
    edges->reserve(static_cast<size_t>(n_edges_));
    for (int u = 0; u < n_vertices(); ++u) {
      for (const Neighbor& nb : adjacency_[u]) {
        if (u < nb.vertex) edges->push_back({u, nb.vertex, nb.weight});
      }
    }
    const auto before = [](const Edge& a, const Edge& b) {
      return a.u != b.u ? a.u < b.u : a.v < b.v;
    };
    if (!std::is_sorted(edges->begin(), edges->end(), before)) {
      std::sort(edges->begin(), edges->end(), before);
    }
  }

  std::vector<Edge> SortedEdges() const {
    std::vector<Edge> edges;
    SortedEdgesInto(&edges);
    return edges;
  }

  bool HasEdge(int u, int v) const {
    for (const Neighbor& nb : adjacency_[u]) {
      if (nb.vertex == v) return true;
    }
    return false;
  }

  // Test-only back door: appends one directed half-edge, bypassing the
  // AddEdge invariants and the n_edges() bookkeeping. Exists so the
  // check/validators.h tests can construct minimally-corrupted graphs;
  // production code must use AddEdge.
  void CorruptHalfEdgeForTesting(int u, int v, double weight) {
    adjacency_[u].push_back({v, weight});
  }

 private:
  std::vector<std::vector<Neighbor>> adjacency_;
  int64_t n_edges_ = 0;
};

}  // namespace cad::graph

#endif  // CAD_GRAPH_GRAPH_H_
