// Weighted undirected graph with a fixed vertex set.
//
// This is the substrate for the paper's Time-Series Graphs (TSGs): vertices
// are sensors, edges connect highly correlated sensors, and the edge weight
// is the Pearson correlation within one window (possibly negative).
#ifndef CAD_GRAPH_GRAPH_H_
#define CAD_GRAPH_GRAPH_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
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
  explicit Graph(int n_vertices)
      : adjacency_(n_vertices), n_vertices_(n_vertices) {}

  // Re-shapes to `n_vertices` isolated vertices. Every list keeps its
  // capacity, so a graph rebuilt every round stops allocating once it has
  // seen its peak per-vertex degree.
  void Reset(int n_vertices) {
    Reshape(static_cast<size_t>(n_vertices));
    for (int u = 0; u < n_vertices; ++u) adjacency_[u].clear();
    n_edges_ = 0;
  }

  int n_vertices() const { return n_vertices_; }
  int64_t n_edges() const { return n_edges_; }

  // Adds an undirected edge; u != v, both in range. Duplicate edges are the
  // caller's responsibility. The round path fills its graphs with
  // AssignAdjacency instead.
  void AddEdge(int u, int v, double weight) {
    CAD_CHECK(u != v, "self-loop");
    CAD_CHECK(u >= 0 && u < n_vertices() && v >= 0 && v < n_vertices(),
              "edge endpoint out of range");
    adjacency_[u].push_back({v, weight});
    adjacency_[v].push_back({u, weight});
    ++n_edges_;
  }

  struct Neighbor {
    int vertex;
    double weight;
  };

  // Replaces every vertex's adjacency list in one call: the graph gets
  // offsets.size() - 1 vertices, and vertex u's list becomes
  // neighbors[offsets[u], offsets[u + 1]) in that order. n_edges() becomes
  // half the entries. Nothing is checked: the caller lists both half-edges
  // of every edge, as the kNN builder does (check::ValidateGraph verifies the
  // TSG at CAD_CHECK_LEVEL=full), or builds a malformed graph on purpose, as
  // the validator tests do. Each list keeps its capacity, and one that must
  // grow takes the next power of two, the capacity a list of AddEdge calls
  // reaches, so a graph rebuilt every round stops allocating once it has
  // seen its peak per-vertex degree.
  void AssignAdjacency(std::span<const int> offsets,
                       std::span<const Neighbor> neighbors) {
    const size_t n = offsets.empty() ? 0 : offsets.size() - 1;
    Reshape(n);
    for (size_t u = 0; u < n; ++u) {
      const std::span<const Neighbor> list = neighbors.subspan(
          static_cast<size_t>(offsets[u]),
          static_cast<size_t>(offsets[u + 1] - offsets[u]));
      std::vector<Neighbor>& adjacency = adjacency_[u];
      if (list.size() > adjacency.capacity()) {
        adjacency.clear();
        adjacency.resize(std::bit_ceil(list.size()));
      }
      adjacency.assign(list.begin(), list.end());
    }
    n_edges_ = n == 0 ? 0 : (offsets[n] - offsets[0]) / 2;
  }

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
  // Edges come out already sorted when each vertex's larger neighbours sit
  // in ascending order, as in the kNN builder's lists and Louvain's
  // aggregated graphs; the emission checks that as it goes, and the sort
  // runs only when they do not.
  void SortedEdgesInto(std::vector<Edge>* edges) const {
    edges->clear();
    // cad-lint: allow(CL007) reserve into retained capacity: the caller's workspace vector keeps its storage across rounds
    edges->reserve(static_cast<size_t>(n_edges_));
    bool sorted = true;
    for (int u = 0; u < n_vertices(); ++u) {
      int previous = u;
      for (const Neighbor& nb : adjacency_[u]) {
        if (u < nb.vertex) {
          sorted &= previous <= nb.vertex;
          previous = nb.vertex;
          edges->push_back({u, nb.vertex, nb.weight});
        }
      }
    }
    if (!sorted) {
      std::sort(edges->begin(), edges->end(), [](const Edge& a, const Edge& b) {
        return a.u != b.u ? a.u < b.u : a.v < b.v;
      });
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

 private:
  void Reshape(size_t n_vertices) {
    if (adjacency_.size() < n_vertices) adjacency_.resize(n_vertices);
    n_vertices_ = static_cast<int>(n_vertices);
  }

  // Only grows: the lists past n_vertices_ keep their capacity for a later,
  // larger graph (Louvain's level graphs shrink and grow back every round).
  std::vector<std::vector<Neighbor>> adjacency_;
  int n_vertices_ = 0;
  int64_t n_edges_ = 0;
};

// Makes `buffer` hold at least `size` elements, keeping the ones it holds.
// A buffer only grows, to a power of two, so its size stays its capacity and
// a peak that rises a little every round costs few allocations.
template <typename T>
void EnsureSize(std::vector<T>* buffer, size_t size) {
  if (size > buffer->size()) buffer->resize(std::bit_ceil(size));
}

}  // namespace cad::graph

#endif  // CAD_GRAPH_GRAPH_H_
