// k-NN graph construction from a correlation matrix (paper Section III-B).
//
// Each vertex is connected to its k highest-|correlation| neighbours; edges
// whose absolute weight falls below the correlation threshold tau are pruned.
// The result of both steps is the paper's Time-Series Graph (TSG).
//
// Per-vertex candidate lists. BuildKnnGraphInto walks the packed correlation
// triangle once, row by row, and collects every pair with |r| >= tau in
// (u, v) order while counting both endpoints. The counts become per-vertex
// offsets, and each pair is scattered into both endpoints' contiguous lists
// as {neighbour, signed r}, in place in the buffer that held the pairs.
// Because the pairs arrive in (u, v) order, each list comes out in
// ascending neighbour order: the lower neighbours from earlier rows, then
// the vertex's own row.
//
// Selection. A vertex with at most min(k, n-1) candidates keeps them all.
// Otherwise its weakest kept pick is its min(k, n-1)-th strongest candidate
// under |r| descending, then neighbour index ascending — a strict total
// order, so it is the k-th entry a full sort of the row would give. A
// 65-bucket histogram of |r| over [tau, 1] finds the bucket holding that
// entry, and nth_element runs over that bucket's members only. A candidate
// pair stays when it is at or above the weakest kept pick of either endpoint
// (the union of the two endpoints' picks).
//
// Fill. The lists are compacted in place and handed to the graph in one
// Graph::AssignAdjacency call. Compaction keeps each list ascending, which is
// exactly the adjacency a (u, v)-ordered AddEdge loop over the kept pairs
// builds, so adjacency order, edge weights and KnnGraphStats do not depend on
// how the picks were found (tests/graph/knn_graph_test.cc pins them bit for
// bit against a per-row partial_sort reference).
#ifndef CAD_GRAPH_KNN_GRAPH_H_
#define CAD_GRAPH_KNN_GRAPH_H_

#include <vector>

#include "common/realtime.h"
#include "graph/graph.h"
#include "stats/correlation.h"

namespace cad::graph {

struct KnnGraphOptions {
  int k = 10;          // neighbours per vertex
  double tau = 0.5;    // prune edges with |corr| < tau
};

// Construction statistics, fed into the cad_tsg_edges_* metrics.
struct KnnGraphStats {
  int candidate_pairs = 0;  // undirected pairs with |corr| >= tau
  int kept_edges = 0;       // edges in the resulting TSG
  int pruned_pairs() const { return candidate_pairs - kept_edges; }
};

// One vertex's candidate neighbour: |corr| and the neighbour's index.
struct KnnCandidate {
  double strength;
  int vertex;
};

// Reusable buffers for BuildKnnGraphInto. Every buffer keeps its capacity
// across rounds, and `lists` grows only to a power of two when a round needs
// more, so steady-state TSG construction touches no heap.
struct KnnScratch {
  std::vector<Graph::Neighbor> lists;  // the pairs, then the per-vertex lists
  std::vector<int> row_counts;         // n: pairs in each triangle row
  // n + 1 entries: list x is lists[offsets[x], offsets[x + 1]).
  std::vector<int> offsets;
  std::vector<KnnCandidate> weakest;   // n: each vertex's weakest kept pick
  std::vector<KnnCandidate> bucket;    // one histogram bucket's members
};

// Builds the TSG: the union of every vertex's k strongest-|corr| neighbour
// edges, then pruned by tau. Edge weights keep the signed correlation.
// Deterministic: ties in correlation magnitude are broken by vertex index.
Graph BuildKnnGraph(const stats::CorrelationMatrix& corr,
                    const KnnGraphOptions& options,
                    KnnGraphStats* stats = nullptr);

// Allocation-free form: rebuilds `graph` in place using `scratch`'s buffers.
// Identical output to BuildKnnGraph.
void BuildKnnGraphInto(const stats::CorrelationMatrix& corr,
                       const KnnGraphOptions& options, KnnScratch* scratch,
                       Graph* graph,
                       KnnGraphStats* stats = nullptr) CAD_REALTIME_AUDITED;

}  // namespace cad::graph

#endif  // CAD_GRAPH_KNN_GRAPH_H_
