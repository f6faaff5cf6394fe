// k-NN graph construction from a correlation matrix (paper Section III-B).
//
// Each vertex is connected to its k highest-|correlation| neighbours; edges
// whose absolute weight falls below the correlation threshold tau are pruned.
// The result of both steps is the paper's Time-Series Graph (TSG).
//
// One pass. BuildKnnGraphInto walks the packed correlation triangle once,
// row by row. Each pair with |r| >= tau is offered to both endpoints'
// bounded top-k heaps (KnnScratch::heaps, n x min(k, n-1) entries, the
// weakest kept pick at each root). The heaps order candidates by |r|
// descending, then neighbour index ascending: a strict total order, so each
// vertex keeps exactly the k-set a full sort of its row would pick. The picks
// are then marked in an n x ceil(n/64) bit set, pick (u, v) as bit v of row
// min(u, v), which merges the two endpoints' picks into one undirected edge.
// Emitting each row's bits in ascending order adds the edges in (u, v)
// lexicographic order — the order of a u-then-v scan of the union — so
// adjacency lists, edge weights and KnnGraphStats do not depend on how the
// picks were found (tests/graph/knn_graph_test.cc pins them bit for bit
// against a per-row partial_sort reference).
#ifndef CAD_GRAPH_KNN_GRAPH_H_
#define CAD_GRAPH_KNN_GRAPH_H_

#include <cstdint>
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

// Reusable buffers for BuildKnnGraphInto; capacity is retained across
// rounds so steady-state TSG construction touches no heap.
struct KnnScratch {
  std::vector<KnnCandidate> heaps;  // n x min(k, n-1): per-vertex top-k heaps
  std::vector<int> heap_size;       // per vertex
  std::vector<uint64_t> picked;     // n x ceil(n/64) bits: pick u < v in row u
};

// Builds the TSG: the union of every vertex's k strongest-|corr| neighbour
// edges, then pruned by tau. Edge weights keep the signed correlation.
// Deterministic: ties in correlation magnitude are broken by vertex index.
Graph BuildKnnGraph(const stats::CorrelationMatrix& corr,
                    const KnnGraphOptions& options,
                    KnnGraphStats* stats = nullptr);

// Allocation-free form: Reset()s `graph` and rebuilds it in place using
// `scratch`'s buffers. Identical output to BuildKnnGraph.
void BuildKnnGraphInto(const stats::CorrelationMatrix& corr,
                       const KnnGraphOptions& options, KnnScratch* scratch,
                       Graph* graph,
                       KnnGraphStats* stats = nullptr) CAD_REALTIME_AUDITED;

}  // namespace cad::graph

#endif  // CAD_GRAPH_KNN_GRAPH_H_
