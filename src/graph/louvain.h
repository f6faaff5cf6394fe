// Louvain community detection (Blondel et al. 2008), Phase 1 of CAD's
// per-round OutlierDetection (paper Algorithm 1, line 2).
//
// The implementation is fully deterministic: vertices are visited in index
// order and modularity-gain ties are broken by the smallest community id, so
// repeated runs on the same TSG produce identical partitions. The paper
// leans on this determinism for CAD's stability claim (Table VIII).
//
// Correlation edges may be negative; community detection runs on |weight|
// because a strong anti-correlation is still a strong structural tie between
// two sensors of the same machine.
//
// Work done once per graph: the input's sorted edges, weighted degrees and
// total weight are computed once and read by every level's modularity gate
// and by level 0's local moving and aggregation; each aggregated level sums
// its own degrees once. Every floating-point sum keeps its operands and
// their order — a degree adds |w| in adjacency order, the total weight adds
// the degrees in vertex order, the intra-community and per-pair masses add
// in sorted-edge order — because a reordered sum can round differently, and
// one changed bit can flip a tie between two communities' gains and with it
// the partition, the outliers and the verdict.
#ifndef CAD_GRAPH_LOUVAIN_H_
#define CAD_GRAPH_LOUVAIN_H_

#include <vector>

#include "common/realtime.h"
#include "graph/graph.h"

namespace cad::graph {

struct LouvainOptions {
  // Stop a local-moving sweep when the modularity gain over one full pass
  // drops below this threshold.
  double min_modularity_gain = 1e-7;
  // Safety cap on local-moving passes per level.
  int max_passes_per_level = 64;
  // Safety cap on aggregation levels.
  int max_levels = 32;
};

struct Partition {
  // community[v] is the community id of vertex v; ids are dense in
  // [0, n_communities) and canonicalized so communities are numbered by
  // their smallest member vertex.
  std::vector<int> community;
  int n_communities = 0;
  // Newman modularity of this partition on the input graph (the same value
  // the per-level improvement gate computed, so exposing it is free);
  // invariant under canonical relabeling. 0 for an edgeless graph.
  double modularity = 0.0;
};

// Reusable buffers for LouvainInto. Every vector Louvain needs — per-level
// communities, local-moving accumulators, aggregation entries, the two
// ping-ponged aggregated graphs — lives here with clear()-and-reuse
// semantics, so steady-state rounds run the full multi-level method without
// touching the heap.
struct LouvainWorkspace {
  // One inter-community mass contribution of the level being aggregated;
  // `seq` preserves sorted-edge order within a key so the per-key FP sums
  // accumulate in exactly the order the map-based implementation used.
  struct AggEntry {
    int64_t key = 0;  // min(cu,cv) * n_communities + max(cu,cv)
    int seq = 0;
    double weight = 0.0;
  };

  std::vector<Edge> level_edges;  // SortedEdgesInto of an aggregated level
  std::vector<Edge> mod_edges;    // SortedEdgesInto of the original graph
  std::vector<double> degree;        // weighted degrees of the original graph
  std::vector<double> level_degree;  // and of the aggregated level
  std::vector<double> vertex_weight;
  std::vector<double> community_total;
  std::vector<double> weight_to_community;
  std::vector<int> touched;
  std::vector<int> remap;  // Canonicalize old-id -> dense-id table
  std::vector<int> level_community;
  std::vector<int> candidate;
  std::vector<int> mapping;
  std::vector<double> self_weight;
  std::vector<double> next_self;
  std::vector<double> community_degree;  // Modularity label-order accumulator
  std::vector<AggEntry> agg;
  // The aggregated graph's lists: list x is
  // agg_lists[agg_offsets[x], agg_offsets[x + 1]). Both only grow.
  std::vector<int> agg_offsets;
  std::vector<Graph::Neighbor> agg_lists;
  Graph level_graph;
  Graph next_graph;
};

// Newman modularity of a partition under absolute edge weights. Isolated
// vertices contribute nothing; an edgeless graph has modularity 0.
double Modularity(const Graph& graph, const std::vector<int>& community);

// Runs the full multi-level Louvain method.
Partition Louvain(const Graph& graph, const LouvainOptions& options = {});

// Allocation-free form: identical partition (byte-identical modularity
// arithmetic included), with all scratch drawn from `workspace` and the
// result written into `out`.
void LouvainInto(const Graph& graph, const LouvainOptions& options,
                 LouvainWorkspace* workspace,
                 Partition* out) CAD_REALTIME_AUDITED;

// Connected components (ignores weights); used by tests as a coarse
// consistency check against Louvain (every community is within a component).
Partition ConnectedComponents(const Graph& graph);

}  // namespace cad::graph

#endif  // CAD_GRAPH_LOUVAIN_H_
