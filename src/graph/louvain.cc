#include "graph/louvain.h"

#include "check/check.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <numeric>
#include <span>
#include <vector>

namespace cad::graph {

namespace {

// Renumbers community ids densely; communities are ordered by their smallest
// member so the labeling is canonical and deterministic. `remap` is an
// old-id -> dense-id table; ids are always < community->size() here (they
// start as vertex ids and only ever shrink through aggregation).
int CanonicalizeWith(std::vector<int>* community, std::vector<int>* remap) {
  const int n = static_cast<int>(community->size());
  remap->assign(n, -1);
  int next = 0;
  for (int v = 0; v < n; ++v) {
    CAD_DCHECK((*community)[v] >= 0 && (*community)[v] < n,
               "community id out of dense range");
    int& slot = (*remap)[(*community)[v]];
    if (slot < 0) slot = next++;
    (*community)[v] = slot;
  }
  return next;
}

// Each vertex's weighted degree into `degree`, and the total weight m: the
// sums Graph::WeightedDegree (|w| in adjacency order, from 0.0) and
// Graph::TotalWeight (the degrees in vertex order, halved) compute, operand
// for operand, done once per graph instead of once per use.
double DegreesInto(const Graph& graph, std::vector<double>* degree) {
  const int n = graph.n_vertices();
  degree->resize(static_cast<size_t>(n));
  double sum = 0.0;
  for (int u = 0; u < n; ++u) {
    double k = 0.0;
    for (const Graph::Neighbor& nb : graph.neighbors(u)) {
      k += std::abs(nb.weight);
    }
    (*degree)[static_cast<size_t>(u)] = k;
    sum += k;
  }
  return sum / 2.0;
}

// Modularity over a pre-sorted edge list (u < v, lexicographic), given the
// graph's degrees and total weight m from DegreesInto, so callers that hold
// them amortize the sort and the sums. The arithmetic — intra sum in
// sorted-edge order, k_c^2 in dense label order — is exactly the public
// Modularity's (cad_lint CL003: hash-order FP accumulation is forbidden on
// this path). Edges whose endpoints the partition separates add nothing, so
// the singleton partition passes none.
double ModularityOverEdges(double m, const std::vector<double>& degree,
                           const std::vector<int>& community,
                           std::span<const Edge> sorted_edges,
                           std::vector<double>* community_degree) {
  CAD_CHECK(community.size() == degree.size(), "community size mismatch");
  if (m <= 0.0) return 0.0;
  double intra = 0.0;
  for (const Edge& e : sorted_edges) {
    if (community[e.u] == community[e.v]) intra += std::abs(e.weight);
  }
  int max_label = -1;
  for (int c : community) max_label = std::max(max_label, c);
  community_degree->assign(static_cast<size_t>(max_label + 1), 0.0);
  for (size_t v = 0; v < degree.size(); ++v) {
    (*community_degree)[static_cast<size_t>(community[v])] += degree[v];
  }
  double degree_term = 0.0;
  for (double k : *community_degree) degree_term += k * k;
  return intra / m - degree_term / (4.0 * m * m);
}

// One Louvain level: local moving on `graph`, whose degrees and total weight
// m come from DegreesInto, writing the found community per vertex into
// `community`. Returns true if any vertex moved. `self_weight` carries the
// intra-community mass folded into each aggregated vertex: it adds 2*s to the
// vertex's weighted degree and s to the total weight (the standard self-loop
// convention), but never to w(v -> c) since it moves with the vertex.
bool LocalMoving(const Graph& graph, const std::vector<double>& degree,
                 double m, const std::vector<double>& self_weight,
                 const LouvainOptions& options, std::vector<int>* community,
                 LouvainWorkspace* ws) {
  const int n = graph.n_vertices();
  double total_weight = m;
  for (double s : self_weight) total_weight += s;
  if (total_weight <= 0.0) return false;
  const double two_m = 2.0 * total_weight;

  std::vector<double>& vertex_weight = ws->vertex_weight;  // k_i
  vertex_weight.resize(n);
  for (int v = 0; v < n; ++v) {
    vertex_weight[v] = degree[v] + 2.0 * self_weight[v];
  }

  // Sum of k_i over members of each community.
  std::vector<double>& community_total = ws->community_total;
  community_total.assign(n, 0.0);
  for (int v = 0; v < n; ++v) community_total[(*community)[v]] += vertex_weight[v];

  bool any_move = false;
  std::vector<double>& weight_to_community = ws->weight_to_community;
  weight_to_community.assign(n, 0.0);
  std::vector<int>& touched = ws->touched;

  for (int pass = 0; pass < options.max_passes_per_level; ++pass) {
    int moves = 0;
    for (int v = 0; v < n; ++v) {
      const int old_community = (*community)[v];

      // Accumulate |w|(v -> community) over v's neighbours. Neighbours of
      // one community come in runs once communities have formed, so a run
      // is added in a register that starts from, and is stored back to, the
      // community's slot: the same adds in the same order as adding into the
      // slot. The slot's zero test runs before every add, so a community
      // whose edges weigh 0 is listed once per edge; with gains tied within
      // 1e-12 a second evaluation can change the pick, so it stays listed.
      touched.clear();
      int run = -1;
      double run_weight = 0.0;
      for (const Graph::Neighbor& nb : graph.neighbors(v)) {
        const int c = (*community)[nb.vertex];
        if (c != run) {
          if (run >= 0) weight_to_community[run] = run_weight;
          run = c;
          run_weight = weight_to_community[c];
        }
        // cad-lint: allow(CL007) LouvainWorkspace buffer with clear()-and-reuse semantics, bounded by the community count
        if (run_weight == 0.0) touched.push_back(c);
        run_weight += std::abs(nb.weight);
      }
      if (run >= 0) weight_to_community[run] = run_weight;

      community_total[old_community] -= vertex_weight[v];

      // Gain of joining community c (relative to staying isolated):
      //   dQ = w(v->c)/m - k_v * tot_c / (2 m^2); comparing across c we can
      // drop the common 1/m factor.
      int best_community = old_community;
      double best_gain = weight_to_community[old_community] -
                         vertex_weight[v] * community_total[old_community] / two_m;
      for (int c : touched) {
        const double gain =
            weight_to_community[c] - vertex_weight[v] * community_total[c] / two_m;
        if (gain > best_gain + 1e-12 ||
            (std::abs(gain - best_gain) <= 1e-12 && c < best_community)) {
          best_gain = gain;
          best_community = c;
        }
      }

      community_total[best_community] += vertex_weight[v];
      if (best_community != old_community) {
        (*community)[v] = best_community;
        ++moves;
        any_move = true;
      }

      for (int c : touched) weight_to_community[c] = 0.0;
      weight_to_community[old_community] = 0.0;
    }
    if (moves == 0) break;
  }
  return any_move;
}

// Builds the aggregated graph whose vertices are the communities of the
// level whose sorted edges are `level_edges`, and each community's self-loop
// mass, which Graph cannot store, into ws->next_self: its intra-community |w|
// in sorted-edge order, then its members' `self_weight` in vertex order.
// Inter-community mass is accumulated per community pair in sorted-edge
// order: entries are tagged with their edge sequence number and sorted by
// (key, seq), so each pair's FP sum adds contributions in exactly the order
// the map-based implementation did. Each pair is listed at both endpoints in
// ascending key order, so every vertex lists its lower neighbours ascending,
// then its higher ones, and the next level's SortedEdgesInto needs no sort.
void AggregateInto(std::span<const Edge> level_edges,
                   const std::vector<int>& community, int n_communities,
                   const std::vector<double>& self_weight,
                   LouvainWorkspace* ws, Graph* out) {
  std::vector<double>& next_self = ws->next_self;
  next_self.assign(static_cast<size_t>(n_communities), 0.0);
  std::vector<LouvainWorkspace::AggEntry>& agg = ws->agg;
  agg.clear();
  int seq = 0;
  // A vertex's edges are consecutive and mostly intra-community, so a run of
  // one community's intra mass is added in a register, as in LocalMoving.
  int run = -1;
  double run_mass = 0.0;
  for (const Edge& e : level_edges) {
    const int cu = community[e.u];
    const int cv = community[e.v];
    if (cu == cv) {
      if (cu != run) {
        if (run >= 0) next_self[run] = run_mass;
        run = cu;
        run_mass = next_self[cu];
      }
      run_mass += std::abs(e.weight);
      continue;
    }
    const int a = std::min(cu, cv), b = std::max(cu, cv);
    // cad-lint: allow(CL007) LouvainWorkspace buffer with clear()-and-reuse semantics, bounded by the level's edge count
    agg.push_back({static_cast<int64_t>(a) * n_communities + b, seq++,
                   std::abs(e.weight)});
  }
  if (run >= 0) next_self[run] = run_mass;
  for (size_t v = 0; v < self_weight.size(); ++v) {
    next_self[community[v]] += self_weight[v];
  }
  std::sort(agg.begin(), agg.end(),
            [](const LouvainWorkspace::AggEntry& x,
               const LouvainWorkspace::AggEntry& y) {
              return x.key != y.key ? x.key < y.key : x.seq < y.seq;
            });

  // Sum each pair's entries into one entry at the front of agg, counting
  // both endpoints' pairs into offsets[x + 2]. The running sums then make
  // offsets[x + 1] the start of x's list, and listing the pairs moves it to
  // the list's end, so offsets[0, n_communities] delimits the lists.
  std::vector<int>& offsets = ws->agg_offsets;
  EnsureSize(&offsets, static_cast<size_t>(n_communities) + 2);
  std::fill_n(offsets.begin(), n_communities + 2, 0);
  int pairs = 0;
  for (size_t i = 0; i < agg.size();) {
    const int64_t key = agg[i].key;
    double w = 0.0;
    for (; i < agg.size() && agg[i].key == key; ++i) w += agg[i].weight;
    agg[pairs++] = {key, 0, w};
    ++offsets[key / n_communities + 2];
    ++offsets[key % n_communities + 2];
  }
  for (int x = 2; x < n_communities + 2; ++x) offsets[x] += offsets[x - 1];
  std::vector<Graph::Neighbor>& lists = ws->agg_lists;
  EnsureSize(&lists, 2 * static_cast<size_t>(pairs));
  for (int p = 0; p < pairs; ++p) {
    const int a = static_cast<int>(agg[p].key / n_communities);
    const int b = static_cast<int>(agg[p].key % n_communities);
    lists[offsets[a + 1]++] = {b, agg[p].weight};
    lists[offsets[b + 1]++] = {a, agg[p].weight};
  }
  out->AssignAdjacency(
      {offsets.data(), static_cast<size_t>(n_communities) + 1},
      {lists.data(), 2 * static_cast<size_t>(pairs)});
}

}  // namespace

double Modularity(const Graph& graph, const std::vector<int>& community) {
  std::vector<Edge> edges;
  graph.SortedEdgesInto(&edges);
  std::vector<double> degree;
  const double m = DegreesInto(graph, &degree);
  std::vector<double> community_degree;
  return ModularityOverEdges(m, degree, community, edges, &community_degree);
}

void LouvainInto(const Graph& graph, const LouvainOptions& options,
                 LouvainWorkspace* ws, Partition* out) CAD_REALTIME_AUDITED {
  const int n = graph.n_vertices();
  out->community.resize(n);
  std::iota(out->community.begin(), out->community.end(), 0);
  if (n == 0) {
    out->n_communities = 0;
    out->modularity = 0.0;
    return;
  }

  // The original graph never changes, so its sorted edges, degrees and total
  // weight — read by every level's true-modularity gate and by level 0's
  // local moving and aggregation — are computed once.
  graph.SortedEdgesInto(&ws->mod_edges);
  const double m = DegreesInto(graph, &ws->degree);
  // Aggregated levels are smaller than the input, so their degree buffer,
  // sized for the input here, never grows at a later level or round.
  ws->level_degree.resize(n);

  // level_graph points at the graph of the current level; aggregation
  // ping-pongs between the two workspace graphs. mapping[v] tracks each
  // original vertex's current-level vertex.
  const Graph* level_graph = &graph;
  ws->mapping.resize(n);
  std::iota(ws->mapping.begin(), ws->mapping.end(), 0);
  // Self-loop weights accumulated by aggregation (not representable in
  // Graph); they only add to a vertex's weighted degree and to the total
  // weight, never to inter-community moves, so we thread them explicitly.
  ws->self_weight.assign(n, 0.0);

  double previous_modularity = ModularityOverEdges(
      m, ws->degree, out->community, {}, &ws->community_degree);

  for (int level = 0; level < options.max_levels; ++level) {
    const int n_level = level_graph->n_vertices();
    const bool input_level = level_graph == &graph;
    const double level_m =
        input_level ? m : DegreesInto(*level_graph, &ws->level_degree);
    ws->level_community.resize(n_level);
    std::iota(ws->level_community.begin(), ws->level_community.end(), 0);

    const bool moved = LocalMoving(
        *level_graph, input_level ? ws->degree : ws->level_degree, level_m,
        ws->self_weight, options, &ws->level_community, ws);
    if (!moved) break;

    const int n_level_communities =
        CanonicalizeWith(&ws->level_community, &ws->remap);

    // Tentatively project onto original vertices; keep the level only if it
    // improves true modularity on the original graph.
    ws->candidate.resize(n);
    for (int v = 0; v < n; ++v) {
      ws->candidate[v] = ws->level_community[ws->mapping[v]];
    }
    const double modularity = ModularityOverEdges(
        m, ws->degree, ws->candidate, ws->mod_edges, &ws->community_degree);
    if (modularity <= previous_modularity + options.min_modularity_gain) {
      break;  // out->community keeps the previous (better) level
    }
    out->community.assign(ws->candidate.begin(), ws->candidate.end());
    previous_modularity = modularity;

    // Aggregate for the next level; the input's sorted edges are at hand.
    std::span<const Edge> level_edges = ws->mod_edges;
    if (!input_level) {
      level_graph->SortedEdgesInto(&ws->level_edges);
      level_edges = ws->level_edges;
    }
    Graph* next =
        (level_graph == &ws->level_graph) ? &ws->next_graph : &ws->level_graph;
    AggregateInto(level_edges, ws->level_community, n_level_communities,
                  ws->self_weight, ws, next);
    std::swap(ws->self_weight, ws->next_self);
    level_graph = next;
    for (int v = 0; v < n; ++v) ws->mapping[v] = out->community[v];

    if (level_graph->n_vertices() <= 1) break;
  }

  out->n_communities = CanonicalizeWith(&out->community, &ws->remap);
  out->modularity = previous_modularity;  // relabeling cannot change it
}

Partition Louvain(const Graph& graph, const LouvainOptions& options) {
  Partition result;
  LouvainWorkspace workspace;
  LouvainInto(graph, options, &workspace, &result);
  return result;
}

Partition ConnectedComponents(const Graph& graph) {
  const int n = graph.n_vertices();
  Partition result;
  result.community.assign(n, -1);
  std::vector<int> stack;
  int next_component = 0;
  for (int start = 0; start < n; ++start) {
    if (result.community[start] != -1) continue;
    stack.push_back(start);
    result.community[start] = next_component;
    while (!stack.empty()) {
      const int v = stack.back();
      stack.pop_back();
      for (const Graph::Neighbor& nb : graph.neighbors(v)) {
        if (result.community[nb.vertex] == -1) {
          result.community[nb.vertex] = next_component;
          stack.push_back(nb.vertex);
        }
      }
    }
    ++next_component;
  }
  result.n_communities = next_component;
  return result;
}

}  // namespace cad::graph
