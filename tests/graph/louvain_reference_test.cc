// LouvainInto against the Louvain it replaced, bit for bit: the partition,
// its community count and the modularity's bits must not move, on TSGs of
// the benchmark shapes and on random graphs built edge by edge.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "datasets/generator.h"
#include "datasets/registry.h"
#include "graph/knn_graph.h"
#include "graph/louvain.h"
#include "stats/correlation.h"

namespace cad::graph {
namespace {

// ---- The reference: the previous implementation --------------------------
//
// Its arithmetic, operand for operand, with the workspace replaced by local
// containers and the (key, seq)-sorted aggregation by the map it reproduced.
// Degrees and total weight are summed again by every modularity and local-
// moving call, level 0 sorts the input's edges a second time, the singleton
// modularity walks every edge, and local moving adds each neighbour's weight
// into the per-community array.

int ReferenceCanonicalize(std::vector<int>* community) {
  const int n = static_cast<int>(community->size());
  std::vector<int> remap(n, -1);
  int next = 0;
  for (int v = 0; v < n; ++v) {
    int& slot = remap[(*community)[v]];
    if (slot < 0) slot = next++;
    (*community)[v] = slot;
  }
  return next;
}

double ReferenceModularity(const Graph& graph,
                           const std::vector<int>& community,
                           const std::vector<Edge>& sorted_edges) {
  const double m = graph.TotalWeight();
  if (m <= 0.0) return 0.0;
  double intra = 0.0;
  for (const Edge& e : sorted_edges) {
    if (community[e.u] == community[e.v]) intra += std::abs(e.weight);
  }
  int max_label = -1;
  for (int c : community) max_label = std::max(max_label, c);
  std::vector<double> community_degree(static_cast<size_t>(max_label + 1),
                                       0.0);
  for (int v = 0; v < graph.n_vertices(); ++v) {
    community_degree[static_cast<size_t>(community[v])] +=
        graph.WeightedDegree(v);
  }
  double degree_term = 0.0;
  for (double k : community_degree) degree_term += k * k;
  return intra / m - degree_term / (4.0 * m * m);
}

bool ReferenceLocalMoving(const Graph& graph,
                          const std::vector<double>& self_weight,
                          const LouvainOptions& options,
                          std::vector<int>* community) {
  const int n = graph.n_vertices();
  double total_weight = graph.TotalWeight();
  for (double s : self_weight) total_weight += s;
  if (total_weight <= 0.0) return false;
  const double two_m = 2.0 * total_weight;

  std::vector<double> vertex_weight(n);
  for (int v = 0; v < n; ++v) {
    vertex_weight[v] = graph.WeightedDegree(v) + 2.0 * self_weight[v];
  }
  std::vector<double> community_total(n, 0.0);
  for (int v = 0; v < n; ++v) {
    community_total[(*community)[v]] += vertex_weight[v];
  }

  bool any_move = false;
  std::vector<double> weight_to_community(n, 0.0);
  std::vector<int> touched;
  for (int pass = 0; pass < options.max_passes_per_level; ++pass) {
    int moves = 0;
    for (int v = 0; v < n; ++v) {
      const int old_community = (*community)[v];
      touched.clear();
      for (const Graph::Neighbor& nb : graph.neighbors(v)) {
        const int c = (*community)[nb.vertex];
        if (weight_to_community[c] == 0.0) touched.push_back(c);
        weight_to_community[c] += std::abs(nb.weight);
      }
      community_total[old_community] -= vertex_weight[v];
      int best_community = old_community;
      double best_gain =
          weight_to_community[old_community] -
          vertex_weight[v] * community_total[old_community] / two_m;
      for (int c : touched) {
        const double gain = weight_to_community[c] -
                            vertex_weight[v] * community_total[c] / two_m;
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

// The map-based aggregation: per community pair, |w| summed in sorted-edge
// order, edges added in ascending pair order.
Graph ReferenceAggregate(const std::vector<Edge>& level_edges,
                         const std::vector<int>& community,
                         int n_communities) {
  std::map<std::pair<int, int>, double> pair_weight;
  for (const Edge& e : level_edges) {
    const int cu = community[e.u];
    const int cv = community[e.v];
    if (cu == cv) continue;
    pair_weight[{std::min(cu, cv), std::max(cu, cv)}] += std::abs(e.weight);
  }
  Graph out(n_communities);
  for (const auto& [pair, weight] : pair_weight) {
    out.AddEdge(pair.first, pair.second, weight);
  }
  return out;
}

Partition ReferenceLouvain(const Graph& graph, const LouvainOptions& options) {
  const int n = graph.n_vertices();
  Partition out;
  out.community.resize(n);
  std::iota(out.community.begin(), out.community.end(), 0);
  if (n == 0) return out;

  const std::vector<Edge> mod_edges = graph.SortedEdges();
  Graph level_graph = graph;
  std::vector<int> mapping(n);
  std::iota(mapping.begin(), mapping.end(), 0);
  std::vector<double> self_weight(n, 0.0);
  double previous_modularity =
      ReferenceModularity(graph, out.community, mod_edges);

  for (int level = 0; level < options.max_levels; ++level) {
    const int n_level = level_graph.n_vertices();
    std::vector<int> level_community(n_level);
    std::iota(level_community.begin(), level_community.end(), 0);
    if (!ReferenceLocalMoving(level_graph, self_weight, options,
                              &level_community)) {
      break;
    }
    const int n_level_communities = ReferenceCanonicalize(&level_community);
    std::vector<int> candidate(n);
    for (int v = 0; v < n; ++v) candidate[v] = level_community[mapping[v]];
    const double modularity = ReferenceModularity(graph, candidate, mod_edges);
    if (modularity <= previous_modularity + options.min_modularity_gain) break;
    out.community = candidate;
    previous_modularity = modularity;

    const std::vector<Edge> level_edges = level_graph.SortedEdges();
    Graph next =
        ReferenceAggregate(level_edges, level_community, n_level_communities);
    std::vector<double> next_self(n_level_communities, 0.0);
    for (const Edge& e : level_edges) {
      if (level_community[e.u] == level_community[e.v]) {
        next_self[level_community[e.u]] += std::abs(e.weight);
      }
    }
    for (int v = 0; v < n_level; ++v) {
      next_self[level_community[v]] += self_weight[v];
    }
    self_weight = std::move(next_self);
    level_graph = std::move(next);
    mapping = out.community;
    if (level_graph.n_vertices() <= 1) break;
  }
  out.n_communities = ReferenceCanonicalize(&out.community);
  out.modularity = previous_modularity;
  return out;
}

// ---- Cases -----------------------------------------------------------------

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// Runs LouvainInto with the shared workspace (stale buffers from the previous
// case included, as in the engine) and compares with the reference.
void ExpectMatchesReference(const Graph& graph, LouvainWorkspace* workspace) {
  const Partition want = ReferenceLouvain(graph, {});
  Partition got;
  LouvainInto(graph, {}, workspace, &got);
  EXPECT_EQ(got.community, want.community);
  EXPECT_EQ(got.n_communities, want.n_communities);
  EXPECT_TRUE(SameBits(got.modularity, want.modularity))
      << got.modularity << " vs " << want.modularity;
  const double recomputed = Modularity(graph, got.community);
  EXPECT_TRUE(SameBits(recomputed, got.modularity))
      << recomputed << " vs " << got.modularity;
}

// TSGs of `windows` consecutive windows, `step` samples apart, of one
// generator series, built as the engine builds them.
struct WindowShape {
  int window = 0;
  int k = 0;
  double tau = 0.55;
  int windows = 1;
  int step = 1;
  bool constant_sensor = false;  // sensor 0 reads one value: its r is +0
};

void ExpectWindowsMatchReference(const datasets::GeneratorOptions& gen,
                                 const WindowShape& shape, uint64_t seed) {
  cad::Rng rng(seed);
  datasets::SensorNetworkGenerator generator(gen, &rng);
  const int length = shape.window + (shape.windows - 1) * shape.step;
  ts::MultivariateSeries series = generator.Generate(length, &rng);
  if (shape.constant_sensor) {
    for (int t = 0; t < length; ++t) series.set_value(0, t, 3.25);
  }
  LouvainWorkspace workspace;
  for (int r = 0; r < shape.windows; ++r) {
    SCOPED_TRACE(::testing::Message() << "window " << r);
    const stats::CorrelationMatrix corr =
        stats::WindowCorrelationMatrix(series, r * shape.step, shape.window);
    const Graph tsg = BuildKnnGraph(corr, {.k = shape.k, .tau = shape.tau});
    EXPECT_GT(tsg.n_edges(), 0);
    ExpectMatchesReference(tsg, &workspace);
  }
}

datasets::GeneratorOptions ProfileGenerator(const std::string& name) {
  const datasets::DatasetProfile profile =
      datasets::ProfileByName(name).value();
  datasets::GeneratorOptions gen;
  gen.n_sensors = profile.n_sensors;
  gen.n_communities = profile.n_communities;
  gen.noise_std = profile.noise_std;
  gen.baseline_drift_std = profile.drift_std;
  gen.seasonal_period = profile.seasonal_period;
  return gen;
}

datasets::GeneratorOptions Generator(int n_sensors, int n_communities) {
  datasets::GeneratorOptions gen;
  gen.n_sensors = n_sensors;
  gen.n_communities = n_communities;
  return gen;
}

// IS-5 (is5_stream): 1,266 sensors, 20 communities, w 73, k 50, tau 0.55.
TEST(LouvainReferenceTest, Is5Windows) {
  const datasets::GeneratorOptions gen = ProfileGenerator("IS-5");
  ASSERT_EQ(gen.n_sensors, 1266);
  ExpectWindowsMatchReference(
      gen, {.window = 73, .k = 50, .windows = 3, .step = 29}, 1007);
}

// IS-3 (is3_batch): 406 sensors, 12 communities, w 86, k 30, tau 0.55.
TEST(LouvainReferenceTest, Is3Windows) {
  const datasets::GeneratorOptions gen = ProfileGenerator("IS-3");
  ASSERT_EQ(gen.n_sensors, 406);
  ExpectWindowsMatchReference(
      gen, {.window = 86, .k = 30, .windows = 8, .step = 11}, 1005);
}

// engine_bench's default: 48 sensors, 4 communities, w 120, k 5.
TEST(LouvainReferenceTest, EngineBenchWindows) {
  ExpectWindowsMatchReference(
      Generator(48, 4), {.window = 120, .k = 5, .windows = 40, .step = 4},
      2026);
}

// One fleet_iot tenant: 8 sensors, 2 communities, w 32, k 3.
TEST(LouvainReferenceTest, FleetTenantWindows) {
  ExpectWindowsMatchReference(
      Generator(8, 2), {.window = 32, .k = 3, .windows = 120, .step = 1}, 31);
}

// tau 0 keeps every pair, so the constant sensor's +0 correlations become
// zero-weight edges: local moving lists such a community once per edge.
TEST(LouvainReferenceTest, ZeroTauWithConstantSensor) {
  ExpectWindowsMatchReference(Generator(60, 3),
                              {.window = 40,
                               .k = 8,
                               .tau = 0.0,
                               .windows = 12,
                               .step = 5,
                               .constant_sensor = true},
                              4);
  ExpectWindowsMatchReference(Generator(30, 2),
                              {.window = 20,
                               .k = 29,
                               .tau = 0.0,
                               .windows = 12,
                               .step = 3,
                               .constant_sensor = true},
                              5);
}

// A weight drawn from a mix that makes ties and signed zeros common.
double RandomWeight(cad::Rng* rng) {
  const double pick = rng->Uniform(0.0, 1.0);
  if (pick < 0.08) return 0.0;
  if (pick < 0.16) return -0.0;
  if (pick < 0.5) {
    // Quantized: equal |w| across signs, so gains tie exactly.
    const double q = std::round(rng->Uniform(0.0, 8.0)) / 8.0;
    return rng->Uniform(0.0, 1.0) < 0.4 ? -q : q;
  }
  return rng->Uniform(-1.0, 1.0);
}

// A random simple graph whose edges are added in shuffled order, so no
// adjacency list is sorted. Some graphs plant blocks, which takes Louvain
// through several levels; every fifth vertex of some graphs stays isolated.
Graph RandomGraph(cad::Rng* rng) {
  const int n = rng->UniformInt(3, 70);
  const bool planted = rng->Uniform(0.0, 1.0) < 0.5;
  const bool isolate = rng->Uniform(0.0, 1.0) < 0.4;
  const int block = rng->UniformInt(2, 9);
  const double p_in = rng->Uniform(0.3, 1.0);
  const double p_out = planted ? rng->Uniform(0.0, 0.08) : p_in * 0.3;
  std::vector<std::pair<int, int>> pairs;
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) {
      if (isolate && (u % 5 == 4 || v % 5 == 4)) continue;
      const double p = planted && u / block == v / block ? p_in : p_out;
      if (rng->Uniform(0.0, 1.0) < p) pairs.push_back({u, v});
    }
  }
  for (size_t i = pairs.size(); i > 1; --i) {
    const int j = rng->UniformInt(0, static_cast<int>(i));
    std::swap(pairs[i - 1], pairs[static_cast<size_t>(j)]);
  }
  Graph graph(n);
  for (const auto& [u, v] : pairs) {
    if (rng->Uniform(0.0, 1.0) < 0.5) {
      graph.AddEdge(u, v, RandomWeight(rng));
    } else {
      graph.AddEdge(v, u, RandomWeight(rng));
    }
  }
  return graph;
}

TEST(LouvainReferenceTest, RandomShuffledGraphs) {
  cad::Rng rng(2113);
  LouvainWorkspace workspace;
  for (int i = 0; i < 300; ++i) {
    SCOPED_TRACE(::testing::Message() << "graph " << i);
    ExpectMatchesReference(RandomGraph(&rng), &workspace);
  }
}

TEST(LouvainReferenceTest, TinyGraphs) {
  LouvainWorkspace workspace;
  ExpectMatchesReference(Graph(0), &workspace);
  ExpectMatchesReference(Graph(1), &workspace);
  ExpectMatchesReference(Graph(2), &workspace);
  for (const double w : {0.75, -0.5, 0.0, -0.0}) {
    Graph pair(2);
    pair.AddEdge(1, 0, w);
    ExpectMatchesReference(pair, &workspace);
  }
}

}  // namespace
}  // namespace cad::graph
