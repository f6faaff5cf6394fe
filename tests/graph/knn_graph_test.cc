#include "graph/knn_graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "datasets/generator.h"
#include "datasets/registry.h"

namespace cad::graph {
namespace {

stats::CorrelationMatrix MakeMatrix(
    const std::vector<std::vector<double>>& values) {
  stats::CorrelationMatrix corr(static_cast<int>(values.size()));
  for (size_t i = 0; i < values.size(); ++i) {
    for (size_t j = i + 1; j < values.size(); ++j) {
      corr.set(static_cast<int>(i), static_cast<int>(j), values[i][j]);
    }
  }
  return corr;
}

TEST(KnnGraphTest, TauPrunesWeakEdges) {
  // 0-1 strongly correlated, 0-2 weakly: only 0-1 survives tau = 0.5.
  auto corr = MakeMatrix({{1.0, 0.9, 0.2}, {0.9, 1.0, 0.1}, {0.2, 0.1, 1.0}});
  const Graph g = BuildKnnGraph(corr, {.k = 2, .tau = 0.5});
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_FALSE(g.HasEdge(0, 2));
  EXPECT_FALSE(g.HasEdge(1, 2));
  EXPECT_EQ(g.n_edges(), 1);
}

TEST(KnnGraphTest, NegativeCorrelationCountsByMagnitude) {
  auto corr =
      MakeMatrix({{1.0, -0.95, 0.3}, {-0.95, 1.0, 0.2}, {0.3, 0.2, 1.0}});
  const Graph g = BuildKnnGraph(corr, {.k = 1, .tau = 0.5});
  ASSERT_TRUE(g.HasEdge(0, 1));
  // The signed weight is preserved on the edge.
  EXPECT_EQ(g.neighbors(0)[0].weight, -0.95);
}

TEST(KnnGraphTest, KLimitsDirectedPicksButUnionApplies) {
  // Vertex 0 correlates with everyone; with k = 1, 0 picks only its best,
  // but the others also pick 0 so the union has all three edges to 0.
  auto corr = MakeMatrix({{1.0, 0.9, 0.8, 0.7},
                          {0.9, 1.0, 0.1, 0.1},
                          {0.8, 0.1, 1.0, 0.1},
                          {0.7, 0.1, 0.1, 1.0}});
  const Graph g = BuildKnnGraph(corr, {.k = 1, .tau = 0.5});
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(0, 2));
  EXPECT_TRUE(g.HasEdge(0, 3));
  EXPECT_EQ(g.n_edges(), 3);
}

TEST(KnnGraphTest, LargeTauYieldsEmptyGraph) {
  auto corr = MakeMatrix({{1.0, 0.6}, {0.6, 1.0}});
  const Graph g = BuildKnnGraph(corr, {.k = 1, .tau = 0.95});
  EXPECT_EQ(g.n_edges(), 0);
}

TEST(KnnGraphTest, DeterministicOnTies) {
  auto corr = MakeMatrix({{1.0, 0.7, 0.7, 0.7},
                          {0.7, 1.0, 0.7, 0.7},
                          {0.7, 0.7, 1.0, 0.7},
                          {0.7, 0.7, 0.7, 1.0}});
  const Graph a = BuildKnnGraph(corr, {.k = 2, .tau = 0.5});
  const Graph b = BuildKnnGraph(corr, {.k = 2, .tau = 0.5});
  const auto ea = a.SortedEdges();
  const auto eb = b.SortedEdges();
  ASSERT_EQ(ea.size(), eb.size());
  for (size_t i = 0; i < ea.size(); ++i) {
    EXPECT_EQ(ea[i].u, eb[i].u);
    EXPECT_EQ(ea[i].v, eb[i].v);
  }
  // Tie-break by index: vertex 0 with k = 2 picks 1 and 2.
  EXPECT_TRUE(a.HasEdge(0, 1));
  EXPECT_TRUE(a.HasEdge(0, 2));
}

TEST(KnnGraphTest, NoSelfLoopsEver) {
  auto corr = MakeMatrix({{1.0, 0.9}, {0.9, 1.0}});
  const Graph g = BuildKnnGraph(corr, {.k = 5, .tau = 0.0});
  for (const Edge& e : g.SortedEdges()) EXPECT_NE(e.u, e.v);
}

// Property: every vertex's degree from its own picks is <= k before the
// symmetric union, so total edges <= n * k.
TEST(KnnGraphTest, EdgeCountBounded) {
  const int n = 20;
  stats::CorrelationMatrix corr(n);
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      corr.set(i, j, 0.5 + 0.4 * std::sin(i * 13 + j * 7));
    }
  }
  for (int k = 1; k <= 5; ++k) {
    const Graph g = BuildKnnGraph(corr, {.k = k, .tau = 0.0});
    EXPECT_LE(g.n_edges(), static_cast<int64_t>(n) * k);
  }
}


// ---- The candidate-list builder against the per-row sort, bit for bit -----

// The original builder, kept verbatim as the reference:
// per vertex, the candidates above tau partially sorted by |corr| (index as
// tie-break), the top k marked in an n x n pick array, then the symmetric
// union added in (u, v) order.
Graph PartialSortReference(const stats::CorrelationMatrix& corr,
                           const KnnGraphOptions& options,
                           KnnGraphStats* stats) {
  const int n = corr.size();
  Graph graph(n);
  std::vector<uint8_t> selected(static_cast<size_t>(n) * n, 0);
  std::vector<int> order;
  int directed_candidates = 0;
  for (int u = 0; u < n; ++u) {
    order.clear();
    for (int v = 0; v < n; ++v) {
      if (v == u) continue;
      if (std::abs(corr.at(u, v)) >= options.tau) order.push_back(v);
    }
    directed_candidates += static_cast<int>(order.size());
    const int take = std::min<int>(options.k, static_cast<int>(order.size()));
    std::partial_sort(order.begin(), order.begin() + take, order.end(),
                      [&](int a, int b) {
                        const double wa = std::abs(corr.at(u, a));
                        const double wb = std::abs(corr.at(u, b));
                        if (wa != wb) return wa > wb;
                        return a < b;
                      });
    for (int idx = 0; idx < take; ++idx) {
      selected[static_cast<size_t>(u) * n + order[idx]] = 1;
    }
  }
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) {
      if (selected[static_cast<size_t>(u) * n + v] ||
          selected[static_cast<size_t>(v) * n + u]) {
        graph.AddEdge(u, v, corr.at(u, v));
      }
    }
  }
  stats->candidate_pairs = directed_candidates / 2;
  stats->kept_edges = static_cast<int>(graph.n_edges());
  return graph;
}

// A correlation matrix of n sensors. Cells are quantized to 0.05 steps with
// mixed signs, so many |corr| ties (across signs too) exercise the index
// tie-break; every seventh sensor is uncorrelated (row of zeros).
stats::CorrelationMatrix TiedMatrix(int n) {
  cad::Rng rng(static_cast<uint64_t>(77 + n));
  stats::CorrelationMatrix corr(n);
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      if (i % 7 == 6 || j % 7 == 6) continue;
      const double same_group = (i % 3 == j % 3) ? 0.4 : 0.0;
      double v = std::round((same_group + rng.Uniform(0.0, 0.6)) * 20.0) / 20.0;
      if (rng.Uniform(0.0, 1.0) < 0.3) v = -v;
      corr.set(i, j, v);
    }
  }
  return corr;
}

// A window correlation matrix of a noisy two-factor series: the continuous
// values a round produces.
stats::CorrelationMatrix WindowMatrix(int n) {
  cad::Rng rng(static_cast<uint64_t>(5 + n));
  const int len = 40;
  ts::MultivariateSeries series(n, len);
  for (int t = 0; t < len; ++t) {
    const double f = rng.Gaussian();
    const double g = rng.Gaussian();
    for (int i = 0; i < n; ++i) {
      series.set_value(i, t, (i % 2 == 0 ? f : -g) + rng.Gaussian(0.0, 0.7));
    }
  }
  return stats::WindowCorrelationMatrix(series, 0, len);
}

// Cells the selection must survive: NaN (never a candidate), ±Inf, ±1.5 and
// ±1e300 (strengths past the top histogram bucket), and |r| exactly on the
// bucket edges tau + j (1 - tau) / 64 for this tau, mixed with uniform cells.
stats::CorrelationMatrix EdgeMatrix(int n, double tau) {
  cad::Rng rng(static_cast<uint64_t>(311 + n));
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double specials[] = {std::numeric_limits<double>::quiet_NaN(),
                             kInf, -kInf, 1.5, -1.5, 1e300, -1e300};
  stats::CorrelationMatrix corr(n);
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      const double pick = rng.Uniform(0.0, 1.0);
      double v;
      if (pick < 0.15) {
        v = specials[static_cast<int>(rng.Uniform(0.0, 7.0)) % 7];
      } else if (pick < 0.7) {
        const int edge = static_cast<int>(rng.Uniform(0.0, 65.0)) % 65;
        v = tau + edge * (1.0 - tau) / 64.0;
        if (rng.Uniform(0.0, 1.0) < 0.3) v = -v;
      } else {
        v = rng.Uniform(-1.0, 1.0);
      }
      corr.set(i, j, v);
    }
  }
  return corr;
}

void ExpectSameGraph(const Graph& got, const Graph& want) {
  ASSERT_EQ(got.n_vertices(), want.n_vertices());
  EXPECT_EQ(got.n_edges(), want.n_edges());
  for (int u = 0; u < want.n_vertices(); ++u) {
    const auto& a = got.neighbors(u);
    const auto& b = want.neighbors(u);
    ASSERT_EQ(a.size(), b.size()) << "vertex " << u;
    for (size_t idx = 0; idx < b.size(); ++idx) {
      EXPECT_EQ(a[idx].vertex, b[idx].vertex)
          << "vertex " << u << " slot " << idx;
      EXPECT_EQ(std::memcmp(&a[idx].weight, &b[idx].weight, sizeof(double)), 0)
          << "vertex " << u << " slot " << idx;
    }
  }
}

class KnnReferenceTest : public ::testing::TestWithParam<int> {};

TEST_P(KnnReferenceTest, BitIdenticalToPartialSortUnion) {
  const int n = GetParam();
  KnnScratch scratch;  // reused across every case, as in the engine
  Graph graph;
  for (const std::string kind : {"tied", "window", "edges"}) {
    // tau 1.0 puts every candidate in one histogram bucket.
    for (const double tau : {0.0, 0.55, 1.0}) {
      const stats::CorrelationMatrix corr =
          kind == "tied"     ? TiedMatrix(n)
          : kind == "window" ? WindowMatrix(n)
                             : EdgeMatrix(n, tau);
      for (const int k : {1, 3, 30, 50, std::max(1, n - 1), n + 5}) {
        const KnnGraphOptions options{.k = k, .tau = tau};
        SCOPED_TRACE(::testing::Message()
                     << kind << " tau=" << tau << " k=" << k);
        KnnGraphStats want_stats;
        const Graph want = PartialSortReference(corr, options, &want_stats);
        KnnGraphStats got_stats;
        BuildKnnGraphInto(corr, options, &scratch, &graph, &got_stats);
        ExpectSameGraph(graph, want);
        EXPECT_EQ(got_stats.candidate_pairs, want_stats.candidate_pairs);
        EXPECT_EQ(got_stats.kept_edges, want_stats.kept_edges);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, KnnReferenceTest,
                         ::testing::Values(1, 2, 7, 8, 9, 17, 64, 65, 129, 406),
                         [](const ::testing::TestParamInfo<int>& info) {
                           // Appended, not operator+: GCC 12's -Wrestrict
                           // false positive (PR105651) under -Werror.
                           std::string name = "n";
                           name += std::to_string(info.param);
                           return name;
                         });

// A window of the IS-5 plant (1,266 sensors, 20 communities, w 73) at the
// workload's k 50 and tau 0.55, where most vertices hold a few more
// candidates than k, so nearly every vertex runs the selection.
TEST(Is5ShapeKnnReferenceTest, BitIdenticalToPartialSortUnion) {
  const datasets::DatasetProfile profile =
      datasets::ProfileByName("IS-5").value();
  datasets::GeneratorOptions gen;
  gen.n_sensors = profile.n_sensors;
  gen.n_communities = profile.n_communities;
  gen.noise_std = profile.noise_std;
  gen.baseline_drift_std = profile.drift_std;
  gen.seasonal_period = profile.seasonal_period;
  ASSERT_EQ(gen.n_sensors, 1266);
  ASSERT_EQ(gen.n_communities, 20);
  cad::Rng rng(profile.seed);
  datasets::SensorNetworkGenerator generator(gen, &rng);
  const ts::MultivariateSeries series = generator.Generate(73, &rng);
  const stats::CorrelationMatrix corr =
      stats::WindowCorrelationMatrix(series, 0, 73);
  const KnnGraphOptions options{.k = 50, .tau = 0.55};

  int over_full = 0;
  for (int u = 0; u < corr.size(); ++u) {
    int candidates = 0;
    for (int v = 0; v < corr.size(); ++v) {
      if (v != u && std::abs(corr.at(u, v)) >= options.tau) ++candidates;
    }
    if (candidates > options.k) ++over_full;
  }
  EXPECT_GT(over_full, corr.size() / 2);

  KnnGraphStats want_stats;
  const Graph want = PartialSortReference(corr, options, &want_stats);
  KnnScratch scratch;
  Graph graph;
  KnnGraphStats got_stats;
  BuildKnnGraphInto(corr, options, &scratch, &graph, &got_stats);
  ExpectSameGraph(graph, want);
  EXPECT_EQ(got_stats.candidate_pairs, want_stats.candidate_pairs);
  EXPECT_EQ(got_stats.kept_edges, want_stats.kept_edges);
}

}  // namespace
}  // namespace cad::graph
