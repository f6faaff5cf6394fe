#include "check/validators.h"

#include <vector>

#include <gtest/gtest.h>

#include "core/cad_detector.h"
#include "core/co_appearance.h"
#include "graph/graph.h"
#include "graph/louvain.h"
#include "obs/metrics.h"
#include "stats/running_stats.h"

namespace cad::check {
namespace {

using core::Anomaly;
using core::DetectionReport;
using core::RoundTrace;
using graph::Graph;
using graph::Partition;

// Every test records violations into its own registry so the assertions on
// the cad_check_* counters are exact and isolated.
uint64_t CounterValue(const obs::Registry& registry, const char* name) {
  const obs::Snapshot snapshot = registry.TakeSnapshot();
  const obs::CounterSample* sample = snapshot.FindCounter(name);
  return sample != nullptr ? sample->value : 0;
}

// ---- ValidateGraph -------------------------------------------------------

Graph TriangleGraph() {
  Graph g(3);
  g.AddEdge(0, 1, 0.9);
  g.AddEdge(1, 2, -0.8);
  g.AddEdge(0, 2, 0.7);
  return g;
}

// A graph with exactly these adjacency lists (half-edges), built through the
// unchecked bulk call, so a test can hand the validator any malformation.
Graph FromLists(const std::vector<std::vector<Graph::Neighbor>>& lists) {
  std::vector<int> offsets = {0};
  std::vector<Graph::Neighbor> neighbors;
  for (const auto& list : lists) {
    neighbors.insert(neighbors.end(), list.begin(), list.end());
    offsets.push_back(static_cast<int>(neighbors.size()));
  }
  Graph g;
  g.AssignAdjacency(offsets, neighbors);
  return g;
}

TEST(ValidateGraphTest, AcceptsWellFormedGraph) {
  obs::Registry registry;
  EXPECT_TRUE(ValidateGraph(TriangleGraph(), {}, &registry).ok());
  EXPECT_EQ(CounterValue(registry, "cad_check_violations_total"), 0u);
}

TEST(ValidateGraphTest, FlagsOneAsymmetricHalfEdge) {
  obs::Registry registry;
  // The triangle with 0->1 listed twice and 1->0 once.
  const Graph g = FromLists({{{1, 0.9}, {2, 0.7}, {1, 0.9}},
                             {{0, 0.9}, {2, -0.8}},
                             {{1, -0.8}, {0, 0.7}}});
  const Status status = ValidateGraph(g, {}, &registry);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(status.message(), "duplicate edge (0, 1): graph must be simple");
  EXPECT_EQ(CounterValue(registry, "cad_check_violations_total"), 1u);
  EXPECT_EQ(CounterValue(registry, "cad_check_graph_violations"), 1u);
}

TEST(ValidateGraphTest, FlagsMissingMirrorHalfEdge) {
  obs::Registry registry;
  // Edge (0, 1) plus a 1->2 half-edge with no matching 2->1 entry.
  const Graph g = FromLists({{{1, 0.9}}, {{0, 0.9}, {2, 0.5}}, {}});
  const Status status = ValidateGraph(g, {}, &registry);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(status.message(),
            "asymmetric edge (1, 2): present in only one adjacency list");
}

TEST(ValidateGraphTest, FlagsSelfLoopAndOutOfRangeNeighbor) {
  const Graph self_loop = FromLists({{}, {{1, 0.4}}});
  EXPECT_EQ(ValidateGraph(self_loop).message(), "self-loop at vertex 1");

  const Graph out_of_range = FromLists({{{5, 0.4}}, {}});
  EXPECT_EQ(ValidateGraph(out_of_range).message(),
            "vertex 0 has neighbor 5 outside [0, 2)");
}

TEST(ValidateGraphTest, FlagsNonFiniteWeightAndWeightBound) {
  Graph g(2);
  g.AddEdge(0, 1, std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(ValidateGraph(g).message(), "edge (0, 1) has non-finite weight");

  Graph heavy(2);
  heavy.AddEdge(0, 1, 1.5);
  GraphBounds correlation_bounds;
  correlation_bounds.max_abs_weight = 1.0;
  EXPECT_EQ(ValidateGraph(heavy, correlation_bounds).message(),
            "edge (0, 1) has |weight| 1.5 > 1");
}

TEST(ValidateGraphTest, EnforcesOptionalDegreeAndEdgeBounds) {
  GraphBounds bounds;
  bounds.max_degree = 1;
  const Status degree = ValidateGraph(TriangleGraph(), bounds);
  EXPECT_EQ(degree.message(), "vertex 0 has degree 2 > max_degree 1");

  GraphBounds edge_bounds;
  edge_bounds.max_edges = 2;
  const Status edges = ValidateGraph(TriangleGraph(), edge_bounds);
  EXPECT_EQ(edges.message(), "graph has 3 edges > max_edges 2");
}

TEST(ValidateGraphTest, MirroredWeightsMustMatch) {
  const Graph g = FromLists({{{1, 0.5}}, {{0, 0.25}}});
  const Status status = ValidateGraph(g);
  EXPECT_EQ(status.message(), "edge (0, 1) weight mismatch: 0.5 vs 0.25");
}

// ---- ValidatePartition ---------------------------------------------------

TEST(ValidatePartitionTest, AcceptsLouvainOutput) {
  obs::Registry registry;
  const Partition partition = graph::Louvain(TriangleGraph());
  EXPECT_TRUE(ValidatePartition(partition, 3, &registry).ok());
  EXPECT_EQ(CounterValue(registry, "cad_check_violations_total"), 0u);
}

TEST(ValidatePartitionTest, FlagsSizeMismatchAndOutOfRangeId) {
  Partition partition;
  partition.community = {0, 1};
  partition.n_communities = 2;
  EXPECT_EQ(ValidatePartition(partition, 3).message(),
            "partition covers 2 vertices, expected 3");

  partition.community = {0, 1, 2};
  EXPECT_EQ(ValidatePartition(partition, 3).message(),
            "vertex 2 assigned community 2 outside [0, 2)");
}

TEST(ValidatePartitionTest, FlagsEmptyCommunity) {
  obs::Registry registry;
  Partition partition;
  partition.community = {0, 0, 0};  // claims 2 communities, id 1 is empty
  partition.n_communities = 2;
  const Status status = ValidatePartition(partition, 3, &registry);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(status.message(), "empty communities: only 1 of 2 ids have members");
  EXPECT_EQ(CounterValue(registry, "cad_check_partition_violations"), 1u);
}

TEST(ValidatePartitionTest, FlagsNonCanonicalLabeling) {
  Partition partition;
  partition.community = {1, 0, 1};  // vertex 0 must open community 0
  partition.n_communities = 2;
  EXPECT_EQ(ValidatePartition(partition, 3).message(),
            "non-canonical labeling: community 1 first appears (vertex 0) "
            "before community 0");
}

// ---- ValidateCoAppearance ------------------------------------------------

TEST(ValidateCoAppearanceTest, AcceptsConsistentCounts) {
  const std::vector<int> prev = {0, 0, 0, 1, 1};
  const std::vector<int> cur = {0, 0, 1, 1, 1};
  const std::vector<int> counts = core::CoAppearanceNumbers(prev, cur);
  EXPECT_TRUE(ValidateCoAppearance(counts, prev, cur).ok());
}

TEST(ValidateCoAppearanceTest, FlagsTamperedCount) {
  obs::Registry registry;
  const std::vector<int> prev = {0, 0, 0, 1, 1};
  const std::vector<int> cur = {0, 0, 1, 1, 1};
  std::vector<int> counts = core::CoAppearanceNumbers(prev, cur);
  counts[1] += 1;  // symmetric recount gives 1 (vertices 0 and 1 co-appear)
  const Status status = ValidateCoAppearance(counts, prev, cur, &registry);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(status.message(),
            "vertex 1 has co-appearance count 2, recount gives 1");
  EXPECT_EQ(CounterValue(registry, "cad_check_coappearance_violations"), 1u);
}

TEST(ValidateCoAppearanceTest, FlagsCountOutsideRange) {
  const std::vector<int> prev = {0, 0};
  const std::vector<int> cur = {0, 0};
  EXPECT_EQ(ValidateCoAppearance({1, 5}, prev, cur).message(),
            "vertex 1 has co-appearance count 5 outside [0, 1]");
  EXPECT_EQ(ValidateCoAppearance({1}, prev, cur).message(),
            "shape mismatch: 1 counts, 2 previous communities, "
            "2 current communities");
}

TEST(ValidateCoAppearanceTrackerTest, AcceptsTrackerAfterTransitions) {
  core::CoAppearanceTracker tracker(4);
  tracker.Observe({0, 0, 1, 1}, {0, 0, 1, 1});
  tracker.Observe({0, 0, 1, 1}, {0, 1, 1, 1});
  EXPECT_TRUE(ValidateCoAppearanceTracker(tracker).ok());
}

// ---- ValidateRunningStats ------------------------------------------------

TEST(ValidateRunningStatsTest, AcceptsWelfordAccumulator) {
  stats::RunningStats stats;
  for (int i = 0; i < 100; ++i) stats.Add(0.1 * i);
  EXPECT_TRUE(ValidateRunningStats(stats).ok());
  EXPECT_TRUE(ValidateRunningStats(stats::RunningStats()).ok());  // empty
}

TEST(ValidateRunningStatsTest, FlagsNegativeVariance) {
  obs::Registry registry;
  const Status status =
      ValidateRunningStatsValues(/*count=*/10, /*mean=*/1.0,
                                 /*variance=*/-0.5, /*min=*/0.0, /*max=*/2.0,
                                 &registry);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(status.message(), "variance -0.5 must be finite and >= 0");
  EXPECT_EQ(CounterValue(registry, "cad_check_running_stats_violations"), 1u);
}

TEST(ValidateRunningStatsTest, FlagsNonFiniteMeanAndRangeEscape) {
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(ValidateRunningStatsValues(3, inf, 1.0, 0.0, 1.0).message(),
            "non-finite mean after 3 observations");
  EXPECT_EQ(ValidateRunningStatsValues(3, 5.0, 1.0, 0.0, 2.0).message(),
            "mean 5 outside observed range [0, 2]");
  EXPECT_EQ(ValidateRunningStatsValues(-1, 0.0, 0.0, 0.0, 0.0).message(),
            "negative observation count -1");
}

// ---- ValidateReport ------------------------------------------------------

DetectionReport SmallReport() {
  DetectionReport report;
  for (int r = 0; r < 3; ++r) {
    RoundTrace trace;
    trace.round = r;
    report.rounds.push_back(trace);
  }
  report.point_scores = {0.0, 0.5, 1.0, 0.25};
  report.point_labels = {0, 1, 1, 0};
  report.sensor_labels = {0, 1, 0};
  Anomaly anomaly;
  anomaly.sensors = {1};
  anomaly.first_round = 1;
  anomaly.last_round = 2;
  anomaly.start_time = 1;
  anomaly.end_time = 3;
  anomaly.detection_time = 2;
  report.anomalies.push_back(anomaly);
  return report;
}

TEST(ValidateReportTest, AcceptsWellFormedReport) {
  obs::Registry registry;
  EXPECT_TRUE(ValidateReport(SmallReport(), 3, &registry).ok());
  EXPECT_EQ(CounterValue(registry, "cad_check_violations_total"), 0u);
}

TEST(ValidateReportTest, FlagsUnsortedRoundTraces) {
  obs::Registry registry;
  DetectionReport report = SmallReport();
  std::swap(report.rounds[1], report.rounds[2]);
  const Status status = ValidateReport(report, 3, &registry);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(status.message(),
            "round trace 1 carries round index 2; rounds must be sorted, "
            "unique and contiguous");
  EXPECT_EQ(CounterValue(registry, "cad_check_report_violations"), 1u);
}

TEST(ValidateReportTest, FlagsScoreOutsideUnitInterval) {
  DetectionReport report = SmallReport();
  report.point_scores[2] = 1.5;
  EXPECT_EQ(ValidateReport(report, 3).message(),
            "point score at t=2 is 1.5, outside [0, 1]");
}

TEST(ValidateReportTest, FlagsSensorIdProblems) {
  DetectionReport report = SmallReport();
  report.anomalies[0].sensors = {2, 1};
  EXPECT_EQ(ValidateReport(report, 3).message(),
            "anomaly 0 sensor list must be sorted and unique (2 before 1)");

  report.anomalies[0].sensors = {7};
  EXPECT_EQ(ValidateReport(report, 3).message(),
            "anomaly 0 names sensor 7 outside [0, 3)");
}

TEST(ValidateReportTest, FlagsBrokenRoundAndTimeRanges) {
  DetectionReport report = SmallReport();
  report.anomalies[0].first_round = 2;
  report.anomalies[0].last_round = 1;
  EXPECT_EQ(ValidateReport(report, 3).message(),
            "anomaly 0 has round range [2, 1]");

  report = SmallReport();
  report.anomalies[0].detection_time = 99;
  EXPECT_EQ(ValidateReport(report, 3).message(),
            "anomaly 0 detection time 99 outside [1, 3)");
}

// ---- end-to-end: full pipeline artifacts pass ----------------------------

TEST(ValidatorsIntegrationTest, RealPipelineArtifactsValidate) {
  // Louvain on a two-clique graph, then the validators over its outputs —
  // the same calls RoundProcessor makes at CAD_CHECK_LEVEL=full.
  Graph g(6);
  for (int u = 0; u < 3; ++u) {
    for (int v = u + 1; v < 3; ++v) {
      g.AddEdge(u, v, 0.95);
      g.AddEdge(u + 3, v + 3, 0.95);
    }
  }
  g.AddEdge(2, 3, 0.55);
  GraphBounds bounds;
  bounds.max_edges = 6 * 3;
  bounds.max_abs_weight = 1.0;
  EXPECT_TRUE(ValidateGraph(g, bounds).ok());
  const Partition partition = graph::Louvain(g);
  EXPECT_TRUE(ValidatePartition(partition, 6).ok());
}

}  // namespace
}  // namespace cad::check
