#include "core/round_processor.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "testing/synthetic.h"

namespace cad::core {
namespace {

// Two correlated blocks of sensors driven by independent factors.
ts::MultivariateSeries TwoBlockSeries(int length, uint64_t seed,
                                      int block = 4) {
  Rng rng(seed);
  ts::MultivariateSeries series(2 * block, length);
  double f1 = 0.0, f2 = 0.0;
  for (int t = 0; t < length; ++t) {
    f1 = 0.9 * f1 + 0.45 * rng.Gaussian();
    f2 = 0.9 * f2 + 0.45 * rng.Gaussian();
    for (int i = 0; i < block; ++i) {
      series.set_value(i, t, f1 + 0.05 * rng.Gaussian());
      series.set_value(block + i, t, f2 + 0.05 * rng.Gaussian());
    }
  }
  return series;
}

CadOptions SmallOptions() {
  CadOptions options;
  options.window = 40;
  options.step = 4;
  options.k = 3;
  options.tau = 0.55;
  options.theta = 0.9;
  return options;
}

TEST(RoundProcessorTest, FirstRoundHasNoOutliersOrVariations) {
  const ts::MultivariateSeries series = TwoBlockSeries(200, 1);
  RoundProcessor processor(series.n_sensors(), SmallOptions());
  RoundWorkspace workspace;
  const RoundOutput out = processor.ProcessWindow(series, 0, workspace);
  EXPECT_TRUE(out.outliers.empty());  // RC is 1 before any transition
  EXPECT_EQ(out.n_variations, 0);
  EXPECT_GT(out.n_communities, 0);
  EXPECT_GT(out.n_edges, 0);
}

TEST(RoundProcessorTest, StableDataProducesNoVariations) {
  const ts::MultivariateSeries series = TwoBlockSeries(400, 2);
  RoundProcessor processor(series.n_sensors(), SmallOptions());
  RoundWorkspace workspace;
  for (int r = 0; r < 20; ++r) {
    const RoundOutput out = processor.ProcessWindow(series, r * 4, workspace);
    EXPECT_EQ(out.n_variations, 0) << "round " << r;
    EXPECT_TRUE(out.outliers.empty()) << "round " << r;
  }
  EXPECT_EQ(processor.rounds_processed(), 20);
}

TEST(RoundProcessorTest, DetectsCommunityStructure) {
  const ts::MultivariateSeries series = TwoBlockSeries(200, 3);
  RoundProcessor processor(series.n_sensors(), SmallOptions());
  RoundWorkspace workspace;
  processor.ProcessWindow(series, 0, workspace);
  const std::vector<int>& communities = processor.last_communities();
  ASSERT_EQ(communities.size(), 8u);
  // Block 0 sensors share a community; block 1 sensors share another.
  for (int i = 1; i < 4; ++i) EXPECT_EQ(communities[i], communities[0]);
  for (int i = 5; i < 8; ++i) EXPECT_EQ(communities[i], communities[4]);
  EXPECT_NE(communities[0], communities[4]);
}

TEST(RoundProcessorTest, OutliersAppearAfterCorrelationBreak) {
  // Feed stable rounds, then rounds where half of block 0 decorrelates.
  testing::SmallScenario scenario = testing::MakeSmallScenario();
  CadOptions options = SmallOptions();
  RoundProcessor processor(scenario.test.n_sensors(), options);
  RoundWorkspace workspace;

  bool saw_variation_in_anomaly = false;
  for (int start = 0; start + options.window <= scenario.test.length();
       start += options.step) {
    const RoundOutput out =
        processor.ProcessWindow(scenario.test, start, workspace);
    const int end = start + options.window;
    const bool overlaps_anomaly =
        start < scenario.anomaly_end && end > scenario.anomaly_start;
    if (overlaps_anomaly && out.n_variations > 0) {
      saw_variation_in_anomaly = true;
    }
  }
  EXPECT_TRUE(saw_variation_in_anomaly);
}

TEST(RoundProcessorTest, ResetRestoresInitialState) {
  const ts::MultivariateSeries series = TwoBlockSeries(200, 4);
  RoundProcessor processor(series.n_sensors(), SmallOptions());
  RoundWorkspace workspace;
  processor.ProcessWindow(series, 0, workspace);
  processor.ProcessWindow(series, 4, workspace);
  processor.Reset();
  EXPECT_EQ(processor.rounds_processed(), 0);
  const RoundOutput out = processor.ProcessWindow(series, 0, workspace);
  EXPECT_TRUE(out.outliers.empty());
  EXPECT_EQ(out.n_variations, 0);
}

// Two processors take turns on one shared workspace, b one window behind a:
// every round of b runs on what a's round on a different window left in the
// workspace, and must still match a's round on the same window. Drivers rely
// on this when one arena serves several processors (CadDetector's warm-up
// and detection, the fleet's pooled arenas).
TEST(RoundProcessorTest, DeterministicAcrossInstances) {
  testing::SmallScenario scenario = testing::MakeSmallScenario();
  const CadOptions options = SmallOptions();
  RoundProcessor a(scenario.test.n_sensors(), options);
  RoundProcessor b(scenario.test.n_sensors(), options);
  RoundWorkspace shared;
  std::vector<int> starts;
  for (int start = 0; start + options.window <= scenario.test.length();
       start += options.step * 3) {
    starts.push_back(start);
  }
  ASSERT_GT(starts.size(), 10u);
  std::vector<RoundOutput> from_a;
  for (size_t r = 0; r <= starts.size(); ++r) {
    if (r < starts.size()) {
      from_a.push_back(a.ProcessWindow(scenario.test, starts[r], shared));
    }
    if (r == 0) continue;
    const RoundOutput& oa = from_a[r - 1];
    const RoundOutput& ob =
        b.ProcessWindow(scenario.test, starts[r - 1], shared);
    EXPECT_EQ(oa.outliers, ob.outliers) << "round " << r - 1;
    EXPECT_EQ(oa.entered, ob.entered);
    EXPECT_EQ(oa.entered_movers, ob.entered_movers);
    EXPECT_EQ(oa.exited, ob.exited);
    EXPECT_EQ(oa.n_variations, ob.n_variations);
    EXPECT_EQ(oa.n_communities, ob.n_communities);
    EXPECT_EQ(oa.n_edges, ob.n_edges);
    EXPECT_EQ(oa.modularity, ob.modularity);
  }
  EXPECT_EQ(a.last_communities(), b.last_communities());
}

}  // namespace
}  // namespace cad::core
