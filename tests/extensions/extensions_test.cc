// Tests for the extension features beyond the paper's core: Spearman-based
// TSGs, multithreaded correlation, and the parallel detector ensemble the
// paper suggests in Section IV-F.
#include <gtest/gtest.h>

#include <cmath>

#include "baselines/cad_adapter.h"
#include "baselines/ecod.h"
#include "baselines/iforest.h"
#include "baselines/parallel_ensemble.h"
#include "core/cad_detector.h"
#include "stats/correlation.h"
#include "testing/synthetic.h"

namespace cad {
namespace {

// ---- Spearman ------------------------------------------------------------

TEST(SpearmanTest, RankTransformWithTies) {
  const std::vector<double> x = {10.0, 20.0, 20.0, 5.0};
  const std::vector<double> ranks = stats::RankTransform(x);
  EXPECT_EQ(ranks, (std::vector<double>{2.0, 3.5, 3.5, 1.0}));
}

TEST(SpearmanTest, PerfectMonotoneRelationIsOne) {
  // y = exp(x) is nonlinear but monotone: Spearman 1, Pearson < 1.
  std::vector<double> x(50), y(50);
  for (int i = 0; i < 50; ++i) {
    x[i] = i * 0.2;
    y[i] = std::exp(x[i]);
  }
  EXPECT_NEAR(stats::SpearmanCorrelation(x, y), 1.0, 1e-12);
  EXPECT_LT(stats::PearsonCorrelation(x, y), 0.95);
}

TEST(SpearmanTest, RobustToSingleHugeSpike) {
  cad::Rng rng(3);
  std::vector<double> x(100), y(100);
  for (int i = 0; i < 100; ++i) {
    x[i] = rng.Gaussian();
    y[i] = x[i] + 0.2 * rng.Gaussian();
  }
  const double spearman_clean = stats::SpearmanCorrelation(x, y);
  y[50] = 1e6;  // one corrupted reading
  const double pearson_spiked = stats::PearsonCorrelation(x, y);
  const double spearman_spiked = stats::SpearmanCorrelation(x, y);
  EXPECT_LT(std::abs(pearson_spiked), 0.5);            // Pearson destroyed
  EXPECT_GT(spearman_spiked, spearman_clean - 0.1);    // Spearman survives
}

TEST(SpearmanTest, MatrixMatchesPairwise) {
  cad::Rng rng(5);
  ts::MultivariateSeries series(4, 60);
  for (int i = 0; i < 4; ++i) {
    for (int t = 0; t < 60; ++t) series.set_value(i, t, rng.Gaussian());
  }
  const stats::CorrelationMatrix corr = stats::WindowCorrelationMatrix(
      series, 10, 40, stats::CorrelationKind::kSpearman);
  for (int i = 0; i < 4; ++i) {
    for (int j = i + 1; j < 4; ++j) {
      EXPECT_NEAR(corr.at(i, j),
                  stats::SpearmanCorrelation(series.sensor_window(i, 10, 40),
                                             series.sensor_window(j, 10, 40)),
                  1e-10);
    }
  }
}

TEST(SpearmanTest, CadRunsOnSpearmanTsgs) {
  const testing::SmallScenario scenario = testing::MakeSmallScenario();
  core::CadOptions options;
  options.window = 40;
  options.step = 4;
  options.k = 3;
  options.tau = 0.5;
  options.use_spearman = true;
  core::CadDetector detector(options);
  const Result<core::DetectionReport> report =
      detector.Detect(scenario.test, &scenario.train);
  ASSERT_TRUE(report.ok());
  // The injected break is still found via rank correlations.
  bool overlap = false;
  for (const core::Anomaly& anomaly : report.value().anomalies) {
    if (anomaly.start_time < scenario.anomaly_end &&
        anomaly.end_time > scenario.anomaly_start) {
      overlap = true;
    }
  }
  EXPECT_TRUE(overlap);
}

// ---- Multithreaded correlation --------------------------------------------

class ThreadSweep : public ::testing::TestWithParam<int> {};

TEST_P(ThreadSweep, BitwiseIdenticalAcrossThreadCounts) {
  const int n_threads = GetParam();
  cad::Rng rng(7);
  ts::MultivariateSeries series(37, 200);
  for (int i = 0; i < 37; ++i) {
    for (int t = 0; t < 200; ++t) series.set_value(i, t, rng.Gaussian());
  }
  const stats::CorrelationMatrix serial = stats::WindowCorrelationMatrix(
      series, 16, 128, stats::CorrelationKind::kPearson, 1);
  const stats::CorrelationMatrix threaded = stats::WindowCorrelationMatrix(
      series, 16, 128, stats::CorrelationKind::kPearson, n_threads);
  for (int i = 0; i < 37; ++i) {
    for (int j = 0; j < 37; ++j) {
      EXPECT_EQ(serial.at(i, j), threaded.at(i, j)) << i << "," << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, ThreadSweep,
                         ::testing::Values(2, 3, 4, 8));

TEST(ThreadedCadTest, ReportIdenticalToSerial) {
  const testing::SmallScenario scenario = testing::MakeSmallScenario();
  core::CadOptions options;
  options.window = 40;
  options.step = 4;
  options.k = 3;
  options.tau = 0.55;
  core::CadDetector serial(options);
  options.n_threads = 4;
  core::CadDetector threaded(options);
  const core::DetectionReport a =
      serial.Detect(scenario.test, &scenario.train).ValueOrDie();
  const core::DetectionReport b =
      threaded.Detect(scenario.test, &scenario.train).ValueOrDie();
  EXPECT_EQ(a.point_labels, b.point_labels);
  EXPECT_EQ(a.point_scores, b.point_scores);
  EXPECT_EQ(a.anomalies.size(), b.anomalies.size());
}

TEST(ThreadedCadTest, OptionsValidateThreadCount) {
  core::CadOptions options;
  options.n_threads = 0;
  EXPECT_FALSE(options.Validate(1000).ok());
}

// ---- Parallel ensemble (paper Section IV-F) -------------------------------

core::CadOptions ScenarioCadOptions() {
  core::CadOptions options;
  options.window = 40;
  options.step = 4;
  options.k = 3;
  options.tau = 0.55;
  return options;
}

TEST(ParallelEnsembleTest, NameAndDeterminism) {
  std::vector<std::unique_ptr<baselines::Detector>> members;
  members.push_back(
      std::make_unique<baselines::CadAdapter>(ScenarioCadOptions()));
  members.push_back(std::make_unique<baselines::Ecod>());
  baselines::ParallelEnsemble ensemble(std::move(members));
  EXPECT_EQ(ensemble.name(), "CAD+ECOD");
  EXPECT_TRUE(ensemble.deterministic());  // both members deterministic
}

TEST(ParallelEnsembleTest, MaxFusionCoversBothMembersAlarms) {
  const testing::SmallScenario scenario = testing::MakeSmallScenario();
  std::vector<std::unique_ptr<baselines::Detector>> members;
  members.push_back(
      std::make_unique<baselines::CadAdapter>(ScenarioCadOptions()));
  members.push_back(std::make_unique<baselines::Ecod>());
  baselines::ParallelEnsemble ensemble(std::move(members),
                                       baselines::ScoreFusion::kMax);
  ASSERT_TRUE(ensemble.Fit(scenario.train).ok());
  const std::vector<double> fused = ensemble.Score(scenario.test).ValueOrDie();

  // Compare against the members run standalone: after min-max fusion the
  // fused score must dominate (up to normalization) wherever a member
  // peaked; check the injected span specifically.
  baselines::Ecod ecod;
  ASSERT_TRUE(ecod.Fit(scenario.train).ok());
  const std::vector<double> ecod_scores =
      ecod.Score(scenario.test).ValueOrDie();
  double fused_peak = 0.0, ecod_peak = 0.0;
  for (int t = scenario.anomaly_start; t < scenario.anomaly_end; ++t) {
    fused_peak = std::max(fused_peak, fused[t]);
    ecod_peak = std::max(ecod_peak, ecod_scores[t]);
  }
  EXPECT_GT(fused_peak, 0.5 * ecod_peak);
  for (double v : fused) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
}

TEST(ParallelEnsembleTest, MeanFusionRuns) {
  const testing::SmallScenario scenario = testing::MakeSmallScenario();
  std::vector<std::unique_ptr<baselines::Detector>> members;
  members.push_back(
      std::make_unique<baselines::CadAdapter>(ScenarioCadOptions()));
  members.push_back(std::make_unique<baselines::Ecod>());
  baselines::ParallelEnsemble ensemble(std::move(members),
                                       baselines::ScoreFusion::kMean);
  ASSERT_TRUE(ensemble.Fit(scenario.train).ok());
  EXPECT_TRUE(ensemble.Score(scenario.test).ok());
}

TEST(ParallelEnsembleTest, StochasticMemberMakesEnsembleStochastic) {
  std::vector<std::unique_ptr<baselines::Detector>> members;
  members.push_back(std::make_unique<baselines::Ecod>());
  members.push_back(std::make_unique<baselines::Iforest>());
  baselines::ParallelEnsemble ensemble(std::move(members));
  EXPECT_FALSE(ensemble.deterministic());
}

}  // namespace
}  // namespace cad
