// Metamorphic properties of CAD: transformations of the input that must not
// change what is detected.
//
//  1. Per-sensor positive affine transforms (unit changes, offsets): Pearson
//     correlation is invariant, so the whole pipeline must produce the same
//     detections.
//  2. Sensor permutation (relabeling the wiring loom): anomalies must be the
//     same up to index remapping.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "core/cad_detector.h"
#include "testing/synthetic.h"

namespace cad::core {
namespace {

CadOptions ScenarioOptions() {
  CadOptions options;
  options.window = 40;
  options.step = 4;
  options.k = 3;
  options.tau = 0.55;
  return options;
}

ts::MultivariateSeries AffineTransform(const ts::MultivariateSeries& series,
                                       const std::vector<double>& scale,
                                       const std::vector<double>& offset) {
  ts::MultivariateSeries out = series;
  for (int i = 0; i < series.n_sensors(); ++i) {
    auto row = out.mutable_sensor(i);
    for (double& v : row) v = scale[i] * v + offset[i];
  }
  return out;
}

// Detects on the scenario before and after the per-sensor affine transform
// x -> scale * x + offset (scale > 0) and expects the same detections.
// Correlations are affine-invariant up to float rounding; any residual
// difference would have to flip a community tie, which the scenario's clear
// structure does not allow.
void ExpectAffineInvariant(const testing::SmallScenario& scenario,
                           const std::vector<double>& scale,
                           const std::vector<double>& offset) {
  const ts::MultivariateSeries train2 =
      AffineTransform(scenario.train, scale, offset);
  const ts::MultivariateSeries test2 =
      AffineTransform(scenario.test, scale, offset);

  CadDetector detector(ScenarioOptions());
  const DetectionReport original =
      detector.Detect(scenario.test, &scenario.train).ValueOrDie();
  const DetectionReport transformed =
      detector.Detect(test2, &train2).ValueOrDie();

  ASSERT_EQ(original.rounds.size(), transformed.rounds.size());
  for (size_t r = 0; r < original.rounds.size(); ++r) {
    EXPECT_EQ(original.rounds[r].n_variations,
              transformed.rounds[r].n_variations)
        << "round " << r;
  }
  EXPECT_EQ(original.point_labels, transformed.point_labels);
  ASSERT_EQ(original.anomalies.size(), transformed.anomalies.size());
  for (size_t i = 0; i < original.anomalies.size(); ++i) {
    EXPECT_EQ(original.anomalies[i].sensors, transformed.anomalies[i].sensors);
    EXPECT_EQ(original.anomalies[i].first_round,
              transformed.anomalies[i].first_round);
  }
}

TEST(MetamorphicTest, PositiveAffineTransformPreservesDetections) {
  const testing::SmallScenario scenario = testing::MakeSmallScenario();
  const int n = scenario.test.n_sensors();
  {
    SCOPED_TRACE("random scale in [0.5, 20], offset in [-100, 100]");
    Rng rng(404);
    std::vector<double> scale(n);
    std::vector<double> offset(n);
    for (int i = 0; i < n; ++i) {
      scale[i] = rng.Uniform(0.5, 20.0);   // e.g. Celsius -> Fahrenheit-ish
      offset[i] = rng.Uniform(-100.0, 100.0);
    }
    ExpectAffineInvariant(scenario, scale, offset);
  }
  {
    // How a counter or a timestamp-like sensor looks: an offset eight orders
    // of magnitude above the spread. Correlations computed from running sums
    // of x and x^2 lose most of their digits to cancellation here; the
    // kernel centres each window first.
    SCOPED_TRACE("offset 1e8 at scale 1");
    ExpectAffineInvariant(scenario, std::vector<double>(n, 1.0),
                          std::vector<double>(n, 1e8));
  }
}

TEST(MetamorphicTest, SignFlipPreservesDetections) {
  // |corr| drives the TSG, so inverting a sensor's polarity changes nothing.
  const testing::SmallScenario scenario = testing::MakeSmallScenario();
  std::vector<double> scale(scenario.test.n_sensors(), 1.0);
  std::vector<double> offset(scenario.test.n_sensors(), 0.0);
  scale[0] = -1.0;
  scale[5] = -1.0;
  const ts::MultivariateSeries train2 =
      AffineTransform(scenario.train, scale, offset);
  const ts::MultivariateSeries test2 =
      AffineTransform(scenario.test, scale, offset);

  CadDetector detector(ScenarioOptions());
  const DetectionReport original =
      detector.Detect(scenario.test, &scenario.train).ValueOrDie();
  const DetectionReport flipped =
      detector.Detect(test2, &train2).ValueOrDie();
  EXPECT_EQ(original.point_labels, flipped.point_labels);
}

TEST(MetamorphicTest, SensorPermutationRemapsAnomalies) {
  const testing::SmallScenario scenario = testing::MakeSmallScenario();
  const int n = scenario.test.n_sensors();

  // permutation[i] = new index of original sensor i.
  Rng rng(405);
  std::vector<int> permutation(n);
  for (int i = 0; i < n; ++i) permutation[i] = i;
  rng.Shuffle(&permutation);

  auto permute = [&](const ts::MultivariateSeries& series) {
    ts::MultivariateSeries out(n, series.length());
    for (int i = 0; i < n; ++i) {
      auto src = series.sensor(i);
      auto dst = out.mutable_sensor(permutation[i]);
      std::copy(src.begin(), src.end(), dst.begin());
    }
    return out;
  };
  const ts::MultivariateSeries train2 = permute(scenario.train);
  const ts::MultivariateSeries test2 = permute(scenario.test);

  CadDetector detector(ScenarioOptions());
  const DetectionReport original =
      detector.Detect(scenario.test, &scenario.train).ValueOrDie();
  const DetectionReport permuted = detector.Detect(test2, &train2).ValueOrDie();

  // Abnormal time is index-free: the label series must be identical.
  EXPECT_EQ(original.point_labels, permuted.point_labels);
  // Every anomaly's sensor set maps through the permutation.
  ASSERT_EQ(original.anomalies.size(), permuted.anomalies.size());
  for (size_t a = 0; a < original.anomalies.size(); ++a) {
    std::vector<int> mapped;
    for (int v : original.anomalies[a].sensors) mapped.push_back(permutation[v]);
    std::sort(mapped.begin(), mapped.end());
    EXPECT_EQ(mapped, permuted.anomalies[a].sensors) << "anomaly " << a;
  }
}

}  // namespace
}  // namespace cad::core
