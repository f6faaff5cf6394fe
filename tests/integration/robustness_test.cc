// Randomized robustness sweep: across arbitrary (valid) option sets and
// data shapes, the detector must never crash, and every report must be
// well-formed — sizes match, scores stay in [0, 1], anomalies are ordered
// and within range. This is the fuzz-style backstop behind the targeted
// unit tests.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "core/cad_detector.h"
#include "core/streaming.h"
#include "datasets/generator.h"

namespace cad::core {
namespace {

struct RandomCase {
  CadOptions options;
  ts::MultivariateSeries train;
  ts::MultivariateSeries test;
};

RandomCase MakeRandomCase(uint64_t seed) {
  Rng rng(seed);
  RandomCase c;

  datasets::GeneratorOptions generator_options;
  generator_options.n_sensors = rng.UniformInt(2, 40);
  generator_options.n_communities =
      rng.UniformInt(1, std::max(2, generator_options.n_sensors / 2));
  generator_options.noise_std = rng.Uniform(0.01, 1.0);
  generator_options.factor_smoothness = rng.Uniform(0.0, 0.95);
  generator_options.baseline_drift_std = rng.Uniform(0.0, 0.1);
  if (rng.NextDouble() < 0.3) {
    generator_options.seasonal_period = rng.UniformInt(10, 200);
  }
  datasets::SensorNetworkGenerator generator(generator_options, &rng);

  const int train_len = rng.UniformInt(0, 400);
  const int test_len = rng.UniformInt(120, 800);
  if (train_len > 60) c.train = generator.Generate(train_len, &rng);
  c.test = generator.Generate(test_len, &rng);

  CadOptions& o = c.options;
  o.window = rng.UniformInt(8, std::max(9, std::min(train_len > 60 ? train_len : test_len, test_len) / 2));
  o.step = rng.UniformInt(1, std::max(2, o.window / 2));
  o.k = rng.UniformInt(1, 12);
  o.tau = rng.Uniform(0.0, 1.0);
  o.theta = rng.Uniform(0.0, 1.0);
  o.eta = rng.Uniform(0.5, 5.0);
  o.min_sigma = rng.Uniform(0.0, 1.0);
  o.rc_window = rng.UniformInt(0, 16);
  o.rc_global_normalization = rng.NextDouble() < 0.3;
  o.use_spearman = rng.NextDouble() < 0.3;
  o.incremental_correlation = rng.NextDouble() < 0.3;
  o.n_threads = rng.UniformInt(1, 4);
  o.window_mark_fraction = rng.Uniform(0.05, 1.0);
  o.use_sigma_rule = rng.NextDouble() < 0.8;
  o.fixed_xi = rng.UniformInt(1, 5);
  return c;
}

class RandomizedDetector : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomizedDetector, ReportIsAlwaysWellFormed) {
  RandomCase c = MakeRandomCase(GetParam());
  CadDetector detector(c.options);
  const ts::MultivariateSeries* train =
      c.train.length() > 0 ? &c.train : nullptr;
  Result<DetectionReport> result = detector.Detect(c.test, train);
  if (!result.ok()) {
    // Only legitimate validation failures are acceptable (e.g. window was
    // randomly drawn larger than a short train split).
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
    return;
  }
  const DetectionReport& report = result.value();
  ASSERT_EQ(report.point_scores.size(), static_cast<size_t>(c.test.length()));
  ASSERT_EQ(report.point_labels.size(), static_cast<size_t>(c.test.length()));
  ASSERT_EQ(report.sensor_labels.size(),
            static_cast<size_t>(c.test.n_sensors()));
  for (double s : report.point_scores) {
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0);
  }
  int previous_end_round = -1;
  for (const Anomaly& anomaly : report.anomalies) {
    EXPECT_GE(anomaly.first_round, 0);
    EXPECT_LE(anomaly.first_round, anomaly.last_round);
    EXPECT_GT(anomaly.first_round, previous_end_round);  // ordered, disjoint
    previous_end_round = anomaly.last_round;
    EXPECT_GE(anomaly.start_time, 0);
    EXPECT_LE(anomaly.end_time, c.test.length());
    EXPECT_TRUE(std::is_sorted(anomaly.sensors.begin(), anomaly.sensors.end()));
    for (int v : anomaly.sensors) {
      EXPECT_GE(v, 0);
      EXPECT_LT(v, c.test.n_sensors());
    }
  }
}

TEST_P(RandomizedDetector, StreamingNeverCrashes) {
  RandomCase c = MakeRandomCase(GetParam() + 5000);
  StreamingCad streaming(c.test.n_sensors(), c.options);
  if (c.train.length() > 0) {
    // May fail validation on degenerate random cases; that's fine here.
    (void)streaming.WarmUp(c.train);
  }
  std::vector<double> sample(c.test.n_sensors());
  StreamEvent event;
  for (int t = 0; t < c.test.length(); ++t) {
    for (int i = 0; i < c.test.n_sensors(); ++i) {
      sample[i] = c.test.value(i, t);
    }
    const Result<bool> pushed = streaming.Push(sample, &event);
    ASSERT_TRUE(pushed.ok());
  }
  for (const Anomaly& anomaly : streaming.anomalies()) {
    EXPECT_LE(anomaly.first_round, anomaly.last_round);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomizedDetector,
                         ::testing::Range<uint64_t>(1, 25));

}  // namespace
}  // namespace cad::core
