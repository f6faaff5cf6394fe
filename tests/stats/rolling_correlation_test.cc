#include "stats/rolling_correlation.h"

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>
#include <vector>

#include "common/rng.h"

namespace cad::stats {
namespace {

ts::MultivariateSeries RandomSeries(int n, int length, uint64_t seed) {
  cad::Rng rng(seed);
  ts::MultivariateSeries series(n, length);
  double f = 0.0;
  for (int t = 0; t < length; ++t) {
    f = 0.7 * f + 0.7 * rng.Gaussian();
    for (int i = 0; i < n; ++i) {
      series.set_value(i, t, (i % 2 == 0 ? f : -f) + 0.3 * rng.Gaussian());
    }
  }
  return series;
}

// Sample t of `series`: every sensor's reading at time t.
std::vector<double> SampleAt(const ts::MultivariateSeries& series, int t) {
  std::vector<double> sample(series.n_sensors());
  for (int i = 0; i < series.n_sensors(); ++i) sample[i] = series.value(i, t);
  return sample;
}

// Slides a full tracker positioned at `start` forward by one sample.
void SlideOne(RollingCorrelationTracker* tracker,
              const ts::MultivariateSeries& series, int start) {
  tracker->Remove(SampleAt(series, start));
  tracker->Add(SampleAt(series, start + tracker->window()));
}

TEST(RollingCorrelationTest, ResetMatchesDirectComputation) {
  const ts::MultivariateSeries series = RandomSeries(8, 300, 1);
  RollingCorrelationTracker tracker(8, 64);
  tracker.Reset(series, 50);
  const CorrelationMatrix rolling = tracker.Correlations();
  const CorrelationMatrix direct = WindowCorrelationMatrix(series, 50, 64);
  for (int i = 0; i < 8; ++i) {
    for (int j = 0; j < 8; ++j) {
      EXPECT_NEAR(rolling.at(i, j), direct.at(i, j), 1e-10);
    }
  }
}

TEST(RollingCorrelationTest, FillingSampleBySampleIsBitwiseReset) {
  // Adding the first `window` samples to an empty tracker performs Reset's
  // exact sequence of operations, so a stream's first round sees the same
  // bits as a from-scratch computation.
  const ts::MultivariateSeries series = RandomSeries(5, 100, 7);
  const int w = 32;
  RollingCorrelationTracker filled(5, w);
  for (int t = 0; t < w; ++t) filled.Add(SampleAt(series, t));
  RollingCorrelationTracker reset(5, w);
  reset.Reset(series, 0);
  const CorrelationMatrix a = filled.Correlations();
  const CorrelationMatrix b = reset.Correlations();
  for (int i = 0; i < 5; ++i) {
    for (int j = 0; j < 5; ++j) EXPECT_EQ(a.at(i, j), b.at(i, j));
  }
}

TEST(RollingCorrelationTest, SlidesMatchDirectAtEveryStep) {
  const ts::MultivariateSeries series = RandomSeries(6, 500, 2);
  const int w = 48, s = 4;
  RollingCorrelationTracker tracker(6, w);
  tracker.Reset(series, 0);
  for (int start = s; start + w <= series.length(); start += s) {
    for (int t = start - s; t < start; ++t) SlideOne(&tracker, series, t);
    const CorrelationMatrix rolling = tracker.Correlations();
    const CorrelationMatrix direct = WindowCorrelationMatrix(series, start, w);
    for (int i = 0; i < 6; ++i) {
      for (int j = i + 1; j < 6; ++j) {
        ASSERT_NEAR(rolling.at(i, j), direct.at(i, j), 1e-9)
            << "start=" << start;
      }
    }
  }
}

TEST(RollingCorrelationTest, DriftBoundedOverManySlides) {
  // Hundreds of slides with step 1 — the worst case for accumulation error;
  // the periodic refresh keeps the drift microscopic.
  const ts::MultivariateSeries series = RandomSeries(4, 2000, 3);
  const int w = 64;
  RollingCorrelationTracker tracker(4, w, /*refresh_interval=*/64);
  tracker.Reset(series, 0);
  double max_error = 0.0;
  int refreshes = 0;
  for (int start = 1; start + w <= series.length(); ++start) {
    SlideOne(&tracker, series, start - 1);
    if (tracker.refresh_due()) {
      tracker.Reset(series, start);
      ++refreshes;
    }
    const CorrelationMatrix rolling = tracker.Correlations();
    const CorrelationMatrix direct = WindowCorrelationMatrix(series, start, w);
    for (int i = 0; i < 4; ++i) {
      for (int j = i + 1; j < 4; ++j) {
        max_error = std::max(max_error,
                             std::abs(rolling.at(i, j) - direct.at(i, j)));
      }
    }
  }
  EXPECT_LT(max_error, 1e-8);
  EXPECT_EQ(refreshes, (series.length() - w) / 64);  // one per 64 slides
}

TEST(RollingCorrelationTest, ConstantSensorStaysZero) {
  ts::MultivariateSeries series(2, 200);
  cad::Rng rng(6);
  for (int t = 0; t < 200; ++t) {
    series.set_value(0, t, 5.0);
    series.set_value(1, t, rng.Gaussian());
  }
  RollingCorrelationTracker tracker(2, 32);
  tracker.Reset(series, 0);
  for (int t = 0; t < 8; ++t) SlideOne(&tracker, series, t);
  EXPECT_EQ(tracker.Correlations().at(0, 1), 0.0);
}

}  // namespace
}  // namespace cad::stats
