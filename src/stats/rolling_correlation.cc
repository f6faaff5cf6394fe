#include "stats/rolling_correlation.h"

#include <algorithm>
#include <cmath>

#include "check/check.h"

namespace cad::stats {

namespace {
constexpr double kEpsilon = 1e-12;
}  // namespace

RollingCorrelationTracker::RollingCorrelationTracker(int n_sensors, int window,
                                                     int refresh_interval)
    : n_sensors_(n_sensors),
      window_(window),
      refresh_interval_(refresh_interval),
      sum_(n_sensors, 0.0),
      sum_sq_(n_sensors, 0.0),
      cross_(static_cast<size_t>(n_sensors) * n_sensors, 0.0),
      column_scratch_(n_sensors, 0.0),
      centered_norm_(n_sensors, 0.0) {
  CAD_CHECK(n_sensors > 0 && window > 0, "bad tracker shape");
}

void RollingCorrelationTracker::Accumulate(const double* values, double sign)
    CAD_REALTIME_AUDITED {
  for (int i = 0; i < n_sensors_; ++i) {
    const double xi = values[i];
    sum_[i] += sign * xi;
    sum_sq_[i] += sign * xi * xi;
    double* row = cross_.data() + static_cast<size_t>(i) * n_sensors_;
    for (int j = i + 1; j < n_sensors_; ++j) {
      row[j] += sign * xi * values[j];
    }
  }
}

void RollingCorrelationTracker::Clear() {
  std::fill(sum_.begin(), sum_.end(), 0.0);
  std::fill(sum_sq_.begin(), sum_sq_.end(), 0.0);
  std::fill(cross_.begin(), cross_.end(), 0.0);
  held_ = 0;
  removed_ = 0;
}

void RollingCorrelationTracker::Reset(const ts::MultivariateSeries& series,
                                      int start) {
  CAD_CHECK(start >= 0 && start + window_ <= series.length(),
            "window out of range");
  Clear();
  for (int t = start; t < start + window_; ++t) {
    // Gather the column once (series is sensor-major).
    for (int i = 0; i < n_sensors_; ++i) {
      column_scratch_[i] = series.value(i, t);
    }
    Add(column_scratch_);
  }
}

void RollingCorrelationTracker::Add(std::span<const double> sample)
    CAD_REALTIME_AUDITED {
  CAD_DCHECK(static_cast<int>(sample.size()) == n_sensors_ && held_ < window_);
  Accumulate(sample.data(), +1.0);
  ++held_;
}

void RollingCorrelationTracker::Remove(std::span<const double> sample)
    CAD_REALTIME_AUDITED {
  CAD_DCHECK(static_cast<int>(sample.size()) == n_sensors_ && held_ > 0);
  Accumulate(sample.data(), -1.0);
  --held_;
  ++removed_;
}

void RollingCorrelationTracker::CorrelationsInto(CorrelationMatrix* out) const
    CAD_REALTIME_AUDITED {
  CAD_CHECK(held_ == window_, "tracker window not full");
  out->Reset(n_sensors_);
  CorrelationMatrix& corr = *out;
  const double w = static_cast<double>(window_);
  // Per-sensor centered norms: sum((x - mean)^2) = sum_sq - sum^2 / w.
  std::vector<double>& centered_norm = centered_norm_;
  for (int i = 0; i < n_sensors_; ++i) {
    centered_norm[i] = sum_sq_[i] - sum_[i] * sum_[i] / w;
  }
  for (int i = 0; i < n_sensors_; ++i) {
    if (centered_norm[i] < kEpsilon) continue;  // constant sensor -> 0
    const double* row = cross_.data() + static_cast<size_t>(i) * n_sensors_;
    for (int j = i + 1; j < n_sensors_; ++j) {
      if (centered_norm[j] < kEpsilon) continue;
      const double cov = row[j] - sum_[i] * sum_[j] / w;
      double r = cov / std::sqrt(centered_norm[i] * centered_norm[j]);
      if (r > 1.0) r = 1.0;
      if (r < -1.0) r = -1.0;
      corr.set(i, j, r);
    }
  }
}

CorrelationMatrix RollingCorrelationTracker::Correlations() const {
  CorrelationMatrix corr;
  CorrelationsInto(&corr);
  return corr;
}

}  // namespace cad::stats
