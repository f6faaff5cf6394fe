// RollingCorrelationTracker: incremental window-correlation maintenance.
//
// CAD recomputes an n x n Pearson matrix every round over a window of width
// w — O(n^2 w) work — although consecutive windows share w - s columns. This
// tracker maintains the sufficient statistics (per-sensor sums, squared
// sums, and pairwise cross products) one sample at a time, O(n^2) per sample
// entering or leaving the window: O(n^2 s) per round, a w/s-fold saving for
// the paper-recommended s ≈ 0.02 w.
//
// Floating-point drift from repeated add/subtract accumulates slowly; once
// `refresh_interval` samples have left the window, refresh_due() asks the
// owner to recompute from scratch with Reset, bounding the drift to ~1e-12
// per pairwise correlation (verified by tests against the direct
// computation).
#ifndef CAD_STATS_ROLLING_CORRELATION_H_
#define CAD_STATS_ROLLING_CORRELATION_H_

#include <span>
#include <vector>

#include "common/realtime.h"
#include "stats/correlation.h"
#include "ts/multivariate_series.h"

namespace cad::stats {

class RollingCorrelationTracker {
 public:
  // Tracks windows of width `window` over `n_sensors` sensors; starts empty.
  RollingCorrelationTracker(int n_sensors, int window,
                            int refresh_interval = 64);

  // Recomputes all statistics from scratch over the window
  // [start, start + window) of `series`.
  void Reset(const ts::MultivariateSeries& series, int start);

  // Empties the window, as at construction.
  void Clear();

  // One sample (all sensors at one time point) enters / leaves the window.
  // Adding `window` samples to an empty tracker is bitwise-identical to
  // Reset over the same samples.
  void Add(std::span<const double> sample) CAD_REALTIME_AUDITED;
  void Remove(std::span<const double> sample) CAD_REALTIME_AUDITED;

  // True once `refresh_interval` samples have been removed since the last
  // Reset/Clear.
  bool refresh_due() const { return removed_ >= refresh_interval_; }

  // The correlation matrix of the current window, which must be full.
  CorrelationMatrix Correlations() const;

  // Allocation-free form: writes into `out` (bitwise-identical to
  // Correlations). The tracker's own scratch is sized at construction, so an
  // Add/Remove/Reset/CorrelationsInto cycle never touches the heap.
  void CorrelationsInto(CorrelationMatrix* out) const CAD_REALTIME_AUDITED;

  int window() const { return window_; }

 private:
  void Accumulate(const double* values, double sign) CAD_REALTIME_AUDITED;

  int n_sensors_;
  int window_;
  int refresh_interval_;
  int held_ = 0;     // samples currently in the window
  int removed_ = 0;  // samples removed since the last Reset/Clear

  std::vector<double> sum_;      // per sensor
  std::vector<double> sum_sq_;   // per sensor
  std::vector<double> cross_;    // n x n upper triangle, row-major full
  // Reused per-call buffers (sized at construction; mutable because
  // CorrelationsInto is logically const).
  std::vector<double> column_scratch_;        // one column's readings
  mutable std::vector<double> centered_norm_;  // per sensor
};

}  // namespace cad::stats

#endif  // CAD_STATS_ROLLING_CORRELATION_H_
