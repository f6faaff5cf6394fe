// core::SampleWindow — the one place that decides when a detection round
// closes: a ring of the last `window` samples (sample-major) plus the round
// cadence of paper Section III-B (a round closes every `step` samples once
// `window` samples have been seen; a trailing partial step closes none).
// core::DetectionEngine owns one and feeds it every sample, whichever
// driver pushed it, and materializes the ring when a round closes.
//
// Not synchronized; the engine's owner provides the lock. Append and
// MaterializeInto copy into storage sized at construction, so steady-state
// ingestion performs zero heap allocations.
#ifndef CAD_CORE_SAMPLE_WINDOW_H_
#define CAD_CORE_SAMPLE_WINDOW_H_

#include <algorithm>
#include <span>
#include <vector>

#include "ts/multivariate_series.h"

namespace cad::core {

class SampleWindow {
 public:
  // `window` > 0 and `step` > 0 (CadOptions::Validate guarantees both).
  SampleWindow(int n_sensors, int window, int step)
      : n_sensors_(n_sensors),
        window_(window),
        step_(step),
        buffer_(static_cast<size_t>(window) * n_sensors, 0.0) {}

  // Appends the readings of all sensors for one time point (the oldest ring
  // slot is overwritten once the ring is full) and returns true when this
  // sample closes a detection round: samples_seen >= window and the overhang
  // (samples_seen - window) is a multiple of step. `readings.size()` must
  // equal the sensor count.
  bool Append(std::span<const double> readings) {
    const int slot = (head_ + buffered_) % window_;
    std::copy(readings.begin(), readings.end(),
              buffer_.begin() + static_cast<size_t>(slot) * n_sensors_);
    if (buffered_ < window_) {
      ++buffered_;
    } else {
      head_ = (head_ + 1) % window_;
    }
    ++samples_seen_;
    return samples_seen_ >= window_ && (samples_seen_ - window_) % step_ == 0;
  }

  // True once the ring holds `window` samples; the next Append then
  // overwrites oldest(), the oldest buffered sample.
  bool full() const { return buffered_ == window_; }
  std::span<const double> oldest() const {
    return {buffer_.data() + static_cast<size_t>(head_) * n_sensors_,
            static_cast<size_t>(n_sensors_)};
  }

  // Materializes the ring, oldest sample first, into the sensor-major series
  // the round consumes (`out` must be shaped n_sensors x window). Valid once
  // samples_seen() >= window.
  void MaterializeInto(ts::MultivariateSeries* out) const {
    for (int t = 0; t < window_; ++t) {
      const int slot = (head_ + t) % window_;
      const double* sample =
          buffer_.data() + static_cast<size_t>(slot) * n_sensors_;
      for (int i = 0; i < n_sensors_; ++i) out->set_value(i, t, sample[i]);
    }
  }

  // Forgets every sample: the next Append starts a new stream at time 0.
  void Clear() {
    head_ = 0;
    buffered_ = 0;
    samples_seen_ = 0;
  }

  // The window's position on the stream's global time axis:
  // [samples_seen - window, samples_seen).
  int window_start_time() const { return samples_seen_ - window_; }
  int window_end_time() const { return samples_seen_; }

  int samples_seen() const { return samples_seen_; }

 private:
  const int n_sensors_;
  const int window_;
  const int step_;
  std::vector<double> buffer_;  // ring, sample-major, never resized
  int head_ = 0;                // index of the oldest ring sample
  int buffered_ = 0;            // valid samples (<= window)
  int samples_seen_ = 0;
};

}  // namespace cad::core

#endif  // CAD_CORE_SAMPLE_WINDOW_H_
