// core::SampleWindow — the one place that decides when a detection round
// closes: a ring of the last `window` samples plus the round cadence of paper
// Section III-B (a round closes every `step` samples once `window` samples
// have been seen; a trailing partial step closes none). core::DetectionEngine
// owns one and feeds it every sample, whichever driver pushed it.
//
// The ring is sensor-major and twice the window wide: each sample is written
// at column `slot` and again at `slot + window`, so the last `window` samples
// are always one contiguous run per sensor, which a round reads in place.
//
// Not synchronized; the engine's owner provides the lock. Append writes into
// storage sized at construction, so steady-state ingestion performs zero heap
// allocations.
#ifndef CAD_CORE_SAMPLE_WINDOW_H_
#define CAD_CORE_SAMPLE_WINDOW_H_

#include <algorithm>
#include <span>

#include "ts/multivariate_series.h"

namespace cad::core {

class SampleWindow {
 public:
  // `window` > 0 and `step` > 0 (CadOptions::Validate guarantees both).
  SampleWindow(int n_sensors, int window, int step)
      : n_sensors_(n_sensors),
        window_(window),
        step_(step),
        ring_(n_sensors, 2 * window) {}

  // Appends the readings of all sensors for one time point (the oldest
  // sample is overwritten once the ring is full) and returns true when this
  // sample closes a detection round: samples_seen >= window and the overhang
  // (samples_seen - window) is a multiple of step. `readings.size()` must
  // equal the sensor count.
  bool Append(std::span<const double> readings) {
    for (int i = 0; i < n_sensors_; ++i) {
      double* row = ring_.mutable_sensor(i).data();
      row[slot_] = readings[i];
      row[slot_ + window_] = readings[i];
    }
    if (++slot_ == window_) slot_ = 0;
    ++samples_seen_;
    return samples_seen_ >= window_ && (samples_seen_ - window_) % step_ == 0;
  }

  // n_sensors x 2 window. Once samples_seen() >= window, its columns
  // [window_column(), + window) hold the last `window` samples, oldest first.
  const ts::MultivariateSeries& ring() const { return ring_; }
  int window_column() const { return slot_; }

  // Copies the last `window` samples, oldest first, into `out` (shaped
  // n_sensors x window). Valid once samples_seen() >= window.
  void MaterializeInto(ts::MultivariateSeries* out) const {
    for (int i = 0; i < n_sensors_; ++i) {
      const std::span<const double> row =
          ring_.sensor_window(i, slot_, window_);
      std::copy(row.begin(), row.end(), out->mutable_sensor(i).begin());
    }
  }

  // Forgets every sample: the next Append starts a new stream at time 0.
  void Clear() {
    slot_ = 0;
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
  ts::MultivariateSeries ring_;  // each sample twice; never resized
  int slot_ = 0;  // column the next sample takes: the oldest once full
  int samples_seen_ = 0;
};

}  // namespace cad::core

#endif  // CAD_CORE_SAMPLE_WINDOW_H_
