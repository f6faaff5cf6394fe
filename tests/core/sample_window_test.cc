// SampleWindow is the one place that decides when a detection round closes
// (paper Section III-B: R = floor((|T| - w) / s) + 1 windows,
// T_r = T[1 + (r-1)s : w + (r-1)s], trailing columns dropped) and where each
// window sits on the time axis. Every driver gets its cadence from here, so
// these cases pin it directly.
#include "core/sample_window.h"

#include <gtest/gtest.h>

#include <span>
#include <tuple>
#include <vector>

#include "ts/multivariate_series.h"

namespace cad::core {
namespace {

// A closed round as the engine sees it: its window [start, end).
struct ClosedRound {
  int start = 0;
  int end = 0;
};

// Appends `length` one-sensor samples (sample t reads t) and returns the
// rounds they close.
std::vector<ClosedRound> Feed(SampleWindow* window, int length) {
  std::vector<ClosedRound> rounds;
  for (int t = 0; t < length; ++t) {
    const double reading = t;
    if (window->Append({&reading, 1})) {
      rounds.push_back(
          {window->window_start_time(), window->window_end_time()});
    }
  }
  return rounds;
}

TEST(SampleWindowTest, PaperFormulaExactDivision) {
  // R = (|T| - w) / s + 1 when (|T| - w) % s == 0.
  SampleWindow window(1, 20, 10);
  const std::vector<ClosedRound> rounds = Feed(&window, 100);
  ASSERT_EQ(rounds.size(), 9u);
  EXPECT_EQ(rounds[0].start, 0);
  EXPECT_EQ(rounds[0].end, 20);
  EXPECT_EQ(rounds[8].start, 80);
  EXPECT_EQ(rounds[8].end, 100);
}

TEST(SampleWindowTest, TailTrimmedWhenNotDivisible) {
  // The paper drops trailing columns when (|T| - w) % s != 0: a trailing
  // partial step closes no round.
  SampleWindow window(1, 20, 10);
  const std::vector<ClosedRound> rounds = Feed(&window, 105);
  ASSERT_EQ(rounds.size(), 9u);
  EXPECT_EQ(rounds.back().end, 100);  // last 5 points unused
}

TEST(SampleWindowTest, SingleRoundWhenWindowEqualsLength) {
  SampleWindow window(1, 50, 5);
  EXPECT_EQ(Feed(&window, 50).size(), 1u);
}

TEST(SampleWindowTest, LastCompleteRound) {
  // Once sample t has arrived, the most recent closed round is
  // floor((t + 1 - w) / s); -1 while no window fits yet.
  SampleWindow window(1, 20, 10);
  std::vector<int> last_round_at;
  int last_round = -1;
  for (int t = 0; t < 100; ++t) {
    const double reading = t;
    if (window.Append({&reading, 1})) ++last_round;
    last_round_at.push_back(last_round);
  }
  EXPECT_EQ(last_round_at[10], -1);  // no window fits yet
  EXPECT_EQ(last_round_at[19], 0);   // first window closes at 19
  EXPECT_EQ(last_round_at[28], 0);
  EXPECT_EQ(last_round_at[29], 1);
  EXPECT_EQ(last_round_at[99], 8);
}

TEST(SampleWindowTest, MaterializeUnwrapsTheRingOldestFirst) {
  // Window 4 over 7 samples: the ring has wrapped and its oldest sample
  // (t = 3) sits in slot 3; the materialized window is samples 3..6 in time
  // order, one row per sensor.
  SampleWindow window(3, 4, 1);
  for (int t = 0; t < 7; ++t) {
    const std::vector<double> sample = {1.0 * t, 10.0 + t, 100.0 + t};
    window.Append(sample);
  }
  ts::MultivariateSeries out(3, 4);
  window.MaterializeInto(&out);
  for (int t = 0; t < 4; ++t) {
    EXPECT_EQ(out.value(0, t), 3.0 + t);
    EXPECT_EQ(out.value(1, t), 13.0 + t);
    EXPECT_EQ(out.value(2, t), 103.0 + t);
  }
}

// The round reads its window in place: at every sample that closes a round,
// columns [window_column(), window_column() + window) of the ring hold the
// last `window` samples pushed, oldest first, as MaterializeInto copies
// them. Several wraps of the ring, step 1 and step 3, and a second stream
// after Clear().
TEST(SampleWindowTest, RingHoldsEachClosedWindowContiguously) {
  constexpr int kSensors = 3;
  constexpr int kWindow = 5;
  for (const int step : {1, 3}) {
    SampleWindow window(kSensors, kWindow, step);
    ts::MultivariateSeries materialized(kSensors, kWindow);
    for (int stream = 0; stream < 2; ++stream) {
      std::vector<std::vector<double>> pushed;
      int rounds = 0;
      for (int t = 0; t < 6 * kWindow + 2; ++t) {
        std::vector<double> sample(kSensors);
        for (int i = 0; i < kSensors; ++i) {
          sample[i] = 1000.0 * stream + 100.0 * i + t;
        }
        pushed.push_back(sample);
        if (!window.Append(sample)) continue;
        ++rounds;
        window.MaterializeInto(&materialized);
        const ts::MultivariateSeries& ring = window.ring();
        ASSERT_EQ(ring.n_sensors(), kSensors);
        ASSERT_EQ(ring.length(), 2 * kWindow);
        ASSERT_GE(window.window_column(), 0);
        ASSERT_LT(window.window_column(), kWindow);
        for (int i = 0; i < kSensors; ++i) {
          const std::span<const double> in_place =
              ring.sensor_window(i, window.window_column(), kWindow);
          for (int j = 0; j < kWindow; ++j) {
            const double expected =
                pushed[static_cast<size_t>(t + 1 - kWindow + j)][i];
            EXPECT_EQ(in_place[j], expected)
                << "step " << step << " stream " << stream << " t " << t
                << " sensor " << i << " column " << j;
            EXPECT_EQ(materialized.value(i, j), expected);
          }
        }
      }
      EXPECT_EQ(rounds, (6 * kWindow + 2 - kWindow) / step + 1);
      window.Clear();
    }
  }
}

TEST(SampleWindowTest, WindowTimesTrackSamplesSeen) {
  SampleWindow window(1, 8, 3);
  for (int t = 0; t < 30; ++t) {
    const double reading = t;
    const bool closed = window.Append({&reading, 1});
    EXPECT_EQ(window.samples_seen(), t + 1);
    EXPECT_EQ(window.window_end_time(), t + 1);
    EXPECT_EQ(window.window_start_time(), t + 1 - 8);
    if (closed) {
      EXPECT_EQ(window.window_start_time() % 3, 0) << "t=" << t;
    }
  }
  // Clear starts a new stream at time 0: its first round is [0, 8) again.
  window.Clear();
  EXPECT_EQ(window.samples_seen(), 0);
  const std::vector<ClosedRound> rounds = Feed(&window, 8);
  ASSERT_EQ(rounds.size(), 1u);
  EXPECT_EQ(rounds[0].start, 0);
  EXPECT_EQ(rounds[0].end, 8);
}

// Property sweep over many (length, window, step) combinations: every round
// must lie within the series, consecutive rounds advance by exactly `step`,
// and R matches the paper's floor formula.
class WindowSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(WindowSweep, RoundsAreConsistent) {
  const auto [length, window, step] = GetParam();
  SampleWindow ring(1, window, step);
  const std::vector<ClosedRound> rounds = Feed(&ring, length);
  ASSERT_EQ(static_cast<int>(rounds.size()), (length - window) / step + 1);
  for (size_t r = 0; r < rounds.size(); ++r) {
    EXPECT_GE(rounds[r].start, 0);
    EXPECT_LE(rounds[r].end, length);
    EXPECT_EQ(rounds[r].end - rounds[r].start, window);
    if (r > 0) {
      EXPECT_EQ(rounds[r].start - rounds[r - 1].start, step);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, WindowSweep,
    ::testing::Values(std::make_tuple(100, 20, 10),
                      std::make_tuple(1000, 100, 2),
                      std::make_tuple(57, 8, 3), std::make_tuple(64, 32, 1),
                      std::make_tuple(999, 50, 7),
                      std::make_tuple(33, 32, 31)));

}  // namespace
}  // namespace cad::core
