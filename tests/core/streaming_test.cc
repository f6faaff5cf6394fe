#include "core/streaming.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

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
  options.theta = 0.9;
  return options;
}

std::vector<double> SampleAt(const ts::MultivariateSeries& series, int t) {
  std::vector<double> sample(series.n_sensors());
  for (int i = 0; i < series.n_sensors(); ++i) sample[i] = series.value(i, t);
  return sample;
}

TEST(StreamingCadTest, EventsFireOnRoundBoundaries) {
  const testing::SmallScenario scenario = testing::MakeSmallScenario();
  const CadOptions options = ScenarioOptions();
  StreamingCad streaming(scenario.test.n_sensors(), options);
  ASSERT_TRUE(streaming.WarmUp(scenario.train).ok());

  int events = 0;
  StreamEvent event;
  for (int t = 0; t < scenario.test.length(); ++t) {
    if (streaming.Push(SampleAt(scenario.test, t), &event).ValueOrDie()) {
      ++events;
      EXPECT_EQ(event.time_index, t);
      // Rounds fire exactly when (t+1 - window) % step == 0 past the window.
      EXPECT_GE(t + 1, options.window);
      EXPECT_EQ((t + 1 - options.window) % options.step, 0);
    }
  }
  EXPECT_EQ(events, (scenario.test.length() - options.window) / options.step + 1);
  EXPECT_EQ(streaming.rounds_completed(), events);
}

TEST(StreamingCadTest, MatchesBatchRoundStatistics) {
  // The streaming path must produce the identical n_r sequence as the batch
  // detector (paper Section IV-F: the streaming extension repeats Algorithm
  // 2's loop body).
  const testing::SmallScenario scenario = testing::MakeSmallScenario();
  const CadOptions options = ScenarioOptions();

  CadDetector batch(options);
  const DetectionReport report =
      batch.Detect(scenario.test, &scenario.train).ValueOrDie();

  StreamingCad streaming(scenario.test.n_sensors(), options);
  ASSERT_TRUE(streaming.WarmUp(scenario.train).ok());
  std::vector<int> streamed_variations;
  std::vector<bool> streamed_abnormal;
  StreamEvent event;
  for (int t = 0; t < scenario.test.length(); ++t) {
    if (streaming.Push(SampleAt(scenario.test, t), &event).ValueOrDie()) {
      streamed_variations.push_back(event.n_variations);
      streamed_abnormal.push_back(event.abnormal);
    }
  }

  ASSERT_EQ(streamed_variations.size(), report.rounds.size());
  for (size_t r = 0; r < report.rounds.size(); ++r) {
    EXPECT_EQ(streamed_variations[r], report.rounds[r].n_variations)
        << "round " << r;
    EXPECT_EQ(streamed_abnormal[r], report.rounds[r].abnormal) << "round " << r;
  }
}

TEST(StreamingCadTest, AnomaliesMatchBatch) {
  const testing::SmallScenario scenario = testing::MakeSmallScenario();
  const CadOptions options = ScenarioOptions();

  CadDetector batch(options);
  const DetectionReport report =
      batch.Detect(scenario.test, &scenario.train).ValueOrDie();

  StreamingCad streaming(scenario.test.n_sensors(), options);
  ASSERT_TRUE(streaming.WarmUp(scenario.train).ok());
  StreamEvent event;
  for (int t = 0; t < scenario.test.length(); ++t) {
    streaming.Push(SampleAt(scenario.test, t), &event).ValueOrDie();
  }
  // Any anomaly still open at stream end is not yet closed; batch closes it.
  const std::vector<Anomaly> stream_anomalies = streaming.anomalies();
  const size_t closed = stream_anomalies.size();
  ASSERT_LE(closed, report.anomalies.size());
  for (size_t i = 0; i < closed; ++i) {
    EXPECT_EQ(stream_anomalies[i].sensors, report.anomalies[i].sensors);
    EXPECT_EQ(stream_anomalies[i].first_round, report.anomalies[i].first_round);
    EXPECT_EQ(stream_anomalies[i].last_round, report.anomalies[i].last_round);
  }
  EXPECT_EQ(closed + (streaming.anomaly_open() ? 1 : 0),
            report.anomalies.size());
}

TEST(StreamingCadTest, WarmUpAfterPushFails) {
  const testing::SmallScenario scenario = testing::MakeSmallScenario();
  StreamingCad streaming(scenario.test.n_sensors(), ScenarioOptions());
  StreamEvent event;
  streaming.Push(SampleAt(scenario.test, 0), &event).ValueOrDie();
  EXPECT_EQ(streaming.WarmUp(scenario.train).code(),
            StatusCode::kFailedPrecondition);
}

TEST(StreamingCadTest, RejectsWrongSampleWidth) {
  StreamingCad streaming(4, ScenarioOptions());
  const std::vector<double> bad(3, 0.0);
  StreamEvent event;
  EXPECT_FALSE(streaming.Push(bad, &event).ok());
}

// An invalid stream answers every call with the InvalidArgument its
// constructor found and never runs a round.
void ExpectRejectedStream(int n_sensors, const CadOptions& options) {
  const testing::SmallScenario scenario = testing::MakeSmallScenario();
  StreamingCad streaming(n_sensors, options);
  EXPECT_EQ(streaming.WarmUp(scenario.train).code(),
            StatusCode::kInvalidArgument);
  StreamEvent event;
  for (int t = 0; t < options.window + options.step + 1; ++t) {
    const Result<bool> pushed =
        streaming.Push(SampleAt(scenario.test, t), &event);
    ASSERT_FALSE(pushed.ok()) << "t=" << t;
    EXPECT_EQ(pushed.status().code(), StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(streaming.samples_seen(), 0);
  EXPECT_EQ(streaming.rounds_completed(), 0);
}

TEST(StreamingCadTest, RejectsNonPositiveShape) {
  // step = 0 must be rejected before it reaches the round cadence, which
  // divides by it once the window fills.
  CadOptions options = ScenarioOptions();
  options.step = 0;
  ExpectRejectedStream(12, options);
  options = ScenarioOptions();
  options.window = 0;
  ExpectRejectedStream(12, options);
  ExpectRejectedStream(0, ScenarioOptions());
}

TEST(StreamingCadTest, RejectsStepNotSmallerThanWindow) {
  // CadOptions::Validate requires s < w.
  CadOptions options = ScenarioOptions();
  options.step = options.window;
  ExpectRejectedStream(12, options);
  options.step = options.window + 1;
  ExpectRejectedStream(12, options);
}

TEST(StreamingCadTest, MuSigmaSharpenOverStream) {
  const testing::SmallScenario scenario = testing::MakeSmallScenario();
  StreamingCad streaming(scenario.test.n_sensors(), ScenarioOptions());
  ASSERT_TRUE(streaming.WarmUp(scenario.train).ok());
  const double mu_initial = streaming.mu();
  int rounds = 0;
  StreamEvent event;
  for (int t = 0; t < scenario.test.length() && rounds < 30; ++t) {
    if (streaming.Push(SampleAt(scenario.test, t), &event).ValueOrDie()) {
      ++rounds;
    }
  }
  // Statistics keep accumulating (count grows), values stay finite.
  EXPECT_GE(streaming.mu(), 0.0);
  EXPECT_GE(streaming.sigma(), 0.0);
  (void)mu_initial;
}

TEST(StreamingCadTest, ExplainAnswersForLiveRounds) {
  const testing::SmallScenario scenario = testing::MakeSmallScenario();
  StreamingCad streaming(scenario.test.n_sensors(), ScenarioOptions());
  ASSERT_TRUE(streaming.WarmUp(scenario.train).ok());
  int last_round = -1;
  int last_n_variations = -1;
  StreamEvent event;
  for (int t = 0; t < scenario.test.length(); ++t) {
    if (!streaming.Push(SampleAt(scenario.test, t), &event).ValueOrDie()) {
      continue;
    }
    last_round = event.round;
    last_n_variations = event.n_variations;
  }
  ASSERT_GE(last_round, 1);

  const auto provenance = streaming.Explain(last_round);
  ASSERT_TRUE(provenance.has_value());
  EXPECT_EQ(provenance->record.round, last_round);
  EXPECT_EQ(provenance->record.n_variations, last_n_variations);
  EXPECT_TRUE(provenance->has_prev);
  EXPECT_EQ(provenance->prev_round, last_round - 1);

  EXPECT_FALSE(streaming.Explain(last_round + 1).has_value());

  // The JSONL dump holds the ring's rounds, one object per line.
  const std::string jsonl = streaming.DumpFlightLogJsonl();
  int lines = 0;
  for (char c : jsonl) lines += (c == '\n');
  EXPECT_EQ(lines, streaming.Health().flight_ring_size);
  EXPECT_NE(jsonl.find("\"round\":" + std::to_string(last_round)),
            std::string::npos);
}

TEST(StreamingCadTest, ExplainIsEmptyWhenRecordingIsDisabled) {
  const testing::SmallScenario scenario = testing::MakeSmallScenario();
  CadOptions options = ScenarioOptions();
  options.flight_log_capacity = 0;
  StreamingCad streaming(scenario.test.n_sensors(), options);
  ASSERT_TRUE(streaming.WarmUp(scenario.train).ok());
  StreamEvent event;
  for (int t = 0; t < 200; ++t) {
    streaming.Push(SampleAt(scenario.test, t), &event).ValueOrDie();
  }
  EXPECT_GT(streaming.rounds_completed(), 0);
  EXPECT_FALSE(streaming.Explain(0).has_value());
  EXPECT_TRUE(streaming.DumpFlightLogJsonl().empty());
  const StreamHealth health = streaming.Health();
  EXPECT_EQ(health.flight_ring_capacity, 0);
  EXPECT_EQ(health.flight_ring_size, 0);
}

}  // namespace
}  // namespace cad::core
