// CadOptions::flight_log_path: when an anomaly closes, the engine appends
// that anomaly's rounds from its flight recorder to the file as JSONL, one
// DecisionRecord per line. These cases drive a bare DetectionEngine over a
// stream with one injected correlation break and read the file back.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/engine.h"
#include "obs/metrics.h"
#include "testing/synthetic.h"

namespace cad::core {
namespace {

// One line of the log: its round id and verdict.
struct LoggedRound {
  int round = -1;
  bool abnormal = false;
};

std::vector<LoggedRound> ReadFlightLog(const std::string& path) {
  std::vector<LoggedRound> rounds;
  std::ifstream file(path);
  std::string line;
  while (std::getline(file, line)) {
    LoggedRound logged;
    EXPECT_EQ(std::sscanf(line.c_str(), "{\"round\":%d,", &logged.round), 1)
        << line;
    EXPECT_EQ(line.back(), '}') << line;
    logged.abnormal = line.find("\"abnormal\":true") != std::string::npos;
    rounds.push_back(logged);
  }
  return rounds;
}

uintmax_t FileSize(const std::string& path) {
  std::error_code error;
  const uintmax_t size = std::filesystem::file_size(path, error);
  return error ? 0 : size;
}

TEST(EngineFlightLogTest, ClosedAnomalyAppendsItsRoundsAsJsonl) {
  const testing::SmallScenario scenario = testing::MakeSmallScenario();
  const std::string path =
      ::testing::TempDir() + "engine_flight_log_test.jsonl";
  std::filesystem::remove(path);

  obs::Registry registry;
  CadOptions options;
  // On this scenario these settings raise one anomaly of two rounds.
  options.window = 60;
  options.step = 1;
  options.k = 3;
  options.tau = 0.55;
  options.theta = 0.9;
  options.eta = 3.0;
  options.min_sigma = 0.5;
  options.metrics_registry = &registry;
  options.flight_log_path = path;
  DetectionEngine engine(scenario.test.n_sensors(), options);
  RoundWorkspace workspace;
  ASSERT_TRUE(engine.WarmUp(scenario.train, workspace).ok());

  std::vector<double> sample(static_cast<size_t>(scenario.test.n_sensors()));
  for (int t = 0; t < scenario.test.length(); ++t) {
    for (int i = 0; i < scenario.test.n_sensors(); ++i) {
      sample[i] = scenario.test.value(i, t);
    }
    const size_t closed_before = engine.anomalies().size();
    (void)engine.Push(sample, workspace);
    // Nothing is written until the anomaly closes, and then all at once.
    if (engine.anomalies().size() == closed_before) {
      ASSERT_EQ(FileSize(path) > 0, closed_before > 0) << "t " << t;
    }
  }
  engine.Finish();

  ASSERT_EQ(engine.anomalies().size(), 1u);
  const Anomaly& anomaly = engine.anomalies()[0];
  ASSERT_LT(anomaly.first_round, anomaly.last_round);
  const std::vector<LoggedRound> logged = ReadFlightLog(path);
  ASSERT_EQ(static_cast<int>(logged.size()),
            anomaly.last_round - anomaly.first_round + 1);
  for (size_t i = 0; i < logged.size(); ++i) {
    EXPECT_EQ(logged[i].round, anomaly.first_round + static_cast<int>(i));
    EXPECT_TRUE(logged[i].abnormal) << "round " << logged[i].round;
  }
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace cad::core
