// Driver equivalence: the ground-truth gate of the shared DetectionEngine.
// CadDetector::Detect (Algorithm 2), StreamingCad (Section IV-F) and a
// one-tenant fleet::FleetEngine are the same engine fed the same samples
// three ways, so over the same series they must produce *byte-identical*
// anomalies, n_r sequences, mu/sigma trajectories and flight-log records —
// not merely approximately equal ones. Doubles are compared at the bit
// level: any FP-order divergence between the drivers is a bug, not rounding
// noise. The fleet has no warm-up, so its leg is compared against a batch
// run without one.
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <vector>

#include "core/cad_detector.h"
#include "core/streaming.h"
#include "fleet/fleet_engine.h"
#include "obs/metrics.h"
#include "testing/synthetic.h"

namespace cad::core {
namespace {

// Bit-level double equality (EXPECT_EQ would conflate -0.0 and 0.0).
::testing::AssertionResult BitEqual(double a, double b) {
  if (std::memcmp(&a, &b, sizeof(double)) == 0) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << a << " and " << b << " differ at the bit level";
}

struct StreamRun {
  std::vector<int> n_variations;
  std::vector<bool> abnormal;
  std::vector<double> mu;     // statistics used for each round's decision
  std::vector<double> sigma;
  std::vector<Anomaly> anomalies;
  bool open_at_end = false;
  std::vector<obs::DecisionRecord> flight_log;
};

StreamRun RunStreaming(const ts::MultivariateSeries& train,
                       const ts::MultivariateSeries& test,
                       const CadOptions& options) {
  StreamRun run;
  StreamingCad streaming(test.n_sensors(), options);
  EXPECT_TRUE(streaming.WarmUp(train).ok());
  std::vector<double> sample(test.n_sensors());
  StreamEvent event;
  for (int t = 0; t < test.length(); ++t) {
    for (int i = 0; i < test.n_sensors(); ++i) sample[i] = test.value(i, t);
    if (!streaming.Push(sample, &event).ValueOrDie()) continue;
    run.n_variations.push_back(event.n_variations);
    run.abnormal.push_back(event.abnormal);
    run.mu.push_back(event.mu);
    run.sigma.push_back(event.sigma);
  }
  run.anomalies = streaming.anomalies();
  run.open_at_end = streaming.anomaly_open();
  run.flight_log = streaming.FlightLog();
  return run;
}

// One tenant behind a one-worker fleet, its queue pre-filled with the whole
// series before Start. The per-round view comes from the tenant's flight
// log, which holds every round (ExpectEquivalent asserts it).
StreamRun RunFleet(const ts::MultivariateSeries& test,
                   const CadOptions& options) {
  StreamRun run;
  obs::Registry registry;
  fleet::FleetOptions fleet_options;
  fleet_options.n_workers = 1;
  fleet_options.queue_capacity = test.length();
  fleet_options.metrics_registry = &registry;
  fleet::FleetEngine fleet(fleet_options);
  const int tenant =
      fleet.AddTenant("solo", test.n_sensors(), options).ValueOrDie();
  std::vector<double> sample(test.n_sensors());
  for (int t = 0; t < test.length(); ++t) {
    for (int i = 0; i < test.n_sensors(); ++i) sample[i] = test.value(i, t);
    EXPECT_TRUE(fleet.Push(tenant, sample).ValueOrDie());
  }
  EXPECT_TRUE(fleet.Start().ok());
  fleet.Drain();
  fleet.Stop();
  run.flight_log = fleet.TenantFlightLog(tenant).ValueOrDie();
  for (const obs::DecisionRecord& record : run.flight_log) {
    run.n_variations.push_back(record.n_variations);
    run.abnormal.push_back(record.abnormal);
    run.mu.push_back(record.mu);
    run.sigma.push_back(record.sigma);
  }
  run.anomalies = fleet.TenantAnomalies(tenant).ValueOrDie();
  run.open_at_end = fleet.TenantInfo(tenant).ValueOrDie().anomaly_open;
  return run;
}

void ExpectAnomaliesIdentical(const Anomaly& batch, const Anomaly& stream,
                              size_t index) {
  SCOPED_TRACE("anomaly " + std::to_string(index));
  EXPECT_EQ(batch.sensors, stream.sensors);
  EXPECT_EQ(batch.first_round, stream.first_round);
  EXPECT_EQ(batch.last_round, stream.last_round);
  EXPECT_EQ(batch.start_time, stream.start_time);
  EXPECT_EQ(batch.end_time, stream.end_time);
  EXPECT_EQ(batch.detection_time, stream.detection_time);
}

// Every deterministic field of two flight-log records; the wall-clock
// timings are the only fields left out.
void ExpectRecordsIdentical(const obs::DecisionRecord& batch,
                            const obs::DecisionRecord& other) {
  SCOPED_TRACE("record of round " + std::to_string(batch.round));
  EXPECT_EQ(batch.round, other.round);
  EXPECT_EQ(batch.window_start, other.window_start);
  EXPECT_EQ(batch.window_end, other.window_end);
  EXPECT_EQ(batch.n_variations, other.n_variations);
  EXPECT_TRUE(BitEqual(batch.mu, other.mu));
  EXPECT_TRUE(BitEqual(batch.sigma, other.sigma));
  EXPECT_TRUE(BitEqual(batch.threshold, other.threshold));
  EXPECT_TRUE(BitEqual(batch.score, other.score));
  EXPECT_EQ(batch.abnormal, other.abnormal);
  EXPECT_EQ(batch.anomaly_open, other.anomaly_open);
  EXPECT_EQ(batch.n_outliers, other.n_outliers);
  EXPECT_EQ(batch.n_communities, other.n_communities);
  EXPECT_EQ(batch.n_edges, other.n_edges);
  EXPECT_TRUE(BitEqual(batch.modularity, other.modularity));
  EXPECT_EQ(batch.entered, other.entered);
  EXPECT_EQ(batch.exited, other.exited);
  EXPECT_EQ(batch.movers, other.movers);
}

// `run` (stream or fleet) against the batch report over the same samples.
void ExpectSameAsBatch(const DetectionReport& report, const StreamRun& run) {
  // Round-for-round: n_r, the abnormal decision, and the exact mu/sigma the
  // decision was made against.
  ASSERT_EQ(run.n_variations.size(), report.rounds.size());
  for (size_t r = 0; r < report.rounds.size(); ++r) {
    SCOPED_TRACE("round " + std::to_string(r));
    EXPECT_EQ(run.n_variations[r], report.rounds[r].n_variations);
    EXPECT_EQ(run.abnormal[r], report.rounds[r].abnormal);
    EXPECT_TRUE(BitEqual(run.mu[r], report.rounds[r].mu));
    EXPECT_TRUE(BitEqual(run.sigma[r], report.rounds[r].sigma));
  }

  // Anomaly-for-anomaly. The stream cannot close an anomaly still open when
  // the data ends; the batch driver flushes it, so the stream may trail by
  // exactly that one.
  const size_t closed = run.anomalies.size();
  ASSERT_EQ(closed + (run.open_at_end ? 1 : 0), report.anomalies.size());
  for (size_t i = 0; i < closed; ++i) {
    ExpectAnomaliesIdentical(report.anomalies[i], run.anomalies[i], i);
  }

  // Record-for-record over the whole flight log, which holds every round.
  ASSERT_EQ(report.flight_log.size(), report.rounds.size());
  ASSERT_EQ(run.flight_log.size(), report.flight_log.size());
  for (size_t r = 0; r < report.flight_log.size(); ++r) {
    ExpectRecordsIdentical(report.flight_log[r], run.flight_log[r]);
  }
}

void ExpectEquivalent(const ts::MultivariateSeries& train,
                      const ts::MultivariateSeries& test,
                      const CadOptions& options) {
  CadDetector batch(options);
  {
    SCOPED_TRACE("stream vs batch, both warmed up");
    const DetectionReport report = batch.Detect(test, &train).ValueOrDie();
    ExpectSameAsBatch(report, RunStreaming(train, test, options));
  }
  {
    SCOPED_TRACE("fleet vs batch, both cold");
    const DetectionReport report = batch.Detect(test, nullptr).ValueOrDie();
    ExpectSameAsBatch(report, RunFleet(test, options));
  }
}

CadOptions BaseOptions() {
  CadOptions options;
  options.window = 40;
  options.step = 4;
  options.k = 3;
  options.tau = 0.55;
  options.theta = 0.9;
  return options;
}

TEST(EngineEquivalenceTest, DefaultRule) {
  const testing::SmallScenario scenario = testing::MakeSmallScenario();
  ExpectEquivalent(scenario.train, scenario.test, BaseOptions());
}

TEST(EngineEquivalenceTest, MinSigmaFloor) {
  const testing::SmallScenario scenario = testing::MakeSmallScenario();
  CadOptions options = BaseOptions();
  options.min_sigma = 0.25;
  ExpectEquivalent(scenario.train, scenario.test, options);
}

TEST(EngineEquivalenceTest, FixedXiRule) {
  const testing::SmallScenario scenario = testing::MakeSmallScenario();
  CadOptions options = BaseOptions();
  options.use_sigma_rule = false;
  options.fixed_xi = 2;
  ExpectEquivalent(scenario.train, scenario.test, options);
}

TEST(EngineEquivalenceTest, GlobalNormalizationAblation) {
  const testing::SmallScenario scenario = testing::MakeSmallScenario();
  CadOptions options = BaseOptions();
  options.rc_global_normalization = true;
  options.theta = 0.25;
  ExpectEquivalent(scenario.train, scenario.test, options);
}

TEST(EngineEquivalenceTest, LargerNetworkMoreCommunities) {
  const testing::SmallScenario scenario =
      testing::MakeSmallScenario(/*n_sensors=*/24, /*communities=*/4,
                                 /*train_len=*/700, /*test_len=*/1000,
                                 /*seed=*/1234);
  CadOptions options = BaseOptions();
  options.k = 5;
  ExpectEquivalent(scenario.train, scenario.test, options);
}

TEST(EngineEquivalenceTest, SpearmanCorrelation) {
  const testing::SmallScenario scenario = testing::MakeSmallScenario();
  CadOptions options = BaseOptions();
  options.use_spearman = true;
  ExpectEquivalent(scenario.train, scenario.test, options);
}

TEST(EngineEquivalenceTest, NonFiniteAndFlatlinedReadings) {
  // Bad input must give the same verdicts in every driver: one NaN, +Inf,
  // -Inf and an overflow-sized reading, plus a sensor stuck at one value for
  // 100 samples. Which anomalies that raises is not judged here, only that
  // batch, stream and fleet agree on every record.
  testing::SmallScenario scenario = testing::MakeSmallScenario();
  ts::MultivariateSeries& test = scenario.test;
  test.set_value(3, 100, std::numeric_limits<double>::quiet_NaN());
  test.set_value(5, 300, std::numeric_limits<double>::infinity());
  test.set_value(7, 301, -std::numeric_limits<double>::infinity());
  test.set_value(9, 500, 1e300);
  for (int t = 600; t < 700; ++t) test.set_value(1, t, 4.2);
  for (const bool spearman : {false, true}) {
    SCOPED_TRACE(spearman ? "Spearman" : "Pearson");
    CadOptions options = BaseOptions();
    options.use_spearman = spearman;
    ExpectEquivalent(scenario.train, test, options);
  }
}

TEST(EngineEquivalenceTest, TrailingPartialStep) {
  // (900 - 40) % 3 == 2: the last two samples close no round in any driver.
  const testing::SmallScenario scenario = testing::MakeSmallScenario();
  CadOptions options = BaseOptions();
  options.step = 3;
  options.flight_log_capacity = 512;  // holds all 287 rounds
  ASSERT_NE((scenario.test.length() - options.window) % options.step, 0);
  ExpectEquivalent(scenario.train, scenario.test, options);
}

}  // namespace
}  // namespace cad::core
