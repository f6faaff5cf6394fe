// Pipeline-level instrumentation tests: spans and metrics emitted by
// RoundProcessor / CadDetector / StreamingCad / the Detector NVI wrappers,
// recorded into private Registry/Tracer instances through CadOptions.
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/detector.h"
#include "common/rng.h"
#include "core/cad_detector.h"
#include "core/streaming.h"
#include "datasets/generator.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace cad {
namespace {

ts::MultivariateSeries MakeSeries(int n_sensors, int length, uint64_t seed) {
  Rng rng(seed);
  datasets::GeneratorOptions options;
  options.n_sensors = n_sensors;
  options.n_communities = 3;
  datasets::SensorNetworkGenerator generator(options, &rng);
  return generator.Generate(length, &rng);
}

core::CadOptions SmallOptions(obs::Registry* registry, obs::Tracer* tracer) {
  core::CadOptions options;
  options.window = 32;
  options.step = 8;
  options.k = 3;
  options.tau = 0.3;
  options.metrics_registry = registry;
  options.tracer = tracer;
  return options;
}

std::map<std::string, int> CountByName(const std::vector<obs::TraceEvent>& events) {
  std::map<std::string, int> counts;
  for (const obs::TraceEvent& event : events) counts[event.name]++;
  return counts;
}

TEST(InstrumentationTest, OneRoundSpanPerRoundTraceEntry) {
  obs::Registry registry;
  obs::Tracer tracer;
  tracer.Enable();
  const core::CadOptions options = SmallOptions(&registry, &tracer);

  const ts::MultivariateSeries history = MakeSeries(12, 200, 1);
  const ts::MultivariateSeries live = MakeSeries(12, 400, 2);
  const core::DetectionReport report =
      core::CadDetector(options).Detect(live, &history).ValueOrDie();
  ASSERT_FALSE(report.rounds.empty());

  const std::map<std::string, int> spans = CountByName(tracer.events());
  // Exactly one "round" span per RoundTrace entry; warm-up rounds are
  // labelled separately so they cannot inflate the count.
  EXPECT_EQ(spans.at("round"), static_cast<int>(report.rounds.size()));
  EXPECT_GT(spans.at("warmup_round"), 0);
  EXPECT_EQ(spans.at("warmup"), 1);
  EXPECT_EQ(spans.at("detect"), 1);

  // Every round (warm-up included) runs the four pipeline stages as nested
  // child spans.
  const int total_rounds = spans.at("round") + spans.at("warmup_round");
  EXPECT_EQ(spans.at("correlation"), total_rounds);
  EXPECT_EQ(spans.at("knn_graph"), total_rounds);
  EXPECT_EQ(spans.at("louvain"), total_rounds);
  EXPECT_EQ(spans.at("co_appearance"), total_rounds);
  for (const obs::TraceEvent& event : tracer.events()) {
    if (event.name == "correlation" || event.name == "knn_graph" ||
        event.name == "louvain" || event.name == "co_appearance") {
      EXPECT_GT(event.depth, 0) << event.name << " must nest under a round";
    }
  }

  // The private registry saw every round; the report carries its snapshot.
  const obs::CounterSample* rounds_total =
      report.telemetry.FindCounter("cad_rounds_total");
  ASSERT_NE(rounds_total, nullptr);
  EXPECT_EQ(rounds_total->value, static_cast<uint64_t>(total_rounds));
  const obs::HistogramSample* round_seconds =
      report.telemetry.FindHistogram("cad_round_seconds");
  ASSERT_NE(round_seconds, nullptr);
  EXPECT_EQ(round_seconds->count(), static_cast<uint64_t>(total_rounds));
  ASSERT_NE(report.telemetry.FindCounter("cad_tsg_edges_pruned"), nullptr);
}

TEST(InstrumentationTest, RoundLatencySummaryIsConsistent) {
  obs::Registry registry;
  const core::CadOptions options = SmallOptions(&registry, nullptr);
  const ts::MultivariateSeries live = MakeSeries(10, 400, 3);
  const core::DetectionReport report =
      core::CadDetector(options).Detect(live, nullptr).ValueOrDie();

  EXPECT_GT(report.round_latency.mean, 0.0);
  EXPECT_DOUBLE_EQ(report.seconds_per_round, report.round_latency.mean);
  EXPECT_LE(report.round_latency.p50, report.round_latency.p95);
  EXPECT_LE(report.round_latency.p95, report.round_latency.p99);
}

TEST(InstrumentationTest, MetricsStayOffGlobalRegistryWhenPrivate) {
  obs::Registry registry;
  const uint64_t global_before =
      obs::Registry::Global().counter("cad_rounds_total").value();
  const core::CadOptions options = SmallOptions(&registry, nullptr);
  const ts::MultivariateSeries live = MakeSeries(10, 300, 4);
  core::CadDetector(options).Detect(live, nullptr).ValueOrDie();
  EXPECT_EQ(obs::Registry::Global().counter("cad_rounds_total").value(),
            global_before);
  EXPECT_GT(registry.counter("cad_rounds_total").value(), 0u);
}

TEST(InstrumentationTest, StreamingCadRecordsSamplesAndRoundLatency) {
  obs::Registry registry;
  core::CadOptions options = SmallOptions(&registry, nullptr);
  const int n_sensors = 10;
  core::StreamingCad stream(n_sensors, options);
  const ts::MultivariateSeries live = MakeSeries(n_sensors, 200, 5);

  int events = 0;
  core::StreamEvent event;
  for (int t = 0; t < live.length(); ++t) {
    std::vector<double> sample(n_sensors);
    for (int i = 0; i < n_sensors; ++i) sample[i] = live.value(i, t);
    if (stream.Push(sample, &event).ValueOrDie()) {
      ++events;
      EXPECT_GE(event.round_seconds, 0.0);
    }
  }
  ASSERT_GT(events, 0);

  const obs::Snapshot snapshot = stream.TelemetrySnapshot();
  EXPECT_EQ(snapshot.FindCounter("cad_stream_samples_total")->value,
            static_cast<uint64_t>(live.length()));
  EXPECT_EQ(snapshot.FindCounter("cad_rounds_total")->value,
            static_cast<uint64_t>(events));
  EXPECT_EQ(snapshot.FindHistogram("cad_round_seconds")->count(),
            static_cast<uint64_t>(events));
}

// Minimal detector to exercise the non-virtual Fit/Score wrappers.
class FakeDetector : public baselines::Detector {
 public:
  std::string name() const override { return "Fake"; }
  bool deterministic() const override { return true; }

 protected:
  Status FitImpl(const ts::MultivariateSeries&) override {
    return Status::Ok();
  }
  Result<std::vector<double>> ScoreImpl(
      const ts::MultivariateSeries& test) override {
    return std::vector<double>(test.length(), 0.0);
  }
};

TEST(InstrumentationTest, DetectorNviWrapsFitAndScoreInSpans) {
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.Clear();
  tracer.Enable();
  const uint64_t fit_before =
      obs::Registry::Global().counter("cad_detector_fit_total").value();

  const ts::MultivariateSeries series = MakeSeries(6, 100, 6);
  FakeDetector detector;
  ASSERT_TRUE(detector.Fit(series).ok());
  ASSERT_TRUE(detector.Score(series).ok());
  tracer.Disable();

  EXPECT_EQ(obs::Registry::Global().counter("cad_detector_fit_total").value(),
            fit_before + 1);

  bool saw_fit = false, saw_score = false;
  for (const obs::TraceEvent& event : tracer.events()) {
    const bool is_fit = event.name == "fit";
    const bool is_score = event.name == "score";
    if (!is_fit && !is_score) continue;
    (is_fit ? saw_fit : saw_score) = true;
    ASSERT_EQ(event.args.size(), 1u);
    EXPECT_EQ(event.args[0].first, "method");
    EXPECT_EQ(event.args[0].second, "Fake");
  }
  EXPECT_TRUE(saw_fit);
  EXPECT_TRUE(saw_score);
  tracer.Clear();
}

}  // namespace
}  // namespace cad
