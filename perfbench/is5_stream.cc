// is5_stream: the paper's largest plant judged online, closed loop, one
// thread.
//
// Input: the registry profile IS-5 (1,266 sensors in 20 communities, k = 50,
// the registry's recommended w = 73, s = 1) generated from --seed, with
// correlation-break-led anomalies injected into the test split. The splits
// are shortened: warm-up uses a 100-sample train split, and the test split
// holds w + kNominalRoundsPerSecond * --seconds samples, so a run judges a
// fixed amount of data (the F1 scores are deterministic per seed) that takes
// about --seconds on a 4-vCPU x86 VM.
//
// Run: one core::StreamingCad with product-default options (private metrics
// registry) is built and warmed up kSetupRepeats times; the last one then
// receives the test split one Push at a time. A Push that closes a round is
// one verdict. After every verdict, outside the timed Push, the harness
// renders the stream's /metrics body and reads its health (the scrape).
// The latency and throughput metrics are taken over the run's quiet
// stretches (blocks of kQuietBlock verdicts, see QuietLatencies), and the
// thread re-picks its CPU (QuietCore) before each set-up and every
// kRepickVerdicts verdicts, outside the timed calls.
#include <cstdio>
#include <vector>

#include "common/alloc_tracker.h"
#include "core/streaming.h"
#include "datasets/anomaly_injector.h"
#include "datasets/generator.h"
#include "datasets/registry.h"
#include "harness.h"
#include "obs/export.h"

namespace perfbench {
namespace {

namespace datasets = cad::datasets;

constexpr double kNominalRoundsPerSecond = 20.0;
constexpr int kTrainLength = 100;
constexpr int kSetupRepeats = 5;
// About 0.2 s of verdicts: much shorter than the host's slow bursts.
constexpr int kQuietBlock = 4;
// About 2 s of verdicts.
constexpr int kRepickVerdicts = 40;
// Rounds before the allocation audit starts (capacities still growing).
constexpr int kAllocWarmRounds = 16;

struct Input {
  cad::core::CadOptions options;
  int n_sensors = 0;
  cad::ts::MultivariateSeries train;
  cad::ts::MultivariateSeries test;
  cad::eval::Labels labels;
  std::vector<double> rows;  // test split, sample-major
};

Input MakeInput(const Args& args) {
  datasets::DatasetProfile profile = datasets::ProfileByName("IS-5").value();
  // The registry's recommended options depend only on the profile's split
  // lengths and k, so a one-sensor-per-community instance yields them.
  datasets::DatasetProfile tiny = profile;
  tiny.n_sensors = profile.n_communities;
  Input input;
  input.options = datasets::MakeDataset(tiny).recommended;
  CAD_CHECK(input.options.window == 73 && input.options.step == 1 &&
                input.options.k == 50,
            "IS-5 recommended options moved: the workload fixes w=73 s=1 k=50");

  if (args.short_mode) {
    profile.n_sensors = 128;
    profile.n_communities = 8;
    input.options.k = 10;
  }
  const int w = input.options.window;
  const int test_length =
      args.short_mode
          ? 4 * w + 8
          : w + static_cast<int>(kNominalRoundsPerSecond * args.seconds);
  input.n_sensors = profile.n_sensors;

  cad::Rng rng(args.seed * 0x9e3779b97f4a7c15ull + profile.seed);
  datasets::GeneratorOptions gen;
  gen.n_sensors = profile.n_sensors;
  gen.n_communities = profile.n_communities;
  gen.noise_std = profile.noise_std;
  gen.baseline_drift_std = profile.drift_std;
  gen.seasonal_period = profile.seasonal_period;
  datasets::SensorNetworkGenerator generator(gen, &rng);
  input.train = generator.Generate(kTrainLength, &rng);
  input.test = generator.Generate(test_length, &rng);
  // Events of one to two windows, at least a window apart — as many as fit.
  const int n_events = std::max(1, (test_length - w) / (3 * w + 1));
  const std::vector<datasets::AnomalyEvent> events = datasets::PlanEvents(
      generator, test_length, n_events, w, 2 * w - 1, w, &rng);
  input.labels = datasets::InjectAnomalies(generator, events, &input.test, &rng);
  input.rows = SampleMajor(input.test);
  return input;
}

}  // namespace

Result RunIs5Stream(const Args& args) {
  Result result;
  SpanLog spans(args.trace);
  LayerMetrics layers;

  const Clock::time_point gen_start = Clock::now();
  const Input input = MakeInput(args);
  layers.generate_s = SecondsBetween(gen_start, Clock::now());
  const int n = input.n_sensors;
  const int w = input.options.window;
  const int length = input.test.length();

  // ---- set-up: construction + WarmUp, repeated; the last one streams.
  std::vector<double> setup_seconds;
  std::unique_ptr<cad::obs::Registry> registry;
  std::unique_ptr<cad::core::StreamingCad> stream;
  QuietCore core;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    core.Pick();
    stream.reset();
    registry = std::make_unique<cad::obs::Registry>();
    cad::core::CadOptions options = input.options;
    options.metrics_registry = registry.get();
    const Clock::time_point start = Clock::now();
    stream = std::make_unique<cad::core::StreamingCad>(n, options);
    const cad::Status warm = stream->WarmUp(input.train);
    const Clock::time_point end = Clock::now();
    setup_seconds.push_back(SecondsBetween(start, end));
    spans.Record("driver.setup", start, end, rep);
    result.Check(warm.ok(), "WarmUp failed: " + warm.ToString());
  }
  const cad::obs::Snapshot before = registry->TakeSnapshot();

  // ---- timed: push the test split; every round-closing Push is a verdict.
  std::vector<double> verdict_seconds;
  std::vector<double> metrics_text_seconds;
  std::vector<double> healthz_seconds;
  std::vector<int> round_ends;
  std::vector<uint8_t> abnormal;
  std::vector<int> event_rounds;
  int64_t steady_allocs = 0;
  int64_t steady_rounds = 0;
  double push_seconds = 0.0;
  size_t metrics_text_bytes = 0;
  int health_rounds = 0;
  verdict_seconds.reserve(length);
  // Traced runs replay kReplayRuns runs of adjacent rounds through the stage
  // calls, each round right after the driver judged it, so the replay and
  // the round it is compared with see the same machine state.
  constexpr int kReplayRuns = 4;
  const int replay_length = args.short_mode ? 4 : 6;
  const int expected_rounds = length - w + 1;
  auto replay_run_start = [&](int run) {
    return (expected_rounds - replay_length) * (2 * run + 1) / (2 * kReplayRuns);
  };
  StageReplay replay(n, input.options);
  std::vector<double> replayed_round_seconds;
  double replay_seconds = 0.0;
  size_t replay_spans = 0;
  int replay_run = 0;
  cad::core::StreamEvent event;
  const Clock::time_point loop_start = Clock::now();
  for (int t = 0; t < length; ++t) {
    const std::span<const double> sample(input.rows.data() + static_cast<size_t>(t) * n,
                                         static_cast<size_t>(n));
    const int64_t allocs_before = cad::common::ThreadAllocCount();
    const Clock::time_point start = Clock::now();
    const cad::Result<bool> pushed = stream->Push(sample, &event);
    const Clock::time_point end = Clock::now();
    const int64_t allocs = cad::common::ThreadAllocCount() - allocs_before;
    push_seconds += SecondsBetween(start, end);
    ++result.attempted;
    if (!pushed.ok()) {
      ++result.failed;
      continue;
    }
    if (!pushed.value()) continue;
    verdict_seconds.push_back(SecondsBetween(start, end));
    spans.Record("driver.push", start, end, event.round);
    round_ends.push_back(event.time_index + 1);
    abnormal.push_back(event.abnormal ? 1 : 0);
    event_rounds.push_back(event.round);
    if (static_cast<int>(round_ends.size()) > kAllocWarmRounds) {
      steady_allocs += allocs;
      ++steady_rounds;
    }
    // The scrape: what /metrics and /healthz would serve for this stream.
    const Clock::time_point s0 = Clock::now();
    const std::string body = cad::obs::ToPrometheusText(stream->TelemetrySnapshot());
    const Clock::time_point s1 = Clock::now();
    const cad::core::StreamHealth health = stream->Health();
    const Clock::time_point s2 = Clock::now();
    metrics_text_bytes = std::max(metrics_text_bytes, body.size());
    metrics_text_seconds.push_back(SecondsBetween(s0, s1));
    healthz_seconds.push_back(SecondsBetween(s1, s2));
    spans.Record("obs.metrics_text", s0, s1, event.round);
    spans.Record("obs.healthz", s1, s2, event.round);
    health_rounds = health.rounds;
    if (round_ends.size() % kRepickVerdicts == 0) core.Pick();

    const int r = event.round;
    if (args.trace && replay_run < kReplayRuns && r >= replay_run_start(replay_run)) {
      const Clock::time_point r0 = Clock::now();
      const size_t spans_before = spans.size();
      if (r == replay_run_start(replay_run)) replay.Reset();
      replay.Replay(input.test, event.time_index + 1 - w, &spans, r);
      replayed_round_seconds.push_back(event.round_seconds);
      if (r + 1 == replay_run_start(replay_run) + replay_length) ++replay_run;
      replay_spans += spans.size() - spans_before;
      replay_seconds += SecondsBetween(r0, Clock::now());
    }
  }
  const double loop_seconds = SecondsBetween(loop_start, Clock::now()) - replay_seconds;
  const size_t timed_spans = spans.size() - replay_spans;
  const cad::obs::Snapshot after = registry->TakeSnapshot();

  // ---- checks.
  const int rounds = static_cast<int>(round_ends.size());
  result.Check(rounds == length - w + 1,
               "expected " + std::to_string(length - w + 1) + " verdicts, got " +
                   std::to_string(rounds));
  const double counted_rounds = CounterValue(after, "cad_rounds_total") -
                                CounterValue(before, "cad_rounds_total");
  result.Check(counted_rounds == rounds, "cad_rounds_total disagrees with the verdicts");
  result.Check(health_rounds == rounds, "the health view disagrees with the verdicts");
  int abnormal_rounds = 0;
  for (uint8_t a : abnormal) abnormal_rounds += a;
  result.Check(CounterValue(after, "cad_abnormal_rounds_total") -
                       CounterValue(before, "cad_abnormal_rounds_total") ==
                   abnormal_rounds,
               "cad_abnormal_rounds_total disagrees with the verdicts");
  // Every closed anomaly is a maximal run of abnormal verdicts.
  for (const cad::core::Anomaly& anomaly : stream->anomalies()) {
    bool ok = anomaly.first_round >= 0 && anomaly.last_round < rounds &&
              anomaly.first_round <= anomaly.last_round &&
              (anomaly.first_round == 0 || !abnormal[anomaly.first_round - 1]) &&
              (anomaly.last_round + 1 >= rounds || !abnormal[anomaly.last_round + 1]);
    for (int r = anomaly.first_round; ok && r <= anomaly.last_round; ++r) {
      ok = abnormal[r] != 0 && event_rounds[r] == r;
    }
    result.Check(ok, "anomaly [" + std::to_string(anomaly.first_round) + ", " +
                         std::to_string(anomaly.last_round) +
                         "] is not a run of abnormal verdicts");
  }
  EndToEnd e2e;
  e2e.scores.Add(LabelsFromRounds(round_ends, abnormal, input.options, length), input.labels);
  result.Check(e2e.scores.f1_pa() > 0.0, "the verdicts hit no injected anomaly");

  if (!args.trace) {
    const std::vector<double> quiet = QuietLatencies(verdict_seconds, kQuietBlock);
    double quiet_seconds = 0.0;
    for (double seconds : quiet) quiet_seconds += seconds;
    e2e.verdict_p50_s = Median(quiet);
    e2e.verdict_p95_s = Quantile(quiet, 0.95);
    e2e.verdicts = static_cast<int64_t>(quiet.size());
    // Every Push of a quiet stretch judges one test sample.
    e2e.samples_per_s = static_cast<double>(quiet.size()) / quiet_seconds;
    e2e.samples = static_cast<int64_t>(quiet.size());
    e2e.setup_seconds = std::move(setup_seconds);
    e2e.AddTo(&result);
    std::printf("# is5_stream: %d sensors, w=%d s=%d k=%d, %d test samples, %d verdicts, "
                "%zu in quiet stretches, %d CPU moves; whole run: p50 %.4f ms p95 %.4f ms, "
                "%.4f samples/s\n",
                n, w, input.options.step, input.options.k, length, rounds, quiet.size(),
                core.moves(), Median(verdict_seconds) * 1e3,
                Quantile(verdict_seconds, 0.95) * 1e3, length / push_seconds);
    return result;
  }

  // ---- traced: per-layer metrics.
  layers.SetStages(replay.times());
  layers.round_ms = HistogramDeltaMean(before, after, "cad_round_seconds") * 1e3;
  layers.driver_ms = Mean(verdict_seconds) * 1e3 - layers.round_ms;
  layers.tsg_edges = (CounterValue(after, "cad_tsg_edges_kept") -
                      CounterValue(before, "cad_tsg_edges_kept")) / rounds;
  layers.window_copy_us = WindowCopyMicros(n, w, input.options.step, &spans);
  layers.allocs_per_round =
      steady_rounds > 0 ? static_cast<double>(steady_allocs) / steady_rounds : 0.0;
  layers.abnormal_round_share = static_cast<double>(abnormal_rounds) / rounds;
  const double stage_sum = layers.correlation_ms + layers.knn_ms + layers.louvain_ms +
                           layers.coappearance_ms;
  // Against the driver's own latency of the very rounds replayed (window
  // copy + Algorithm 1 + decision), not the run-long mean: the two are
  // measured seconds apart, so machine drift cannot push them apart.
  const double replayed_round_ms = Median(replayed_round_seconds) * 1e3;
  layers.stage_sum_share = replayed_round_ms > 0 ? stage_sum / replayed_round_ms : 0.0;
  if (!args.short_mode) {
    result.Check(std::abs(layers.stage_sum_share - 1.0) <= kStageSumTolerance,
                 "replayed stages sum to " + std::to_string(layers.stage_sum_share) +
                     " of the replayed rounds' latency (tolerance " +
                     std::to_string(kStageSumTolerance) + ")");
  }
  layers.metrics_text_ms = Median(metrics_text_seconds) * 1e3;
  layers.metrics_text_mb = static_cast<double>(metrics_text_bytes) / 1e6;
  layers.healthz_ms = Median(healthz_seconds) * 1e3;
  layers.trace_overhead_pct =
      100.0 * static_cast<double>(timed_spans) * SpanLog::RecordCostSeconds() / loop_seconds;
  PrintEngineStages(before, after);
  layers.AddTo(&result);
  spans.WriteJsonl(args.trace_out);
  return result;
}

}  // namespace perfbench
