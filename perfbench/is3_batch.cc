// is3_batch: the paper's offline evaluation mode on one thread.
//
// Input: the registry profile IS-3 (406 sensors, k = 30, recommended w = 86,
// s = 1) materialized by datasets::MakeDataset with its seed taken from
// --seed; warm-up runs on the first kTrainLength samples of the train split.
//
// Run: the test split is judged in kSegments consecutive stored series, each
// one core::CadDetector::Detect call with warm-up on the train split. A
// segment overlaps the previous one by w - 1 samples, so every window of the
// test split is judged exactly once. A pass judges all segments; a run makes
// --seconds / kNominalPassSeconds passes (at least one). The first pass is
// scored; every later pass must return the same verdicts. Each round is one
// verdict; its latency is the engine's own round time, read in round order
// from the report's flight log (whose capacity is raised to hold every
// round; the recorder is on in every call either way). The latency and
// throughput metrics are taken over the run's quiet stretches (blocks of
// kQuietBlock rounds, see QuietLatencies), and the thread re-picks its CPU
// (QuietCore) before every call, outside the timed call. Set-up is each
// call's warm-up time. The "scrape" renders a call's telemetry snapshot as
// the Prometheus text the batch tools write.
#include <cmath>
#include <cstdio>
#include <vector>

#include "core/cad_detector.h"
#include "datasets/registry.h"
#include "harness.h"
#include "obs/export.h"

namespace perfbench {
namespace {

namespace datasets = cad::datasets;

constexpr int kTrainLength = 300;
// Six calls of ~4 s each: short enough that a call that lands on a slow CPU
// is one sixth of the run, and the next call re-picks.
constexpr int kSegments = 6;
constexpr int kScrapesPerDetect = 5;
// Seconds one pass takes on a 4-vCPU x86 VM; --seconds / this many passes
// (at least one) make a run.
constexpr double kNominalPassSeconds = 25.0;
// About 0.2 s of rounds: much shorter than the host's slow bursts.
constexpr int kQuietBlock = 32;

}  // namespace

Result RunIs3Batch(const Args& args) {
  Result result;
  SpanLog spans(args.trace);
  LayerMetrics layers;

  const Clock::time_point gen_start = Clock::now();
  datasets::DatasetProfile profile = datasets::ProfileByName("IS-3").value();
  profile.seed = args.seed * 0x9e3779b97f4a7c15ull + profile.seed;
  if (args.short_mode) {
    profile.n_sensors = 64;
    profile.n_communities = 4;
    profile.k = 10;
  }
  const datasets::LabeledDataset dataset = datasets::MakeDataset(profile);
  const cad::ts::MultivariateSeries train =
      dataset.train.Slice(0, kTrainLength).value();
  layers.generate_s = SecondsBetween(gen_start, Clock::now());
  const cad::core::CadOptions base = dataset.recommended;
  CAD_CHECK(base.window == 86 && base.step == 1 &&
                (args.short_mode || base.k == 30),
            "IS-3 recommended options moved: the workload fixes w=86 s=1 k=30");
  const int n = dataset.test.n_sensors();
  const int w = base.window;
  const int length = dataset.test.length();
  const int expected_rounds = length - w + 1;
  const int warmup_rounds = kTrainLength - w + 1;
  // Segment s judges the rounds [first_round(s), first_round(s + 1)).
  auto first_round = [&](int s) { return expected_rounds * s / kSegments; };
  std::vector<cad::ts::MultivariateSeries> segments;
  for (int s = 0; s < kSegments; ++s) {
    segments.push_back(
        dataset.test.Slice(first_round(s), first_round(s + 1) - first_round(s) + w - 1)
            .value());
  }

  // ---- timed: the passes over the segments.
  std::vector<double> setup_seconds, latencies, scrape_seconds;
  size_t metrics_text_bytes = 0;
  std::vector<int> round_ends;          // pass 0, every round of the split
  std::vector<uint8_t> abnormal, first_abnormal;
  std::vector<cad::obs::Snapshot> first_telemetry;  // pass 0, per call
  double first_detect_seconds = 0.0;
  double first_round_seconds = 0.0;  // pass 0: the rounds' own latencies, summed
  const int passes =
      args.short_mode
          ? 2
          : std::max(1, static_cast<int>(std::lround(args.seconds / kNominalPassSeconds)));
  QuietCore core;
  const Clock::time_point loop_start = Clock::now();
  for (int pass = 0; pass < passes && result.correct; ++pass) {
    abnormal.clear();
    for (int s = 0; s < kSegments; ++s) {
      core.Pick();
      const int rounds = first_round(s + 1) - first_round(s);
      cad::obs::Registry registry;
      cad::core::CadOptions options = base;
      options.metrics_registry = &registry;
      options.flight_log_capacity = rounds;
      const cad::core::CadDetector detector(options);
      result.attempted += rounds;
      const Clock::time_point start = Clock::now();
      cad::Result<cad::core::DetectionReport> detected =
          detector.Detect(segments[static_cast<size_t>(s)], &train);
      const Clock::time_point end = Clock::now();
      spans.Record("driver.detect", start, end, pass * kSegments + s);
      if (!detected.ok()) {
        result.failed += rounds;
        result.Check(false, "Detect failed: " + detected.status().ToString());
        break;
      }
      const cad::core::DetectionReport report = std::move(detected).value();
      setup_seconds.push_back(report.warmup_seconds);
      for (int k = 0; k < kScrapesPerDetect; ++k) {
        const Clock::time_point s0 = Clock::now();
        const std::string body = cad::obs::ToPrometheusText(report.telemetry);
        const Clock::time_point s1 = Clock::now();
        scrape_seconds.push_back(SecondsBetween(s0, s1));
        metrics_text_bytes = std::max(metrics_text_bytes, body.size());
        spans.Record("obs.metrics_text", s0, s1, pass * kSegments + s);
      }

      result.Check(static_cast<int>(report.rounds.size()) == rounds,
                   "segment " + std::to_string(s) + ": expected " + std::to_string(rounds) +
                       " rounds, got " + std::to_string(report.rounds.size()));
      result.Check(CounterValue(report.telemetry, "cad_rounds_total") == rounds + warmup_rounds,
                   "cad_rounds_total disagrees with warm-up plus detection rounds");
      int abnormal_rounds = 0;
      for (const cad::core::RoundTrace& trace : report.rounds) {
        abnormal.push_back(trace.abnormal ? 1 : 0);
        abnormal_rounds += trace.abnormal;
        if (pass == 0) round_ends.push_back(first_round(s) + trace.start_time + w);
      }
      result.Check(CounterValue(report.telemetry, "cad_abnormal_rounds_total") ==
                       abnormal_rounds,
                   "cad_abnormal_rounds_total disagrees with the round traces");
      for (size_t r = 0; r < report.flight_log.size(); ++r) {
        result.Check(report.flight_log[r].round == static_cast<int>(r),
                     "the flight log does not hold every round in order");
        latencies.push_back(report.flight_log[r].round_seconds);
      }
      result.Check(static_cast<int>(report.flight_log.size()) == rounds,
                   "the flight log does not hold every round");
      if (pass == 0) {
        first_telemetry.push_back(report.telemetry);
        first_detect_seconds += report.detect_seconds;
        first_round_seconds += report.seconds_per_round * rounds;
      }
    }
    if (pass == 0) {
      first_abnormal = abnormal;
    } else {
      result.Check(abnormal == first_abnormal, "a repeated pass returned different verdicts");
    }
  }
  const double loop_seconds = SecondsBetween(loop_start, Clock::now());
  const size_t timed_spans = spans.size();
  if (!result.correct) return result;
  // Every window of the split judged once, in order.
  bool in_order = static_cast<int>(round_ends.size()) == expected_rounds;
  for (size_t r = 0; in_order && r < round_ends.size(); ++r) {
    in_order = round_ends[r] == static_cast<int>(r) + w;
  }
  result.Check(in_order, "the segments do not judge every window of the split once");
  Scores scores;
  scores.Add(LabelsFromRounds(round_ends, first_abnormal, base, length), dataset.labels);
  result.Check(scores.f1_pa() > 0.0, "the verdicts hit no injected anomaly");

  if (!args.trace) {
    // The run's rounds in time order, so a call judged wholly on a slow CPU
    // is measured against the run's quiet level, not its own.
    const std::vector<double> kept = QuietLatencies(latencies, kQuietBlock);
    double quiet_seconds = 0.0;
    for (double seconds : kept) quiet_seconds += seconds;
    EndToEnd e2e;
    e2e.verdict_p50_s = Median(kept);
    e2e.verdict_p95_s = Quantile(kept, 0.95);
    e2e.verdicts = static_cast<int64_t>(kept.size());
    // Every round of a quiet stretch judges one test sample (s = 1).
    e2e.samples = static_cast<int64_t>(kept.size());
    e2e.samples_per_s = static_cast<double>(kept.size()) / quiet_seconds;
    e2e.scores = scores;
    e2e.setup_seconds = std::move(setup_seconds);
    e2e.AddTo(&result);
    std::printf("# is3_batch: %d sensors, w=%d s=%d k=%d, %d passes x %d Detect calls, "
                "%d verdicts a pass, %zu in quiet stretches, %d CPU moves; first pass: "
                "%.4f samples/s\n",
                n, w, base.step, base.k, passes, kSegments, expected_rounds, kept.size(),
                core.moves(), expected_rounds / first_detect_seconds);
    return result;
  }

  // ---- traced: replay runs of adjacent rounds through the stage calls; the
  // engine's counters of the first pass.
  constexpr int kReplayRuns = 4;
  constexpr int kReplayLength = 16;
  StageReplay replay(n, base);
  for (int run = 0; run < kReplayRuns; ++run) {
    const int first = (expected_rounds - kReplayLength) * (2 * run + 1) / (2 * kReplayRuns);
    replay.Reset();
    for (int r = first; r < first + kReplayLength; ++r) {
      replay.Replay(dataset.test, r * base.step, &spans, r);
    }
  }
  layers.SetStages(replay.times());
  // The test rounds' mean (DetectionReport::seconds_per_round, the engine's
  // cad_round_seconds observations without the warm-up rounds), and what
  // Detect spent per round beyond them.
  layers.round_ms = first_round_seconds / expected_rounds * 1e3;
  layers.driver_ms = (first_detect_seconds - first_round_seconds) / expected_rounds * 1e3;
  double edges = 0.0, rounds_total = 0.0;
  for (const cad::obs::Snapshot& telemetry : first_telemetry) {
    edges += CounterValue(telemetry, "cad_tsg_edges_kept");
    rounds_total += CounterValue(telemetry, "cad_rounds_total");
  }
  layers.tsg_edges = edges / rounds_total;
  layers.window_copy_us = WindowCopyMicros(n, w, base.step, &spans);
  const cad::obs::GaugeSample* allocs = first_telemetry.back().FindGauge("cad_round_allocs");
  layers.allocs_per_round = allocs != nullptr ? allocs->value : 0.0;
  int abnormal_rounds = 0;
  for (uint8_t a : first_abnormal) abnormal_rounds += a;
  layers.abnormal_round_share = static_cast<double>(abnormal_rounds) / expected_rounds;
  const double stage_sum = layers.correlation_ms + layers.knn_ms + layers.louvain_ms +
                           layers.coappearance_ms;
  layers.stage_sum_share = layers.round_ms > 0 ? stage_sum / layers.round_ms : 0.0;
  layers.metrics_text_ms = Median(scrape_seconds) * 1e3;
  layers.metrics_text_mb = static_cast<double>(metrics_text_bytes) / 1e6;
  layers.trace_overhead_pct =
      100.0 * static_cast<double>(timed_spans) * SpanLog::RecordCostSeconds() / loop_seconds;
  PrintEngineStages(cad::obs::Snapshot{}, first_telemetry.front());
  layers.AddTo(&result);
  spans.WriteJsonl(args.trace_out);
  return result;
}

}  // namespace perfbench
