#include "core/cad_detector.h"

#include <algorithm>
#include <utility>

#include "check/check.h"
#include "check/validators.h"
#include "common/stopwatch.h"
#include "core/engine.h"
#include "obs/trace.h"

namespace cad::core {

namespace {

// Exact empirical quantile of the measured per-round latencies (nearest-rank
// on the sorted sample; unlike the registry histogram this has no bucket
// resolution limit).
double SampleQuantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

RoundLatencySummary SummarizeRoundLatencies(std::vector<double> seconds) {
  RoundLatencySummary summary;
  if (seconds.empty()) return summary;
  double sum = 0.0;
  for (double s : seconds) sum += s;
  summary.mean = sum / static_cast<double>(seconds.size());
  std::sort(seconds.begin(), seconds.end());
  summary.p50 = SampleQuantile(seconds, 0.50);
  summary.p95 = SampleQuantile(seconds, 0.95);
  summary.p99 = SampleQuantile(seconds, 0.99);
  return summary;
}

}  // namespace

std::optional<obs::DecisionProvenance> ExplainRound(
    const DetectionReport& report, int round) {
  const obs::DecisionRecord* record = nullptr;
  const obs::DecisionRecord* previous = nullptr;
  for (const obs::DecisionRecord& candidate : report.flight_log) {
    if (candidate.round == round) record = &candidate;
    if (candidate.round == round - 1) previous = &candidate;
  }
  if (record == nullptr) return std::nullopt;
  return obs::MakeProvenance(*record, previous);
}

Result<DetectionReport> CadDetector::Detect(
    const ts::MultivariateSeries& series,
    const ts::MultivariateSeries* historical) const {
  CAD_RETURN_NOT_OK(options_.Validate(series.length()));
  if (historical != nullptr) {
    CAD_RETURN_NOT_OK(options_.Validate(historical->length()));
    if (historical->n_sensors() != series.n_sensors()) {
      return Status::InvalidArgument(
          "historical series has a different sensor count");
    }
  }

  const int n = series.n_sensors();
  DetectionReport report;

  obs::Tracer& tracer = obs::ResolveTracer(options_.tracer);
  obs::Registry& registry = obs::ResolveRegistry(options_.metrics_registry);

  DetectionEngine engine(n, options_);

  // --- Warm-up (Algorithm 2, WarmUp): outlier detection only, no anomaly
  // decisions; every n_r seeds mu and sigma.
  if (historical != nullptr) {
    ScopedTimer warmup_timer(&report.warmup_seconds);
    CAD_RETURN_NOT_OK(engine.WarmUp(*historical));
  }

  // --- Detection (Algorithm 2, main loop). Engine state starts with
  // O_0 = empty, exactly as line 2 of the pseudo-code.
  report.point_scores.assign(series.length(), 0.0);
  report.point_labels.assign(series.length(), 0);
  report.sensor_labels.assign(n, 0);

  // Time-domain footprint of a round: the trailing fraction of its window
  // (cad_options.h window_mark_fraction).
  const int marked = std::max(
      options_.step,
      static_cast<int>(options_.window * options_.window_mark_fraction));
  std::vector<double> round_seconds;
  std::vector<double> sample(static_cast<size_t>(n));
  {
    // Scoped so the timer lands in `report` before it moves into the Result.
    obs::Span detect_span(tracer, "detect");
    ScopedTimer detect_timer(&report.detect_seconds);
    for (int t = 0; t < series.length(); ++t) {
      for (int i = 0; i < n; ++i) sample[i] = series.value(i, t);
      Stopwatch round_watch;
      const std::optional<EngineRound> round = engine.Push(sample);
      if (!round.has_value()) continue;

      RoundTrace trace;
      trace.round = round->round;
      trace.start_time = round->window_start;
      trace.n_variations = round->output->n_variations;
      trace.n_outliers = static_cast<int>(round->output->outliers.size());
      trace.n_communities = round->output->n_communities;
      trace.n_edges = round->output->n_edges;
      trace.mu = round->mu;
      trace.sigma = round->sigma;
      trace.abnormal = round->abnormal;

      const int slice_begin =
          round->round == 0
              ? round->window_start
              : std::max(round->window_start, round->window_end - marked);
      for (int p = slice_begin; p < round->window_end; ++p) {
        report.point_scores[p] = std::max(report.point_scores[p], round->score);
        if (round->abnormal) report.point_labels[p] = 1;
      }

      report.rounds.push_back(trace);
      round_seconds.push_back(round_watch.ElapsedSeconds());
    }
    engine.Finish();
  }

  report.anomalies = engine.TakeAnomalies();
  for (const Anomaly& anomaly : report.anomalies) {
    for (int v : anomaly.sensors) report.sensor_labels[v] = 1;
  }

  report.round_latency = SummarizeRoundLatencies(std::move(round_seconds));
  report.seconds_per_round = report.round_latency.mean;
  report.telemetry = registry.TakeSnapshot();
  report.flight_log = engine.recorder().Records();
  // Stage-boundary contract (CAD_CHECK_LEVEL=full only): the 3-sigma state
  // and the assembled report must be structurally sound before they leave
  // the detector.
  CAD_VALIDATE(check::ValidateRunningStats(engine.policy().stats(),
                                           options_.metrics_registry));
  CAD_VALIDATE(check::ValidateReport(report, n, options_.metrics_registry));
  return report;
}

}  // namespace cad::core
