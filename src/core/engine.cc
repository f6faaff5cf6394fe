#include "core/engine.h"

#include <algorithm>
#include <cmath>
#include <fstream>

#include "check/check.h"
#include "check/validators.h"
#include "common/alloc_tracker.h"
#include "obs/trace.h"

namespace cad::core {

DecisionPolicy::Decision DecisionPolicy::Judge(
    int round, int n_variations) const CAD_REALTIME {
  Decision decision;
  decision.mu = stats_.mean();
  decision.sigma = stats_.stddev();
  if (round <= 0 || round < burn_in_ || stats_.count() == 0) return decision;
  const double deviation = std::abs(n_variations - decision.mu);
  if (options_.use_sigma_rule) {
    // A zero sigma would make the >= comparison fire on every round
    // including n_r == mu; the tiny floor keeps the faithful "any deviation
    // from mu is abnormal" semantics in that degenerate case.
    const double sigma = std::max(decision.sigma, options_.min_sigma);
    const double threshold = std::max(options_.eta * sigma, 1e-9);
    decision.threshold = threshold;
    decision.abnormal = deviation >= threshold;
    decision.score = std::min(1.0, 0.5 * deviation / threshold);
  } else {
    decision.threshold = options_.fixed_xi;
    decision.abnormal = n_variations >= options_.fixed_xi;
    decision.score = std::min(
        1.0, 0.5 * n_variations / static_cast<double>(options_.fixed_xi));
  }
  return decision;
}

void AnomalyAssembler::Observe(
    int round, bool abnormal, const RoundOutput& out, int window_start_time,
    int window_end_time, const CoAppearanceTracker& tracker)
    CAD_REALTIME_AUDITED {
  if (abnormal) {
    if (open_first_round_ < 0) {
      open_first_round_ = round;
      open_start_time_ = window_start_time;
      open_detection_time_ = window_end_time - 1;
    }
    // Candidates are the vertices newly turned outlier: pre-existing
    // outliers are background isolates, not sensors this anomaly affected.
    for (int v : out.entered) {
      if (!open_sensor_flags_[v]) {
        open_sensor_flags_[v] = 1;
        // cad-lint: allow(CL007) bounded by n_sensors, capacity retained across anomalies (engine_alloc_test proves 0 steady-state allocs)
        open_sensors_.push_back(v);
      }
    }
    // cad-lint: allow(CL007) same bounded capacity-retained buffer as open_sensors_ above
    for (int v : out.entered_movers) open_movers_.push_back(v);
  } else if (open_first_round_ >= 0) {
    Close(last_round_, prev_window_end_, tracker);
  }
  last_round_ = round;
  prev_window_end_ = window_end_time;
}

void AnomalyAssembler::Finish(const CoAppearanceTracker& tracker) {
  if (open_first_round_ >= 0) Close(last_round_, prev_window_end_, tracker);
}

void AnomalyAssembler::Close(int last_round, int end_time,
                             const CoAppearanceTracker& tracker)
    CAD_REALTIME_AUDITED {
  Anomaly anomaly;
  // Attribution (V_Z): prefer vertices that moved communities themselves
  // (Definition 2) over peers merely abandoned by defectors; then keep the
  // ones whose RC is still depressed at close time — defectors stay low,
  // grazed peers have already recovered (cad_options.h).
  const std::vector<int>& candidates =
      !open_movers_.empty() ? open_movers_ : open_sensors_;
  const double cut = options_.EffectiveAttributionCut();
  for (int v : candidates) {
    // cad-lint: allow(CL007) anomaly close is a rare event, not round steady state; the list is bounded by n_sensors
    if (tracker.ratio(v) < cut) anomaly.sensors.push_back(v);
  }
  if (anomaly.sensors.empty()) anomaly.sensors = candidates;
  std::sort(anomaly.sensors.begin(), anomaly.sensors.end());
  anomaly.sensors.erase(
      std::unique(anomaly.sensors.begin(), anomaly.sensors.end()),
      anomaly.sensors.end());
  anomaly.first_round = open_first_round_;
  anomaly.last_round = last_round;
  anomaly.start_time = open_start_time_;
  anomaly.end_time = end_time;
  anomaly.detection_time = open_detection_time_;
  metrics_.anomalies_total->Increment();
  // cad-lint: allow(CL007) one append per closed anomaly, not per round; the move keeps it a pointer swap
  anomalies_.push_back(std::move(anomaly));
  open_sensors_.clear();
  open_movers_.clear();
  std::fill(open_sensor_flags_.begin(), open_sensor_flags_.end(), 0);
  open_first_round_ = -1;
}

DetectionEngine::DetectionEngine(int n_sensors, const CadOptions& options)
    : n_sensors_(n_sensors),
      options_(options),
      metrics_(obs::PipelineMetrics::For(
          obs::ResolveRegistry(options.metrics_registry))),
      samples_(n_sensors, options.window, options.step),
      processor_(n_sensors, options),
      policy_(options),
      assembler_(n_sensors, options, metrics_),
      recorder_(options.flight_log_capacity, n_sensors) {
  if (!options_.flight_crash_dump_path.empty()) {
    recorder_.EnableCrashDump(options_.flight_crash_dump_path);
  }
}

Status DetectionEngine::ValidateStream(int n_sensors,
                                       const CadOptions& options) {
  if (n_sensors <= 0) {
    return Status::InvalidArgument("n_sensors must be positive");
  }
  return options.Validate(options.window);
}

Status DetectionEngine::WarmUp(const ts::MultivariateSeries& historical,
                               RoundWorkspace& workspace) {
  if (samples_.samples_seen() > 0) {
    return Status::FailedPrecondition("WarmUp must precede the first Push");
  }
  if (historical.n_sensors() != n_sensors_) {
    return Status::InvalidArgument(
        "historical series has a different sensor count");
  }
  CAD_RETURN_NOT_OK(options_.Validate(historical.length()));

  obs::Span warmup_span(obs::ResolveTracer(options_.tracer), "warmup");
  RoundProcessor processor(n_sensors_, options_);
  // Distinguish warm-up rounds from detection rounds in the trace: only
  // "round" spans correspond to detection rounds the drivers report.
  processor.set_span_name("warmup_round");
  const int burn_in = options_.EffectiveBurnIn();
  std::vector<double> sample(static_cast<size_t>(n_sensors_));
  int round = 0;
  for (int t = 0; t < historical.length(); ++t) {
    for (int i = 0; i < n_sensors_; ++i) sample[i] = historical.value(i, t);
    if (!Ingest(sample)) continue;
    const RoundOutput& out = processor.ProcessWindow(
        samples_.ring(), samples_.window_column(), workspace);
    // Cold-start rounds are artifacts of the empty outlier state, not data.
    if (round++ >= burn_in) policy_.Seed(out.n_variations);
  }
  samples_.Clear();
  // Stage-boundary contract (CAD_CHECK_LEVEL=full only): warm-up must leave
  // a well-formed mu/sigma accumulator behind.
  CAD_VALIDATE(check::ValidateRunningStats(policy_.stats(),
                                           options_.metrics_registry));
  return Status::Ok();
}

bool DetectionEngine::Ingest(std::span<const double> sample)
    CAD_REALTIME_AUDITED {
  CAD_CHECK(static_cast<int>(sample.size()) == n_sensors_,
            "sample width mismatch");
  return samples_.Append(sample);
}

std::optional<EngineRound> DetectionEngine::Push(
    std::span<const double> sample, RoundWorkspace& workspace)
    CAD_REALTIME_AUDITED {
  if (!Ingest(sample)) return std::nullopt;
  const int64_t allocs_before = common::ThreadAllocCount();

  const RoundOutput& out = processor_.ProcessWindow(
      samples_.ring(), samples_.window_column(), workspace);

  EngineRound result;
  result.round = round_index_;
  result.window_start = samples_.window_start_time();
  result.window_end = samples_.window_end_time();
  result.output = &out;
  const DecisionPolicy::Decision decision =
      policy_.Judge(round_index_, out.n_variations);
  result.abnormal = decision.abnormal;
  result.score = decision.score;
  result.mu = decision.mu;
  result.sigma = decision.sigma;
  result.threshold = decision.threshold;

  const size_t anomalies_before = assembler_.anomalies().size();
  assembler_.Observe(round_index_, decision.abnormal, out, result.window_start,
                     result.window_end, processor_.tracker());
  if (decision.abnormal) metrics_.abnormal_rounds_total->Increment();
  // Every n_r (abnormal or not) sharpens mu/sigma — after the decision, so a
  // round is never judged against statistics containing itself.
  policy_.Update(round_index_, out.n_variations);

  if (recorder_.enabled()) {
    // The recorder's slot and id arena were allocated and written at
    // construction, so recording copies into them — no heap traffic, same
    // contract as the round itself.
    obs::DecisionFacts facts;
    facts.round = round_index_;
    facts.window_start = result.window_start;
    facts.window_end = result.window_end;
    facts.n_variations = out.n_variations;
    facts.mu = decision.mu;
    facts.sigma = decision.sigma;
    facts.threshold = decision.threshold;
    facts.score = decision.score;
    facts.abnormal = decision.abnormal;
    facts.anomaly_open = assembler_.open();
    facts.n_outliers = static_cast<int>(out.outliers.size());
    facts.n_communities = out.n_communities;
    facts.n_edges = out.n_edges;
    facts.modularity = out.modularity;
    facts.correlation_seconds = out.correlation_seconds;
    facts.knn_seconds = out.knn_seconds;
    facts.louvain_seconds = out.louvain_seconds;
    facts.coappearance_seconds = out.coappearance_seconds;
    facts.round_seconds = out.round_seconds;
    recorder_.Record(facts, out.entered, out.exited, out.entered_movers);
  }

  CAD_VALIDATE(check::ValidateRunningStats(policy_.stats(),
                                           options_.metrics_registry));
  CAD_VALIDATE(check::ValidateAssembler(assembler_, n_sensors_,
                                        options_.metrics_registry));
  ++round_index_;

  metrics_.round_allocs->Set(
      static_cast<double>(common::ThreadAllocCount() - allocs_before));
  // After the alloc accounting: a close-time flight-log append is file I/O,
  // not round work, and only happens on the rare round that closes one.
  if (assembler_.anomalies().size() > anomalies_before) {
    DumpClosedAnomalies(anomalies_before);
  }
  return result;
}

void DetectionEngine::Finish() {
  const size_t anomalies_before = assembler_.anomalies().size();
  assembler_.Finish(processor_.tracker());
  if (assembler_.anomalies().size() > anomalies_before) {
    DumpClosedAnomalies(anomalies_before);
  }
}

void DetectionEngine::DumpClosedAnomalies(size_t first_new) {
  if (!recorder_.enabled() || options_.flight_log_path.empty()) return;
  std::string jsonl;
  for (size_t i = first_new; i < assembler_.anomalies().size(); ++i) {
    const Anomaly& anomaly = assembler_.anomalies()[i];
    recorder_.AppendRangeJsonl(anomaly.first_round, anomaly.last_round,
                               &jsonl);
  }
  if (jsonl.empty()) return;
  // cad-lint: allow(CL007) opt-in close-time flight-log append, sequenced after Push's alloc accounting by design
  std::ofstream file(options_.flight_log_path, std::ios::app);
  if (file) file << jsonl;
}

}  // namespace cad::core
