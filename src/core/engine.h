// DetectionEngine: the driver-independent core of CAD's Algorithm 2.
//
// The engine consumes samples: CadDetector (batch), StreamingCad (online)
// and fleet tenants are thin drivers that Push one time point at a time.
// Everything between a sample and a verdict lives here exactly once — the
// SampleWindow that decides when a round closes and where its window sits,
// the rolling correlation tracker, the round (Algorithm 1 via
// RoundProcessor), the eta-sigma decision, the mu/sigma update and anomaly
// assembly — so the same samples give the same rounds in every driver.
// DESIGN.md "Engine architecture" shows how to add a driver.
//
// The engine is not synchronized; drivers that need thread safety wrap it
// in their own lock. Each round also publishes the number of heap
// allocations it performed as the `cad_round_allocs` gauge (real counts
// only in binaries that link cad_alloc_hook; see common/alloc_tracker.h) —
// the steady-state contract is zero.
#ifndef CAD_CORE_ENGINE_H_
#define CAD_CORE_ENGINE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/realtime.h"
#include "common/status.h"
#include "core/cad_options.h"
#include "core/round_processor.h"
#include "core/sample_window.h"
#include "core/types.h"
#include "obs/flight_recorder.h"
#include "obs/pipeline_metrics.h"
#include "stats/rolling_correlation.h"
#include "stats/running_stats.h"
#include "ts/multivariate_series.h"

namespace cad::core {

// The eta-sigma abnormality rule (paper Theorem 1) plus the running mu/sigma
// state it judges against (the series N of Algorithm 2). Judging and
// updating are split so a round is always judged with the statistics that
// exclude its own n_r, in every driver.
class DecisionPolicy {
 public:
  struct Decision {
    bool abnormal = false;
    // Normalized deviation in [0, 1]; 0.5 sits exactly on the decision
    // boundary, so thresholding a score series at 0.5 reproduces the rule.
    double score = 0.0;
    double mu = 0.0;     // statistics used for the decision
    double sigma = 0.0;
    // Deviation threshold the rule applied: eta * max(sigma, min_sigma)
    // (floored) under the sigma rule, fixed_xi under the ablation rule, and
    // 0 when the round was not judged (round 0 / burn-in / empty stats).
    double threshold = 0.0;
  };

  explicit DecisionPolicy(const CadOptions& options)
      : options_(options), burn_in_(options.EffectiveBurnIn()) {}

  // Judges round `round` carrying n_r = `n_variations` against the current
  // statistics. Round 0 has no preceding round (the paper's r > 1 guard),
  // burn-in rounds carry cold-start artifacts, and rounds with no statistics
  // yet cannot deviate from them; none of those can be abnormal.
  Decision Judge(int round, int n_variations) const CAD_REALTIME;

  // Folds n_r into mu/sigma (burn-in rounds are cold-start artifacts of the
  // empty outlier state, not data, and are skipped).
  void Update(int round, int n_variations) CAD_REALTIME {
    if (round >= burn_in_) stats_.Add(n_variations);
  }

  // Warm-up seeding (Algorithm 2, WarmUp): the caller applies its own
  // burn-in filter over the historical rounds.
  void Seed(int n_variations) CAD_REALTIME { stats_.Add(n_variations); }

  const stats::RunningStats& stats() const { return stats_; }

 private:
  CadOptions options_;
  int burn_in_;
  stats::RunningStats stats_;  // the series N of Algorithm 2
};

// Folds per-round decisions into anomalies Z = (V_Z, R_Z): consecutive
// abnormal rounds form one open anomaly; the first normal round after them
// closes it. V_Z prefers vertices that moved communities themselves
// (Definition 2) over peers merely abandoned by defectors, then keeps the
// ones whose RC is still depressed at close time (cad_options.h).
class AnomalyAssembler {
 public:
  AnomalyAssembler(int n_sensors, const CadOptions& options,
                   const obs::PipelineMetrics& metrics)
      : n_sensors_(n_sensors),
        options_(options),
        metrics_(metrics),
        open_sensor_flags_(n_sensors, 0) {}

  // Feeds one round's decision. `window_start_time` / `window_end_time` are
  // the round's window [start, end) on the engine's time axis; the
  // anomaly's detection_time is the end of its first abnormal window, minus
  // one, and its end_time is the end of its last abnormal window.
  void Observe(int round, bool abnormal, const RoundOutput& out,
               int window_start_time, int window_end_time,
               const CoAppearanceTracker& tracker) CAD_REALTIME_AUDITED;

  // Closes any anomaly still open after the final round (batch end-of-series).
  void Finish(const CoAppearanceTracker& tracker);

  bool open() const { return open_first_round_ >= 0; }
  const std::vector<Anomaly>& anomalies() const { return anomalies_; }
  std::vector<Anomaly> TakeAnomalies() { return std::move(anomalies_); }

  // Introspection for check::ValidateAssembler (and tests).
  int open_first_round() const { return open_first_round_; }
  const std::vector<int>& open_sensors() const { return open_sensors_; }
  const std::vector<int>& open_movers() const { return open_movers_; }
  const std::vector<uint8_t>& open_sensor_flags() const {
    return open_sensor_flags_;
  }

 private:
  // Audited rather than strict: closing pushes the finished anomaly onto
  // anomalies_ (bounded by the anomaly count, capacity retained) — a rare
  // event, not steady-state round work.
  void Close(int last_round, int end_time,
             const CoAppearanceTracker& tracker) CAD_REALTIME_AUDITED;

  int n_sensors_;
  CadOptions options_;
  obs::PipelineMetrics metrics_;

  std::vector<Anomaly> anomalies_;
  std::vector<int> open_sensors_;  // entered outliers while the anomaly is open
  std::vector<int> open_movers_;   // ... that also moved (Definition 2)
  std::vector<uint8_t> open_sensor_flags_;  // membership of open_sensors_
  int open_first_round_ = -1;
  int open_start_time_ = 0;
  int open_detection_time_ = 0;
  int last_round_ = -1;       // most recently observed round
  int prev_window_end_ = 0;   // its window end (the close-time end_time)
};

// What one engine round produced. `output` points at the engine's reused
// round state and stays valid until the next Push.
struct EngineRound {
  int round = 0;
  int window_start = 0;  // the round's window [start, end), in samples
  int window_end = 0;    // pushed since construction or WarmUp
  const RoundOutput* output = nullptr;
  bool abnormal = false;
  double score = 0.0;
  double mu = 0.0;     // statistics used for the decision (pre-update)
  double sigma = 0.0;
  double threshold = 0.0;  // deviation threshold applied (0 = not judged)
};

class DetectionEngine {
 public:
  DetectionEngine(int n_sensors, const CadOptions& options);

  // What a streaming driver checks before building an engine: n_sensors > 0
  // and options valid for a series as long as the window.
  [[nodiscard]] static Status ValidateStream(int n_sensors,
                                             const CadOptions& options);

  // Algorithm 2's WarmUp, before the first Push: seeds mu/sigma from the
  // rounds of `historical`, pushed through the engine's own window on a
  // throwaway round processor. Detection then restarts at time 0 with an
  // empty window and O_0 = empty (line 2 of the pseudo-code).
  [[nodiscard]] Status WarmUp(const ts::MultivariateSeries& historical);

  // Ingests one time point (`sample.size()` == n_sensors). When it closes a
  // round, runs the round through decision and anomaly assembly and returns
  // it; nullopt otherwise.
  //
  // `workspace` optionally supplies the round's scratch arena (per-round
  // only, no cross-round state — see RoundWorkspace): the fleet's shared
  // worker pool passes pooled arenas so tenant engines stay workspace-less;
  // single-tenant drivers omit it and the processor lazily owns one.
  std::optional<EngineRound> Push(std::span<const double> sample,
                                  RoundWorkspace* workspace = nullptr)
      CAD_REALTIME_AUDITED;

  // Closes any anomaly still open after the last round (and, like a normal
  // close, appends its rounds to CadOptions::flight_log_path when set).
  void Finish();

  int n_sensors() const { return n_sensors_; }
  int samples_seen() const { return samples_.samples_seen(); }
  int rounds() const { return round_index_; }
  double mu() const { return policy_.stats().mean(); }
  double sigma() const { return policy_.stats().stddev(); }
  bool anomaly_open() const { return assembler_.open(); }
  const std::vector<Anomaly>& anomalies() const {
    return assembler_.anomalies();
  }
  std::vector<Anomaly> TakeAnomalies() { return assembler_.TakeAnomalies(); }
  const DecisionPolicy& policy() const { return policy_; }
  const AnomalyAssembler& assembler() const { return assembler_; }
  const CoAppearanceTracker& tracker() const { return processor_.tracker(); }

  // Flight recorder (CadOptions::flight_log_capacity rounds of decision
  // provenance; disabled at capacity 0).
  const obs::FlightRecorder& recorder() const { return recorder_; }
  // Why round `round` fired (or stayed silent): its DecisionRecord plus the
  // delta against the previous round. nullopt when the round was never
  // recorded or has been evicted from the ring.
  std::optional<obs::DecisionProvenance> Explain(int round) const {
    return recorder_.Explain(round);
  }

 private:
  // Feeds one sample to the window and the rolling tracker; true when it
  // closes a round.
  bool Ingest(std::span<const double> sample) CAD_REALTIME_AUDITED;
  // Runs Algorithm 1 on `processor` over the current window.
  const RoundOutput& ProcessRound(RoundProcessor* processor,
                                  RoundWorkspace* workspace)
      CAD_REALTIME_AUDITED;

  // Appends the rounds of anomalies_[first_new..] to flight_log_path.
  void DumpClosedAnomalies(size_t first_new);

  int n_sensors_;
  CadOptions options_;
  obs::PipelineMetrics metrics_;
  SampleWindow samples_;           // ring + round cadence + time axis
  ts::MultivariateSeries window_;  // the ring, materialized per round
  // Set iff incremental_correlation applies (Pearson only).
  std::unique_ptr<stats::RollingCorrelationTracker> rolling_;
  RoundProcessor processor_;
  DecisionPolicy policy_;
  AnomalyAssembler assembler_;
  obs::FlightRecorder recorder_;
  int round_index_ = 0;
};

}  // namespace cad::core

#endif  // CAD_CORE_ENGINE_H_
