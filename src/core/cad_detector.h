// CadDetector: the batch driver of the CAD pipeline (paper Algorithm 2).
//
// The round cadence, eta-sigma decision, mu/sigma update and anomaly
// assembly all live in core::DetectionEngine (engine.h); this driver pushes
// the stored series into the engine one sample at a time, exactly as the
// online drivers do, and derives the batch-only artifacts from the rounds
// the engine reports: per-round traces, per-time-point scores and labels,
// and latency summaries.
//
// Workflow:
//   1. Warm-up on a historical series T_his from the same source: runs
//      OutlierDetection rounds only to seed the running mean mu and standard
//      deviation sigma of the outlier-variation counts n_r.
//   2. Detection on T: for each round r, compute n_r (Algorithm 1); the
//      round is abnormal when |n_r - mu| >= eta * sigma (eta = 3 by default,
//      justified by Chebyshev's inequality via Theorem 1). Consecutive
//      abnormal rounds form one anomaly Z = (V_Z, R_Z) where V_Z is the
//      union of the rounds' outlier sets. Every n_r (abnormal or not) then
//      updates mu and sigma.
//
// Besides the anomaly list, the detector emits per-time-point scores and
// binary labels so CAD can be evaluated with the same threshold-based
// machinery (PA / DPA / VUS) as the baselines: round r's normalized
// deviation |n_r - mu| / (2 * eta * sigma), clamped to [0, 1], is assigned
// to the round's fresh time slice [end_r - s, end_r), so a 0.5 threshold on
// the score series reproduces the eta-sigma rule exactly.
#ifndef CAD_CORE_CAD_DETECTOR_H_
#define CAD_CORE_CAD_DETECTOR_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "core/cad_options.h"
#include "core/types.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "ts/multivariate_series.h"

namespace cad::core {

// Distribution of per-round detection latencies, measured per round (not a
// single overall division) so the tail is visible alongside the mean.
struct RoundLatencySummary {
  double mean = 0.0;  // seconds; == DetectionReport::seconds_per_round
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

struct DetectionReport {
  std::vector<Anomaly> anomalies;
  std::vector<RoundTrace> rounds;
  // Length |T|; score in [0, 1] per time point (0.5 == the eta-sigma rule).
  std::vector<double> point_scores;
  // Length |T|; 1 where an abnormal round's fresh slice covers the point.
  std::vector<uint8_t> point_labels;
  // Length n_sensors; 1 for sensors in any anomaly's V_Z.
  std::vector<uint8_t> sensor_labels;
  double warmup_seconds = 0.0;
  double detect_seconds = 0.0;
  // TPR of Table VII: the *mean* of the individually measured round
  // latencies (== round_latency.mean). Use round_latency.p50 for a
  // robust-to-outliers central value and p95/p99 for the tail.
  double seconds_per_round = 0.0;
  RoundLatencySummary round_latency;
  // State of the metrics registry (CadOptions::metrics_registry, the global
  // one by default) right after this run: cad_rounds_total, the
  // cad_round_seconds histogram, cad_tsg_edges_pruned, ... — see the
  // glossary in DESIGN.md "Observability". Counters are cumulative across
  // runs sharing a registry.
  obs::Snapshot telemetry;
  // The engine's flight-recorder ring at the end of the run, oldest round
  // first: the last CadOptions::flight_log_capacity rounds of decision
  // provenance (empty when recording is disabled). The deterministic fields
  // are byte-identical to what StreamingCad records for the same input.
  std::vector<obs::DecisionRecord> flight_log;
};

// Decision provenance for round `round`: its DecisionRecord from
// `report.flight_log` plus the delta against the previous round. nullopt
// when the round is not in the (ring-bounded) log.
std::optional<obs::DecisionProvenance> ExplainRound(
    const DetectionReport& report, int round);

class CadDetector {
 public:
  explicit CadDetector(const CadOptions& options) : options_(options) {}

  const CadOptions& options() const { return options_; }

  // Runs warm-up (optional: pass nullptr to skip, as the paper does on SMD)
  // followed by detection. Validates options against both series.
  [[nodiscard]] Result<DetectionReport> Detect(const ts::MultivariateSeries& series,
                                 const ts::MultivariateSeries* historical) const;

 private:
  CadOptions options_;
};

}  // namespace cad::core

#endif  // CAD_CORE_CAD_DETECTOR_H_
