// StreamingCad: the online driver of CAD (paper Section IV-F).
//
// Samples arrive one time point at a time and go straight into the shared
// core::DetectionEngine, which decides when a round closes (every `step`
// points once `window` points have been seen), runs the OutlierDetection
// round, applies the eta-sigma rule with the current mu / sigma, and folds
// the round's n_r into the running statistics — so, as the paper notes, mu
// and sigma keep sharpening as the stream progresses. Per-round latency is
// what Table VII reports as TPR.
#ifndef CAD_CORE_STREAMING_H_
#define CAD_CORE_STREAMING_H_

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/lock_order.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "core/cad_options.h"
#include "core/engine.h"
#include "core/types.h"
#include "obs/exposition_server.h"
#include "ts/multivariate_series.h"

namespace cad::core {

// Emitted when a pushed sample completes a detection round.
struct StreamEvent {
  int round = 0;             // 0-based round index in the stream
  int time_index = 0;        // index of the sample that closed the round
  int n_variations = 0;      // n_r
  bool abnormal = false;
  std::vector<int> outliers;  // O_r
  std::vector<int> entered;   // vertices that joined O_r this round
  // Subset of `entered` that also moved communities recently (Definition 2)
  // — the attribution-grade V_Z signal, surfaced live with the same meaning
  // it has in batch anomaly assembly (see RoundOutput::entered_movers).
  std::vector<int> entered_movers;
  double mu = 0.0;            // statistics used for the decision
  double sigma = 0.0;
  // Wall-clock latency of the Push that closed this round (ingest, window
  // materialization, Algorithm 1 and decision) — the per-round TPR sample
  // of Table VII, live.
  double round_seconds = 0.0;
};

// Liveness view of a stream, served as /healthz by the exposition server.
struct StreamHealth {
  int samples_seen = 0;
  int rounds = 0;
  bool anomaly_open = false;
  // Seconds since the last completed round on the steady clock; +inf before
  // the first round (and always +inf when recording is disabled).
  double last_round_age_seconds = 0.0;
  // Throughput over the rounds currently held by the flight recorder.
  double rounds_per_second = 0.0;
  int flight_ring_capacity = 0;  // 0 = flight recording disabled
  int flight_ring_size = 0;
};

// Internally synchronized: one producer may Push while other threads read
// the accessors (a telemetry poller, a query endpoint). All mutable state is
// GUARDED_BY(mu_), so under Clang's -Werror=thread-safety an unlocked access
// is a compile error; under TSan the same discipline is checked dynamically
// by tests/check/concurrency_stress_test.cc.
class StreamingCad {
 public:
  // Validates the arguments once (DetectionEngine::ValidateStream); every
  // WarmUp and Push of an invalid stream returns that InvalidArgument.
  StreamingCad(int n_sensors, const CadOptions& options);

  // Seeds mu / sigma from a historical series, mirroring Algorithm 2's
  // WarmUp. Must be called before the first Push.
  [[nodiscard]] Status WarmUp(const ts::MultivariateSeries& historical) EXCLUDES(mu_);

  // Pushes the readings of all sensors for one time point. When this sample
  // completes a round, fills `*event` in place (reusing its vector capacity,
  // so after a few warm rounds a Push performs zero heap allocations end to
  // end) and returns true; otherwise returns false and leaves the event
  // untouched. Calls from multiple producers serialize on the internal
  // mutex.
  [[nodiscard]] Result<bool> Push(std::span<const double> readings,
                                  StreamEvent* event) EXCLUDES(mu_);

  // Anomalies fully closed so far (an anomaly closes when a normal round
  // follows abnormal ones). Returns a copy: a reference into guarded state
  // would dangle the moment the lock is released.
  std::vector<Anomaly> anomalies() const EXCLUDES(mu_) {
    // cad-lint: allow(CL007) name-resolution over-approximation: the engine's `.anomalies()` is DetectionEngine::anomalies, not this driver API, which is never called from inside Step
    common::MutexLock lock(mu_);
    return engine_.anomalies();
  }

  // True while the most recent rounds are abnormal and the anomaly is still
  // being assembled.
  bool anomaly_open() const EXCLUDES(mu_) {
    common::MutexLock lock(mu_);
    return engine_.anomaly_open();
  }

  int samples_seen() const EXCLUDES(mu_) {
    common::MutexLock lock(mu_);
    return engine_.samples_seen();
  }
  int rounds_completed() const EXCLUDES(mu_) {
    common::MutexLock lock(mu_);
    return engine_.rounds();
  }
  double mu() const EXCLUDES(mu_) {
    common::MutexLock lock(mu_);
    return engine_.mu();
  }
  double sigma() const EXCLUDES(mu_) {
    common::MutexLock lock(mu_);
    return engine_.sigma();
  }

  // State of the metrics registry this stream records into
  // (CadOptions::metrics_registry, global by default): cad_rounds_total,
  // cad_stream_samples_total, the cad_round_seconds histogram, ... Snapshots
  // under the lock so the counters are consistent with a round boundary.
  obs::Snapshot TelemetrySnapshot() const EXCLUDES(mu_);

  // Decision provenance for round `round` from the engine's flight recorder
  // (record + delta vs the previous round); nullopt when recording is
  // disabled or the round left the ring. Copies under the lock.
  std::optional<obs::DecisionProvenance> Explain(int round) const
      EXCLUDES(mu_);

  // The whole flight-recorder ring, oldest round first, one JSON object per
  // line; empty when recording is disabled.
  std::string DumpFlightLogJsonl() const EXCLUDES(mu_);

  // Snapshot of the flight-recorder ring, oldest round first; empty when
  // recording is disabled. Copies under the lock — feed the result to
  // advisor::Advise for structured triage instead of reparsing AdviseJson.
  [[nodiscard]] std::vector<obs::DecisionRecord> FlightLog() const
      EXCLUDES(mu_);

  // Root-cause advice (advisor::AdviceReportToJson) over the inclusive round
  // range [from_round, to_round] of the flight-recorder ring; -1 = unbounded
  // on that side. Empty string when the range selects no recorded rounds —
  // the /advise handler turns that into a 404. Copies the ring under the
  // lock, then scores outside it so Push is never blocked by triage.
  [[nodiscard]] std::string AdviseJson(int from_round, int to_round) const
      EXCLUDES(mu_);

  // Liveness snapshot (the /healthz payload).
  StreamHealth Health() const EXCLUDES(mu_);

  // Port the exposition server is listening on (the resolved ephemeral port
  // when CadOptions::exposition_port was 0), or -1 when no server is running
  // (not requested, or it failed to bind — the failure is logged to stderr).
  int exposition_port() const {
    return server_ != nullptr ? server_->port() : -1;
  }

 private:
  static std::unique_ptr<obs::ExpositionServer> MakeServer(StreamingCad* self);

  std::string HealthJson() const EXCLUDES(mu_);
  std::string ExplainJson(int round) const EXCLUDES(mu_);

  const int n_sensors_;
  const CadOptions options_;
  const Status config_;  // outcome of validating the constructor arguments
  const obs::PipelineMetrics metrics_;  // stable pointers, atomic recording

  // Rank 20 in the global hierarchy (common/lock_order.h): held across a
  // round, which records telemetry (Registry::mu_, rank 30) and spans
  // (Tracer::mu_, rank 31) — so those must rank strictly above this lock.
  mutable common::Mutex mu_{common::lock_order::kStreamingCad,
                            "StreamingCad::mu_"};
  // The engine every driver shares: window and round cadence, round loop,
  // decision, mu/sigma, anomaly assembly (engine.h). This driver is a thin
  // locked facade over its Push, as each fleet tenant is.
  DetectionEngine engine_ GUARDED_BY(mu_);

  // Declared last so it is destroyed first: the destructor joins the server
  // thread, whose handlers lock mu_ and read the guarded state above — both
  // must still be alive until the join returns. const (never reassigned, no
  // lock needed), built by MakeServer; nullptr unless
  // CadOptions::exposition_port >= 0.
  const std::unique_ptr<obs::ExpositionServer> server_;
};

}  // namespace cad::core

#endif  // CAD_CORE_STREAMING_H_
