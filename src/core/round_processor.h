// RoundProcessor: the stateful per-round OutlierDetection of the paper
// (Algorithm 1). Each call converts one window sub-matrix into a TSG,
// partitions it with Louvain, mines co-appearance against the previous
// round, derives the outlier set O_r (RC_{v,r} < theta) and the number of
// outlier variations n_r = |O_{r-1} symmetric-difference O_r|.
#ifndef CAD_CORE_ROUND_PROCESSOR_H_
#define CAD_CORE_ROUND_PROCESSOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include <memory>

#include "common/realtime.h"
#include "core/cad_options.h"
#include "core/co_appearance.h"
#include "graph/knn_graph.h"
#include "graph/louvain.h"
#include "obs/pipeline_metrics.h"
#include "obs/trace.h"
#include "stats/rolling_correlation.h"
#include "ts/multivariate_series.h"

namespace cad::core {

struct RoundOutput {
  std::vector<int> outliers;     // O_r, ascending vertex ids
  std::vector<int> entered;      // vertices that joined O_r this round
  // Subset of `entered` that also moved communities recently (within
  // rc_window rounds) in the sense of Definition 2: the vertex left the
  // plurality successor of its previous community, rather than merely being
  // abandoned by defecting peers. This is the attribution-grade signal for
  // V_Z; the full `entered` list still drives n_r.
  std::vector<int> entered_movers;
  std::vector<int> exited;       // vertices that left O_r this round
  int n_variations = 0;          // n_r (Definition 8)
  int n_communities = 0;         // c_r after Louvain
  int n_edges = 0;               // TSG size after tau pruning
  double modularity = 0.0;       // Newman modularity of this round's partition
  // Per-stage wall-clock cost of this round, mirroring the cad_*_seconds
  // histograms; consumed by the flight recorder's DecisionRecord timings.
  double correlation_seconds = 0.0;
  double knn_seconds = 0.0;
  double louvain_seconds = 0.0;
  double coappearance_seconds = 0.0;
  double round_seconds = 0.0;

  void Clear() {
    outliers.clear();
    entered.clear();
    entered_movers.clear();
    exited.clear();
    n_variations = 0;
    n_communities = 0;
    n_edges = 0;
    modularity = 0.0;
    correlation_seconds = 0.0;
    knn_seconds = 0.0;
    louvain_seconds = 0.0;
    coappearance_seconds = 0.0;
    round_seconds = 0.0;
  }
};

// Every buffer the round hot path reuses across rounds: the correlation
// matrix and its residual scratch, the TSG and kNN pick arrays, the Louvain
// partition and level scratch, plus the processor's own flag/vote buffers.
// All members have Clear()-and-reuse semantics — capacity grows to the
// problem size during the first rounds and steady-state rounds perform zero
// heap allocations (proved by the cad_round_allocs gauge and
// tests/core/engine_alloc_test.cc).
//
// A workspace is *per-round scratch*, not cross-round state: every member is
// rebuilt from scratch by the round that uses it, so one workspace may serve
// many processors in turn. fleet::WorkspacePool exploits exactly this — N
// tenant engines share ~n_workers workspaces per sensor-count bucket instead
// of owning one each, and the capacities converge to the bucket's high-water
// problem size after the warm phase (tests/fleet/fleet_engine_test.cc
// extends the allocation proof to the pooled path).
struct RoundWorkspace {
  stats::CorrelationMatrix correlation;
  stats::CorrelationScratch correlation_scratch;
  graph::Graph tsg;
  graph::KnnScratch knn;
  graph::Partition partition;
  graph::LouvainWorkspace louvain;
  std::vector<uint8_t> cur_flags;   // membership of O_r being built
  std::vector<int64_t> vote_keys;   // PluralitySuccessors (prev, cur) keys
  std::vector<int> successor;       // prev community -> plurality successor
  std::vector<int> successor_count;  // votes behind each successor entry
};

class RoundProcessor {
 public:
  RoundProcessor(int n_sensors, const CadOptions& options)
      : n_sensors_(n_sensors),
        options_(options),
        tracker_(n_sensors,
                 CoAppearanceOptions{
                     .normalization = options.rc_global_normalization
                                          ? RcNormalization::kGlobal
                                          : RcNormalization::kCommunity,
                     .window = options.rc_window}),
        outlier_flags_(n_sensors, 0),
        last_moved_round_(n_sensors, -1),
        metrics_(obs::PipelineMetrics::For(
            obs::ResolveRegistry(options.metrics_registry))),
        tracer_(&obs::ResolveTracer(options.tracer)) {}

  // Processes the window [start, start + options.window) of `series` with
  // the direct correlation kernel. Rounds must be fed in chronological
  // order. The returned reference points at the processor's reused output
  // and stays valid until the next round.
  //
  // `workspace` selects the scratch arena for this round: nullptr uses the
  // processor's own lazily-created workspace (the single-tenant drivers);
  // fleet workers pass a pooled arena instead, so thousands of tenant
  // processors never own one each. The workspace carries no cross-round
  // state — see the RoundWorkspace comment above.
  const RoundOutput& ProcessWindow(const ts::MultivariateSeries& series,
                                   int start,
                                   RoundWorkspace* workspace = nullptr)
      CAD_REALTIME_AUDITED;

  // The incremental_correlation form: the correlations come from
  // `rolling`, which its owner slides one sample at a time; a due refresh
  // first recomputes it from `window`, the materialized current window.
  const RoundOutput& ProcessRolling(stats::RollingCorrelationTracker* rolling,
                                    const ts::MultivariateSeries& window,
                                    RoundWorkspace* workspace = nullptr)
      CAD_REALTIME_AUDITED;

  // Clears all cross-round state (communities, RC history, outlier set).
  void Reset();

  // Name of the per-round span emitted when tracing is enabled ("round" by
  // default). CadDetector names its warm-up processor's spans "warmup_round"
  // so detection round-span counts match DetectionReport::rounds.size().
  void set_span_name(std::string name) { span_name_ = std::move(name); }

  int rounds_processed() const { return rounds_processed_; }
  const std::vector<int>& last_communities() const { return prev_community_; }
  const CoAppearanceTracker& tracker() const { return tracker_; }

 private:
  // Phases 1-3 on a ready correlation matrix, inside the given round span.
  const RoundOutput& FinishRound(const stats::CorrelationMatrix& corr,
                                 obs::Span* round_span,
                                 RoundWorkspace* ws) CAD_REALTIME_AUDITED;

  // The round's arena: the caller-supplied one, else the lazily-created
  // owned workspace (kept out of the constructor so pooled-only processors
  // never pay for a private arena).
  RoundWorkspace* ResolveWorkspace(RoundWorkspace* workspace);

  int n_sensors_;
  CadOptions options_;
  CoAppearanceTracker tracker_;
  std::vector<int> prev_community_;  // empty before the first round
  std::vector<uint8_t> outlier_flags_;  // membership of O_{r-1}
  std::vector<int> last_moved_round_;   // -1 = never moved (Definition 2)
  // Lazily created on the first round that does not bring its own workspace.
  std::unique_ptr<RoundWorkspace> owned_workspace_;
  RoundOutput out_;  // reused across rounds; returned by const reference
  int rounds_processed_ = 0;
  obs::PipelineMetrics metrics_;
  obs::Tracer* tracer_;
  std::string span_name_ = "round";
};

}  // namespace cad::core

#endif  // CAD_CORE_ROUND_PROCESSOR_H_
