#include "core/round_processor.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "check/check.h"
#include "check/validators.h"

namespace cad::core {

namespace {

// Maps each previous-round community to the current community holding the
// plurality of its members (ties broken by smaller community id, keeping the
// mapping deterministic). A vertex whose current community differs from its
// previous community's successor has *moved* in the sense of Definition 2.
//
// Votes are (prev, cur) keys counted by sorting the key array — runs of
// equal keys are the vote counts, visited in ascending (prev, cur) order, so
// within a prev group the first strictly larger count wins and ties keep the
// smaller cur, exactly as the earlier map-plus-sorted-emit implementation.
// Community ids are dense (Louvain canonicalizes), so the successor tables
// are flat vectors; everything lives in the workspace and is reused.
void PluralitySuccessors(const std::vector<int>& prev_community,
                         const std::vector<int>& cur_community,
                         RoundWorkspace* ws) CAD_REALTIME_AUDITED {
  const size_t n = prev_community.size();
  ws->vote_keys.resize(n);
  int max_prev = 0;
  for (size_t v = 0; v < n; ++v) {
    CAD_DCHECK(prev_community[v] >= 0, "negative community id");
    max_prev = std::max(max_prev, prev_community[v]);
    ws->vote_keys[v] = (static_cast<int64_t>(prev_community[v]) << 32) |
                       static_cast<uint32_t>(cur_community[v]);
  }
  std::sort(ws->vote_keys.begin(), ws->vote_keys.end());

  ws->successor.assign(max_prev + 1, -1);
  ws->successor_count.assign(max_prev + 1, 0);
  size_t i = 0;
  while (i < n) {
    const int64_t key = ws->vote_keys[i];
    int count = 0;
    for (; i < n && ws->vote_keys[i] == key; ++i) ++count;
    const int prev = static_cast<int>(key >> 32);
    const int cur = static_cast<int>(key & 0xffffffff);
    if (ws->successor[prev] < 0 || count > ws->successor_count[prev]) {
      ws->successor_count[prev] = count;
      ws->successor[prev] = cur;
    }
  }
}

}  // namespace

RoundWorkspace* RoundProcessor::ResolveWorkspace(RoundWorkspace* workspace) {
  if (workspace != nullptr) return workspace;
  if (owned_workspace_ == nullptr) {
    // cad-lint: allow(CL007) one-time lazy construction on the first externally-workspace-less round; pooled callers never reach this branch
    owned_workspace_ = std::make_unique<RoundWorkspace>();
  }
  return owned_workspace_.get();
}

const RoundOutput& RoundProcessor::ProcessWindow(
    const ts::MultivariateSeries& series, int start,
    RoundWorkspace* workspace) CAD_REALTIME_AUDITED {
  CAD_CHECK(series.n_sensors() == n_sensors_, "sensor count mismatch");
  RoundWorkspace* ws = ResolveWorkspace(workspace);
  out_.Clear();  // cleared before the stage timers start accumulating
  obs::Span round_span(tracer_, span_name_);
  obs::ScopedHistogramTimer round_timer(metrics_.round_seconds,
                                        &out_.round_seconds);
  obs::Span corr_span(tracer_, "correlation");
  Stopwatch corr_watch;
  stats::WindowCorrelationMatrixInto(
      series, start, options_.window,
      options_.use_spearman ? stats::CorrelationKind::kSpearman
                            : stats::CorrelationKind::kPearson,
      options_.n_threads, &ws->correlation_scratch, &ws->correlation);
  out_.correlation_seconds = corr_watch.ElapsedSeconds();
  metrics_.correlation_seconds->Observe(out_.correlation_seconds);
  corr_span.End();
  return FinishRound(ws->correlation, &round_span, ws);
}

const RoundOutput& RoundProcessor::ProcessRolling(
    stats::RollingCorrelationTracker* rolling,
    const ts::MultivariateSeries& window,
    RoundWorkspace* workspace) CAD_REALTIME_AUDITED {
  RoundWorkspace* ws = ResolveWorkspace(workspace);
  out_.Clear();
  obs::Span round_span(tracer_, span_name_);
  obs::ScopedHistogramTimer round_timer(metrics_.round_seconds,
                                        &out_.round_seconds);
  {
    obs::Span corr_span(tracer_, "correlation");
    obs::ScopedHistogramTimer corr_timer(metrics_.correlation_seconds,
                                         &out_.correlation_seconds);
    if (rolling->refresh_due()) rolling->Reset(window, 0);
    rolling->CorrelationsInto(&ws->correlation);
  }
  return FinishRound(ws->correlation, &round_span, ws);
}

const RoundOutput& RoundProcessor::FinishRound(
    const stats::CorrelationMatrix& corr, obs::Span* round_span,
    RoundWorkspace* ws_ptr) CAD_REALTIME_AUDITED {
  RoundWorkspace& ws = *ws_ptr;
  CAD_CHECK(corr.size() == n_sensors_, "correlation matrix size mismatch");
  if (round_span->active()) {
    // cad-lint: allow(CL007) guarded by active(): only runs when a tracer is attached, an opt-in diagnostic mode
    round_span->AddArg("round", std::to_string(rounds_processed_));
  }
  RoundOutput& out = out_;  // Clear()ed by the ProcessWindow/Rolling entry
  Stopwatch stage_watch;

  // Phase 1: TSG + community detection.
  graph::KnnGraphOptions knn_options{.k = options_.k, .tau = options_.tau};
  graph::KnnGraphStats tsg_stats;
  obs::Span knn_span(tracer_, "knn_graph");
  graph::BuildKnnGraphInto(corr, knn_options, &ws.knn,
                           &ws.tsg, &tsg_stats);
  const graph::Graph& tsg = ws.tsg;
  knn_span.End();
  out.knn_seconds = stage_watch.ElapsedSeconds();
  metrics_.knn_build_seconds->Observe(out.knn_seconds);
  out.n_edges = static_cast<int>(tsg.n_edges());
  // Stage-boundary contract (CAD_CHECK_LEVEL=full only): the TSG must be a
  // symmetric simple graph of correlation edges; the union-kNN construction
  // bounds the edge count by n * k, not the degree.
  CAD_VALIDATE(check::ValidateGraph(
      tsg,
      check::GraphBounds{
          .max_edges = static_cast<int64_t>(n_sensors_) * options_.k,
          .max_abs_weight = 1.0 + 1e-6},
      options_.metrics_registry));

  stage_watch.Restart();
  obs::Span louvain_span(tracer_, "louvain");
  graph::LouvainInto(tsg, {}, &ws.louvain, &ws.partition);
  const graph::Partition& partition = ws.partition;
  louvain_span.End();
  out.louvain_seconds = stage_watch.ElapsedSeconds();
  metrics_.louvain_seconds->Observe(out.louvain_seconds);
  out.n_communities = partition.n_communities;
  out.modularity = partition.modularity;
  CAD_VALIDATE(check::ValidatePartition(partition, n_sensors_,
                                        options_.metrics_registry));

  stage_watch.Restart();
  obs::Span coapp_span(tracer_, "co_appearance");

  // Phase 2: co-appearance mining against the previous round, plus the
  // Definition 2 moved-vertex flags used for sensor attribution.
  if (!prev_community_.empty()) {
#if CAD_VALIDATE_ENABLED
    // Keep this round's S_r(v) so the independent recount in
    // ValidateCoAppearance can cross-check the tracker's bookkeeping.
    const std::vector<int>& coappearance_counts =
        tracker_.Observe(prev_community_, partition.community);
    CAD_VALIDATE(check::ValidateCoAppearance(coappearance_counts,
                                             prev_community_,
                                             partition.community,
                                             options_.metrics_registry));
    CAD_VALIDATE(check::ValidateCoAppearanceTracker(tracker_,
                                                    options_.metrics_registry));
#else
    tracker_.Observe(prev_community_, partition.community);
#endif
    PluralitySuccessors(prev_community_, partition.community, &ws);
    for (int v = 0; v < n_sensors_; ++v) {
      if (partition.community[v] != ws.successor[prev_community_[v]]) {
        last_moved_round_[v] = rounds_processed_;
      }
    }
  }
  for (int v = 0; v < n_sensors_; ++v) {
    // cad-lint: allow(CL007) RoundOutput is Clear()-and-reuse: bounded by n_sensors, capacity retained across rounds
    if (tracker_.ratio(v) < options_.theta) out.outliers.push_back(v);
  }

  // Phase 3: variation analysis. n_r counts vertices transitioning between
  // outlier and normal states across the two most recent rounds.
  std::vector<uint8_t>& cur_flags = ws.cur_flags;
  cur_flags.assign(n_sensors_, 0);
  for (int v : out.outliers) cur_flags[v] = 1;
  int n_variations = 0;
  for (int v = 0; v < n_sensors_; ++v) {
    if (cur_flags[v] != outlier_flags_[v]) {
      ++n_variations;
      if (cur_flags[v]) {
        // cad-lint: allow(CL007) Clear()-and-reuse RoundOutput buffer, bounded by n_sensors
        out.entered.push_back(v);
        const int recency = options_.rc_window > 0 ? options_.rc_window : 8;
        if (last_moved_round_[v] >= 0 &&
            rounds_processed_ - last_moved_round_[v] <= recency) {
          // cad-lint: allow(CL007) Clear()-and-reuse RoundOutput buffer, bounded by n_sensors
          out.entered_movers.push_back(v);
        }
      } else {
        // cad-lint: allow(CL007) Clear()-and-reuse RoundOutput buffer, bounded by n_sensors
        out.exited.push_back(v);
      }
    }
  }
  out.n_variations = n_variations;
  coapp_span.End();
  out.coappearance_seconds = stage_watch.ElapsedSeconds();
  metrics_.coappearance_seconds->Observe(out.coappearance_seconds);

  metrics_.rounds_total->Increment();
  metrics_.outlier_variations->Increment(static_cast<uint64_t>(n_variations));
  metrics_.tsg_edges_pruned->Increment(
      static_cast<uint64_t>(tsg_stats.pruned_pairs()));
  metrics_.tsg_edges_kept->Increment(
      static_cast<uint64_t>(tsg_stats.kept_edges));
  metrics_.communities->Set(out.n_communities);
  metrics_.outliers->Set(static_cast<double>(out.outliers.size()));

  prev_community_.assign(partition.community.begin(),
                         partition.community.end());
  std::swap(outlier_flags_, cur_flags);
  ++rounds_processed_;
  // Stage-boundary contract (CAD_CHECK_LEVEL=full only): every reused
  // workspace buffer must still be shaped for this problem size.
  CAD_VALIDATE(check::ValidateRoundWorkspace(ws, n_sensors_,
                                             options_.metrics_registry));
  return out;
}

void RoundProcessor::Reset() {
  tracker_.Reset();
  prev_community_.clear();
  std::fill(outlier_flags_.begin(), outlier_flags_.end(), 0);
  std::fill(last_moved_round_.begin(), last_moved_round_.end(), -1);
  rounds_processed_ = 0;
}

}  // namespace cad::core
