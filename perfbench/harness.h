// perfbench harness: what the three workloads share.
//
//  - Args / Result: the command line and the one-line JSON result the
//    benchmark prints last (correct, attempted, failed, metrics).
//  - SpanLog: in-memory spans recorded around calls into the program's
//    layers during a traced run, written out once at exit.
//  - StageReplay: re-runs one detection round's stage calls (correlation,
//    kNN graph, Louvain, co-appearance + variation) on a window the driver
//    already judged, each timed under its own span.
//  - Small statistics, label scoring and process helpers.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "core/cad_options.h"
#include "core/co_appearance.h"
#include "core/types.h"
#include "eval/confusion.h"
#include "graph/knn_graph.h"
#include "graph/louvain.h"
#include "obs/metrics.h"
#include "stats/correlation.h"
#include "ts/multivariate_series.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 30;
  bool trace = false;
  bool short_mode = false;      // tiny shapes: every code path and check, fast
  std::string trace_out;        // span file of a traced run ("" = not written)
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  int64_t samples = 1;  // observations behind the value
};

// The run's outcome. Check failures clear `correct` and are printed as
// "check failed: ..." lines before the result line.
struct Result {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> check_failures;

  void Add(const std::string& name, double value, const std::string& unit,
           int64_t samples = 1) {
    metrics.push_back({name, value, unit, samples});
  }
  void Check(bool ok, const std::string& what) {
    if (ok) return;
    correct = false;
    check_failures.push_back(what);
  }
  // Prints one "# metric" line per metric (name, value, unit, sample
  // count), the check failures, and the one-line JSON result.
  void Print() const;
};

// ---- statistics ----------------------------------------------------------

// Nearest-rank quantile (q in [0, 1]) of an unsorted sample; 0 when empty.
double Quantile(std::vector<double> values, double q);
// Median of an unsorted sample (mean of the middle two when the count is
// even); 0 when empty.
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

// ---- quiet stretches -----------------------------------------------------
//
// The one-thread workloads (is5_stream, is3_batch) take their latency and
// throughput metrics over a run's quiet stretches. The benchmark runs on
// shared cloud vCPUs that each slow down about 1.5x in bursts of one to a
// few seconds, independently of one another (another tenant loading the
// same physical core). A run-wide percentile of one thread then measures how
// much of the run such bursts covered, which differs from run to run by more
// than any bound worth setting, rather than the program. (fleet_iot spreads
// its work over four threads, which averages the bursts out.)
//
// A block is quiet when its median is within kQuietTolerance of the run's
// 10th-percentile block median (a quiet level that one lucky block cannot
// set). A run with no bursts keeps nearly every block, so the metrics are
// then about the plain run-wide ones.
inline constexpr double kQuietTolerance = 0.10;

// The latencies (in time order) of the quiet stretches of a run: the run is
// cut into blocks of about `block` consecutive verdicts, and a block is kept
// when it and its neighbours are quiet, so that the rounds at the edge of a
// burst stay out too. Falls back to the quiet blocks alone when no block
// has quiet neighbours.
std::vector<double> QuietLatencies(const std::vector<double>& latencies, int block);

// Slow stretches also last minutes: a neighbour loads one vCPU's physical
// core, and the kernel keeps a lone thread on the CPU it started on, so a
// one-thread run can sit in such a stretch from start to end. QuietCore pins
// the calling thread to the allowed CPU that runs a fixed compute kernel
// fastest right now. The one-thread workloads call Pick() before timing and
// between verdicts, never inside a timed call.
class QuietCore {
 public:
  QuietCore();
  // Probes every allowed CPU and stays on the current one unless another
  // runs the kernel more than kSwitchMargin faster. Does nothing when the
  // thread may run on one CPU only or cannot be pinned.
  void Pick();
  int moves() const { return moves_; }

 private:
  static constexpr double kSwitchMargin = 0.1;
  std::vector<int> cpus_;
  int current_ = -1;
  int moves_ = 0;
};

// ---- process -------------------------------------------------------------

// Peak resident set size of this process, in MB.
double PeakRssMb();

// One "# key: value" line per build fact (compiler, build type, flags,
// CAD_CHECK_LEVEL, alloc hook, nproc), printed before the result.
void PrintBuildInfo();

// ---- scoring -------------------------------------------------------------

// Pooled point-wise confusion after an adjustment, summed over series.
struct Scores {
  cad::eval::Confusion pa;
  cad::eval::Confusion dpa;

  void Add(const cad::eval::Labels& pred, const cad::eval::Labels& truth);
  double f1_pa() const;
  double f1_dpa() const;
};

// What every workload reports with --trace 0, in base units.
struct EndToEnd {
  double verdict_p50_s = 0.0;
  double verdict_p95_s = 0.0;
  int64_t verdicts = 0;
  double samples_per_s = 0.0;
  int64_t samples = 0;
  Scores scores;
  std::vector<double> setup_seconds;

  // Adds the end-to-end metrics (peak RSS is read now).
  void AddTo(Result* result) const;
};

// Per-point labels of one online driver's verdicts, marked exactly as the
// batch detector marks them: an abnormal round labels the trailing
// max(step, window * window_mark_fraction) points of its window (round 0
// its whole window). `round_ends[r]` is round r's window end (exclusive).
cad::eval::Labels LabelsFromRounds(const std::vector<int>& round_ends,
                                   const std::vector<uint8_t>& abnormal,
                                   const cad::core::CadOptions& options,
                                   int length);

// True when two anomaly lists are identical field by field.
bool SameAnomalies(const std::vector<cad::core::Anomaly>& a,
                   const std::vector<cad::core::Anomaly>& b);

// Sum of `name` over every series of a Prometheus text body (all label
// sets), e.g. a fleet-wide total of a tenant-labelled counter.
double SumSeries(const std::string& text, const std::string& name);

// Sample-major copy of a series: row t holds every sensor's reading at t,
// the shape online drivers are fed in.
std::vector<double> SampleMajor(const cad::ts::MultivariateSeries& series);

// ---- spans ---------------------------------------------------------------

// Spans of a traced run, kept in memory and written once as Chrome
// trace_event JSONL. Thread-safe; a disabled log records nothing.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  // Records a finished span; returns its id (0 when disabled). `request`
  // groups the spans of one round or tick; `parent` is the causing span.
  // `id` is one reserved by NextId() (a parent recorded after its
  // children), or 0 to draw a fresh one.
  int64_t Record(const char* name, Clock::time_point start,
                 Clock::time_point end, int64_t request, int64_t parent = 0,
                 int64_t id = 0);
  int64_t NextId();
  size_t size() const;
  // Mean cost of one Record call, measured on a scratch log.
  static double RecordCostSeconds();
  void WriteJsonl(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    Clock::time_point start;
    Clock::time_point end;
    int64_t id;
    int64_t parent;
    int64_t request;
    uint64_t thread;
  };
  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  int64_t next_id_ = 1;
  Clock::time_point origin_ = Clock::now();
};

// ---- per-stage replay ----------------------------------------------------

// Per-round stage costs from the replay, in seconds.
struct StageTimes {
  std::vector<double> correlation;
  std::vector<double> knn;
  std::vector<double> louvain;
  std::vector<double> coappearance;  // rounds with a previous partition only
};

// Re-runs one round's stage calls through the layers' public functions on a
// window [start, start + w) the driver already judged. Consecutive Replay
// calls chain: the co-appearance step observes the previous replayed
// round's partition, so replay runs of adjacent rounds. Reset() starts a
// new run.
class StageReplay {
 public:
  StageReplay(int n_sensors, const cad::core::CadOptions& options);

  void Replay(const cad::ts::MultivariateSeries& series, int start,
              SpanLog* spans, int64_t request);
  void Reset();
  const StageTimes& times() const { return times_; }

 private:
  int n_sensors_;
  cad::core::CadOptions options_;
  cad::stats::CorrelationScratch corr_scratch_;
  cad::stats::CorrelationMatrix corr_;
  cad::graph::KnnScratch knn_scratch_;
  cad::graph::Graph tsg_;
  cad::graph::LouvainWorkspace louvain_ws_;
  cad::graph::Partition partition_;
  cad::core::CoAppearanceTracker tracker_;
  std::vector<int> prev_community_;
  std::vector<uint8_t> prev_flags_;
  std::vector<uint8_t> cur_flags_;
  int n_variations_ = 0;  // the variation step's n_r, kept so it is computed
  StageTimes times_;
};

// Median cost, in microseconds, of one core::SampleWindow::Append plus
// MaterializeInto at the given shape (the per-round window copy of the
// online drivers).
double WindowCopyMicros(int n_sensors, int window, int step, SpanLog* spans);

// The per-layer metrics every workload reports; a workload fills what its
// path measures and leaves 0 for layers it does not run through.
struct LayerMetrics {
  double correlation_ms = 0, knn_ms = 0, louvain_ms = 0, tsg_edges = 0;
  double coappearance_ms = 0, round_ms = 0, driver_ms = 0;
  double window_copy_us = 0, allocs_per_round = 0, abnormal_round_share = 0;
  double stage_sum_share = 0;
  double push_us_p50 = 0, push_us_p99 = 0, fleet_round_us = 0;
  double samples_per_quantum = 0, worker_busy_share = 0, backlog_max = 0;
  double drop_share = 0;
  double metrics_text_ms = 0, metrics_text_mb = 0, healthz_ms = 0;
  double generator_late_ms = 0, generate_s = 0, trace_overhead_pct = 0;

  // Fills the four stage rows (median per round) from a replay.
  void SetStages(const StageTimes& times);
  void AddTo(Result* result) const;
};

// The stage-replay tolerance: on is5_stream the replayed stage medians must
// sum to within this share of the replayed rounds' own median round time
// (StreamEvent::round_seconds), or the traced run fails its check.
inline constexpr double kStageSumTolerance = 0.25;

// Mean of a histogram in a snapshot, in seconds (0 when absent or empty).
double HistogramMean(const cad::obs::Snapshot& snapshot, const char* name);
double CounterValue(const cad::obs::Snapshot& snapshot, const char* name);
// Mean of the observations a histogram gained between two snapshots.
double HistogramDeltaMean(const cad::obs::Snapshot& before,
                          const cad::obs::Snapshot& after, const char* name);
// Prints the engine's own stage histogram means over [before, after] as a
// "# crosscheck" line beside the replayed stage rows.
void PrintEngineStages(const cad::obs::Snapshot& before, const cad::obs::Snapshot& after);

// ---- workloads -----------------------------------------------------------

Result RunIs5Stream(const Args& args);
Result RunFleetIot(const Args& args);
Result RunIs3Batch(const Args& args);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
