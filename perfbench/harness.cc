#include "harness.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <sstream>
#include <thread>
#include <tuple>

#include "common/alloc_tracker.h"
#include "core/sample_window.h"
#include "eval/adjust.h"

namespace perfbench {

void Result::Print() const {
  for (const Metric& metric : metrics) {
    std::printf("# metric %s = %.6g %s (n=%lld)\n", metric.name.c_str(), metric.value,
                metric.unit.c_str(), static_cast<long long>(metric.samples));
  }
  for (const std::string& failure : check_failures) {
    std::printf("check failed: %s\n", failure.c_str());
  }
  std::string json = "{\"correct\":";
  json += correct ? "true" : "false";
  json += ",\"attempted\":" + std::to_string(attempted);
  json += ",\"failed\":" + std::to_string(failed);
  json += ",\"metrics\":{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ',';
    char value[64];
    // %.17g keeps every digit the measurement has.
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    json += "\"" + metrics[i].name + "\":{\"value\":" + value +
            ",\"unit\":\"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index =
      static_cast<size_t>(std::clamp(rank, 1.0, static_cast<double>(values.size()))) - 1;
  return values[index];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  return 0.5 * (*std::max_element(values.begin(), values.begin() + mid) + upper);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

std::vector<double> QuietLatencies(const std::vector<double>& latencies, int block) {
  const size_t n = latencies.size();
  const size_t blocks = std::max<size_t>(1, n / static_cast<size_t>(std::max(block, 1)));
  auto begin = [&](size_t b) { return latencies.begin() + static_cast<ptrdiff_t>(b * n / blocks); };
  std::vector<double> medians;
  for (size_t b = 0; b < blocks; ++b) medians.push_back(Median({begin(b), begin(b + 1)}));
  const double limit = Quantile(medians, 0.1) * (1.0 + kQuietTolerance);
  std::vector<uint8_t> quiet(blocks, 0);
  for (size_t b = 0; b < blocks; ++b) quiet[b] = medians[b] <= limit;
  std::vector<uint8_t> interior(blocks, 0);
  for (size_t b = 0; b < blocks; ++b) {
    interior[b] = quiet[b] && (b == 0 || quiet[b - 1]) && (b + 1 == blocks || quiet[b + 1]);
  }
  const bool any_interior = std::find(interior.begin(), interior.end(), 1) != interior.end();
  std::vector<double> kept;
  for (size_t b = 0; b < blocks; ++b) {
    if (any_interior ? interior[b] : quiet[b]) kept.insert(kept.end(), begin(b), begin(b + 1));
  }
  return kept;
}

namespace {

bool PinTo(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0;
}

// Seconds one pass of a fixed L1-resident multiply-add kernel takes on the
// current CPU, the median of three passes.
double ProbeSeconds() {
  constexpr int kValues = 4096;
  static thread_local std::vector<double> values(kValues, 1.0);
  volatile double sink = 0.0;
  std::vector<double> passes;
  for (int pass = 0; pass < 3; ++pass) {
    const Clock::time_point start = Clock::now();
    double sum = 0.0;
    for (int rep = 0; rep < 64; ++rep) {
      for (int i = 0; i < kValues; ++i) sum += values[i] * values[(i * 7 + rep) & (kValues - 1)];
    }
    sink = sink + sum;
    passes.push_back(SecondsBetween(start, Clock::now()));
  }
  return Median(std::move(passes));
}

}  // namespace

QuietCore::QuietCore() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus_.push_back(cpu);
  }
}

void QuietCore::Pick() {
  if (cpus_.size() < 2) return;
  // The current CPU goes last, so staying on it costs no extra migration.
  std::vector<int> order = cpus_;
  std::stable_partition(order.begin(), order.end(), [&](int cpu) { return cpu != current_; });
  int best = -1;
  double best_seconds = 0.0;
  double current_seconds = 0.0;
  for (int cpu : order) {
    if (!PinTo(cpu)) return;
    const double seconds = ProbeSeconds();
    if (cpu == current_) current_seconds = seconds;
    if (best < 0 || seconds < best_seconds) {
      best = cpu;
      best_seconds = seconds;
    }
  }
  if (current_ < 0 || best_seconds < current_seconds * (1.0 - kSwitchMargin)) {
    moves_ += current_ >= 0 && best != current_ ? 1 : 0;
    current_ = best;
  }
  PinTo(current_);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void PrintBuildInfo() {
  std::printf("# compiler: %s\n", PERFBENCH_COMPILER);
  std::printf("# build_type: %s\n", PERFBENCH_BUILD_TYPE);
  std::printf("# cxx_flags: %s\n", PERFBENCH_CXX_FLAGS);
  std::printf("# cad_check_level: %s\n", PERFBENCH_CHECK_LEVEL);
  std::printf("# alloc_hook: %s\n",
              cad::common::AllocHookInstalled() ? "linked" : "absent");
  std::printf("# nproc: %u\n", std::thread::hardware_concurrency());
}

// ---- scoring -------------------------------------------------------------

namespace {

void Accumulate(const cad::eval::Confusion& c, cad::eval::Confusion* sum) {
  sum->tp += c.tp;
  sum->fp += c.fp;
  sum->fn += c.fn;
  sum->tn += c.tn;
}

}  // namespace

void Scores::Add(const cad::eval::Labels& pred, const cad::eval::Labels& truth) {
  using cad::eval::Adjustment;
  Accumulate(cad::eval::Count(cad::eval::Adjust(Adjustment::kPointAdjust, pred, truth), truth),
             &pa);
  Accumulate(cad::eval::Count(
                 cad::eval::Adjust(Adjustment::kDelayPointAdjust, pred, truth), truth),
             &dpa);
}

double Scores::f1_pa() const { return cad::eval::FromConfusion(pa).f1; }
double Scores::f1_dpa() const { return cad::eval::FromConfusion(dpa).f1; }

void EndToEnd::AddTo(Result* result) const {
  const int64_t points = scores.pa.tp + scores.pa.fp + scores.pa.fn + scores.pa.tn;
  result->Add("verdict_p50_ms", verdict_p50_s * 1e3, "ms", verdicts);
  result->Add("verdict_p95_ms", verdict_p95_s * 1e3, "ms", verdicts);
  result->Add("samples_per_s", samples_per_s, "samples/s", samples);
  result->Add("f1_pa", scores.f1_pa(), "ratio", points);
  result->Add("f1_dpa", scores.f1_dpa(), "ratio", points);
  result->Add("setup_s", Median(setup_seconds), "s",
              static_cast<int64_t>(setup_seconds.size()));
  result->Add("peak_rss_mb", PeakRssMb(), "MB");
}

cad::eval::Labels LabelsFromRounds(const std::vector<int>& round_ends,
                                   const std::vector<uint8_t>& abnormal,
                                   const cad::core::CadOptions& options,
                                   int length) {
  cad::eval::Labels labels(static_cast<size_t>(length), 0);
  const int marked = std::max(
      options.step,
      static_cast<int>(options.window * options.window_mark_fraction));
  for (size_t r = 0; r < round_ends.size(); ++r) {
    if (!abnormal[r]) continue;
    const int end = round_ends[r];
    const int begin = r == 0 ? end - options.window
                             : std::max(end - options.window, end - marked);
    for (int t = std::max(0, begin); t < end && t < length; ++t) labels[t] = 1;
  }
  return labels;
}

bool SameAnomalies(const std::vector<cad::core::Anomaly>& a,
                   const std::vector<cad::core::Anomaly>& b) {
  auto fields = [](const cad::core::Anomaly& x) {
    return std::tie(x.sensors, x.first_round, x.last_round, x.start_time, x.end_time,
                    x.detection_time);
  };
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [&](const cad::core::Anomaly& x, const cad::core::Anomaly& y) {
                      return fields(x) == fields(y);
                    });
}

double SumSeries(const std::string& text, const std::string& name) {
  double sum = 0.0;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (line.compare(0, name.size(), name) != 0) continue;
    const char next = line.size() > name.size() ? line[name.size()] : '\0';
    if (next != '{' && next != ' ') continue;
    const size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    sum += std::strtod(line.c_str() + space + 1, nullptr);
  }
  return sum;
}

std::vector<double> SampleMajor(const cad::ts::MultivariateSeries& series) {
  const int n = series.n_sensors();
  std::vector<double> rows(static_cast<size_t>(n) * series.length());
  for (int i = 0; i < n; ++i) {
    const std::span<const double> values = series.sensor(i);
    for (int t = 0; t < series.length(); ++t) {
      rows[static_cast<size_t>(t) * n + i] = values[t];
    }
  }
  return rows;
}

// ---- spans ---------------------------------------------------------------

int64_t SpanLog::Record(const char* name, Clock::time_point start,
                        Clock::time_point end, int64_t request,
                        int64_t parent, int64_t id) {
  if (!enabled_) return 0;
  const uint64_t thread = std::hash<std::thread::id>{}(std::this_thread::get_id());
  std::lock_guard<std::mutex> lock(mu_);
  if (id == 0) id = next_id_++;
  spans_.push_back({name, start, end, id, parent, request, thread});
  return id;
}

int64_t SpanLog::NextId() {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

size_t SpanLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

double SpanLog::RecordCostSeconds() {
  constexpr int kSpans = 20000;
  SpanLog scratch(true);
  scratch.spans_.reserve(kSpans);
  const Clock::time_point start = Clock::now();
  for (int i = 0; i < kSpans; ++i) {
    const Clock::time_point a = Clock::now();
    scratch.Record("calibration", a, Clock::now(), i);
  }
  return SecondsBetween(start, Clock::now()) / kSpans;
}

void SpanLog::WriteJsonl(const std::string& path) const {
  if (!enabled_ || path.empty()) return;
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write spans to %s\n", path.c_str());
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (const Span& span : spans_) {
    const double ts = std::chrono::duration<double, std::micro>(span.start - origin_).count();
    const double dur = std::chrono::duration<double, std::micro>(span.end - span.start).count();
    std::fprintf(file,
                 "{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,"
                 "\"tid\":%llu,\"args\":{\"id\":%lld,\"parent\":%lld,\"request\":%lld}}\n",
                 span.name, ts, dur, static_cast<unsigned long long>(span.thread % 100000),
                 static_cast<long long>(span.id), static_cast<long long>(span.parent),
                 static_cast<long long>(span.request));
  }
  std::fclose(file);
}

// ---- per-stage replay ----------------------------------------------------

StageReplay::StageReplay(int n_sensors, const cad::core::CadOptions& options)
    : n_sensors_(n_sensors),
      options_(options),
      tracker_(n_sensors,
               cad::core::CoAppearanceOptions{
                   .normalization = options.rc_global_normalization
                                        ? cad::core::RcNormalization::kGlobal
                                        : cad::core::RcNormalization::kCommunity,
                   .window = options.rc_window}),
      prev_flags_(n_sensors, 0),
      cur_flags_(n_sensors, 0) {}

void StageReplay::Reset() {
  tracker_.Reset();
  prev_community_.clear();
  std::fill(prev_flags_.begin(), prev_flags_.end(), 0);
}

void StageReplay::Replay(const cad::ts::MultivariateSeries& series, int start,
                         SpanLog* spans, int64_t request) {
  const int64_t round_id = spans->NextId();
  const Clock::time_point t0 = Clock::now();
  cad::stats::WindowCorrelationMatrixInto(
      series, start, options_.window,
      options_.use_spearman ? cad::stats::CorrelationKind::kSpearman
                            : cad::stats::CorrelationKind::kPearson,
      options_.n_threads, &corr_scratch_, &corr_);
  const Clock::time_point t1 = Clock::now();
  cad::graph::BuildKnnGraphInto(
      corr_, cad::graph::KnnGraphOptions{.k = options_.k, .tau = options_.tau},
      &knn_scratch_, &tsg_);
  const Clock::time_point t2 = Clock::now();
  cad::graph::LouvainInto(tsg_, {}, &louvain_ws_, &partition_);
  const Clock::time_point t3 = Clock::now();
  // Co-appearance against the previous replayed round, then the variation
  // step: outliers are RC < theta, n_r counts flips against the last set.
  const bool observed = !prev_community_.empty();
  if (observed) tracker_.Observe(prev_community_, partition_.community);
  n_variations_ = 0;
  for (int v = 0; v < n_sensors_; ++v) {
    cur_flags_[v] = tracker_.ratio(v) < options_.theta ? 1 : 0;
    n_variations_ += cur_flags_[v] != prev_flags_[v] ? 1 : 0;
  }
  const Clock::time_point t4 = Clock::now();
  std::swap(prev_flags_, cur_flags_);
  prev_community_.assign(partition_.community.begin(), partition_.community.end());

  times_.correlation.push_back(SecondsBetween(t0, t1));
  times_.knn.push_back(SecondsBetween(t1, t2));
  times_.louvain.push_back(SecondsBetween(t2, t3));
  if (observed) times_.coappearance.push_back(SecondsBetween(t3, t4));
  if (spans->enabled()) {
    spans->Record("stats.correlation", t0, t1, request, round_id);
    spans->Record("graph.knn", t1, t2, request, round_id);
    spans->Record("graph.louvain", t2, t3, request, round_id);
    if (observed) spans->Record("core.coappearance", t3, t4, request, round_id);
    spans->Record("replay.round", t0, t4, request, 0, round_id);
  }
}

double WindowCopyMicros(int n_sensors, int window, int step, SpanLog* spans) {
  cad::core::SampleWindow ingest(n_sensors, window, step);
  cad::ts::MultivariateSeries out(n_sensors, window);
  std::vector<double> sample(static_cast<size_t>(n_sensors));
  for (int t = 0; t < window; ++t) {
    for (int i = 0; i < n_sensors; ++i) sample[i] = std::sin(0.1 * t + i);
    (void)ingest.Append(sample);
  }
  // Enough repetitions for ~20 ms of work at any shape.
  const int64_t cells = static_cast<int64_t>(n_sensors) * window;
  const int reps = static_cast<int>(std::clamp<int64_t>(20'000'000 / std::max<int64_t>(cells, 1) / 4, 16, 2000));
  std::vector<double> micros;
  micros.reserve(reps);
  for (int r = 0; r < reps; ++r) {
    sample[r % n_sensors] += 1e-3;
    const Clock::time_point a = Clock::now();
    (void)ingest.Append(sample);
    ingest.MaterializeInto(&out);
    const Clock::time_point b = Clock::now();
    micros.push_back(SecondsBetween(a, b) * 1e6);
    if (r % 64 == 0) spans->Record("core.window_copy", a, b, r);
  }
  return Median(micros);
}

// ---- metrics -------------------------------------------------------------

void LayerMetrics::SetStages(const StageTimes& times) {
  // Medians: each replay run's first round also grows the scratch buffers.
  correlation_ms = Median(times.correlation) * 1e3;
  knn_ms = Median(times.knn) * 1e3;
  louvain_ms = Median(times.louvain) * 1e3;
  coappearance_ms = Median(times.coappearance) * 1e3;
}

void LayerMetrics::AddTo(Result* result) const {
  result->Add("stats.correlation_ms", correlation_ms, "ms");
  result->Add("graph.knn_ms", knn_ms, "ms");
  result->Add("graph.louvain_ms", louvain_ms, "ms");
  result->Add("graph.tsg_edges", tsg_edges, "count");
  result->Add("core.coappearance_ms", coappearance_ms, "ms");
  result->Add("core.round_ms", round_ms, "ms");
  result->Add("core.driver_ms", driver_ms, "ms");
  result->Add("core.window_copy_us", window_copy_us, "us");
  result->Add("core.allocs_per_round", allocs_per_round, "count");
  result->Add("core.abnormal_round_share", abnormal_round_share, "ratio");
  result->Add("core.stage_sum_share", stage_sum_share, "ratio");
  result->Add("fleet.push_us_p50", push_us_p50, "us");
  result->Add("fleet.push_us_p99", push_us_p99, "us");
  result->Add("fleet.round_us", fleet_round_us, "us");
  result->Add("fleet.samples_per_quantum", samples_per_quantum, "count");
  result->Add("fleet.worker_busy_share", worker_busy_share, "ratio");
  result->Add("fleet.backlog_max", backlog_max, "count");
  result->Add("fleet.drop_share", drop_share, "ratio");
  result->Add("obs.metrics_text_ms", metrics_text_ms, "ms");
  result->Add("obs.metrics_text_mb", metrics_text_mb, "MB");
  result->Add("obs.healthz_ms", healthz_ms, "ms");
  result->Add("harness.generator_late_ms", generator_late_ms, "ms");
  result->Add("harness.generate_s", generate_s, "s");
  result->Add("harness.trace_overhead_pct", trace_overhead_pct, "%");
}

double HistogramMean(const cad::obs::Snapshot& snapshot, const char* name) {
  const cad::obs::HistogramSample* histogram = snapshot.FindHistogram(name);
  return histogram != nullptr ? histogram->mean() : 0.0;
}

double CounterValue(const cad::obs::Snapshot& snapshot, const char* name) {
  const cad::obs::CounterSample* counter = snapshot.FindCounter(name);
  return counter != nullptr ? static_cast<double>(counter->value) : 0.0;
}

double HistogramDeltaMean(const cad::obs::Snapshot& before,
                          const cad::obs::Snapshot& after, const char* name) {
  const cad::obs::HistogramSample* a = before.FindHistogram(name);
  const cad::obs::HistogramSample* b = after.FindHistogram(name);
  if (b == nullptr) return 0.0;
  const double count = static_cast<double>(b->count()) -
                       (a != nullptr ? static_cast<double>(a->count()) : 0.0);
  const double sum = b->sum - (a != nullptr ? a->sum : 0.0);
  return count > 0 ? sum / count : 0.0;
}

void PrintEngineStages(const cad::obs::Snapshot& before, const cad::obs::Snapshot& after) {
  std::printf("# crosscheck engine histograms (ms): correlation %.4f knn %.4f louvain %.4f "
              "coappearance %.4f round %.4f\n",
              HistogramDeltaMean(before, after, "cad_correlation_seconds") * 1e3,
              HistogramDeltaMean(before, after, "cad_knn_build_seconds") * 1e3,
              HistogramDeltaMean(before, after, "cad_louvain_seconds") * 1e3,
              HistogramDeltaMean(before, after, "cad_coappearance_seconds") * 1e3,
              HistogramDeltaMean(before, after, "cad_round_seconds") * 1e3);
}

}  // namespace perfbench
