// Engine throughput bench: runs the same synthetic stream through both
// detection drivers — CadDetector::Detect (batch) and StreamingCad
// (per-sample Push) — and emits BENCH_engine.json so the perf trajectory of
// future PRs is machine-readable:
//
//   rounds/sec, p50/p95/p99 round latency, steady-state heap allocations
//   per round for each driver.
//
// Allocations are measured two ways: the binary links cad_alloc_hook (a
// global operator-new replacement counting into a thread-local), giving an
// end-to-end allocs-per-round figure that includes driver overhead, and the
// `cad_round_allocs` gauge, which the engine sets from inside the round and
// therefore isolates the hot path (-1 while the gauge is not registered).
//
// The streaming driver is additionally run with the flight recorder
// disabled, so BENCH_engine.json carries the recording overhead
// (flight_recorder.overhead_pct; contract: < 5% rounds/sec and zero
// steady-state allocs/round with the recorder on).
//
// Flags:
//   --smoke             small configuration for ctest (a few seconds)
//   --out PATH          output path (default BENCH_engine.json)
//   --flight-out PATH   also dump the streaming run's flight log as JSONL
//   --lint-bin PATH     also time a tree-wide cad_lint run (src bench
//                       examples tools, so invoke from the repo root) and
//                       record the wall time in the static_analysis block
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "common/alloc_tracker.h"
#include "common/mutex.h"
#include "common/realtime.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "core/cad_detector.h"
#include "core/engine.h"
#include "core/streaming.h"
#include "datasets/generator.h"
#include "obs/metrics.h"
#include "ts/multivariate_series.h"

namespace cad::bench {
namespace {

struct EngineBenchConfig {
  int n_sensors = 48;
  int n_communities = 4;
  int train_length = 1200;
  int rounds = 1500;
  int window = 120;
  int step = 4;
  int k = 5;
  // Rounds skipped before allocation accounting starts: the first rounds pay
  // one-time capacity growth that steady state never repeats.
  int alloc_warmup_rounds = 16;

  int test_length() const { return window + (rounds - 1) * step; }
};

core::CadOptions MakeOptions(const EngineBenchConfig& config,
                             obs::Registry* registry, int flight_capacity) {
  core::CadOptions options;
  options.window = config.window;
  options.step = config.step;
  options.k = config.k;
  options.tau = 0.55;
  options.theta = 0.9;
  options.metrics_registry = registry;
  options.flight_log_capacity = flight_capacity;
  return options;
}

// The product default ring size (cad_options.h); the "recorder on" runs use
// it so the bench measures what users actually pay.
const int kDefaultFlightCapacity = core::CadOptions{}.flight_log_capacity;

// Exact empirical quantile (nearest-rank with interpolation), matching
// core::SummarizeRoundLatencies so the two drivers' tails are comparable.
double SampleQuantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

struct DriverResult {
  int rounds = 0;
  double rounds_per_sec = 0.0;
  double p50_round_seconds = 0.0;
  double p95_round_seconds = 0.0;
  double p99_round_seconds = 0.0;
  // Heap allocations per steady-state round with the hook window scoped to
  // the round loop only (operator-new hook; excludes warm-up rounds and
  // anomaly open/close transitions). 0 by contract; -1 without the hook.
  double allocs_per_round = -1.0;
  // Batch only: allocations of the whole Detect() call amortized over the
  // rounds — warm-up, per-round latency/trace collection, report assembly
  // and telemetry snapshot included. This is *harness-side* cost, which is
  // why it is nonzero while allocs_per_round and the gauge are 0; kept as
  // its own field so the two windows can never be conflated again.
  double detect_call_allocs_per_round = -1.0;
  // Last value of the engine's cad_round_allocs gauge; -1 if unregistered.
  double round_allocs_gauge = -1.0;
  double total_seconds = 0.0;
};

void FillLatency(DriverResult* result, std::vector<double> seconds) {
  result->rounds = static_cast<int>(seconds.size());
  double sum = 0.0;
  for (double s : seconds) sum += s;
  if (sum > 0.0) {
    result->rounds_per_sec = static_cast<double>(seconds.size()) / sum;
  }
  std::sort(seconds.begin(), seconds.end());
  result->p50_round_seconds = SampleQuantile(seconds, 0.50);
  result->p95_round_seconds = SampleQuantile(seconds, 0.95);
  result->p99_round_seconds = SampleQuantile(seconds, 0.99);
}

double GaugeValue(const obs::Snapshot& snapshot, const char* name) {
  const obs::GaugeSample* sample = snapshot.FindGauge(name);
  return sample != nullptr ? sample->value : -1.0;
}

// Steady-state allocations per round with the hook window bracketing only
// the engine: a bare DetectionEngine is warmed up and fed the same samples
// the batch driver pushes, so everything CadDetector adds around the rounds
// (latency vectors, traces, report assembly) stays outside the measurement.
// Warm-up rounds and anomaly open/close transitions are excluded — those
// allocate by design (capacity growth, anomaly records).
double ScopedEngineAllocsPerRound(const EngineBenchConfig& config,
                                  const ts::MultivariateSeries& train,
                                  const ts::MultivariateSeries& test) {
  if (!common::AllocHookInstalled()) return -1.0;
  obs::Registry registry;
  core::DetectionEngine engine(
      test.n_sensors(), MakeOptions(config, &registry, kDefaultFlightCapacity));
  if (!engine.WarmUp(train).ok()) {
    std::fprintf(stderr, "engine_bench: engine warm-up failed\n");
    std::exit(1);
  }
  std::vector<double> sample(test.n_sensors());
  int64_t steady_allocs = 0;
  int steady_rounds = 0;
  bool prev_abnormal = false;
  for (int t = 0; t < test.length(); ++t) {
    for (int i = 0; i < test.n_sensors(); ++i) sample[i] = test.value(i, t);
    const int64_t allocs_before = common::ThreadAllocCount();
    const std::optional<core::EngineRound> round = engine.Push(sample);
    const int64_t allocs_after = common::ThreadAllocCount();
    if (!round.has_value()) continue;
    const bool transition = round->abnormal || prev_abnormal;
    prev_abnormal = round->abnormal;
    if (round->round >= config.alloc_warmup_rounds && !transition) {
      steady_allocs += allocs_after - allocs_before;
      ++steady_rounds;
    }
  }
  if (steady_rounds == 0) return -1.0;
  return static_cast<double>(steady_allocs) /
         static_cast<double>(steady_rounds);
}

DriverResult RunBatch(const EngineBenchConfig& config,
                      const ts::MultivariateSeries& train,
                      const ts::MultivariateSeries& test) {
  obs::Registry registry;
  core::CadDetector detector(
      MakeOptions(config, &registry, kDefaultFlightCapacity));

  Stopwatch watch;
  const int64_t allocs_before = common::ThreadAllocCount();
  const core::DetectionReport report =
      detector.Detect(test, &train).ValueOrDie();
  const int64_t allocs_after = common::ThreadAllocCount();

  DriverResult result;
  result.total_seconds = watch.ElapsedSeconds();
  result.rounds = static_cast<int>(report.rounds.size());
  if (report.round_latency.mean > 0.0) {
    result.rounds_per_sec = 1.0 / report.round_latency.mean;
  }
  result.p50_round_seconds = report.round_latency.p50;
  result.p95_round_seconds = report.round_latency.p95;
  result.p99_round_seconds = report.round_latency.p99;
  // Whole-call figure: warmup + all rounds + report assembly amortized over
  // the rounds. Harness-side by definition — compare it against the scoped
  // figure below to see what the driver (not the hot path) costs.
  if (common::AllocHookInstalled() && result.rounds > 0) {
    result.detect_call_allocs_per_round =
        static_cast<double>(allocs_after - allocs_before) /
        static_cast<double>(result.rounds);
  }
  result.allocs_per_round = ScopedEngineAllocsPerRound(config, train, test);
  result.round_allocs_gauge = GaugeValue(report.telemetry, "cad_round_allocs");
  return result;
}

DriverResult RunStreaming(const EngineBenchConfig& config,
                          const ts::MultivariateSeries& train,
                          const ts::MultivariateSeries& test,
                          int flight_capacity,
                          const std::string& flight_out) {
  obs::Registry registry;
  core::StreamingCad streaming(
      test.n_sensors(), MakeOptions(config, &registry, flight_capacity));
  if (!streaming.WarmUp(train).ok()) {
    std::fprintf(stderr, "engine_bench: streaming warm-up failed\n");
    std::exit(1);
  }

  std::vector<double> sample(test.n_sensors());
  std::vector<double> round_seconds;
  round_seconds.reserve(config.rounds);
  int64_t steady_allocs = 0;
  int steady_rounds = 0;
  // Reused across rounds: the event's vectors keep their capacity, so a
  // steady-state Push is allocation-free end to end. (The old
  // optional-returning overload built fresh vectors inside the measured
  // window — harness-side allocations that showed up as ~14 allocs/round
  // while the engine's own gauge was 0.)
  core::StreamEvent event;
  bool prev_abnormal = false;

  Stopwatch watch;
  for (int t = 0; t < test.length(); ++t) {
    for (int i = 0; i < test.n_sensors(); ++i) sample[i] = test.value(i, t);
    const int64_t allocs_before = common::ThreadAllocCount();
    const bool completed = streaming.Push(sample, &event).ValueOrDie();
    const int64_t allocs_after = common::ThreadAllocCount();
    if (!completed) continue;
    round_seconds.push_back(event.round_seconds);
    // The measured Push delta covers ring-buffer upkeep, the round, and
    // filling the reused event — the whole per-round streaming cost. Anomaly
    // open/close transitions are excluded like in the scoped batch loop.
    const bool transition = event.abnormal || prev_abnormal;
    prev_abnormal = event.abnormal;
    if (static_cast<int>(round_seconds.size()) > config.alloc_warmup_rounds &&
        !transition) {
      steady_allocs += allocs_after - allocs_before;
      ++steady_rounds;
    }
  }

  DriverResult result;
  result.total_seconds = watch.ElapsedSeconds();
  FillLatency(&result, std::move(round_seconds));
  if (common::AllocHookInstalled() && steady_rounds > 0) {
    result.allocs_per_round = static_cast<double>(steady_allocs) /
                              static_cast<double>(steady_rounds);
  }
  result.round_allocs_gauge =
      GaugeValue(registry.TakeSnapshot(), "cad_round_allocs");

  if (!flight_out.empty()) {
    std::FILE* file = std::fopen(flight_out.c_str(), "w");
    if (file == nullptr) {
      std::fprintf(stderr, "engine_bench: cannot open %s\n",
                   flight_out.c_str());
      std::exit(1);
    }
    const std::string jsonl = streaming.DumpFlightLogJsonl();
    std::fwrite(jsonl.data(), 1, jsonl.size(), file);
    std::fclose(file);
    std::fprintf(stderr, "[engine_bench] wrote flight log %s\n",
                 flight_out.c_str());
  }
  return result;
}

void PrintDriverJson(std::FILE* out, const char* name,
                     const DriverResult& result, bool trailing_comma) {
  std::fprintf(out,
               "  \"%s\": {\n"
               "    \"rounds\": %d,\n"
               "    \"rounds_per_sec\": %.3f,\n"
               "    \"p50_round_seconds\": %.9f,\n"
               "    \"p95_round_seconds\": %.9f,\n"
               "    \"p99_round_seconds\": %.9f,\n"
               "    \"allocs_per_round\": %.3f,\n"
               "    \"detect_call_allocs_per_round\": %.3f,\n"
               "    \"round_allocs_gauge\": %.1f,\n"
               "    \"total_seconds\": %.6f\n"
               "  }%s\n",
               name, result.rounds, result.rounds_per_sec,
               result.p50_round_seconds, result.p95_round_seconds,
               result.p99_round_seconds, result.allocs_per_round,
               result.detect_call_allocs_per_round, result.round_allocs_gauge,
               result.total_seconds, trailing_comma ? "," : "");
}

int Main(int argc, char** argv) {
  cad::common::LinkAllocHook();

  bool smoke = false;
  std::string out_path = "BENCH_engine.json";
  std::string flight_out;
  std::string lint_bin;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--flight-out") == 0 && i + 1 < argc) {
      flight_out = argv[++i];
    } else if (std::strcmp(argv[i], "--lint-bin") == 0 && i + 1 < argc) {
      lint_bin = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: engine_bench [--smoke] [--out PATH] "
                   "[--flight-out PATH] [--lint-bin PATH]\n");
      return 2;
    }
  }

  EngineBenchConfig config;
  if (smoke) {
    config.n_sensors = 16;
    config.n_communities = 3;
    config.train_length = 400;
    config.rounds = 80;
    config.window = 80;
    config.k = 3;
    config.alloc_warmup_rounds = 8;
  }

  Rng rng(2026);
  datasets::GeneratorOptions gen_options;
  gen_options.n_sensors = config.n_sensors;
  gen_options.n_communities = config.n_communities;
  datasets::SensorNetworkGenerator generator(gen_options, &rng);
  const ts::MultivariateSeries train =
      generator.Generate(config.train_length, &rng);
  const ts::MultivariateSeries test =
      generator.Generate(config.test_length(), &rng);

  std::fprintf(stderr, "[engine_bench] %d sensors, window %d, step %d, %d rounds%s\n",
               config.n_sensors, config.window, config.step, config.rounds,
               smoke ? " (smoke)" : "");

  const DriverResult batch = RunBatch(config, train, test);
  std::fprintf(stderr, "[engine_bench] batch:  %.0f rounds/sec, %.2f allocs/round\n",
               batch.rounds_per_sec, batch.allocs_per_round);

  // Flight-recorder overhead protocol: one discarded warm-up pass (the first
  // run pays cold caches and page faults that neither config should own),
  // then three repetitions of each config, interleaved in alternating order
  // so machine drift penalizes neither side, keeping each config's best
  // repetition. Measuring the two configs back to back in a fixed order used
  // to report a *negative* overhead: the second config inherited a warm
  // machine.
  (void)RunStreaming(config, train, test, kDefaultFlightCapacity, "");
  DriverResult stream;      // recorder on (ring capacity = product default)
  DriverResult stream_off;  // recorder off (ring capacity = 0)
  constexpr int kRecorderReps = 3;
  for (int rep = 0; rep < kRecorderReps; ++rep) {
    DriverResult on_rep;
    DriverResult off_rep;
    if (rep % 2 == 0) {
      on_rep = RunStreaming(config, train, test, kDefaultFlightCapacity,
                            rep == 0 ? flight_out : "");
      off_rep = RunStreaming(config, train, test, /*flight_capacity=*/0, "");
    } else {
      off_rep = RunStreaming(config, train, test, /*flight_capacity=*/0, "");
      on_rep = RunStreaming(config, train, test, kDefaultFlightCapacity, "");
    }
    if (on_rep.rounds_per_sec > stream.rounds_per_sec) stream = on_rep;
    if (off_rep.rounds_per_sec > stream_off.rounds_per_sec) {
      stream_off = off_rep;
    }
  }
  std::fprintf(stderr, "[engine_bench] stream: %.0f rounds/sec, %.2f allocs/round\n",
               stream.rounds_per_sec, stream.allocs_per_round);
  const double overhead_pct =
      stream_off.rounds_per_sec > 0.0
          ? (1.0 - stream.rounds_per_sec / stream_off.rounds_per_sec) * 100.0
          : 0.0;
  std::fprintf(stderr,
               "[engine_bench] flight recorder: %.0f -> %.0f rounds/sec "
               "(%.2f%% overhead, best of %d interleaved)\n",
               stream_off.rounds_per_sec, stream.rounds_per_sec, overhead_pct,
               kRecorderReps);

  // Regression gate for the zero-allocation contract: with the hook linked,
  // the *scoped* round-loop windows must stay far below one allocation per
  // steady round. The bound is not exactly zero because generator data keeps
  // discovering co-appearance keys past any fixed warm-up prefix (sparse
  // capacity high-water growth, mirrored by the cad_round_allocs gauge and
  // measured at ~0.15/round); the exact-zero proof on saturated data lives in
  // engine_alloc_test. What this gate catches is harness-window leaks like
  // the event-vector copies that once inflated the figure to ~14/round.
  // (The whole-call detect_call_allocs_per_round figure is expected to be
  // nonzero — that is harness cost, reported separately.)
  constexpr double kMaxSteadyAllocsPerRound = 1.0;
  if (common::AllocHookInstalled() &&
      (batch.allocs_per_round > kMaxSteadyAllocsPerRound ||
       stream.allocs_per_round > kMaxSteadyAllocsPerRound)) {
    std::fprintf(stderr,
                 "[engine_bench] FAIL: steady-state round-loop allocations "
                 "(batch %.3f/round, stream %.3f/round; gate is %.1f)\n",
                 batch.allocs_per_round, stream.allocs_per_round,
                 kMaxSteadyAllocsPerRound);
    return 1;
  }

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "engine_bench: cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out,
               "{\n"
               "  \"bench\": \"engine\",\n"
               "  \"smoke\": %s,\n"
               "  \"config\": {\n"
               "    \"n_sensors\": %d,\n"
               "    \"n_communities\": %d,\n"
               "    \"train_length\": %d,\n"
               "    \"test_length\": %d,\n"
               "    \"window\": %d,\n"
               "    \"step\": %d,\n"
               "    \"k\": %d\n"
               "  },\n",
               smoke ? "true" : "false", config.n_sensors, config.n_communities,
               config.train_length, config.test_length(), config.window,
               config.step, config.k);
  PrintDriverJson(out, "batch", batch, /*trailing_comma=*/true);
  PrintDriverJson(out, "stream", stream, /*trailing_comma=*/true);
  std::fprintf(out,
               "  \"flight_recorder\": {\n"
               "    \"capacity\": %d,\n"
               "    \"protocol\": \"interleaved best-of-%d per config after "
               "one discarded warm-up run\",\n"
               "    \"recorder_off_rounds_per_sec\": %.3f,\n"
               "    \"recorder_on_rounds_per_sec\": %.3f,\n"
               "    \"overhead_pct\": %.3f,\n"
               "    \"overhead_pct_definition\": \"(1 - recorder_on_rounds_per_sec"
               " / recorder_off_rounds_per_sec) * 100\",\n"
               "    \"recorder_on_allocs_per_round\": %.3f,\n"
               "    \"recorder_on_round_allocs_gauge\": %.1f\n"
               "  },\n",
               kDefaultFlightCapacity, kRecorderReps, stream_off.rounds_per_sec,
               stream.rounds_per_sec, overhead_pct, stream.allocs_per_round,
               stream.round_allocs_gauge);
  // Perf contract for the realtime annotations (src/common/realtime.h):
  // the CAD_REALTIME family must cost nothing. Under GCC the macros are
  // textual no-ops (attributes_active = false); under Clang 20+ the
  // [[clang::nonblocking]] attributes affect diagnostics only, never
  // codegen. Either way the batch/stream throughput above IS the annotated
  // build's throughput — this block records it alongside the flag so a
  // run on any toolchain documents which regime it measured.
  std::fprintf(out,
               "  \"realtime_annotations\": {\n"
               "    \"attributes_active\": %s,\n"
               "    \"enforcement\": \"%s\",\n"
               "    \"batch_rounds_per_sec\": %.3f,\n"
               "    \"stream_rounds_per_sec\": %.3f,\n"
               "    \"stream_round_allocs_gauge\": %.1f\n"
               "  },\n",
               CAD_REALTIME_ATTRIBUTES_ENABLED ? "true" : "false",
               CAD_REALTIME_ATTRIBUTES_ENABLED
                   ? "clang function-effects + cad_lint CL007/CL008"
                   : "cad_lint CL007/CL008 (attributes compiled out)",
               batch.rounds_per_sec, stream.rounds_per_sec,
               stream.round_allocs_gauge);
  // Same pattern for the deadlock contract (common/mutex.h): below
  // CAD_CHECK_LEVEL=full the lock-order tracker is compiled out and
  // Mutex::lock *is* std::mutex::lock, so the release-build throughput
  // above is by construction the tracker-free number. The block records
  // which regime this run measured so a tracker-armed (`deadlock` preset)
  // run is never mistaken for the perf baseline.
  std::fprintf(out,
               "  \"lock_tracker\": {\n"
               "    \"tracker_active\": %s,\n"
               "    \"enforcement\": \"%s\",\n"
               "    \"stream_rounds_per_sec\": %.3f,\n"
               "    \"stream_round_allocs_gauge\": %.1f\n"
               "  },\n",
               common::LockOrderTrackerActive() ? "true" : "false",
               common::LockOrderTrackerActive()
                   ? "runtime acquired-after graph + cad_lint CL009-CL011"
                   : "cad_lint CL009-CL011 (tracker compiled out)",
               stream.rounds_per_sec, stream.round_allocs_gauge);
  // Static analysis is part of the perf story too: the tree-wide cad_lint
  // pass gates every ctest run, so its wall time is a cost every
  // contributor pays. Measured only when --lint-bin is given (the smoke
  // test has no stable path to the binary).
  if (!lint_bin.empty()) {
    const std::string command =
        lint_bin + " src bench examples tools > /dev/null 2>&1";
    const auto lint_start = std::chrono::steady_clock::now();
    const int lint_status = std::system(command.c_str());
    const double lint_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      lint_start)
            .count();
    std::fprintf(stderr,
                 "[engine_bench] cad_lint tree pass: %.3f s (%s)\n",
                 lint_seconds, lint_status == 0 ? "clean" : "FINDINGS");
    std::fprintf(out,
                 "  \"static_analysis\": {\n"
                 "    \"cad_lint_tree_wall_seconds\": %.3f,\n"
                 "    \"cad_lint_clean\": %s\n"
                 "  }\n",
                 lint_seconds, lint_status == 0 ? "true" : "false");
  } else {
    std::fprintf(out,
                 "  \"static_analysis\": {\n"
                 "    \"cad_lint_tree_wall_seconds\": null,\n"
                 "    \"cad_lint_clean\": null\n"
                 "  }\n");
  }
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::fprintf(stderr, "[engine_bench] wrote %s\n", out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace cad::bench

int main(int argc, char** argv) { return cad::bench::Main(argc, argv); }
