// Micro benchmarks (google-benchmark) for CAD's per-round building blocks:
// window correlation matrix, TSG construction, Louvain, and a complete
// OutlierDetection round — the costs behind Table VII's TPR and the O(n log n)
// claim of Section IV-F.
//
// Accepts --telemetry-out <path> in addition to the google-benchmark flags:
// the run then records spans (tracer enabled) and dumps the metrics registry
// + trace next to the benchmark output (see DESIGN.md "Observability").
#include <benchmark/benchmark.h>

#include <cstring>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/engine.h"
#include "core/round_processor.h"
#include "datasets/generator.h"
#include "graph/knn_graph.h"
#include "graph/louvain.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stats/correlation.h"

namespace cad {
namespace {

ts::MultivariateSeries MakeSeries(int n_sensors, int length) {
  Rng rng(42);
  datasets::GeneratorOptions options;
  options.n_sensors = n_sensors;
  options.n_communities = std::max(2, n_sensors / 12);
  datasets::SensorNetworkGenerator generator(options, &rng);
  return generator.Generate(length, &rng);
}

constexpr int kWindow = 64;

void BM_WindowCorrelationMatrix(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const ts::MultivariateSeries series = MakeSeries(n, kWindow * 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::WindowCorrelationMatrix(series, 0, kWindow));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_WindowCorrelationMatrix)->Arg(26)->Arg(128)->Arg(512)->Complexity();

void BM_BuildKnnGraph(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const ts::MultivariateSeries series = MakeSeries(n, kWindow * 2);
  const stats::CorrelationMatrix corr =
      stats::WindowCorrelationMatrix(series, 0, kWindow);
  const graph::KnnGraphOptions options{.k = 10, .tau = 0.5};
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::BuildKnnGraph(corr, options));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_BuildKnnGraph)->Arg(26)->Arg(128)->Arg(512)->Complexity();

void BM_Louvain(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const ts::MultivariateSeries series = MakeSeries(n, kWindow * 2);
  const stats::CorrelationMatrix corr =
      stats::WindowCorrelationMatrix(series, 0, kWindow);
  const graph::Graph tsg =
      graph::BuildKnnGraph(corr, {.k = 10, .tau = 0.5});
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::Louvain(tsg));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_Louvain)->Arg(26)->Arg(128)->Arg(512)->Complexity();

void BM_OutlierDetectionRound(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const ts::MultivariateSeries series = MakeSeries(n, 4096 + kWindow);
  core::CadOptions options;
  options.window = kWindow;
  options.step = 4;
  options.k = 10;
  options.tau = 0.5;
  core::RoundProcessor processor(n, options);
  int start = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(processor.ProcessWindow(series, start));
    start = (start + options.step) % 4096;
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_OutlierDetectionRound)->Arg(26)->Arg(128)->Arg(512)->Complexity();

// The rolling-correlation path lives in the engine, which slides its tracker
// with every sample, so this one runs whole engine rounds: each iteration
// pushes the `step` samples that close the next round.
void BM_OutlierDetectionRoundIncremental(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const ts::MultivariateSeries series = MakeSeries(n, 4096);
  core::CadOptions options;
  options.window = kWindow;
  options.step = 4;
  options.k = 10;
  options.tau = 0.5;
  options.incremental_correlation = true;  // O(n^2 s) instead of O(n^2 w)
  core::DetectionEngine engine(n, options);
  std::vector<double> sample(n);
  int t = 0;
  for (auto _ : state) {
    std::optional<core::EngineRound> round;
    while (!round.has_value()) {
      for (int i = 0; i < n; ++i) sample[i] = series.value(i, t);
      t = (t + 1) % series.length();
      round = engine.Push(sample);
    }
    benchmark::DoNotOptimize(round);
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_OutlierDetectionRoundIncremental)
    ->Arg(26)
    ->Arg(128)
    ->Arg(512)
    ->Complexity();

void BM_WindowCorrelationMatrixThreaded(benchmark::State& state) {
  const int n = 512;
  const int threads = static_cast<int>(state.range(0));
  const ts::MultivariateSeries series = MakeSeries(n, kWindow * 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::WindowCorrelationMatrix(
        series, 0, kWindow, stats::CorrelationKind::kPearson, threads));
  }
}
BENCHMARK(BM_WindowCorrelationMatrixThreaded)->Arg(1)->Arg(2)->Arg(4);

}  // namespace
}  // namespace cad

// Custom main instead of BENCHMARK_MAIN(): strips --telemetry-out before
// google-benchmark sees argv (it rejects unknown flags), enables the global
// tracer for the run, and writes the telemetry files at exit.
int main(int argc, char** argv) {
  std::string telemetry_out;
  std::vector<char*> kept;
  kept.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--telemetry-out") == 0 && i + 1 < argc) {
      telemetry_out = argv[++i];
    } else if (std::strncmp(argv[i], "--telemetry-out=", 16) == 0) {
      telemetry_out = argv[i] + 16;
    } else {
      kept.push_back(argv[i]);
    }
  }
  int kept_argc = static_cast<int>(kept.size());
  if (!telemetry_out.empty()) cad::obs::Tracer::Global().Enable();

  benchmark::Initialize(&kept_argc, kept.data());
  if (benchmark::ReportUnrecognizedArguments(kept_argc, kept.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  if (!telemetry_out.empty()) {
    const cad::Status status = cad::obs::WriteTelemetry(
        telemetry_out, cad::obs::Registry::Global().TakeSnapshot(),
        cad::obs::Tracer::Global());
    if (!status.ok()) {
      std::cerr << "telemetry write failed: " << status.ToString() << "\n";
      return 1;
    }
    std::cerr << "telemetry written to " << telemetry_out
              << " (+ .trace.jsonl, .prom)\n";
  }
  return 0;
}
