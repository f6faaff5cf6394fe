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
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/round_processor.h"
#include "datasets/generator.h"
#include "graph/knn_graph.h"
#include "graph/louvain.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stats/correlation.h"
#include "stats/correlation_kernels.h"

namespace cad {
namespace {

ts::MultivariateSeries MakeSeries(int n_sensors, int length,
                                  int n_communities = 0) {
  Rng rng(42);
  datasets::GeneratorOptions options;
  options.n_sensors = n_sensors;
  options.n_communities =
      n_communities > 0 ? n_communities : std::max(2, n_sensors / 12);
  datasets::SensorNetworkGenerator generator(options, &rng);
  return generator.Generate(length, &rng);
}

constexpr int kWindow = 64;

// The perfbench workload shapes: sensors, window, k, communities — IS-5
// (is5_stream), IS-3 (is3_batch) and one fleet_iot tenant — and engine_bench's
// default config, a mid-size shape with a small k.
void WorkloadShapes(benchmark::internal::Benchmark* bench) {
  bench->ArgNames({"sensors", "w", "k", "communities"});
  bench->Args({1266, 73, 50, 20});
  bench->Args({406, 86, 30, 12});
  bench->Args({8, 32, 3, 2});
  bench->Args({48, 120, 5, 4});
}

// Both kernels run through their Into forms with scratch reused across
// iterations, as in the engine's steady-state rounds. The matrix gets one row
// per tile kernel this CPU runs (registered in main, widest first; the first
// is the one production picks). At 8 sensors every kernel takes the per-cell
// path, so those rows should agree.
void BM_WindowCorrelationMatrix(benchmark::State& state,
                                const stats::internal::TileKernel* kernel) {
  const int n = static_cast<int>(state.range(0));
  const int w = static_cast<int>(state.range(1));
  const ts::MultivariateSeries series =
      MakeSeries(n, w * 2, static_cast<int>(state.range(3)));
  stats::CorrelationScratch scratch;
  stats::CorrelationMatrix corr;
  for (auto _ : state) {
    stats::internal::WindowCorrelationMatrixWithKernel(
        series, 0, w, stats::CorrelationKind::kPearson, 1, *kernel, &scratch,
        &corr);
    benchmark::DoNotOptimize(corr);
  }
}

void RegisterCorrelationKernelRows() {
  for (const stats::internal::TileKernel& kernel :
       stats::internal::SupportedTileKernels()) {
    std::string name = "BM_WindowCorrelationMatrix/";
    name += kernel.name;
    benchmark::RegisterBenchmark(name.c_str(), BM_WindowCorrelationMatrix,
                                 &kernel)
        ->Apply(WorkloadShapes);
  }
}

// The tau that is3_batch and is5_stream run (the dataset registry's value).
constexpr double kWorkloadTau = 0.55;

// Each row reports how much selection it did: the pairs at or above tau and
// the TSG edges kept from them.
void BM_BuildKnnGraph(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int w = static_cast<int>(state.range(1));
  const ts::MultivariateSeries series =
      MakeSeries(n, w * 2, static_cast<int>(state.range(3)));
  const stats::CorrelationMatrix corr =
      stats::WindowCorrelationMatrix(series, 0, w);
  const graph::KnnGraphOptions options{
      .k = static_cast<int>(state.range(2)), .tau = kWorkloadTau};
  graph::KnnScratch scratch;
  graph::Graph tsg;
  graph::KnnGraphStats tsg_stats;
  for (auto _ : state) {
    graph::BuildKnnGraphInto(corr, options, &scratch, &tsg, &tsg_stats);
    benchmark::DoNotOptimize(tsg);
  }
  state.counters["candidate_pairs"] = tsg_stats.candidate_pairs;
  state.counters["kept_edges"] = tsg_stats.kept_edges;
}
BENCHMARK(BM_BuildKnnGraph)->Apply(WorkloadShapes);

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

// Louvain on the TSG of each workload shape, through its Into form with the
// workspace reused, as in the engine's rounds. Each row reports the size of
// its input and result: the TSG's edges and the communities found.
void BM_LouvainWorkload(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int w = static_cast<int>(state.range(1));
  const int k = static_cast<int>(state.range(2));
  const ts::MultivariateSeries series =
      MakeSeries(n, w * 2, static_cast<int>(state.range(3)));
  const stats::CorrelationMatrix corr =
      stats::WindowCorrelationMatrix(series, 0, w);
  const graph::Graph tsg =
      graph::BuildKnnGraph(corr, {.k = k, .tau = kWorkloadTau});
  graph::LouvainWorkspace workspace;
  graph::Partition partition;
  for (auto _ : state) {
    graph::LouvainInto(tsg, {}, &workspace, &partition);
    benchmark::DoNotOptimize(partition);
  }
  state.counters["tsg_edges"] = static_cast<double>(tsg.n_edges());
  state.counters["communities"] = partition.n_communities;
}
BENCHMARK(BM_LouvainWorkload)->Apply(WorkloadShapes);

void BM_OutlierDetectionRound(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const ts::MultivariateSeries series = MakeSeries(n, 4096 + kWindow);
  core::CadOptions options;
  options.window = kWindow;
  options.step = 4;
  options.k = 10;
  options.tau = 0.5;
  core::RoundProcessor processor(n, options);
  core::RoundWorkspace workspace;
  int start = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(processor.ProcessWindow(series, start, workspace));
    start = (start + options.step) % 4096;
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_OutlierDetectionRound)->Arg(26)->Arg(128)->Arg(512)->Complexity();

// The n_threads knob: where splitting the kernel's row blocks over threads
// (spawned and joined every call) starts to pay.
void BM_WindowCorrelationMatrixThreaded(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  const ts::MultivariateSeries series = MakeSeries(n, kWindow * 2);
  stats::CorrelationScratch scratch;
  stats::CorrelationMatrix corr;
  for (auto _ : state) {
    stats::WindowCorrelationMatrixInto(series, 0, kWindow,
                                       stats::CorrelationKind::kPearson,
                                       threads, &scratch, &corr);
    benchmark::DoNotOptimize(corr);
  }
}
BENCHMARK(BM_WindowCorrelationMatrixThreaded)
    ->ArgNames({"sensors", "threads"})
    ->ArgsProduct({{64, 128, 256, 512, 1266}, {1, 2, 4}})
    ->UseRealTime();

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

  cad::RegisterCorrelationKernelRows();

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
