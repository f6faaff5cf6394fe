// fleet_bench — multi-tenant scale benchmark for fleet::FleetEngine,
// writing BENCH_fleet.json.
//
// Three measurements per tenant scale:
//
//  0. Set-up: AddTenant for every tenant plus Start, with the
//     product-default flight recorder (the throughput run below disables
//     it), median of a few repeats. Reports the seconds and the heap
//     allocations per tenant made on the calling thread.
//
//  1. End-to-end throughput: N tenants stream the same synthetic sensor
//     data through the full machinery (bounded queues -> weighted scheduler
//     -> shared worker pool -> per-tenant DetectionEngine on pooled
//     arenas). Reports fleet rounds/sec, p50/p99 round latency (from the
//     cad_fleet_round_seconds histogram), backpressure counts, workspace
//     pool stats, and the steady-state allocation rate — this binary links
//     cad_alloc_hook, so allocs are a real operator-new count, and the run
//     *gates* on steady allocs/round staying under 1.0 (the DESIGN.md
//     contract is 0; the threshold tolerates the engine's sparse
//     co-appearance growth while catching harness-scale leaks).
//
//  2. Scheduler fairness under contention: N permanently-backlogged tenants
//     with a mixed weight profile (every 16th tenant weight 8, the rest
//     weight 1) served by the worker count's worth of spinning threads.
//     Fairness is the max/min per-tenant *normalized* service ratio
//     (quanta_i / weight_i). The raw post-contention snapshot carries
//     OS-stall noise (a descheduled worker holds its acquired tenant
//     hostage; see scheduler.h), so the gate applies after a deficit-sized
//     single-threaded settle phase that lets the scheduler repay deferred
//     credit — a genuinely unfair scheduler stays skewed through it. Gated
//     at ratio <= 1.25; a queue-draining scheduler measures 8-100x, so the
//     gate has teeth. Both raw and settled figures land in the JSON.
//
// Usage: fleet_bench [--smoke] [--out PATH] [--metrics-out PATH] [--tenants N]
//   --smoke            one small scale for ctest (a few seconds)
//   --tenants N        override the scale list with a single N
//   --metrics-out PATH dump the live tenant-labelled /metrics exposition of
//                      the last throughput run (tools/check_telemetry.sh
//                      validates metric-name hygiene against it)
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/alloc_tracker.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "core/cad_options.h"
#include "datasets/generator.h"
#include "fleet/fleet_engine.h"
#include "fleet/scheduler.h"
#include "obs/metrics.h"
#include "ts/multivariate_series.h"

namespace cad {
namespace {

struct FleetBenchConfig {
  std::vector<int> tenant_scales = {1024, 4096};
  int n_workers = 4;
  int n_producers = 4;
  int n_sensors = 8;
  int window = 32;
  int step = 4;
  int rounds_per_tenant = 12;
  int queue_capacity = 128;
  int quantum_samples = 32;
  int alloc_warmup_rounds = 4;  // rounds_per_tenant is small; audit the tail
  // Fairness phase: target normalized quanta per weight-1 tenant, and the
  // gate on the max/min normalized service ratio. The per-tenant count must
  // dwarf worker-stall artifacts: when the OS deschedules a worker
  // mid-quantum its tenant is held hostage (single-ownership) and the
  // snapshot catches it lagging by however far the horizon moved — a
  // fixed-size absolute spread (tens of quanta per stall), so a long run
  // amortizes it into a few percent of ratio while real unfairness scales
  // with the run and stays caught.
  int fairness_quanta_per_tenant = 2000;
  int setup_repeats = 5;
  double max_fairness_ratio = 1.25;
  double max_steady_allocs_per_round = 1.0;

  int samples_per_tenant() const {
    return window + (rounds_per_tenant - 1) * step;
  }
};

struct SetupResult {
  double seconds = 0.0;  // median over the repeats
  double allocs_per_tenant = 0.0;
};

struct ThroughputResult {
  int tenants = 0;
  uint64_t rounds = 0;
  uint64_t steady_rounds = 0;
  double rounds_per_sec = 0.0;
  double p50_round_seconds = 0.0;
  double p99_round_seconds = 0.0;
  double steady_allocs_per_round = 0.0;
  uint64_t samples_accepted = 0;
  uint64_t samples_rejected = 0;
  uint64_t pool_created = 0;
  uint64_t quanta = 0;
  double total_seconds = 0.0;
};

struct FairnessResult {
  int tenants = 0;
  uint64_t quanta = 0;
  // Measured right after the contended multi-worker phase. Includes
  // worker-stall noise: a worker the OS deschedules mid-quantum holds its
  // tenant's service hostage (single-ownership), so the raw snapshot can
  // catch a few tenants mid-lag.
  double raw_service_ratio = 0.0;
  double raw_normalized_spread = 0.0;
  // Measured after the settle phase repays stall-deferred credit (the
  // scheduler services lagging tenants back-to-back until parity). This is
  // the gated figure: a genuinely unfair scheduler does not converge here.
  double service_ratio = 0.0;      // max/min of quanta_i / weight_i
  double normalized_spread = 0.0;  // max - min of quanta_i / weight_i
  uint64_t settle_quanta = 0;
  double total_seconds = 0.0;
};

void NormalizedServiceRange(const fleet::WeightedScheduler& scheduler,
                            double* min_service, double* max_service) {
  *min_service = 1e300;
  *max_service = 0.0;
  for (const fleet::WeightedScheduler::TenantStats& tenant :
       scheduler.StatsSnapshot()) {
    const double normalized =
        static_cast<double>(tenant.quanta) / tenant.weight;
    *min_service = std::min(*min_service, normalized);
    *max_service = std::max(*max_service, normalized);
  }
}

fleet::FleetOptions MakeFleetOptions(const FleetBenchConfig& config,
                                     obs::Registry* registry) {
  fleet::FleetOptions fleet_options;
  fleet_options.n_workers = config.n_workers;
  fleet_options.queue_capacity = config.queue_capacity;
  fleet_options.quantum_samples = config.quantum_samples;
  fleet_options.alloc_warmup_rounds = config.alloc_warmup_rounds;
  fleet_options.metrics_registry = registry;
  return fleet_options;
}

core::CadOptions MakeCadOptions(const FleetBenchConfig& config) {
  core::CadOptions cad_options;
  cad_options.window = config.window;
  cad_options.step = config.step;
  cad_options.k = 3;
  cad_options.tau = 0.55;
  return cad_options;
}

SetupResult RunSetup(const FleetBenchConfig& config, int n_tenants) {
  const core::CadOptions cad_options = MakeCadOptions(config);
  std::vector<std::string> names;
  names.reserve(static_cast<size_t>(n_tenants));
  for (int t = 0; t < n_tenants; ++t) {
    names.push_back("tenant_" + std::to_string(t));
  }

  SetupResult result;
  std::vector<double> seconds;
  for (int rep = 0; rep < config.setup_repeats; ++rep) {
    obs::Registry registry;
    const int64_t allocs_before = common::ThreadAllocCount();
    Stopwatch watch;
    fleet::FleetEngine fleet(MakeFleetOptions(config, &registry));
    for (const std::string& name : names) {
      (void)fleet.AddTenant(name, config.n_sensors, cad_options).ValueOrDie();
    }
    if (!fleet.Start().ok()) std::abort();
    seconds.push_back(watch.ElapsedSeconds());
    result.allocs_per_tenant =
        static_cast<double>(common::ThreadAllocCount() - allocs_before) /
        n_tenants;
    fleet.Stop();
  }
  std::sort(seconds.begin(), seconds.end());
  result.seconds = seconds[seconds.size() / 2];
  return result;
}

ThroughputResult RunThroughput(const FleetBenchConfig& config, int n_tenants,
                               const ts::MultivariateSeries& data,
                               std::string* metrics_text) {
  obs::Registry registry;
  fleet::FleetEngine fleet(MakeFleetOptions(config, &registry));

  core::CadOptions cad_options = MakeCadOptions(config);
  cad_options.flight_log_capacity = 0;  // scale run; no per-tenant ring
  for (int t = 0; t < n_tenants; ++t) {
    (void)fleet
        .AddTenant("tenant_" + std::to_string(t), config.n_sensors,
                   cad_options)
        .ValueOrDie();
  }
  if (!fleet.Start().ok()) std::abort();

  // Producers spray time points across tenant shards: every tenant sees the
  // same series, pushed in time order, with retry on backpressure so each
  // tenant completes exactly rounds_per_tenant rounds.
  const int samples = config.samples_per_tenant();
  Stopwatch watch;
  std::vector<std::thread> producers;
  producers.reserve(static_cast<size_t>(config.n_producers));
  for (int p = 0; p < config.n_producers; ++p) {
    producers.emplace_back([&, p] {
      std::vector<double> sample(static_cast<size_t>(config.n_sensors));
      for (int t = 0; t < samples; ++t) {
        for (int i = 0; i < config.n_sensors; ++i) {
          sample[static_cast<size_t>(i)] = data.value(i, t);
        }
        for (int tenant = p; tenant < n_tenants;
             tenant += config.n_producers) {
          while (!fleet.Push(tenant, sample).ValueOrDie()) {
            std::this_thread::yield();
          }
        }
      }
    });
  }
  for (std::thread& producer : producers) producer.join();
  fleet.Drain();
  const double elapsed = watch.ElapsedSeconds();
  // Snapshot the tenant-labelled exposition while the fleet is live:
  // tools/check_telemetry.sh feeds this through the metric-name hygiene
  // gate (--metrics-out).
  if (metrics_text != nullptr) *metrics_text = fleet.MetricsText();
  fleet.Stop();

  const obs::Snapshot snapshot = registry.TakeSnapshot();
  ThroughputResult result;
  result.tenants = n_tenants;
  result.total_seconds = elapsed;
  result.rounds = snapshot.FindCounter("cad_fleet_rounds_total")->value;
  result.steady_rounds =
      snapshot.FindCounter("cad_fleet_steady_rounds_total")->value;
  const uint64_t steady_allocs =
      snapshot.FindCounter("cad_fleet_steady_allocs_total")->value;
  result.steady_allocs_per_round =
      result.steady_rounds > 0
          ? static_cast<double>(steady_allocs) /
                static_cast<double>(result.steady_rounds)
          : 0.0;
  result.rounds_per_sec =
      elapsed > 0.0 ? static_cast<double>(result.rounds) / elapsed : 0.0;
  const obs::HistogramSample* latency =
      snapshot.FindHistogram("cad_fleet_round_seconds");
  result.p50_round_seconds = latency->Quantile(0.50);
  result.p99_round_seconds = latency->Quantile(0.99);
  result.samples_accepted =
      snapshot.FindCounter("cad_fleet_samples_total")->value;
  result.samples_rejected =
      snapshot.FindCounter("cad_fleet_samples_rejected_total")->value;
  result.quanta = snapshot.FindCounter("cad_fleet_quanta_total")->value;
  result.pool_created = fleet.pool_stats().created;
  return result;
}

FairnessResult RunFairness(const FleetBenchConfig& config, int n_tenants) {
  // Mixed weight profile: every 16th tenant is heavy.
  std::vector<double> weights(static_cast<size_t>(n_tenants), 1.0);
  double weight_sum = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    if (i % 16 == 0) weights[i] = 8.0;
    weight_sum += weights[i];
  }
  fleet::WeightedScheduler scheduler(weights);
  for (int t = 0; t < n_tenants; ++t) scheduler.MakeReady(t);

  // Permanently-backlogged service: every quantum immediately re-queues, so
  // the stride bound applies exactly; threads contend like the worker pool.
  const uint64_t target_quanta =
      static_cast<uint64_t>(static_cast<double>(
                                config.fairness_quanta_per_tenant) *
                            weight_sum);
  Stopwatch watch;
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(config.n_workers));
  for (int w = 0; w < config.n_workers; ++w) {
    workers.emplace_back([&] {
      while (scheduler.total_quanta() < target_quanta) {
        int tenant = -1;
        if (!scheduler.TryAcquire(&tenant)) {
          std::this_thread::yield();
          continue;
        }
        scheduler.Release(tenant, /*has_more_work=*/true);
      }
    });
  }
  for (std::thread& worker : workers) worker.join();

  FairnessResult result;
  result.tenants = n_tenants;
  result.quanta = scheduler.total_quanta();
  double min_service = 0.0;
  double max_service = 0.0;
  NormalizedServiceRange(scheduler, &min_service, &max_service);
  result.raw_service_ratio =
      min_service > 0.0 ? max_service / min_service : 1e300;
  result.raw_normalized_spread = max_service - min_service;

  // Settle phase: single-threaded service sized to the measured deficit,
  // plus one full weight round for ties. The stride heap serves the lagging
  // tenants back-to-back until parity, so stall-deferred credit is repaid;
  // a scheduler with a real bias would stay skewed through this and fail
  // the gate below.
  double deficit = 0.0;
  for (const fleet::WeightedScheduler::TenantStats& tenant :
       scheduler.StatsSnapshot()) {
    deficit += max_service * tenant.weight -
               static_cast<double>(tenant.quanta);
  }
  const uint64_t settle =
      static_cast<uint64_t>(deficit + weight_sum) + 1;
  for (uint64_t i = 0; i < settle; ++i) {
    int tenant = -1;
    if (!scheduler.TryAcquire(&tenant)) break;
    scheduler.Release(tenant, /*has_more_work=*/true);
  }
  result.settle_quanta = settle;
  NormalizedServiceRange(scheduler, &min_service, &max_service);
  result.service_ratio = min_service > 0.0 ? max_service / min_service : 1e300;
  result.normalized_spread = max_service - min_service;
  result.total_seconds = watch.ElapsedSeconds();
  return result;
}

int Main(int argc, char** argv) {
  common::LinkAllocHook();

  FleetBenchConfig config;
  bool smoke = false;
  std::string out_path = "BENCH_fleet.json";
  std::string metrics_out_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--metrics-out") == 0 && i + 1 < argc) {
      metrics_out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--tenants") == 0 && i + 1 < argc) {
      config.tenant_scales = {std::atoi(argv[++i])};
    } else {
      std::fprintf(stderr,
                   "usage: fleet_bench [--smoke] [--out PATH] "
                   "[--metrics-out PATH] [--tenants N]\n");
      return 2;
    }
  }
  if (smoke) {
    config.tenant_scales = {64};
  }

  // One shared series: every tenant runs the same 8-sensor stream, which
  // keeps generation out of the measured window at 10k-tenant scale.
  Rng rng(2026);
  datasets::GeneratorOptions gen_options;
  gen_options.n_sensors = config.n_sensors;
  gen_options.n_communities = 2;
  datasets::SensorNetworkGenerator generator(gen_options, &rng);
  const ts::MultivariateSeries data =
      generator.Generate(config.samples_per_tenant(), &rng);

  bool failed = false;
  std::string metrics_text;
  std::vector<SetupResult> setup;
  std::vector<ThroughputResult> throughput;
  std::vector<FairnessResult> fairness;
  for (int scale : config.tenant_scales) {
    std::fprintf(stderr, "[fleet_bench] %d tenants: set-up...\n", scale);
    setup.push_back(RunSetup(config, scale));
    std::fprintf(stderr,
                 "[fleet_bench]   %.4f s (median of %d), %.1f allocs/tenant\n",
                 setup.back().seconds, config.setup_repeats,
                 setup.back().allocs_per_tenant);
    std::fprintf(stderr, "[fleet_bench] %d tenants, %d workers: throughput...\n",
                 scale, config.n_workers);
    throughput.push_back(RunThroughput(
        config, scale, data,
        metrics_out_path.empty() ? nullptr : &metrics_text));
    const ThroughputResult& tp = throughput.back();
    std::fprintf(stderr,
                 "[fleet_bench]   %llu rounds, %.0f rounds/sec, p99 %.1fus, "
                 "%.3f steady allocs/round, %llu rejected\n",
                 static_cast<unsigned long long>(tp.rounds),
                 tp.rounds_per_sec, tp.p99_round_seconds * 1e6,
                 tp.steady_allocs_per_round,
                 static_cast<unsigned long long>(tp.samples_rejected));
    if (tp.steady_rounds == 0) {
      std::fprintf(stderr,
                   "[fleet_bench] FAIL: the steady-state allocation audit "
                   "never engaged at %d tenants\n",
                   scale);
      failed = true;
    }
#if !CAD_VALIDATE_ENABLED
    // Contract validators allocate on the side at CAD_CHECK_LEVEL=full; the
    // steady-state gate only binds in non-validating builds.
    if (common::AllocHookInstalled() &&
        tp.steady_allocs_per_round > config.max_steady_allocs_per_round) {
      std::fprintf(stderr,
                   "[fleet_bench] FAIL: %.3f steady allocs/round at %d "
                   "tenants (max %.1f)\n",
                   tp.steady_allocs_per_round, scale,
                   config.max_steady_allocs_per_round);
      failed = true;
    }
#endif

    std::fprintf(stderr, "[fleet_bench] %d tenants: fairness...\n", scale);
    fairness.push_back(RunFairness(config, scale));
    const FairnessResult& fr = fairness.back();
    std::fprintf(stderr,
                 "[fleet_bench]   %llu quanta, service ratio %.4f settled "
                 "(%.4f raw, spread %.1f raw -> %.1f)\n",
                 static_cast<unsigned long long>(fr.quanta), fr.service_ratio,
                 fr.raw_service_ratio, fr.raw_normalized_spread,
                 fr.normalized_spread);
    if (fr.service_ratio > config.max_fairness_ratio) {
      std::fprintf(stderr,
                   "[fleet_bench] FAIL: fairness ratio %.4f at %d tenants "
                   "(max %.2f)\n",
                   fr.service_ratio, scale, config.max_fairness_ratio);
      failed = true;
    }
  }

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "[fleet_bench] cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out,
               "{\n"
               "  \"bench\": \"fleet\",\n"
               "  \"smoke\": %s,\n"
               "  \"alloc_hook\": %s,\n"
               "  \"config\": {\n"
               "    \"n_workers\": %d,\n"
               "    \"n_producers\": %d,\n"
               "    \"n_sensors\": %d,\n"
               "    \"window\": %d,\n"
               "    \"step\": %d,\n"
               "    \"rounds_per_tenant\": %d,\n"
               "    \"queue_capacity\": %d,\n"
               "    \"quantum_samples\": %d,\n"
               "    \"setup_repeats\": %d,\n"
               "    \"setup_flight_log_capacity\": %d,\n"
               "    \"max_fairness_ratio\": %.2f,\n"
               "    \"max_steady_allocs_per_round\": %.1f\n"
               "  },\n"
               "  \"scales\": [\n",
               smoke ? "true" : "false",
               common::AllocHookInstalled() ? "true" : "false",
               config.n_workers, config.n_producers, config.n_sensors,
               config.window, config.step, config.rounds_per_tenant,
               config.queue_capacity, config.quantum_samples,
               config.setup_repeats, core::CadOptions{}.flight_log_capacity,
               config.max_fairness_ratio, config.max_steady_allocs_per_round);
  for (size_t i = 0; i < throughput.size(); ++i) {
    const SetupResult& su = setup[i];
    const ThroughputResult& tp = throughput[i];
    const FairnessResult& fr = fairness[i];
    std::fprintf(
        out,
        "    {\n"
        "      \"tenants\": %d,\n"
        "      \"setup_seconds\": %.6f,\n"
        "      \"setup_allocs_per_tenant\": %.2f,\n"
        "      \"rounds\": %llu,\n"
        "      \"rounds_per_sec\": %.1f,\n"
        "      \"p50_round_seconds\": %.9f,\n"
        "      \"p99_round_seconds\": %.9f,\n"
        "      \"steady_rounds\": %llu,\n"
        "      \"steady_allocs_per_round\": %.4f,\n"
        "      \"samples_accepted\": %llu,\n"
        "      \"samples_rejected\": %llu,\n"
        "      \"quanta\": %llu,\n"
        "      \"pool_workspaces_created\": %llu,\n"
        "      \"throughput_seconds\": %.6f,\n"
        "      \"fairness\": {\n"
        "        \"weight_profile\": \"weight 8 every 16th tenant, else 1\",\n"
        "        \"quanta\": %llu,\n"
        "        \"service_ratio\": %.6f,\n"
        "        \"normalized_spread\": %.2f,\n"
        "        \"raw_service_ratio\": %.6f,\n"
        "        \"raw_normalized_spread\": %.2f,\n"
        "        \"settle_quanta\": %llu,\n"
        "        \"seconds\": %.6f\n"
        "      }\n"
        "    }%s\n",
        tp.tenants, su.seconds, su.allocs_per_tenant,
        static_cast<unsigned long long>(tp.rounds),
        tp.rounds_per_sec, tp.p50_round_seconds, tp.p99_round_seconds,
        static_cast<unsigned long long>(tp.steady_rounds),
        tp.steady_allocs_per_round,
        static_cast<unsigned long long>(tp.samples_accepted),
        static_cast<unsigned long long>(tp.samples_rejected),
        static_cast<unsigned long long>(tp.quanta),
        static_cast<unsigned long long>(tp.pool_created), tp.total_seconds,
        static_cast<unsigned long long>(fr.quanta), fr.service_ratio,
        fr.normalized_spread, fr.raw_service_ratio,
        fr.raw_normalized_spread,
        static_cast<unsigned long long>(fr.settle_quanta), fr.total_seconds,
        i + 1 < throughput.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  if (!metrics_out_path.empty()) {
    std::FILE* prom = std::fopen(metrics_out_path.c_str(), "w");
    if (prom == nullptr) {
      std::fprintf(stderr, "[fleet_bench] cannot write %s\n",
                   metrics_out_path.c_str());
      return 1;
    }
    std::fwrite(metrics_text.data(), 1, metrics_text.size(), prom);
    std::fclose(prom);
  }
  std::fprintf(stderr, "[fleet_bench] wrote %s%s\n", out_path.c_str(),
               failed ? " (FAILED gates)" : "");
  return failed ? 1 : 0;
}

}  // namespace
}  // namespace cad

int main(int argc, char** argv) { return cad::Main(argc, argv); }
