// fleet_iot: many small tenant streams behind one fleet::FleetEngine, open
// loop.
//
// Set-up: kTenants tenants of kSensors sensors (w = 32, s = 1, k = 3, every
// other option product-default, flight recorder included) on kWorkers
// workers, each fleet with a private metrics registry.
//
// Input: kSeries seeded series (two correlated communities each, with
// injected anomalies); tenant i replays series i % kSeries.
//
// Load: one producer (the main thread) sends one sample to every tenant per
// tick, on a fixed schedule of 55 ticks/s for --seconds. A tick's verdict time runs
// from its *scheduled* send until every tenant ran its rounds due through
// that tick (FleetEngine::metrics().rounds_total, confirmed tenant by tenant
// through TenantInfo once a later tick's samples are in), so a late
// producer or a queue wait shows up in it. A scraper thread calls MetricsText() and HealthJson()
// once a second. Producer + scraper + kWorkers workers = 4 threads.
//
// Checks: every tenant's closed anomalies equal core::CadDetector::Detect on
// the same samples; accepted plus rejected pushes equal offered pushes;
// every due round ran; the producer kept to its schedule.
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <vector>

#include "core/cad_detector.h"
#include "datasets/anomaly_injector.h"
#include "datasets/generator.h"
#include "fleet/fleet_engine.h"
#include "harness.h"

namespace perfbench {
namespace {

namespace datasets = cad::datasets;

struct Shape {
  int tenants = 2048;
  int sensors = 8;
  int window = 32;
  int step = 1;
  int k = 3;
  int workers = 2;
  int series = 64;
  // About half the capacity. On a 4-vCPU x86 VM a round costs ~8 us on the
  // pool, so two workers serve ~120 ticks/s one sample per quantum (busy
  // share 0.44 at this rate); batching under backlog stretches that to
  // ~230 ticks/s before the backlog grows without bound.
  double ticks_per_second = 55.0;
  double scrape_interval_s = 1.0;
  int ticks = 0;
};

// Set-up takes ~0.1 s, so 21 repeats cost ~2 s and steady the median.
constexpr int kSetupRepeats = 21;
// A run is invalid when more than this share of ticks were sent later than
// one tick interval after their schedule.
constexpr double kMaxLateTickShare = 0.01;
// Every kPushTraceStride-th tick's pushes are recorded as spans.
constexpr int kPushTraceStride = 50;

int RoundsThrough(int samples, const Shape& shape) {
  return samples < shape.window ? 0 : (samples - shape.window) / shape.step + 1;
}

struct Series {
  cad::ts::MultivariateSeries values;
  cad::eval::Labels labels;
  std::vector<double> rows;  // sample-major
};

std::vector<Series> MakeSeries(const Args& args, const Shape& shape) {
  std::vector<Series> out(static_cast<size_t>(shape.series));
  for (int s = 0; s < shape.series; ++s) {
    cad::Rng rng(args.seed * 0x9e3779b97f4a7c15ull + 7919u * static_cast<uint64_t>(s) + 1);
    datasets::GeneratorOptions gen;
    gen.n_sensors = shape.sensors;
    gen.n_communities = 2;
    gen.noise_std = 0.3;
    datasets::SensorNetworkGenerator generator(gen, &rng);
    Series& series = out[static_cast<size_t>(s)];
    series.values = generator.Generate(shape.ticks, &rng);
    const int w = shape.window;
    const int n_events = std::max(1, shape.ticks / 400);
    const std::vector<datasets::AnomalyEvent> events = datasets::PlanEvents(
        generator, shape.ticks, n_events, w, 2 * w - 1, w, &rng);
    series.labels = datasets::InjectAnomalies(generator, events, &series.values, &rng);
    series.rows = SampleMajor(series.values);
  }
  return out;
}

// The scraper thread's observations.
struct Scrapes {
  std::vector<double> metrics_text_seconds;
  std::vector<double> healthz_seconds;
  size_t max_body_bytes = 0;
  uint64_t backlog_max = 0;
};

uint64_t PendingSamples(const std::string& health) {
  static constexpr char kKey[] = "\"pending_samples\":";
  const size_t at = health.find(kKey);
  if (at == std::string::npos) return 0;
  return std::strtoull(health.c_str() + at + sizeof(kKey) - 1, nullptr, 10);
}

}  // namespace

Result RunFleetIot(const Args& args) {
  Result result;
  SpanLog spans(args.trace);
  LayerMetrics layers;

  Shape shape;
  if (args.short_mode) {
    shape.tenants = 64;
    shape.series = 8;
    shape.ticks_per_second = 400.0;
    shape.scrape_interval_s = 0.1;
  }
  shape.ticks = args.short_mode ? 6 * shape.window
                                : static_cast<int>(shape.ticks_per_second * args.seconds);

  const Clock::time_point gen_start = Clock::now();
  const std::vector<Series> series = MakeSeries(args, shape);
  layers.generate_s = SecondsBetween(gen_start, Clock::now());

  cad::core::CadOptions cad_options;
  cad_options.window = shape.window;
  cad_options.step = shape.step;
  cad_options.k = shape.k;

  // ---- set-up: AddTenant x tenants + Start, repeated; the last one runs.
  std::vector<double> setup_seconds;
  std::unique_ptr<cad::obs::Registry> registry;
  std::unique_ptr<cad::fleet::FleetEngine> fleet;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    fleet.reset();
    registry = std::make_unique<cad::obs::Registry>();
    cad::fleet::FleetOptions options;
    options.n_workers = shape.workers;
    options.metrics_registry = registry.get();
    const Clock::time_point start = Clock::now();
    fleet = std::make_unique<cad::fleet::FleetEngine>(options);
    bool added = true;
    for (int i = 0; i < shape.tenants; ++i) {
      char name[32];
      std::snprintf(name, sizeof(name), "t%04d", i);
      added = added && fleet->AddTenant(name, shape.sensors, cad_options).ok();
    }
    const cad::Status started = fleet->Start();
    const Clock::time_point end = Clock::now();
    setup_seconds.push_back(SecondsBetween(start, end));
    spans.Record("driver.setup", start, end, rep);
    result.Check(added && started.ok(), "fleet set-up failed");
  }
  if (!result.correct) return result;

  // ---- the scraper thread.
  std::atomic<bool> stop_scraper{false};
  Scrapes scrapes;
  std::thread scraper([&] {
    const auto period = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(shape.scrape_interval_s));
    Clock::time_point next = Clock::now() + period;
    while (!stop_scraper.load(std::memory_order_acquire)) {
      if (Clock::now() < next) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        continue;
      }
      next += period;
      const Clock::time_point s0 = Clock::now();
      const std::string body = fleet->MetricsText();
      const Clock::time_point s1 = Clock::now();
      const std::string health = fleet->HealthJson();
      const Clock::time_point s2 = Clock::now();
      scrapes.metrics_text_seconds.push_back(SecondsBetween(s0, s1));
      scrapes.healthz_seconds.push_back(SecondsBetween(s1, s2));
      scrapes.max_body_bytes = std::max(scrapes.max_body_bytes, body.size());
      scrapes.backlog_max = std::max(scrapes.backlog_max, PendingSamples(health));
      spans.Record("obs.metrics_text", s0, s1, 0);
      spans.Record("obs.healthz", s1, s2, 0);
    }
  });

  // ---- timed: the open-loop producer.
  const std::chrono::nanoseconds interval(
      static_cast<int64_t>(1e9 / shape.ticks_per_second));
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(20);
  auto scheduled = [&](int tick) { return t0 + interval * tick; };
  std::vector<double> lateness(static_cast<size_t>(shape.ticks), 0.0);
  std::vector<double> verdict(static_cast<size_t>(shape.ticks), -1.0);
  std::vector<double> push_seconds;
  if (args.trace) push_seconds.reserve(static_cast<size_t>(shape.ticks) * shape.tenants);
  int sent = 0;      // ticks fully sent
  int resolved = 0;  // ticks whose verdicts are all in
  int confirmed = 0;  // tenants known to have their round for tick `resolved`
  Clock::time_point last_verdict = t0;
  const cad::obs::Counter& rounds_total = *fleet->metrics().rounds_total;
  // Tick `resolved` is in once every tenant ran its rounds through it. The
  // fleet-wide rounds_total says so exactly while no later sample has been
  // pushed; once one has (`pushing`: the producer is inside tick `sent`),
  // rounds of the later tick may fill in for a tenant still lacking its
  // round, so each tenant's own count is confirmed, resuming at `confirmed`.
  auto resolve = [&](bool pushing) {
    while (resolved < sent) {
      const uint64_t due = static_cast<uint64_t>(RoundsThrough(resolved + 1, shape));
      if (rounds_total.value() < static_cast<uint64_t>(shape.tenants) * due) return;
      if (pushing || sent > resolved + 1) {
        while (confirmed < shape.tenants) {
          const cad::Result<cad::fleet::FleetEngine::TenantStatus> info =
              fleet->TenantInfo(confirmed);
          if (!info.ok() || info.value().rounds < due) return;
          ++confirmed;
        }
      }
      confirmed = 0;
      const Clock::time_point now = Clock::now();
      verdict[static_cast<size_t>(resolved)] = SecondsBetween(scheduled(resolved), now);
      spans.Record("fleet.tick", scheduled(resolved), now, resolved);
      last_verdict = now;
      ++resolved;
    }
  };
  int64_t rejected = 0;
  for (int tick = 0; tick < shape.ticks; ++tick) {
    const Clock::time_point due = scheduled(tick);
    while (Clock::now() < due) {
      resolve(false);
      if (due - Clock::now() > std::chrono::microseconds(300)) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    }
    const Clock::time_point send = Clock::now();
    lateness[static_cast<size_t>(tick)] = SecondsBetween(due, send);
    const bool trace_tick = args.trace && tick % kPushTraceStride == 0;
    for (int i = 0; i < shape.tenants; ++i) {
      const Series& s = series[static_cast<size_t>(i % shape.series)];
      const std::span<const double> sample(
          s.rows.data() + static_cast<size_t>(tick) * shape.sensors,
          static_cast<size_t>(shape.sensors));
      ++result.attempted;
      if (args.trace) {
        const Clock::time_point a = Clock::now();
        const cad::Result<bool> pushed = fleet->Push(i, sample);
        const Clock::time_point b = Clock::now();
        push_seconds.push_back(SecondsBetween(a, b));
        if (trace_tick) spans.Record("fleet.push", a, b, tick);
        if (!pushed.ok() || !pushed.value()) ++rejected;
      } else {
        const cad::Result<bool> pushed = fleet->Push(i, sample);
        if (!pushed.ok() || !pushed.value()) ++rejected;
      }
      if ((i & 63) == 63) resolve(true);
    }
    sent = tick + 1;
    resolve(false);
  }
  const Clock::time_point drain_deadline = Clock::now() + std::chrono::seconds(10);
  while (resolved < sent && Clock::now() < drain_deadline) {
    resolve(false);
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  const double timed_seconds = SecondsBetween(t0, Clock::now());
  const size_t timed_spans = spans.size();
  stop_scraper.store(true, std::memory_order_release);
  scraper.join();
  fleet->Drain();
  result.failed = rejected;

  // ---- checks.
  const int64_t offered = static_cast<int64_t>(shape.ticks) * shape.tenants;
  const cad::fleet::FleetMetrics& m = fleet->metrics();
  result.Check(static_cast<int64_t>(m.samples_total->value() +
                                    m.samples_rejected_total->value()) == offered,
               "accepted plus rejected pushes differ from offered pushes");
  result.Check(resolved == shape.ticks, "not every tick's rounds ran (" +
                                            std::to_string(resolved) + " of " +
                                            std::to_string(shape.ticks) + " ticks)");
  result.Check(m.rounds_total->value() ==
                   static_cast<uint64_t>(shape.tenants) *
                       static_cast<uint64_t>(RoundsThrough(shape.ticks, shape)),
               "cad_fleet_rounds_total differs from the rounds due");
  int late_ticks = 0;
  for (double late : lateness) late_ticks += late > 1.0 / shape.ticks_per_second ? 1 : 0;
  result.Check(late_ticks <= kMaxLateTickShare * shape.ticks,
               "invalid run: the producer fell behind its schedule on " +
                   std::to_string(late_ticks) + " ticks");

  // Reference verdicts: the batch detector over each series, no warm-up
  // (fleet tenants have none). A batch anomaly still open at the end of the
  // series is closed by Detect but stays open in the fleet.
  Scores scores;
  std::vector<std::vector<cad::core::Anomaly>> expected(series.size());
  std::vector<uint8_t> expect_open(series.size(), 0);
  const cad::core::CadDetector detector(cad_options);
  const int rounds_per_tenant = RoundsThrough(shape.ticks, shape);
  for (size_t s = 0; s < series.size(); ++s) {
    cad::Result<cad::core::DetectionReport> report = detector.Detect(series[s].values, nullptr);
    if (!report.ok()) {
      result.Check(false, "reference Detect failed: " + report.status().ToString());
      continue;
    }
    expected[s] = report.value().anomalies;
    if (!expected[s].empty() && expected[s].back().last_round == rounds_per_tenant - 1) {
      expected[s].pop_back();
      expect_open[s] = 1;
    }
    scores.Add(report.value().point_labels, series[s].labels);
  }
  int mismatched = 0;
  for (int i = 0; i < shape.tenants; ++i) {
    const size_t s = static_cast<size_t>(i % shape.series);
    const cad::Result<std::vector<cad::core::Anomaly>> anomalies = fleet->TenantAnomalies(i);
    const cad::Result<cad::fleet::FleetEngine::TenantStatus> info = fleet->TenantInfo(i);
    const bool same = anomalies.ok() && info.ok() &&
                      SameAnomalies(anomalies.value(), expected[s]) &&
                      info.value().anomaly_open == (expect_open[s] != 0);
    mismatched += same ? 0 : 1;
  }
  result.Check(mismatched == 0, std::to_string(mismatched) +
                                    " tenants' anomalies differ from CadDetector::Detect");
  result.Check(scores.f1_pa() > 0.0, "the verdicts hit no injected anomaly");

  // Verdicts of ticks that close rounds.
  std::vector<double> verdict_seconds;
  for (int tick = shape.window - 1; tick < resolved; ++tick) {
    verdict_seconds.push_back(verdict[static_cast<size_t>(tick)]);
  }

  if (!args.trace) {
    EndToEnd e2e;
    e2e.verdict_p50_s = Median(verdict_seconds);
    e2e.verdict_p95_s = Quantile(verdict_seconds, 0.95);
    e2e.verdicts = static_cast<int64_t>(verdict_seconds.size());
    e2e.samples = static_cast<int64_t>(m.samples_total->value());
    e2e.samples_per_s = static_cast<double>(e2e.samples) / SecondsBetween(t0, last_verdict);
    e2e.scores = scores;
    e2e.setup_seconds = std::move(setup_seconds);
    e2e.AddTo(&result);
    std::printf("# fleet_iot: %d tenants x %d sensors, w=%d s=%d k=%d, %d workers, "
                "%.1f ticks/s, %d ticks, %zu verdicts, %zu scrapes; p99 %.4f ms\n",
                shape.tenants, shape.sensors, shape.window, shape.step, shape.k, shape.workers,
                shape.ticks_per_second, shape.ticks, verdict_seconds.size(),
                scrapes.metrics_text_seconds.size(), Quantile(verdict_seconds, 0.99) * 1e3);
    return result;
  }

  // ---- traced: layer metrics from the fleet's own counters, the tenants'
  // exposition, and a replay of tenant rounds through the stage calls.
  const std::string text = fleet->MetricsText();
  const cad::obs::Snapshot fleet_snapshot = registry->TakeSnapshot();
  const cad::obs::HistogramSample* fleet_round =
      fleet_snapshot.FindHistogram("cad_fleet_round_seconds");
  const double tenant_rounds = SumSeries(text, "cad_rounds_total");
  StageReplay replay(shape.sensors, cad_options);
  for (int s = 0; s < std::min(shape.series, 8); ++s) {
    for (int run = 0; run < 4; ++run) {
      const int first = (rounds_per_tenant - 8) * (2 * run + 1) / 8;
      replay.Reset();
      for (int r = first; r < first + 8; ++r) {
        replay.Replay(series[static_cast<size_t>(s)].values, r * shape.step, &spans, r);
      }
    }
  }
  layers.SetStages(replay.times());
  layers.round_ms = SumSeries(text, "cad_round_seconds_sum") /
                    SumSeries(text, "cad_round_seconds_count") * 1e3;
  layers.fleet_round_us = fleet_round != nullptr ? fleet_round->mean() * 1e6 : 0.0;
  layers.driver_ms = layers.fleet_round_us * 1e-3 - layers.round_ms;
  layers.tsg_edges = SumSeries(text, "cad_tsg_edges_kept") / tenant_rounds;
  layers.abnormal_round_share = SumSeries(text, "cad_abnormal_rounds_total") / tenant_rounds;
  layers.window_copy_us = WindowCopyMicros(shape.sensors, shape.window, shape.step, &spans);
  const double steady_rounds = CounterValue(fleet_snapshot, "cad_fleet_steady_rounds_total");
  layers.allocs_per_round =
      steady_rounds > 0
          ? CounterValue(fleet_snapshot, "cad_fleet_steady_allocs_total") / steady_rounds
          : 0.0;
  const double stage_sum = layers.correlation_ms + layers.knn_ms + layers.louvain_ms +
                           layers.coappearance_ms;
  layers.stage_sum_share = layers.round_ms > 0 ? stage_sum / layers.round_ms : 0.0;
  layers.push_us_p50 = Median(push_seconds) * 1e6;
  layers.push_us_p99 = Quantile(push_seconds, 0.99) * 1e6;
  layers.samples_per_quantum = CounterValue(fleet_snapshot, "cad_fleet_samples_total") /
                               CounterValue(fleet_snapshot, "cad_fleet_quanta_total");
  layers.worker_busy_share = (fleet_round != nullptr ? fleet_round->sum : 0.0) /
                             (shape.workers * timed_seconds);
  layers.backlog_max = static_cast<double>(scrapes.backlog_max);
  layers.drop_share = static_cast<double>(rejected) / static_cast<double>(offered);
  layers.metrics_text_ms = Median(scrapes.metrics_text_seconds) * 1e3;
  layers.metrics_text_mb = static_cast<double>(scrapes.max_body_bytes) / 1e6;
  layers.healthz_ms = Median(scrapes.healthz_seconds) * 1e3;
  layers.generator_late_ms = Quantile(lateness, 0.99) * 1e3;
  // Each timed push costs about one span record (two clock reads + a store).
  layers.trace_overhead_pct = 100.0 *
                              static_cast<double>(timed_spans + push_seconds.size()) *
                              SpanLog::RecordCostSeconds() / timed_seconds;
  layers.AddTo(&result);
  fleet.reset();
  spans.WriteJsonl(args.trace_out);
  return result;
}

}  // namespace perfbench
