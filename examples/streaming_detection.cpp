// Streaming detection: feed sensor samples one at a time into StreamingCad,
// as a plant-floor data collector would (paper Section IV-F). Alarms are
// raised the moment a detection round closes — no batch pass over the data.
//
//   ./streaming_detection [--serve [port]]
//
// With --serve, the detector also exposes its observability surface over
// HTTP on 127.0.0.1 (port 0 = pick an ephemeral one) while the stream runs:
//
//   curl localhost:<port>/metrics            Prometheus text
//   curl localhost:<port>/healthz            liveness JSON
//   curl "localhost:<port>/explain?round=50" decision provenance JSON
//   curl "localhost:<port>/advise"           ranked root-cause advice JSON
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "advisor/advisor.h"
#include "common/rng.h"
#include "core/streaming.h"
#include "datasets/anomaly_injector.h"
#include "datasets/generator.h"

int main(int argc, char** argv) {
  int exposition_port = -1;  // off unless --serve
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--serve") == 0) {
      exposition_port = 0;
      if (i + 1 < argc && argv[i + 1][0] != '-') {
        exposition_port = std::atoi(argv[++i]);
      }
    }
  }
  cad::Rng rng(7);
  cad::datasets::GeneratorOptions generator_options;
  generator_options.n_sensors = 20;
  generator_options.n_communities = 4;
  generator_options.noise_std = 0.2;
  cad::datasets::SensorNetworkGenerator generator(generator_options, &rng);

  cad::ts::MultivariateSeries history = generator.Generate(1500, &rng);
  cad::ts::MultivariateSeries stream = generator.Generate(2400, &rng);

  // Two faults arriving mid-stream.
  std::vector<cad::datasets::AnomalyEvent> faults(2);
  faults[0].type = cad::datasets::AnomalyType::kCorrelationBreak;
  faults[0].start = 800;
  faults[0].duration = 180;
  faults[0].sensors = generator.CommunityMembers(1);
  faults[0].sensors.resize(3);
  faults[1].type = cad::datasets::AnomalyType::kMixed;
  faults[1].start = 1700;
  faults[1].duration = 220;
  faults[1].sensors = generator.CommunityMembers(3);
  faults[1].sensors.resize(4);
  cad::datasets::InjectAnomalies(generator, faults, &stream, &rng);

  cad::core::CadOptions options;
  options.window = 64;
  options.step = 2;
  options.k = 5;
  options.tau = 0.5;
  options.min_sigma = 0.3;  // require ~2 simultaneous variations per alarm
  options.exposition_port = exposition_port;

  cad::core::StreamingCad detector(stream.n_sensors(), options);
  if (detector.exposition_port() > 0) {
    std::printf("Exposition server on 127.0.0.1:%d — try:\n",
                detector.exposition_port());
    std::printf("  curl localhost:%d/metrics\n", detector.exposition_port());
    std::printf("  curl localhost:%d/healthz\n", detector.exposition_port());
    std::printf("  curl \"localhost:%d/explain?round=50\"\n",
                detector.exposition_port());
    std::printf("  curl \"localhost:%d/advise\"\n\n",
                detector.exposition_port());
  }
  const cad::Status warmup_status = detector.WarmUp(history);
  if (!warmup_status.ok()) {
    std::fprintf(stderr, "Warm-up failed: %s\n",
                 warmup_status.message().c_str());
    return 1;
  }
  std::printf("Warm-up done: mu=%.2f sigma=%.2f over the healthy history.\n\n",
              detector.mu(), detector.sigma());

  // The ingest loop: one sample per tick.
  std::vector<double> sample(stream.n_sensors());
  // Reused across rounds: Push fills it in place when a round closes.
  cad::core::StreamEvent event;
  int alarms = 0;
  int last_abnormal_round = -1;
  bool was_open = false;
  for (int t = 0; t < stream.length(); ++t) {
    for (int i = 0; i < stream.n_sensors(); ++i) sample[i] = stream.value(i, t);
    if (!detector.Push(sample, &event).ValueOrDie()) continue;

    if (event.abnormal) last_abnormal_round = event.round;
    if (event.abnormal && !was_open) {
      ++alarms;
      std::printf("t=%-5d ALARM #%d  n_r=%d (mu=%.2f sigma=%.2f) outliers:",
                  t, alarms, event.n_variations, event.mu, event.sigma);
      for (int sensor : event.entered) std::printf(" %d", sensor);
      // Movers (Definition 2) are the attribution-grade subset: sensors that
      // changed community this round, not merely persistent outliers.
      if (!event.entered_movers.empty()) {
        std::printf("  movers:");
        for (int sensor : event.entered_movers) std::printf(" %d", sensor);
      }
      std::printf("\n");
    }
    if (!event.abnormal && was_open) {
      // anomalies() returns a snapshot copy; keep the element by value.
      const cad::core::Anomaly closed = detector.anomalies().back();
      std::printf("t=%-5d cleared; anomaly spanned [%d, %d), sensors:",
                  t, closed.start_time, closed.end_time);
      for (int sensor : closed.sensors) std::printf(" %d", sensor);
      std::printf("\n");
    }
    was_open = detector.anomaly_open();
  }

  std::printf("\nStream complete: %d rounds, %zu anomalies closed.\n",
              detector.rounds_completed(), detector.anomalies().size());

  // Decision provenance: the flight recorder can say *why* a round fired
  // long after the fact (the /explain endpoint serves the same record).
  if (last_abnormal_round >= 0) {
    const auto provenance = detector.Explain(last_abnormal_round);
    if (provenance.has_value()) {
      const auto& record = provenance->record;
      std::printf("Why round %d fired: n_r=%d vs mu=%.2f sigma=%.2f "
                  "(threshold %.2f)",
                  record.round, record.n_variations, record.mu, record.sigma,
                  record.threshold);
      if (provenance->has_prev) {
        std::printf("; vs round %d: dn_r=%+d dmu=%+.2f",
                    provenance->prev_round, provenance->delta_n_variations,
                    provenance->delta_mu);
      }
      std::printf("\n");
    }
  }
  // Root-cause triage over the whole flight log: who to look at first.
  // (A live scrape of /advise serves the same ranking as JSON.)
  const cad::advisor::AdviceReport advice =
      cad::advisor::Advise(detector.FlightLog(), cad::advisor::AdviseWindow{});
  if (!advice.ranking.empty()) {
    std::printf("Top root causes (severity = movers >> deviation >> "
                "residency >> churn):\n");
    const size_t shown = advice.ranking.size() < 3 ? advice.ranking.size() : 3;
    for (size_t i = 0; i < shown; ++i) {
      const cad::advisor::SensorFinding& finding = advice.ranking[i];
      std::printf("  #%zu sensor %-3d severity %.2f  onset round %d "
                  "(samples [%d, %d))  blast radius %d\n",
                  i + 1, finding.sensor, finding.severity, finding.onset_round,
                  finding.onset_window_start, finding.onset_window_end,
                  finding.blast_radius);
    }
  }
  auto print_fault = [](const cad::datasets::AnomalyEvent& fault) {
    std::printf("  [%d, %d) sensors:", fault.start,
                fault.start + fault.duration);
    for (int sensor : fault.sensors) std::printf(" %d", sensor);
    std::printf("\n");
  };
  std::printf("Ground truth faults:\n");
  print_fault(faults[0]);
  print_fault(faults[1]);
  return 0;
}
