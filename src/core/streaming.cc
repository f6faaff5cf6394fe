#include "core/streaming.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "advisor/advisor.h"
#include "check/check.h"
#include "common/stopwatch.h"
#include "obs/export.h"
#include "obs/json_util.h"

namespace cad::core {

namespace {

// An invalid stream never feeds its engine: a one-sensor engine on the
// default shape stands in, so the rejected shape is never built.
CadOptions InertOptions(const CadOptions& options) {
  CadOptions inert;
  inert.metrics_registry = options.metrics_registry;
  return inert;
}

}  // namespace

StreamingCad::StreamingCad(int n_sensors, const CadOptions& options)
    : n_sensors_(n_sensors),
      options_(options),
      config_(DetectionEngine::ValidateStream(n_sensors, options)),
      metrics_(obs::PipelineMetrics::For(
          obs::ResolveRegistry(options.metrics_registry))),
      engine_(config_.ok() ? n_sensors : 1,
              config_.ok() ? options : InertOptions(options)),
      // Last in initialization order: every member its handlers touch
      // (mu_, engine_, the counters) is already alive when the serve thread
      // starts.
      server_(MakeServer(this)) {}

std::unique_ptr<obs::ExpositionServer> StreamingCad::MakeServer(
    StreamingCad* self) {
  if (!self->config_.ok() || self->options_.exposition_port < 0) {
    return nullptr;
  }
  obs::ExpositionServer::Handlers handlers;
  handlers.metrics_text = [self] {
    return obs::ToPrometheusText(self->TelemetrySnapshot());
  };
  handlers.healthz_json = [self] { return self->HealthJson(); };
  handlers.explain_json = [self](int round) { return self->ExplainJson(round); };
  handlers.advise_json = [self](int from_round, int to_round) {
    return self->AdviseJson(from_round, to_round);
  };
  Result<std::unique_ptr<obs::ExpositionServer>> server =
      obs::ExpositionServer::Start(
          static_cast<uint16_t>(self->options_.exposition_port),
          std::move(handlers));
  if (!server.ok()) {
    // Exposition is opt-in telemetry; a bind failure must not take the
    // detector down with it.
    std::fprintf(stderr, "StreamingCad: exposition server disabled: %s\n",
                 server.status().ToString().c_str());
    return nullptr;
  }
  return std::move(server).value();
}

obs::Snapshot StreamingCad::TelemetrySnapshot() const {
  common::MutexLock lock(mu_);
  return obs::ResolveRegistry(options_.metrics_registry).TakeSnapshot();
}

std::optional<obs::DecisionProvenance> StreamingCad::Explain(
    int round) const {
  common::MutexLock lock(mu_);
  return engine_.Explain(round);
}

std::string StreamingCad::DumpFlightLogJsonl() const {
  common::MutexLock lock(mu_);
  std::string jsonl;
  engine_.recorder().DumpJsonl(&jsonl);
  return jsonl;
}

std::vector<obs::DecisionRecord> StreamingCad::FlightLog() const {
  common::MutexLock lock(mu_);
  return engine_.recorder().Records();
}

std::string StreamingCad::AdviseJson(int from_round, int to_round) const {
  std::vector<obs::DecisionRecord> records = FlightLog();
  advisor::AdviseWindow window;
  window.first_round = from_round;
  window.last_round = to_round;
  const advisor::AdviceReport report = advisor::Advise(records, window);
  if (report.rounds_scanned == 0) return std::string();  // 404 upstream
  return advisor::AdviceReportToJson(report);
}

StreamHealth StreamingCad::Health() const {
  common::MutexLock lock(mu_);
  StreamHealth health;
  health.samples_seen = engine_.samples_seen();
  health.rounds = engine_.rounds();
  health.anomaly_open = engine_.anomaly_open();
  const obs::FlightRecorder& recorder = engine_.recorder();
  health.last_round_age_seconds = recorder.seconds_since_last_record();
  health.rounds_per_second = recorder.recent_rounds_per_second();
  health.flight_ring_capacity = recorder.capacity();
  health.flight_ring_size = recorder.size();
  return health;
}

std::string StreamingCad::HealthJson() const {
  const StreamHealth health = Health();
  std::string json = "{\"samples_seen\":" +
                     std::to_string(health.samples_seen);
  json += ",\"rounds\":" + std::to_string(health.rounds);
  json += ",\"anomaly_open\":";
  json += health.anomaly_open ? "true" : "false";
  json += ",\"last_round_age_seconds\":";
  obs::AppendJsonNumber(&json, health.last_round_age_seconds);  // inf -> null
  json += ",\"rounds_per_second\":";
  obs::AppendJsonNumber(&json, health.rounds_per_second);
  json += ",\"flight_ring_capacity\":" +
          std::to_string(health.flight_ring_capacity);
  json += ",\"flight_ring_size\":" + std::to_string(health.flight_ring_size);
  json += '}';
  return json;
}

std::string StreamingCad::ExplainJson(int round) const {
  const std::optional<obs::DecisionProvenance> provenance = Explain(round);
  if (!provenance.has_value()) return std::string();  // 404 upstream
  return obs::ProvenanceToJson(*provenance);
}

Status StreamingCad::WarmUp(const ts::MultivariateSeries& historical) {
  CAD_RETURN_NOT_OK(config_);
  common::MutexLock lock(mu_);
  return engine_.WarmUp(historical, workspace_);
}

Result<bool> StreamingCad::Push(std::span<const double> readings,
                                StreamEvent* event) {
  CAD_RETURN_NOT_OK(config_);
  if (static_cast<int>(readings.size()) != n_sensors_) {
    return Status::InvalidArgument("sample has " +
                                   std::to_string(readings.size()) +
                                   " readings, expected " +
                                   std::to_string(n_sensors_));
  }
  common::MutexLock lock(mu_);
  Stopwatch round_watch;
  const std::optional<EngineRound> round = engine_.Push(readings, workspace_);
  metrics_.stream_samples_total->Increment();
  if (!round.has_value()) return false;

  event->round = round->round;
  event->time_index = round->window_end - 1;
  event->n_variations = round->output->n_variations;
  event->abnormal = round->abnormal;
  // assign() into the caller's event reuses its vector capacity, so a
  // steady-state Push stays allocation-free end to end.
  event->outliers.assign(round->output->outliers.begin(),
                         round->output->outliers.end());
  event->entered.assign(round->output->entered.begin(),
                        round->output->entered.end());
  event->entered_movers.assign(round->output->entered_movers.begin(),
                               round->output->entered_movers.end());
  event->mu = round->mu;
  event->sigma = round->sigma;
  event->round_seconds = round_watch.ElapsedSeconds();
  return true;
}

}  // namespace cad::core
