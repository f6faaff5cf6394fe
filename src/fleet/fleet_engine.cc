#include "fleet/fleet_engine.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

#include "check/check.h"
#include "common/alloc_tracker.h"
#include "common/stopwatch.h"
#include "obs/json_util.h"

namespace cad::fleet {

namespace {

constexpr size_t kMaxTenantNameLength = 120;

// Tenant names become Prometheus label values and /explain routing keys;
// restricting them to [a-z0-9_.-] (first char [a-z0-9_]) keeps every
// downstream surface (exposition text, URLs, log lines) escape-free.
bool ValidTenantName(const std::string& name) {
  if (name.empty() || name.size() > kMaxTenantNameLength) return false;
  for (size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    const bool base = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                      c == '_';
    if (i == 0 ? !base : !(base || c == '.' || c == '-')) return false;
  }
  return true;
}

}  // namespace

FleetEngine::Tenant::Tenant(std::string tenant_name, int sensors,
                            const core::CadOptions& opts, double tenant_weight,
                            int queue_capacity)
    : name(std::move(tenant_name)),
      n_sensors(sensors),
      weight(tenant_weight),
      registry(std::make_unique<obs::Registry>()),
      options([&] {
        core::CadOptions tenant_options = opts;
        // Pipeline metrics are private per tenant (exposed tenant-labelled
        // by the fleet); a tenant never runs its own exposition server.
        tenant_options.metrics_registry = registry.get();
        tenant_options.exposition_port = -1;
        return tenant_options;
      }()),
      queue(sensors, queue_capacity),
      mu(common::lock_order::kFleetTenant, "fleet::Tenant::mu"),
      cad_engine(sensors, options) {}

FleetEngine::FleetEngine(const FleetOptions& options)
    : options_(options),
      metrics_(FleetMetrics::For(obs::ResolveRegistry(
          options.metrics_registry))) {}

FleetEngine::~FleetEngine() { Stop(); }

obs::Registry& FleetEngine::fleet_registry() const {
  return obs::ResolveRegistry(options_.metrics_registry);
}

Result<int> FleetEngine::AddTenant(const std::string& name, int n_sensors,
                                   const core::CadOptions& cad_options,
                                   double weight) {
  if (scheduler_ != nullptr) {
    return Status::FailedPrecondition(
        "AddTenant must precede the first Push / Start (the tenant set is "
        "sealed)");
  }
  if (!ValidTenantName(name)) {
    return Status::InvalidArgument(
        "tenant name '" + name +
        "' is not a valid label value ([a-z0-9_] then [a-z0-9_.-], <= 120 "
        "chars)");
  }
  if (tenant_index_.count(name) > 0) {
    return Status::InvalidArgument("duplicate tenant name '" + name + "'");
  }
  if (!(weight > 0.0)) {
    return Status::InvalidArgument("tenant weight must be positive");
  }
  CAD_RETURN_NOT_OK(core::DetectionEngine::ValidateStream(n_sensors,
                                                          cad_options));

  const int index = static_cast<int>(tenants_.size());
  tenants_.push_back(std::make_unique<Tenant>(name, n_sensors, cad_options,
                                              weight, options_.queue_capacity));
  tenant_index_.emplace(name, index);
  max_sensors_ = std::max(max_sensors_, n_sensors);
  return index;
}

void FleetEngine::Seal() {
  if (scheduler_ != nullptr) return;
  std::vector<double> weights;
  weights.reserve(tenants_.size());
  for (const std::unique_ptr<Tenant>& tenant : tenants_) {
    weights.push_back(tenant->weight);
  }
  scheduler_ = std::make_unique<WeightedScheduler>(std::move(weights));
}

Status FleetEngine::Start() {
  CAD_RETURN_NOT_OK(options_.Validate());
  if (started_) {
    return Status::FailedPrecondition("fleet already started");
  }
  Seal();
  started_ = true;
  metrics_.tenants->Set(static_cast<double>(tenants_.size()));
  metrics_.workers->Set(static_cast<double>(options_.n_workers));
  workers_.reserve(static_cast<size_t>(options_.n_workers));
  for (int i = 0; i < options_.n_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  // Last: every structure its handlers touch is already alive and workers
  // are running, so a scrape observes a live fleet.
  server_ = MakeServer(this);
  return Status::Ok();
}

void FleetEngine::Stop() {
  server_.reset();
  stop_.store(true, std::memory_order_release);
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
}

void FleetEngine::Drain() {
  if (!started_ || scheduler_ == nullptr) return;
  while (!stop_.load(std::memory_order_acquire) && !scheduler_->Idle()) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

Status FleetEngine::CheckTenantIndex(int tenant) const {
  if (tenant < 0 || tenant >= n_tenants()) {
    return Status::InvalidArgument("tenant index " + std::to_string(tenant) +
                                   " out of range");
  }
  return Status::Ok();
}

Result<bool> FleetEngine::Push(int tenant, std::span<const double> readings) {
  CAD_RETURN_NOT_OK(CheckTenantIndex(tenant));
  Seal();  // first Push seals the tenant set (pre-Start pre-filling)
  Tenant& t = *tenants_[static_cast<size_t>(tenant)];
  if (static_cast<int>(readings.size()) != t.n_sensors) {
    return Status::InvalidArgument(
        "sample has " + std::to_string(readings.size()) +
        " readings, tenant '" + t.name + "' expects " +
        std::to_string(t.n_sensors));
  }
  // Queue(18) then scheduler(14): sequential scopes, never nested — the
  // rank order only constrains locks held simultaneously.
  const bool accepted = t.queue.TryPush(readings);
  if (accepted) {
    metrics_.samples_total->Increment();
    scheduler_->MakeReady(tenant);
  } else {
    metrics_.samples_rejected_total->Increment();
  }
  return accepted;
}

void FleetEngine::WorkerLoop() {
  // Per-worker staging row for queue pops, sized for the widest tenant;
  // allocated once per worker, outside any quantum's allocation audit.
  std::vector<double> staging(static_cast<size_t>(std::max(max_sensors_, 1)));
  int idle_spins = 0;
  while (!stop_.load(std::memory_order_acquire)) {
    if (ServiceOne(&staging)) {
      idle_spins = 0;
      continue;
    }
    // Idle backoff: yield first, then bounded sleeps. Polling (instead of a
    // condition variable) keeps the scheduler lock free of wait edges; the
    // 100us cap bounds both new-work latency and shutdown latency.
    ++idle_spins;
    if (idle_spins < 16) {
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(
          std::chrono::microseconds(idle_spins < 64 ? 10 : 100));
    }
  }
}

bool FleetEngine::ServiceOne(std::vector<double>* staging) {
  int index = -1;
  if (!scheduler_->TryAcquire(&index)) return false;
  Tenant& tenant = *tenants_[static_cast<size_t>(index)];

  WorkspacePool::PooledWorkspace* arena = pool_.Acquire(tenant.n_sensors);
  // A quantum is "steady" only if the arena has already served this problem
  // size — otherwise engine buffers grow into it and allocation is expected.
  bool steady = tenant.n_sensors <= arena->max_sensors &&
                tenant.options.window <= arena->max_window;

  const int64_t allocs_before = common::ThreadAllocCount();
  int rounds_run = 0;
  {
    common::MutexLock lock(tenant.mu);
    const bool anomaly_was_open = tenant.cad_engine.anomaly_open();
    const size_t anomalies_before = tenant.cad_engine.anomalies().size();
    for (int drained = 0; drained < options_.quantum_samples; ++drained) {
      if (!tenant.queue.PopInto(staging->data())) break;
      const std::span<const double> sample(
          staging->data(), static_cast<size_t>(tenant.n_sensors));
      Stopwatch round_watch;
      if (!tenant.cad_engine.Push(sample, &arena->workspace)) continue;
      metrics_.round_seconds->Observe(round_watch.ElapsedSeconds());
      ++rounds_run;
      ++tenant.rounds_serviced;
      if (tenant.rounds_serviced <= static_cast<uint64_t>(options_.alloc_warmup_rounds)) {
        steady = false;  // capacities still warming
      }
    }
    // Anomaly open/close transitions push onto the anomaly list by design;
    // they are rare events, not steady-state round work.
    if (tenant.cad_engine.anomaly_open() != anomaly_was_open ||
        tenant.cad_engine.anomalies().size() != anomalies_before) {
      steady = false;
    }
  }
  const int64_t alloc_delta = common::ThreadAllocCount() - allocs_before;

  // Only a round grows the arena's buffers: a quantum that closed none
  // leaves them at their old size and must not vouch for this problem size.
  if (rounds_run > 0) {
    arena->max_sensors = std::max(arena->max_sensors, tenant.n_sensors);
    arena->max_window = std::max(arena->max_window, tenant.options.window);
  }
  pool_.Release(arena);

  metrics_.quanta_total->Increment();
  if (rounds_run > 0) {
    metrics_.rounds_total->Increment(static_cast<uint64_t>(rounds_run));
    if (steady) {
      metrics_.steady_rounds_total->Increment(
          static_cast<uint64_t>(rounds_run));
      if (alloc_delta > 0) {
        metrics_.steady_allocs_total->Increment(
            static_cast<uint64_t>(alloc_delta));
      }
    }
  }

  // Queue(18) then scheduler(14), again sequential scopes. Checking
  // emptiness here (not inside the drain loop) closes the race where a
  // producer pushed after our last pop: either we see the sample now, or
  // the producer's MakeReady re-queues the tenant.
  scheduler_->Release(index, /*has_more_work=*/!tenant.queue.empty());
  return true;
}

Result<int> FleetEngine::TenantIndex(const std::string& name) const {
  const auto it = tenant_index_.find(name);
  if (it == tenant_index_.end()) {
    return Status::InvalidArgument("unknown tenant '" + name + "'");
  }
  return it->second;
}

Result<FleetEngine::TenantStatus> FleetEngine::TenantInfo(int tenant) const {
  CAD_RETURN_NOT_OK(CheckTenantIndex(tenant));
  const Tenant& t = *tenants_[static_cast<size_t>(tenant)];
  TenantStatus status;
  status.name = t.name;
  status.weight = t.weight;
  status.n_sensors = t.n_sensors;
  {
    common::MutexLock lock(t.mu);
    status.samples_seen = t.cad_engine.samples_seen();
    status.rounds = t.rounds_serviced;
    status.anomaly_open = t.cad_engine.anomaly_open();
  }
  status.accepted = t.queue.accepted();
  status.rejected = t.queue.rejected();
  status.pending = static_cast<uint64_t>(t.queue.size());
  return status;
}

Result<std::vector<core::Anomaly>> FleetEngine::TenantAnomalies(
    int tenant) const {
  CAD_RETURN_NOT_OK(CheckTenantIndex(tenant));
  const Tenant& t = *tenants_[static_cast<size_t>(tenant)];
  common::MutexLock lock(t.mu);
  return t.cad_engine.anomalies();
}

Result<std::vector<obs::DecisionRecord>> FleetEngine::TenantFlightLog(
    int tenant) const {
  CAD_RETURN_NOT_OK(CheckTenantIndex(tenant));
  const Tenant& t = *tenants_[static_cast<size_t>(tenant)];
  common::MutexLock lock(t.mu);
  return t.cad_engine.recorder().Records();
}

std::string FleetEngine::MetricsText() const {
  std::string out = obs::ToPrometheusText(fleet_registry().TakeSnapshot());
  std::vector<obs::LabeledSnapshot> labeled;
  labeled.reserve(tenants_.size());
  for (const std::unique_ptr<Tenant>& tenant : tenants_) {
    labeled.push_back({tenant->name, tenant->registry->TakeSnapshot()});
  }
  out += obs::ToPrometheusTextLabeled("tenant", labeled);
  return out;
}

std::string FleetEngine::HealthJson() const {
  uint64_t pending = 0;
  uint64_t accepted = 0;
  uint64_t rejected = 0;
  for (const std::unique_ptr<Tenant>& tenant : tenants_) {
    pending += static_cast<uint64_t>(tenant->queue.size());
    accepted += tenant->queue.accepted();
    rejected += tenant->queue.rejected();
  }
  uint64_t rounds = 0;
  int anomalies_open = 0;
  for (const std::unique_ptr<Tenant>& tenant : tenants_) {
    Tenant& t = *tenant;
    common::MutexLock lock(t.mu);
    rounds += t.rounds_serviced;
    anomalies_open += t.cad_engine.anomaly_open() ? 1 : 0;
  }
  std::string json = "{\"tenants\":" + std::to_string(tenants_.size());
  json += ",\"workers\":" + std::to_string(options_.n_workers);
  json += ",\"samples_accepted\":" + std::to_string(accepted);
  json += ",\"samples_rejected\":" + std::to_string(rejected);
  json += ",\"pending_samples\":" + std::to_string(pending);
  json += ",\"rounds\":" + std::to_string(rounds);
  json += ",\"anomalies_open\":" + std::to_string(anomalies_open);
  json += ",\"quanta\":" +
          std::to_string(scheduler_ != nullptr ? scheduler_->total_quanta()
                                               : 0);
  json += '}';
  return json;
}

std::string FleetEngine::ExplainTenantJson(const std::string& tenant,
                                           int round) const {
  const auto it = tenant_index_.find(tenant);
  if (it == tenant_index_.end()) return std::string();  // 404 upstream
  const Tenant& t = *tenants_[static_cast<size_t>(it->second)];
  std::optional<obs::DecisionProvenance> provenance;
  {
    common::MutexLock lock(t.mu);
    provenance = t.cad_engine.Explain(round);
  }
  if (!provenance.has_value()) return std::string();  // 404 upstream
  return obs::ProvenanceToJson(*provenance);
}

std::unique_ptr<obs::ExpositionServer> FleetEngine::MakeServer(
    FleetEngine* self) {
  if (self->options_.exposition_port < 0) return nullptr;
  obs::ExpositionServer::Handlers handlers;
  handlers.metrics_text = [self] { return self->MetricsText(); };
  handlers.healthz_json = [self] { return self->HealthJson(); };
  handlers.explain_tenant_json = [self](const std::string& tenant, int round) {
    return self->ExplainTenantJson(tenant, round);
  };
  Result<std::unique_ptr<obs::ExpositionServer>> server =
      obs::ExpositionServer::Start(
          static_cast<uint16_t>(self->options_.exposition_port),
          std::move(handlers));
  if (!server.ok()) {
    // Exposition is opt-in telemetry; a bind failure must not take the
    // fleet down with it.
    std::fprintf(stderr, "FleetEngine: exposition server disabled: %s\n",
                 server.status().ToString().c_str());
    return nullptr;
  }
  return std::move(server).value();
}

}  // namespace cad::fleet
