// fleet::FleetEngine — thousands of tenant streams, one process, one shared
// worker pool.
//
// Hosts N independent core::DetectionEngine instances (one per tenant
// stream) behind a fixed pool of worker threads:
//
//   producers --TryPush--> per-tenant BoundedSampleQueue   (backpressure)
//                               |
//   WeightedScheduler (stride; heavy tenants cannot starve light ones)
//                               |
//   worker: drain a quantum of samples -> engine.Push, one sample at a
//           time, with a RoundWorkspace borrowed from the shared
//           WorkspacePool
//
// Each tenant owns a private obs::Registry, so the per-tenant pipeline
// metrics (cad_rounds_total, cad_round_seconds, ...) never contend across
// tenants; the fleet exposes them tenant-labelled from one aggregated
// ExpositionServer (`/metrics` with {tenant="..."} labels, `/healthz`
// rollup, `/explain?tenant=..&round=..` routing). Fleet-level rollups
// (cad_fleet_*, fleet_metrics.h) live in a separate registry.
//
// Steady-state allocation contract: after a tenant's warm-up rounds, a
// service quantum on a warm arena performs zero heap allocations — queue
// pop, the engine's ingest and round, and telemetry all reuse capacity. The
// audit is live: every steady quantum's worker-thread
// allocation delta feeds cad_fleet_steady_allocs_total (0 by contract,
// asserted by tests/fleet/fleet_engine_test.cc and bench/fleet_bench).
// Excluded from "steady": quanta during a tenant's first
// FleetOptions::alloc_warmup_rounds rounds, quanta that grow a pooled
// arena past its high-water mark, and quanta with an anomaly open/close
// transition (those push onto the anomaly list by design).
//
// Lock discipline (ranks in common/lock_order.h; enforced by Clang
// thread-safety analysis, cad_lint CL009-CL011 and the runtime order
// tracker): a worker takes scheduler(14) alone, pool(15) alone, then holds
// tenant(16) across the quantum, inside which queue(18) pops and registry
// (30) / tracer(31) telemetry nest. Producers take queue(18) alone, then
// scheduler(14) alone — sequential scopes, never nested.
//
// Threading contract: AddTenant, Start, and any pre-Start Push run on one
// setup thread (pre-filling queues for deterministic tests/benches). After
// Start, Push may be called from any number of producer threads; accessors
// and the exposition handlers are safe any time after Start.
#ifndef CAD_FLEET_FLEET_ENGINE_H_
#define CAD_FLEET_FLEET_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/bounded_queue.h"
#include "common/lock_order.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "core/cad_options.h"
#include "core/engine.h"
#include "fleet/fleet_metrics.h"
#include "fleet/scheduler.h"
#include "fleet/workspace_pool.h"
#include "obs/exposition_server.h"
#include "obs/export.h"
#include "obs/metrics.h"

namespace cad::fleet {

struct FleetOptions {
  // Worker threads servicing every tenant (the paper's one-detector-per-
  // stream model becomes one *engine* per stream, multiplexed here).
  int n_workers = 4;
  // Per-tenant ingestion queue capacity, in samples. A push against a full
  // queue is rejected (counted as backpressure), never blocked.
  int queue_capacity = 256;
  // Max samples a worker drains from one tenant per service quantum. Small
  // enough that a quantum is short (fairness granularity), large enough to
  // amortize the scheduler round trip.
  int quantum_samples = 32;
  // A tenant's first rounds warm its vector capacities (and the arena
  // bucket's); quanta running rounds below this index are excluded from the
  // steady-state allocation audit.
  int alloc_warmup_rounds = 16;
  // Aggregated exposition server port (-1 = none, 0 = ephemeral).
  int exposition_port = -1;
  // Registry for the fleet-level cad_fleet_* rollups (nullptr = the global
  // registry). Tenant registries are always private per tenant.
  obs::Registry* metrics_registry = nullptr;

  [[nodiscard]] Status Validate() const {
    if (n_workers <= 0) {
      return Status::InvalidArgument("n_workers must be positive");
    }
    if (queue_capacity <= 0) {
      return Status::InvalidArgument("queue_capacity must be positive");
    }
    if (quantum_samples <= 0) {
      return Status::InvalidArgument("quantum_samples must be positive");
    }
    if (alloc_warmup_rounds < 0) {
      return Status::InvalidArgument("alloc_warmup_rounds must be >= 0");
    }
    return Status::Ok();
  }
};

class FleetEngine {
 public:
  explicit FleetEngine(const FleetOptions& options);
  FleetEngine(const FleetEngine&) = delete;
  FleetEngine& operator=(const FleetEngine&) = delete;
  ~FleetEngine();  // Stop()s

  // Registers a tenant stream before the fleet is sealed (first Push or
  // Start). `name` becomes the Prometheus {tenant="..."} label value and the
  // /explain routing key: [a-z0-9_] first, then [a-z0-9_.-], at most 120
  // chars, unique. `weight` > 0 sets its scheduler share; 1 / weight must be
  // finite and positive. The fleet's options must be valid (FleetOptions::
  // Validate). Returns the tenant index used by Push.
  [[nodiscard]] Result<int> AddTenant(const std::string& name, int n_sensors,
                                      const core::CadOptions& cad_options,
                                      double weight = 1.0);

  // Seals the tenant set, spawns the workers and (when configured) the
  // aggregated exposition server.
  [[nodiscard]] Status Start();

  // Stops the exposition server and joins the workers. Queued samples may
  // remain; Start cannot be called again. Idempotent.
  void Stop();

  // Blocks until every accepted sample has been serviced and all workers are
  // idle. Producers must be quiesced, or this can wait forever.
  void Drain();

  // Offers one time point of `readings` to tenant `tenant`'s queue. Returns
  // true when accepted, false when the queue was full (backpressure — the
  // sample is dropped and counted in cad_fleet_samples_rejected_total).
  [[nodiscard]] Result<bool> Push(int tenant, std::span<const double> readings);

  [[nodiscard]] Result<int> TenantIndex(const std::string& name) const;
  int n_tenants() const { return static_cast<int>(tenants_.size()); }
  // -1 when no server is running (not requested or failed to bind).
  int exposition_port() const {
    return server_ != nullptr ? server_->port() : -1;
  }

  struct TenantStatus {
    std::string name;
    double weight = 0.0;
    int n_sensors = 0;
    int samples_seen = 0;     // samples serviced into the tenant's engine
    uint64_t rounds = 0;
    uint64_t accepted = 0;    // queue accepts
    uint64_t rejected = 0;    // queue rejections (backpressure)
    uint64_t pending = 0;     // samples waiting in the queue
    bool anomaly_open = false;
  };
  [[nodiscard]] Result<TenantStatus> TenantInfo(int tenant) const;

  // Anomalies the tenant's engine has fully closed so far (a copy, taken
  // under the tenant lock).
  [[nodiscard]] Result<std::vector<core::Anomaly>> TenantAnomalies(
      int tenant) const;

  // The tenant's flight-recorder ring, oldest round first (a copy, taken
  // under the tenant lock); empty when recording is disabled.
  [[nodiscard]] Result<std::vector<obs::DecisionRecord>> TenantFlightLog(
      int tenant) const;

  // The /metrics body: fleet-level rollups followed by every tenant's
  // pipeline metrics as {tenant="name"}-labelled series.
  std::string MetricsText() const;
  // The /healthz body: fleet-wide rollup JSON.
  std::string HealthJson() const;
  // The /explain?tenant=..&round=.. body; empty when the tenant is unknown
  // or the round is not in its flight-recorder ring (404 upstream).
  std::string ExplainTenantJson(const std::string& tenant, int round) const;

  const WeightedScheduler& scheduler() const { return *scheduler_; }
  WorkspacePool::Stats pool_stats() const { return pool_.GetStats(); }
  const FleetMetrics& metrics() const { return metrics_; }

 private:
  // One tenant stream: its queue and the engine the worker pushes its
  // samples into under `mu` during a service quantum.
  struct Tenant {
    Tenant(std::string tenant_name, int sensors, const core::CadOptions& opts,
           double tenant_weight, int queue_capacity);

    const std::string name;
    const int n_sensors;
    const double weight;
    // Private per-tenant registry: pipeline metrics never contend across
    // tenants and are exposed tenant-labelled by MetricsText(). Declared
    // before `options`/`engine`, which capture it.
    const std::unique_ptr<obs::Registry> registry;
    const core::CadOptions options;  // caller's options + private registry

    // cad-lint: allow(CL005) internally synchronized: the queue owns its own rank-18 mutex (common/bounded_queue.h); producers use it without the tenant lock
    common::BoundedSampleQueue queue;  // internally synchronized (rank 18)

    // Rank 16 (common/lock_order.h): held by the servicing worker across a
    // quantum; queue(18) pops and telemetry(30/31) nest inside it. The
    // scheduler's busy flag means at most one worker contends with the
    // occasional accessor/exposition reader.
    mutable common::Mutex mu;
    // Distinctive names (not `engine`/`rounds`): guarded members index
    // cad_lint's CL011 by name tree-wide, and those collide with ubiquitous
    // unguarded struct fields.
    core::DetectionEngine cad_engine GUARDED_BY(mu);
    uint64_t rounds_serviced GUARDED_BY(mu) = 0;
  };

  [[nodiscard]] Status CheckTenantIndex(int tenant) const;
  // Builds the scheduler from the registered weights; after this the tenant
  // set is immutable (which is what makes `tenants_` safe to read without a
  // fleet-wide lock).
  void Seal();
  void WorkerLoop();
  // Services one scheduler quantum. Returns false when no tenant was ready.
  bool ServiceOne(std::vector<double>* staging);
  static std::unique_ptr<obs::ExpositionServer> MakeServer(FleetEngine* self);
  obs::Registry& fleet_registry() const;

  const FleetOptions options_;
  const FleetMetrics metrics_;  // stable pointers, atomic recording

  // Setup-thread state; immutable once sealed.
  std::vector<std::unique_ptr<Tenant>> tenants_;
  std::map<std::string, int> tenant_index_;
  std::unique_ptr<WeightedScheduler> scheduler_;  // created by Seal()
  bool started_ = false;
  int max_sensors_ = 0;  // widest tenant; sizes worker staging buffers

  WorkspacePool pool_;

  std::atomic<bool> stop_{false};
  std::vector<std::thread> workers_;

  // Destroyed first: the server thread's handlers read tenants_ and take
  // tenant locks, so the server must die before any of that does.
  std::unique_ptr<obs::ExpositionServer> server_;
};

}  // namespace cad::fleet

#endif  // CAD_FLEET_FLEET_ENGINE_H_
