// FleetEngine end-to-end tests.
//
// The load-bearing ones:
//  - Equivalence: a 1-tenant fleet produces byte-identical anomalies to a
//    solo StreamingCad fed the same stream — multiplexing through queues,
//    the scheduler and the shared workspace pool must not change a single
//    detection decision.
//  - Steady-state allocations: after warm-up, service quanta fleet-wide
//    perform zero heap allocations (this binary links cad_alloc_hook, so
//    cad_fleet_steady_allocs_total carries real counts).
//  - Backpressure: a full queue rejects instead of blocking, and the
//    rejection is accounted.
//  - Exposition: /metrics carries tenant-labelled pipeline series plus the
//    fleet rollups; /explain routes by tenant; all live over real HTTP.
#include "fleet/fleet_engine.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "check/check.h"
#include "common/alloc_tracker.h"
#include "core/streaming.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "testing/http_client.h"
#include "testing/synthetic.h"

namespace cad::fleet {
namespace {

core::CadOptions MakeCadOptions() {
  core::CadOptions options;
  options.window = 40;
  options.step = 4;
  options.k = 3;
  options.tau = 0.55;
  options.theta = 0.9;
  return options;
}

// Pushes the whole test split of `scenario` into tenant `tenant`, retrying
// rejected samples (ordering must be preserved, so a rejected sample is
// re-offered until the workers drain the queue).
void PushAll(FleetEngine* fleet, int tenant,
             const testing::SmallScenario& scenario) {
  std::vector<double> sample(
      static_cast<size_t>(scenario.test.n_sensors()));
  for (int t = 0; t < scenario.test.length(); ++t) {
    for (int i = 0; i < scenario.test.n_sensors(); ++i) {
      sample[static_cast<size_t>(i)] = scenario.test.value(i, t);
    }
    while (!fleet->Push(tenant, sample).ValueOrDie()) {
      std::this_thread::yield();
    }
  }
}

TEST(FleetEngineTest, SingleTenantMatchesSoloStreamingCad) {
  const testing::SmallScenario scenario = testing::MakeSmallScenario();
  core::CadOptions cad_options = MakeCadOptions();

  // Reference: the single-tenant facade fed directly. Both sides start cold
  // (FleetEngine has no WarmUp passthrough by design — tenants warm online),
  // so the comparison is apples to apples.
  obs::Registry solo_registry;
  core::CadOptions solo_options = cad_options;
  solo_options.metrics_registry = &solo_registry;
  core::StreamingCad solo_cold(scenario.test.n_sensors(), solo_options);
  std::vector<double> sample(
      static_cast<size_t>(scenario.test.n_sensors()));
  core::StreamEvent event;
  for (int t = 0; t < scenario.test.length(); ++t) {
    for (int i = 0; i < scenario.test.n_sensors(); ++i) {
      sample[static_cast<size_t>(i)] = scenario.test.value(i, t);
    }
    ASSERT_TRUE(solo_cold.Push(sample, &event).ok());
  }

  FleetOptions fleet_options;
  fleet_options.n_workers = 2;
  fleet_options.queue_capacity = 64;
  obs::Registry fleet_registry;
  fleet_options.metrics_registry = &fleet_registry;
  FleetEngine fleet(fleet_options);
  const int tenant =
      fleet.AddTenant("t0", scenario.test.n_sensors(), cad_options)
          .ValueOrDie();
  ASSERT_TRUE(fleet.Start().ok());
  PushAll(&fleet, tenant, scenario);
  fleet.Drain();
  fleet.Stop();

  const FleetEngine::TenantStatus status =
      fleet.TenantInfo(tenant).ValueOrDie();
  EXPECT_EQ(status.samples_seen, scenario.test.length());
  EXPECT_EQ(static_cast<int>(status.rounds), solo_cold.rounds_completed());

  const std::vector<core::Anomaly> fleet_anomalies =
      fleet.TenantAnomalies(tenant).ValueOrDie();
  const std::vector<core::Anomaly> solo_anomalies = solo_cold.anomalies();
  ASSERT_EQ(fleet_anomalies.size(), solo_anomalies.size());
  for (size_t i = 0; i < solo_anomalies.size(); ++i) {
    EXPECT_EQ(fleet_anomalies[i].sensors, solo_anomalies[i].sensors) << i;
    EXPECT_EQ(fleet_anomalies[i].first_round, solo_anomalies[i].first_round);
    EXPECT_EQ(fleet_anomalies[i].last_round, solo_anomalies[i].last_round);
    EXPECT_EQ(fleet_anomalies[i].start_time, solo_anomalies[i].start_time);
    EXPECT_EQ(fleet_anomalies[i].end_time, solo_anomalies[i].end_time);
    EXPECT_EQ(fleet_anomalies[i].detection_time,
              solo_anomalies[i].detection_time);
  }
}

TEST(FleetEngineTest, SteadyStateQuantaAreAllocationFreeFleetWide) {
  common::LinkAllocHook();
  const testing::SmallScenario scenario = testing::MakeSmallScenario();

  FleetOptions fleet_options;
  fleet_options.n_workers = 2;
  fleet_options.queue_capacity = 128;
  fleet_options.alloc_warmup_rounds = 24;
  obs::Registry fleet_registry;
  fleet_options.metrics_registry = &fleet_registry;
  FleetEngine fleet(fleet_options);

  constexpr int kTenants = 4;
  std::vector<int> tenants;
  for (int i = 0; i < kTenants; ++i) {
    tenants.push_back(fleet
                          .AddTenant("tenant_" + std::to_string(i),
                                     scenario.test.n_sensors(),
                                     MakeCadOptions())
                          .ValueOrDie());
  }
  ASSERT_TRUE(fleet.Start().ok());
  // Two full passes over the stream per tenant: the second pass is entirely
  // past warm-up, so steady quanta must accumulate.
  for (int pass = 0; pass < 2; ++pass) {
    for (int tenant : tenants) PushAll(&fleet, tenant, scenario);
  }
  fleet.Drain();
  fleet.Stop();

  const obs::Snapshot snapshot = fleet_registry.TakeSnapshot();
  const obs::CounterSample* steady_rounds =
      snapshot.FindCounter("cad_fleet_steady_rounds_total");
  const obs::CounterSample* steady_allocs =
      snapshot.FindCounter("cad_fleet_steady_allocs_total");
  ASSERT_NE(steady_rounds, nullptr);
  ASSERT_NE(steady_allocs, nullptr);
  EXPECT_GT(steady_rounds->value, 0u)
      << "no steady rounds measured; the audit never engaged";
#if CAD_VALIDATE_ENABLED
  // Contract validators allocate on the side at full check level; the audit
  // still runs but zero cannot hold.
  EXPECT_GE(steady_allocs->value, 0u);
#else
  EXPECT_EQ(steady_allocs->value, 0u)
      << "steady-state service quanta allocated on the worker threads";
#endif

  // The pool never created more arenas than could be concurrently borrowed.
  const WorkspacePool::Stats pool = fleet.pool_stats();
  EXPECT_LE(pool.created,
            static_cast<uint64_t>(fleet_options.n_workers));
  EXPECT_EQ(pool.in_use, 0u);
}

TEST(FleetEngineTest, QuantumWithoutARoundLeavesTheArenaCold) {
  // A quantum that closes no round never grows its arena, so the first
  // round later served on that arena is growth, not steady state — even
  // with no warm-up rounds to hide it.
  common::LinkAllocHook();
  const testing::SmallScenario scenario = testing::MakeSmallScenario();
  FleetOptions fleet_options;
  fleet_options.n_workers = 1;
  fleet_options.alloc_warmup_rounds = 0;
  obs::Registry fleet_registry;
  fleet_options.metrics_registry = &fleet_registry;
  FleetEngine fleet(fleet_options);
  const core::CadOptions cad_options = MakeCadOptions();
  const int tenant =
      fleet.AddTenant("t0", scenario.test.n_sensors(), cad_options)
          .ValueOrDie();
  std::vector<double> sample(
      static_cast<size_t>(scenario.test.n_sensors()));
  auto push = [&](int from, int to) {
    for (int t = from; t < to; ++t) {
      for (int i = 0; i < scenario.test.n_sensors(); ++i) {
        sample[static_cast<size_t>(i)] = scenario.test.value(i, t);
      }
      ASSERT_TRUE(fleet.Push(tenant, sample).ValueOrDie());
    }
  };
  push(0, 10);  // one quantum, fewer samples than a window: no round
  ASSERT_TRUE(fleet.Start().ok());
  fleet.Drain();
  push(10, cad_options.window);  // closes exactly the first round
  fleet.Drain();
  fleet.Stop();

  const obs::Snapshot snapshot = fleet_registry.TakeSnapshot();
  EXPECT_EQ(snapshot.FindCounter("cad_fleet_rounds_total")->value, 1u);
  EXPECT_EQ(snapshot.FindCounter("cad_fleet_steady_rounds_total")->value, 0u);
  EXPECT_EQ(snapshot.FindCounter("cad_fleet_steady_allocs_total")->value, 0u);
}

TEST(FleetEngineTest, FullQueueRejectsWithBackpressureAccounting) {
  FleetOptions fleet_options;
  fleet_options.queue_capacity = 8;
  obs::Registry fleet_registry;
  fleet_options.metrics_registry = &fleet_registry;
  FleetEngine fleet(fleet_options);
  core::CadOptions cad_options = MakeCadOptions();
  const int tenant = fleet.AddTenant("t0", 4, cad_options).ValueOrDie();

  // Pre-Start pushes land in the queue with no worker draining it: exactly
  // `queue_capacity` are accepted, the rest rejected.
  const std::vector<double> sample = {1.0, 2.0, 3.0, 4.0};
  int accepted = 0;
  int rejected = 0;
  for (int i = 0; i < 20; ++i) {
    if (fleet.Push(tenant, sample).ValueOrDie()) {
      ++accepted;
    } else {
      ++rejected;
    }
  }
  EXPECT_EQ(accepted, 8);
  EXPECT_EQ(rejected, 12);

  FleetEngine::TenantStatus status = fleet.TenantInfo(tenant).ValueOrDie();
  EXPECT_EQ(status.accepted, 8u);
  EXPECT_EQ(status.rejected, 12u);
  EXPECT_EQ(status.pending, 8u);

  const obs::Snapshot snapshot = fleet_registry.TakeSnapshot();
  EXPECT_EQ(snapshot.FindCounter("cad_fleet_samples_total")->value, 8u);
  EXPECT_EQ(snapshot.FindCounter("cad_fleet_samples_rejected_total")->value,
            12u);

  // Wrong-width pushes are an error, not a silent drop.
  const std::vector<double> narrow = {1.0, 2.0};
  EXPECT_FALSE(fleet.Push(tenant, narrow).ok());
  EXPECT_FALSE(fleet.Push(99, sample).ok());

  // Starting the fleet drains the backlog.
  ASSERT_TRUE(fleet.Start().ok());
  fleet.Drain();
  fleet.Stop();
  status = fleet.TenantInfo(tenant).ValueOrDie();
  EXPECT_EQ(status.pending, 0u);
  EXPECT_EQ(status.samples_seen, 8);
}

TEST(FleetEngineTest, TenantRegistrationContract) {
  FleetOptions fleet_options;
  FleetEngine fleet(fleet_options);
  const core::CadOptions cad_options = MakeCadOptions();

  EXPECT_TRUE(fleet.AddTenant("ok_name.v1-a", 4, cad_options).ok());
  EXPECT_FALSE(fleet.AddTenant("ok_name.v1-a", 4, cad_options).ok())
      << "duplicate name";
  EXPECT_FALSE(fleet.AddTenant("", 4, cad_options).ok());
  EXPECT_FALSE(fleet.AddTenant("Bad", 4, cad_options).ok()) << "uppercase";
  EXPECT_FALSE(fleet.AddTenant("-leading", 4, cad_options).ok());
  EXPECT_FALSE(fleet.AddTenant("sp ace", 4, cad_options).ok());
  EXPECT_FALSE(fleet.AddTenant(std::string(121, 'a'), 4, cad_options).ok());
  EXPECT_FALSE(fleet.AddTenant("zero_sensors", 0, cad_options).ok());
  // The scheduler's stride 1 / weight must be finite and positive: +inf
  // never advances a tenant's virtual time, a denormal makes it +inf.
  // Distinct names, so no case can pass as a duplicate of an accepted one.
  using Limits = std::numeric_limits<double>;
  int case_id = 0;
  for (const double weight : {0.0, -1.0, Limits::quiet_NaN(),
                              Limits::infinity(), 1e-320,
                              Limits::denorm_min()}) {
    const std::string name = "bad_weight_" + std::to_string(case_id++);
    EXPECT_EQ(fleet.AddTenant(name, 4, cad_options, weight).status().code(),
              StatusCode::kInvalidArgument)
        << "weight " << weight;
  }
  EXPECT_TRUE(fleet.AddTenant("tiny_weight", 4, cad_options, 1e-300).ok());

  EXPECT_EQ(fleet.TenantIndex("ok_name.v1-a").ValueOrDie(), 0);
  EXPECT_FALSE(fleet.TenantIndex("missing").ok());

  ASSERT_TRUE(fleet.Start().ok());
  EXPECT_FALSE(fleet.AddTenant("too_late", 4, cad_options).ok())
      << "tenant set is sealed at Start";
  fleet.Stop();
}

TEST(FleetEngineTest, InvalidOptionsFailStart) {
  FleetOptions bad;
  bad.n_workers = 0;
  FleetEngine fleet(bad);
  EXPECT_FALSE(fleet.Start().ok());
}

// The fleet's options size each tenant's queue, so AddTenant checks them
// (a negative capacity threw out of the queue's constructor).
TEST(FleetEngineTest, AddTenantRejectsInvalidFleetOptions) {
  FleetOptions bad;
  bad.queue_capacity = -1;
  FleetEngine fleet(bad);
  EXPECT_EQ(fleet.AddTenant("t0", 4, MakeCadOptions()).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(FleetEngineTest, ExpositionServesLabelledMetricsHealthAndExplain) {
  const testing::SmallScenario scenario = testing::MakeSmallScenario();
  FleetOptions fleet_options;
  fleet_options.n_workers = 2;
  fleet_options.exposition_port = 0;  // ephemeral
  obs::Registry fleet_registry;
  fleet_options.metrics_registry = &fleet_registry;
  FleetEngine fleet(fleet_options);
  const core::CadOptions cad_options = MakeCadOptions();
  const int alpha =
      fleet.AddTenant("alpha", scenario.test.n_sensors(), cad_options)
          .ValueOrDie();
  (void)fleet.AddTenant("beta", scenario.test.n_sensors(), cad_options)
      .ValueOrDie();
  ASSERT_TRUE(fleet.Start().ok());
  const int port = fleet.exposition_port();
  ASSERT_GT(port, 0);

  PushAll(&fleet, alpha, scenario);
  fleet.Drain();

  const testing::HttpResponse metrics = testing::HttpGet(port, "/metrics");
  ASSERT_TRUE(metrics.ok);
  EXPECT_EQ(metrics.status_code, 200);
  EXPECT_NE(metrics.body.find("cad_fleet_rounds_total"), std::string::npos);
  EXPECT_NE(metrics.body.find("cad_rounds_total{tenant=\"alpha\"}"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("{tenant=\"beta\"}"), std::string::npos);

  const testing::HttpResponse health = testing::HttpGet(port, "/healthz");
  ASSERT_TRUE(health.ok);
  EXPECT_EQ(health.status_code, 200);
  EXPECT_NE(health.body.find("\"tenants\":2"), std::string::npos);

  // A round alpha has definitely run; the flight recorder serves it.
  const FleetEngine::TenantStatus status =
      fleet.TenantInfo(alpha).ValueOrDie();
  ASSERT_GT(status.rounds, 0u);
  const int last_round = static_cast<int>(status.rounds) - 1;
  const testing::HttpResponse explain = testing::HttpGet(
      port, "/explain?tenant=alpha&round=" + std::to_string(last_round));
  ASSERT_TRUE(explain.ok);
  EXPECT_EQ(explain.status_code, 200);
  EXPECT_NE(explain.body.find("\"round\":" + std::to_string(last_round)),
            std::string::npos);

  const testing::HttpResponse unknown =
      testing::HttpGet(port, "/explain?tenant=nobody&round=0");
  ASSERT_TRUE(unknown.ok);
  EXPECT_EQ(unknown.status_code, 404);

  fleet.Stop();
  EXPECT_EQ(fleet.exposition_port(), -1);
}

TEST(FleetEngineTest, MetricsTextWithoutServerAndHealthRollup) {
  FleetOptions fleet_options;
  obs::Registry fleet_registry;
  fleet_options.metrics_registry = &fleet_registry;
  FleetEngine fleet(fleet_options);
  const core::CadOptions cad_options = MakeCadOptions();
  const int tenant = fleet.AddTenant("gamma", 4, cad_options).ValueOrDie();
  const std::vector<double> sample = {0.0, 0.0, 0.0, 0.0};
  ASSERT_TRUE(fleet.Push(tenant, sample).ValueOrDie());

  const std::string text = fleet.MetricsText();
  EXPECT_NE(text.find("cad_fleet_samples_total 1"), std::string::npos);
  EXPECT_NE(text.find("{tenant=\"gamma\"}"), std::string::npos);

  const std::string health = fleet.HealthJson();
  EXPECT_NE(health.find("\"tenants\":1"), std::string::npos);
  EXPECT_NE(health.find("\"samples_accepted\":1"), std::string::npos);
  EXPECT_NE(health.find("\"pending_samples\":1"), std::string::npos);

  EXPECT_TRUE(fleet.ExplainTenantJson("nobody", 0).empty());
  EXPECT_TRUE(fleet.ExplainTenantJson("gamma", 1234).empty());
}

}  // namespace
}  // namespace cad::fleet
