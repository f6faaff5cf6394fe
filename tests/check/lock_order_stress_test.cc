// Deadlock-freedom stress: two live StreamingCad instances sharing one
// Registry and one Tracer, each exposing the HTTP surface, scraped
// concurrently (/metrics, /healthz, /advise) while samples are in flight
// and servers start and stop. Under the `deadlock` preset this runs with
// TSan *and* the runtime lock-order tracker armed (CAD_CHECK_LEVEL=full),
// so the test sweeps every capability in the common/lock_order.h hierarchy
// — ExpositionServer::join_mu_, StreamingCad::mu_, obs::Registry::mu_,
// obs::Tracer::mu_ — through real cross-thread interleavings: any lock
// inversion CAD_FATALs with both chains, any race is a TSan report. In
// tier-1 builds the tracker is compiled out and this is a plain
// concurrency smoke over the same seams.
//
// The second test sweeps the fleet layer's ranks the same way: scheduler
// (14), workspace pool (15), tenant (16) and queue (18) mutexes interleaved
// with registry (30) telemetry across producers, the worker pool, accessor
// readers and live HTTP scrapers.
#include <atomic>
#include <chrono>
#include <cmath>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/mutex.h"
#include "core/cad_options.h"
#include "core/streaming.h"
#include "fleet/fleet_engine.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "testing/http_client.h"

namespace cad {
namespace {

using cad::testing::HttpGet;
using cad::testing::HttpResponse;

TEST(LockOrderStressTest, StreamsServersAndScrapersInterleave) {
  common::LockOrderTrackerResetForTest();
  obs::Registry registry;
  obs::Tracer tracer(/*capacity=*/1 << 10);
  tracer.Enable();

  constexpr int kStreams = 2;
  constexpr int kSensors = 5;
  constexpr int kSamples = 160;
  std::atomic<bool> go{false};
  std::atomic<int> ports[kStreams] = {};
  std::atomic<int> scrapes_ok{0};

  std::vector<std::thread> pushers;
  pushers.reserve(kStreams);
  for (int s = 0; s < kStreams; ++s) {
    pushers.emplace_back([&registry, &tracer, &go, &ports, &scrapes_ok, s] {
      core::CadOptions options;
      options.window = 32;
      options.step = 8;
      options.k = 3;
      options.tau = 0.3;
      options.metrics_registry = &registry;
      options.tracer = &tracer;
      options.exposition_port = 0;
      core::StreamingCad stream(kSensors, options);
      ports[s].store(stream.exposition_port(), std::memory_order_release);

      while (!go.load(std::memory_order_acquire)) {}
      std::vector<double> sample(kSensors);
      core::StreamEvent event;
      for (int t = 0; t < kSamples; ++t) {
        for (int i = 0; i < kSensors; ++i) {
          sample[static_cast<size_t>(i)] =
              std::sin(0.1 * t + 0.7 * s) + 0.01 * i;
        }
        ASSERT_TRUE(stream.Push(sample, &event).ok());
        if (t % 16 == 0) (void)stream.Health();
      }
      // The 160-sample burst finishes in milliseconds; on a loaded
      // machine both servers could be torn down before any scraper ever
      // connects. Hold this one live until a scrape lands (bounded), so
      // the scrapes_ok assertion below cannot race the teardown.
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(5);
      while (scrapes_ok.load(std::memory_order_acquire) == 0 &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
      // Destruction joins the serve thread (ExpositionServer::join_mu_)
      // while scrapers are still probing the other stream's surface.
    });
  }

  // Scrapers hammer every endpoint of both servers for the whole run; a
  // server that has already stopped just fails the connect, which is fine —
  // the point is concurrent lock traffic, not availability.
  std::atomic<bool> stop{false};
  std::vector<std::thread> scrapers;
  for (int c = 0; c < 2; ++c) {
    scrapers.emplace_back([&ports, &stop, &scrapes_ok, c] {
      const char* const targets[] = {"/metrics", "/healthz", "/advise"};
      int turn = c;
      while (!stop.load(std::memory_order_acquire)) {
        const int port =
            ports[turn % kStreams].load(std::memory_order_acquire);
        if (port > 0) {
          const HttpResponse response = HttpGet(
              static_cast<uint16_t>(port), targets[turn % 3]);
          if (response.ok && response.status_code != 0) {
            scrapes_ok.fetch_add(1, std::memory_order_relaxed);
          }
        }
        ++turn;
      }
    });
  }

  go.store(true, std::memory_order_release);
  for (std::thread& t : pushers) t.join();
  stop.store(true, std::memory_order_release);
  for (std::thread& t : scrapers) t.join();

  EXPECT_GT(scrapes_ok.load(), 0)
      << "no scrape ever reached a live exposition server";
  if (common::LockOrderTrackerActive()) {
    // The tracker watched the whole interleaving and nothing was fatal;
    // the acquired-after graph must have recorded real nesting (at least
    // StreamingCad::mu_ -> obs::Registry::mu_ from the metrics flush).
    EXPECT_GT(common::LockOrderTrackedEdgeCount(), 0u);
  }
}

TEST(LockOrderStressTest, FleetRanksSweptUnderLoad) {
  common::LockOrderTrackerResetForTest();
  constexpr int kTenants = 8;
  constexpr int kSensors = 5;

  fleet::FleetOptions fleet_options;
  fleet_options.n_workers = 3;
  fleet_options.queue_capacity = 64;
  fleet_options.quantum_samples = 8;
  fleet_options.exposition_port = 0;
  obs::Registry fleet_registry;
  fleet_options.metrics_registry = &fleet_registry;
  fleet::FleetEngine fleet(fleet_options);

  core::CadOptions options;
  options.window = 32;
  options.step = 8;
  options.k = 3;
  options.tau = 0.3;
  for (int t = 0; t < kTenants; ++t) {
    ASSERT_TRUE(fleet
                    .AddTenant("tenant_" + std::to_string(t), kSensors,
                               options, 1.0 + t % 3)
                    .ok());
  }
  ASSERT_TRUE(fleet.Start().ok());
  const int port = fleet.exposition_port();
  ASSERT_GT(port, 0);

  // Producers exercise queue(18) -> scheduler(14); the worker pool runs
  // scheduler(14), pool(15), tenant(16){queue(18), registry(30)}
  // concurrently.
  std::atomic<bool> stop{false};
  std::vector<std::thread> producers;
  producers.reserve(2);
  for (int p = 0; p < 2; ++p) {
    producers.emplace_back([&fleet, &stop, p] {
      std::vector<double> sample(kSensors);
      int t = 0;
      while (!stop.load(std::memory_order_acquire)) {
        for (int i = 0; i < kSensors; ++i) {
          sample[static_cast<size_t>(i)] =
              std::sin(0.1 * t + 0.5 * p) + 0.01 * i;
        }
        for (int tenant = p; tenant < kTenants; tenant += 2) {
          ASSERT_TRUE(fleet.Push(tenant, sample).ok());
        }
        ++t;
      }
    });
  }

  // Readers take the same tenant(16) / registry(30) locks from the accessor
  // and HTTP sides while the workers hold them per quantum.
  std::atomic<int> scrapes_ok{0};
  std::thread scraper([&stop, &scrapes_ok, port] {
    const char* const targets[] = {"/metrics", "/healthz",
                                   "/explain?tenant=tenant_0&round=0"};
    int turn = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const HttpResponse response =
          HttpGet(static_cast<uint16_t>(port), targets[turn % 3]);
      if (response.ok && response.status_code != 0) {
        scrapes_ok.fetch_add(1, std::memory_order_relaxed);
      }
      ++turn;
    }
  });
  std::thread reader([&fleet, &stop] {
    int turn = 0;
    while (!stop.load(std::memory_order_acquire)) {
      (void)fleet.TenantInfo(turn % kTenants);
      if (turn % 8 == 0) (void)fleet.HealthJson();
      ++turn;
      std::this_thread::yield();
    }
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  stop.store(true, std::memory_order_release);
  for (std::thread& producer : producers) producer.join();
  scraper.join();
  reader.join();
  fleet.Drain();
  fleet.Stop();

  EXPECT_GT(scrapes_ok.load(), 0)
      << "no scrape ever reached the fleet exposition server";
  EXPECT_GT(fleet.scheduler().total_quanta(), 0u);
  if (common::LockOrderTrackerActive()) {
    // The fleet nesting (tenant -> queue, tenant -> registry) must have
    // been observed on top of the solo hierarchy.
    EXPECT_GT(common::LockOrderTrackedEdgeCount(), 0u);
  }
}

}  // namespace
}  // namespace cad
