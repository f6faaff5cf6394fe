// Multi-threaded stress for the obs layer and StreamingCad — the TSan
// target of tools/verify_matrix.sh. The obs Registry promises lock-free
// recording through stable instrument pointers plus mutex-guarded
// registration and snapshots; each StreamingCad instance is single-threaded
// by contract but many streams may share one Registry and one Tracer. The
// test hammers exactly those shared seams from concurrent threads and then
// cross-checks the aggregated counters, so a data race surfaces either as a
// TSan report or as lost updates.
#include <atomic>
#include <cmath>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/cad_options.h"
#include "core/streaming.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace cad {
namespace {

TEST(ConcurrencyStressTest, RegistryRegistrationAndRecordingRace) {
  obs::Registry registry;
  constexpr int kThreads = 8;
  constexpr int kIterations = 2000;
  std::atomic<bool> go{false};

  std::vector<std::thread> workers;
  workers.reserve(kThreads + 1);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&registry, &go, t] {
      while (!go.load(std::memory_order_acquire)) {}
      // Half the threads contend on the *same* names (find-or-create race),
      // half use private names (map-growth race against readers).
      const std::string counter_name =
          t % 2 == 0 ? "stress_shared_counter"
                     : "stress_counter_" + std::to_string(t);
      for (int i = 0; i < kIterations; ++i) {
        registry.counter(counter_name).Increment();
        registry.gauge("stress_shared_gauge").Set(static_cast<double>(i));
        registry.histogram("stress_shared_hist").Observe(1e-4 * i);
      }
    });
  }
  // One concurrent snapshotter: TakeSnapshot must see a consistent map while
  // registrations and increments are in flight.
  std::atomic<bool> stop{false};
  workers.emplace_back([&registry, &go, &stop] {
    while (!go.load(std::memory_order_acquire)) {}
    while (!stop.load(std::memory_order_acquire)) {
      const obs::Snapshot snapshot = registry.TakeSnapshot();
      ASSERT_LE(snapshot.counters.size(), 1u + kThreads);
    }
  });

  go.store(true, std::memory_order_release);
  for (int t = 0; t < kThreads; ++t) workers[static_cast<size_t>(t)].join();
  stop.store(true, std::memory_order_release);
  workers.back().join();

  const obs::Snapshot snapshot = registry.TakeSnapshot();
  const obs::CounterSample* shared =
      snapshot.FindCounter("stress_shared_counter");
  ASSERT_NE(shared, nullptr);
  EXPECT_EQ(shared->value,
            static_cast<uint64_t>(kThreads / 2) * kIterations);
  const obs::HistogramSample* hist =
      snapshot.FindHistogram("stress_shared_hist");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count(), static_cast<uint64_t>(kThreads) * kIterations);
}

TEST(ConcurrencyStressTest, ParallelStreamsShareRegistryAndTracer) {
  obs::Registry registry;
  obs::Tracer tracer(/*capacity=*/1 << 12);
  tracer.Enable();

  constexpr int kStreams = 4;
  constexpr int kSensors = 6;
  constexpr int kSamples = 240;
  std::atomic<int> rounds_seen{0};
  std::atomic<bool> go{false};

  std::vector<std::thread> streams;
  streams.reserve(kStreams);
  for (int s = 0; s < kStreams; ++s) {
    streams.emplace_back([&registry, &tracer, &rounds_seen, &go, s] {
      core::CadOptions options;
      options.window = 32;
      options.step = 8;
      options.k = 3;
      options.tau = 0.3;
      options.metrics_registry = &registry;
      options.tracer = &tracer;
      core::StreamingCad stream(kSensors, options);

      while (!go.load(std::memory_order_acquire)) {}
      std::vector<double> sample(kSensors);
      core::StreamEvent event;
      for (int t = 0; t < kSamples; ++t) {
        for (int i = 0; i < kSensors; ++i) {
          // Deterministic correlated signal with a per-stream phase; the
          // values only need to exercise full rounds, not detect anything.
          sample[static_cast<size_t>(i)] =
              std::sin(0.1 * t + 0.5 * s) + 0.01 * i;
        }
        const Result<bool> pushed = stream.Push(sample, &event);
        ASSERT_TRUE(pushed.ok()) << pushed.status().ToString();
        if (pushed.value()) {
          rounds_seen.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  // Concurrent observers of the shared telemetry surfaces.
  std::atomic<bool> stop{false};
  std::thread snapshotter([&registry, &tracer, &stop] {
    while (!stop.load(std::memory_order_acquire)) {
      (void)registry.TakeSnapshot();
      (void)tracer.event_count();
    }
  });

  go.store(true, std::memory_order_release);
  for (std::thread& t : streams) t.join();
  stop.store(true, std::memory_order_release);
  snapshotter.join();

  // Lost-update detection on the lock-free counters: every pushed sample and
  // every completed round must be visible in the shared registry.
  const obs::Snapshot snapshot = registry.TakeSnapshot();
  const obs::CounterSample* samples =
      snapshot.FindCounter("cad_stream_samples_total");
  ASSERT_NE(samples, nullptr);
  EXPECT_EQ(samples->value, static_cast<uint64_t>(kStreams) * kSamples);
  const obs::CounterSample* rounds = snapshot.FindCounter("cad_rounds_total");
  ASSERT_NE(rounds, nullptr);
  EXPECT_EQ(rounds->value, static_cast<uint64_t>(rounds_seen.load()));
  EXPECT_GT(rounds_seen.load(), 0);
  // Tracer recorded spans from all streams (bounded buffer may have dropped
  // some; recorded + dropped covers every span).
  EXPECT_GT(tracer.event_count() + tracer.dropped(), 0u);
}

}  // namespace
}  // namespace cad
