// Proof that steady-state detection rounds are allocation-free: this binary
// links cad_alloc_hook (global operator-new replacement counting into a
// thread-local), the engine measures the count delta across each round and
// publishes it as the `cad_round_allocs` gauge, and this test asserts the
// gauge reads zero for steady-state rounds of both drivers.
//
// Rounds that *close* an anomaly may allocate (the assembler appends the
// finished anomaly); warm-up rounds grow workspace capacity once. The test
// therefore asserts on rounds past a warm-up prefix that report no anomaly
// transition.
//
// At CAD_CHECK_LEVEL=full the CAD_VALIDATE contract validators re-derive
// structures on the side (by design, with their own allocations), so the
// zero assertion only holds in non-validating builds; under the `checked`
// preset the test downgrades to "the gauge is registered and finite".
#include <gtest/gtest.h>

#include "check/check.h"
#include "common/alloc_tracker.h"
#include "core/cad_detector.h"
#include "core/streaming.h"
#include "obs/metrics.h"
#include "testing/synthetic.h"

namespace cad::core {
namespace {

CadOptions MakeOptions(obs::Registry* registry) {
  CadOptions options;
  options.window = 40;
  options.step = 4;
  options.k = 3;
  options.tau = 0.55;
  options.theta = 0.9;
  options.metrics_registry = registry;
  return options;
}

double RoundAllocsGauge(const obs::Snapshot& snapshot) {
  const obs::GaugeSample* gauge = snapshot.FindGauge("cad_round_allocs");
  EXPECT_NE(gauge, nullptr) << "cad_round_allocs gauge not registered";
  return gauge != nullptr ? gauge->value : -1.0;
}

TEST(EngineAllocTest, HookIsInstalled) {
  common::LinkAllocHook();
  EXPECT_TRUE(common::AllocHookInstalled());
  const int64_t before = common::ThreadAllocCount();
  // Call the replaced operator directly: a plain new/delete pair is eligible
  // for allocation elision at -O2 and would leave the counter untouched.
  void* probe = ::operator new(16);
  const int64_t after = common::ThreadAllocCount();
  ::operator delete(probe);
  EXPECT_GT(after, before) << "operator new replacement is not counting";
}

TEST(EngineAllocTest, StreamingSteadyStateRoundsAreAllocationFree) {
  common::LinkAllocHook();
  const testing::SmallScenario scenario = testing::MakeSmallScenario();
  obs::Registry registry;
  StreamingCad streaming(scenario.test.n_sensors(), MakeOptions(&registry));
  ASSERT_TRUE(streaming.WarmUp(scenario.train).ok());

  // The first rounds grow workspace buffers to capacity; everything after
  // must run without touching the heap.
  constexpr int kWarmupRounds = 8;
  int steady_rounds = 0;
  bool prev_abnormal = false;
  std::vector<double> sample(scenario.test.n_sensors());
  StreamEvent event;
  for (int t = 0; t < scenario.test.length(); ++t) {
    for (int i = 0; i < scenario.test.n_sensors(); ++i) {
      sample[i] = scenario.test.value(i, t);
    }
    if (!streaming.Push(sample, &event).ValueOrDie()) continue;
    // Rounds that open or close an anomaly may append to the assembler by
    // design; the zero contract covers steady-state rounds only.
    const bool transition = event.abnormal || prev_abnormal;
    prev_abnormal = event.abnormal;
    if (event.round < kWarmupRounds || transition) continue;
    const double allocs = RoundAllocsGauge(registry.TakeSnapshot());
#if CAD_VALIDATE_ENABLED
    EXPECT_GE(allocs, 0.0);  // validators allocate by design at level=full
#else
    EXPECT_EQ(allocs, 0.0) << "round " << event.round
                           << " allocated on the steady-state path";
#endif
    ++steady_rounds;
  }
  EXPECT_GT(steady_rounds, 50) << "scenario too short to exercise steady state";
}

TEST(EngineAllocTest, FlightRecorderWraparoundStaysAllocationFree) {
  // A deliberately tiny ring: the run wraps it many times over, so steady
  // state covers slot reuse (in-place overwrite) rather than first-fill
  // growth. The flight recorder must not cost the hot path a single
  // allocation.
  common::LinkAllocHook();
  const testing::SmallScenario scenario = testing::MakeSmallScenario();
  obs::Registry registry;
  CadOptions options = MakeOptions(&registry);
  options.flight_log_capacity = 16;
  StreamingCad streaming(scenario.test.n_sensors(), options);
  ASSERT_TRUE(streaming.WarmUp(scenario.train).ok());

  constexpr int kWarmupRounds = 8;
  int steady_rounds = 0;
  bool prev_abnormal = false;
  std::vector<double> sample(scenario.test.n_sensors());
  StreamEvent event;
  for (int t = 0; t < scenario.test.length(); ++t) {
    for (int i = 0; i < scenario.test.n_sensors(); ++i) {
      sample[i] = scenario.test.value(i, t);
    }
    if (!streaming.Push(sample, &event).ValueOrDie()) continue;
    const bool transition = event.abnormal || prev_abnormal;
    prev_abnormal = event.abnormal;
    if (event.round < kWarmupRounds || transition) continue;
    const double allocs = RoundAllocsGauge(registry.TakeSnapshot());
#if CAD_VALIDATE_ENABLED
    EXPECT_GE(allocs, 0.0);
#else
    EXPECT_EQ(allocs, 0.0) << "round " << event.round
                           << " allocated while flight recording";
#endif
    ++steady_rounds;
  }
  // The ring wrapped (rounds >> capacity) and the recorder was live.
  EXPECT_GT(streaming.rounds_completed(), 10 * options.flight_log_capacity);
  const StreamHealth health = streaming.Health();
  EXPECT_EQ(health.flight_ring_capacity, 16);
  EXPECT_EQ(health.flight_ring_size, 16);
  EXPECT_GT(steady_rounds, 50) << "scenario too short to exercise steady state";
}

TEST(EngineAllocTest, LargeNonDefaultCapacityStaysAllocationFree) {
  // The other direction from the tiny-ring test: a ring far above the 256
  // default (CadOptions::flight_log_capacity is configurable so the advisor
  // can triage long incidents). Preallocation must cover the whole capacity
  // up front — holding more rounds than the default could ever keep must not
  // put a single allocation on the steady-state path.
  common::LinkAllocHook();
  const testing::SmallScenario scenario = testing::MakeSmallScenario();
  obs::Registry registry;
  CadOptions options = MakeOptions(&registry);
  options.step = 2;  // more rounds than the 256 default would retain
  options.flight_log_capacity = 1024;
  StreamingCad streaming(scenario.test.n_sensors(), options);
  ASSERT_TRUE(streaming.WarmUp(scenario.train).ok());

  constexpr int kWarmupRounds = 8;
  int steady_rounds = 0;
  bool prev_abnormal = false;
  std::vector<double> sample(scenario.test.n_sensors());
  StreamEvent event;
  for (int t = 0; t < scenario.test.length(); ++t) {
    for (int i = 0; i < scenario.test.n_sensors(); ++i) {
      sample[i] = scenario.test.value(i, t);
    }
    if (!streaming.Push(sample, &event).ValueOrDie()) continue;
    const bool transition = event.abnormal || prev_abnormal;
    prev_abnormal = event.abnormal;
    if (event.round < kWarmupRounds || transition) continue;
    const double allocs = RoundAllocsGauge(registry.TakeSnapshot());
#if CAD_VALIDATE_ENABLED
    EXPECT_GE(allocs, 0.0);
#else
    EXPECT_EQ(allocs, 0.0) << "round " << event.round
                           << " allocated with a large flight ring";
#endif
    ++steady_rounds;
  }
  // Every round is still held — more than the default capacity could keep.
  const StreamHealth health = streaming.Health();
  EXPECT_EQ(health.flight_ring_capacity, 1024);
  EXPECT_EQ(health.flight_ring_size, streaming.rounds_completed());
  EXPECT_GT(health.flight_ring_size, CadOptions{}.flight_log_capacity);
  EXPECT_GT(steady_rounds, 50) << "scenario too short to exercise steady state";
}

// ---------------------------------------------------------------------------
// Option-variant sweep: the zero-allocation contract must hold in every
// supported telemetry/flight-recorder configuration, not just the default
// one — each variant routes the round loop through different observability
// code (private vs process-global registry, recording vs skipping the ring).
// Validators-at-full builds (CAD_CHECK_LEVEL=full) run the same sweep but
// downgrade the assertion, as the contract validators allocate by design.
// ---------------------------------------------------------------------------

struct AllocSweepCase {
  const char* name;
  bool private_registry;    // false = CadOptions::metrics_registry unset
                            // (process-global registry)
  int flight_log_capacity;  // 0 disables the recorder entirely
};

class EngineAllocSweepTest : public ::testing::TestWithParam<AllocSweepCase> {};

TEST_P(EngineAllocSweepTest, SteadyStateRoundsAreAllocationFree) {
  const AllocSweepCase& c = GetParam();
  common::LinkAllocHook();
  const testing::SmallScenario scenario = testing::MakeSmallScenario();
  obs::Registry registry;
  CadOptions options = MakeOptions(c.private_registry ? &registry : nullptr);
  options.flight_log_capacity = c.flight_log_capacity;
  StreamingCad streaming(scenario.test.n_sensors(), options);
  ASSERT_TRUE(streaming.WarmUp(scenario.train).ok());

  constexpr int kWarmupRounds = 8;
  int steady_rounds = 0;
  bool prev_abnormal = false;
  std::vector<double> sample(scenario.test.n_sensors());
  StreamEvent event;
  for (int t = 0; t < scenario.test.length(); ++t) {
    for (int i = 0; i < scenario.test.n_sensors(); ++i) {
      sample[i] = scenario.test.value(i, t);
    }
    if (!streaming.Push(sample, &event).ValueOrDie()) continue;
    const bool transition = event.abnormal || prev_abnormal;
    prev_abnormal = event.abnormal;
    if (event.round < kWarmupRounds || transition) continue;
    // The gauge lives wherever the engine publishes telemetry: the private
    // registry when one was supplied, the process-global one otherwise (we
    // read immediately after our own round, so the last write is ours).
    obs::Registry& gauge_home =
        c.private_registry ? registry : obs::Registry::Global();
    const double allocs = RoundAllocsGauge(gauge_home.TakeSnapshot());
#if CAD_VALIDATE_ENABLED
    EXPECT_GE(allocs, 0.0);  // validators allocate by design at level=full
#else
    EXPECT_EQ(allocs, 0.0) << "round " << event.round << " allocated under "
                           << c.name;
#endif
    ++steady_rounds;
  }
  EXPECT_GT(steady_rounds, 50) << "scenario too short to exercise steady state";
}

INSTANTIATE_TEST_SUITE_P(
    OptionVariants, EngineAllocSweepTest,
    ::testing::Values(
        AllocSweepCase{"private_registry_flight_off", true, 0},
        AllocSweepCase{"private_registry_flight_default", true, 256},
        AllocSweepCase{"global_registry_flight_off", false, 0},
        AllocSweepCase{"global_registry_flight_default", false, 256}),
    [](const ::testing::TestParamInfo<AllocSweepCase>& info) {
      return std::string(info.param.name);
    });

TEST(EngineAllocTest, ReusingPushOverloadIsAllocationFreeEndToEnd) {
  // The cad_round_allocs gauge only audits the engine's round; this test
  // audits the *whole* driver call — the engine's ingest and round plus the
  // event fill-in — by measuring the thread allocation delta across every
  // Push(sample, &event). This is the regression fence for the bench
  // discrepancy where the harness reported ~14 allocs/round while the gauge
  // read 0: those were harness-side allocations (event vectors rebuilt every
  // round) leaking into the measurement window. With the event reused,
  // steady state must be zero end to end.
  common::LinkAllocHook();
  const testing::SmallScenario scenario = testing::MakeSmallScenario();
  obs::Registry registry;
  StreamingCad streaming(scenario.test.n_sensors(), MakeOptions(&registry));
  ASSERT_TRUE(streaming.WarmUp(scenario.train).ok());

  constexpr int kWarmupRounds = 8;
  int steady_pushes = 0;
  bool anomaly_open = false;
  StreamEvent event;
  std::vector<double> sample(scenario.test.n_sensors());
  for (int t = 0; t < scenario.test.length(); ++t) {
    for (int i = 0; i < scenario.test.n_sensors(); ++i) {
      sample[i] = scenario.test.value(i, t);
    }
    const int64_t before = common::ThreadAllocCount();
    const bool round_done = streaming.Push(sample, &event).ValueOrDie();
    const int64_t allocs = common::ThreadAllocCount() - before;

    // Same exclusions as the gauge tests: warm-up rounds grow capacity,
    // anomaly open/close transitions append to the assembler by design.
    const bool transition =
        round_done && (event.abnormal || anomaly_open);
    if (round_done) anomaly_open = event.abnormal;
    if (streaming.rounds_completed() <= kWarmupRounds) continue;
    if (transition || anomaly_open) continue;
#if CAD_VALIDATE_ENABLED
    EXPECT_GE(allocs, 0);  // validators allocate by design at level=full
#else
    EXPECT_EQ(allocs, 0) << "Push at t=" << t
                         << (round_done ? " (round)" : " (ingest only)")
                         << " allocated on the steady-state path";
#endif
    ++steady_pushes;
  }
  EXPECT_GT(steady_pushes, 200) << "scenario too short to exercise steady state";
}

TEST(EngineAllocTest, BatchFinalRoundIsAllocationFree) {
  common::LinkAllocHook();
  const testing::SmallScenario scenario = testing::MakeSmallScenario();
  obs::Registry registry;
  CadDetector detector(MakeOptions(&registry));
  const DetectionReport report =
      detector.Detect(scenario.test, &scenario.train).ValueOrDie();
  ASSERT_FALSE(report.rounds.empty());

  // The gauge holds the last completed round's count. The scenario ends on
  // normal rounds, so that round must be clean too.
  ASSERT_FALSE(report.rounds.back().abnormal)
      << "scenario must end on a normal round for this assertion";
  const double allocs = RoundAllocsGauge(report.telemetry);
#if CAD_VALIDATE_ENABLED
  EXPECT_GE(allocs, 0.0);
#else
  EXPECT_EQ(allocs, 0.0) << "final batch round allocated";
#endif
}

}  // namespace
}  // namespace cad::core
