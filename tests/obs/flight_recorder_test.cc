#include "obs/flight_recorder.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "check/check.h"
#include "common/alloc_tracker.h"

namespace cad::obs {
namespace {

// Records a synthetic round whose fields are derived from the round index,
// so eviction / lookup results are checkable by value.
void RecordRound(FlightRecorder* recorder, int round) {
  DecisionFacts facts;
  facts.round = round;
  facts.window_start = round * 4;
  facts.window_end = round * 4 + 40;
  facts.n_variations = round % 5;
  facts.mu = 0.5 * round;
  facts.sigma = 0.25;
  facts.threshold = 0.75;
  facts.score = 0.1;
  facts.abnormal = (round % 3 == 0);
  const int ids[] = {round};
  recorder->Record(facts, ids, {}, ids);
}

TEST(FlightRecorderTest, DisabledRecorderAnswersEverythingEmpty) {
  FlightRecorder recorder;
  EXPECT_FALSE(recorder.enabled());
  EXPECT_EQ(recorder.capacity(), 0);
  EXPECT_EQ(recorder.size(), 0);
  EXPECT_FALSE(recorder.latest().has_value());
  EXPECT_FALSE(recorder.Find(0).has_value());
  EXPECT_FALSE(recorder.Explain(0).has_value());
  EXPECT_TRUE(recorder.Records().empty());
  std::string jsonl;
  recorder.DumpJsonl(&jsonl);
  EXPECT_TRUE(jsonl.empty());
}

TEST(FlightRecorderTest, ConstructionIsTwoBlocks) {
  // The default ring of an 8-sensor tenant: one slot array and one id arena
  // (reserving three id vectors per slot instead costs 770 allocations).
  common::LinkAllocHook();
  ASSERT_TRUE(common::AllocHookInstalled());
  const int64_t before = common::ThreadAllocCount();
  FlightRecorder recorder(256, 8);
  const int64_t allocs = common::ThreadAllocCount() - before;
  EXPECT_LE(allocs, 3);
  EXPECT_EQ(recorder.capacity(), 256);
}

int64_t WallNowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

// Round r of a worst-case stream over `n` sensors: entered and exited split
// all n sensors (at a split point that walks 0 ... n), movers = entered, so
// the slot's arena range is full whenever the split is n. Every scalar is
// distinct per round and has a non-trivial JSON form.
DecisionRecord WorstCaseRound(int round, int n) {
  DecisionRecord record;
  record.round = round;
  record.window_start = round * 3;
  record.window_end = round * 3 + 32;
  record.n_variations = n;
  record.mu = round / 3.0;
  record.sigma = 1.0 / (round + 7);
  record.threshold = 2.5 * record.sigma;
  record.score = 0.125 * (round % 9);
  record.abnormal = round % 4 == 1;
  record.anomaly_open = round % 4 != 0;
  record.n_outliers = round % n;
  record.n_communities = 1 + round % 3;
  record.n_edges = 10 * round;
  record.modularity = -0.5 + round / 97.0;
  record.correlation_seconds = 1e-6 * round;
  record.knn_seconds = 2e-6 * round + 1e-9;
  record.louvain_seconds = 3e-7 * round;
  record.coappearance_seconds = 1.0 / 3e6;
  record.round_seconds = 5e-6 * round + 1.0 / 7e5;
  const int split = round % (n + 1);
  for (int v = 0; v < n; ++v) {
    (v < split ? record.entered : record.exited).push_back((v + round) % n);
  }
  record.movers = record.entered;
  return record;
}

TEST(FlightRecorderTest, RoundTripMatchesReferenceRecordsByteForByte) {
  constexpr int kCapacity = 8;
  constexpr int kSensors = 5;
  constexpr int kRounds = 3 * kCapacity;
  common::LinkAllocHook();
  FlightRecorder recorder(kCapacity, kSensors);
  std::vector<DecisionRecord> reference;
  for (int round = 0; round < kRounds; ++round) {
    reference.push_back(WorstCaseRound(round, kSensors));
  }

  const int64_t wall_before = WallNowUs();
  const int64_t allocs_before = common::ThreadAllocCount();
  for (const DecisionRecord& record : reference) {
    recorder.Record(record, record.entered, record.exited, record.movers);
  }
  const int64_t record_allocs = common::ThreadAllocCount() - allocs_before;
  const int64_t wall_after = WallNowUs();
  EXPECT_EQ(record_allocs, 0);

  // The wall-clock stamp is the recorder's; every other byte is ours.
  const std::vector<DecisionRecord> records = recorder.Records();
  ASSERT_EQ(records.size(), static_cast<size_t>(kCapacity));
  for (int i = 0; i < kCapacity; ++i) {
    DecisionRecord& want = reference[kRounds - kCapacity + i];
    EXPECT_GE(records[i].unix_us, wall_before);
    EXPECT_LE(records[i].unix_us, wall_after);
    want.unix_us = records[i].unix_us;
    EXPECT_EQ(DecisionRecordToJson(records[i]), DecisionRecordToJson(want));
    EXPECT_EQ(records[i].entered, want.entered);
    EXPECT_EQ(records[i].exited, want.exited);
    EXPECT_EQ(records[i].movers, want.movers);
  }

  std::string want_jsonl;
  for (int round = 0; round < kRounds; ++round) {
    SCOPED_TRACE(::testing::Message() << "round " << round);
    const bool held = round >= kRounds - kCapacity;
    const std::optional<DecisionRecord> found = recorder.Find(round);
    ASSERT_EQ(found.has_value(), held);
    const std::optional<DecisionProvenance> explained =
        recorder.Explain(round);
    ASSERT_EQ(explained.has_value(), held);
    if (!held) continue;
    const DecisionRecord& want = reference[round];
    EXPECT_EQ(DecisionRecordToJson(*found), DecisionRecordToJson(want));
    const bool prev_held = round - 1 >= kRounds - kCapacity;
    EXPECT_EQ(ProvenanceToJson(*explained),
              ProvenanceToJson(MakeProvenance(
                  want, prev_held ? &reference[round - 1] : nullptr)));
    want_jsonl += DecisionRecordToJson(want) + '\n';
  }
  EXPECT_FALSE(recorder.Find(kRounds).has_value());
  ASSERT_TRUE(recorder.latest().has_value());
  EXPECT_EQ(DecisionRecordToJson(*recorder.latest()),
            DecisionRecordToJson(reference.back()));

  std::string jsonl;
  recorder.DumpJsonl(&jsonl);
  EXPECT_EQ(jsonl, want_jsonl);
  std::string range;
  recorder.AppendRangeJsonl(0, kRounds, &range);
  EXPECT_EQ(range, want_jsonl);
}

TEST(FlightRecorderTest, RingWrapsAndEvictsOldestRounds) {
  FlightRecorder recorder(4, 8);
  for (int round = 0; round < 10; ++round) RecordRound(&recorder, round);

  EXPECT_EQ(recorder.size(), 4);
  EXPECT_EQ(recorder.total_records(), 10);
  ASSERT_TRUE(recorder.latest().has_value());
  EXPECT_EQ(recorder.latest()->round, 9);

  // Rounds 0..5 were evicted, 6..9 are held.
  for (int round = 0; round < 6; ++round) {
    EXPECT_FALSE(recorder.Find(round).has_value()) << "round " << round;
  }
  for (int round = 6; round < 10; ++round) {
    const std::optional<DecisionRecord> record = recorder.Find(round);
    ASSERT_TRUE(record.has_value()) << "round " << round;
    EXPECT_EQ(record->round, round);
    EXPECT_EQ(record->window_start, round * 4);
    ASSERT_EQ(record->entered.size(), 1u);
    EXPECT_EQ(record->entered[0], round);
  }

  const std::vector<DecisionRecord> records = recorder.Records();
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records.front().round, 6);  // oldest first
  EXPECT_EQ(records.back().round, 9);
}

TEST(FlightRecorderTest, ExplainComputesDeltasAgainstPreviousRound) {
  FlightRecorder recorder(8, 4);
  RecordRound(&recorder, 0);  // abnormal (0 % 3 == 0)
  RecordRound(&recorder, 1);  // normal

  const std::optional<DecisionProvenance> provenance = recorder.Explain(1);
  ASSERT_TRUE(provenance.has_value());
  EXPECT_EQ(provenance->record.round, 1);
  EXPECT_TRUE(provenance->has_prev);
  EXPECT_EQ(provenance->prev_round, 0);
  EXPECT_TRUE(provenance->verdict_flipped);
  EXPECT_EQ(provenance->delta_n_variations, 1);
  EXPECT_DOUBLE_EQ(provenance->delta_mu, 0.5);
  EXPECT_DOUBLE_EQ(provenance->delta_sigma, 0.0);

  // Round 0 has no predecessor.
  const std::optional<DecisionProvenance> first = recorder.Explain(0);
  ASSERT_TRUE(first.has_value());
  EXPECT_FALSE(first->has_prev);

  EXPECT_FALSE(recorder.Explain(7).has_value());  // never recorded
}

TEST(FlightRecorderTest, ExplainSurvivesEvictionOfThePreviousRound) {
  FlightRecorder recorder(2, 4);
  for (int round = 0; round < 3; ++round) RecordRound(&recorder, round);
  // Ring holds rounds 1 and 2; round 1's predecessor is gone.
  const std::optional<DecisionProvenance> provenance = recorder.Explain(1);
  ASSERT_TRUE(provenance.has_value());
  EXPECT_FALSE(provenance->has_prev);
  const std::optional<DecisionProvenance> newest = recorder.Explain(2);
  ASSERT_TRUE(newest.has_value());
  EXPECT_TRUE(newest->has_prev);
}

TEST(FlightRecorderTest, WrappedSlotKeepsNothingOfTheEvictedRound) {
  FlightRecorder recorder(2, 4);
  DecisionFacts facts;
  facts.round = 0;
  facts.mu = 3.5;
  facts.abnormal = true;
  const int many[] = {0, 1, 2};
  const int last[] = {3};
  recorder.Record(facts, many, last, many);  // 7 of the 8 ids a slot holds
  RecordRound(&recorder, 1);

  // Round 2 reuses round 0's slot and arena range with fewer ids.
  facts = DecisionFacts{};
  facts.round = 2;
  const int one[] = {1};
  recorder.Record(facts, {}, one, {});

  EXPECT_FALSE(recorder.Find(0).has_value());
  const std::optional<DecisionRecord> record = recorder.Find(2);
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->round, 2);
  EXPECT_EQ(record->mu, 0.0);
  EXPECT_FALSE(record->abnormal);
  EXPECT_TRUE(record->entered.empty());
  EXPECT_EQ(record->exited, std::vector<int>{1});
  EXPECT_TRUE(record->movers.empty());
}

TEST(FlightRecorderTest, JsonKeepsTimingsLastAndOmitsThemOnRequest) {
  DecisionRecord record;
  record.round = 3;
  record.n_variations = 2;
  record.mu = 1.5;
  record.abnormal = true;
  record.entered = {4, 7};
  record.round_seconds = 0.25;

  const std::string with_timings = DecisionRecordToJson(record);
  const std::string without = DecisionRecordToJson(record, false);

  // The deterministic prefix is everything before ,"timings"; dropping the
  // timings must reproduce it exactly (plus the closing brace).
  const size_t cut = with_timings.find(",\"timings\"");
  ASSERT_NE(cut, std::string::npos);
  EXPECT_EQ(without, with_timings.substr(0, cut) + "}");

  EXPECT_NE(with_timings.find("\"round\":3"), std::string::npos);
  EXPECT_NE(with_timings.find("\"abnormal\":true"), std::string::npos);
  EXPECT_NE(with_timings.find("\"entered\":[4,7]"), std::string::npos);
  EXPECT_NE(with_timings.find("\"round_seconds\":0.25"), std::string::npos);
  EXPECT_EQ(without.find("timings"), std::string::npos);
}

TEST(FlightRecorderTest, DumpJsonlEmitsOneObjectPerHeldRound) {
  FlightRecorder recorder(3, 4);
  for (int round = 0; round < 5; ++round) RecordRound(&recorder, round);
  std::string jsonl;
  recorder.DumpJsonl(&jsonl);
  // Held rounds are 2, 3, 4 — three lines, oldest first.
  int lines = 0;
  for (char c : jsonl) lines += (c == '\n');
  EXPECT_EQ(lines, 3);
  EXPECT_EQ(jsonl.find("\"round\":2"), jsonl.find("\"round\""));
  EXPECT_NE(jsonl.find("\"round\":4"), std::string::npos);
  EXPECT_EQ(jsonl.find("\"round\":1"), std::string::npos);
}

TEST(FlightRecorderTest, AppendRangeJsonlSkipsEvictedRounds) {
  FlightRecorder recorder(3, 4);
  for (int round = 0; round < 5; ++round) RecordRound(&recorder, round);
  std::string jsonl;
  recorder.AppendRangeJsonl(0, 3, &jsonl);  // 0 and 1 are gone
  int lines = 0;
  for (char c : jsonl) lines += (c == '\n');
  EXPECT_EQ(lines, 2);
  EXPECT_NE(jsonl.find("\"round\":2"), std::string::npos);
  EXPECT_NE(jsonl.find("\"round\":3"), std::string::npos);
  EXPECT_EQ(jsonl.find("\"round\":4"), std::string::npos);
}

TEST(FlightRecorderTest, ProvenanceJsonShapesPrevAndNull) {
  FlightRecorder recorder(4, 4);
  RecordRound(&recorder, 0);
  RecordRound(&recorder, 1);

  const std::string first = ProvenanceToJson(*recorder.Explain(0));
  EXPECT_NE(first.find("\"prev\":null"), std::string::npos);
  EXPECT_NE(first.find("\"record\":{"), std::string::npos);
  EXPECT_NE(first.find("\"timings\":{"), std::string::npos);

  const std::string second = ProvenanceToJson(*recorder.Explain(1));
  EXPECT_NE(second.find("\"prev\":{\"round\":0"), std::string::npos);
  EXPECT_NE(second.find("\"verdict_flipped\":true"), std::string::npos);
  EXPECT_NE(second.find("\"delta_n_variations\":1"), std::string::npos);
}

#if CAD_CHECK_LEVEL >= 1
struct CheckFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

[[noreturn]] void ThrowingHandler(const check::CheckContext& ctx,
                                  const std::string& message) {
  throw CheckFailure(check::FormatFailure(ctx, message));
}

TEST(FlightRecorderTest, RecordRejectsOverfullSlotsAndRoundsOutOfOrder) {
  FlightRecorder recorder(4, 2);  // 4 ids per slot
  check::ScopedFailureHandler guard(&ThrowingHandler);
  DecisionFacts facts;
  facts.round = 0;
  const int three[] = {0, 1, 0};
  const int two[] = {0, 1};
  EXPECT_THROW(recorder.Record(facts, three, {}, two), CheckFailure);
  EXPECT_EQ(recorder.total_records(), 0);
  recorder.Record(facts, two, {}, two);  // exactly 2n
  facts.round = 2;  // round 1 skipped
  EXPECT_THROW(recorder.Record(facts, {}, {}, {}), CheckFailure);
  EXPECT_EQ(recorder.total_records(), 1);
  FlightRecorder disabled;
  facts.round = 0;
  EXPECT_THROW(disabled.Record(facts, {}, {}, {}), CheckFailure);
}

TEST(FlightRecorderTest, CrashDumpWritesTheRingWhenACheckFails) {
  const std::string path = ::testing::TempDir() + "/cad_crash_dump.jsonl";
  std::remove(path.c_str());
  {
    FlightRecorder recorder(4, 4);
    recorder.EnableCrashDump(path);
    for (int round = 0; round < 3; ++round) RecordRound(&recorder, round);

    check::ScopedFailureHandler guard(&ThrowingHandler);
    try {
      CAD_CHECK(false, "simulated invariant violation");
    } catch (const CheckFailure&) {
    }
  }  // destruction unregisters the hook

  std::ifstream dump(path);
  ASSERT_TRUE(dump.is_open()) << "crash dump was not written to " << path;
  std::ostringstream content;
  content << dump.rdbuf();
  const std::string jsonl = content.str();
  int lines = 0;
  for (char c : jsonl) lines += (c == '\n');
  EXPECT_EQ(lines, 3) << jsonl;
  EXPECT_NE(jsonl.find("\"round\":0"), std::string::npos);
  EXPECT_NE(jsonl.find("\"round\":2"), std::string::npos);

  // With the recorder destroyed, another failure must not rewrite the file.
  std::remove(path.c_str());
  check::ScopedFailureHandler guard(&ThrowingHandler);
  try {
    CAD_CHECK(false, "after unregistration");
  } catch (const CheckFailure&) {
  }
  std::ifstream gone(path);
  EXPECT_FALSE(gone.is_open()) << "destroyed recorder still dumped";
}
#endif  // CAD_CHECK_LEVEL >= 1

TEST(FlightRecorderTest, HealthQueriesReportAgeAndRate) {
  FlightRecorder recorder(4, 4);
  EXPECT_TRUE(std::isinf(recorder.seconds_since_last_record()));
  EXPECT_EQ(recorder.recent_rounds_per_second(), 0.0);
  RecordRound(&recorder, 0);
  EXPECT_GE(recorder.seconds_since_last_record(), 0.0);
  EXPECT_FALSE(std::isinf(recorder.seconds_since_last_record()));
  EXPECT_EQ(recorder.recent_rounds_per_second(), 0.0);  // < 2 records
  RecordRound(&recorder, 1);
  EXPECT_GE(recorder.recent_rounds_per_second(), 0.0);
}

}  // namespace
}  // namespace cad::obs
