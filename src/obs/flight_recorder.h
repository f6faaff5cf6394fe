// cad::obs flight recorder — per-round decision provenance for the
// detection engine.
//
// The engine's verdict for a round is one bit derived from a rich internal
// state (n_r, the running mu/sigma, the eta-sigma threshold of Theorem 1,
// the outlier-variation set, the TSG's community structure). The
// FlightRecorder keeps the last `capacity` rounds of that state in a fixed
// ring so "why did round r fire (or stay silent)?" is answerable after the
// fact:
//
//   - on demand        DumpJsonl / the drivers' flight-log accessors
//   - per anomaly      the engine appends the closed anomaly's rounds to
//                      CadOptions::flight_log_path (JSONL)
//   - on CAD_CHECK     EnableCrashDump registers a check::FailureDumpHook
//     violation        that writes the whole ring before the process dies
//
// Layout: two blocks, both allocated and written once at construction.
//   - slots   capacity fixed-size slots: a round's DecisionFacts, its
//             steady-clock stamp and three id counts (144 B each).
//   - ids     an arena of capacity x 2 * n_sensors ints; slot s owns
//             [s * 2n, (s + 1) * 2n) and holds its entered, exited and
//             movers ids in that order. 2n always suffices: entered and
//             exited are disjoint subsets of the n sensors and movers is a
//             subset of entered.
// At the default 256 rounds an 8-sensor tenant's recorder is 36,864 +
// 16,384 B in 2 allocations. Recording copies a round into its slot and
// arena range, so it performs zero heap allocations because the storage is
// fixed, the same contract the engine's round hot path keeps (proved by
// tests/core/engine_alloc_test). Queries build DecisionRecord values from
// the slots.
//
// The recorder is NOT synchronized; it is engine-owned state and inherits
// the engine's threading contract (drivers that need concurrent queries,
// i.e. StreamingCad, wrap engine access in their own lock). The crash-dump
// hook runs on the failing thread, which already owns any driver lock.
#ifndef CAD_OBS_FLIGHT_RECORDER_H_
#define CAD_OBS_FLIGHT_RECORDER_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/realtime.h"

namespace cad::obs {

// The fixed-size part of a DecisionRecord: everything but the sensor ids.
// A ring slot stores one; the ids live in the recorder's id arena.
struct DecisionFacts {
  int round = -1;
  int window_start = 0;  // window span [start, end) on the engine time axis
  int window_end = 0;
  int n_variations = 0;  // n_r (Definition 8)
  double mu = 0.0;       // statistics the decision was judged against
  double sigma = 0.0;
  double threshold = 0.0;  // deviation threshold actually applied (0 when
                           // the round was not judged: round 0 / burn-in)
  double score = 0.0;      // normalized deviation in [0, 1]; 0.5 = boundary
  bool abnormal = false;
  bool anomaly_open = false;  // assembler state after this round
  int n_outliers = 0;         // |O_r|
  int n_communities = 0;      // c_r
  int n_edges = 0;            // TSG edges after tau pruning
  double modularity = 0.0;    // Newman modularity of the round's partition
  // Wall-clock facts (non-deterministic; serialized last, under "timings").
  double correlation_seconds = 0.0;
  double knn_seconds = 0.0;
  double louvain_seconds = 0.0;
  double coappearance_seconds = 0.0;
  double round_seconds = 0.0;
  int64_t unix_us = 0;  // wall-clock commit time, microseconds since epoch
};

// Everything one engine round's decision was made from. The deterministic
// fields (everything except the wall-clock timings) are byte-identical
// across the batch and streaming drivers for the same input — the
// serialization keeps the timings last so consumers can compare the
// deterministic prefix directly.
struct DecisionRecord : DecisionFacts {
  std::vector<int> entered;  // outlier variations: sensors that joined O_r
  std::vector<int> exited;   // outlier variations: sensors that left O_r
  std::vector<int> movers;   // Definition 2 subset of `entered`
};

// A record plus the delta against the preceding round — the "what changed
// that flipped (or could have flipped) the verdict" view served by
// /explain and Explain().
struct DecisionProvenance {
  DecisionRecord record;
  bool has_prev = false;
  int prev_round = -1;
  bool verdict_flipped = false;  // abnormal differs from the previous round
  int delta_n_variations = 0;
  double delta_mu = 0.0;
  double delta_sigma = 0.0;
  double delta_threshold = 0.0;
  double delta_score = 0.0;
};

DecisionProvenance MakeProvenance(const DecisionRecord& record,
                                  const DecisionRecord* previous);

// One-line JSON object. Field order is fixed and the wall-clock facts come
// last (under "timings"), so everything before `,"timings"` is the
// deterministic provenance.
std::string DecisionRecordToJson(const DecisionRecord& record,
                                 bool include_timings = true);

// {"record":{...no timings...},"prev":{...deltas...}|null,"timings":{...}}.
std::string ProvenanceToJson(const DecisionProvenance& provenance);

class FlightRecorder {
 public:
  // Disabled recorder: zero capacity, every query comes back empty.
  FlightRecorder() = default;
  // `capacity` ring slots, each with room for 2 * `n_sensors` sensor ids.
  FlightRecorder(int capacity, int n_sensors);
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;
  ~FlightRecorder();

  bool enabled() const { return capacity_ > 0; }
  int capacity() const { return capacity_; }
  // Records currently held (ring occupancy, <= capacity).
  int size() const;
  // Records ever committed (evicted ones included).
  int64_t total_records() const;

  // Commits the next round: copies `facts` (its unix_us is stamped here)
  // into the next ring slot and the sensor ids into that slot's arena range,
  // overwriting the oldest round once the ring is full. Rounds are recorded
  // in order from 0, so `facts.round` must be total_records(), and the three
  // lists together hold at most 2 * n_sensors ids. Must not be called on a
  // disabled recorder.
  void Record(const DecisionFacts& facts, std::span<const int> entered,
              std::span<const int> exited, std::span<const int> movers)
      CAD_REALTIME_AUDITED;

  // Newest committed record; nullopt while empty.
  std::optional<DecisionRecord> latest() const;
  // The record of `round`, or nullopt when it was never recorded or has
  // been evicted by the ring.
  std::optional<DecisionRecord> Find(int round) const;
  // Record + delta vs the previous round (when still in the ring).
  std::optional<DecisionProvenance> Explain(int round) const;

  // Seconds since the last Record on the process steady clock; +inf while
  // empty. Drives the /healthz last-round age.
  double seconds_since_last_record() const;
  // Throughput over the rounds currently in the ring; 0 with fewer than two.
  double recent_rounds_per_second() const;

  // All held records, oldest to newest, one JSON object per line.
  void DumpJsonl(std::string* out) const;
  // The held subset of rounds [first_round, last_round], oldest to newest.
  void AppendRangeJsonl(int first_round, int last_round,
                        std::string* out) const;

  // Copies the held records, oldest to newest (DetectionReport::flight_log).
  std::vector<DecisionRecord> Records() const;

  // Registers a check::FailureDumpHook that writes the whole ring to `path`
  // (truncating) when a CAD_CHECK fails, before the process aborts. The hook
  // unregisters in the destructor. Empty path disables.
  void EnableCrashDump(std::string path);

 private:
  // One ring slot. Its ids are ids_[slot * ids_per_slot_, ...): n_entered
  // entered ids, then n_exited exited ids, then n_movers movers.
  struct Slot {
    DecisionFacts facts;
    // Steady-clock commit stamp (microseconds); used for age/rate queries
    // so wall-clock steps cannot corrupt them.
    int64_t steady_us = 0;
    int n_entered = 0;
    int n_exited = 0;
    int n_movers = 0;
  };

  static void CrashDumpTrampoline(void* self);
  void WriteCrashDump() const;

  size_t slot(int64_t index) const {
    return static_cast<size_t>(index % capacity_);
  }
  // True when round `index` is still in the ring: rounds are recorded in
  // order, so the ring holds exactly [total_ - size(), total_).
  bool Holds(int64_t index) const {
    return index >= 0 && index < total_ && index >= total_ - capacity_;
  }
  // The held record of round `index` as a value.
  DecisionRecord RecordAt(int64_t index) const;

  int capacity_ = 0;
  size_t ids_per_slot_ = 0;  // 2 * n_sensors
  std::vector<Slot> slots_;
  std::vector<int> ids_;  // capacity_ * ids_per_slot_ sensor ids
  int64_t total_ = 0;
  std::string crash_dump_path_;
  bool crash_hook_registered_ = false;
};

}  // namespace cad::obs

#endif  // CAD_OBS_FLIGHT_RECORDER_H_
