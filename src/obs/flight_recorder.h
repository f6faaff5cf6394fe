// cad::obs flight recorder — per-round decision provenance for the
// detection engine.
//
// The engine's verdict for a round is one bit derived from a rich internal
// state (n_r, the running mu/sigma, the eta-sigma threshold of Theorem 1,
// the outlier-variation set, the TSG's community structure). The
// FlightRecorder keeps the last `capacity` rounds of that state as
// structured DecisionRecords in a fixed ring so "why did round r fire (or
// stay silent)?" is answerable after the fact:
//
//   - on demand        DumpJsonl / the drivers' flight-log accessors
//   - per anomaly      the engine appends the closed anomaly's rounds to
//                      CadOptions::flight_log_path (JSONL)
//   - on CAD_CHECK     EnableCrashDump registers a check::FailureDumpHook
//     violation        that writes the whole ring before the process dies
//
// Allocation discipline: the ring and every per-record vector are sized at
// construction (capacity slots, each with room for n_sensors ids), so
// steady-state recording performs zero heap allocations — the same contract
// the engine's round hot path keeps, proved by tests/core/engine_alloc_test.
//
// The recorder is NOT synchronized; it is engine-owned state and inherits
// the engine's threading contract (drivers that need concurrent queries,
// i.e. StreamingCad, wrap engine access in their own lock). The crash-dump
// hook runs on the failing thread, which already owns any driver lock.
#ifndef CAD_OBS_FLIGHT_RECORDER_H_
#define CAD_OBS_FLIGHT_RECORDER_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/realtime.h"

namespace cad::obs {

// Everything one engine round's decision was made from. The deterministic
// fields (everything except the trailing wall-clock timings) are
// byte-identical across the batch and streaming drivers for the same input
// — the serialization keeps the timings last so consumers can compare the
// deterministic prefix directly.
struct DecisionRecord {
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
  std::vector<int> entered;   // outlier variations: sensors that joined O_r
  std::vector<int> exited;    // outlier variations: sensors that left O_r
  std::vector<int> movers;    // Definition 2 subset of `entered`
  // Wall-clock facts (non-deterministic; serialized last, under "timings").
  double correlation_seconds = 0.0;
  double knn_seconds = 0.0;
  double louvain_seconds = 0.0;
  double coappearance_seconds = 0.0;
  double round_seconds = 0.0;
  int64_t unix_us = 0;  // wall-clock commit time, microseconds since epoch

  // Resets values but keeps vector capacity (ring-slot reuse).
  void Clear() CAD_REALTIME_AUDITED;
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
  // `capacity` ring slots, each preallocated for `n_sensors` sensor ids.
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

  // The slot the next round should fill, Clear()ed. Callers fill it and then
  // Commit(); Begin without Commit overwrites the same slot. Must not be
  // called on a disabled recorder.
  DecisionRecord& BeginRecord() CAD_REALTIME_AUDITED;
  void Commit() CAD_REALTIME_AUDITED;

  // Newest committed record; nullptr while empty.
  const DecisionRecord* latest() const;
  // The record of `round`, or nullptr when it was never recorded or has
  // been evicted by the ring.
  const DecisionRecord* Find(int round) const;
  // Record + delta vs the previous round (when still in the ring).
  std::optional<DecisionProvenance> Explain(int round) const;

  // Seconds since the last Commit on the process steady clock; +inf while
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
  static void CrashDumpTrampoline(void* self);
  void WriteCrashDump() const;

  int slot(int64_t index) const {
    return static_cast<int>(index % capacity_);
  }

  int capacity_ = 0;
  std::vector<DecisionRecord> ring_;
  // Steady-clock commit stamps (microseconds), parallel to ring_; used for
  // age/rate queries so wall-clock steps cannot corrupt them.
  std::vector<int64_t> steady_us_;
  int64_t total_ = 0;
  std::string crash_dump_path_;
  bool crash_hook_registered_ = false;
};

}  // namespace cad::obs

#endif  // CAD_OBS_FLIGHT_RECORDER_H_
