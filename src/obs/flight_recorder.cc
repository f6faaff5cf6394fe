#include "obs/flight_recorder.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>

#include "check/check.h"
#include "obs/json_util.h"

namespace cad::obs {

namespace {

int64_t SteadyNowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t WallNowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

void AppendIntArray(std::string* out, const std::vector<int>& values) {
  *out += '[';
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) *out += ',';
    *out += std::to_string(values[i]);
  }
  *out += ']';
}

}  // namespace

DecisionProvenance MakeProvenance(const DecisionRecord& record,
                                  const DecisionRecord* previous) {
  DecisionProvenance provenance;
  provenance.record = record;
  if (previous != nullptr) {
    provenance.has_prev = true;
    provenance.prev_round = previous->round;
    provenance.verdict_flipped = previous->abnormal != record.abnormal;
    provenance.delta_n_variations = record.n_variations - previous->n_variations;
    provenance.delta_mu = record.mu - previous->mu;
    provenance.delta_sigma = record.sigma - previous->sigma;
    provenance.delta_threshold = record.threshold - previous->threshold;
    provenance.delta_score = record.score - previous->score;
  }
  return provenance;
}

std::string DecisionRecordToJson(const DecisionRecord& record,
                                 bool include_timings) {
  std::string json = "{\"round\":" + std::to_string(record.round);
  json += ",\"window_start\":" + std::to_string(record.window_start);
  json += ",\"window_end\":" + std::to_string(record.window_end);
  json += ",\"n_variations\":" + std::to_string(record.n_variations);
  json += ",\"mu\":";
  AppendJsonNumber(&json, record.mu);
  json += ",\"sigma\":";
  AppendJsonNumber(&json, record.sigma);
  json += ",\"threshold\":";
  AppendJsonNumber(&json, record.threshold);
  json += ",\"score\":";
  AppendJsonNumber(&json, record.score);
  json += ",\"abnormal\":";
  json += record.abnormal ? "true" : "false";
  json += ",\"anomaly_open\":";
  json += record.anomaly_open ? "true" : "false";
  json += ",\"n_outliers\":" + std::to_string(record.n_outliers);
  json += ",\"n_communities\":" + std::to_string(record.n_communities);
  json += ",\"n_edges\":" + std::to_string(record.n_edges);
  json += ",\"modularity\":";
  AppendJsonNumber(&json, record.modularity);
  json += ",\"entered\":";
  AppendIntArray(&json, record.entered);
  json += ",\"exited\":";
  AppendIntArray(&json, record.exited);
  json += ",\"movers\":";
  AppendIntArray(&json, record.movers);
  if (include_timings) {
    json += ",\"timings\":{\"correlation_seconds\":";
    AppendJsonNumber(&json, record.correlation_seconds);
    json += ",\"knn_seconds\":";
    AppendJsonNumber(&json, record.knn_seconds);
    json += ",\"louvain_seconds\":";
    AppendJsonNumber(&json, record.louvain_seconds);
    json += ",\"coappearance_seconds\":";
    AppendJsonNumber(&json, record.coappearance_seconds);
    json += ",\"round_seconds\":";
    AppendJsonNumber(&json, record.round_seconds);
    json += ",\"unix_us\":" + std::to_string(record.unix_us);
    json += '}';
  }
  json += '}';
  return json;
}

std::string ProvenanceToJson(const DecisionProvenance& provenance) {
  std::string json = "{\"record\":";
  json += DecisionRecordToJson(provenance.record, /*include_timings=*/false);
  json += ",\"prev\":";
  if (provenance.has_prev) {
    json += "{\"round\":" + std::to_string(provenance.prev_round);
    json += ",\"verdict_flipped\":";
    json += provenance.verdict_flipped ? "true" : "false";
    json += ",\"delta_n_variations\":" +
            std::to_string(provenance.delta_n_variations);
    json += ",\"delta_mu\":";
    AppendJsonNumber(&json, provenance.delta_mu);
    json += ",\"delta_sigma\":";
    AppendJsonNumber(&json, provenance.delta_sigma);
    json += ",\"delta_threshold\":";
    AppendJsonNumber(&json, provenance.delta_threshold);
    json += ",\"delta_score\":";
    AppendJsonNumber(&json, provenance.delta_score);
    json += '}';
  } else {
    json += "null";
  }
  json += ",\"timings\":{\"correlation_seconds\":";
  AppendJsonNumber(&json, provenance.record.correlation_seconds);
  json += ",\"knn_seconds\":";
  AppendJsonNumber(&json, provenance.record.knn_seconds);
  json += ",\"louvain_seconds\":";
  AppendJsonNumber(&json, provenance.record.louvain_seconds);
  json += ",\"coappearance_seconds\":";
  AppendJsonNumber(&json, provenance.record.coappearance_seconds);
  json += ",\"round_seconds\":";
  AppendJsonNumber(&json, provenance.record.round_seconds);
  json += ",\"unix_us\":" + std::to_string(provenance.record.unix_us);
  json += "}}";
  return json;
}

FlightRecorder::FlightRecorder(int capacity, int n_sensors)
    : capacity_(capacity > 0 ? capacity : 0),
      ids_per_slot_(n_sensors > 0 ? 2 * static_cast<size_t>(n_sensors) : 0) {
  CAD_CHECK(capacity >= 0, "flight recorder capacity must be >= 0");
  if (capacity_ == 0) return;
  // Value-initialized: both blocks are written here, so no round pays a
  // first-touch page fault.
  slots_.resize(static_cast<size_t>(capacity_));
  ids_.resize(static_cast<size_t>(capacity_) * ids_per_slot_);
}

FlightRecorder::~FlightRecorder() {
  if (crash_hook_registered_) {
    check::RemoveFailureDumpHook(&FlightRecorder::CrashDumpTrampoline, this);
  }
}

int FlightRecorder::size() const {
  return static_cast<int>(
      total_ < static_cast<int64_t>(capacity_) ? total_ : capacity_);
}

int64_t FlightRecorder::total_records() const { return total_; }

void FlightRecorder::Record(const DecisionFacts& facts,
                            std::span<const int> entered,
                            std::span<const int> exited,
                            std::span<const int> movers) CAD_REALTIME_AUDITED {
  CAD_CHECK(enabled(), "Record on a disabled flight recorder");
  CAD_CHECK(facts.round == total_,
            "flight recorder rounds must be recorded in order from 0");
  CAD_CHECK(entered.size() + exited.size() + movers.size() <= ids_per_slot_,
            "a round's ids exceed 2 * n_sensors");
  const size_t index = slot(total_);
  Slot& s = slots_[index];
  s.facts = facts;
  s.facts.unix_us = WallNowUs();
  s.steady_us = SteadyNowUs();
  s.n_entered = static_cast<int>(entered.size());
  s.n_exited = static_cast<int>(exited.size());
  s.n_movers = static_cast<int>(movers.size());
  int* ids = ids_.data() + index * ids_per_slot_;
  ids = std::copy(entered.begin(), entered.end(), ids);
  ids = std::copy(exited.begin(), exited.end(), ids);
  std::copy(movers.begin(), movers.end(), ids);
  ++total_;
}

DecisionRecord FlightRecorder::RecordAt(int64_t index) const {
  const Slot& s = slots_[slot(index)];
  const int* entered = ids_.data() + slot(index) * ids_per_slot_;
  const int* exited = entered + s.n_entered;
  const int* movers = exited + s.n_exited;
  return DecisionRecord{s.facts, std::vector<int>(entered, exited),
                        std::vector<int>(exited, movers),
                        std::vector<int>(movers, movers + s.n_movers)};
}

std::optional<DecisionRecord> FlightRecorder::latest() const {
  if (total_ == 0) return std::nullopt;
  return RecordAt(total_ - 1);
}

std::optional<DecisionRecord> FlightRecorder::Find(int round) const {
  if (!Holds(round)) return std::nullopt;
  return RecordAt(round);
}

std::optional<DecisionProvenance> FlightRecorder::Explain(int round) const {
  if (!Holds(round)) return std::nullopt;
  const std::optional<DecisionRecord> previous = Find(round - 1);
  return MakeProvenance(RecordAt(round), previous ? &*previous : nullptr);
}

double FlightRecorder::seconds_since_last_record() const {
  if (total_ == 0) return std::numeric_limits<double>::infinity();
  const int64_t last = slots_[slot(total_ - 1)].steady_us;
  return static_cast<double>(SteadyNowUs() - last) * 1e-6;
}

double FlightRecorder::recent_rounds_per_second() const {
  const int held = size();
  if (held < 2) return 0.0;
  const int64_t newest = slots_[slot(total_ - 1)].steady_us;
  const int64_t oldest = slots_[slot(total_ - held)].steady_us;
  if (newest <= oldest) return 0.0;
  return static_cast<double>(held - 1) /
         (static_cast<double>(newest - oldest) * 1e-6);
}

void FlightRecorder::DumpJsonl(std::string* out) const {
  for (int64_t index = total_ - size(); index < total_; ++index) {
    *out += DecisionRecordToJson(RecordAt(index));
    *out += '\n';
  }
}

void FlightRecorder::AppendRangeJsonl(int first_round, int last_round,
                                      std::string* out) const {
  for (int round = first_round; round <= last_round; ++round) {
    if (!Holds(round)) continue;  // evicted or never recorded
    *out += DecisionRecordToJson(RecordAt(round));
    *out += '\n';
  }
}

std::vector<DecisionRecord> FlightRecorder::Records() const {
  std::vector<DecisionRecord> records;
  records.reserve(static_cast<size_t>(size()));
  for (int64_t index = total_ - size(); index < total_; ++index) {
    records.push_back(RecordAt(index));
  }
  return records;
}

void FlightRecorder::EnableCrashDump(std::string path) {
  crash_dump_path_ = std::move(path);
  const bool want = enabled() && !crash_dump_path_.empty();
  if (want && !crash_hook_registered_) {
    check::AddFailureDumpHook(&FlightRecorder::CrashDumpTrampoline, this);
    crash_hook_registered_ = true;
  } else if (!want && crash_hook_registered_) {
    check::RemoveFailureDumpHook(&FlightRecorder::CrashDumpTrampoline, this);
    crash_hook_registered_ = false;
  }
}

void FlightRecorder::CrashDumpTrampoline(void* self) {
  static_cast<const FlightRecorder*>(self)->WriteCrashDump();
}

void FlightRecorder::WriteCrashDump() const {
  std::string jsonl;
  DumpJsonl(&jsonl);
  std::FILE* file = std::fopen(crash_dump_path_.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr,
                 "cad::obs: flight-recorder crash dump failed to open %s\n",
                 crash_dump_path_.c_str());
    return;
  }
  std::fwrite(jsonl.data(), 1, jsonl.size(), file);
  std::fclose(file);
  std::fprintf(stderr,
               "cad::obs: flight recorder dumped %d round(s) to %s\n",
               size(), crash_dump_path_.c_str());
}

}  // namespace cad::obs
