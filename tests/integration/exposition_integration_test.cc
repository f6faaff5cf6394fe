// Acceptance gate for the observability surface: a live StreamingCad is
// scraped over HTTP (/metrics, /healthz, /explain?round=r, /advise) and the
// explain record must be byte-identical — in its deterministic prefix — to
// the decision provenance the batch driver reports for the same input. One
// detection engine, two drivers, one flight-recorder story. The /advise body
// must additionally byte-compare against the offline replay: the real
// cad_explain binary (CAD_EXPLAIN_BIN) run with --advise over the same
// flight log dumped to JSONL.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "core/cad_detector.h"
#include "core/streaming.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "testing/http_client.h"
#include "testing/synthetic.h"

namespace cad::core {
namespace {

using cad::testing::HttpGet;
using cad::testing::HttpResponse;

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

// Pushes the whole test split through a stream, sample by sample.
void PushAll(StreamingCad* streaming, const ts::MultivariateSeries& series) {
  std::vector<double> sample(series.n_sensors());
  StreamEvent event;
  for (int t = 0; t < series.length(); ++t) {
    for (int i = 0; i < series.n_sensors(); ++i) {
      sample[i] = series.value(i, t);
    }
    ASSERT_TRUE(streaming->Push(sample, &event).ok());
  }
}

TEST(ExpositionIntegrationTest, LiveScrapeMatchesBatchProvenance) {
  const cad::testing::SmallScenario scenario = cad::testing::MakeSmallScenario();

  // Batch run: the reference provenance.
  obs::Registry batch_registry;
  CadDetector detector(MakeOptions(&batch_registry));
  const DetectionReport report =
      detector.Detect(scenario.test, &scenario.train).ValueOrDie();
  ASSERT_FALSE(report.flight_log.empty());

  // Streaming run with the exposition server on an ephemeral port.
  obs::Registry stream_registry;
  CadOptions stream_options = MakeOptions(&stream_registry);
  stream_options.exposition_port = 0;
  StreamingCad streaming(scenario.test.n_sensors(), stream_options);
  ASSERT_TRUE(streaming.WarmUp(scenario.train).ok());
  PushAll(&streaming, scenario.test);
  const int port = streaming.exposition_port();
  ASSERT_GT(port, 0) << "exposition server did not come up";

  // /metrics reflects the stream's registry.
  const HttpResponse metrics =
      HttpGet(static_cast<uint16_t>(port), "/metrics");
  ASSERT_TRUE(metrics.ok);
  EXPECT_EQ(metrics.status_code, 200);
  // cad_rounds_total also counts the warm-up rounds over the train split, so
  // the exact-value anchor is the sample counter.
  const std::string expected_samples =
      "cad_stream_samples_total " + std::to_string(scenario.test.length()) +
      "\n";
  EXPECT_NE(metrics.body.find(expected_samples), std::string::npos)
      << "metrics scrape disagrees with the pushed sample count";
  EXPECT_NE(metrics.body.find("# TYPE cad_rounds_total counter"),
            std::string::npos);

  // /healthz reports the stream's liveness.
  const HttpResponse healthz =
      HttpGet(static_cast<uint16_t>(port), "/healthz");
  ASSERT_TRUE(healthz.ok);
  EXPECT_EQ(healthz.status_code, 200);
  EXPECT_NE(healthz.body.find(
                "\"samples_seen\":" + std::to_string(scenario.test.length())),
            std::string::npos);
  EXPECT_NE(healthz.body.find("\"flight_ring_size\":"), std::string::npos);

  // Every round still held by both recorders has a byte-identical
  // deterministic record across the drivers.
  int compared = 0;
  for (const obs::DecisionRecord& batch_record : report.flight_log) {
    const std::optional<obs::DecisionProvenance> stream_provenance =
        streaming.Explain(batch_record.round);
    ASSERT_TRUE(stream_provenance.has_value())
        << "round " << batch_record.round << " missing from the stream ring";
    EXPECT_EQ(
        obs::DecisionRecordToJson(stream_provenance->record, false),
        obs::DecisionRecordToJson(batch_record, false))
        << "drivers disagree on round " << batch_record.round;
    ++compared;
  }
  EXPECT_GT(compared, 50) << "scenario too short for a meaningful comparison";

  // The HTTP explain body embeds exactly that deterministic record.
  const obs::DecisionRecord& last = report.flight_log.back();
  const std::optional<obs::DecisionProvenance> batch_provenance =
      ExplainRound(report, last.round);
  ASSERT_TRUE(batch_provenance.has_value());
  const HttpResponse explain = HttpGet(
      static_cast<uint16_t>(port),
      "/explain?round=" + std::to_string(last.round));
  ASSERT_TRUE(explain.ok);
  EXPECT_EQ(explain.status_code, 200);
  const std::string expected_record =
      "{\"record\":" + obs::DecisionRecordToJson(last, false);
  ASSERT_EQ(explain.body.compare(0, expected_record.size(), expected_record),
            0)
      << "explain body prefix:\n"
      << explain.body.substr(0, expected_record.size()) << "\nexpected:\n"
      << expected_record;

  // A round the ring never saw 404s.
  const HttpResponse missing = HttpGet(static_cast<uint16_t>(port),
                                       "/explain?round=999999");
  ASSERT_TRUE(missing.ok);
  EXPECT_EQ(missing.status_code, 404);
}

TEST(ExpositionIntegrationTest, LiveAdviseMatchesOfflineCadExplainByteForByte) {
  const cad::testing::SmallScenario scenario = cad::testing::MakeSmallScenario();

  obs::Registry registry;
  CadOptions options = MakeOptions(&registry);
  options.exposition_port = 0;
  StreamingCad streaming(scenario.test.n_sensors(), options);
  ASSERT_TRUE(streaming.WarmUp(scenario.train).ok());
  PushAll(&streaming, scenario.test);
  const int port = streaming.exposition_port();
  ASSERT_GT(port, 0) << "exposition server did not come up";

  // Live path: scrape /advise over the whole ring.
  const HttpResponse advise = HttpGet(static_cast<uint16_t>(port), "/advise");
  ASSERT_TRUE(advise.ok);
  EXPECT_EQ(advise.status_code, 200);
  ASSERT_FALSE(advise.body.empty());
  EXPECT_EQ(advise.body.compare(0, 20, "{\"advice_version\":1,"), 0)
      << advise.body.substr(0, 80);

  // Offline path: dump the same flight log and replay it through the real
  // cad_explain binary. Its stdout is the advice JSON plus one newline.
  const std::string jsonl = streaming.DumpFlightLogJsonl();
  ASSERT_FALSE(jsonl.empty());
  const std::string log_path = ::testing::TempDir() + "/advise_live.jsonl";
  {
    std::ofstream file(log_path);
    file << jsonl;
  }
  const std::string command =
      std::string(CAD_EXPLAIN_BIN) + " --advise " + log_path;
  FILE* pipe = popen(command.c_str(), "r");
  ASSERT_NE(pipe, nullptr) << "failed to spawn: " << command;
  std::string offline;
  char buffer[4096];
  size_t n = 0;
  while ((n = fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    offline.append(buffer, n);
  }
  const int status = pclose(pipe);
  ASSERT_EQ(WEXITSTATUS(status), 0) << offline;

  // The acceptance bar: live scrape == offline replay, byte for byte.
  EXPECT_EQ(offline, advise.body + "\n")
      << "live /advise and cad_explain --advise disagree";

  // Round-range selection narrows the window, malformed bounds 400, an
  // empty range 404.
  const int last_round = streaming.rounds_completed() - 1;
  const HttpResponse ranged =
      HttpGet(static_cast<uint16_t>(port),
              "/advise?from=" + std::to_string(last_round) +
                  "&to=" + std::to_string(last_round));
  ASSERT_TRUE(ranged.ok);
  EXPECT_EQ(ranged.status_code, 200);
  EXPECT_NE(ranged.body.find("\"rounds_scanned\":1"), std::string::npos)
      << ranged.body.substr(0, 120);
  EXPECT_EQ(HttpGet(static_cast<uint16_t>(port), "/advise?from=abc").status_code,
            400);
  EXPECT_EQ(HttpGet(static_cast<uint16_t>(port),
                    "/advise?from=999990&to=999999")
                .status_code,
            404);
}

TEST(ExpositionIntegrationTest, ServerIsOffByDefault) {
  obs::Registry registry;
  StreamingCad streaming(4, MakeOptions(&registry));
  EXPECT_EQ(streaming.exposition_port(), -1);
}

}  // namespace
}  // namespace cad::core
