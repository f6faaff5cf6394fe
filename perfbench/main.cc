// perfbench: runs one benchmark workload and prints its result.
//
//   perfbench --workload is5_stream|fleet_iot|is3_batch --seed N --seconds S
//             --trace 0|1 [--trace-out PATH] [--short]
//
// Prints "# ..." lines (build facts, shapes, one line per metric with its
// sample count), a "check failed: ..." line per failed check, and last the
// one-line JSON result. --trace 0 reports the end-to-end metrics, --trace 1
// the per-layer ones (and writes spans to --trace-out). Exits 1 when a check
// failed, 2 on a usage error.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/alloc_tracker.h"
#include "harness.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload is5_stream|fleet_iot|is3_batch "
               "--seed N --seconds S --trace 0|1 [--trace-out PATH] [--short]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  cad::common::LinkAllocHook();
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--short") {
      args.short_mode = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atoi(value);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.seconds < 1) return Usage("--seconds must be at least 1");

  perfbench::Result (*run)(const perfbench::Args&) = nullptr;
  if (args.workload == "is5_stream") run = perfbench::RunIs5Stream;
  if (args.workload == "fleet_iot") run = perfbench::RunFleetIot;
  if (args.workload == "is3_batch") run = perfbench::RunIs3Batch;
  if (run == nullptr) return Usage(("unknown workload '" + args.workload + "'").c_str());

  perfbench::PrintBuildInfo();
  std::printf("# workload: %s seed %llu seconds %d trace %d%s\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0,
              args.short_mode ? " short" : "");
  const perfbench::Result result = run(args);
  result.Print();
  return result.correct ? 0 : 1;
}
