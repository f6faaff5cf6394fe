#!/usr/bin/env bash
# The verification matrix: builds and tests the tree under every checking
# regime the repo supports, in increasing order of cost.
#
#   1. checked    — CAD_CHECK_LEVEL=full + CAD_WERROR: stage-boundary
#                   validators live, -Werror (-Wconversion -Wshadow in
#                   src/core and src/graph), full ctest suite, then the
#                   telemetry contract (tools/check_telemetry.sh).
#   2. asan-ubsan — AddressSanitizer + UBSan with full checks, full ctest.
#   3. tsan       — ThreadSanitizer, full ctest including the
#                   check/concurrency_stress_test.cc registry + StreamingCad
#                   hammering, which exists for exactly this stage.
#   4. lint       — clang-tidy + clang-format + cad_lint via
#                   tools/run_lint.sh (clang tools skip gracefully when not
#                   installed; cad_lint is built from source and always runs).
#   5. lint-cad   — just the project linter (tools/cad_lint) over src, bench,
#                   examples and tools: fast enough for a pre-commit hook.
#   6. thread-safety — Clang build with -Werror=thread-safety armed by the
#                   CAPABILITY/GUARDED_BY annotations; SKIPs when clang++ is
#                   not installed (GCC compiles the annotations to no-ops).
#   7. engine     — focused re-run of the batch/stream/fleet equivalence,
#                   allocation-gauge and SampleWindow cadence tests under the
#                   asan-ubsan and tsan presets: byte-identical drivers must
#                   stay identical when the sanitizers perturb layout and
#                   scheduling.
#   8. obs        — exposition-server smoke under the tsan preset: start,
#                   scrape /metrics, /healthz and /explain, and the
#                   concurrent-scrape-while-ingesting hammering, plus the
#                   live-scrape-vs-batch-provenance integration gate.
#   9. advisor    — root-cause advisor gates: the advisor unit suite and the
#                   advise-consuming tests under asan-ubsan, then the
#                   live-/advise-vs-offline-cad_explain byte-compare under
#                   tsan (server thread + triage under instrumentation), and
#                   the advisor_bench --smoke hit@3 quality gate.
#  10. function-effects — Clang 20+ build with -Werror=function-effects:
#                   the compiler itself verifies the CAD_REALTIME /
#                   CAD_NONALLOCATING / CAD_NONBLOCKING annotations across
#                   the call graph. SKIPs with a reason when clang++ is
#                   absent or predates the analysis.
#  11. realtime   — RealtimeSanitizer (-fsanitize=realtime) preset running
#                   the engine-equivalence, streaming, and flight-recorder
#                   alloc suites: any allocation or lock inside a
#                   [[clang::nonblocking]] region aborts at runtime. SKIPs
#                   with a reason on toolchains without rtsan support.
#  12. fleet      — the multi-tenant layer under instrumentation: the fleet
#                   unit suite (scheduler fairness bound, workspace-pool
#                   reuse, FleetEngine contracts) plus fleet_bench --smoke
#                   under asan-ubsan, then the heavy-vs-light starvation
#                   stress and the fleet lock-rank sweep under tsan — the
#                   stress exists for exactly that stage.
#  13. deadlock   — ThreadSanitizer with the runtime lock-order tracker
#                   armed (CAD_CHECK_LEVEL=full): the tracker unit tests,
#                   the streams+servers+scrapers lock-order stress, and the
#                   exposition/registry hammering all run with every
#                   acquisition feeding the acquired-after graph. Then the
#                   compiler third of the contract: clang++ must warn on the
#                   seeded ACQUIRED_BEFORE inversion fixture (one-line SKIP
#                   where clang++ is absent — CL009 and the tracker carry
#                   the contract there).
#
# Presets come from CMakePresets.json; each stage uses its own binaryDir so
# the matrix never contaminates the default build/.
#
# Usage: tools/verify_matrix.sh [stage ...]
#   with no arguments, runs all stages; otherwise only the named ones
#   (checked, asan-ubsan, tsan, lint, lint-cad, thread-safety, engine, obs,
#   advisor, fleet, function-effects, realtime, deadlock).
set -euo pipefail

cd "$(dirname "$0")/.."

JOBS="$(nproc 2> /dev/null || echo 2)"
STAGES=("$@")
[[ ${#STAGES[@]} -eq 0 ]] && STAGES=(checked asan-ubsan tsan lint lint-cad thread-safety engine obs advisor fleet function-effects realtime deadlock)

# Probes whether clang++ accepts a compile flag (e.g. -Wfunction-effects,
# -fsanitize=realtime). Both realtime stages need Clang 20+; probing the
# flag itself — not a version number — keeps the check honest across
# vendor-patched toolchains.
clang_supports() {
  local flag="$1"
  command -v clang++ > /dev/null 2>&1 || return 1
  echo 'int main() { return 0; }' | clang++ -x c++ "$flag" -Werror \
    -o /dev/null - > /dev/null 2>&1
}

# Builds tools/cad_lint (reusing the default build dir) and prints the
# binary's path. The linter has no dependencies beyond a C++20 compiler, so
# unlike clang-tidy it never skips.
build_cad_lint() {
  local dir=build
  [[ -f $dir/CMakeCache.txt ]] || cmake -B "$dir" -S . > /dev/null
  cmake --build "$dir" --target cad_lint -j "$JOBS" > /dev/null
  echo "$dir/tools/cad_lint/cad_lint"
}

run_preset() {
  local preset="$1"
  echo
  echo "==== [$preset] configure + build + test ===="
  cmake --preset "$preset"
  cmake --build --preset "$preset" -j "$JOBS"
  ctest --preset "$preset" -j "$JOBS"
}

# Builds a sanitizer preset and runs only the engine unification tests
# (driver equivalence, allocation gauge, round cadence) under it.
run_engine_under() {
  local preset="$1"
  echo
  echo "==== [engine/$preset] equivalence + alloc gauge ===="
  cmake --preset "$preset"
  cmake --build --preset "$preset" -j "$JOBS"
  ctest --preset "$preset" \
    -R 'EngineEquivalenceTest|EngineAllocTest|EngineAllocSweepTest|SampleWindowTest' \
    --output-on-failure
}

for stage in "${STAGES[@]}"; do
  case "$stage" in
    checked)
      run_preset checked
      echo "==== [checked] telemetry contract ===="
      tools/check_telemetry.sh build-checked
      ;;
    asan-ubsan)
      run_preset asan-ubsan
      ;;
    tsan)
      run_preset tsan
      ;;
    lint)
      echo
      echo "==== [lint] clang-tidy + clang-format ===="
      # Lint reads compile_commands.json from whichever matrix build exists.
      lint_dir=build-checked
      [[ -f $lint_dir/compile_commands.json ]] || lint_dir=build
      tools/run_lint.sh "$lint_dir"
      ;;
    lint-cad)
      echo
      echo "==== [lint-cad] project linter (tools/cad_lint) ===="
      lint_bin="$(build_cad_lint)"
      "$lint_bin" src bench examples tools
      ;;
    thread-safety)
      echo
      echo "==== [thread-safety] clang -Werror=thread-safety ===="
      if command -v clang++ > /dev/null 2>&1; then
        run_preset thread-safety
      else
        echo "SKIP: clang++ not installed; the thread-safety annotations" \
             "(src/common/thread_annotations.h) compile to no-ops under GCC." \
             "Run 'cmake --preset thread-safety' wherever Clang exists."
      fi
      ;;
    engine)
      run_engine_under asan-ubsan
      run_engine_under tsan
      ;;
    obs)
      echo
      echo "==== [obs/tsan] exposition server smoke ===="
      cmake --preset tsan
      cmake --build --preset tsan -j "$JOBS"
      ctest --preset tsan -R 'ExpositionServer|ExpositionIntegration' \
        --output-on-failure
      ;;
    advisor)
      echo
      echo "==== [advisor/asan-ubsan] advisor suite ===="
      cmake --preset asan-ubsan
      cmake --build --preset asan-ubsan -j "$JOBS"
      ctest --preset asan-ubsan \
        -R 'AdvisorTest|RootCauseTest|GroundTruthExportTest|CadExplainTest|advisor_bench_smoke' \
        --output-on-failure
      echo
      echo "==== [advisor/tsan] live /advise vs offline replay ===="
      cmake --preset tsan
      cmake --build --preset tsan -j "$JOBS"
      ctest --preset tsan -R 'LiveAdviseMatchesOfflineCadExplain' \
        --output-on-failure
      ;;
    fleet)
      echo
      echo "==== [fleet/asan-ubsan] fleet suite + bench smoke ===="
      cmake --preset asan-ubsan
      cmake --build --preset asan-ubsan -j "$JOBS"
      ctest --preset asan-ubsan \
        -R 'WeightedSchedulerTest|WorkspacePoolTest|FleetEngineTest|fleet_bench_smoke' \
        --output-on-failure
      echo
      echo "==== [fleet/tsan] starvation stress + lock-rank sweep ===="
      cmake --preset tsan
      cmake --build --preset tsan -j "$JOBS"
      ctest --preset tsan -R 'FleetStressTest|LockOrderStressTest' \
        --output-on-failure
      ;;
    function-effects)
      echo
      echo "==== [function-effects] clang -Werror=function-effects ===="
      if clang_supports -Wfunction-effects; then
        run_preset function-effects
      else
        echo "SKIP: clang++ with -Wfunction-effects (Clang 20+) not" \
             "available; the CAD_REALTIME annotations compile to no-ops" \
             "here and tools/cad_lint rules CL007/CL008 carry the contract."
      fi
      ;;
    deadlock)
      echo
      echo "==== [deadlock] TSan + runtime lock-order tracker ===="
      cmake --preset deadlock
      cmake --build --preset deadlock -j "$JOBS"
      ctest --preset deadlock \
        -R 'LockOrderTrackerTest|LockOrderStressTest|ConcurrencyStressTest|ExpositionServer' \
        --output-on-failure
      echo
      echo "==== [deadlock] clang ACQUIRED_BEFORE seeded inversion ===="
      if command -v clang++ > /dev/null 2>&1; then
        if clang++ -x c++ -std=c++20 -fsyntax-only -Isrc \
            -Wthread-safety -Wthread-safety-beta \
            tests/lint_fixtures/clang_acquired_before_bad.cc 2>&1 \
            | grep -q 'warning:.*acquired'; then
          echo "OK: clang warns on the seeded inversion" \
               "(tests/lint_fixtures/clang_acquired_before_bad.cc)"
        else
          echo "error: clang++ did not warn on the seeded ACQUIRED_BEFORE" \
               "inversion fixture" >&2
          exit 1
        fi
      else
        echo "SKIP: clang++ not installed; cad_lint CL009 and the runtime lock-order tracker carry the lock-order contract on this toolchain."
      fi
      ;;
    realtime)
      echo
      echo "==== [realtime] RealtimeSanitizer engine/streaming/recorder ===="
      if clang_supports -fsanitize=realtime; then
        cmake --preset rtsan
        cmake --build --preset rtsan -j "$JOBS"
        ctest --preset rtsan \
          -R 'EngineEquivalenceTest|EngineAllocTest|EngineAllocSweepTest|StreamingCadTest|FlightRecorderTest' \
          --output-on-failure
      else
        echo "SKIP: this toolchain lacks -fsanitize=realtime (Clang 20+);" \
             "the allocation-hook tests (tests/core/engine_alloc_test.cc)" \
             "enforce the zero-alloc contract dynamically instead."
      fi
      ;;
    *)
      echo "error: unknown stage '$stage'" \
           "(expected: checked, asan-ubsan, tsan, lint, lint-cad," \
           "thread-safety, engine, obs, advisor, fleet, function-effects," \
           "realtime, deadlock)" >&2
      exit 2
      ;;
  esac
done

echo
echo "verification matrix passed: ${STAGES[*]}"
