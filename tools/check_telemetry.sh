#!/usr/bin/env bash
# Validates the machine-readable telemetry produced by the observability
# layer: runs bench/micro_core with --telemetry-out, then checks that the
# combined JSON parses, carries the pipeline metrics the docs promise
# (cad_rounds_total, the cad_round_seconds buckets, cad_tsg_edges_pruned),
# and that the Chrome-trace JSONL is one well-formed event per line. Then
# runs bench/engine_bench --smoke --flight-out and checks the flight log:
# one parseable JSON object per line, every DecisionRecord key present,
# consecutive round indices — failures name the offending line. Then the
# advisor contract: tools/cad_explain --advise over that same flight log must
# emit one AdviceReport JSON line with the documented shape (advice_version,
# window, ranking, segments, timeline) and be byte-identical across two runs.
# Finally the fleet exposition hygiene gate: bench/fleet_bench --metrics-out
# dumps the live tenant-labelled /metrics text, and every metric name in it —
# fleet rollups and per-tenant series alike — must match ^cad_[a-z0-9_]+$,
# every tenant label value must match the registration charset
# ([a-z0-9_] then [a-z0-9_.-], <= 120 chars), and the nine documented
# cad_fleet_* families must all be present.
#
# Usage: tools/check_telemetry.sh [build_dir]   (default: build)
set -euo pipefail

BUILD_DIR="${1:-build}"
MICRO="$BUILD_DIR/bench/micro_core"
if [[ ! -x "$MICRO" ]]; then
  echo "error: $MICRO not found — build first (cmake --build $BUILD_DIR)" >&2
  exit 1
fi
command -v python3 > /dev/null 2>&1 \
  || { echo "error: python3 required to validate telemetry JSON" >&2; exit 1; }

OUT_DIR="$(mktemp -d)"
trap 'rm -rf "$OUT_DIR"' EXIT
OUT="$OUT_DIR/telemetry.json"

# One small benchmark repetition is enough to populate the round pipeline.
"$MICRO" --benchmark_filter='BM_OutlierDetectionRound/26$' \
         --benchmark_min_time=0.05 \
         --telemetry-out "$OUT" > /dev/null

for f in "$OUT" "$OUT.trace.jsonl" "$OUT.prom"; do
  [[ -s "$f" ]] || { echo "FAIL: $f missing or empty" >&2; exit 1; }
done

python3 - "$OUT" <<'EOF'
import json, sys

path = sys.argv[1]
doc = json.load(open(path))
metrics = doc["metrics"]

for name, value in metrics["counters"].items():
    assert isinstance(value, int) and value >= 0, (
        f"counter {name} must be a non-negative integer, got {value!r}")

rounds = metrics["counters"].get("cad_rounds_total", 0)
assert rounds > 0, "cad_rounds_total missing or zero"

hist = metrics["histograms"]["cad_round_seconds"]
assert hist["count"] == rounds, (
    f"cad_round_seconds count {hist['count']} != cad_rounds_total {rounds}")
assert hist["buckets"], "cad_round_seconds has no buckets"
assert sum(b["count"] for b in hist["buckets"]) == hist["count"]
bounds = [b["le"] for b in hist["buckets"][:-1]]
assert bounds == sorted(bounds), "bucket bounds must ascend"
assert hist["buckets"][-1]["le"] == "+Inf", "last bucket must be +Inf"

assert "cad_tsg_edges_pruned" in metrics["counters"], "cad_tsg_edges_pruned missing"
assert "spans" in doc and "dropped_spans" in doc

# The tracer was enabled, so the trace must hold the per-round spans.
names = [s["name"] for s in doc["spans"]]
assert names.count("round") > 0, "no round spans recorded"

with open(path + ".trace.jsonl") as f:
    n_lines = 0
    for line in f:
        event = json.loads(line)
        assert event["ph"] == "X" and "ts" in event and "dur" in event
        n_lines += 1
assert n_lines == len(doc["spans"]), "JSONL line count != embedded span count"

print(f"OK: {rounds} rounds, {n_lines} spans, "
      f"{len(hist['buckets'])} latency buckets")
EOF

grep -q '^cad_round_seconds_bucket{le="+Inf"}' "$OUT.prom" \
  || { echo "FAIL: Prometheus exposition lacks +Inf bucket" >&2; exit 1; }

# --- Flight-recorder JSONL dump -------------------------------------------
ENGINE_BENCH="$BUILD_DIR/bench/engine_bench"
if [[ ! -x "$ENGINE_BENCH" ]]; then
  echo "error: $ENGINE_BENCH not found — build first" >&2
  exit 1
fi
FLIGHT="$OUT_DIR/flight.jsonl"
"$ENGINE_BENCH" --smoke --out "$OUT_DIR/bench.json" --flight-out "$FLIGHT" \
  > /dev/null 2> /dev/null
[[ -s "$FLIGHT" ]] || { echo "FAIL: $FLIGHT missing or empty" >&2; exit 1; }

python3 - "$FLIGHT" <<'EOF'
import json, sys

path = sys.argv[1]
required = [
    "round", "window_start", "window_end", "n_variations", "mu", "sigma",
    "threshold", "score", "abnormal", "anomaly_open", "n_outliers",
    "n_communities", "n_edges", "modularity", "entered", "exited", "movers",
    "timings",
]
timing_keys = [
    "correlation_seconds", "knn_seconds", "louvain_seconds",
    "coappearance_seconds", "round_seconds", "unix_us",
]

prev_round = None
n_records = 0
with open(path) as f:
    for lineno, line in enumerate(f, start=1):
        line = line.strip()
        if not line:
            sys.exit(f"FAIL: {path}:{lineno}: blank line in flight log")
        try:
            record = json.loads(line)
        except json.JSONDecodeError as e:
            sys.exit(f"FAIL: {path}:{lineno}: not valid JSON: {e}")
        for key in required:
            if key not in record:
                sys.exit(f"FAIL: {path}:{lineno}: key '{key}' missing")
        for key in timing_keys:
            if key not in record["timings"]:
                sys.exit(f"FAIL: {path}:{lineno}: timings key '{key}' missing")
        if record["window_start"] >= record["window_end"]:
            sys.exit(f"FAIL: {path}:{lineno}: empty window span")
        # The dump walks the ring oldest to newest: consecutive rounds.
        if prev_round is not None and record["round"] != prev_round + 1:
            sys.exit(f"FAIL: {path}:{lineno}: round {record['round']} "
                     f"follows {prev_round} (not consecutive)")
        prev_round = record["round"]
        n_records += 1

if n_records == 0:
    sys.exit(f"FAIL: {path}: no records")
print(f"OK: {n_records} flight-log records, rounds end at {prev_round}")
EOF

# --- Root-cause advice JSON ------------------------------------------------
CAD_EXPLAIN="$BUILD_DIR/tools/cad_explain/cad_explain"
if [[ ! -x "$CAD_EXPLAIN" ]]; then
  echo "error: $CAD_EXPLAIN not found — build first" >&2
  exit 1
fi
ADVICE="$OUT_DIR/advice.json"
"$CAD_EXPLAIN" --advise "$FLIGHT" > "$ADVICE"
[[ -s "$ADVICE" ]] || { echo "FAIL: $ADVICE missing or empty" >&2; exit 1; }
# The offline replay is pure: same flight log in, same bytes out.
"$CAD_EXPLAIN" --advise "$FLIGHT" | cmp -s - "$ADVICE" \
  || { echo "FAIL: cad_explain --advise is not byte-deterministic" >&2
       exit 1; }

python3 - "$ADVICE" <<'EOF'
import json, sys

path = sys.argv[1]
doc = json.load(open(path))

assert doc.get("advice_version") == 1, "advice_version must be 1"
window = doc["window"]
for key in ("first_round", "last_round", "rounds_scanned", "rounds_abnormal"):
    assert isinstance(window.get(key), int), f"window.{key} must be an int"
assert window["rounds_scanned"] > 0, "advice over an empty window"

ranking = doc["ranking"]
finding_keys = [
    "sensor", "severity", "onset_round", "onset_window_start",
    "onset_window_end", "mover_rounds", "outlier_rounds", "enter_count",
    "exit_count", "structural", "blast_radius", "peers",
]
prev_severity = None
for i, finding in enumerate(ranking):
    for key in finding_keys:
        assert key in finding, f"ranking[{i}] lacks '{key}'"
    assert finding["blast_radius"] == len(finding["peers"]), (
        f"ranking[{i}]: blast_radius != len(peers)")
    if prev_severity is not None:
        assert finding["severity"] <= prev_severity, (
            f"ranking[{i}]: severity must be non-increasing")
    prev_severity = finding["severity"]

for i, segment in enumerate(doc["segments"]):
    assert segment["first_round"] <= segment["last_round"], (
        f"segments[{i}]: empty segment")

prev_round = None
for i, event in enumerate(doc["timeline"]):
    for key in ("round", "abnormal", "anomaly_open", "score", "entered",
                "exited", "movers"):
        assert key in event, f"timeline[{i}] lacks '{key}'"
    if prev_round is not None:
        assert event["round"] > prev_round, "timeline rounds must ascend"
    prev_round = event["round"]

print(f"OK: advice ranks {len(ranking)} sensor(s) over "
      f"{window['rounds_scanned']} rounds, "
      f"{len(doc['segments'])} segment(s), "
      f"{len(doc['timeline'])} timeline event(s)")
EOF

# --- Fleet tenant-labelled exposition --------------------------------------
FLEET_BENCH="$BUILD_DIR/bench/fleet_bench"
if [[ ! -x "$FLEET_BENCH" ]]; then
  echo "error: $FLEET_BENCH not found — build first" >&2
  exit 1
fi
FLEET_PROM="$OUT_DIR/fleet.prom"
"$FLEET_BENCH" --smoke --out "$OUT_DIR/fleet_bench.json" \
  --metrics-out "$FLEET_PROM" > /dev/null 2> /dev/null
[[ -s "$FLEET_PROM" ]] || { echo "FAIL: $FLEET_PROM missing or empty" >&2
                            exit 1; }

python3 - "$FLEET_PROM" <<'EOF'
import re, sys

path = sys.argv[1]
# Metric-name hygiene: everything the fleet exposes — rollup counters,
# histogram series (_bucket/_count/_sum), and per-tenant labelled lines —
# must stay inside the project namespace and charset.
name_re = re.compile(r'^cad_[a-z0-9_]+$')
label_re = re.compile(r'^[a-z_][a-z0-9_]*$')
# Tenant label values mirror FleetEngine's registration charset.
tenant_re = re.compile(r'^[a-z0-9_][a-z0-9_.\-]{0,119}$')
line_re = re.compile(r'^([^\s{]+)(\{[^}]*\})?\s+\S+')
label_pair_re = re.compile(r'([^=,{}]+)="([^"]*)"')

families = set()
tenants = set()
n_series = 0
with open(path) as f:
    for lineno, line in enumerate(f, start=1):
        line = line.rstrip("\n")
        if not line or line.startswith("#"):
            continue
        m = line_re.match(line)
        if not m:
            sys.exit(f"FAIL: {path}:{lineno}: unparseable exposition line: "
                     f"{line!r}")
        name, labels = m.group(1), m.group(2)
        if not name_re.match(name):
            sys.exit(f"FAIL: {path}:{lineno}: metric name '{name}' violates "
                     f"^cad_[a-z0-9_]+$")
        families.add(re.sub(r'_(bucket|count|sum)$', '', name))
        n_series += 1
        if labels:
            for label, value in label_pair_re.findall(labels):
                if not label_re.match(label):
                    sys.exit(f"FAIL: {path}:{lineno}: label name '{label}' "
                             f"is not a valid Prometheus label")
                if label == "tenant":
                    if not tenant_re.match(value):
                        sys.exit(f"FAIL: {path}:{lineno}: tenant label "
                                 f"{value!r} violates the registration "
                                 f"charset")
                    tenants.add(value)

documented = [
    "cad_fleet_samples_total", "cad_fleet_samples_rejected_total",
    "cad_fleet_rounds_total", "cad_fleet_quanta_total",
    "cad_fleet_steady_rounds_total", "cad_fleet_steady_allocs_total",
    "cad_fleet_tenants", "cad_fleet_workers", "cad_fleet_round_seconds",
]
missing = [name for name in documented if name not in families]
if missing:
    sys.exit(f"FAIL: fleet exposition lacks documented families: {missing}")
if not tenants:
    sys.exit("FAIL: no tenant-labelled series in the fleet exposition")

print(f"OK: {n_series} fleet series, {len(families)} families, "
      f"{len(tenants)} tenant label(s), all names within ^cad_[a-z0-9_]+$")
EOF

echo "telemetry check passed"
