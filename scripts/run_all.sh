#!/usr/bin/env bash
# Full reproduction driver: build, test, and regenerate every table and
# figure, logging to test_output.txt and bench_output.txt at the repo
# root (the artifacts EXPERIMENTS.md points to).
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -G Ninja
cmake --build build
ctest --test-dir build 2>&1 | tee test_output.txt

# Observability smoke: run the CLI flow on a tiny generated design with
# the spatial tier armed and validate every emitted artifact — the
# Chrome trace, the v2 RunReport (with its k-entry timeline), the
# delta-encoded heatmap series (k+1 snapshots), and the flight-recorder
# dump — then render each through crp_report.
OBS_TMP=$(mktemp -d)
trap 'rm -rf "$OBS_TMP"' EXIT
build/tools/crp generate "$OBS_TMP/tiny.lef" "$OBS_TMP/tiny.def" \
  --cells 200 --seed 3
build/tools/crp run "$OBS_TMP/tiny.lef" "$OBS_TMP/tiny.def" \
  "$OBS_TMP/out.def" "$OBS_TMP/out.guide" --k 2 --snapshots 1 \
  --trace-out "$OBS_TMP/trace.json" --report-out "$OBS_TMP/report.json" \
  --heatmaps-out "$OBS_TMP/heatmaps.json" --flight-out "$OBS_TMP/flight.json"
python3 - "$OBS_TMP/trace.json" "$OBS_TMP/report.json" \
  "$OBS_TMP/heatmaps.json" "$OBS_TMP/flight.json" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    trace = json.load(f)
assert isinstance(trace["traceEvents"], list) and trace["traceEvents"], \
    "trace has no events"
assert all(e["ph"] == "X" for e in trace["traceEvents"])

with open(sys.argv[2]) as f:
    report = json.load(f)
assert report["schemaVersion"] == 2, report.get("schemaVersion")
assert len(report["phases"]) == 5, report["phases"]
assert len(report["timeline"]) == 2, "expected a k-entry timeline"
for record in report["timeline"]:
    assert "overflowBefore" in record and "overflowAfter" in record, record

with open(sys.argv[3]) as f:
    heatmaps = json.load(f)
assert heatmaps["count"] == 3, "expected k+1 heatmap snapshots"
assert heatmaps["base"]["label"] == "post-gr", heatmaps["base"]["label"]
assert len(heatmaps["deltas"]) == 2, "one delta per iteration"
# The timeline's overflow bracket must agree with the snapshots.
assert report["timeline"][-1]["overflowAfter"] == \
    heatmaps["deltas"][-1]["totalOverflow"]

with open(sys.argv[4]) as f:
    flight = json.load(f)
assert flight["schemaVersion"] == 1, flight.get("schemaVersion")
assert flight["events"], "flight recorder captured no events"
assert flight["latestHeatmap"]["label"] == "iter1", \
    "flight dump lost the latest heatmap"

print(f"obs smoke ok: {len(trace['traceEvents'])} trace events, "
      f"{len(report['phases'])} phases, {len(report['timeline'])} timeline "
      f"records, {heatmaps['count']} heatmaps, "
      f"{len(flight['events'])} flight events")
EOF

# The offline renderer must be able to display every artifact.
build/tools/crp_report heatmap "$OBS_TMP/heatmaps.json" \
  --ppm "$OBS_TMP/heatmap.ppm" > /dev/null
head -c 2 "$OBS_TMP/heatmap.ppm" | grep -q P3
build/tools/crp_report timeline "$OBS_TMP/report.json" \
  --csv "$OBS_TMP/timeline.csv" > /dev/null
grep -q overflowBefore "$OBS_TMP/timeline.csv"
build/tools/crp_report flight "$OBS_TMP/flight.json" > /dev/null
echo "crp_report render ok"

# Determinism attestation (docs/observability.md): a second run with the
# same design and seed must produce a bit-identical fingerprint, which
# crp_report --diff certifies with exit 0 (exit 3 means divergence).
# Both runs also land in a ledger, and --check must find no regression.
build/tools/crp run "$OBS_TMP/tiny.lef" "$OBS_TMP/tiny.def" \
  "$OBS_TMP/out2.def" "$OBS_TMP/out2.guide" --k 2 --snapshots 1 \
  --report-out "$OBS_TMP/report2.json" \
  --metrics-out "$OBS_TMP/metrics.prom" --ledger "$OBS_TMP/ledger.jsonl"
build/tools/crp run "$OBS_TMP/tiny.lef" "$OBS_TMP/tiny.def" \
  "$OBS_TMP/out3.def" "$OBS_TMP/out3.guide" --k 2 --snapshots 1 \
  --report-out "$OBS_TMP/report3.json" --ledger "$OBS_TMP/ledger.jsonl"
build/tools/crp_report --diff "$OBS_TMP/report2.json" "$OBS_TMP/report3.json"
grep -q "# TYPE" "$OBS_TMP/metrics.prom"
build/tools/crp_report ledger "$OBS_TMP/ledger.jsonl" --check 1
echo "determinism diff ok"

# Serve smoke (docs/serve.md): boot the daemon on a private socket,
# drive concurrent bmgen -> run -> eco -> report chains through the
# wire protocol with crp_loadgen's validation mode (streamed iteration
# events in order, timeline + heatmap delta per event, fingerprints on
# every final frame, report fingerprint == eco fingerprint), then
# require a clean SIGTERM shutdown (exit 0).
SERVE_SOCK="$OBS_TMP/serve.sock"
build/tools/crp serve --socket "$SERVE_SOCK" &
SERVE_PID=$!
for _ in $(seq 1 100); do [[ -S "$SERVE_SOCK" ]] && break; sleep 0.05; done
build/tools/crp_loadgen --socket "$SERVE_SOCK" --chain 1 --jobs 4 --clients 2

# Telemetry scrape (docs/serve.md): pull the server-wide Prometheus
# payload through the `metrics` op and the self-instrumentation stats,
# then validate the exposition format line by line — every sample must
# match the text-format grammar and every histogram's cumulative
# buckets must be monotone and agree with its _count.
python3 - "$SERVE_SOCK" <<'EOF'
import json, re, socket, struct, sys

def call(sock_path, request):
    s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    s.connect(sock_path)
    payload = json.dumps(request).encode()
    s.sendall(struct.pack(">I", len(payload)) + payload)
    header = b""
    while len(header) < 4:
        header += s.recv(4 - len(header))
    (length,) = struct.unpack(">I", header)
    body = b""
    while len(body) < length:
        body += s.recv(length - len(body))
    s.close()
    return json.loads(body)

stats = call(sys.argv[1], {"op": "stats"})
assert stats["ok"], stats
assert stats["uptimeSeconds"] >= 0, stats
assert stats["bytesIn"] > 0 and stats["bytesOut"] > 0, stats
ops = stats["ops"]
assert ops["run"]["requests"] >= 1, "loadgen chains should have run jobs"
assert ops["run"]["latencyP50Micros"] <= ops["run"]["latencyP99Micros"]

reply = call(sys.argv[1], {"op": "metrics"})
assert reply["ok"], reply
assert reply["contentType"].startswith("text/plain"), reply["contentType"]
text = reply["metrics"]

sample_re = re.compile(
    r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{le="[^"]+"\})? -?[0-9][0-9eE.+-]*$')
type_re = re.compile(
    r"^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram)$")
buckets, counts = {}, {}
samples = 0
for line in text.splitlines():
    if line.startswith("#"):
        assert type_re.match(line), f"bad TYPE line: {line!r}"
        continue
    assert sample_re.match(line), f"bad sample line: {line!r}"
    samples += 1
    name, value = line.split(" ", 1)
    if "_bucket{" in name:
        buckets.setdefault(name.split("_bucket{")[0], []).append(int(value))
    elif name.endswith("_count"):
        counts[name[: -len("_count")]] = int(value)
assert samples > 0, "metrics payload is empty"
assert buckets, "expected serve latency histograms in the payload"
for metric, series in buckets.items():
    assert all(a <= b for a, b in zip(series, series[1:])), \
        f"{metric} buckets are not cumulative: {series}"
    assert series[-1] == counts[metric], \
        f"{metric} +Inf bucket disagrees with _count"
print(f"metrics scrape ok: {samples} samples, "
      f"{len(buckets)} histograms, {sum(v['requests'] for v in ops.values())} "
      f"requests across {len(ops)} ops")
EOF

kill -TERM "$SERVE_PID"
wait "$SERVE_PID"
echo "serve smoke ok"

for b in build/bench/*; do "$b"; done 2>&1 | tee bench_output.txt

# Differential fuzz campaign + ASan/UBSan and TSan legs (docs/checking.md): the
# audited flow must agree with itself bit-for-bit across paired
# configurations on 25 seeds.  Skip with CRP_SKIP_FUZZ=1.
if [[ "${CRP_SKIP_FUZZ:-0}" != "1" ]]; then
  scripts/run_fuzz.sh
fi
