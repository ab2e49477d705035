#!/usr/bin/env bash
# Serve-daemon smoke test against the real binaries: train a tiny model,
# start `hotspot serve` on a Unix socket, and drive every request op
# through `hotspot client` — status, predict (cross-checked against
# offline `hotspot predict`), scan (cross-checked field-by-field against
# `hotspot scan --report`), zero-downtime reload, structured errors for a
# bad reload and malformed JSON, and graceful shutdown.
set -euo pipefail

cd "$(dirname "$0")/.."

BIN=${BIN:-target/release/hotspot}
if [ ! -x "$BIN" ]; then
  echo "building $BIN..."
  cargo build --release -p hotspot-cli
fi

work=$(mktemp -d)
daemon_pid=""
cleanup() {
  [ -n "$daemon_pid" ] && kill "$daemon_pid" 2>/dev/null || true
  rm -rf "$work"
}
trap cleanup EXIT

echo "generating data and training two tiny models..."
"$BIN" gen --dir "$work" --suite iccad --scale 0.001
"$BIN" train --clips "$work/train.clips" --labels "$work/train.labels" \
       --k 4 --steps 60 --rounds 1 --batch 8 --seed 11 --model "$work/m1.hsnn" \
       --cascade "$work/pre.hsab" --cascade-grid 12 --cascade-rounds 24
"$BIN" train --clips "$work/train.clips" --labels "$work/train.labels" \
       --k 4 --steps 40 --rounds 1 --batch 8 --seed 12 --model "$work/m2.hsnn"
"$BIN" genlayout --out "$work/chip.clips" --tiles 3 --seed 7

sock="$work/hs.sock"
echo "starting the daemon on $sock..."
"$BIN" serve --socket "$sock" --model "$work/m1.hsnn" --cascade "$work/pre.hsab" \
       >"$work/serve.out" 2>"$work/serve.err" &
daemon_pid=$!
for _ in $(seq 1 200); do
  [ -S "$sock" ] && break
  kill -0 "$daemon_pid" 2>/dev/null || { cat "$work/serve.err" >&2; exit 1; }
  sleep 0.05
done
[ -S "$sock" ] || { echo "daemon socket never appeared" >&2; exit 1; }

echo "checking status..."
"$BIN" client --socket "$sock" --op status --id smoke > "$work/status.json"
python3 - "$work/status.json" <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))
assert r["v"] == 1, f"wrong schema version: {r.get('v')}"
assert r["ok"] is True and r["op"] == "status" and r["id"] == "smoke"
assert r["model"]["model_crc"].startswith("0x"), "provenance crc missing"
assert r["model"]["cascade_crc"].startswith("0x"), "cascade crc missing"
for key in ("requests", "predicts", "clips", "scans", "reloads", "errors",
            "rejected_busy", "batches", "max_batch"):
    assert key in r["counters"], f"missing counter {key}"
print(f"status OK: serving {r['model']['model_crc']}")
EOF

echo "cross-checking daemon predict against offline predict..."
"$BIN" predict --clips "$work/test.clips" --model "$work/m1.hsnn" > "$work/offline.tsv"
"$BIN" client --socket "$sock" --op predict --clips "$work/test.clips" \
       > "$work/predict.json"
python3 - "$work/predict.json" "$work/offline.tsv" <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))
assert r["v"] == 1 and r["ok"] is True and r["op"] == "predict"
offline = [float(line.split("\t")[0]) for line in open(sys.argv[2])]
assert len(r["scores"]) == len(offline), "clip count mismatch"
for served, ref in zip(r["scores"], offline):
    # `hotspot predict` prints 4 decimals; the daemon score must round to it.
    assert abs(served - ref) < 6e-5, f"daemon {served} vs offline {ref}"
for served, hot in zip(r["scores"], r["hotspots"]):
    assert hot == (served > r["threshold"]), "verdict disagrees with score"
assert r["batched"] >= len(offline), "batched below the request's own clips"
print(f"predict OK: {len(offline)} clips bit-consistent with offline scoring")
EOF

echo "cross-checking daemon scan against hotspot scan --report..."
"$BIN" scan --layout "$work/chip.clips" --model "$work/m1.hsnn" \
       --stride 600 --cascade "$work/pre.hsab" --report "$work/offline-scan.json"
"$BIN" client --socket "$sock" --op scan --layout "$work/chip.clips" \
       --stride 600 > "$work/scan.json"
python3 - "$work/scan.json" "$work/offline-scan.json" <<'EOF'
import json, sys
reply = json.load(open(sys.argv[1]))
offline = json.load(open(sys.argv[2]))
assert reply["v"] == 1 and reply["ok"] is True and reply["op"] == "scan"
report = reply["report"]
assert report["v"] == offline["v"] == 1
assert report["provenance"] == offline["provenance"], \
    "daemon and offline scan disagree on model provenance"
for key in ("layout", "scan", "positives"):
    assert report[key] == offline[key], f"report.{key} diverged"
assert len(report["regions"]) == len(offline["regions"]), "region count diverged"
served = [(w["x_nm"], w["y_nm"], w["score"]) for w in report["windows"]]
ref = [(w["x_nm"], w["y_nm"], w["score"]) for w in offline["windows"]]
assert served == ref, "per-window scores diverged between daemon and CLI scan"
print(f"scan OK: {len(served)} windows identical to the offline report")
EOF

echo "reloading to the second model with zero downtime..."
old_crc=$(python3 -c "import json;print(json.load(open('$work/status.json'))['model']['model_crc'])")
"$BIN" client --socket "$sock" --op reload --model-path "$work/m2.hsnn" \
       > "$work/reload.json"
python3 - "$work/reload.json" "$old_crc" <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))
assert r["v"] == 1 and r["ok"] is True and r["op"] == "reload"
assert r["model"]["model_crc"] != sys.argv[2], "reload kept the old model crc"
assert r["model"]["cascade_crc"] is None, "m2 was served with a stale cascade"
print(f"reload OK: now serving {r['model']['model_crc']}")
EOF

echo "checking structured errors exit nonzero..."
if "$BIN" client --socket "$sock" --op reload --model-path /nonexistent.hsnn \
     2>"$work/badreload.err"; then
  echo "bad reload unexpectedly succeeded" >&2; exit 1
fi
grep -q '"kind": "model"' "$work/badreload.err" || {
  echo "bad reload did not report a structured model error:" >&2
  cat "$work/badreload.err" >&2; exit 1; }
if "$BIN" client --socket "$sock" --raw '{definitely not json' \
     2>"$work/badjson.err"; then
  echo "malformed JSON unexpectedly succeeded" >&2; exit 1
fi
grep -q '"kind": "parse"' "$work/badjson.err" || {
  echo "malformed JSON did not report a structured parse error:" >&2
  cat "$work/badjson.err" >&2; exit 1; }

echo "shutting down gracefully..."
"$BIN" client --socket "$sock" --op shutdown > "$work/shutdown.json"
python3 -c "import json;r=json.load(open('$work/shutdown.json'));assert r['ok'] and r['op']=='shutdown'"
wait "$daemon_pid"
daemon_pid=""
[ -S "$sock" ] && { echo "daemon left its socket file behind" >&2; exit 1; }
grep -q "served" "$work/serve.out" || { echo "daemon wrote no summary" >&2; exit 1; }

echo "serve smoke passed."
