#!/usr/bin/env bash
# Full-layout scan smoke test against the real binaries: generate a tiny
# benchmark, train a small model, synthesise a layout, scan it with a JSON
# report, and validate the report's schema. Also checks that the banded
# scan is deterministic across thread counts: a scan at --threads 1 and at
# --threads 2 yields identical windows, regions, cache and positives.
set -euo pipefail

cd "$(dirname "$0")/.."

BIN=${BIN:-target/release/hotspot}
if [ ! -x "$BIN" ]; then
  echo "building $BIN..."
  cargo build --release -p hotspot-cli
fi

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

echo "generating data and training a tiny model with a cascade prefilter..."
"$BIN" gen --dir "$work" --suite iccad --scale 0.001
"$BIN" train --clips "$work/train.clips" --labels "$work/train.labels" \
       --k 4 --steps 80 --rounds 1 --batch 8 --seed 11 --model "$work/m.hsnn" \
       --cascade "$work/pre.hsab" --cascade-grid 12 --cascade-rounds 24

echo "synthesising a layout and scanning it..."
"$BIN" genlayout --out "$work/chip.clips" --tiles 3 --seed 7
"$BIN" scan --layout "$work/chip.clips" --model "$work/m.hsnn" \
       --stride 600 --report "$work/scan.json"
"$BIN" scan --layout "$work/chip.clips" --model "$work/m.hsnn" \
       --stride 600 --cascade "$work/pre.hsab" --report "$work/cascade.json"

echo "validating the JSON report schema..."
python3 - "$work/scan.json" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    report = json.load(f)

def require(obj, path, keys):
    for key in keys:
        assert key in obj, f"missing {path}.{key}"

require(report, "report",
        ["v", "provenance", "layout", "scan", "cache", "throughput",
         "execution", "positives", "regions", "windows"])
assert report["v"] == 1, f"wrong schema version: {report['v']}"
require(report["provenance"], "provenance",
        ["model_crc", "model_version", "cascade_crc"])
assert report["provenance"]["model_crc"].startswith("0x"), \
    "provenance carries no model crc"
require(report["layout"], "layout", ["width_nm", "height_nm"])
require(report["scan"], "scan",
        ["stride_nm", "window_nm", "threshold", "grid_cols", "grid_rows"])
require(report["cache"], "cache",
        ["blocks_computed", "blocks_reused", "hit_rate"])
require(report["throughput"], "throughput",
        ["windows", "elapsed_s", "windows_per_sec", "cnn_evals",
         "cnn_evals_per_window"])
require(report["execution"], "execution",
        ["threads", "prepare_s", "scan_s", "merge_s"])
assert report["execution"]["threads"] >= 1, "scan resolved zero threads"
require(report["cascade"], "cascade", ["enabled"])
assert report["cascade"]["enabled"] is False, \
    "plain scan unexpectedly reports an enabled cascade"
assert report["throughput"]["cnn_evals"] == report["throughput"]["windows"], \
    "plain scan must CNN-score every window"

scan = report["scan"]
windows = report["windows"]
assert len(windows) == scan["grid_cols"] * scan["grid_rows"], \
    "window list does not cover the scan grid"
for w in windows:
    require(w, "window", ["x_nm", "y_nm", "score", "hotspot", "stage",
                          "margin"])
    assert 0.0 <= w["score"] <= 1.0, f"score out of range: {w['score']}"
    assert w["stage"] in ("cnn", "prefilter"), f"bad stage: {w['stage']}"
for r in report["regions"]:
    require(r, "region",
            ["x0_nm", "y0_nm", "x1_nm", "y1_nm", "windows",
             "peak_score", "mean_score"])

cache = report["cache"]
# Stride 600 < window 1200 on a block-aligned grid: the block-DCT cache
# must actually fire.
assert cache["blocks_reused"] > 0, "aligned scan never reused a DCT block"
assert cache["hit_rate"] > 0.0, "aligned scan reported a zero hit rate"
assert report["positives"] == sum(1 for w in windows if w["hotspot"]), \
    "positives count disagrees with flagged windows"
print(f"report OK: {len(windows)} windows, "
      f"{report['positives']} flagged, "
      f"{cache['hit_rate']:.0%} cache hit rate")
EOF

echo "validating the cascade scan report against the full scan..."
python3 - "$work/scan.json" "$work/cascade.json" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    full = json.load(f)
with open(sys.argv[2]) as f:
    report = json.load(f)

cascade = report["cascade"]
for key in ("enabled", "margin_threshold", "cleared", "forwarded"):
    assert key in cascade, f"missing cascade.{key}"
assert cascade["enabled"] is True, "cascade scan did not record its prefilter"

windows = report["windows"]
assert len(windows) == len(full["windows"]), "cascade changed the scan grid"
assert cascade["cleared"] + cascade["forwarded"] == len(windows), \
    "cascade counters do not partition the windows"
assert report["throughput"]["cnn_evals"] == cascade["forwarded"], \
    "cnn_evals disagrees with the forwarded count"

for w, fw in zip(windows, full["windows"]):
    assert (w["x_nm"], w["y_nm"]) == (fw["x_nm"], fw["y_nm"])
    assert w["margin"] is not None, "cascade window lost its margin"
    if w["stage"] == "cnn":
        # Survivors must carry the full scan's score (same JSON rendering
        # of bit-identical floats).
        assert w["score"] == fw["score"], \
            f"survivor at ({w['x_nm']}, {w['y_nm']}) diverged from the full scan"
    else:
        assert w["stage"] == "prefilter", f"bad stage: {w['stage']}"
        assert w["score"] == 0.0 and not w["hotspot"], \
            "cleared window carries a CNN score or flag"

print(f"cascade report OK: {cascade['cleared']} cleared, "
      f"{cascade['forwarded']} forwarded, "
      f"{report['throughput']['cnn_evals_per_window']:.2f} CNN evals/window")
EOF

echo "checking threaded-scan determinism (1 vs 2 threads)..."
"$BIN" scan --layout "$work/chip.clips" --model "$work/m.hsnn" \
       --stride 600 --threads 1 --report "$work/scan_t1.json"
"$BIN" scan --layout "$work/chip.clips" --model "$work/m.hsnn" \
       --stride 600 --threads 2 --report "$work/scan_t2.json"
python3 - "$work/scan_t1.json" "$work/scan_t2.json" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    serial = json.load(f)
with open(sys.argv[2]) as f:
    tiled = json.load(f)

assert serial["execution"]["threads"] == 1, \
    f"--threads 1 resolved to {serial['execution']['threads']}"
assert tiled["execution"]["threads"] == 2, \
    f"--threads 2 resolved to {tiled['execution']['threads']}"
for key in ("windows", "regions", "cache", "positives"):
    assert serial[key] == tiled[key], \
        f"threaded scan diverged from serial on report.{key}"
print(f"threaded scan OK: {len(serial['windows'])} windows identical "
      f"across 1 and 2 threads "
      f"({serial['positives']} flagged, {len(serial['regions'])} regions)")
EOF

echo "scan smoke passed."
