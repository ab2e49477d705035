#!/usr/bin/env bash
# Benchmark-suite smoke test against the real binaries: generate the
# golden-mini corner suite twice and assert bit-identical manifests equal
# to the committed crates/datagen/tests/golden/mini.manifest,
# validate the manifest and per-corner label files, train/eval on the
# generated data, and run the `suites` bench at a tiny budget into the
# work directory and validate its report.
set -euo pipefail

cd "$(dirname "$0")/.."

BIN=${BIN:-target/release/hotspot}
if [ ! -x "$BIN" ]; then
  echo "building $BIN..."
  cargo build --release -p hotspot-cli
fi
if [ ! -x target/release/suites ]; then
  echo "building bench binaries..."
  cargo build --release -p hotspot-bench
fi

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

echo "generating golden-mini twice..."
"$BIN" gen --dir "$work/a" --suite golden-mini
"$BIN" gen --dir "$work/b" --suite golden-mini
for f in manifest.txt train.clips train.labels train.corners \
         test.clips test.labels test.corners; do
  cmp -s "$work/a/$f" "$work/b/$f" \
    || { echo "FAIL: $f differs between identical-seed generations"; exit 1; }
done
echo "OK: regeneration is bit-identical (manifest, clips, labels, corners)"
cmp "$work/a/manifest.txt" crates/datagen/tests/golden/mini.manifest \
  || { echo "FAIL: release golden-mini manifest differs from the committed golden"; exit 1; }
echo "OK: the release build regenerates the committed golden-mini manifest"

echo "validating the manifest and corner-label files..."
python3 - "$work/a" <<'EOF'
import re, sys, zlib
from pathlib import Path

d = Path(sys.argv[1])
lines = (d / "manifest.txt").read_text().splitlines()
assert lines[0] == "hotspot-suite-manifest v1", f"bad header: {lines[0]}"
assert lines[-1] == "end", "missing end terminator"
# The body covered by total-crc includes the header line.
body = "".join(line + "\n" for line in lines[:-2])
recorded = re.fullmatch(r"total-crc ([0-9a-f]{8})", lines[-2]).group(1)
computed = zlib.crc32(body.encode()) & 0xFFFFFFFF
assert int(recorded, 16) == computed, \
    f"total-crc mismatch: recorded {recorded}, computed {computed:08x}"

splits = {}
n_corners = None
for line in lines[1:-2]:
    if line.startswith("corner-schema "):
        m = re.fullmatch(r"corner-schema dose(\d+)\[[^\]]*\]xdefocus(\d+)\[[^\]]*\]nm", line)
        assert m, f"unparseable corner schema: {line}"
        n_corners = int(m.group(1)) * int(m.group(2))
    if line.startswith("split "):
        m = re.fullmatch(
            r"split (\w+) count (\d+) hotspots (\d+) clips-crc [0-9a-f]{8} "
            r"labels-crc [0-9a-f]{8}(?: corners-crc [0-9a-f]{8})?", line)
        assert m, f"unparseable split line: {line}"
        splits[m.group(1)] = (int(m.group(2)), int(m.group(3)))
assert set(splits) == {"train", "test"}, f"splits: {set(splits)}"
assert n_corners, "golden-mini must carry a corner schema"

for name, (count, hotspots) in splits.items():
    labels = [l for l in (d / f"{name}.labels").read_text().split() if l]
    assert len(labels) == count, f"{name}: {len(labels)} labels for count {count}"
    assert labels.count("1") == hotspots, f"{name}: hotspot count mismatch"
    corners = [l for l in (d / f"{name}.corners").read_text().splitlines() if l.strip()]
    assert len(corners) == count, f"{name}: {len(corners)} corner lines for count {count}"
    for i, (label, line) in enumerate(zip(labels, corners)):
        sev, bits = line.split()
        assert len(bits) == n_corners and set(bits) <= {"0", "1"}, \
            f"{name}:{i + 1}: bad fail bits {bits!r}"
        assert ("1" in bits) == (label == "1"), \
            f"{name}:{i + 1}: corner bits disagree with the scalar label"
        assert (int(sev) > 0) == (label == "1"), \
            f"{name}:{i + 1}: severity sign disagrees with the scalar label"
print(f"manifest OK: {splits['train'][0]} train / {splits['test'][0]} test clips, "
      f"{n_corners} corners per clip")
EOF

echo "training and evaluating on the generated suite..."
"$BIN" train --clips "$work/a/train.clips" --labels "$work/a/train.labels" \
       --k 4 --steps 80 --rounds 1 --batch 8 --seed 11 --model "$work/m.hsnn"
"$BIN" eval --clips "$work/a/test.clips" --labels "$work/a/test.labels" \
       --model "$work/m.hsnn"

echo "running the suite-matrix bench at a tiny budget..."
./target/release/suites --scale 0.004 --steps 60 --k 4 --rounds 1 \
    --probes 8 --suites topo --out "$work" > /dev/null

echo "validating BENCH_suites.json..."
python3 - "$work/BENCH_suites.json" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    report = json.load(f)

for key in ("benchmark", "scale", "train_steps", "probes_per_family", "suites"):
    assert key in report, f"missing {key}"
assert report["benchmark"] == "suite-matrix"
assert report["suites"], "no suites in report"
for suite in report["suites"]:
    for key in ("suite", "train_clips", "test_clips", "accuracy", "false_alarms",
                "gen_clips_per_s", "predict_clips_per_s", "families"):
        assert key in suite, f"missing suites[].{key}"
    assert 0.0 <= suite["accuracy"] <= 1.0, "accuracy out of range"
    assert suite["gen_clips_per_s"] > 0 and suite["predict_clips_per_s"] > 0
    assert suite["families"], f"{suite['suite']}: no per-family entries"
    for fam in suite["families"]:
        assert 0.0 <= fam["probe_accuracy"] <= 1.0, \
            f"{suite['suite']}/{fam['family']}: probe accuracy out of range"
    if suite["corner_schema"] is not None:
        head = suite["corner_head"]
        assert head and head["n_corners"] > 0, "corner suite missing corner head"
        assert 0.0 <= head["corner_accuracy"] <= 1.0
names = ", ".join(s["suite"] for s in report["suites"])
print(f"report OK: {names}")
EOF

echo "suite smoke test passed"
