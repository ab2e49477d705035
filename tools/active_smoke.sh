#!/usr/bin/env bash
# Active-learning smoke test against the real binaries: train with a tiny
# unlabeled pool, assert the labeler was invoked for a strict subset of
# the pool, resume from the final checkpoint without re-invoking the
# oracle, and run the `active` bench at a tiny budget into the work
# directory and validate its report.
set -euo pipefail

cd "$(dirname "$0")/.."

BIN=${BIN:-target/release/hotspot}
if [ ! -x "$BIN" ]; then
  echo "building $BIN..."
  cargo build --release -p hotspot-cli
fi
if [ ! -x target/release/active ]; then
  echo "building bench binaries..."
  cargo build --release -p hotspot-bench
fi

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

POOL=12

echo "generating seed data and running a 2-round active-learning train..."
"$BIN" gen --dir "$work" --suite iccad --scale 0.001
run_train() {
  "$BIN" train --clips "$work/train.clips" --labels "$work/train.labels" \
         --k 4 --steps 80 --rounds 1 --batch 8 --seed 11 --model "$work/m.hsnn" \
         --active 2 --active-batch 3 --pool "$POOL" --pool-seed 5 \
         --checkpoint-every 25 "$@"
}
out=$(run_train)
echo "$out"

calls=$(echo "$out" | sed -n 's/.*labeler calls \([0-9]*\).*/\1/p')
[ -n "$calls" ] || { echo "FAIL: no labeler-call count in output"; exit 1; }
if [ "$calls" -ge "$POOL" ]; then
  echo "FAIL: active training labelled the whole pool ($calls of $POOL)"
  exit 1
fi
echo "OK: labeler called $calls times for a pool of $POOL"

echo "resuming from the final checkpoint (every batch already paid for)..."
resumed=$(run_train --resume "$work/m.hsnn.ckpt")
echo "$resumed"
echo "$resumed" | grep -q "resumed with 2 batch(es) already labelled" \
  || { echo "FAIL: resume did not replay the checkpointed batches"; exit 1; }
resumed_calls=$(echo "$resumed" | sed -n 's/.*labeler calls \([0-9]*\).*/\1/p')
if [ "$resumed_calls" != "$calls" ]; then
  echo "FAIL: resume re-invoked the oracle ($resumed_calls vs $calls calls)"
  exit 1
fi
echo "OK: checkpoint round-trips without re-labelling"

echo "running the label-efficiency bench at a tiny budget..."
./target/release/active --scale 0.002 --steps 60 --k 4 --rounds 1 \
    --pool 16 --active-rounds 2 --active-batch 3 --out "$work" > /dev/null

echo "validating BENCH_active.json..."
python3 - "$work/BENCH_active.json" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    report = json.load(f)

for key in ("benchmark", "pool_size", "rounds", "batch", "full_supervision",
            "active", "random", "active_auc_fraction_of_full",
            "labels_fraction_of_pool", "meets_99pct_auc_at_half_pool_labels"):
    assert key in report, f"missing {key}"

pool = report["pool_size"]
full = report["full_supervision"]
assert full["labeler_calls"] == pool, "full supervision must label the pool"
for arm in ("active", "random"):
    entry = report[arm]
    for key in ("labeler_calls", "labeler_cost_s", "auc", "curve"):
        assert key in entry, f"missing {arm}.{key}"
    assert 0 < entry["labeler_calls"] < pool, \
        f"{arm} arm must label a strict subset of the pool"
    assert 0.0 <= entry["auc"] <= 1.0, f"{arm} AUC out of range"
    labels = [p["labels"] for p in entry["curve"]]
    assert labels == sorted(labels), f"{arm} curve labels not monotone"
assert report["active"]["curve"][0]["labels"] == 0, \
    "active curve must start at zero labels (the seed-only model)"
print(f"report OK: active {report['active']['labeler_calls']} labels "
      f"-> AUC {report['active']['auc']:.3f}, "
      f"full {full['labeler_calls']} -> {full['auc']:.3f}")
EOF

echo "active-learning smoke test passed"
