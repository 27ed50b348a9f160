#!/usr/bin/env bash
# Backend-parity gate, mirrored by the CI backend-parity job
# (`make backend-parity`): train one small quantized bundle, run the same
# golden streaming scenario through both inference backends, and require
#
#   1. exact trigger identity — the trigger is a Poisson count-rate test
#      that never consults the NN, so seq, trigger_s, significance,
#      background_rate_hz, n_events, and ok must be equal byte for byte
#      across backends;
#   2. bitwise-identical int8 alerts at different worker counts (integer
#      inference is exact, so sharding cannot change results); every run
#      attaches sky maps, so this also covers the sky-map product step
#      byte for byte;
#   3. float32 → int8 localization drift bounded by DRIFT_TOL_DEG (the
#      documented quantization-error budget; see DESIGN.md "Inference
#      backends").
set -euo pipefail
cd "$(dirname "$0")/.."

# Documented tolerance: INT8 quantization may move individual ring
# probabilities across the background threshold, which can perturb the
# localization fit. On the golden bright-burst scenario the observed drift
# is ~0°; 2° keeps the gate tight while allowing threshold-crossing noise.
DRIFT_TOL_DEG="${DRIFT_TOL_DEG:-2.0}"

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

echo "== build"
go build -o "$workdir/" ./cmd/adapttrain ./cmd/adaptstream ./cmd/adaptloc

echo "== train a small PTQ-quantized bundle"
"$workdir/adapttrain" -bursts 1 -epochs 3 -quantize -quant-mode ptq -q \
    -o "$workdir/models.gob" 2>"$workdir/train.log" ||
    { cat "$workdir/train.log"; exit 1; }
grep -q 'quantized background net' "$workdir/train.log"

echo "== golden scenario through each backend"
# Every localized alert must carry a sky map.
has_maps='map(select(.ok)) | length > 0 and all(.skymap_b64 | length > 0)'
for b in float32 int8; do
    "$workdir/adaptstream" -seed 7 -exposure 3 -burst-at 1.2 -fluence 2 \
        -model "$workdir/models.gob" -backend "$b" -skymap \
        -alerts "$workdir/$b.jsonl" 2>"$workdir/$b.log"
    [ -s "$workdir/$b.jsonl" ] ||
        { echo "backend $b emitted no alerts"; cat "$workdir/$b.log"; exit 1; }
    jq -se "$has_maps" "$workdir/$b.jsonl" >/dev/null ||
        { echo "backend $b: localized alert without skymap_b64"; exit 1; }
done

echo "== trigger decisions must match float32 exactly"
trigger='{seq, trigger_s, significance, background_rate_hz, n_events, ok}'
jq -c "$trigger" "$workdir/float32.jsonl" >"$workdir/trigger-ref.jsonl"
jq -c "$trigger" "$workdir/int8.jsonl" >"$workdir/trigger-int8.jsonl"
cmp "$workdir/trigger-ref.jsonl" "$workdir/trigger-int8.jsonl" || {
    echo "backend int8 changed a trigger decision:"
    diff "$workdir/trigger-ref.jsonl" "$workdir/trigger-int8.jsonl" || true
    exit 1
}

echo "== int8 must be bitwise-deterministic across worker counts"
for p in 1 4; do
    "$workdir/adaptstream" -seed 7 -exposure 3 -burst-at 1.2 -fluence 2 \
        -model "$workdir/models.gob" -backend int8 -parallelism "$p" -skymap \
        -alerts "$workdir/int8-p$p.jsonl" 2>/dev/null
    jq -se "$has_maps" "$workdir/int8-p$p.jsonl" >/dev/null ||
        { echo "int8 at $p workers: localized alert without skymap_b64"; exit 1; }
done
cmp "$workdir/int8-p1.jsonl" "$workdir/int8-p4.jsonl" || {
    echo "int8 alerts depend on worker count:"
    diff "$workdir/int8-p1.jsonl" "$workdir/int8-p4.jsonl" || true
    exit 1
}

echo "== float32 -> int8 localization drift bounded ($DRIFT_TOL_DEG deg)"
python3 - "$workdir/float32.jsonl" "$workdir/int8.jsonl" "$DRIFT_TOL_DEG" <<'EOF'
import json, math, sys
ref, alt, tol = sys.argv[1], sys.argv[2], float(sys.argv[3])
with open(ref) as f, open(alt) as g:
    pairs = list(zip([json.loads(l) for l in f], [json.loads(l) for l in g]))
assert pairs, "no alerts to compare"
for i, (a, b) in enumerate(pairs):
    assert a["ok"] == b["ok"], f"alert {i}: ok flag differs"
    if not a["ok"]:
        continue
    dot = max(-1.0, min(1.0, sum(x * y for x, y in zip(a["dir"], b["dir"]))))
    drift = math.degrees(math.acos(dot))
    print(f"alert {i}: drift {drift:.4f} deg")
    assert drift <= tol, f"alert {i}: drift {drift:.3f} deg exceeds {tol}"
EOF

echo "== adaptloc runs on every backend"
for b in float32 int8; do
    "$workdir/adaptloc" -models "$workdir/models.gob" -backend "$b" \
        -fluence 2 -polar 30 >"$workdir/loc-$b.out"
    grep -q 'inferred direction' "$workdir/loc-$b.out"
done

echo "backend parity: OK ($(wc -l <"$workdir/float32.jsonl") alert(s), drift tolerance $DRIFT_TOL_DEG deg)"
