#!/usr/bin/env bash
# End-to-end smoke test for the prediction-serving daemon over its wire
# protocol (src/serve, tools/flaml_predict_serve.cpp). Trains a tiny model
# with flaml_train, compiles it to a `flaml-compiled v1` artifact twice
# (two generations), then drives one serve process over stdio: load,
# predict from inline rows and from an unlabeled CSV, hot-swap to the
# second artifact, reload-poll, stats, drain, shutdown — checking every
# response line. An error request (predict before rows) must produce a
# typed refusal, not tear the stream down. Malformed --max-batch-rows /
# --threads values must be refused before the daemon starts.
#
# Usage:
#   scripts/predict_serve_smoke.sh [bindir]   # default build/tools
set -euo pipefail

cd "$(dirname "$0")/.."
bindir="${1:-build/tools}"
for tool in flaml_train flaml_predict_serve; do
  if [ ! -x "$bindir/$tool" ]; then
    echo "predict_serve_smoke: no executable at $bindir/$tool" >&2
    exit 1
  fi
done

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

# Deterministic binary-classification training set: y = a + b > 1.
awk 'BEGIN {
  print "a,b,c,y"
  seed = 123456789
  for (i = 0; i < 240; i++) {
    seed = (seed * 1103515245 + 12345) % 2147483648; a = seed / 2147483648
    seed = (seed * 1103515245 + 12345) % 2147483648; b = seed / 2147483648
    seed = (seed * 1103515245 + 12345) % 2147483648; c = seed / 2147483648
    printf "%.6f,%.6f,%.6f,%d\n", a, b, c, (a + b > 1.0) ? 1 : 0
  }
}' > "$workdir/train.csv"

# Unlabeled request rows: every column is a feature (no label to strip).
printf 'a,b,c\n0.1,0.9,0.5\n0.8,0.7,0.2\n0.3,0.2,0.6\n' > "$workdir/rows.csv"

"$bindir/flaml_train" --data="$workdir/train.csv" --task=binary --budget=3 \
  --estimators=lgbm --seed=7 --model-out="$workdir/model_a.txt" > /dev/null
"$bindir/flaml_train" --data="$workdir/train.csv" --task=binary --budget=3 \
  --estimators=lgbm --seed=8 --model-out="$workdir/model_b.txt" > /dev/null

"$bindir/flaml_predict_serve" compile --model="$workdir/model_a.txt" \
  --out="$workdir/model_a.bin" > /dev/null
"$bindir/flaml_predict_serve" compile --model="$workdir/model_b.txt" \
  --out="$workdir/model_b.bin" > /dev/null

cat > "$workdir/requests" <<EOF
{"op":"ping"}
{"op":"predict","rows":[[0.1,0.9,0.5]]}
{"op":"load","artifact":"$workdir/model_a.bin"}
{"op":"ping"}
{"op":"predict","rows":[[0.1,0.9,0.5],[0.8,0.7,null]]}
{"op":"predict","csv":"$workdir/rows.csv"}
{"op":"reload"}
{"op":"swap","artifact":"$workdir/model_b.bin"}
{"op":"predict","rows":[[0.1,0.9,0.5]]}
{"op":"stats"}
{"op":"drain"}
{"op":"shutdown"}
EOF

"$bindir/flaml_predict_serve" serve < "$workdir/requests" > "$workdir/responses"

expect() {  # expect LINE_NO PATTERN DESCRIPTION
  local line
  line="$(sed -n "${1}p" "$workdir/responses")"
  if ! grep -q "$2" <<< "$line"; then
    echo "predict_serve_smoke: FAIL [$3]" >&2
    echo "  response $1: $line" >&2
    echo "  expected to contain: $2" >&2
    exit 1
  fi
}

expect 1  '"loaded":false'        "ping answers before any model"
expect 2  '"ok":false'            "predict before load is a typed refusal"
expect 3  '"generation":1'        "load installs generation 1"
expect 4  '"loaded":true'         "ping sees the loaded model"
expect 5  '"classes"'             "inline rows (with a null cell) predict"
expect 5  '"generation":1'        "reply names its generation"
expect 6  '"classes"'             "unlabeled CSV rows predict"
expect 7  '"swapped":false'       "reload with unchanged artifact is a no-op"
expect 8  '"generation":2'        "swap installs generation 2"
expect 9  '"generation":2'        "post-swap replies come from generation 2"
expect 10 '"predict.requests"'    "stats exposes request counters"
expect 11 '"drained":true'        "drain acknowledges"
expect 12 '"bye":true'            "shutdown acknowledges"

# Batch and thread flags are whole integers in range: anything else exits 2
# with the usage text instead of wrapping (-1 -> 2^64-1) or truncating
# (12abc -> 12) into a running daemon.
for bad in --max-batch-rows=-1 --max-batch-rows=0 --max-batch-rows=12abc \
           --threads=-1 --threads=1.5 --threads=; do
  status=0
  "$bindir/flaml_predict_serve" serve "$bad" < /dev/null > /dev/null \
    2> "$workdir/usage" || status=$?
  if [ "$status" -ne 2 ] || ! grep -q '^usage:' "$workdir/usage"; then
    echo "predict_serve_smoke: FAIL [serve $bad exits 2 with the usage text]" >&2
    echo "  exit status $status, stderr: $(cat "$workdir/usage")" >&2
    exit 1
  fi
done

echo "predict_serve_smoke: OK ($(wc -l < "$workdir/responses") responses, $bindir)"
