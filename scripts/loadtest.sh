#!/usr/bin/env bash
# loadtest.sh — boot one local serve node, drive it with the built-in
# load generator, and verify the SSE progress stream end to end.
#
# Usage:
#   scripts/loadtest.sh                       # default: 5 cohorts x 2s
#   LOAD_COHORTS=8 LOAD_DURATION=1s scripts/loadtest.sh
#   LOAD_PORT=19000 scripts/loadtest.sh       # move the listen port
#
# Exit nonzero when the node fails to come up, the loadgen validity
# gates fail (fewer than 5 valid cohorts), or the SSE stream does not
# end with its terminal frame.
set -euo pipefail

cd "$(dirname "$0")/.."

ADDR="127.0.0.1:${LOAD_PORT:-18471}"
COHORTS="${LOAD_COHORTS:-5}"
DURATION="${LOAD_DURATION:-2s}"
CLIENTS="${LOAD_CLIENTS:-4}"

BIN="$(mktemp -d)/diogenes"
WORK="$(mktemp -d)"
PID=""
cleanup() {
  if [ -n "$PID" ]; then kill "$PID" 2>/dev/null || true; fi
  wait 2>/dev/null || true
  rm -rf "$(dirname "$BIN")" "$WORK"
}
trap cleanup EXIT

go build -o "$BIN" ./cmd/diogenes

"$BIN" serve -addr "$ADDR" -store "$WORK/store" \
  -queue 32 -workers 2 >"$WORK/serve.log" 2>&1 &
PID=$!

for _ in $(seq 1 100); do
  if curl -fsS "http://$ADDR/healthz" >/dev/null 2>&1; then break; fi
  sleep 0.1
done
curl -fsS "http://$ADDR/healthz" >/dev/null || {
  echo "node $ADDR never became healthy:" >&2
  cat "$WORK/serve.log" >&2
  exit 1
}
echo "node healthy on $ADDR"

# The latency/throughput matrix, gated: >= 5 valid cohorts or nonzero exit.
"$BIN" loadgen -targets "$ADDR" -clients "$CLIENTS" \
  -cohorts "$COHORTS" -duration "$DURATION" -gate \
  -json "$WORK/load.json"

# SSE check: submit one job and stream its events to the terminal frame.
JOB_ID="$(curl -fsS -X POST "http://$ADDR/jobs" -H 'Content-Type: application/json' \
  -d '{"kind":"fleet","app":"amg","ranks":4,"scale":0.05,"fresh":true}' |
  python3 -c 'import json,sys; print(json.load(sys.stdin)["id"])')"
echo "streaming events for $JOB_ID"
EVENTS="$(curl -fsSN --max-time 60 "http://$ADDR/jobs/$JOB_ID/events")"
if ! grep -q '^event: done' <<<"$EVENTS"; then
  echo "SSE stream for $JOB_ID never reached the terminal frame:" >&2
  tail -20 <<<"$EVENTS" >&2
  exit 1
fi
echo "SSE stream ended with the terminal frame"
echo "loadtest passed"
