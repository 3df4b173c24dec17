#!/usr/bin/env bash
# CI smoke for the `statleak serve` daemon: an optimize that reads the
# same whether or not the edits before it were analyzed (the path repair
# an analyze defers), a c17 + add32 round-trip over the wire protocol,
# checkpoint/rollback determinism, >= 2 concurrent sessions, LRU
# eviction + transparent restore, a register-cone session (spipe30k, ten
# cones) that rolls back to its load-time yield, zero leaked sessions and
# a clean shutdown.  Run from the repo root after `dune build`.
set -euo pipefail

CLI=${CLI:-_build/default/bin/statleak_cli.exe}
SOCK=$(mktemp -u "${TMPDIR:-/tmp}/statleak-smoke-XXXXXX.sock")
OUT1=$(mktemp) OUT2=$(mktemp)
cleanup() {
  kill "$SERVER" 2>/dev/null || true
  rm -f "$OUT1" "$OUT2" "$SOCK"
}

"$CLI" serve --socket "$SOCK" --jobs 4 --max-sessions 2 &
SERVER=$!
trap cleanup EXIT

for _ in $(seq 1 100); do [ -S "$SOCK" ] && break; sleep 0.1; done
[ -S "$SOCK" ] || { echo "FAIL: server socket never appeared"; exit 1; }

client() { "$CLI" client --socket "$SOCK" "$@"; }

echo "== ping"
client ping

echo "== the same 20 edits, analyzed or not, then optimize: equal results"
client load e1 add32 >/dev/null
client load e2 add32 >/dev/null
for i in $(seq 0 9); do
  for e in "reassign-vth fa${i}_x1 1" "resize fa${i}_n1 3"; do
    client edit e1 $e | grep -q 'applied: 1'
    client analyze e1 | grep -q 'circuit: add32'
    client edit e2 $e | grep -q 'applied: 1'
  done
done
client optimize e1 --mode batch >"$OUT1"
client optimize e2 --mode batch >"$OUT2"
for key in digest final_yield; do
  A=$(awk -F': ' -v k="$key" '$1 == k {print $2}' "$OUT1")
  B=$(awk -F': ' -v k="$key" '$1 == k {print $2}' "$OUT2")
  [ -n "$A" ] && [ "$A" = "$B" ] || {
    echo "FAIL: optimize $key after analyzed edits ($A) differs from unanalyzed ($B)"
    exit 1
  }
done
client close e1 >/dev/null
client close e2 >/dev/null

echo "== load c17 and add32 sessions"
client load s1 c17    | grep -q 'circuit: c17'
client load s2 add32  | grep -q 'circuit: add32'
client stats          | grep -q 'live_sessions: 2'

echo "== edit / analyze / rollback round-trip on s1"
client checkpoint s1 base >/dev/null
client edit s1 reassign-vth G10 1 | grep -q 'applied: 1'
YIELD_EDITED=$(client analyze s1 | awk -F': ' '/^yield:/{print $2}')
client rollback s1 base | grep -q 'reverted: 1'
client edit s1 reassign-vth G10 1 >/dev/null
YIELD_AGAIN=$(client analyze s1 | awk -F': ' '/^yield:/{print $2}')
[ "$YIELD_EDITED" = "$YIELD_AGAIN" ] || {
  echo "FAIL: rollback + replay is not deterministic ($YIELD_EDITED vs $YIELD_AGAIN)"
  exit 1
}

echo "== concurrent optimize on both sessions"
client optimize s1 --mode stat  >"$OUT1" &
P1=$!
client optimize s2 --mode batch >"$OUT2" &
P2=$!
wait "$P1"; wait "$P2"
grep -q 'feasible: true' "$OUT1"
grep -q 'feasible: true' "$OUT2"

echo "== a third session forces an LRU eviction"
# the two optimizes raced for the LRU order: touch s2 so s1 is the one evicted
client analyze s2 >/dev/null
client load s3 c17 >/dev/null
STATS=$(client stats)
echo "$STATS" | grep -q 'live_sessions: 2'
echo "$STATS" | grep -Eq 'evictions: [1-9]'

echo "== touching the evicted session restores it transparently"
client analyze s1 | grep -q 'circuit: c17'
client stats | grep -Eq 'restores: [1-9]'

echo "== register-cone session: edit, analyze, roll back to the load"
YIELD_LOADED=$(client load s4 spipe30k | awk -F': ' '/^yield:/{print $2}')
client checkpoint s4 base >/dev/null
client edit s4 reassign-vth c4_9_3 1 | grep -q 'applied: 1'
client analyze s4 | grep -q 'circuit: spipe30k'
YIELD_BACK=$(client rollback s4 base | awk -F': ' '/^yield:/{print $2}')
[ -n "$YIELD_LOADED" ] && [ "$YIELD_LOADED" = "$YIELD_BACK" ] || {
  echo "FAIL: spipe30k rollback yield $YIELD_BACK differs from the load-time $YIELD_LOADED"
  exit 1
}

echo "== close all sessions: nothing may leak"
client close s1 >/dev/null
client close s2 >/dev/null
client close s3 >/dev/null
client close s4 >/dev/null
STATS=$(client stats)
echo "$STATS" | grep -q 'live_sessions: 0'
echo "$STATS" | grep -q 'evicted_sessions: 0'

echo "== shutdown"
client shutdown | grep -q 'stopping: true'
wait "$SERVER" || { echo "FAIL: server exited nonzero"; exit 1; }
[ ! -S "$SOCK" ] || { echo "FAIL: socket file not removed"; exit 1; }
[ ! -e "$SOCK.sessions" ] || { echo "FAIL: snapshot dir not removed"; exit 1; }

echo "serve smoke OK"
