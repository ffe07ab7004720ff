#!/usr/bin/env bash
# Crash-recovery smoke test (docs/OPERATIONS.md §11), the CI analogue of
# tests/crash_recovery_test.cc but with REAL processes and a REAL kill -9:
#
#   1. boot a 3-daemon proteus-cached fleet (daemon 0 exports /metrics);
#   2. run tools/crash-drill, which fills the fleet and starts a shrink,
#      then announces `MID-RESIZE port=<victim>`;
#   3. kill -9 the victim mid-transition and cold-restart it on its port;
#   4. require the drill to print RECOVERY COMPLETE (correct values, the
#      incarnation change seen, the stale-epoch fence holding), and the
#      /metrics artifact to show stale_epoch_rejects > 0 on the daemon
#      that refused the stale write.
#
#   scripts/crash_smoke.sh [--build-dir=build] [--artifacts=artifacts]
set -euo pipefail

BUILD_DIR="build"
ARTIFACTS="artifacts"
for arg in "$@"; do
  case "$arg" in
    --build-dir=*) BUILD_DIR="${arg#*=}" ;;
    --artifacts=*) ARTIFACTS="${arg#*=}" ;;
    *) echo "usage: scripts/crash_smoke.sh [--build-dir=D] [--artifacts=D]" >&2
       exit 2 ;;
  esac
done

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT"
CACHED="$BUILD_DIR/tools/proteus-cached"
DRILL="$BUILD_DIR/tools/crash-drill"
for bin in "$CACHED" "$DRILL"; do
  [[ -x "$bin" ]] || { echo "crash_smoke.sh: $bin not built" >&2; exit 1; }
done
mkdir -p "$ARTIFACTS"

# Flag validation: a non-positive SLO fast window, or an audit flag without
# the sampler whose history the SLO engine reads, must be refused with a
# usage error (exit 2) — never an abort, never a silently blind SLO.
for flags in "--slo-fast-window-s=0" "--slo-fast-window-s=-1" \
             "--slo-hit-ratio=0.9 --sample-interval-ms=0"; do
  RC=0
  # shellcheck disable=SC2086  # word-split the flag list on purpose
  timeout 10 "$CACHED" --port=0 $flags > /dev/null 2>&1 || RC=$?
  [[ "$RC" == "2" ]] \
    || { echo "proteus-cached $flags exited $RC, expected usage error 2"
         exit 1; }
done

PORT0=11441 PORT1=11442 PORT2=11443 MPORT=11449
PIDS=()
cleanup() {
  for pid in "${PIDS[@]:-}"; do kill "$pid" 2>/dev/null || true; done
  wait 2>/dev/null || true
}
trap cleanup EXIT

start_daemon() { # port extra-flags... -> appends pid to PIDS
  local port="$1"; shift
  "$CACHED" --port="$port" --mem-mb=16 "$@" \
    >> "$ARTIFACTS/crash-smoke-daemons.log" 2>&1 &
  PIDS+=("$!")
}

: > "$ARTIFACTS/crash-smoke-daemons.log"
start_daemon "$PORT0" --metrics-port="$MPORT" --server-id=0
start_daemon "$PORT1" --server-id=1
start_daemon "$PORT2" --server-id=2
VICTIM_PID="${PIDS[2]}"
sleep 0.5

# The drill runs in the background; its stdout choreographs the kill.
DRILL_LOG="$ARTIFACTS/crash-smoke-drill.log"
"$DRILL" --servers="$PORT0,$PORT1,$PORT2" --victim=2 > "$DRILL_LOG" 2>&1 &
DRILL_PID="$!"

# Wait for MID-RESIZE, then deliver the crash: kill -9, restart cold.
for _ in $(seq 1 100); do
  grep -q '^MID-RESIZE' "$DRILL_LOG" 2>/dev/null && break
  kill -0 "$DRILL_PID" 2>/dev/null || break
  sleep 0.1
done
grep -q '^MID-RESIZE' "$DRILL_LOG" \
  || { echo "drill never reached MID-RESIZE"; cat "$DRILL_LOG"; exit 1; }
kill -9 "$VICTIM_PID"
wait "$VICTIM_PID" 2>/dev/null || true
# Cold restart on the same port: fresh incarnation, memory and digest gone.
start_daemon "$PORT2" --server-id=2

DRILL_STATUS=0
wait "$DRILL_PID" || DRILL_STATUS=$?
cat "$DRILL_LOG"
[[ "$DRILL_STATUS" == "0" ]] \
  || { echo "crash-drill failed (exit $DRILL_STATUS)"; exit 1; }
grep -q '^RECOVERY COMPLETE' "$DRILL_LOG" \
  || { echo "drill did not report completed recovery"; exit 1; }

# The daemon that refused the stale write must have counted the fence.
METRICS="$ARTIFACTS/crash-smoke-metrics.prom"
curl -sf "http://127.0.0.1:$MPORT/metrics" > "$METRICS" \
  || { echo "could not scrape daemon 0 metrics"; exit 1; }
awk '$1 == "proteus_daemon_stale_epoch_rejects_total" && $2 > 0 {found=1}
     END {if (!found) {print "no stale-epoch rejects in /metrics"; exit 1}}' \
  "$METRICS"

# Daemon 0 ran without audit flags: its /health must still answer 200 (the
# route always exists; un-audited daemons report plain ok + epoch).
HCODE="$(curl -s -o "$ARTIFACTS/crash-smoke-health.json" -w '%{http_code}' \
  "http://127.0.0.1:$MPORT/health")"
[[ "$HCODE" == "200" ]] \
  || { echo "daemon 0 /health returned $HCODE after drill"; exit 1; }

echo "crash-recovery smoke passed (stale-epoch fence held, fleet recovered)"

# ---------------------------------------------------------------------------
# SLO /health drill (docs/OPERATIONS.md §12): a fresh audited daemon must
# flip 200 -> 503 under an induced hit-ratio breach and recover to 200 once
# good traffic refills the fast burn window. Deterministic by construction:
# the breach is the FIRST observed interval (all-miss -> burn = 1/(1-0.9) =
# 10x = the page threshold), and recovery waits out the 2 s fast window.
SPORT=11444 SMPORT=11450
start_daemon "$SPORT" --server-id=9 --metrics-port="$SMPORT" \
  --slo-hit-ratio=0.9 --slo-fast-window-s=2 --audit-window-s=1
sleep 0.5

health() { # artifact-file -> prints http code
  curl -s -o "$1" -w '%{http_code}' "http://127.0.0.1:$SMPORT/health"
}
send_cmds() { # reads memcache commands on stdin, drains responses to EOF
  exec 3<>"/dev/tcp/127.0.0.1/$SPORT"
  cat >&3
  cat <&3 > /dev/null  # ends when the daemon closes after `quit`
  exec 3<&- 3>&-
}

# Prime: first scrape establishes the counter baseline (no interval yet).
HCODE="$(health "$ARTIFACTS/slo-health-prime.json")"
[[ "$HCODE" == "200" ]] \
  || { echo "audited daemon not healthy at start ($HCODE)"; exit 1; }

# Breach: an all-miss storm, then a scrape >=1 s later rolls it up as a
# 0% hit-ratio interval and the burn engine pages.
{ for i in $(seq 1 200); do printf 'get absent:%d\r\n' "$i"; done
  printf 'quit\r\n'; } | send_cmds
sleep 1.2
HCODE="$(health "$ARTIFACTS/slo-health-breach.json")"
[[ "$HCODE" == "503" ]] \
  || { echo "expected 503 during SLO breach, got $HCODE"
       cat "$ARTIFACTS/slo-health-breach.json"; exit 1; }
grep -q '"status":"unhealthy"' "$ARTIFACTS/slo-health-breach.json" \
  || { echo "breach body lacks unhealthy status"; exit 1; }
grep -q '"hit_ratio"' "$ARTIFACTS/slo-health-breach.json" \
  || { echo "breach body lacks the breached objective"; exit 1; }

# Recover: hit traffic, then wait past the 2 s fast window so the breach
# interval ages out and the next roll-up sees only good traffic.
{ printf 'set k 0 0 1\r\nv\r\n'
  for _ in $(seq 1 1000); do printf 'get k\r\n'; done
  printf 'quit\r\n'; } | send_cmds
sleep 3.5
HCODE="$(health "$ARTIFACTS/slo-health-recover.json")"
[[ "$HCODE" == "200" ]] \
  || { echo "daemon did not recover to 200, got $HCODE"
       cat "$ARTIFACTS/slo-health-recover.json"; exit 1; }
grep -q '"ppi"' "$ARTIFACTS/slo-health-recover.json" \
  || { echo "audited health body lacks ppi"; exit 1; }

echo "SLO health smoke passed (200 -> 503 on breach -> 200 on recovery)"

# ---------------------------------------------------------------------------
# Flight-recorder drill (docs/OPERATIONS.md §13): a daemon checkpointing
# retained history to --dump-dir must leave a well-formed postmortem even
# when killed with SIGKILL — the one signal no handler can catch. The
# checkpoint cadence (not the crash handler) is what makes that true.
FPORT=11445
DUMP_DIR="$ARTIFACTS/flight-dump"
rm -rf "$DUMP_DIR" && mkdir -p "$DUMP_DIR"
start_daemon "$FPORT" --server-id=7 --sample-interval-ms=200 \
  --dump-dir="$DUMP_DIR" --checkpoint-interval-s=1
FLIGHT_PID="${PIDS[-1]}"
sleep 0.5

# Traffic so the retained series carry real counts.
{ printf 'set fk 0 0 5\r\nhello\r\n'
  for _ in $(seq 1 300); do printf 'get fk\r\n'; done
  printf 'quit\r\n'; } | {
  exec 3<>"/dev/tcp/127.0.0.1/$FPORT"
  cat >&3
  cat <&3 > /dev/null
  exec 3<&- 3>&-
}

# Wait for a checkpoint that carries derived rate series (atomic rename =>
# the file is complete the moment it exists). The very first checkpoint can
# land after a single sampler tick — baselines only, no rates yet — so wait
# for a later one rather than racing it.
DUMP="$DUMP_DIR/flight.jsonl"
for _ in $(seq 1 100); do
  [[ -s "$DUMP" ]] && grep -q '_rate"' "$DUMP" && break
  sleep 0.1
done
[[ -s "$DUMP" ]] || { echo "no flight checkpoint within 10 s"; exit 1; }
grep -q '_rate"' "$DUMP" \
  || { echo "flight checkpoints never derived a rate series"; exit 1; }

# SIGKILL: no handler runs, no final dump — the last checkpoint IS the
# postmortem, and it must be internally consistent.
kill -9 "$FLIGHT_PID"
wait "$FLIGHT_PID" 2>/dev/null || true

head -1 "$DUMP" | grep -q '"type":"header"' \
  || { echo "flight dump first line is not a header"; head -1 "$DUMP"; exit 1; }
tail -1 "$DUMP" | grep -q '"type":"footer"' \
  || { echo "flight dump last line is not a footer (truncated write?)"
       tail -1 "$DUMP"; exit 1; }
# The footer declares header+body line count; the file adds the footer
# itself. A mismatch means a torn or partial dump despite the rename.
DECLARED="$(tail -1 "$DUMP" | sed 's/.*"lines":\([0-9]*\).*/\1/')"
ACTUAL="$(wc -l < "$DUMP")"
[[ "$ACTUAL" == "$((DECLARED + 1))" ]] \
  || { echo "flight dump line count $ACTUAL != declared $DECLARED + footer"
       exit 1; }
grep -q '"type":"point"' "$DUMP" \
  || { echo "flight dump retained no time-series points"; exit 1; }

echo "flight-recorder smoke passed (kill -9 left a well-formed postmortem)"
