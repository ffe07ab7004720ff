#!/usr/bin/env bash
# Seeded simulator outputs gate. The paper-figure benches (fig04..fig11),
# ext_crash_latency (r = 1 and r = 2 through a crash) and the
# ablation_dogpile, ablation_feedback_loop, ablation_provisioning_order,
# ablation_ttl and ablation_object_sizes ablations are single-threaded and
# seeded, so their stdout is a pure function of the code. So are four
# in-process examples of the library facade: quickstart and
# replicated_failover (resizes at r = 1 and r = 2, a crash with
# read-repair), digest_handoff (one digest handed to a web server's
# router) and trace_replay.
# bench/golden/<name>.txt holds that stdout; any byte difference means the
# simulator's Algorithm 1/2, web tier, cache tier (ablation_object_sizes
# drives CacheServer's LRU eviction under exact and slab accounting), event
# core or the facade's transitions changed behaviour.
#
#   scripts/sim_golden.sh --check  [--build-dir=build]   compare, exit 1 on diff
#   scripts/sim_golden.sh --update [--build-dir=build]   rewrite the goldens
#
# Build with -DCMAKE_BUILD_TYPE=RelWithDebInfo (the CI configuration): the
# goldens were produced by that build, and floating-point output may differ
# under other optimization levels.
set -euo pipefail

BUILD_DIR="build"
MODE=""
for arg in "$@"; do
  case "$arg" in
    --build-dir=*) BUILD_DIR="${arg#*=}" ;;
    --check) MODE="check" ;;
    --update) MODE="update" ;;
    *) MODE="" ; break ;;
  esac
done
if [[ -z "$MODE" ]]; then
  echo "usage: scripts/sim_golden.sh --check|--update [--build-dir=D]" >&2
  exit 2
fi

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT"
GOLDEN="bench/golden"
# Binaries under the build directory; each golden is named after its file.
TARGETS=(bench/fig04_workload_provisioning bench/fig05_load_balance
         bench/fig06_hit_ratio bench/fig07_false_positive
         bench/fig08_false_negative bench/fig09_response_time
         bench/fig10_power bench/fig11_total_energy bench/ext_crash_latency
         bench/ablation_dogpile bench/ablation_feedback_loop
         bench/ablation_provisioning_order bench/ablation_ttl
         bench/ablation_object_sizes examples/quickstart
         examples/replicated_failover examples/digest_handoff
         examples/trace_replay)

for t in "${TARGETS[@]}"; do
  [[ -x "$BUILD_DIR/$t" ]] || {
    echo "sim_golden.sh: $BUILD_DIR/$t not built" >&2; exit 1; }
done

mkdir -p "$GOLDEN"
fresh="$(mktemp -d)"
trap 'rm -rf "$fresh"' EXIT

failed=0
for t in "${TARGETS[@]}"; do
  b="${t##*/}"
  start=$SECONDS
  "$BUILD_DIR/$t" > "$fresh/$b.txt" 2>/dev/null
  took=$((SECONDS - start))
  if [[ "$MODE" == "update" ]]; then
    cp "$fresh/$b.txt" "$GOLDEN/$b.txt"
    echo "updated $GOLDEN/$b.txt (${took}s)"
  elif cmp -s "$fresh/$b.txt" "$GOLDEN/$b.txt"; then
    echo "ok      $b (${took}s)"
  else
    echo "DIFFERS $b"
    diff "$GOLDEN/$b.txt" "$fresh/$b.txt" | head -20 || true
    failed=1
  fi
done
exit "$failed"
