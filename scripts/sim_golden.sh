#!/usr/bin/env bash
# Seeded simulator outputs gate. The paper-figure benches (fig04..fig11),
# ext_crash_latency (r = 1 and r = 2 through a crash) and the
# ablation_dogpile, ablation_feedback_loop, ablation_provisioning_order,
# ablation_ttl and ablation_object_sizes ablations are single-threaded and
# seeded, so their stdout is a pure function of the code.
# bench/golden/<bench>.txt holds that stdout; any byte difference means the
# simulator's Algorithm 1/2, web tier, cache tier (ablation_object_sizes
# drives CacheServer's LRU eviction under exact and slab accounting) or
# event core changed behaviour.
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
BENCHES=(fig04_workload_provisioning fig05_load_balance fig06_hit_ratio
         fig07_false_positive fig08_false_negative fig09_response_time
         fig10_power fig11_total_energy ext_crash_latency ablation_dogpile
         ablation_feedback_loop ablation_provisioning_order ablation_ttl
         ablation_object_sizes)

for b in "${BENCHES[@]}"; do
  [[ -x "$BUILD_DIR/bench/$b" ]] || {
    echo "sim_golden.sh: $BUILD_DIR/bench/$b not built" >&2; exit 1; }
done

mkdir -p "$GOLDEN"
fresh="$(mktemp -d)"
trap 'rm -rf "$fresh"' EXIT

failed=0
for b in "${BENCHES[@]}"; do
  start=$SECONDS
  "$BUILD_DIR/bench/$b" > "$fresh/$b.txt" 2>/dev/null
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
