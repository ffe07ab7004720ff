#!/usr/bin/env bash
# Checks that the benchmark agrees with itself: per workload, two sets of
# RUNS runs of the same code (default 5 each, 10 in all), alternating set A
# and set B, every run with its own seed and BENCHMARK.json's run_seconds.
#
#   bench/e2e/stability.sh [RUNS [WORKLOAD...]]
#
# Prints, per end-to-end metric: each set's median, the spread over all runs
# (quartile distance / median, as statistics.quantiles(n=4) gives it), the
# bound from BENCHMARK.json, whether the spread is under a third of the bound
# (the target), and whether the set medians agree within the bound. Also
# prints each workload's mean wall time per run. Exits 1 if a spread other
# than setup_s's exceeds its bound or a pair of set medians disagrees by more
# than the bound.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
runs="${1:-5}"
shift || true
workloads=("$@")
if [[ ${#workloads[@]} -eq 0 ]]; then
  workloads=(hot-get write-4k resize-churn sim-diurnal)
fi
seconds="$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' \
  "$root/BENCHMARK.json")"
out="$root/build-bench/stability"
rm -rf "$out"
mkdir -p "$out"

for workload in "${workloads[@]}"; do
  for ((i = 0; i < runs; i++)); do
    for set in A B; do
      seed=$((2 * i + 1))
      [[ $set == B ]] && seed=$((2 * i + 2))
      echo "stability: $workload set $set seed $seed" >&2
      start=$(date +%s.%N)
      bash "$root/bench/e2e/run.sh" --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace 0 | tail -n 1 > "$out/$workload.$set.$seed.json"
      echo "$start $(date +%s.%N)" > "$out/$workload.$set.$seed.wall"
    done
  done
done

python3 - "$root/BENCHMARK.json" "$out" "${workloads[@]}" <<'EOF'
import glob, json, statistics, sys

bench = json.load(open(sys.argv[1]))
out, workloads = sys.argv[2], sys.argv[3:]
ok = True
print(f"{'workload':<13} {'metric':<17} {'median A':>14} {'median B':>14} "
      f"{'spread':>8} {'bound':>6}  <bound/3  agree")
for w in workloads:
    sets = {s: [json.load(open(f)) for f in sorted(glob.glob(f"{out}/{w}.{s}.*.json"))]
            for s in "AB"}
    walls = [float(b) - float(a) for f in glob.glob(f"{out}/{w}.*.wall")
             for a, b in [open(f).read().split()]]
    for m in bench["end_to_end"]:
        name, bound = m["name"], m["bound"]
        vals = {s: [r["metrics"][name]["value"] for r in sets[s]] for s in "AB"}
        med = {s: statistics.median(v) for s, v in vals.items()}
        both = vals["A"] + vals["B"]
        q = statistics.quantiles(both, n=4) if len(both) > 1 else [both[0]] * 3
        spread = (q[2] - q[0]) / statistics.median(both)
        agree = abs(med["B"] - med["A"]) <= bound * abs(med["A"])
        target = spread <= bound / 3
        ok &= agree and (name == "setup_s" or spread <= bound)
        print(f"{w:<13} {name:<17} {med['A']:>14.6g} {med['B']:>14.6g} "
              f"{spread:>8.4f} {bound:>6.3g}  {'yes' if target else 'NO':>8}  "
              f"{'yes' if agree else 'NO'}")
    print(f"{w:<13} mean wall time per run: {statistics.mean(walls):.1f} s")
sys.exit(0 if ok else 1)
EOF
