#!/usr/bin/env bash
# Runs alternating pairs of one bench/e2e workload: the tree at <ref> (the
# base) against this working tree (the change), one pair per seed.
#
#   scripts/bench_pairs.sh <ref> <workload> <seed>...
#
# The base is exported with `git archive` into build-pairs/<commit>/ and
# kept there for later runs; each side builds its own Release bench through
# its bench/e2e/run.sh. Pair i runs the base first when i is even and the
# change first when it is odd, so a drift of the host during the run favours
# neither side. Every run lasts BENCH_PAIRS_SECONDS (default: BENCHMARK.json's
# run_seconds). At the end it prints, for every end-to-end metric of
# BENCHMARK.json, each side's median and quartiles, the change of the
# median and the pairs the change won (ties apart). With <ref> = HEAD and a
# clean tree it is an A/A run: it shows the harness's own spread and bias.
# Raw results, one JSON line per run, land in build-pairs/<workload>.jsonl.
set -euo pipefail

if [[ $# -lt 3 ]]; then
  echo "usage: $0 <ref> <workload> <seed>..." >&2
  exit 2
fi
ref="$1"
workload="$2"
shift 2

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/build-pairs"
commit="$(git -C "$root" rev-parse --verify "$ref^{commit}")"
base="$out/$commit"
if [[ ! -f "$base/bench/e2e/run.sh" ]]; then
  rm -rf "$base"
  mkdir -p "$base"
  git -C "$root" archive "$commit" | tar -x -C "$base"
fi
seconds="${BENCH_PAIRS_SECONDS:-$(python3 -c \
  'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' \
  "$root/BENCHMARK.json")}"

# Build both sides before the first timed run.
"$base/bench/e2e/run.sh" --workload "$workload" --seconds 0.1 >/dev/null
"$root/bench/e2e/run.sh" --workload "$workload" --seconds 0.1 >/dev/null

raw="$out/$workload.jsonl"
: >"$raw"
run_side() {  # side dir seed
  local result
  result="$("$2/bench/e2e/run.sh" --workload "$workload" --seed "$3" \
    --seconds "$seconds" 2>/dev/null | tail -n 1)"
  echo "{\"side\": \"$1\", \"seed\": $3, \"result\": $result}" >>"$raw"
}
i=0
for seed in "$@"; do
  if ((i % 2 == 0)); then
    run_side base "$base" "$seed"
    run_side change "$root" "$seed"
  else
    run_side change "$root" "$seed"
    run_side base "$base" "$seed"
  fi
  echo "pair $((i + 1)) of $#: seed $seed done" >&2
  i=$((i + 1))
done

python3 - "$root/BENCHMARK.json" "$raw" "$ref" "$workload" "$seconds" <<'EOF'
import json, statistics, sys

spec = json.load(open(sys.argv[1]))
runs = [json.loads(line) for line in open(sys.argv[2])]
ref, workload, seconds = sys.argv[3:6]
by_seed = {}
for r in runs:
    by_seed.setdefault(r["seed"], {})[r["side"]] = r["result"]
bad = [(r["side"], r["seed"]) for r in runs
       if not r["result"].get("correct") or r["result"].get("failed")]
print(f"{workload}: {ref} (base) vs working tree (change), "
      f"{len(by_seed)} pairs of {seconds} s; incorrect or failing runs: "
      f"{bad if bad else 'none'}")

def quartiles(v):
    if len(v) < 2:
        return v[0], v[0], v[0]
    return tuple(statistics.quantiles(v, n=4, method="inclusive"))

print(f"{'metric':18} {'base q1/median/q3':>36} {'change q1/median/q3':>36}"
      f" {'median':>8} {'won':>7}")
for m in spec["end_to_end"]:
    name, higher = m["name"], m["better"] == "higher"
    pairs = [(p["base"]["metrics"][name]["value"],
              p["change"]["metrics"][name]["value"])
             for p in by_seed.values()
             if "base" in p and "change" in p
             and name in p["base"].get("metrics", {})]
    if not pairs:
        continue
    b = [x for x, _ in pairs]
    c = [y for _, y in pairs]
    won = sum((y > x) if higher else (y < x) for x, y in pairs)
    tied = sum(x == y for x, y in pairs)
    qb, qc = quartiles(b), quartiles(c)
    gap = (qc[1] - qb[1]) / qb[1] * 100 if qb[1] else 0.0
    fmt = lambda q: "/".join(f"{x:.4g}" for x in q)
    print(f"{name:18} {fmt(qb):>36} {fmt(qc):>36} {gap:+7.2f}%"
          f" {won:>3}/{len(pairs)}" + (f" ({tied} tied)" if tied else ""))
EOF
