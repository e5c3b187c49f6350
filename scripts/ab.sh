#!/usr/bin/env bash
# ab.sh — the one speed gate: the benchmark of record (benchmark/run.sh, the
# command BENCHMARK.json names) on this tree against a base commit, as
# alternated pairs.
#
#   scripts/ab.sh <base-ref>        e.g. origin/main, HEAD~1, HEAD (this tree against itself)
#
# The base is checked out as a git worktree under .bench_build/base; each tree
# builds and runs its own benchmark/. Every workload of BENCHMARK.json runs on
# seeds 1-10, once per side, the side that goes first alternating seed by seed:
# the host drifts by more over an hour than most changes move a metric, so only
# the two adjacent runs of a pair compare. scripts/ab_reduce.jq turns the runs
# (.bench_build/ab/runs.jsonl) into the table on stdout and the verdict; it
# says what fails and which workloads gate. On failure each failing workload
# gets one --trace 1 pass per side and its per-layer metrics are printed side
# by side, so the failure names its layer. Exit 0 pass, 1 regression, 2 usage.
set -euo pipefail
if [ $# -ne 1 ]; then
  echo "usage: scripts/ab.sh <base-ref>" >&2
  exit 2
fi
cd "$(dirname "$0")/.."
head=$PWD base=$PWD/.bench_build/base out=$PWD/.bench_build/ab
seconds=$(jq .run_seconds BENCHMARK.json)
mapfile -t workloads < <(jq -r '.workloads[].name' BENCHMARK.json)

rm -rf "$out"
mkdir -p "$out"
git worktree remove --force "$base" 2>/dev/null || git worktree prune # left by an interrupted run
git worktree add --detach "$base" "$1" >&2
trap 'git worktree remove --force "$base"' EXIT

# run <side> <workload> <seed> <trace>: one benchmark run's final JSON line,
# tagged with what it was; what the run printed stays in last-run.txt.
run() {
  local tree=$head
  [ "$1" = base ] && tree=$base
  bash "$tree/benchmark/run.sh" --workload "$2" --seed "$3" --seconds "$seconds" --trace "$4" >"$out/last-run.txt"
  tail -n 1 "$out/last-run.txt" |
    jq -c --arg side "$1" --arg workload "$2" --argjson seed "$3" '{side: $side, workload: $workload, seed: $seed} + .'
}

for seed in 1 2 3 4 5 6 7 8 9 10; do
  order="base head"
  [ $((seed % 2)) = 0 ] && order="head base"
  for w in "${workloads[@]}"; do
    for side in $order; do
      echo "ab: seed $seed $w $side" >&2
      run "$side" "$w" "$seed" 0 >>"$out/runs.jsonl"
    done
  done
done

echo "base $(git rev-parse --short "$1")  head $(git rev-parse --short HEAD)$(git diff --quiet HEAD || echo ' + uncommitted changes')"
grep -m1 '^host ' "$out/last-run.txt"
status=0
jq -s -r --slurpfile spec BENCHMARK.json -f scripts/ab_reduce.jq "$out/runs.jsonl" 2>"$out/failed.txt" || status=$?
cat "$out/failed.txt" >&2
[ "$status" -eq 1 ] || exit "$status" # 0: passed; anything but 1: the reducer itself broke

# Name the layer: one traced pass per side of every failing workload.
for w in $(sed 's/^FAIL: //; s/, /\n/g' "$out/failed.txt" | cut -d' ' -f1 | sort -u); do
  run base "$w" 1 1 >"$out/traced-base.json"
  run head "$w" 1 1 >"$out/traced-head.json"
  echo
  echo "$w, per layer (--trace 1, seed 1): metric, base, head, diff"
  jq -n -r --slurpfile spec BENCHMARK.json --slurpfile b "$out/traced-base.json" --slurpfile h "$out/traced-head.json" '
    $spec[0].per_layer[].name as $n | ($b[0].metrics[$n].value // 0) as $x | ($h[0].metrics[$n].value // 0) as $y
    | select($x != 0 or $y != 0)
    | "\($n) \($x) \($y) \(if $x != 0 then "\(if $y > $x then "+" else "" end)\((($y - $x) / $x * 1000 | round) / 10)%" else "n/a" end)"' |
    awk '{ printf "  %-30s %14.6g %14.6g %9s\n", $1, $2, $3, $4 }'
done
exit 1
