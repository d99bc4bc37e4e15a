#!/usr/bin/env bash
# Runs every workload of BENCHMARK.json in round-robin passes, one process
# per run and a new seed per pass, and appends each result line, wrapped
# with its workload and seed, to the run file. Passes rather than back to
# back, so that minute-scale drift of the machine hits all workloads alike.
#
#   bash benchmark/all.sh <run-file> [passes=10] [first-seed=1] [trace=0]
#   bash benchmark/run.sh --compare <run-file> [<other-run-file>]
set -euo pipefail

out="${1:?usage: all.sh <run-file> [passes] [first-seed] [trace]}"
passes="${2:-10}"
seed0="${3:-1}"
trace="${4:-0}"
seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)
workloads=$(sed -n '/"workloads"/,/\]/s/.*"name": *"\([^"]*\)".*/\1/p' BENCHMARK.json)

for ((p = 0; p < passes; p++)); do
  seed=$((seed0 + p))
  for w in $workloads; do
    line=$(bash benchmark/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace" | tail -n 1)
    printf '{"workload":"%s","seed":%d,"result":%s}\n' "$w" "$seed" "$line" >>"$out"
    echo "pass $((p + 1))/$passes $w seed $seed done" >&2
  done
done
