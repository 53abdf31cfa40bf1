#!/usr/bin/env bash
# Do two sets of runs of the same code agree within the benchmark's own
# bounds?  Runs every workload RUNS times into set A and RUNS times into set
# B, alternating A and B so that machine drift hits both alike, each run on a
# seed of its own, then prints `compare A B` and fails if any workload x
# metric pair is `worse`.
#
#   bash benchmark/agree.sh            # 5 runs a set, ~20 min on 2 vCPUs
#   RUNS=10 bash benchmark/agree.sh
#
# Run from the repository root.  Results go to benchmark/out/agree/{A,B}.
set -euo pipefail

runs=${RUNS:-5}
seconds=24   # BENCHMARK.json's run_seconds
out=benchmark/out/agree
[ "$runs" -ge 5 ] || { echo "agree.sh: a set needs at least 5 runs" >&2; exit 2; }

rm -rf "$out"
for i in $(seq 1 "$runs"); do
  for workload in read_mostly update_heavy scan_vs_update durable_writes; do
    # Alternate which set goes first.
    if [ $((i % 2)) -eq 1 ]; then order="A B"; else order="B A"; fi
    for set in $order; do
      if [ "$set" = A ]; then seed=$((1000 + i)); else seed=$((2000 + i)); fi
      echo "agree.sh: run $i/$runs of $workload into set $set (seed $seed)" >&2
      bash benchmark/run.sh --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace 0 --out "$out/$set" >/dev/null
    done
  done
done
bash benchmark/run.sh compare "$out/A" "$out/B"
