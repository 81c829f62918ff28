#!/usr/bin/env bash
# Run every workload K times, untraced and for run_seconds of
# BENCHMARK.json, one seed per round and the workloads alternating
# within a round.  Then print each metric's median, first and third
# quartile and the spread (Q3 - Q1) / median.  The quartiles are
# Python's statistics.quantiles(values, n=4).  Run from the repository
# root:
#
#   bash benchmark/spread.sh [-k K] [-f FIRST_SEED] [WORKLOAD...]
#
# K defaults to 5, the first seed to 1, and the workloads to all of
# them.  Each run's JSON line is kept under .lispbench/spread/, its
# progress lines in .lispbench/spread/log.
set -eu
k=5 first=1
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
while getopts "k:f:" opt; do
  case $opt in
    k) k=$OPTARG ;;
    f) first=$OPTARG ;;
    *) exit 2 ;;
  esac
done
shift $((OPTIND - 1))
if [ $# -gt 0 ]; then
  workloads="$*"
else
  workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
fi
out=.lispbench/spread
mkdir -p "$out"
results="$out/results-$first-$k.jsonl"
: > "$results"
for seed in $(seq "$first" $((first + k - 1))); do
  for w in $workloads; do
    line=$(bash benchmark/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" \
      --trace 0 2>>"$out/log" | tail -n 1)
    echo "{\"workload\": \"$w\", \"seed\": $seed, \"result\": $line}" >> "$results"
    echo "$w seed $seed done" >&2
  done
done
python3 - "$results" <<'EOF'
import json, statistics, sys
runs = {}
for line in open(sys.argv[1]):
    r = json.loads(line)
    runs.setdefault(r["workload"], []).append(r["result"])
for w, results in runs.items():
    bad = [r for r in results if not r["correct"] or r["failed"]]
    print(f"{w}: {len(results)} runs, {len(bad)} incorrect or with failed flows")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        unit = results[0]["metrics"][name]["unit"]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        print(f"  {name:32s} {med:14.6g} {unit:9s} q1 {q1:12.6g}  q3 {q3:12.6g}  spread {spread:7.2%}")
EOF
