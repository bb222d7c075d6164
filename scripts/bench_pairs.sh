#!/bin/sh
# Is a change faster than its parent? Runs the BENCHMARK.json command in
# two checkouts alternately, N pairs of full runs of one workload, the
# parent first on odd pairs and the change first on even ones, each run
# from its own checkout root. Then prints, per end-to-end metric: each
# side's median and quartiles, how many pairs the change won, and a
# verdict: "gain holds" when the change wins at least 9 in 10 pairs and
# its median beats the parent's by more than the parent's interquartile
# range; otherwise "worse than bound" when the change's median is worse
# by more than the metric's bound in BENCHMARK.json, "unresolved" when
# either side's interquartile range exceeds the bound, and "within
# bound" else. Every run is listed as well.
#
#   scripts/bench_pairs.sh PARENT_DIR CHANGE_DIR WORKLOAD PAIRS FIRST_SEED [SEED_STEP]
#
# Pair i runs seed FIRST_SEED + (i-1) * SEED_STEP (step 0 repeats one
# seed; default 1). Results go to .bench_out/pairs/ under the current
# directory. Needs python3; exits non-zero if any run fails an output
# check.
set -u
[ $# -ge 5 ] || { sed -n '2,19p' "$0" >&2; exit 2; }
parent=$(cd "$1" && pwd) || exit 2
change=$(cd "$2" && pwd) || exit 2
workload=$3
pairs=$4
first=$5
step=${6:-1}
out=.bench_out/pairs
mkdir -p "$out"
log="$out/$workload-seed$first-step$step.jsonl"
: > "$log"

run() { # side dir seed pair
  cmd=$(cd "$2" && python3 -c 'import json; print(" ".join(json.load(open("BENCHMARK.json"))["command"]))')
  seconds=$(cd "$2" && python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
  echo "bench_pairs: pair $4 $1 $workload seed $3" >&2
  line=$(cd "$2" && $cmd --workload "$workload" --seed "$3" --seconds "$seconds" --trace 0 | tail -n 1)
  echo "{\"side\": \"$1\", \"pair\": $4, \"seed\": $3, \"result\": ${line:-null}}" >> "$log"
}

i=1
while [ "$i" -le "$pairs" ]; do
  seed=$((first + (i - 1) * step))
  if [ $((i % 2)) -eq 1 ]; then
    run parent "$parent" "$seed" "$i"
    run change "$change" "$seed" "$i"
  else
    run change "$change" "$seed" "$i"
    run parent "$parent" "$seed" "$i"
  fi
  i=$((i + 1))
done

python3 - "$log" "$change/BENCHMARK.json" <<'EOF'
import json, statistics, sys

runs = [json.loads(l) for l in open(sys.argv[1])]
spec = json.load(open(sys.argv[2]))

def ok(r):
    return r["result"] and r["result"]["correct"] and not r["result"]["failed"]

failed = [r for r in runs if not ok(r)]
print("| pair | seed | side | " + " | ".join(m["name"] for m in spec["end_to_end"]) + " |")
print("|---:|---:|---|" + "---:|" * len(spec["end_to_end"]))
for r in runs:
    vals = [f"{r['result']['metrics'][m['name']]['value']:.4g}" if ok(r) else "FAILED"
            for m in spec["end_to_end"]]
    print(f"| {r['pair']} | {r['seed']} | {r['side']} | " + " | ".join(vals) + " |")
print()

def quartiles(v):
    if len(v) < 2:
        return v[0], v[0], v[0]
    q1, q2, q3 = statistics.quantiles(v, n=4)
    return q1, statistics.median(v), q3

print("| metric | parent median [q1, q3] | change median [q1, q3] | change/parent | wins | verdict |")
print("|---|---:|---:|---:|---:|---|")
n_pairs = max((r["pair"] for r in runs), default=0)
for m in spec["end_to_end"]:
    name, lower = m["name"], m["better"] == "lower"
    side = {s: {r["pair"]: r["result"]["metrics"][name]["value"]
                for r in runs if r["side"] == s and ok(r)} for s in ("parent", "change")}
    both = [p for p in range(1, n_pairs + 1) if p in side["parent"] and p in side["change"]]
    if not both:
        print(f"| {name} | | | | | no complete pair |")
        continue
    pq = quartiles([side["parent"][p] for p in both])
    cq = quartiles([side["change"][p] for p in both])
    wins = sum((side["change"][p] < side["parent"][p]) if lower else
               (side["change"][p] > side["parent"][p]) for p in both)
    gain = (pq[1] - cq[1]) if lower else (cq[1] - pq[1])
    spread = max((q[2] - q[0]) / q[1] for q in (pq, cq) if q[1])
    if wins * 10 >= 9 * len(both) and gain > pq[2] - pq[0]:
        verdict = "gain holds"
    elif pq[1] and -gain / pq[1] > m["bound"]:
        verdict = "worse than bound"
    elif spread > m["bound"]:
        verdict = "unresolved"
    else:
        verdict = "within bound"
    ratio = cq[1] / pq[1] if pq[1] else float("nan")
    print(f"| {name} | {pq[1]:.4g} [{pq[0]:.4g}, {pq[2]:.4g}] | {cq[1]:.4g} [{cq[0]:.4g}, {cq[2]:.4g}] "
          f"| {ratio:.4f} | {wins}/{len(both)} | {verdict} |")
print()
print(f"bench_pairs: {len(runs)} runs, {len(failed)} failed an output check")
sys.exit(1 if failed else 0)
EOF
