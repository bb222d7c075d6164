#!/bin/bash
# Does the benchmark repeat? Runs two interleaved sets of full runs of the
# SAME build on the SAME seeds 1..N (A1 B1 A2 B2 ... per workload, so both
# sets get the same inputs and the same stretch of the host's time) and
# prints, per workload x end-to-end metric: both medians, the size of
# their relative gap, each set's interquartile spread as a share of its
# median, and the bound from BENCHMARK.json. Exits non-zero when a gap, in
# either direction, or (except for setup_s) a spread breaches the bound, or
# when any run fails an output check.
#
#   benchmark/selftest.sh [runs-per-set, default 5] [--quick]
#
# Run it from the root of the checkout. It needs python3 for the
# statistics, nothing else beyond what the benchmark itself needs.
set -u
cd "$(dirname "$0")/.." || exit 2
runs=${1:-5}
quick=""
[ "${2:-}" = "--quick" ] && quick="--quick"
out=.bench_out/selftest
mkdir -p "$out"
: > "$out/runs.jsonl"

cmd=$(python3 -c 'import json; print(" ".join(json.load(open("BENCHMARK.json"))["command"]))')
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')

for i in $(seq 1 "$runs"); do
  for w in $workloads; do
    for set in A B; do
      seed=$i
      echo "selftest: set $set run $i/$runs $w seed $seed" >&2
      line=$($cmd --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 $quick | tail -n 1)
      echo "{\"set\": \"$set\", \"workload\": \"$w\", \"seed\": $seed, \"result\": ${line:-null}}" >> "$out/runs.jsonl"
    done
  done
done

python3 - "$out/runs.jsonl" <<'EOF'
import json, statistics, sys

spec = json.load(open("BENCHMARK.json"))
runs = [json.loads(l) for l in open(sys.argv[1])]
breaches = 0

def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)

print("| workload | metric | median A | median B | gap | IQR/median A | IQR/median B | bound |")
print("|---|---|---:|---:|---:|---:|---:|---:|")
for w in spec["workloads"]:
    mine = [r for r in runs if r["workload"] == w["name"]]
    bad = [r for r in mine if not r["result"] or not r["result"]["correct"] or r["result"]["failed"]]
    if bad:
        breaches += len(bad)
        print(f"| {w['name']} | **{len(bad)} run(s) failed an output check** | | | | | | |")
    for m in spec["end_to_end"]:
        sets = {}
        for s in "AB":
            sets[s] = [r["result"]["metrics"][m["name"]]["value"] for r in mine
                       if r["set"] == s and r["result"] and m["name"] in r["result"]["metrics"]]
        if min(len(v) for v in sets.values()) < 2:
            breaches += 1
            print(f"| {w['name']} | {m['name']} | missing | | | | | |")
            continue
        med = {s: statistics.median(v) for s, v in sets.items()}
        gap = abs(med["B"] - med["A"]) / med["A"]
        spreads = {s: spread(v) for s, v in sets.items()}
        ok = gap <= m["bound"] and (m["name"] == "setup_s" or max(spreads.values()) <= m["bound"])
        breaches += not ok
        print(f"| {w['name']} | {m['name']} | {med['A']:.4g} | {med['B']:.4g} | {gap:.1%} | "
              f"{spreads['A']:.1%} | {spreads['B']:.1%} | {m['bound']:.0%}{'' if ok else ' **BREACH**'} |")
print()
print(f"selftest: {breaches} breach(es)")
sys.exit(1 if breaches else 0)
EOF
