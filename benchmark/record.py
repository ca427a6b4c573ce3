#!/usr/bin/env python3
"""Run the benchmark repeatedly and record per-run values and their spread.

    python3 benchmark/record.py <rev>

writes benchmark/results/<rev>.json. There are two sets of ten seeds (set k
uses seeds 10k+1 ... 10k+10); each seed runs every workload once with
`--trace 0`, workloads interleaved so that slow phases of the machine hit all
of them, and each set adds two `--trace 1` runs per workload. For every
end-to-end metric the record holds the values, their median and quartiles
(statistics.quantiles, n=4) and the spread (q3 - q1) / median, then compares
each metric's largest spread and the second set's median change against the
metric's bound in BENCHMARK.json. Each untraced run also keeps the median
over its rounds of the share of the machine's CPU that other guests took
(steal, from the run's build-bench/bench-result.json), which tells a noisy
run from a regression. Run from the repository root; it calls
benchmark/run.sh.
"""
import json
import os
import statistics
import subprocess
import sys
import time

SETS = 2
RUNS = 10
TRACED_RUNS = 2


def run_once(workload, seed, trace):
    cmd = ["bash", "benchmark/run.sh", "--workload", workload, "--seed",
           str(seed), "--trace", str(trace)]
    started = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, check=False)
    wall = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    ok = proc.returncode == 0 and result is not None and result["correct"]
    if not ok:
        sys.stderr.write(proc.stderr[-2000:])
    return result, ok, wall


def host_steal_pct(workload):
    with open(os.path.join("build-bench", "bench-result.json")) as f:
        info = json.load(f)["workloads"][workload]["info"]
    return statistics.median(info["round_host_steal_pct"])


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med}


def compare(sets, e2e):
    """Per workload and end-to-end metric: the larger of the sets' spreads
    and the later sets' worst median change against the first set, each
    against the metric's bound."""
    comparison = {}
    first = sets[0]["workloads"]
    for w in first:
        comparison[w] = {}
        for m, mdef in e2e.items():
            if not all(m in s["workloads"][w] for s in sets):
                continue
            base = first[w][m]["median"]
            worse = []
            for s in sets[1:]:
                change = (s["workloads"][w][m]["median"] - base) / base
                worse.append(change if mdef["better"] == "lower" else -change)
            spread = max(s["workloads"][w][m]["spread"] for s in sets)
            comparison[w][m] = {
                "bound": mdef["bound"],
                "max_spread": spread,
                "spread_within_bound": spread <= mdef["bound"],
                "spread_below_third_of_bound": spread < mdef["bound"] / 3,
                "worst_median_change": max(worse),
                "median_within_bound": max(worse) <= mdef["bound"]}
    return comparison


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    rev = sys.argv[1]
    spec = json.load(open("BENCHMARK.json"))
    workloads = [w["name"] for w in spec["workloads"]]
    e2e = {m["name"]: m for m in spec["end_to_end"]}

    record = {"schema": "ewc-benchmark-record/v2", "rev": rev,
              "seconds": spec["run_seconds"], "runs_per_set": RUNS,
              "nproc": os.cpu_count(), "sets": [], "traced": {},
              "failed_runs": []}
    walls = {0: [], 1: []}
    traced = {w: {} for w in workloads}
    for k in range(SETS):
        values = {w: {m: [] for m in e2e} for w in workloads}
        steal = {w: [] for w in workloads}
        seeds = list(range(k * RUNS + 1, (k + 1) * RUNS + 1))
        for seed in seeds:
            for w in workloads:
                result, ok, wall = run_once(w, seed, 0)
                walls[0].append(wall)
                if not ok:
                    record["failed_runs"].append({"workload": w, "seed": seed})
                    continue
                for m in e2e:
                    values[w][m].append(result["metrics"][m]["value"])
                steal[w].append(host_steal_pct(w))
                print(f"set {k} seed {seed} {w}: {wall:.1f} s", flush=True)
        for seed in seeds[:TRACED_RUNS]:
            for w in workloads:
                result, ok, wall = run_once(w, seed, 1)
                walls[1].append(wall)
                if not ok:
                    record["failed_runs"].append(
                        {"workload": w, "seed": seed, "trace": 1})
                    continue
                for m, v in result["metrics"].items():
                    traced[w].setdefault(m, []).append(v["value"])
                print(f"set {k} seed {seed} {w} traced: {wall:.1f} s",
                      flush=True)
        record["sets"].append({
            "seeds": seeds,
            "host_steal_pct": steal,
            "workloads": {w: {m: summarize(v) for m, v in ms.items()
                              if len(v) >= 2}
                          for w, ms in values.items()}})

    record["traced"] = {w: {m: {"values": v, "median": statistics.median(v)}
                            for m, v in ms.items()}
                        for w, ms in traced.items()}
    comparison = compare(record["sets"], e2e)
    record["comparison"] = comparison
    record["mean_run_wall_s"] = {
        f"trace{t}": statistics.mean(v) for t, v in walls.items() if v}
    out = os.path.join("benchmark", "results", rev + ".json")
    with open(out, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
        f.write("\n")

    for w, ms in comparison.items():
        for m, c in ms.items():
            print(f"{w:11s} {m:15s} spread {c['max_spread']:.4f} "
                  f"median change {c['worst_median_change']:+.4f} "
                  f"bound {c['bound']}")
    wide = [(w, m) for w, ms in comparison.items() for m, c in ms.items()
            if not c["spread_within_bound"]]
    moved = [(w, m) for w, ms in comparison.items() for m, c in ms.items()
             if not c["median_within_bound"]]
    print("spread above bound (unresolved):", wide or "none")
    print("median change above bound:", moved or "none")
    print("failed runs:", record["failed_runs"] or "none")
    return 1 if wide or moved or record["failed_runs"] else 0


if __name__ == "__main__":
    sys.exit(main())
