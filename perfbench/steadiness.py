#!/usr/bin/env python3
"""Steadiness report for the CHARISMA benchmark.

    python3 perfbench/steadiness.py [--workloads a,b] [--seeds 1-10]
                                    [--sets 2] [--seconds 50] [--out runs.json]
    python3 perfbench/steadiness.py --from runs.json

Runs every workload BENCHMARK.json lists (or --workloads) once per seed,
interleaved (seed 1 of every workload, then seed 2, ...), as separate
`run.py --trace 0` processes, and repeats the whole pass --sets times.
--seconds defaults to BENCHMARK.json's run_seconds.  For each set, workload and end-to-end metric it
prints the median, the quartiles, (Q3 - Q1) / median and the sample count.
With two sets it then checks them against the bounds (benchlib.END_TO_END,
which the tests hold equal to BENCHMARK.json): every spread within its
bound, and no second-set median worse than the first by more than the
bound.  Exit code 0 only if all hold and every run was correct.  --out
saves every run with its progress log; --from re-reads a saved file.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import benchlib  # noqa: E402


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {"correct": False,
                                                  "metrics": {}}
    return {"workload": workload, "seed": seed, "exit": proc.returncode,
            "correct": result["correct"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "log": proc.stderr.splitlines()}


def report(runs):
    """Prints the per-set tables and the two-set comparison; True if the
    bounds hold."""
    ok = all(r["correct"] and r["exit"] == 0 for r in runs)
    for r in runs:
        if not (r["correct"] and r["exit"] == 0):
            print(f"INCORRECT: set {r['set']} {r['workload']} seed {r['seed']}")
    sets = sorted({r["set"] for r in runs})
    workloads = [w for w in benchlib.WORKLOADS
                 if any(r["workload"] == w for r in runs)]
    medians = {}
    for s in sets:
        print(f"== set {s}")
        print(f"{'workload':17} {'metric':12} {'median':>12} {'q1':>12} "
              f"{'q3':>12} {'iqr/med':>8} {'n':>3}")
        for w in workloads:
            for name, _unit, _better, bound in benchlib.END_TO_END:
                values = [r["metrics"][name] for r in runs
                          if r["set"] == s and r["workload"] == w
                          and name in r["metrics"]]
                if not values:
                    continue
                st = benchlib.spread(values)
                medians[(s, w, name)] = st["median"]
                flag = ""
                if st["iqr_over_median"] > bound:
                    flag = f"  > bound {bound}"
                    ok = False
                elif st["iqr_over_median"] > bound / 3:
                    flag = f"  > bound/3 ({bound / 3:.3f})"
                print(f"{w:17} {name:12} {st['median']:12.6g} "
                      f"{st['q1']:12.6g} {st['q3']:12.6g} "
                      f"{st['iqr_over_median']:8.4f} {st['n']:3d}{flag}")
    if len(sets) >= 2:
        first, second = sets[0], sets[1]
        print(f"== set {second} against set {first}: worse-by vs bound")
        for w in workloads:
            for name, _unit, better, bound in benchlib.END_TO_END:
                if (first, w, name) not in medians:
                    continue
                worse = benchlib.worse_by(medians[(first, w, name)],
                                          medians[(second, w, name)], better)
                verdict = "ok" if worse <= bound else "WORSE THAN BOUND"
                if worse > bound:
                    ok = False
                print(f"{w:17} {name:12} {worse:+8.4f} (bound {bound}) "
                      f"{verdict}")
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(benchlib.GATED))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--out")
    parser.add_argument("--from", dest="source")
    args = parser.parse_args()

    bench_json = os.path.join(HERE, "..", "BENCHMARK.json")
    seconds = args.seconds
    if seconds is None and os.path.exists(bench_json):
        with open(bench_json) as f:
            seconds = json.load(f)["run_seconds"]

    if args.source:
        with open(args.source) as f:
            runs = json.load(f)
    else:
        workloads = args.workloads.split(",")
        runs = []
        for s in range(1, args.sets + 1):
            for seed in parse_seeds(args.seeds):
                for w in workloads:
                    run = run_once(w, seed, seconds or 50)
                    run["set"] = s
                    runs.append(run)
                    print(f"set {s} seed {seed} {w}: "
                          + ", ".join(f"{k}={v:.6g}"
                                      for k, v in run["metrics"].items()),
                          file=sys.stderr, flush=True)
                    if args.out:
                        with open(args.out, "w") as f:
                            json.dump(runs, f, indent=1)
    return 0 if report(runs) else 1


if __name__ == "__main__":
    sys.exit(main())
