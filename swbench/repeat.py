#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each end-to-end
metric's median, quartiles and spread (interquartile distance as a share of
the median), as `statistics.quantiles(values, n=4)` gives them.

    python3 swbench/repeat.py [--workloads a,b] [--seeds 1-10] [--trace 0|1]
                              [--out results.json]

`--out` writes the per-metric summary and every run's JSON line.

Run from the root of the repository. The command and run length come from
BENCHMARK.json.
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds_of(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--out")
    args = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    results = {}
    ok = True
    summary = {}
    for name in args.workloads.split(","):
        runs = []
        for seed in seeds_of(args.seeds):
            cmd = bench["command"] + ["--workload", name, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", args.trace]
            p = subprocess.run(cmd, capture_output=True, text=True)
            last = p.stdout.strip().splitlines()[-1] if p.stdout.strip() else "{}"
            result = json.loads(last)
            if p.returncode != 0 or not result.get("correct"):
                ok = False
                print(f"{name} seed {seed}: exit {p.returncode}\n{p.stderr}", file=sys.stderr)
            runs.append({"seed": seed, **result})
        results[name] = runs
        print(f"# {name} ({len(runs)} runs)")
        metrics = runs[0].get("metrics", {})
        summary[name] = {}
        for metric in metrics:
            values = [r["metrics"][metric]["value"] for r in runs if metric in r.get("metrics", {})]
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else float("nan")
            summary[name][metric] = {"unit": metrics[metric]["unit"], "median": med, "q1": q1,
                                     "q3": q3, "spread": spread}
            bound = bounds.get(metric)
            flag = ""
            if bound is not None and metric != "setup_s" and spread > bound / 3:
                flag = "  <-- above a third of the bound"
            print(f"{metric:32s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.4f}"
                  f"{'' if bound is None else f'  bound {bound}'}{flag}")
    if args.out:
        json.dump({"summary": summary, "runs": results}, open(args.out, "w"), indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
