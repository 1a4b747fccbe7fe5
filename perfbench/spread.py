#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each end-to-end
metric's quartile spread, the way the acceptance check computes it.

    python3 perfbench/spread.py --workloads campaign,serve --seeds 1-5
    python3 perfbench/spread.py --seeds 1,2          # every workload, two seeds

Run from the repository root. For each workload and metric it prints the
median, the spread (Q3 - Q1) / median from statistics.quantiles(n=4), and
the metric's bound from BENCHMARK.json. It exits non-zero when a run fails,
reports "correct": false, or prints a metric set that differs from
BENCHMARK.json. Raw result lines are kept under .bench_build/spread/.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    workloads = [w for w in args.workloads.split(",") if w] or [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"] if args.trace == "0" else spec["per_layer"]
    names = {m["name"] for m in metrics}
    out_dir = os.path.join(".bench_build", "spread")
    os.makedirs(out_dir, exist_ok=True)

    ok = True
    for w in workloads:
        values = {m["name"]: [] for m in metrics}
        for seed in parse_seeds(args.seeds):
            cmd = spec["command"] + ["--workload", w, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", args.trace]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{w} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                ok = False
                continue
            with open(os.path.join(out_dir, f"{w}-seed{seed}-trace{args.trace}.json"), "w") as f:
                f.write(proc.stdout)
            res = json.loads(lines[-1])
            if set(res["metrics"]) != names:
                print(f"{w} seed {seed}: metric set differs: {sorted(set(res['metrics']) ^ names)}")
                ok = False
            if not res["correct"] or res["failed"] != 0:
                print(f"{w} seed {seed}: correct={res['correct']} failed={res['failed']}\n{proc.stderr[-2000:]}")
                ok = False
            for name, v in res["metrics"].items():
                if name in values:
                    values[name].append(v["value"])
            print(f"{w} seed {seed}: " + " ".join(f"{k}={v['value']:.4g}" for k, v in sorted(res["metrics"].items())
                                                 if args.trace == "0"), flush=True)
        if args.trace != "0":
            continue
        for m in metrics:
            xs = values[m["name"]]
            if len(xs) < 2:
                continue
            q = statistics.quantiles(xs, n=4)
            med = statistics.median(xs)
            spread = (q[2] - q[0]) / med if med else float("inf")
            flag = "ok" if spread <= m["bound"] / 3 else ("WITHIN BOUND" if spread <= m["bound"] else "OVER BOUND")
            print(f"  {w:10s} {m['name']:18s} median {med:12.5g}  spread {spread:7.4f}  bound {m['bound']:.2f}  {flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
