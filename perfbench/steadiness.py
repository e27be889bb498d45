#!/usr/bin/env python3
"""Steadiness check of the benchmark: two sets of runs in ABAB order.

Runs every workload of BENCHMARK.json `--runs` times per set, two sets
(A and B) of the same code, alternating which set runs first in each round,
and reports for each end-to-end metric each set's median, quartiles and
spread (Q3 - Q1 as a share of the median, from statistics.quantiles(n=4)),
the per-run steal, and whether the second median stays within the metric's
bound of the first.

    python3 perfbench/steadiness.py --runs 10 > perfbench/STEADINESS.md

Run it from the root of the repository.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(args, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {out.returncode}:\n"
                 f"{out.stdout[-2000:]}\n{out.stderr[-2000:]}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    summary = re.search(r"^# timed slices kept (\d+) repeated (\d+) steal_ms (\d+) "
                        r"calib_us ([\d.]+)", out.stdout, re.M)
    kept, repeated, steal_ms = (int(g) for g in summary.groups()[:3])
    return result, kept, repeated, steal_ms, float(summary.group(4))


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="*")
    args = parser.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    runs = {(s, w): [] for s in "AB" for w in workloads}
    for i in range(args.runs):
        for s in ("AB" if i % 2 == 0 else "BA"):
            for w in workloads:
                run = run_once(bench["command"], w, args.seed + i,
                               bench["run_seconds"])
                runs[(s, w)].append(run)
                values = " ".join(
                    f"{m['name']}={run[0]['metrics'][m['name']]['value']:.6g}"
                    for m in metrics)
                print(f"<!-- round {i} set {s} {w} seed {args.seed + i} "
                      f"steal_ms {run[3]} repeated_slices {run[2]} "
                      f"calib_us {run[4]} {values} -->", flush=True)
    ok = True
    for w in workloads:
        print(f"\n## {w}\n")
        for s in "AB":
            steals = [r[3] for r in runs[(s, w)]]
            repeats = [r[2] for r in runs[(s, w)]]
            calib = [r[4] for r in runs[(s, w)]]
            print(f"- set {s}: per-run steal_ms {steals}, "
                  f"repeated slices {repeats}, calibration loop us {calib}")
        print("\n| metric | bound | A median | A Q1..Q3 | A spread | "
              "B median | B Q1..Q3 | B spread | B vs A | verdict |")
        print("|---|---|---|---|---|---|---|---|---|---|")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            cols, meds, spreads = [], [], []
            for s in "AB":
                values = [r[0]["metrics"][name]["value"] for r in runs[(s, w)]]
                med, q1, q3, sp = spread(values)
                meds.append(med)
                spreads.append(sp)
                cols += [f"{med:.6g}", f"{q1:.6g}..{q3:.6g}", f"{sp:.4f}"]
            change = (meds[1] - meds[0]) / meds[0]
            worse = change if m["better"] == "lower" else -change
            verdict = "ok"
            if name != "setup_s" and max(spreads) > bound:
                verdict = "SPREAD>BOUND"
            elif worse > bound:
                verdict = "SHIFT>BOUND"
            elif name != "setup_s" and max(spreads) > bound / 3:
                verdict = "ok (spread>bound/3)"
            ok &= not verdict.startswith(("SPREAD", "SHIFT"))
            print(f"| {name} | {bound} | " + " | ".join(cols) +
                  f" | {change:+.4f} | {verdict} |")
    print(f"\nverdict: {'steady' if ok else 'NOT steady'}")


if __name__ == "__main__":
    main()
