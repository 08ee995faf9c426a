#!/usr/bin/env python3
"""Steadiness check: runs every workload repeatedly, each time with
another seed, and prints each metric's median, quartiles and spread
(the distance between the quartiles as a share of the median, as
statistics.quantiles(values, n=4) gives them), next to each run's
host core count, seed and CPU steal time.

Run from the repository root:

    python3 pjbench/steady.py [--runs 10] [--trace 0|1]

It runs the command named in BENCHMARK.json for run_seconds on every
workload, with seeds 1 to --runs, so it measures exactly what a
benchmark run measures. A spread above a third of a metric's bound is
flagged with '!', above the bound with '!!'; metrics that read 0 in
every run, layers the workload does not run, are left out. With
--trace 1 it exits with status 1 if in any run the program calls, the
output check and the release of outputs account for less than
ACCOUNTED of the rounds' wall time.
"""

import argparse
import json
import statistics
import subprocess
import sys

ACCOUNTED = 0.9


def run_once(command, workload, seed, seconds, trace):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    host = {}
    for line in lines[:-1]:
        if line.startswith('{"host"'):
            host = json.loads(line)["host"]
    return host, json.loads(lines[-1])


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = p.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    short = []
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    for w in workloads:
        values = {}
        print(f"== {w} ({a.runs} runs of {seconds} s, trace {a.trace})")
        for i in range(a.runs):
            seed = 1 + i
            host, res = run_once(bench["command"], w, seed, seconds, a.trace)
            if not res["correct"]:
                raise SystemExit(f"{w} seed {seed}: outputs are not correct")
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"  seed {seed}: cores {host.get('cores')} steal {host.get('steal_ms')} ms "
                  f"rounds {host.get('rounds')} attempted {res['attempted']} failed {res['failed']}",
                  flush=True)
            share = res["metrics"].get("trace.accounted_share")
            if share is not None and share["value"] < ACCOUNTED:
                short.append(f"{w} seed {seed}: {share['value']:.3f}")
        for name, vs in values.items():
            if not any(vs):
                continue  # a layer this workload does not run
            med = statistics.median(vs)
            if len(vs) >= 2:
                q1, _, q3 = statistics.quantiles(vs, n=4)
            else:
                q1 = q3 = vs[0]
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            flag = ""
            if bound:
                flag = " !!" if spread > bound else (" !" if spread > bound / 3 else "")
            print(f"  {name:34s} median {med:<14.6g} q1 {q1:<14.6g} q3 {q3:<14.6g} "
                  f"spread {spread:.4f}{'' if bound is None else f' bound {bound}'}{flag}")
    if short:
        raise SystemExit("program calls and checks account for less than "
                         f"{ACCOUNTED} of wall time: " + "; ".join(short))


if __name__ == "__main__":
    main()
