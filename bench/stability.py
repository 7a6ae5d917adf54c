"""Run the benchmark once per seed and report each metric's spread.

    python3 bench/stability.py --runs 10 --seconds 20 --trace 0 \
        --workload test-large --out bench/results/some-name.json

For every workload and metric it prints the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread (q3 - q1) / median,
and it marks an end-to-end metric whose spread exceeds a third of its
bound in BENCHMARK.json. Seeds run from ``--first-seed`` upward, one fresh
``run.py`` process per run. ``--out`` writes every value with the
environment of the runs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import run as bench_run  # noqa: E402


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / abs(med) if med else float("inf")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append", choices=bench_run.WORKLOADS)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=None, help="default: run_seconds in BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out")
    args = p.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    workloads = args.workload or list(bench_run.WORKLOADS)

    values = {w: {} for w in workloads}
    run_walls = {w: [] for w in workloads}
    env_line = None
    failures = 0
    for w in workloads:
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", w,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            run_walls[w].append(time.perf_counter() - t0)
            lines = proc.stdout.strip().splitlines()
            env_line = next((l for l in lines if l.startswith("env: ")), env_line)
            result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
            if proc.returncode != 0 or result is None or not result["correct"]:
                failures += 1
                print(f"{w} seed={seed}: FAILED (exit {proc.returncode})", flush=True)
                continue
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print(f"{w} seed={seed}: {run_walls[w][-1]:.1f} s wall, "
                  + ", ".join(f"{k}={m['value']:.5g}" for k, m in result["metrics"].items()
                              if k in bounds or args.trace), flush=True)

    summary = {}
    for w in workloads:
        print(f"\n{w}: {len(run_walls[w])} runs, longest {max(run_walls[w]):.1f} s")
        print(f"  {'metric':<28} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}  bound")
        summary[w] = {}
        for name, vals in values[w].items():
            if len(vals) < 2 or any(v is None for v in vals):
                continue
            med, q1, q3, sp = spread(vals)
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and sp > bound / 3:
                flag = "  <-- above bound/3"
            print(f"  {name:<28} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {sp:>8.4f}  {bound}{flag}")
            summary[w][name] = {"median": med, "q1": q1, "q3": q3, "spread": sp, "values": vals}
    print(env_line or "env: unknown")

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({
                "env": env_line, "seconds": seconds, "trace": args.trace,
                "seeds": [args.first_seed, args.first_seed + args.runs - 1],
                "run_walls_s": run_walls, "metrics": summary,
            }, fh, indent=1)
            fh.write("\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
