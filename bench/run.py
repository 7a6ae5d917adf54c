"""gammadep benchmark: end-to-end metrics, or per-layer metrics from a traced run.

    python3 bench/run.py --workload test-large --seed 3 --seconds 20 --trace 0

Run it from anywhere; it benchmarks the gammadep sources in ``src/`` next
to this directory. Each workload runs in its own fresh interpreter
(workload.py) with the BLAS thread pools pinned to one thread. With
``--workload all`` the three workloads run one after another.

``--trace 0`` reports the end-to-end metrics, measured with tracing off.
``--trace 1`` reports the per-layer metrics from a traced run. Layer-time
metrics that are zero on workloads which never reach their layer are
printed as extras but left out of the JSON line, which carries exactly the
declared metrics. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics. The exit code is 0 only
when every call's output passed its checks; it is 2, with no JSON line,
when ``src/gammadep`` is missing.

Every result is also appended, with the Python, numpy and BLAS versions,
the CPU count and the git commit, to ``bench/out/runs.jsonl``.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("simulate-null", "test-large", "cli-ghsic-wide")

END_TO_END = {
    "call_s": "s",
    "perms_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER = {
    "kernels.matrices_s": "s",
    "kernels.distance_passes": "count",
    "kernels.peak_nxn": "nxn",
    "ustat.core_setup_s": "s",
    "ustat.core_peak_nxn": "nxn",
    "ustat.triple_calls": "count",
    "ustat.triple_us": "us",
    "ustat.gather_gbps_computed": "GB/s",
    "variance.jackknife_s": "s",
    "variance.jackknife_peak_nxn": "nxn",
    "inference.perm_draw_us": "us",
    "inference.self_s": "s",
    "inference.peak_nxn": "nxn",
    "metric.calls": "count",
    "metric.s": "s",
    "parallel.busy_ratio": "ratio",
    "trace.overhead": "ratio",
    "trace.coverage": "ratio",
}
# Zero on the workloads that never reach the layer, so printed only.
EXTRA_LAYER = {
    "kernels.bandwidth_s": "s",
    "simgen.self_s": "s",
    "cli.read_csv_s": "s",
    "cli.report_s": "s",
    "cli.self_s": "s",
}
SETUP_SHOTS = 11
CHILD_TIMEOUT_S = 170


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("GAMMADEP_THREADS", None)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def measure_setup(shots: int):
    """Median wall seconds of a fresh interpreter importing gammadep.cli and
    building its parser, or None if one failed. The first shot, which may
    compile bytecode, is not counted."""
    cmd = [sys.executable, "-c", "import gammadep.cli as c; c.build_parser()"]
    times = []
    for i in range(shots + 1):
        t0 = time.perf_counter()
        # No timeout: with one, wait() polls in steps of up to 50 ms.
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env())
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            return None
        if i:
            times.append(wall)
    return statistics.median(times)


def git_commit():
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def run_workload(name: str, args) -> dict:
    """Run one workload in a fresh interpreter; returns its raw result,
    with ``crashed`` set when the process gave none."""
    cmd = [
        sys.executable, os.path.join(BENCH_DIR, "workload.py"),
        "--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--reference-dir", args.reference_dir,
    ]
    if args.smoke:
        cmd.append("--smoke")
    if args.write_reference:
        cmd.append("--write-reference")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"{name}: no result within {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return {"crashed": True}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{name}: workload process exited with {proc.returncode}", file=sys.stderr)
        return {"crashed": True}
    return json.loads(lines[-1])


def end_to_end(raw: dict, setup_s: float) -> dict:
    walls = raw["walls"]
    perms = raw["b_count"] * raw["tests_per_call"] * len(walls)
    return {
        "call_s": statistics.median(walls),
        "perms_per_s": perms / sum(walls),
        "peak_rss_mb": raw["peak_rss_mb"],
        "setup_s": setup_s,
    }


def _fmt(value) -> str:
    return "absent" if value is None else f"{value:.6g}"


def report(name: str, raw: dict, metrics: dict, args) -> None:
    ratio = raw["failed"] / raw["attempted"]
    print(f"workload={name} seed={args.seed} trace={args.trace} "
          f"calls={raw['attempted']} (1 untimed threads=1 reference) failed={raw['failed']}")
    if args.trace:
        units = {**PER_LAYER, **EXTRA_LAYER}
        values = {**metrics, **raw.get("extra_layers", {})}
        for key in units:
            print(f"  {key:<28} {_fmt(values.get(key)):>12} {units[key]}")
        if raw.get("absent"):
            print(f"  absent trace targets: {', '.join(raw['absent'])}")
        print(f"  traced calls: {len(raw['traced_walls'])}, untraced calls: {len(raw['walls'])}")
    else:
        print(f"  {'call_s':<12} {_fmt(metrics['call_s']):>12} s      "
              f"(median of {len(raw['walls'])} calls, min {min(raw['walls']):.4g}, max {max(raw['walls']):.4g})")
        print(f"  {'perms_per_s':<12} {_fmt(metrics['perms_per_s']):>12} 1/s    "
              f"({raw['b_count']} x {raw['tests_per_call']} tests per call)")
        print(f"  {'peak_rss_mb':<12} {_fmt(metrics['peak_rss_mb']):>12} MB")
        print(f"  {'setup_s':<12} {_fmt(metrics['setup_s']):>12} s      (median of {SETUP_SHOTS} fresh interpreters)")
    print(f"  {'fail_ratio':<12} {ratio:>12.6g} ratio  ({raw['failed']} of {raw['attempted']} calls)")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="gammadep benchmark")
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's own tests")
    p.add_argument("--reference-dir", default=os.path.join(BENCH_DIR, "reference"),
                   help="where the default seed's reference outputs are read (or written)")
    p.add_argument("--write-reference", action="store_true",
                   help="write the default seed's threads=1 outputs to --reference-dir")
    args = p.parse_args(argv)
    args.reference_dir = os.path.abspath(args.reference_dir)

    if not os.path.isfile(os.path.join(ROOT, "src", "gammadep", "__init__.py")):
        print(f"no gammadep sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    env = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)), "git_commit": git_commit()}
    attempted = failed = 0
    metrics = {}
    records = []
    for name in names:
        timed_setup = not args.trace and not args.write_reference
        setup_s = measure_setup(3 if args.smoke else SETUP_SHOTS) if timed_setup else None
        raw = run_workload(name, args)
        if raw.get("crashed") or (timed_setup and setup_s is None):
            attempted += max(1, raw.get("attempted", 0))
            failed += max(1, raw.get("failed", 0))
            records.append({"workload": name, "crashed": True})
            continue
        attempted += raw["attempted"]
        failed += raw["failed"]
        env.update(raw["env"])
        if args.write_reference:
            continue
        if args.trace:
            values = {k: raw["layers"][k] for k in PER_LAYER}
            units = PER_LAYER
        else:
            values = end_to_end(raw, setup_s)
            units = END_TO_END
        report(name, raw, values, args)
        prefix = "" if len(names) == 1 else f"{name}."
        for key, value in values.items():
            metrics[prefix + key] = {"value": value, "unit": units[key]}
        records.append({"workload": name, "metrics": values, "raw": raw})

    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    out_dir = os.path.join(BENCH_DIR, "out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "runs.jsonl"), "a", encoding="utf-8") as fh:
        fh.write(json.dumps({
            "time": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "smoke": args.smoke, "env": env, "records": records,
        }) + "\n")
    ok = failed == 0
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
