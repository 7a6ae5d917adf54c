"""One benchmark workload, run in a fresh interpreter started by run.py.

The process builds its inputs from the seed, makes one untimed call with
threads=1 (the warm-up and the run's determinism reference; in a traced run
it is also the tracemalloc pass), then repeats the workload's call for the
given number of seconds. Every call's output is checked. The last line of
standard output is one JSON object with the raw measurements; run.py turns
it into the benchmark's metrics.

run.py sets PYTHONPATH to the checkout's src/ and pins the BLAS thread
pools to one thread before this interpreter imports numpy, so the
workload's ``threads`` is its only parallelism.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import tracemalloc

import numpy as np

import spans

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
DEFAULT_SEED = 0
GAMMAS = "1,2,3,4,5,6,inf"
COMBINERS = ("fisher", "min", "cauchy")
REL_TOL = 1e-10


def _derived_seed(seed: int, stream: int) -> int:
    entropy = [seed % (1 << 64), stream]
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


def _import_program():
    """Import gammadep from this checkout's src/ only."""
    import gammadep
    import gammadep.cli
    import gammadep.data_model
    import gammadep.inference
    import gammadep.simgen

    src = os.path.join(ROOT, "src") + os.sep
    if not os.path.abspath(gammadep.__file__).startswith(src):
        raise SystemExit(f"gammadep imported from {gammadep.__file__}, not from {src}")
    return gammadep


# ---------------------------------------------------------------------------
# Output checks


def _on_grid(p, b_count) -> bool:
    k = p * (b_count + 1)
    return 1 <= round(k) <= b_count + 1 and abs(k - round(k)) <= 1e-9


def check_report(out: dict, b_count: int, reference) -> list:
    """Checks on a test report in the shape of ``report_output``."""
    errors = []
    for label, r in out["per_gamma"].items():
        if not _on_grid(r["p_perm"], b_count):
            errors.append(f"T{label} p_perm {r['p_perm']!r} is off the k/(B+1) grid")
        if not (math.isfinite(r["mu_hat"]) and math.isfinite(r["scaled_stat"])):
            errors.append(f"T{label} statistic is not finite")
        if r["p_asym"] is not None and not 0.0 < r["p_asym"] <= 1.0:
            errors.append(f"T{label} p_asym {r['p_asym']!r} outside (0, 1]")
    for name, r in out["combined"].items():
        if not _on_grid(r["p_perm"], b_count):
            errors.append(f"{name} p_perm {r['p_perm']!r} is off the k/(B+1) grid")
        if not math.isfinite(r["stat"]):
            errors.append(f"{name} statistic is not finite")
    stats = out["stat_triple"] + [out["sigma0_sq"]]
    if not all(isinstance(v, float) and math.isfinite(v) for v in stats):
        errors.append(f"triple or sigma0_sq not finite: {stats!r}")
        return errors
    if reference is None:
        return errors
    for label, r in reference["per_gamma"].items():
        got = out["per_gamma"].get(label, {}).get("p_perm")
        if got != r["p_perm"]:
            errors.append(f"T{label} p_perm {got!r} != reference {r['p_perm']!r}")
    for name, r in reference["combined"].items():
        got = out["combined"].get(name, {}).get("p_perm")
        if got != r["p_perm"]:
            errors.append(f"{name} p_perm {got!r} != reference {r['p_perm']!r}")
    scale = max(abs(v) for v in reference["stat_triple"])
    for got, want in zip(out["stat_triple"], reference["stat_triple"]):
        if abs(got - want) > REL_TOL * scale:
            errors.append(f"triple {out['stat_triple']!r} != reference {reference['stat_triple']!r}")
            break
    if abs(out["sigma0_sq"] - reference["sigma0_sq"]) > REL_TOL * abs(reference["sigma0_sq"]):
        errors.append(f"sigma0_sq {out['sigma0_sq']!r} != reference {reference['sigma0_sq']!r}")
    return errors


def report_output(gd, report) -> dict:
    label = gd.data_model.gamma_label
    return {
        "stat_triple": [report.triple.s1, report.triple.s2, report.triple.s3],
        "sigma0_sq": report.sigma0_sq,
        "per_gamma": {
            label(g): {
                "mu_hat": r.mu_hat,
                "scaled_stat": r.scaled_stat,
                "p_perm": r.p_perm,
                "p_asym": r.p_asym,
            }
            for g, r in report.per_gamma.items()
        },
        "combined": {
            name: {"stat": r.stat, "p_perm": r.p_perm} for name, r in report.combined.items()
        },
    }


# ---------------------------------------------------------------------------
# Workloads. ``tests`` is the number of permutation tests in one call.


class SimulateNull:
    """size_power_experiment on the banded-normal null with dcov, threads=2."""

    name = "simulate-null"
    threads = 2

    def __init__(self, gd, seed, smoke, workdir):
        self.gd = gd
        self.n, self.d, self.reps, self.b_count = (12, 2, 100, 19) if smoke else (100, 5, 100, 200)
        self.tests = self.reps
        self.cfg = gd.simgen.SimConfig(
            "null-a", n=self.n, d1=self.d, d2=self.d, reps=self.reps,
            b_count=self.b_count, seed=_derived_seed(seed, 1),
        )
        self.gammas = gd.data_model.GammaSet.from_string(GAMMAS)

    def call(self, threads):
        res = self.gd.simgen.size_power_experiment(
            self.cfg, self.gammas, COMBINERS, kernel="dcov", threads=threads
        )
        return {
            "methods": list(res.methods),
            "rejections": list(res.rejections),
            "pvalues": res.pvalues.tolist(),
        }

    def check(self, out, reference):
        errors = []
        pv = out["pvalues"]
        if len(pv) != self.reps or any(len(row) != len(out["methods"]) for row in pv):
            return [f"p-value table has shape {len(pv)} x {len(pv[0]) if pv else 0}"]
        bad = [p for row in pv for p in row if not _on_grid(p, self.b_count)]
        if bad:
            errors.append(f"{len(bad)} p-values off the k/(B+1) grid, first {bad[0]!r}")
        counts = [sum(row[j] <= self.cfg.alpha for row in pv) for j in range(len(out["methods"]))]
        if counts != out["rejections"]:
            errors.append(f"rejections {out['rejections']} do not count the p-values {counts}")
        if reference is not None and out["rejections"] != reference["rejections"]:
            errors.append(f"rejections {out['rejections']} != reference {reference['rejections']}")
        return errors


class TestLarge:
    """permutation_test with dcov on m3-shaped data at n=1500, threads=2."""

    name = "test-large"
    threads = 2
    tests = 1

    def __init__(self, gd, seed, smoke, workdir):
        self.gd = gd
        self.n, self.d, self.b_count = (40, 2, 19) if smoke else (1500, 5, 200)
        rng = np.random.default_rng(_derived_seed(seed, 2))
        # m3 shape: x = cos(pi w) + 0.5 eps, y = sin(pi w); u and v can cancel.
        w = rng.uniform(-1.0, 1.0, (self.n, self.d))
        x = np.cos(np.pi * w) + 0.5 * rng.standard_normal((self.n, self.d))
        y = np.sin(np.pi * w)
        self.sample = gd.data_model.validate_sample(x, y)
        self.spec = gd.data_model.KernelPairSpec.dcov()
        self.gammas = gd.data_model.GammaSet.from_string(GAMMAS)
        self.plan = gd.inference.PermutationPlan(self.b_count, _derived_seed(seed, 3))

    def call(self, threads):
        report = self.gd.inference.permutation_test(
            self.sample, self.spec, self.gammas, self.plan, COMBINERS, threads=threads
        )
        return report_output(self.gd, report)

    def check(self, out, reference):
        return check_report(out, self.b_count, reference)


class CliGhsicWide:
    """`gammadep test --kernel ghsic` in process on a wide m1-shaped CSV."""

    name = "cli-ghsic-wide"
    threads = 1
    tests = 1

    def __init__(self, gd, seed, smoke, workdir):
        self.gd = gd
        self.n, self.d, self.b_count = (30, 3, 19) if smoke else (1000, 200, 200)
        rng = np.random.default_rng(_derived_seed(seed, 4))
        # m1 shape: y = x + 1.5 eps.
        x = rng.uniform(-1.0, 1.0, (self.n, self.d))
        y = x + 1.5 * rng.standard_normal((self.n, self.d))
        self.input = os.path.join(workdir, "input.csv")
        self.output = os.path.join(workdir, "report.json")
        header = [f"x{i}" for i in range(self.d)] + [f"y{i}" for i in range(self.d)]
        with open(self.input, "w", encoding="utf-8") as fh:
            fh.write(",".join(header) + "\n")
            np.savetxt(fh, np.hstack([x, y]), delimiter=",", fmt="%.17g")
        self.argv = [
            "test", "--input", self.input,
            "--x-cols", f"0..{self.d}", "--y-cols", f"{self.d}..{2 * self.d}",
            "--kernel", "ghsic", "--B", str(self.b_count),
            "--seed", str(_derived_seed(seed, 5)), "--reproducible", "--out", self.output,
        ]

    def call(self, threads):
        if os.path.exists(self.output):
            os.remove(self.output)
        code = self.gd.cli.main(list(self.argv))
        if code != 0:
            raise RuntimeError(f"gammadep test exited with {code}")
        with open(self.output, "rb") as fh:
            raw = fh.read()
        doc = json.loads(raw)
        return {
            "schema_version": doc.get("schema_version"),
            "stat_triple": [doc["stat_triple"][k] for k in ("s1", "s2", "s3")],
            "sigma0_sq": doc["sigma0_sq"],
            "per_gamma": doc["per_gamma"],
            "combined": doc["combined"],
            "bytes": raw.decode("utf-8"),
        }

    def check(self, out, reference):
        errors = check_report(out, self.b_count, reference)
        if out["schema_version"] != 1:
            errors.append(f"schema_version {out['schema_version']!r} != 1")
        return errors


WORKLOADS = {cls.name: cls for cls in (SimulateNull, TestLarge, CliGhsicWide)}


# ---------------------------------------------------------------------------
# Per-layer metrics from the traced calls


class Absent(Exception):
    pass


def layer_metrics(tracer, wl, untraced_walls, traced_walls) -> tuple:
    """Per-layer metrics: the declared ones, and the ones that are zero on
    workloads that never reach their layer (reported as extras)."""
    count, cpu, self_cpu, roots = spans.span_totals(tracer.spans)
    tests = wl.tests * len(traced_walls)
    nxn = 8.0 * wl.n * wl.n

    def need(*names):
        missing = [n for n in names if n in tracer.absent]
        if missing:
            raise Absent(", ".join(missing))

    def per_test(name, table):
        need(name)
        return table.get(name, 0) / tests

    def peak(name):
        need(name)
        return tracer.peaks.get(name, 0) / nxn

    def mean_us(name):
        need(name)
        return cpu[name] / count[name] * 1e6

    threads = wl.threads
    declared = {
        "kernels.matrices_s": lambda: per_test("kernels.build_pair_matrices", cpu),
        "kernels.distance_passes": lambda: (
            per_test("kernels.median_bandwidth", count)
            + 2 * per_test("kernels.build_pair_matrices", count)
        ),
        "kernels.peak_nxn": lambda: peak("kernels.build_pair_matrices"),
        "ustat.core_setup_s": lambda: per_test("ustat.stat_core_for", self_cpu),
        "ustat.core_peak_nxn": lambda: peak("ustat.stat_core_for"),
        "ustat.triple_calls": lambda: per_test("ustat.PairStatCore.triple", count),
        "ustat.triple_us": lambda: mean_us("ustat.PairStatCore.triple"),
        "ustat.gather_gbps_computed": lambda: (
            3 * nxn / (mean_us("ustat.PairStatCore.triple") * 1e-6) / 1e9
        ),
        "variance.jackknife_s": lambda: per_test("variance.jackknife_fast", cpu),
        "variance.jackknife_peak_nxn": lambda: peak("variance.jackknife_fast"),
        "inference.perm_draw_us": lambda: mean_us("inference.PermutationPlan.permutation"),
        "inference.self_s": lambda: per_test("inference.permutation_test", self_cpu),
        "inference.peak_nxn": lambda: peak("inference.permutation_test"),
        "metric.calls": lambda: per_test("metric.gamma_stats", count),
        "metric.s": lambda: per_test("metric.gamma_stats", cpu),
        "parallel.busy_ratio": lambda: (
            sum(r["cpu"] for r in roots) / (sum(r["wall"] for r in roots) * threads)
        ),
        "trace.overhead": lambda: (
            statistics.median(traced_walls) / statistics.median(untraced_walls) - 1.0
        ),
        "trace.coverage": lambda: (
            1.0 - sum(r["self"] for r in roots) / sum(r["cpu"] for r in roots)
        ),
    }
    extra = {
        "kernels.bandwidth_s": lambda: per_test("kernels.median_bandwidth", cpu),
        "simgen.self_s": lambda: per_test("simgen.size_power_experiment", self_cpu),
        "cli.read_csv_s": lambda: per_test("cli.read_csv", cpu),
        "cli.report_s": lambda: (
            per_test("cli.report_to_dict", cpu) + per_test("cli._emit", cpu)
        ),
        "cli.self_s": lambda: per_test("cli.main", self_cpu),
    }

    def evaluate(table):
        values = {}
        for name, fn in table.items():
            try:
                values[name] = fn()
            except Absent as exc:
                values[name] = None
                print(f"{name}: absent ({exc})", file=sys.stderr)
            except ZeroDivisionError:
                # A target that exists but was never called.
                values[name] = None
                print(f"{name}: not measured, its target was not called", file=sys.stderr)
        return values

    return evaluate(declared), evaluate(extra)


# ---------------------------------------------------------------------------


def _blas_version() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        return "unknown"


def _reference_path(ref_dir, name, smoke) -> str:
    return os.path.join(ref_dir, f"{name}{'.smoke' if smoke else ''}.json")


def run(args) -> dict:
    gd = _import_program()
    workdir = os.path.join(BENCH_DIR, "out", f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        return _run(gd, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(gd, args, workdir) -> dict:
    wl = WORKLOADS[args.workload](gd, args.seed, args.smoke, workdir)
    ref_path = _reference_path(args.reference_dir, wl.name, args.smoke)
    reference = None
    if args.seed == DEFAULT_SEED and not args.write_reference:
        with open(ref_path, encoding="utf-8") as fh:
            reference = json.load(fh)["output"]

    errors = []
    tracer = spans.Tracer() if args.trace else None

    # Untimed threads=1 call: warm-up, determinism reference, memory pass.
    if tracer:
        tracemalloc.start()
        tracer.install(memory=True)
    try:
        base = wl.call(1)
    finally:
        if tracer:
            tracer.uninstall()
            tracemalloc.stop()
    attempted = 1
    errors += wl.check(base, reference)
    failed = 1 if errors else 0
    if args.write_reference:
        if errors:
            raise SystemExit(f"not writing a reference that fails its checks: {errors}")
        os.makedirs(args.reference_dir, exist_ok=True)
        with open(ref_path, "w", encoding="utf-8") as fh:
            # The CLI bytes embed this run's input path; only their fields are kept.
            output = {k: v for k, v in base.items() if k != "bytes"}
            json.dump({"workload": wl.name, "seed": args.seed, "threads": 1, "output": output}, fh, indent=1)
            fh.write("\n")
        print(f"wrote {ref_path}", file=sys.stderr)

    walls = {False: [], True: []}
    start = time.perf_counter()
    while not args.write_reference:
        traced = bool(tracer) and attempted % 2 == 0
        if traced:
            tracer.install()
        t0 = time.perf_counter()
        try:
            out = wl.call(wl.threads)
            call_errors = []
        except Exception as exc:  # a failing call is counted, not fatal
            out = None
            call_errors = [f"call raised {type(exc).__name__}: {exc}"]
        wall = time.perf_counter() - t0
        if traced:
            tracer.uninstall()
        walls[traced].append(wall)
        attempted += 1
        if out is not None:
            call_errors += wl.check(out, reference)
            if out != base:
                call_errors.append(f"threads={wl.threads} output differs from the threads=1 output")
        if call_errors:
            failed += 1
            errors += call_errors
        elapsed = time.perf_counter() - start
        typical = statistics.median(walls[False] + walls[True])
        enough = len(walls[False]) >= 2 if not tracer else (walls[False] and walls[True])
        if enough and elapsed + typical > args.seconds:
            break

    for e in errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)

    result = {
        "workload": wl.name,
        "n": wl.n,
        "tests_per_call": wl.tests,
        "b_count": wl.b_count,
        "threads": wl.threads,
        "attempted": attempted,
        "failed": failed,
        "walls": walls[False],
        "traced_walls": walls[True],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": _blas_version(),
        },
    }
    if tracer and walls[True]:
        result["layers"], result["extra_layers"] = layer_metrics(tracer, wl, walls[False], walls[True])
        result["absent"] = tracer.absent
        os.makedirs(os.path.join(BENCH_DIR, "out"), exist_ok=True)
        tracer.write_tsv(os.path.join(BENCH_DIR, "out", f"spans-{wl.name}.tsv"))
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--reference-dir", required=True)
    p.add_argument("--write-reference", action="store_true")
    args = p.parse_args(argv)
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
