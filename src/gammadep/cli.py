"""Command-line surface: CSV ingestion, report serialization, and the four
subcommands (test, simulate, oracle-check, population).

Exit codes: 0 success, 2 usage error, 3 data error, 4 oracle failure.
Every JSON document embeds its resolved configuration and seed, so any
output file can be regenerated from the file alone.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import json
import os
import sys
from typing import Optional

import numpy as np

from .data_model import (
    GammaSet,
    KernelPairSpec,
    TestReport,
    gamma_label,
    validate_sample,
)
from .errors import GammadepError, fail
from .inference import PermutationPlan, derive_seed, permutation_test
from .kernels import build_pair_matrices, resolve_kernel_spec
from .simgen import (
    ERRORS,
    MODELS,
    NULL_DESIGNS,
    SimConfig,
    mc_population_triple,
    size_power_experiment,
)
from .ustat import TupleBudget, brute_force_triple, fast_triple_pair
from .variance import jackknife_brute, jackknife_fast

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_ORACLE = 4


# ---------------------------------------------------------------------------
# CSV ingestion


def read_csv(path: str):
    """Headered CSV to (header, float matrix). Number parsing is float()
    without underscore digit grouping: decimal point only, surrounding
    whitespace allowed, never locale-dependent. Parse failures report the
    1-based file line."""
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise fail("IO", f"cannot open {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise fail("PARSE", f"{path}: empty file") from None
        header = [h.strip() for h in header]
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != len(header):
                raise fail("PARSE", f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
            try:
                # float() alone would also take underscore digit grouping
                if "_" in "".join(row):
                    bad = next(v for v in row if "_" in v)
                    raise ValueError(f"underscore digit grouping is not accepted: {bad!r}")
                rows.append([float(v) for v in row])
            except ValueError as exc:
                raise fail("PARSE", f"{path}:{lineno}: {exc}") from None
    if not rows:
        raise fail("EMPTY", f"{path}: no data rows")
    return header, np.array(rows, dtype=np.float64)


def parse_columns(selector: str, header) -> list:
    """Column selector: a half-open index range "a..b" or a comma-separated
    list of header names (a list of all-integer tokens is taken as indices)."""
    selector = selector.strip()
    if ".." in selector:
        lo_s, hi_s = selector.split("..", 1)
        try:
            lo, hi = int(lo_s), int(hi_s)
        except ValueError:
            raise fail("COLUMN_NOT_FOUND", f"bad range {selector!r}") from None
        if not (0 <= lo < hi <= len(header)):
            raise fail("COLUMN_NOT_FOUND", f"range {selector!r} outside 0..{len(header)}")
        return list(range(lo, hi))
    tokens = [t.strip() for t in selector.split(",") if t.strip()]
    if not tokens:
        raise fail("COLUMN_NOT_FOUND", f"empty column selector {selector!r}")
    if all(t.lstrip("-").isdigit() for t in tokens):
        idx = [int(t) for t in tokens]
        for i in idx:
            if not (0 <= i < len(header)):
                raise fail("COLUMN_NOT_FOUND", f"index {i} outside 0..{len(header) - 1}")
        return idx
    out = []
    for t in tokens:
        if t not in header:
            raise fail("COLUMN_NOT_FOUND", f"column {t!r} not in header")
        out.append(header.index(t))
    return out


# ---------------------------------------------------------------------------
# TestReport serialization


def _kernel_to_dict(spec: KernelPairSpec) -> dict:
    return {"id": spec.id, "m": spec.m, "bandwidths": list(spec.bandwidths) if spec.bandwidths else None}


def report_to_dict(report: TestReport) -> dict:
    meta = report.meta
    spec = meta["kernel"]
    return {
        "schema_version": SCHEMA_VERSION,
        "n": meta["n"],
        "d1": meta["d1"],
        "d2": meta["d2"],
        "kernel": _kernel_to_dict(spec),
        "gammas": [gamma_label(g) for g in meta["gammas"]],
        "b_count": meta["b_count"],
        "seed": meta["seed"],
        "combiners": list(meta["combiners"]),
        "tie_mode": meta["tie_mode"],
        "stat_triple": {"s1": report.triple.s1, "s2": report.triple.s2, "s3": report.triple.s3},
        "sigma0_sq": report.sigma0_sq,
        "per_gamma": {
            gamma_label(g): {
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


def _emit(doc: dict, out: Optional[str], reproducible: bool) -> None:
    if not reproducible:
        doc = dict(doc)
        doc["generated_at"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    text = json.dumps(doc, indent=2, allow_nan=False)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _report_text(doc: dict) -> str:
    lines = [
        f"n={doc['n']} d1={doc['d1']} d2={doc['d2']} kernel={doc['kernel']['id']} "
        f"B={doc['b_count']} seed={doc['seed']}",
        f"{'gamma':<6} {'mu_hat':>13} {'scaled':>13} {'p_perm':>9} {'p_asym':>9}",
    ]
    for g in doc["gammas"]:
        r = doc["per_gamma"][g]
        pa = "-" if r["p_asym"] is None else f"{r['p_asym']:.4f}"
        lines.append(f"{g:<6} {r['mu_hat']:>13.6e} {r['scaled_stat']:>13.6e} {r['p_perm']:>9.4f} {pa:>9}")
    for name, r in doc["combined"].items():
        lines.append(f"{name:<6} stat={r['stat']:>13.6e} p_perm={r['p_perm']:.4f}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Oracle suite


def run_oracle_suite(
    seeds: int = 100,
    n_range=(6, 12),
    kernels=("dcov", "ghsic"),
    tol: float = 1e-10,
    triple_fn=fast_triple_pair,
    jack_fn=jackknife_fast,
) -> dict:
    """Fast-vs-brute equivalence over seeded small instances.

    ``triple_fn``/``jack_fn`` are injectable so a deliberately broken fast
    path can be shown to FAIL (negative control).
    """
    lo, hi = n_range
    entries = []
    worst = 0.0
    budget = TupleBudget(max(14, hi))
    for kind in kernels:
        if kind == "pcov":
            entries.append({"kernel": kind, "status": "SKIPPED", "reason": "brute-force only; no fast path to compare"})
            continue
        max_err = 0.0
        checked = 0
        for s in range(seeds):
            rng = np.random.Generator(np.random.Philox(key=np.uint64(derive_seed(424242, s))))
            n = lo + s % (hi - lo + 1)
            x = rng.standard_normal((n, 2))
            y = 0.4 * x[:, :1] + rng.standard_normal((n, 2))
            sample = validate_sample(x, y)
            spec = resolve_kernel_spec(kind, sample)
            bt = brute_force_triple(sample, spec, budget)
            mats = build_pair_matrices(sample, spec)
            ft = triple_fn(mats)
            err = max(abs(bt.s1 - ft.s1), abs(bt.s2 - ft.s2), abs(bt.s3 - ft.s3))
            if n > spec.m:
                jb = jackknife_brute(sample, spec, budget)
                jf = jack_fn(mats)
                err = max(err, abs(jb.sigma0_sq - jf.sigma0_sq))
            max_err = max(max_err, err)
            checked += 1
        status = "PASS" if max_err <= tol else "FAIL"
        entries.append({"kernel": kind, "status": status, "instances": checked, "max_error": max_err})
        worst = max(worst, max_err)
    failed = any(e["status"] == "FAIL" for e in entries)
    return {
        "schema_version": SCHEMA_VERSION,
        "status": "FAIL" if failed else "PASS",
        "tolerance": tol,
        "seeds": seeds,
        "n_range": list(n_range),
        "entries": entries,
        "max_error": worst,
    }


# ---------------------------------------------------------------------------
# Subcommands


def _threads(args) -> int:
    if args.threads is not None:
        return max(1, args.threads)
    env = os.environ.get("GAMMADEP_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise fail("BAD_THREADS", f"GAMMADEP_THREADS={env!r} is not an integer") from None
    return 1


def _cmd_test(args) -> int:
    header, data = read_csv(args.input)
    x_idx = parse_columns(args.x_cols, header)
    y_idx = parse_columns(args.y_cols, header)
    sample = validate_sample(data[:, x_idx], data[:, y_idx])
    sigmas = None
    if args.sigma_x is not None or args.sigma_y is not None:
        if args.sigma_x is None or args.sigma_y is None:
            raise fail("BAD_BANDWIDTH", "pass both --sigma-x and --sigma-y or neither")
        sigmas = (args.sigma_x, args.sigma_y)
    spec = resolve_kernel_spec(args.kernel, sample, sigmas)
    gammas = GammaSet.from_string(args.gamma)
    plan = PermutationPlan(args.B, args.seed)
    report = permutation_test(
        sample,
        spec,
        gammas,
        plan,
        combiners=tuple(args.combiners.split(",")),
        tie_mode=args.tie_mode,
        threads=_threads(args),
    )
    doc = report_to_dict(report)
    doc["command"] = "test"
    doc["input"] = args.input
    doc["x_cols"] = args.x_cols
    doc["y_cols"] = args.y_cols
    doc["alpha"] = args.alpha
    if args.format == "text":
        print(_report_text(doc))
        if args.out:
            _emit(doc, args.out, args.reproducible)
    else:
        _emit(doc, args.out, args.reproducible)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    cfg = SimConfig(
        model=args.model,
        n=args.n,
        d1=args.d,
        d2=args.d,
        error=args.error,
        kappa=args.kappa,
        reps=args.reps,
        b_count=args.B,
        alpha=args.alpha,
        seed=args.seed,
    )
    result = size_power_experiment(
        cfg,
        GammaSet.from_string(args.gamma),
        tuple(args.combiners.split(",")),
        kernel=args.kernel,
        threads=_threads(args),
        tie_mode=args.tie_mode,
    )
    doc = result.to_table_dict()
    doc["schema_version"] = SCHEMA_VERSION
    doc["command"] = "simulate"
    print(result.to_text())
    if args.out:
        _emit(doc, args.out, args.reproducible)
    elif args.format == "json":
        _emit(doc, None, args.reproducible)
    return EXIT_OK


def _cmd_oracle_check(args) -> int:
    kernels = ("dcov", "ghsic") if args.kernel == "all" else (args.kernel,)
    doc = run_oracle_suite(
        seeds=args.seeds,
        n_range=(args.n_min, args.n_max),
        kernels=kernels,
        tol=args.tol,
    )
    doc["command"] = "oracle-check"
    for entry in doc["entries"]:
        detail = f" max_error={entry.get('max_error'):.3e}" if "max_error" in entry else ""
        print(f"{entry['kernel']}: {entry['status']}{detail}")
    if args.out:
        _emit(doc, args.out, args.reproducible)
    if doc["status"] == "FAIL":
        print("oracle check FAILED", file=sys.stderr)
        return EXIT_ORACLE
    return EXIT_OK


def _cmd_population(args) -> int:
    cfg = SimConfig(
        model=args.model,
        n=4,
        d1=args.d,
        d2=args.d,
        error=args.error,
        kappa=args.kappa,
        reps=100,
        seed=args.seed,
    )
    if args.kernel == "ghsic":
        if args.sigma_x is None or args.sigma_y is None:
            raise fail("BAD_BANDWIDTH", "population ghsic needs --sigma-x and --sigma-y")
        spec = KernelPairSpec.ghsic(args.sigma_x, args.sigma_y)
    else:
        spec = resolve_kernel_spec(args.kernel)
    triple = mc_population_triple(cfg, spec, args.n_mc, args.seed)
    doc = triple.to_dict()
    doc["schema_version"] = SCHEMA_VERSION
    doc["command"] = "population"
    doc["model"] = args.model
    doc["error"] = args.error
    doc["d"] = args.d
    doc["kappa"] = cfg.kappa
    doc["kernel"] = _kernel_to_dict(spec)
    doc["seed"] = args.seed
    if args.format == "text":
        print(
            f"model={args.model} d={args.d} error={args.error} n_mc={args.n_mc}\n"
            f"u   = {triple.u:+.6f} (se {triple.se_u:.6f})\n"
            f"v   = {triple.v:+.6f} (se {triple.se_v:.6f})\n"
            f"sum = {triple.sum:+.6f} (se {triple.se_sum:.6f})"
        )
        if args.out:
            _emit(doc, args.out, args.reproducible)
    else:
        _emit(doc, args.out, args.reproducible)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser


def _add_common(p) -> None:
    p.add_argument("--out", help="write the JSON document to this path")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--seed", type=int, required=True, help="64-bit run seed")
    p.add_argument("--threads", type=int, default=None, help="worker cap (results invariant); falls back to GAMMADEP_THREADS")
    p.add_argument("--reproducible", action="store_true", help="suppress the timestamp field")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gammadep",
        description="Exponent-indexed dependence metrics with permutation and half-normal inference.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    t = sub.add_parser("test", help="independence test on a CSV file")
    t.add_argument("--input", required=True, help="headered UTF-8 CSV")
    t.add_argument("--x-cols", required=True, help='half-open range "a..b" or name list')
    t.add_argument("--y-cols", required=True)
    t.add_argument("--kernel", choices=("dcov", "ghsic", "pcov"), default="dcov")
    t.add_argument("--sigma-x", type=float, default=None, help="ghsic bandwidth for x (default: median heuristic)")
    t.add_argument("--sigma-y", type=float, default=None)
    t.add_argument("--gamma", default="1,2,3,4,5,6,inf")
    t.add_argument("--B", type=int, default=200, help="permutation count")
    t.add_argument("--alpha", type=float, default=0.05)
    t.add_argument("--combiners", default="fisher,min,cauchy")
    t.add_argument("--tie-mode", choices=("strict", "inclusive"), default="strict")
    _add_common(t)
    t.set_defaults(fn=_cmd_test)

    s = sub.add_parser("simulate", help="size/power experiment")
    s.add_argument("--model", choices=NULL_DESIGNS + MODELS, required=True)
    s.add_argument("--n", type=int, default=100)
    s.add_argument("--d", type=int, default=5)
    s.add_argument("--error", choices=ERRORS, default="normal")
    s.add_argument("--kappa", type=float, default=None)
    s.add_argument("--reps", type=int, default=500)
    s.add_argument("--B", type=int, default=200)
    s.add_argument("--alpha", type=float, default=0.05)
    s.add_argument("--gamma", default="1,2,3,4,5,6,inf")
    s.add_argument("--combiners", default="fisher,min,cauchy")
    s.add_argument("--kernel", choices=("dcov", "ghsic"), default="dcov")
    s.add_argument("--tie-mode", choices=("strict", "inclusive"), default="strict")
    _add_common(s)
    s.set_defaults(fn=_cmd_simulate)

    o = sub.add_parser("oracle-check", help="fast-vs-brute equivalence gate")
    o.add_argument("--kernel", choices=("dcov", "ghsic", "pcov", "all"), default="all")
    o.add_argument("--seeds", type=int, default=100)
    o.add_argument("--n-min", type=int, default=6)
    o.add_argument("--n-max", type=int, default=12)
    o.add_argument("--tol", type=float, default=1e-10)
    _add_common(o)
    o.set_defaults(fn=_cmd_oracle_check)

    p = sub.add_parser("population", help="Monte-Carlo population mean differences")
    p.add_argument("--model", choices=NULL_DESIGNS + MODELS, required=True)
    p.add_argument("--d", type=int, default=5)
    p.add_argument("--error", choices=ERRORS, default="normal")
    p.add_argument("--kappa", type=float, default=None)
    p.add_argument("--kernel", choices=("dcov", "ghsic", "pcov"), default="dcov")
    p.add_argument("--sigma-x", type=float, default=None)
    p.add_argument("--sigma-y", type=float, default=None)
    p.add_argument("--n-mc", type=int, default=1_000_000)
    _add_common(p)
    p.set_defaults(fn=_cmd_population)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.fn(args)
    except GammadepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"error: IO: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
