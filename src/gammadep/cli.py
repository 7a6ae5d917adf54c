"""Command-line surface: CSV ingestion, report serialization, and the four
subcommands (test, simulate, oracle-check, population).

Exit codes: 0 success, 2 usage error, 3 data error, 4 oracle failure.
Every JSON document embeds its resolved configuration and seed, so any
output file can be regenerated from the file alone.
"""

from __future__ import annotations

import argparse
import array
import csv
import datetime
import json
import math
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
from .inference import PermutationPlan, check_seed, derive_seed, permutation_test
from .kernels import build_pair_matrices, resolve_kernel_spec
from .simgen import (
    ERRORS,
    MODELS,
    NULL_DESIGNS,
    SimConfig,
    _rng,
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
    whitespace allowed, never locale-dependent. A leading UTF-8 BOM is
    dropped. Parse failures report the 1-based file line. Each row's values
    go straight into one float64 buffer, which the returned matrix views, so
    the table is held once at 8 bytes per cell."""
    try:
        fh = open(path, "r", encoding="utf-8-sig", newline="")
    except OSError as exc:
        raise fail("IO", f"cannot open {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise fail("PARSE", f"{path}: empty file") from None
        header = [h.strip() for h in header]
        values = array.array("d")
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
                values.fromlist([float(v) for v in row])
            except ValueError as exc:
                raise fail("PARSE", f"{path}:{lineno}: {exc}") from None
    if not values:
        raise fail("EMPTY", f"{path}: no data rows")
    return header, np.frombuffer(values, dtype=np.float64).reshape(-1, len(header))


def parse_columns(selector: str, header) -> list:
    """Column selector: a half-open index range "a..b" or a comma-separated
    list of header names (a list of all-integer tokens is taken as indices).
    A name that more than one column carries is refused with
    AMBIGUOUS_COLUMN; index and range selectors reach every column."""
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
        hits = [i for i, name in enumerate(header) if name == t]
        if not hits:
            raise fail("COLUMN_NOT_FOUND", f"column {t!r} not in header")
        if len(hits) > 1:
            raise fail("AMBIGUOUS_COLUMN", f"column {t!r} names columns {hits}; select one by index")
        out.append(hits[0])
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
    if out is not None:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _finish(args, doc: dict, text: str) -> None:
    """The one stdout rule: ``--format text`` prints ``text`` and ``--out``
    also gets the JSON; ``--format json`` prints the JSON, or writes it to
    ``--out`` instead."""
    if args.format == "text":
        print(text)
    if args.format == "json" or args.out is not None:
        _emit(doc, args.out, args.reproducible)


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
    seed: int = 424242,
) -> dict:
    """Fast-vs-brute equivalence over seeded small instances; instance s is
    drawn from ``derive_seed(seed, s)``.

    ``triple_fn``/``jack_fn`` are injectable so a deliberately broken fast
    path can be shown to FAIL (negative control). An empty suite would pass
    vacuously, so ``seeds`` < 1 and an empty ``n_range`` are refused, and so
    is a ``tol`` that is negative or not finite. Instances need n >= 4, the
    pair kernels' arity.
    """
    lo, hi = n_range
    check_seed(seed)
    if seeds < 1:
        raise fail("BAD_SEEDS", f"need at least one seed, got {seeds}")
    if lo < 4:
        raise fail("BAD_N_RANGE", f"n_min must be >= 4, got {lo}")
    if lo > hi:
        raise fail("BAD_N_RANGE", f"n_min {lo} exceeds n_max {hi}")
    if not (0.0 <= tol < math.inf):
        raise fail("BAD_TOL", f"tol must be finite and nonnegative, got {tol}")
    entries = []
    worst = 0.0
    budget = TupleBudget(max(14, hi))
    for kind in kernels:
        max_err = 0.0
        checked = 0
        for s in range(seeds):
            rng = _rng(derive_seed(seed, s))
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
                err = max(err, abs(jackknife_brute(sample, spec, budget) - jack_fn(mats)))
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
        "seed": seed,
        "seeds": seeds,
        "n_range": list(n_range),
        "entries": entries,
        "max_error": worst,
    }


# ---------------------------------------------------------------------------
# Subcommands


def _threads(args) -> int:
    """--threads, else GAMMADEP_THREADS, else 1; a count below 1 is refused."""
    threads = args.threads
    if threads is None:
        env = os.environ.get("GAMMADEP_THREADS")
        if not env:
            return 1
        try:
            threads = int(env)
        except ValueError:
            raise fail("BAD_THREADS", f"GAMMADEP_THREADS={env!r} is not an integer") from None
    if threads < 1:
        raise fail("BAD_THREADS", f"threads must be >= 1, got {threads}")
    return threads


def _sigmas(args):
    """The (--sigma-x, --sigma-y) bandwidth pair, or None when neither is given."""
    if args.sigma_x is None and args.sigma_y is None:
        return None
    if args.sigma_x is None or args.sigma_y is None:
        raise fail("BAD_BANDWIDTH", "pass both --sigma-x and --sigma-y or neither")
    return (args.sigma_x, args.sigma_y)


def _cmd_test(args) -> int:
    header, data = read_csv(args.input)
    x_idx = parse_columns(args.x_cols, header)
    y_idx = parse_columns(args.y_cols, header)
    sample = validate_sample(data[:, x_idx], data[:, y_idx])
    spec = resolve_kernel_spec(args.kernel, sample, _sigmas(args))
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
    _finish(args, doc, _report_text(doc))
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
    _finish(args, doc, result.to_text())
    return EXIT_OK


def _cmd_oracle_check(args) -> int:
    kernels = ("dcov", "ghsic") if args.kernel == "all" else (args.kernel,)
    doc = run_oracle_suite(
        seeds=args.seeds,
        n_range=(args.n_min, args.n_max),
        kernels=kernels,
        tol=args.tol,
        seed=args.seed,
    )
    doc["command"] = "oracle-check"
    lines = [f"{e['kernel']}: {e['status']} max_error={e['max_error']:.3e}" for e in doc["entries"]]
    _finish(args, doc, "\n".join(lines))
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
        seed=args.seed,
    )
    spec = resolve_kernel_spec(args.kernel, sigmas=_sigmas(args))
    triple = mc_population_triple(cfg, spec, args.n_mc)
    doc = triple.to_dict()
    doc["schema_version"] = SCHEMA_VERSION
    doc["command"] = "population"
    doc["model"] = args.model
    doc["error"] = cfg.error
    doc["d"] = args.d
    doc["kappa"] = cfg.kappa
    doc["kernel"] = _kernel_to_dict(spec)
    doc["seed"] = args.seed
    text = (
        f"model={args.model} d={args.d} error={cfg.error} n_mc={args.n_mc}\n"
        f"u   = {triple.u:+.6f} (se {triple.se_u:.6f})\n"
        f"v   = {triple.v:+.6f} (se {triple.se_v:.6f})\n"
        f"sum = {triple.sum:+.6f} (se {triple.se_sum:.6f})"
    )
    _finish(args, doc, text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser


def _add_common(p, default_format: str) -> None:
    p.add_argument("--out", help="write the JSON document to this path")
    p.add_argument("--format", choices=("json", "text"), default=default_format, help="what stdout carries")
    p.add_argument("--seed", type=int, required=True, help="run seed in [0, 2**64)")
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
    t.add_argument("--combiners", default="fisher,min,cauchy")
    t.add_argument("--tie-mode", choices=("strict", "inclusive"), default="strict")
    t.add_argument("--threads", type=int, default=None, help="worker process cap (results invariant); falls back to GAMMADEP_THREADS")
    _add_common(t, "json")
    t.set_defaults(fn=_cmd_test)

    s = sub.add_parser("simulate", help="size/power experiment")
    s.add_argument("--model", choices=NULL_DESIGNS + MODELS, required=True)
    s.add_argument("--n", type=int, default=100)
    s.add_argument("--d", type=int, default=5)
    s.add_argument("--error", choices=ERRORS, default=None, help="default: a null design's own family, else normal")
    s.add_argument("--kappa", type=float, default=None)
    s.add_argument("--reps", type=int, default=500)
    s.add_argument("--B", type=int, default=200)
    s.add_argument("--alpha", type=float, default=0.05)
    s.add_argument("--gamma", default="1,2,3,4,5,6,inf")
    s.add_argument("--combiners", default="fisher,min,cauchy")
    s.add_argument("--kernel", choices=("dcov", "ghsic"), default="dcov")
    s.add_argument("--tie-mode", choices=("strict", "inclusive"), default="strict")
    s.add_argument("--threads", type=int, default=None, help="worker process cap (results invariant); falls back to GAMMADEP_THREADS")
    _add_common(s, "text")
    s.set_defaults(fn=_cmd_simulate)

    o = sub.add_parser("oracle-check", help="fast-vs-brute equivalence gate")
    o.add_argument("--kernel", choices=("dcov", "ghsic", "all"), default="all")
    o.add_argument("--seeds", type=int, default=100)
    o.add_argument("--n-min", type=int, default=6)
    o.add_argument("--n-max", type=int, default=12)
    o.add_argument("--tol", type=float, default=1e-10)
    _add_common(o, "text")
    o.set_defaults(fn=_cmd_oracle_check)

    p = sub.add_parser("population", help="Monte-Carlo population mean differences")
    p.add_argument("--model", choices=NULL_DESIGNS + MODELS, required=True)
    p.add_argument("--d", type=int, default=5)
    p.add_argument("--error", choices=ERRORS, default=None, help="default: a null design's own family, else normal")
    p.add_argument("--kappa", type=float, default=None)
    p.add_argument("--kernel", choices=("dcov", "ghsic", "pcov"), default="dcov")
    p.add_argument("--sigma-x", type=float, default=None)
    p.add_argument("--sigma-y", type=float, default=None)
    p.add_argument("--n-mc", type=int, default=1_000_000)
    _add_common(p, "json")
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
