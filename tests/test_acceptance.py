"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and measured values. Monte-Carlo criteria use pinned seeds so the
suite is deterministic.
"""

import json
import math
import time

import numpy as np
import pytest

from gammadep import (
    INFINITY,
    GammaSet,
    KernelPairSpec,
    SimConfig,
    aggregate,
    build_pair_matrices,
    fast_triple_pair,
    gen_model,
    mc_population_triple,
    permutation_sigma0_sq,
    size_power_experiment,
    validate_sample,
)
from gammadep.cli import main, run_oracle_suite
from gammadep.inference import derive_seed

GAMMAS = GammaSet.default()
ALL_METHODS = ("T1", "T2", "T3", "T4", "T5", "T6", "Tinf", "fisher", "min", "cauchy")


def report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}")
    return ok


# ---------------------------------------------------------------------------
# shared expensive studies


@pytest.fixture(scope="session")
def null_studies():
    out = {}
    for design, seed in (("null-a", 20240601), ("null-b", 20240701)):
        cfg = SimConfig(
            model=design, n=100, d1=5, d2=5, reps=500, b_count=200, alpha=0.05, seed=seed
        )
        out[design] = size_power_experiment(cfg, GAMMAS, threads=4)
    return out


@pytest.fixture(scope="session")
def studentized_null():
    """1000 replications of the even-exponent studentized statistic under
    the banded-normal null at n=200, d=5, studentized by the same sigma0
    that permutation_test uses for p_asym."""
    spec = KernelPairSpec.dcov()
    master = 20240507
    tvals = np.empty(1000)
    for rep in range(1000):
        x, y = (gen_model(SimConfig("null-a", 200, 5, 5, seed=derive_seed(master, k, rep))).x for k in (0, 1))
        mats = build_pair_matrices(validate_sample(x, y), spec)
        t = fast_triple_pair(mats)
        mu2 = aggregate(t.u, t.v, 2)
        sigma0 = math.sqrt(permutation_sigma0_sq(mats))
        tvals[rep] = math.sqrt(200.0) * mu2 / (math.sqrt(2.0) * 4.0 * sigma0)
    return tvals


def half_normal_cdf(t: np.ndarray) -> np.ndarray:
    return np.array([math.erf(v / math.sqrt(2.0)) if v > 0 else 0.0 for v in t])


# ---------------------------------------------------------------------------
# criteria


def test_c1_oracle_equivalence():
    start = time.time()
    doc = run_oracle_suite(seeds=100, n_range=(6, 12), kernels=("dcov", "ghsic"), tol=1e-10)
    elapsed = time.time() - start
    ok = doc["status"] == "PASS" and elapsed < 120.0
    assert report(
        "criterion 1 (oracle equivalence)",
        ok,
        f"status={doc['status']} max_error={doc['max_error']:.3e} elapsed={elapsed:.1f}s",
    )


def test_c2_size_calibration(null_studies):
    worst = []
    ok = True
    for design, res in null_studies.items():
        for m in ALL_METHODS:
            rate = res.rate(m)
            worst.append((abs(rate - 0.05), design, m, rate))
            if not (0.03 <= rate <= 0.07):
                ok = False
    worst.sort(reverse=True)
    _, design, m, rate = worst[0]
    assert report(
        "criterion 2 (size calibration)",
        ok,
        f"all 20 rates in [0.03, 0.07]; extreme: {design}/{m}={rate:.3f}",
    )


def test_c3_power_reversal_m3():
    cfg = SimConfig(
        model="m3", n=100, d1=5, d2=5, error="normal", reps=300, b_count=200, seed=20240503
    )
    res = size_power_experiment(cfg, GAMMAS, threads=4)
    t1, t2, fisher = res.rate("T1"), res.rate("T2"), res.rate("fisher")
    ok = t1 <= 0.10 and t2 >= 0.90 and fisher >= 0.88
    assert report(
        "criterion 3 (power reversal on the circle model)",
        ok,
        f"T1={t1:.3f} (<=0.10) T2={t2:.3f} (>=0.90) fisher={fisher:.3f} (>=0.88)",
    )


def test_c4_linear_model_power():
    cfg = SimConfig(
        model="m1", n=100, d1=5, d2=5, error="normal", reps=200, b_count=200, seed=20240504
    )
    res = size_power_experiment(cfg, GAMMAS, threads=4)
    t1, t3 = res.rate("T1"), res.rate("T3")
    ok = t1 >= 0.99 and t3 >= 0.97
    assert report(
        "criterion 4 (linear-model power)",
        ok,
        f"T1={t1:.3f} (>=0.99) T3={t3:.3f} (>=0.97)",
    )


def test_c5_population_quantities():
    spec = KernelPairSpec.dcov()
    n_mc = 1_000_000
    checks = []

    cfg1 = SimConfig(model="m1", n=4, d1=5, d2=5, error="normal", seed=20240505)
    t1 = mc_population_triple(cfg1, spec, n_mc)
    checks.append(("m1 u", abs(t1.u - 0.073) <= 3 * t1.se_u + 5e-4, f"{t1.u:.4f} vs 0.073"))
    checks.append(("m1 v", abs(t1.v - (-0.012)) <= 3 * t1.se_v + 5e-4, f"{t1.v:.4f} vs -0.012"))

    cfg3 = SimConfig(model="m3", n=4, d1=5, d2=5, error="normal", seed=20240506)
    t3 = mc_population_triple(cfg3, spec, n_mc)
    checks.append(("m3 u", abs(t3.u - (-0.025)) <= 3 * t3.se_u + 5e-4, f"{t3.u:.4f} vs -0.025"))
    checks.append(("m3 v", abs(t3.v - 0.025) <= 3 * t3.se_v + 5e-4, f"{t3.v:.4f} vs 0.025"))

    # sign patterns: u > 0 > v for m2/m5, u < 0 < v for m4 (all at d=5, normal)
    for model, sign, seed in (("m2", +1, 20240508), ("m4", -1, 20240509), ("m5", +1, 20240510)):
        cfg = SimConfig(model=model, n=4, d1=5, d2=5, error="normal", seed=seed)
        t = mc_population_triple(cfg, spec, n_mc)
        ok = (t.u * sign > 3 * t.se_u) and (t.v * sign < -3 * t.se_v)
        checks.append((f"{model} signs", ok, f"u={t.u:.4f} v={t.v:.4f}"))

    ok = all(c[1] for c in checks)
    detail = "; ".join(f"{name} {'ok' if good else 'BAD'} ({msg})" for name, good, msg in checks)
    assert report("criterion 5 (population quantities)", ok, detail)


def test_c6_ordering_property_suite():
    rng = np.random.default_rng(20240511)
    slack = 1e-12
    evens = (2, 4, 6)
    odds = (3, 5)
    violations = 0
    total = 0

    def chains(u, v):
        m1 = aggregate(u, v, 1)
        minf = aggregate(u, v, INFINITY)
        me = [aggregate(u, v, g) for g in evens]
        mo = [aggregate(u, v, g) for g in odds]
        return m1, minf, me, mo

    # clause (i)+(ii): mixed signs with positive sum
    for _ in range(40_000):
        mag = 10.0 ** rng.uniform(-1.0, 1.0)
        u, v = mag, -mag * rng.uniform(0.05, 0.9)
        if rng.random() < 0.5:
            u, v = v, u
        m1, minf, me, mo = chains(u, v)
        good = (
            me[0] > me[1] - slack > me[2] - 2 * slack
            and me[2] > minf - slack
            and minf > m1 - slack
            and m1 > -slack
            and minf > mo[1] - slack
            and mo[1] > mo[0] - slack
            and mo[0] > m1 - slack
        )
        violations += not good
        total += 1

    # clause (iii): both positive
    for _ in range(40_000):
        u = 10.0 ** rng.uniform(-1.0, 1.0)
        v = u * 10.0 ** rng.uniform(-1.0, 1.0)
        vals = [aggregate(u, v, g) for g in (1, 2, 3, 4, 5, 6)] + [aggregate(u, v, INFINITY)]
        good = all(a > b - slack for a, b in zip(vals, vals[1:])) and vals[-1] > 0.0
        violations += not good
        total += 1

    # clause (iv): exactly one of the differences is zero
    for _ in range(20_000):
        u = 10.0 ** rng.uniform(-1.0, 1.0)
        pair = (u, 0.0) if rng.random() < 0.5 else (0.0, u)
        ref = aggregate(*pair, 1)
        good = all(
            abs(aggregate(*pair, g) - ref) <= slack * max(1.0, abs(ref))
            for g in (2, 3, 4, 5, 6, INFINITY)
        )
        violations += not good
        total += 1

    ok = violations == 0
    assert report(
        "criterion 6 (ordering property suite)", ok, f"{total} pairs, {violations} violations"
    )


def test_c7_half_normal_studentization(studentized_null):
    # sigma0 is the exact permutation variance of u (n Var_pi(u) / m^2). The
    # paper's jackknife display, studentizing the same statistics, fails the
    # rate clause here: over these 1000 replications its sigma0^2 averages
    # 1.14x Var(sqrt(n) u)/16 and correlates with u^2 (0.50), so E[t^2] =
    # 0.78 and the rejection rate is 0.013 while KS still passes (0.049).
    t = np.sort(studentized_null)
    n = t.shape[0]
    cdf = half_normal_cdf(t)
    emp_hi = np.arange(1, n + 1) / n
    emp_lo = np.arange(0, n) / n
    ks = max(float(np.max(emp_hi - cdf)), float(np.max(cdf - emp_lo)))
    pvals = np.array([math.erfc(v / math.sqrt(2.0)) for v in t])
    rate = float(np.mean(pvals <= 0.05))
    ok = ks < 0.08 and 0.03 <= rate <= 0.07
    assert report(
        "criterion 7 (half-normal studentization)",
        ok,
        f"KS={ks:.4f} (<0.08) asymptotic rejection={rate:.4f} (in [0.03,0.07])",
    )


def test_c8_pvalue_super_uniformity(null_studies):
    grid = np.arange(0.05, 0.951, 0.05)
    worst = -1.0
    worst_at = ""
    ok = True
    for design, res in null_studies.items():
        reps = res.config.reps
        for j, m in enumerate(res.methods):
            p = res.pvalues[:, j]
            for q in grid:
                ecdf = float(np.mean(p <= q))
                bound = q + 3.0 * math.sqrt(q * (1 - q) / reps)
                excess = ecdf - bound
                if excess > worst:
                    worst, worst_at = excess, f"{design}/{m}@q={q:.2f}"
                if ecdf > bound:
                    ok = False
    assert report(
        "criterion 8 (permutation p-value super-uniformity)",
        ok,
        f"max(ecdf - bound)={worst:+.4f} at {worst_at} (must be <= 0)",
    )


def test_c9_determinism_across_threads(tmp_path):
    # n = 80 runs its permutations on one thread; n = 240 splits them over
    # worker threads
    rng = np.random.default_rng(20240512)
    identical = {}
    for n in (80, 240):
        data = rng.standard_normal((n, 8))
        csv = tmp_path / f"d{n}.csv"
        csv.write_text(
            ",".join(f"c{i}" for i in range(8))
            + "\n"
            + "\n".join(",".join(repr(v) for v in row) for row in data.tolist())
            + "\n",
            encoding="utf-8",
        )
        args = [
            "test", "--input", str(csv), "--x-cols", "0..4", "--y-cols", "4..8",
            "--B", "200", "--seed", "99", "--reproducible",
        ]
        out1, out4 = tmp_path / f"t1_{n}.json", tmp_path / f"t4_{n}.json"
        assert main(args + ["--threads", "1", "--out", str(out1)]) == 0
        assert main(args + ["--threads", "4", "--out", str(out4)]) == 0
        parsed = json.loads(out1.read_text())
        identical[n] = out1.read_bytes() == out4.read_bytes() and parsed["seed"] == 99 and parsed["n"] == n
    ok = all(identical.values())
    assert report(
        "criterion 9 (determinism across thread counts)",
        ok,
        f"byte-identical={identical}",
    )
