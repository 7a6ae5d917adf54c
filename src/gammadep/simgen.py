"""Data generators for the null designs and dependence models, Monte-Carlo
estimation of the population mean differences, and the size/power driver.

Null designs:
  null-a  zero-mean normal with banded covariance (unit diagonal, 0.5 on the
          first off-diagonals, zero beyond)
  null-b  t(3) with independent coordinates

Dependence models (x uniform on (-1, 1)^d unless stated; kappa scales the
noise; all models require d2 == d1):
  m1  y = x + kappa * eps
  m2  y = x^2 + kappa * eps
  m3  x = cos(pi w) + kappa * eps,  y = sin(pi w),  w uniform
  m4  x = w1 cos(-pi/4) + w2 sin(-pi/4) + kappa * eps
      y = -w1 sin(-pi/4) + w2 cos(-pi/4)
  m5  y = (x^2 + kappa * eps) (W - 1/2),  W per-row Bernoulli(1/2)

Squares, cos and sin act coordinatewise; m5's W multiplies every coordinate
of its row. Everything is a pure function of (config, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .data_model import GammaSet, KernelPairSpec, Sample, validate_sample
from .errors import fail
from .inference import COMBINERS, PermutationPlan, check_plan, check_seed, derive_seed
from .inference import permutation_pool, permutation_pvalues
from .kernels import F1, F2, kernel_values, resolve_kernel_spec

# each null design draws x and y independently from one error family
_NULL_ERROR = {"null-a": "normal", "null-b": "t3"}
NULL_DESIGNS = tuple(_NULL_ERROR)
MODELS = ("m1", "m2", "m3", "m4", "m5")
ERRORS = ("normal", "t3")

# noise scale per (model, error family)
KAPPA_DEFAULTS = {
    ("m1", "normal"): 1.5,
    ("m1", "t3"): 0.4,
    ("m2", "normal"): 0.1,
    ("m2", "t3"): 0.05,
    ("m3", "normal"): 0.5,
    ("m3", "t3"): 0.15,
    ("m4", "normal"): 0.05,
    ("m4", "t3"): 0.05,
    ("m5", "normal"): 0.5,
    ("m5", "t3"): 0.1,
}

_MC_BATCH = 50_000


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


def banded_cholesky(d: int) -> np.ndarray:
    """Lower Cholesky factor of the banded covariance; raises NOT_PD if the
    factorization fails rather than regularizing silently."""
    sigma = np.eye(d)
    for i in range(d - 1):
        sigma[i, i + 1] = sigma[i + 1, i] = 0.5
    try:
        return np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError as exc:
        raise fail("NOT_PD", f"banded covariance not positive definite at d={d}") from exc


def _draw_error(rng: np.random.Generator, count: int, d: int, family: str) -> np.ndarray:
    if family == "normal":
        return rng.standard_normal((count, d)) @ banded_cholesky(d).T
    if family == "t3":
        return rng.standard_t(3, size=(count, d))
    raise fail("BAD_ERROR", f"unknown error family {family!r}")


@dataclass(frozen=True)
class SimConfig:
    """One simulation scenario. ``error=None`` resolves to the null design's
    own family, or to "normal" for m1..m5; ``kappa=None`` resolves to the
    per-model default for that family. A null design takes no kappa and no
    family but its own."""

    model: str
    n: int
    d1: int
    d2: int
    error: Optional[str] = None
    kappa: Optional[float] = None
    reps: int = 500
    b_count: int = 200
    alpha: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.model not in NULL_DESIGNS + MODELS:
            raise fail("BAD_MODEL", f"unknown model {self.model!r}")
        family = _NULL_ERROR.get(self.model, "normal")
        if self.error is None:
            object.__setattr__(self, "error", family)
        if self.model in _NULL_ERROR and self.error != family:
            raise fail("BAD_ERROR", f"{self.model} draws {family} noise, got error {self.error!r}")
        if self.model in _NULL_ERROR and self.kappa is not None:
            raise fail("BAD_KAPPA", f"{self.model} takes no kappa, got {self.kappa}")
        if self.error not in ERRORS:
            raise fail("BAD_ERROR", f"unknown error family {self.error!r}")
        if self.n < 1:
            raise fail("TOO_SMALL", f"n must be >= 1, got {self.n}")
        if min(self.d1, self.d2) < 1:
            raise fail("BAD_DIM", f"d1 and d2 must be >= 1, got {self.d1} and {self.d2}")
        if self.model in MODELS and self.d2 != self.d1:
            raise fail("BAD_DIM", f"{self.model} needs d2 == d1, got {self.d1} vs {self.d2}")
        if not (0.0 < self.alpha < 1.0):
            raise fail("BAD_ALPHA", f"alpha must be in (0, 1), got {self.alpha}")
        check_seed(self.seed)
        if self.kappa is None and self.model in MODELS:
            object.__setattr__(self, "kappa", KAPPA_DEFAULTS[(self.model, self.error)])
        if self.kappa is not None and not (0.0 <= self.kappa < math.inf):
            raise fail("BAD_KAPPA", f"kappa must be finite and nonnegative, got {self.kappa}")


@np.errstate(over="ignore")
def _draw_xy(cfg: SimConfig, count: int, rng: np.random.Generator):
    """``count`` iid (x, y) rows for the configured model.

    Draw order is fixed (x or w first, then the error, then the label) so
    results are reproducible for a given generator state. A kappa * eps
    past float range is an inf entry, which every caller refuses with
    NONFINITE.
    """
    d = cfg.d1
    k = cfg.kappa
    if cfg.model in _NULL_ERROR:
        x = _draw_error(rng, count, d, cfg.error)
        return x, _draw_error(rng, count, cfg.d2, cfg.error)
    if cfg.model == "m1":
        x = rng.uniform(-1.0, 1.0, (count, d))
        eps = _draw_error(rng, count, d, cfg.error)
        return x, x + k * eps
    if cfg.model == "m2":
        x = rng.uniform(-1.0, 1.0, (count, d))
        eps = _draw_error(rng, count, d, cfg.error)
        return x, x**2 + k * eps
    if cfg.model == "m3":
        w = rng.uniform(-1.0, 1.0, (count, d))
        eps = _draw_error(rng, count, d, cfg.error)
        return np.cos(np.pi * w) + k * eps, np.sin(np.pi * w)
    if cfg.model == "m4":
        w1 = rng.uniform(-1.0, 1.0, (count, d))
        w2 = rng.uniform(-1.0, 1.0, (count, d))
        eps = _draw_error(rng, count, d, cfg.error)
        c, s = math.cos(-math.pi / 4.0), math.sin(-math.pi / 4.0)
        return w1 * c + w2 * s + k * eps, -w1 * s + w2 * c
    # m5
    x = rng.uniform(-1.0, 1.0, (count, d))
    eps = _draw_error(rng, count, d, cfg.error)
    w = rng.integers(0, 2, size=(count, 1)).astype(np.float64)
    return x, (x**2 + k * eps) * (w - 0.5)


def gen_model(cfg: SimConfig, rng: Optional[np.random.Generator] = None) -> Sample:
    """One validated sample of cfg.n rows from the configured null design or
    model, drawn from ``rng`` or else from a generator keyed by cfg.seed."""
    if rng is None:
        rng = _rng(cfg.seed)
    x, y = _draw_xy(cfg, cfg.n, rng)
    return validate_sample(x, y)


@dataclass(frozen=True)
class PopulationTriple:
    """Monte-Carlo estimates of the two population mean differences."""

    u: float
    v: float
    sum: float
    se_u: float
    se_v: float
    se_sum: float
    n_mc: int

    def __post_init__(self):
        for name in ("u", "v", "sum", "se_u", "se_v", "se_sum"):
            if not math.isfinite(getattr(self, name)):
                raise fail("NONFINITE", f"{name}={getattr(self, name)!r}")

    def to_dict(self) -> dict:
        return {
            "u": self.u,
            "v": self.v,
            "sum": self.sum,
            "se_u": self.se_u,
            "se_v": self.se_v,
            "se_sum": self.se_sum,
            "n_mc": self.n_mc,
        }


def mc_population_triple(cfg: SimConfig, spec: KernelPairSpec, n_mc: int) -> PopulationTriple:
    """Monte-Carlo estimates of the two mean differences with standard errors,
    drawn from a generator keyed by cfg.seed.

    Each replicate draws m fresh observations and evaluates the three index
    patterns on them; the three streams share the f1 factor, which couples
    them and makes sum = u + v hold exactly.
    """
    if n_mc < 1:
        raise fail("BAD_MC", f"n_mc must be positive, got {n_mc}")
    rng = _rng(cfg.seed)
    m = spec.m
    rest = tuple(range(4, m))
    done = 0
    batches_u, batches_v, batches_s = [], [], []
    sq_u, sq_v, sq_s = [], [], []
    while done < n_mc:
        count = min(_MC_BATCH, n_mc - done)
        x, y = _draw_xy(cfg, count * m, rng)
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise fail("NONFINITE", "a draw is past float range; lower kappa")
        x = x.reshape(count, m, cfg.d1)
        y = y.reshape(count, m, cfg.d2)
        # a kernel value past float range is inf or nan, refused before the
        # streams combine it; a square past it gives an inf se, refused below
        with np.errstate(over="ignore", invalid="ignore"):
            # each stream reorders y so that its index pair sits at z1, z2
            f1 = kernel_values(spec, F1, x)
            t1 = f1 * kernel_values(spec, F2, y)
            t2 = f1 * kernel_values(spec, F2, y[:, (2, 3, 0, 1) + rest])
            t3 = f1 * kernel_values(spec, F2, y[:, (0, 2, 1, 3) + rest])
            if not all(np.isfinite(t).all() for t in (t1, t2, t3)):
                raise fail("NONFINITE", "a kernel value or product is past float range")
            us = t1 - t3
            vs = t2 - t3
            ss = t1 + t2 - 2.0 * t3
            batches_u.append(float(np.sum(us)))
            batches_v.append(float(np.sum(vs)))
            batches_s.append(float(np.sum(ss)))
            sq_u.append(float(np.sum(us * us)))
            sq_v.append(float(np.sum(vs * vs)))
            sq_s.append(float(np.sum(ss * ss)))
        done += count

    def _mean_se(sums_list, sq_list):
        total = math.fsum(sums_list)
        total_sq = math.fsum(sq_list)
        mean = total / n_mc
        var = max(0.0, total_sq / n_mc - mean * mean)
        return mean, math.sqrt(var / n_mc)

    u, se_u = _mean_se(batches_u, sq_u)
    v, se_v = _mean_se(batches_v, sq_v)
    _, se_s = _mean_se(batches_s, sq_s)
    return PopulationTriple(u, v, u + v, se_u, se_v, se_s, n_mc)


@dataclass(frozen=True)
class SizePowerResult:
    """Rejection rates per method plus the raw per-replication p-values."""

    methods: tuple
    rejections: tuple
    config: SimConfig
    kernel: str
    pvalues: np.ndarray = field(compare=False)

    def rate(self, method: str) -> float:
        return self.rejections[self.methods.index(method)] / self.config.reps

    def se(self, method: str) -> float:
        r = self.rate(method)
        return math.sqrt(r * (1.0 - r) / self.config.reps)

    def to_table_dict(self) -> dict:
        rows = [
            {
                "method": m,
                "rejections": self.rejections[i],
                "reps": self.config.reps,
                "rate": self.rate(m),
                "se": self.se(m),
            }
            for i, m in enumerate(self.methods)
        ]
        return {
            "model": self.config.model,
            "error": self.config.error,
            "n": self.config.n,
            "d1": self.config.d1,
            "d2": self.config.d2,
            "kappa": self.config.kappa,
            "alpha": self.config.alpha,
            "reps": self.config.reps,
            "b_count": self.config.b_count,
            "seed": self.config.seed,
            "kernel": self.kernel,
            "rows": rows,
        }

    def to_text(self) -> str:
        lines = [
            f"model={self.config.model} error={self.config.error} n={self.config.n} "
            f"d={self.config.d1} kappa={self.config.kappa} reps={self.config.reps} "
            f"B={self.config.b_count} alpha={self.config.alpha} seed={self.config.seed}",
            f"{'method':<10} {'rate':>8} {'se':>8} {'rejections':>11}",
        ]
        for i, m in enumerate(self.methods):
            lines.append(f"{m:<10} {self.rate(m):>8.3f} {self.se(m):>8.3f} {self.rejections[i]:>11d}")
        return "\n".join(lines)


def size_power_experiment(
    cfg: SimConfig,
    gammas: GammaSet,
    combiners=COMBINERS,
    *,
    kernel: str = "dcov",
    threads: int = 1,
    tie_mode: str = "strict",
) -> SizePowerResult:
    """Rejection frequencies of every per-exponent test and combiner.

    The combiners and tie mode are checked once, before any draw. Each
    replication runs the permutation pool and its p-values, not a full
    ``permutation_test`` (no jackknife, no report), and keeps row 0 of its
    p-value matrix. The pool splits its permutations over ``threads``
    forked worker processes only from B n^2 >= ``inference._FORK_MIN_WORK``
    (8e6) on. Each replication derives its data and permutation seeds from
    (cfg.seed, rep), so the table is reproducible from the config alone and
    invariant to the worker count.
    """
    if cfg.reps < 100:
        raise fail("TOO_FEW_REPS", f"need reps >= 100, got {cfg.reps}")
    combiners = check_plan(combiners, tie_mode)
    methods = tuple(f"T{g}" for g in gammas) + combiners

    pvals = np.empty((cfg.reps, len(methods)), dtype=np.float64)
    for rep in range(cfg.reps):
        sample = gen_model(cfg, _rng(derive_seed(cfg.seed, 0, rep)))
        spec = resolve_kernel_spec(kernel, sample)
        plan = PermutationPlan(cfg.b_count, derive_seed(cfg.seed, 1, rep))
        *_, scaled = permutation_pool(sample, spec, gammas, plan, threads=threads)
        p, _ = permutation_pvalues(scaled, combiners, tie_mode)
        pvals[rep] = p[0]

    rejections = tuple(int(c) for c in np.sum(pvals <= cfg.alpha, axis=0))
    return SizePowerResult(
        methods=methods,
        rejections=rejections,
        config=cfg,
        kernel=kernel,
        pvalues=pvals,
    )
