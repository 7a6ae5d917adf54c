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
from .inference import COMBINERS, PermutationPlan, _ordered_map, derive_seed, permutation_test
from .kernels import resolve_kernel_spec

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
    return np.random.Generator(np.random.Philox(key=np.uint64(seed & ((1 << 64) - 1))))


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


def gen_null(design: str, n: int, d: int, seed: int) -> np.ndarray:
    """One matrix of null-design draws."""
    if d < 1:
        raise fail("BAD_DIM", f"d must be >= 1, got {d}")
    if design not in _NULL_ERROR:
        raise fail("BAD_MODEL", f"unknown null design {design!r}")
    return _draw_error(_rng(seed), n, d, _NULL_ERROR[design])


@dataclass(frozen=True)
class SimConfig:
    """One simulation scenario. ``kappa=None`` resolves to the per-model
    default for the chosen error family."""

    model: str
    n: int
    d1: int
    d2: int
    error: str = "normal"
    kappa: Optional[float] = None
    reps: int = 500
    b_count: int = 200
    alpha: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.model not in NULL_DESIGNS + MODELS:
            raise fail("BAD_MODEL", f"unknown model {self.model!r}")
        if self.error not in ERRORS:
            raise fail("BAD_ERROR", f"unknown error family {self.error!r}")
        if self.model in MODELS and self.d2 != self.d1:
            raise fail("BAD_DIM", f"{self.model} needs d2 == d1, got {self.d1} vs {self.d2}")
        if not (0.0 < self.alpha < 1.0):
            raise fail("BAD_ALPHA", f"alpha must be in (0, 1), got {self.alpha}")
        if self.kappa is None and self.model in MODELS:
            object.__setattr__(self, "kappa", KAPPA_DEFAULTS[(self.model, self.error)])
        if self.kappa is not None and self.kappa < 0:
            raise fail("BAD_KAPPA", f"kappa must be nonnegative, got {self.kappa}")


def _draw_xy(cfg: SimConfig, count: int, rng: np.random.Generator):
    """``count`` iid (x, y) rows for the configured model.

    Draw order is fixed (x or w first, then the error, then the label) so
    results are reproducible for a given generator state.
    """
    d = cfg.d1
    k = cfg.kappa
    if cfg.model in _NULL_ERROR:
        family = _NULL_ERROR[cfg.model]
        x = _draw_error(rng, count, d, family)
        return x, _draw_error(rng, count, cfg.d2, family)
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
    """One validated sample of cfg.n rows from the configured model."""
    if cfg.model not in MODELS:
        raise fail("BAD_MODEL", f"gen_model serves m1..m5, got {cfg.model!r}")
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


def _kernel_pair_values(spec: KernelPairSpec, z: np.ndarray, i: int, j: int, which: int) -> np.ndarray:
    """Batched pair-kernel values f(z[:, i], z[:, j]) for a (count, m, d) block."""
    diff = z[:, i, :] - z[:, j, :]
    dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    if spec.id == "dcov":
        return dist
    sigma = spec.bandwidths[which]
    return np.exp(-dist / (2.0 * sigma * sigma))


def _angle_values(z: np.ndarray, i: int, j: int, apex: int) -> np.ndarray:
    u = z[:, i, :] - z[:, apex, :]
    v = z[:, j, :] - z[:, apex, :]
    nu = np.sqrt(np.einsum("ij,ij->i", u, u))
    nv = np.sqrt(np.einsum("ij,ij->i", v, v))
    if np.any(nu == 0.0) or np.any(nv == 0.0):
        raise fail("PCOV_SINGULAR", "zero-norm direction in population draw")
    cosine = np.clip(np.einsum("ij,ij->i", u, v) / (nu * nv), -1.0, 1.0)
    return np.arccos(cosine)


def mc_population_triple(
    cfg: SimConfig, spec: KernelPairSpec, n_mc: int, seed: int
) -> PopulationTriple:
    """Monte-Carlo estimates of the two mean differences with standard errors.

    Each replicate draws m fresh observations and evaluates the three index
    patterns on them; the three streams share the f1 factor, which couples
    them and makes sum = u + v hold exactly.
    """
    if n_mc < 1:
        raise fail("BAD_MC", f"n_mc must be positive, got {n_mc}")
    rng = _rng(seed)
    m = spec.m
    done = 0
    batches_u, batches_v, batches_s = [], [], []
    sq_u, sq_v, sq_s = [], [], []
    while done < n_mc:
        count = min(_MC_BATCH, n_mc - done)
        x, y = _draw_xy(cfg, count * m, rng)
        x = x.reshape(count, m, cfg.d1)
        y = y.reshape(count, m, cfg.d2)
        if spec.is_pair_dependent:
            f1 = _kernel_pair_values(spec, x, 0, 1, 0)
            t1 = f1 * _kernel_pair_values(spec, y, 0, 1, 1)
            t2 = f1 * _kernel_pair_values(spec, y, 2, 3, 1)
            t3 = f1 * _kernel_pair_values(spec, y, 0, 2, 1)
        else:
            f1 = _angle_values(x, 0, 1, 4)
            t1 = f1 * _angle_values(y, 0, 1, 4)
            t2 = f1 * _angle_values(y, 2, 3, 4)
            t3 = f1 * _angle_values(y, 0, 2, 4)
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
    reps: int
    alpha: float
    config: SimConfig
    kernel: str
    pvalues: np.ndarray = field(compare=False)

    def rate(self, method: str) -> float:
        return self.rejections[self.methods.index(method)] / self.reps

    def se(self, method: str) -> float:
        r = self.rate(method)
        return math.sqrt(r * (1.0 - r) / self.reps)

    def to_table_dict(self) -> dict:
        rows = [
            {
                "method": m,
                "rejections": self.rejections[i],
                "reps": self.reps,
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
            "alpha": self.alpha,
            "reps": self.reps,
            "b_count": self.config.b_count,
            "seed": self.config.seed,
            "kernel": self.kernel,
            "rows": rows,
        }

    def to_text(self) -> str:
        lines = [
            f"model={self.config.model} error={self.config.error} n={self.config.n} "
            f"d={self.config.d1} kappa={self.config.kappa} reps={self.reps} "
            f"B={self.config.b_count} alpha={self.alpha} seed={self.config.seed}",
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

    Each replication derives its data seed and permutation seed from
    (cfg.seed, replicate index), so the table is reproducible from the
    config alone and invariant to thread count.
    """
    if cfg.reps < 100:
        raise fail("TOO_FEW_REPS", f"need reps >= 100, got {cfg.reps}")
    glabels = [f"T{g}" for g in (str(g) for g in gammas)]
    combiners = tuple(combiners)
    methods = tuple(glabels) + combiners

    def one_rep(rep: int) -> np.ndarray:
        data_rng = _rng(derive_seed(cfg.seed, 0, rep))
        sample = validate_sample(*_draw_xy(cfg, cfg.n, data_rng))
        spec = resolve_kernel_spec(kernel, sample)
        plan = PermutationPlan(cfg.b_count, derive_seed(cfg.seed, 1, rep))
        report = permutation_test(
            sample, spec, gammas, plan, combiners, tie_mode=tie_mode
        )
        row = [report.per_gamma[g].p_perm for g in gammas]
        row += [report.combined[c].p_perm for c in combiners]
        return np.array(row)

    pvals = np.array(_ordered_map(one_rep, range(cfg.reps), threads), dtype=np.float64)

    rejections = tuple(int(c) for c in np.sum(pvals <= cfg.alpha, axis=0))
    return SizePowerResult(
        methods=methods,
        rejections=rejections,
        reps=cfg.reps,
        alpha=cfg.alpha,
        config=cfg,
        kernel=kernel,
        pvalues=pvals,
    )
