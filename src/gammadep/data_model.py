"""Core value types shared by every other module.

All types here are immutable after construction and safe to share across
threads and forked worker processes. Construction is a pure function of the inputs: building the
same Sample twice yields arrays that are equal byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import fail

DCOV = "dcov"
GHSIC = "ghsic"
PCOV = "pcov"

_KERNEL_ARITY = {DCOV: 4, GHSIC: 4, PCOV: 5}


class _Infinity:
    """Distinguished infinite exponent.

    A dedicated singleton rather than float('inf'): the exponent takes part
    in integer arithmetic (parity branches, repeated multiplication), so a
    float sentinel would invite silent type coercion bugs.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "inf"

    def __reduce__(self):
        # pickle protocols 0 and 1 would otherwise rebuild without __new__
        return (_Infinity, ())


INFINITY = _Infinity()

Gamma = Union[int, _Infinity]


def is_infinity(gamma) -> bool:
    return isinstance(gamma, _Infinity)


def normalize_gamma(value) -> Gamma:
    """Coerce ``value`` to a valid exponent: an integer >= 1 or INFINITY.

    Accepts ints, the INFINITY singleton, and the strings "inf"/"Inf"/"INF".
    """
    if is_infinity(value):
        return INFINITY
    if isinstance(value, str):
        if value.strip().lower() == "inf":
            return INFINITY
        try:
            value = int(value.strip())
        except ValueError:
            raise fail("BAD_GAMMA_SET", f"cannot parse gamma {value!r}") from None
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise fail("BAD_GAMMA_SET", f"gamma must be an integer or inf, got {value!r}")
    if value < 1:
        raise fail("BAD_GAMMA_SET", f"gamma must be >= 1, got {value}")
    return int(value)


def gamma_label(gamma: Gamma) -> str:
    """Stable string key for a gamma value ("1", "2", ..., "inf")."""
    return "inf" if is_infinity(gamma) else str(gamma)


def has_half_normal_limit(gamma: Gamma) -> bool:
    """True when the scaled statistic has the distribution-free null limit."""
    return is_infinity(gamma) or gamma % 2 == 0


@dataclass(frozen=True)
class GammaSet:
    """Ordered, duplicate-free candidate set of exponents."""

    gammas: tuple

    def __post_init__(self):
        normalized = tuple(normalize_gamma(g) for g in self.gammas)
        labels = [gamma_label(g) for g in normalized]
        if not normalized:
            raise fail("BAD_GAMMA_SET", "candidate set is empty")
        if len(set(labels)) != len(labels):
            raise fail("BAD_GAMMA_SET", f"duplicate gamma in {labels}")
        object.__setattr__(self, "gammas", normalized)

    @classmethod
    def from_string(cls, text: str) -> "GammaSet":
        """Parse a comma-separated list such as "1,2,3,4,5,6,inf"."""
        return cls(tuple(tok for tok in text.split(",") if tok.strip()))

    @classmethod
    def default(cls) -> "GammaSet":
        return cls((1, 2, 3, 4, 5, 6, INFINITY))

    def labels(self) -> list:
        return [gamma_label(g) for g in self.gammas]

    def __iter__(self):
        return iter(self.gammas)

    def __len__(self):
        return len(self.gammas)


def _frozen_matrix(values, name: str) -> np.ndarray:
    arr = np.array(values, dtype=np.float64, order="C", copy=True)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise fail("BAD_SHAPE", f"{name} must be a matrix, got ndim={arr.ndim}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Sample:
    """Paired observation matrices; rows are observations, columns coordinates."""

    x: np.ndarray
    y: np.ndarray

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def d1(self) -> int:
        return self.x.shape[1]

    @property
    def d2(self) -> int:
        return self.y.shape[1]


def validate_sample(x, y) -> Sample:
    """Validate and freeze a paired sample.

    Raises ROW_MISMATCH if the row counts differ, NONFINITE if any entry is
    NaN or infinite, EMPTY if there are no rows. Rows are never dropped.
    """
    xm = _frozen_matrix(x, "x")
    ym = _frozen_matrix(y, "y")
    if xm.shape[0] == 0 or ym.shape[0] == 0:
        raise fail("EMPTY", "sample has no rows")
    if xm.shape[0] != ym.shape[0]:
        raise fail("ROW_MISMATCH", f"x has {xm.shape[0]} rows, y has {ym.shape[0]}")
    if not np.isfinite(xm).all():
        raise fail("NONFINITE", "x contains NaN or infinite entries")
    if not np.isfinite(ym).all():
        raise fail("NONFINITE", "y contains NaN or infinite entries")
    return Sample(xm, ym)


@dataclass(frozen=True)
class KernelPairSpec:
    """Which kernel pair (f1, f2) to use, with its bandwidths; the arity
    ``m`` follows from the id."""

    id: str
    bandwidths: Optional[tuple] = None

    def __post_init__(self):
        if self.id not in _KERNEL_ARITY:
            raise fail("BAD_KERNEL", f"unknown kernel id {self.id!r}")
        if self.id == GHSIC:
            if self.bandwidths is None:
                raise fail("BAD_BANDWIDTH", "ghsic requires a (sigma1, sigma2) pair")
            try:
                bw = tuple(float(b) for b in self.bandwidths)
            except (TypeError, ValueError):
                bw = ()
            # the kernel divides by 2 sigma^2, which must neither underflow nor overflow
            if len(bw) != 2 or not all(b > 0 and 0.0 < 2.0 * b * b < math.inf for b in bw):
                raise fail(
                    "BAD_BANDWIDTH",
                    f"bandwidths must be two positive reals with 2 sigma^2 finite and nonzero, got {self.bandwidths!r}",
                )
            object.__setattr__(self, "bandwidths", bw)
        elif self.bandwidths is not None:
            raise fail("BAD_KERNEL", f"{self.id} takes no bandwidths")

    @property
    def m(self) -> int:
        """Arity: the number of arguments of f1 and f2."""
        return _KERNEL_ARITY[self.id]

    @classmethod
    def dcov(cls) -> "KernelPairSpec":
        return cls(DCOV)

    @classmethod
    def ghsic(cls, sigma1: float, sigma2: float) -> "KernelPairSpec":
        return cls(GHSIC, (sigma1, sigma2))

    @classmethod
    def pcov(cls) -> "KernelPairSpec":
        return cls(PCOV)

    @property
    def is_pair_dependent(self) -> bool:
        """True when the kernel value depends on two arguments only."""
        return self.id in (DCOV, GHSIC)


@dataclass(frozen=True)
class StatTriple:
    """The three unbiased estimates for one kernel pair."""

    s1: float
    s2: float
    s3: float

    def __post_init__(self):
        for name in ("s1", "s2", "s3"):
            v = float(getattr(self, name))
            if not math.isfinite(v):
                raise fail("NONFINITE", f"{name}={v!r}")
            object.__setattr__(self, name, v)

    @property
    def u(self) -> float:
        """First mean difference, s1 - s3."""
        return self.s1 - self.s3

    @property
    def v(self) -> float:
        """Second mean difference, s2 - s3."""
        return self.s2 - self.s3


@dataclass(frozen=True)
class GammaResult:
    """Per-exponent entries of a TestReport."""

    mu_hat: float
    scaled_stat: float
    p_perm: float
    p_asym: Optional[float] = None


@dataclass(frozen=True)
class CombinedResult:
    """Combined statistic on the original sample plus its permutation p-value."""

    stat: float
    p_perm: float


@dataclass(frozen=True)
class TestReport:
    """Full output of the permutation procedure for one sample.

    ``per_gamma`` maps each exponent to its GammaResult; ``combined`` maps
    combiner names ("fisher", "min", "cauchy") to CombinedResult. ``meta``
    echoes everything needed to regenerate the report (B, seed, kernel,
    candidate set, shapes, tie mode).
    """

    triple: StatTriple
    per_gamma: dict
    combined: dict
    sigma0_sq: Optional[float]
    meta: dict
