"""Aggregation of the two mean differences into a single metric per exponent.

For every finite exponent g the metric is the signed g-root
sign(s) * |s|^(1/g) of s = u^g + v^g; for the infinite exponent it is
max(u, v). The sign matters only for odd g: in finite samples u^g + v^g can
dip below zero even though the population sum is nonnegative, and the
principal complex root would be meaningless there. Each power is a product
of g factors, and a sum that is not finite raises NONFINITE.
"""

from __future__ import annotations

import math

import numpy as np

from .data_model import Gamma, GammaSet, StatTriple, has_half_normal_limit, is_infinity
from .errors import fail


def aggregate(u: float, v: float, gamma: Gamma) -> float:
    """Combine the two mean differences at one exponent.

    Finite gamma: sign(s) * |s|^(1/gamma) with s = u^gamma + v^gamma, each
    power taken as a product of gamma factors, and 0.0 when s == 0.
    Infinite gamma: max(u, v). Raises NONFINITE when s is not finite.
    """
    u = float(u)
    v = float(v)
    if is_infinity(gamma):
        return max(u, v)
    s = math.prod([u] * gamma) + math.prod([v] * gamma)
    if not math.isfinite(s):
        msg = f"u^{gamma} + v^{gamma} is not finite at gamma {gamma} (u={u!r}, v={v!r})"
        raise fail("NONFINITE", msg)
    if s == 0.0:
        return 0.0
    return math.copysign(abs(s) ** (1.0 / gamma), s)


def rate_w(n: int, gamma: Gamma) -> float:
    """Convergence-rate factor: n^((g+1)/(2g)) for odd g, sqrt(n) otherwise."""
    if n < 1:
        raise fail("TOO_SMALL", f"n must be >= 1, got {n}")
    if has_half_normal_limit(gamma):
        return float(n**0.5)
    return float(n ** ((gamma + 1.0) / (2.0 * gamma)))


def gamma_stats(triple: StatTriple, gammas: GammaSet) -> np.ndarray:
    """Metric values mu_hat for one triple, one float per exponent in
    candidate-set order; gamma = 1 is the triple's own u + v. The caller
    scales them by ``rate_w``."""
    u = triple.u
    v = triple.v
    return np.array([triple.mu1 if g == 1 else aggregate(u, v, g) for g in gammas])
