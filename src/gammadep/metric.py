"""Aggregation of the two mean differences into a single metric per exponent.

For a finite exponent g the metric is the signed g-root of u^g + v^g; for
the infinite exponent it is max(u, v). Odd exponents use the sign-preserving
real root: in finite samples u^g + v^g can dip below zero even though the
population sum is nonnegative, and the principal complex root would be
meaningless there.
"""

from __future__ import annotations

import numpy as np

from .data_model import Gamma, GammaSet, StatTriple, gamma_is_even, is_infinity


def _int_pow(base: float, exponent: int) -> float:
    # repeated multiplication keeps small integer powers exact-ish; pow()
    # beyond 8 where the loop stops paying for itself
    if exponent > 8:
        return float(base**exponent)
    out = 1.0
    for _ in range(exponent):
        out *= base
    return out


def aggregate(u: float, v: float, gamma: Gamma) -> float:
    """Combine the two mean differences at one exponent.

    Finite gamma: sign(s) * |s|^(1/gamma) with s = u^gamma + v^gamma
    (plain root for even gamma where s >= 0). Infinite gamma: max(u, v).
    """
    u = float(u)
    v = float(v)
    if is_infinity(gamma):
        return max(u, v)
    if gamma == 1:
        return u + v
    s = _int_pow(u, gamma) + _int_pow(v, gamma)
    if gamma_is_even(gamma):
        return float(s ** (1.0 / gamma))
    return float(np.copysign(abs(s) ** (1.0 / gamma), s)) if s != 0.0 else 0.0


def rate_w(n: int, gamma: Gamma) -> float:
    """Convergence-rate factor: n^((g+1)/(2g)) for odd g, sqrt(n) otherwise."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if is_infinity(gamma) or gamma % 2 == 0:
        return float(n**0.5)
    return float(n ** ((gamma + 1.0) / (2.0 * gamma)))


def gamma_stats(triple: StatTriple, gammas: GammaSet):
    """Metric values and scaled statistics for one triple, as two float
    arrays in candidate-set order: (mu_hat, rate_w * mu_hat)."""
    u = triple.u
    v = triple.v
    mu = np.array([aggregate(u, v, g) for g in gammas])
    scaled = mu * np.array([rate_w(triple.n, g) for g in gammas])
    return mu, scaled
