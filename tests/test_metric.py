"""Aggregation-layer tests: worked examples plus the four ordering clauses."""

import math

import numpy as np
import pytest

from gammadep import (
    INFINITY,
    GammaSet,
    KernelPairSpec,
    StatTriple,
    aggregate,
    gamma_stats,
    rate_w,
)

SLACK = 1e-12


class TestAggregate:
    def test_max_branch(self):
        assert aggregate(0.073, -0.012, INFINITY) == 0.073

    def test_euclidean_branch(self):
        got = aggregate(0.073, -0.012, 2)
        assert got == pytest.approx(math.sqrt(0.073**2 + 0.012**2), rel=1e-12)
        assert got == pytest.approx(0.0739797, abs=1e-7)

    def test_zero_point(self):
        for g in (1, 2, 3, 6, INFINITY):
            assert aggregate(0.0, 0.0, g) == 0.0

    def test_cancellation_at_one(self):
        assert aggregate(-0.025, 0.025, 1) == 0.0

    def test_odd_root_preserves_sign(self):
        # u^3 + v^3 = -7 here; the real root is negative
        got = aggregate(-2.0, 1.0, 3)
        assert got == pytest.approx(-(7.0 ** (1.0 / 3.0)), rel=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            u, v = rng.standard_normal(2)
            for g in (1, 2, 3, 4, 5, INFINITY):
                assert aggregate(u, v, g) == pytest.approx(aggregate(v, u, g), rel=1e-12, abs=1e-300)

    def test_nonnegative_for_even_and_max_when_sum_nonneg(self):
        rng = np.random.default_rng(1)
        for _ in range(500):
            u = rng.uniform(-1, 2)
            v = rng.uniform(max(-u, -1), 2)  # ensures u + v >= 0
            assert aggregate(u, v, 2) >= 0.0
            assert aggregate(u, v, 6) >= 0.0
            assert aggregate(u, v, INFINITY) >= -SLACK


class TestRateW:
    def test_gamma_one_is_n(self):
        assert rate_w(100, 1) == 100.0

    def test_even_is_sqrt_n(self):
        assert rate_w(100, 2) == 10.0
        assert rate_w(100, INFINITY) == 10.0

    def test_odd_formula(self):
        assert rate_w(100, 3) == pytest.approx(100.0 ** (2.0 / 3.0), rel=1e-12)
        assert rate_w(100, 3) == pytest.approx(21.5443469, abs=1e-7)


def ordering_violations(u, v):
    """Check the four ordering clauses for one pair; returns messages."""
    bad = []

    def gt(a, b, label):
        if not (a > b - SLACK):
            bad.append(f"{label}: {a} !> {b}")

    evens = [2, 4, 6]
    odds = [3, 5]
    m_inf = aggregate(u, v, INFINITY)
    m_one = aggregate(u, v, 1)
    if u > 0 and v > 0:
        chain = [m_one] + [aggregate(u, v, g) for g in range(2, 7)] + [m_inf]
        for a, b in zip(chain, chain[1:]):
            gt(a, b, "both-positive chain")
        gt(m_inf, 0.0, "both-positive floor")
    elif u + v > 0 and u * v != 0 and min(u, v) < 0:
        me = [aggregate(u, v, g) for g in evens]
        mo = [aggregate(u, v, g) for g in odds]
        gt(me[0], m_inf, "even > inf")
        gt(m_inf, m_one, "inf > one (even clause)")
        gt(m_one, 0.0, "one > 0")
        for a, b in zip(me, me[1:]):
            gt(a, b, "even decreasing")
        gt(me[-1], m_inf, "last even > inf")
        gt(m_inf, mo[-1], "inf > odd")
        for a, b in zip(mo[1:], mo):
            gt(a, b, "odd increasing")
        gt(mo[0], m_one, "odd > one")
    elif (u == 0) != (v == 0) and max(u, v) > 0:
        ref = m_one
        for g in list(range(2, 7)) + [INFINITY]:
            val = aggregate(u, v, g)
            if abs(val - ref) > SLACK:
                bad.append(f"zero clause: {val} != {ref} at gamma={g}")
    return bad


class TestOrderingClauses:
    def test_one_negative_even_and_odd_chains(self):
        rng = np.random.default_rng(2)
        for _ in range(2000):
            mag = 10.0 ** rng.uniform(-1, 1)
            ratio = rng.uniform(0.05, 0.9)
            u, v = mag, -mag * ratio
            if rng.random() < 0.5:
                u, v = v, u
            assert ordering_violations(u, v) == []

    def test_both_positive_chain(self):
        rng = np.random.default_rng(3)
        for _ in range(2000):
            u = 10.0 ** rng.uniform(-1, 1)
            v = u * 10.0 ** rng.uniform(-1, 1)
            assert ordering_violations(u, v) == []

    def test_one_zero_collapses_all_gammas(self):
        rng = np.random.default_rng(4)
        for _ in range(500):
            u = 10.0 ** rng.uniform(-1, 1)
            pair = (u, 0.0) if rng.random() < 0.5 else (0.0, u)
            assert ordering_violations(*pair) == []


class TestGammaStats:
    def test_zero_triple(self):
        t = StatTriple(0.0, 0.0, 0.0, 50, KernelPairSpec.dcov())
        mu, scaled = gamma_stats(t, GammaSet.default())
        assert mu.shape == scaled.shape == (len(GammaSet.default()),)
        assert np.all(mu == 0.0)
        assert np.all(scaled == 0.0)

    def test_gamma_one_recovers_linear_combination(self):
        t = StatTriple(1.3, 0.9, 0.7, 36, KernelPairSpec.dcov())
        mu, scaled = gamma_stats(t, GammaSet((1,)))
        assert mu[0] == pytest.approx(t.s1 + t.s2 - 2.0 * t.s3, rel=1e-12)
        assert scaled[0] == pytest.approx(36.0 * mu[0], rel=1e-12)

    def test_entries_are_aggregate_times_rate(self):
        t = StatTriple(1.0, 0.4, 0.6, 25, KernelPairSpec.dcov())
        gammas = GammaSet.default()
        mu, scaled = gamma_stats(t, gammas)
        for j, g in enumerate(gammas):
            assert mu[j] == aggregate(t.u, t.v, g)
            assert scaled[j] == rate_w(25, g) * aggregate(t.u, t.v, g)

    def test_cross_gamma_ordering_on_estimates(self):
        # mixed-sign estimates: even exponents dominate, max next, odd grow
        t = StatTriple(1.0, 0.4, 0.6, 25, KernelPairSpec.dcov())
        gammas = GammaSet.default()
        by_gamma = dict(zip(gammas, gamma_stats(t, gammas)[0]))
        u, v = t.u, t.v  # 0.4, -0.2
        assert u + v > 0 and min(u, v) < 0
        assert by_gamma[2] > by_gamma[4] > by_gamma[6] > by_gamma[INFINITY]
        assert by_gamma[INFINITY] > by_gamma[5] > by_gamma[3] > by_gamma[1] > 0
