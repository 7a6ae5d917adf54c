"""Aggregation-layer tests: worked examples, the four ordering clauses, exact
laws of the one signed-root formula, and the rate row of a report."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gammadep import (
    INFINITY,
    GammadepError,
    GammaSet,
    KernelPairSpec,
    PermutationPlan,
    StatTriple,
    aggregate,
    gamma_stats,
    permutation_test,
    rate_w,
    validate_sample,
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
                assert aggregate(u, v, g) == aggregate(v, u, g)

    def test_nonnegative_for_even_and_max_when_sum_nonneg(self):
        rng = np.random.default_rng(1)
        for _ in range(500):
            u = rng.uniform(-1, 2)
            v = rng.uniform(max(-u, -1), 2)  # ensures u + v >= 0
            assert aggregate(u, v, 2) >= 0.0
            assert aggregate(u, v, 6) >= 0.0
            assert aggregate(u, v, INFINITY) >= -SLACK

    def test_overflow_raises_for_every_finite_gamma(self):
        for u, v, g in ((1e308, 1e308, 1), (1e200, 0.0, 2), (-1e200, 1e200, 3), (1e200, 0.0, 10)):
            with pytest.raises(GammadepError) as exc:
                aggregate(u, v, g)
            assert exc.value.code == "NONFINITE"
            assert f"u^{g}" in str(exc.value) and f"gamma {g}" in str(exc.value)


def _loop_pow(base, k):
    out = 1.0
    for _ in range(k):
        out *= base
    return out


def _seeded_pairs():
    rng = np.random.default_rng(5)
    pairs = [(0.0, 0.0), (0.0, 1.5), (-2.0, 0.0), (0.3, -0.3), (-1e-120, -1e-120)]
    for _ in range(2000):
        u, v = rng.standard_normal(2) * 10.0 ** rng.uniform(-3, 2, size=2)
        pairs.append((float(u), float(v)))
    return pairs


class TestOneFormulaMatchesDeletedBranches:
    """The single signed-root formula reproduces, bit for bit, the separate
    even and odd (gamma <= 8) branches it replaced; gamma = 1 is checked
    against u + v in TestAggregateLaws."""

    def test_even_is_the_plain_root(self):
        for g in (2, 4, 6, 8):
            for u, v in _seeded_pairs():
                s = _loop_pow(u, g) + _loop_pow(v, g)
                assert aggregate(u, v, g) == s ** (1.0 / g)

    def test_odd_is_the_signed_root(self):
        for g in (3, 5, 7):
            for u, v in _seeded_pairs():
                s = _loop_pow(u, g) + _loop_pow(v, g)
                want = float(np.copysign(abs(s) ** (1.0 / g), s)) if s != 0.0 else 0.0
                assert aggregate(u, v, g) == want


_finite = st.floats(min_value=-1e30, max_value=1e30, allow_nan=False, allow_infinity=False)
_gammas = st.sampled_from((1, 2, 3, 4, 5, 6, 7, 8, INFINITY))


class TestAggregateLaws:
    @settings(derandomize=True, deadline=None)
    @given(_finite, _finite, _gammas)
    def test_symmetric_in_u_and_v(self, u, v, g):
        assert aggregate(u, v, g) == aggregate(v, u, g)

    @settings(derandomize=True, deadline=None)
    @given(_finite, _finite)
    @example(0.0, 0.0)
    @example(0.0, -1.5)
    @example(0.3, -0.3)
    def test_gamma_one_is_the_sum(self, u, v):
        assert aggregate(u, v, 1) == u + v

    @settings(derandomize=True, deadline=None)
    @given(_finite, _finite, st.sampled_from((2, 4, 6, 8, INFINITY)))
    def test_even_and_max_nonnegative_when_sum_is(self, u, v, g):
        if u + v >= 0.0:
            assert aggregate(u, v, g) >= 0.0


class TestRateW:
    def test_gamma_one_is_n(self):
        assert rate_w(100, 1) == 100.0

    def test_even_is_sqrt_n(self):
        assert rate_w(100, 2) == 10.0
        assert rate_w(100, INFINITY) == 10.0

    def test_odd_formula(self):
        assert rate_w(100, 3) == pytest.approx(100.0 ** (2.0 / 3.0), rel=1e-12)
        assert rate_w(100, 3) == pytest.approx(21.5443469, abs=1e-7)

    @pytest.mark.parametrize("n", [0, -3])
    def test_n_below_one_is_a_coded_error(self, n):
        with pytest.raises(GammadepError) as exc:
            rate_w(n, 2)
        assert exc.value.code == "TOO_SMALL"


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
        t = StatTriple(0.0, 0.0, 0.0)
        mu = gamma_stats(t, GammaSet.default())
        assert mu.shape == (len(GammaSet.default()),)
        assert np.all(mu == 0.0)

    def test_gamma_one_recovers_linear_combination(self):
        t = StatTriple(1.3, 0.9, 0.7)
        mu = gamma_stats(t, GammaSet((1,)))
        assert mu.shape == (1,)
        assert mu[0] == pytest.approx(t.s1 + t.s2 - 2.0 * t.s3, rel=1e-12)

    def test_entries_are_aggregate_times_rate(self):
        t = StatTriple(1.0, 0.4, 0.6)
        gammas = GammaSet.default()
        mu = gamma_stats(t, gammas)
        for j, g in enumerate(gammas):
            assert mu[j] == aggregate(t.u, t.v, g)
        # the report scales mu_hat by the rate row, one IEEE multiply each
        rng = np.random.default_rng(8)
        x = rng.standard_normal((25, 2))
        sample = validate_sample(x, x + rng.standard_normal((25, 2)))
        report = permutation_test(sample, KernelPairSpec.dcov(), gammas, PermutationPlan(19, 2))
        for g in gammas:
            res = report.per_gamma[g]
            assert res.scaled_stat == res.mu_hat * rate_w(25, g)

    def test_cross_gamma_ordering_on_estimates(self):
        # mixed-sign estimates: even exponents dominate, max next, odd grow
        t = StatTriple(1.0, 0.4, 0.6)
        gammas = GammaSet.default()
        by_gamma = dict(zip(gammas, gamma_stats(t, gammas)))
        u, v = t.u, t.v  # 0.4, -0.2
        assert u + v > 0 and min(u, v) < 0
        assert by_gamma[2] > by_gamma[4] > by_gamma[6] > by_gamma[INFINITY]
        assert by_gamma[INFINITY] > by_gamma[5] > by_gamma[3] > by_gamma[1] > 0
