"""Inference tests: combiner arithmetic, the half-normal tail, permutation
pooling mechanics re-derived by hand, and seeded determinism."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gammadep import (
    COMBINERS,
    INFINITY,
    GammaSet,
    GammadepError,
    KernelPairSpec,
    PermutationPlan,
    asymptotic_pvalue,
    combine_cauchy,
    combine_fisher,
    combine_min,
    build_pair_matrices,
    fast_triple_pair,
    jackknife_fast,
    median_bandwidth,
    permutation_sigma0_sq,
    permutation_test,
    rate_w,
    validate_sample,
)
from gammadep.errors import fail
from gammadep.inference import (
    _FORK_MIN_WORK,
    _pool_pvalues,
    derive_seed,
    permutation_pool,
    permutation_pvalues,
)
from gammadep.kernels import pair_peak_bytes
from gammadep.ustat import PairStatCore


class TestAsymptoticPvalue:
    def test_zero_statistic_gives_one(self):
        assert asymptotic_pvalue(0.0, 2, 1.0, 4) == 1.0

    def test_standard_normal_quantile(self):
        # t = 1.959964 when scaled_mu = t * 2^(1/2) * m * sigma0
        t = 1.959964
        p = asymptotic_pvalue(t * math.sqrt(2.0) * 4 * 0.5, 2, 0.5, 4)
        assert p == pytest.approx(0.05, abs=1e-6)

    def test_infinite_gamma_drops_the_root_factor(self):
        p2 = asymptotic_pvalue(1.0, 2, 1.0, 4)
        pinf = asymptotic_pvalue(1.0, INFINITY, 1.0, 4)
        # same scaled statistic studentizes larger without the 2^(1/2)
        assert pinf < p2

    def test_odd_gamma_rejected(self):
        with pytest.raises(GammadepError) as exc:
            asymptotic_pvalue(1.0, 3, 1.0, 4)
        assert exc.value.code == "BAD_GAMMA"

    def test_bad_sigma(self):
        with pytest.raises(GammadepError) as exc:
            asymptotic_pvalue(1.0, 2, 0.0, 4)
        assert exc.value.code == "BAD_SIGMA"

    def test_negative_statistic_clamps_to_one(self):
        assert asymptotic_pvalue(-3.0, INFINITY, 1.0, 4) == 1.0


class TestCombiners:
    def test_fisher_examples(self):
        assert combine_fisher([0.05, 0.05]) == pytest.approx(-4.0 * math.log(0.05), rel=1e-12)
        assert combine_fisher([0.05, 0.05]) == pytest.approx(11.9829, abs=1e-4)
        assert combine_fisher([1.0, 1.0, 1.0]) == 0.0
        assert combine_fisher([0.5]) == pytest.approx(1.386294, abs=1e-6)

    def test_fisher_zero_p(self):
        with pytest.raises(GammadepError) as exc:
            combine_fisher([0.2, 0.0])
        assert exc.value.code == "ZERO_P"

    def test_fisher_monotone_and_order_free(self):
        base = combine_fisher([0.2, 0.4, 0.6])
        assert combine_fisher([0.6, 0.2, 0.4]) == pytest.approx(base, rel=1e-12)
        assert combine_fisher([0.1, 0.4, 0.6]) > base

    def test_min_examples(self):
        assert combine_min([0.2, 0.05, 0.6]) == -0.05
        assert combine_min([1.0, 1.0]) == -1.0
        assert combine_min([0.5]) == -0.5

    def test_cauchy_examples(self):
        assert combine_cauchy([0.5, 0.5]) == pytest.approx(0.0, abs=1e-12)
        assert combine_cauchy([0.25]) == pytest.approx(0.5, rel=1e-12)
        assert combine_cauchy([0.75]) == pytest.approx(-0.5, rel=1e-12)

    def test_cauchy_boundary(self):
        with pytest.raises(GammadepError) as exc:
            combine_cauchy([1.0, 0.2])
        assert exc.value.code == "P_BOUNDARY"


    def test_rowwise_equals_per_row_loop_bit_for_bit(self):
        # the permutation test reduces the (B+1) x L p-value matrix in one
        # call per combiner; each row must be the statistic of its vector
        rng = np.random.default_rng(31)
        pmat = rng.integers(1, 201, size=(201, 7)) / 201.0
        capped = np.minimum(pmat, 200 / 201.0)
        for fn, feed in ((combine_fisher, pmat), (combine_min, pmat), (combine_cauchy, capped)):
            rows = fn(feed)
            loop = np.array([float(fn(list(feed[i]))) for i in range(feed.shape[0])])
            assert rows.shape == (201,)
            assert rows.tobytes() == loop.tobytes()

    def test_rowwise_checks_every_row(self):
        pmat = np.full((5, 3), 0.5)
        pmat[3, 1] = 0.0
        with pytest.raises(GammadepError) as exc:
            combine_fisher(pmat)
        assert exc.value.code == "ZERO_P"
        with pytest.raises(GammadepError) as exc:
            combine_cauchy(pmat)
        assert exc.value.code == "P_BOUNDARY"


def add_one_p_of_member_zero(pool, tie_mode):
    """Reference: member 0 counted against members 1..B, add-one rule."""
    if max(pool) == min(pool):
        return 1.0
    if tie_mode == "strict":
        count = sum(1 for s in pool[1:] if s > pool[0])
    else:
        count = sum(1 for s in pool[1:] if s >= pool[0])
    return (1.0 + count) / len(pool)


class TestPoolPvalues:
    POOLS = (
        [0.3, 0.1, 0.5, 0.2, 0.9],
        [0.5, 0.5, 0.1, 0.5, 0.7, 0.2],
        [-1.0, 2.0, -1.0, -1.0],
        [4.0, 1.0, 2.0, 3.0],
        [0.0, 1.0, 2.0, 3.0],
        [2.5, 2.5, 2.5, 2.5, 2.5],
    )

    @pytest.mark.parametrize("tie_mode", ["strict", "inclusive"])
    def test_member_zero_is_the_add_one_count(self, tie_mode):
        for pool in self.POOLS:
            got = _pool_pvalues(np.array(pool), tie_mode)[0]
            assert got == add_one_p_of_member_zero(pool, tie_mode)

    @pytest.mark.parametrize("tie_mode", ["strict", "inclusive"])
    def test_random_pools_with_ties(self, tie_mode):
        rng = np.random.default_rng(32)
        for _ in range(200):
            pool = rng.integers(0, 6, size=rng.integers(2, 30)).astype(np.float64)
            got = _pool_pvalues(pool, tie_mode)[0]
            assert got == add_one_p_of_member_zero(list(pool), tie_mode)

    def test_all_equal_pool_is_one(self):
        for tie_mode in ("strict", "inclusive"):
            assert np.all(_pool_pvalues(np.full(9, -0.75), tie_mode) == 1.0)


class TestPermutationPlan:
    def test_pure_function_of_seed_and_index(self):
        plan = PermutationPlan(16, 99)
        a = plan.permutation(5, 20)
        b = PermutationPlan(16, 99).permutation(5, 20)
        assert np.array_equal(a, b)

    def test_distinct_across_indices(self):
        plan = PermutationPlan(16, 99)
        assert not np.array_equal(plan.permutation(1, 50), plan.permutation(2, 50))

    def test_seed_required(self):
        with pytest.raises(GammadepError) as exc:
            PermutationPlan(16, None)
        assert exc.value.code == "SEED_REQUIRED"

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits(self, seed):
        with pytest.raises(GammadepError) as exc:
            PermutationPlan(16, seed)
        assert exc.value.code == "SEED_RANGE"

    def test_positive_b_count(self):
        with pytest.raises(GammadepError):
            PermutationPlan(0, 1)

    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_equals_a_fresh_philox_per_draw(self, threads):
        # the re-keyed per-thread generator draws what a new Philox(key=...)
        # Generator would, also while threads draw at once; a short switch
        # interval makes a generator shared between threads show
        import sys
        from concurrent.futures import ThreadPoolExecutor

        from gammadep.inference import _mix64

        def fresh(seed, b, n):
            k0 = derive_seed(seed, b)
            key = np.array([k0, _mix64(k0 ^ 0xD6E8FEB86659FD93)], dtype=np.uint64)
            return np.random.Generator(np.random.Philox(key=key)).permutation(n)

        grid = [
            (seed, b, n)
            for seed in (0, 1, 12345, 2**64 - 1)
            for b in (0, 1, 2, 199, 10**6)
            for n in (1, 2, 5, 100, 1000)
        ]

        def draw(block):
            return [PermutationPlan(16, seed).permutation(b, n) for seed, b, n in block]

        blocks = [grid[k::threads] for k in range(threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                drawn = list(pool.map(draw, blocks * 20, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        for block, perms in zip(blocks * 20, drawn):
            for (seed, b, n), perm in zip(block, perms):
                assert np.array_equal(perm, fresh(seed, b, n))

    def test_high_bit_keys_equal_a_fresh_philox(self):
        # the state is set from plain Python ints; keys >= 2**63 must reach
        # Philox unchanged. The reference key is a uint64 array: a list of
        # Python ints that mixes in such a key is rounded through float64.
        import random

        from gammadep.inference import _mix64

        draws = random.Random(20240611)
        high = [0, 0]
        for _ in range(300):
            seed, b, n = draws.getrandbits(64), draws.randrange(10**6), draws.randrange(1, 300)
            k0 = derive_seed(seed, b)
            k1 = _mix64(k0 ^ 0xD6E8FEB86659FD93)
            high[0] += k0 >> 63
            high[1] += k1 >> 63
            key = np.array([k0, k1], dtype=np.uint64)
            expected = np.random.Generator(np.random.Philox(key=key)).permutation(n)
            assert np.array_equal(PermutationPlan(16, seed).permutation(b, n), expected)
        assert min(high) > 50


def record_pools(monkeypatch, cpu_count):
    """Patch the CPU count and record the number of blocks of every forked
    fill ``permutation_pool`` runs."""
    import os

    from gammadep import inference

    seen = []
    real_fill = inference._forked_fill

    def recording_fill(fill, rows, blocks):
        seen.append(len(blocks))
        return real_fill(fill, rows, blocks)

    monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
    monkeypatch.setattr(inference, "_forked_fill", recording_fill)
    return seen


def fork_min_n(b_count):
    """The smallest n whose b_count permutations run in forked workers."""
    return math.isqrt(-(-_FORK_MIN_WORK // b_count) - 1) + 1


def assert_no_child():
    """Every child this process forked has been reaped."""
    import os

    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def fail_at(monkeypatch, action, bs):
    """Patch ``PermutationPlan.permutation`` to call ``action(b)`` before it
    draws any b in ``bs``. Patched before the fork, so children inherit it."""
    real = PermutationPlan.permutation

    def permutation(self, b, n):
        if b in bs:
            action(b)
        return real(self, b, n)

    monkeypatch.setattr(PermutationPlan, "permutation", permutation)


def overflow(b):
    raise fail("NONFINITE", f"injected overflow at b = {b}")


def small_sample(seed=0, n=30, dependent=False):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 2))
    y = rng.standard_normal((n, 2))
    if dependent:
        y = y + x
    return validate_sample(x, y)


class TestPermutationTest:
    def test_pool_pvalues_match_a_manual_loop(self):
        # re-derive the per-exponent p-value from the raw pool
        sample = small_sample(1, n=24)
        spec = KernelPairSpec.dcov()
        gammas = GammaSet((1, 2, INFINITY))
        plan = PermutationPlan(40, 7)
        report = permutation_test(sample, spec, gammas, plan)

        mats = build_pair_matrices(sample, spec)
        base = fast_triple_pair(mats)
        y = np.array(sample.y)
        for g in gammas:
            def scaled_stat(triple):
                from gammadep import aggregate

                return rate_w(sample.n, g) * aggregate(triple.u, triple.v, g)

            pool = [scaled_stat(base)]
            for b in range(1, 41):
                perm = plan.permutation(b, sample.n)
                sp = validate_sample(sample.x, y[perm])
                pool.append(scaled_stat(fast_triple_pair(build_pair_matrices(sp, spec))))
            count = sum(1 for v in pool[1:] if v > pool[0])
            assert report.per_gamma[g].p_perm == pytest.approx((1 + count) / 41.0, abs=1e-12)

    def test_combined_pvalue_matches_manual_pooling(self):
        sample = small_sample(2, n=24, dependent=True)
        spec = KernelPairSpec.dcov()
        gammas = GammaSet((1, 2))
        plan = PermutationPlan(30, 11)
        report = permutation_test(sample, spec, gammas, plan, combiners=("fisher",))

        # rebuild the full (B+1) x L scaled-statistic pool
        from gammadep import aggregate

        y = np.array(sample.y)
        pool = np.empty((31, 2))
        for b in range(31):
            if b == 0:
                sp = sample
            else:
                sp = validate_sample(sample.x, y[plan.permutation(b, sample.n)])
            t = fast_triple_pair(build_pair_matrices(sp, spec))
            pool[b] = [rate_w(sample.n, g) * aggregate(t.u, t.v, g) for g in gammas]
        pmat = np.empty_like(pool)
        for j in range(2):
            for i in range(31):
                greater = np.sum(pool[:, j] > pool[i, j])
                pmat[i, j] = (1 + greater) / 31.0
        fisher = -2.0 * np.log(pmat).sum(axis=1)
        count = np.sum(fisher[1:] > fisher[0])
        assert report.combined["fisher"].p_perm == pytest.approx((1 + count) / 31.0, abs=1e-12)
        assert report.combined["fisher"].stat == pytest.approx(fisher[0], rel=1e-12)

    def test_gamma_one_reproduces_unbiased_distance_covariance(self):
        # independent re-implementation of the U-centered distance-covariance
        # inner product (Szekely-Huo form); statistics and pooled p-values
        # must agree replicate for replicate
        sample = small_sample(3, n=26, dependent=True)
        n = sample.n
        plan = PermutationPlan(50, 13)
        report = permutation_test(sample, KernelPairSpec.dcov(), GammaSet((1,)), plan)

        def u_centered(dmat):
            rows = dmat.sum(axis=1, keepdims=True) / (n - 2)
            cols = dmat.sum(axis=0, keepdims=True) / (n - 2)
            total = dmat.sum() / ((n - 1) * (n - 2))
            out = dmat - rows - cols + total
            np.fill_diagonal(out, 0.0)
            return out

        def udcov(dx, dy):
            return float((u_centered(dx) * u_centered(dy)).sum() / (n * (n - 3)))

        dx = np.sqrt(((sample.x[:, None, :] - sample.x[None, :, :]) ** 2).sum(-1))
        dy = np.sqrt(((sample.y[:, None, :] - sample.y[None, :, :]) ** 2).sum(-1))
        pool = [udcov(dx, dy)]
        for b in range(1, 51):
            perm = plan.permutation(b, n)
            pool.append(udcov(dx, dy[np.ix_(perm, perm)]))
        # statistic: w_{n,1} = n times the metric
        assert report.per_gamma[1].scaled_stat == pytest.approx(n * pool[0], rel=1e-9)
        count = sum(1 for v in pool[1:] if v > pool[0])
        assert report.per_gamma[1].p_perm == pytest.approx((1 + count) / 51.0, abs=1e-12)

    def test_seeded_determinism_and_thread_invariance(self, monkeypatch):
        # the smallest n whose permutations run in forked workers; B = 61
        # splits into uneven blocks over 4 workers
        sample = small_sample(4, n=fork_min_n(61))
        spec = KernelPairSpec.dcov()
        gammas = GammaSet.default()
        a = permutation_test(sample, spec, gammas, PermutationPlan(61, 5), threads=1)
        seen = record_pools(monkeypatch, cpu_count=4)
        b = permutation_test(sample, spec, gammas, PermutationPlan(61, 5), threads=4)
        assert seen == [4]
        assert a.per_gamma == b.per_gamma
        assert a.combined == b.combined
        assert a.triple == b.triple
        assert a.sigma0_sq == b.sigma0_sq
        assert_no_child()

    def test_worker_count_capped_at_cpu_count(self, monkeypatch):
        sample = small_sample(14, n=fork_min_n(30))
        spec = KernelPairSpec.dcov()
        gammas = GammaSet((1, 2, INFINITY))
        serial = permutation_test(sample, spec, gammas, PermutationPlan(30, 9), threads=1)
        seen = record_pools(monkeypatch, cpu_count=2)
        capped = permutation_test(sample, spec, gammas, PermutationPlan(30, 9), threads=8)
        assert seen == [2]
        assert capped == serial

    def test_fork_threshold_boundary(self, monkeypatch):
        # B n^2 at n = 200: B = 199 is just below the threshold, B = 200 at it
        assert 200 * 200**2 == _FORK_MIN_WORK
        sample = small_sample(15, n=200)
        spec = KernelPairSpec.dcov()
        gammas = GammaSet((1, 2, INFINITY))
        serial = [permutation_test(sample, spec, gammas, PermutationPlan(b, 9), threads=1) for b in (199, 200)]
        seen = record_pools(monkeypatch, cpu_count=8)
        below = permutation_test(sample, spec, gammas, PermutationPlan(199, 9), threads=8)
        assert seen == []
        at = permutation_test(sample, spec, gammas, PermutationPlan(200, 9), threads=8)
        assert seen == [8]
        assert [below, at] == serial

    def test_rate_row_built_once_per_test(self, monkeypatch):
        # rate_w depends only on (n, gamma): L calls per test, while the
        # metric still runs once per replicate
        from gammadep import inference, metric

        rates, stats = [], []
        real_rate, real_stats = metric.rate_w, inference.gamma_stats

        def counting_rate(n, g):
            rates.append(g)
            return real_rate(n, g)

        def counting_stats(triple, gammas):
            stats.append(triple)
            return real_stats(triple, gammas)

        for mod in (metric, inference):
            monkeypatch.setattr(mod, "rate_w", counting_rate, raising=False)
        monkeypatch.setattr(inference, "gamma_stats", counting_stats)
        gammas = GammaSet.default()
        permutation_test(small_sample(17, n=30), KernelPairSpec.dcov(), gammas, PermutationPlan(40, 3))
        assert rates == list(gammas)
        assert len(stats) == 41

    def test_error_in_a_worker_propagates(self, monkeypatch):
        # B = 61 over 2 workers: the child runs b = 31..61
        self._check_worker_error(monkeypatch, 2, {45})

    def test_lowest_failing_block_wins(self, monkeypatch):
        # over 4 workers b = 40 and 50 fail in the third and fourth blocks
        self._check_worker_error(monkeypatch, 4, {40, 50})

    @staticmethod
    def _check_worker_error(monkeypatch, cpus, bad):
        sample = small_sample(16, n=fork_min_n(61))
        args = (sample, KernelPairSpec.dcov(), GammaSet((1,)), PermutationPlan(61, 1))
        fail_at(monkeypatch, overflow, bad)
        with pytest.raises(GammadepError) as serial:
            permutation_test(*args, threads=1)
        seen = record_pools(monkeypatch, cpu_count=cpus)
        with pytest.raises(GammadepError) as exc:
            permutation_test(*args, threads=cpus)
        assert seen == [cpus]
        assert exc.value.code == serial.value.code == "NONFINITE"
        assert str(exc.value) == str(serial.value) == f"NONFINITE: injected overflow at b = {min(bad)}"
        assert_no_child()

    def test_constant_y_degenerate_path(self):
        x = np.random.default_rng(6).standard_normal((20, 2))
        sample = validate_sample(x, np.zeros((20, 1)))
        report = permutation_test(sample, KernelPairSpec.dcov(), GammaSet.default(), PermutationPlan(25, 3))
        for res in report.per_gamma.values():
            assert res.scaled_stat == 0.0
            assert res.p_perm == 1.0
            assert res.p_asym is None
        for res in report.combined.values():
            assert res.p_perm == 1.0
        assert report.sigma0_sq == 0.0

    def test_constant_x_ghsic_has_no_asymptotic_pvalue(self):
        # u is 0 under every permutation; the jackknife display rounds to a
        # tiny positive value, which must not studentize rounding noise
        y = np.random.default_rng(12).standard_normal((20, 2))
        sample = validate_sample(np.ones((20, 1)), y)
        spec = KernelPairSpec.ghsic(1.0, 1.0)
        report = permutation_test(sample, spec, GammaSet.default(), PermutationPlan(25, 3))
        assert all(res.p_asym is None for res in report.per_gamma.values())
        assert report.sigma0_sq is not None

    def test_p_asym_uses_permutation_variance(self):
        sample = small_sample(13, n=26, dependent=True)
        spec = KernelPairSpec.dcov()
        report = permutation_test(sample, spec, GammaSet((2, INFINITY)), PermutationPlan(20, 4))
        mats = build_pair_matrices(sample, spec)
        assert report.sigma0_sq == jackknife_fast(mats)
        sigma0 = math.sqrt(permutation_sigma0_sq(mats))
        for g, res in report.per_gamma.items():
            assert res.p_asym == asymptotic_pvalue(res.scaled_stat, g, sigma0, spec.m)

    def test_inclusive_tie_mode_keeps_pvalues_valid(self):
        sample = small_sample(7, n=22)
        report = permutation_test(
            sample,
            KernelPairSpec.dcov(),
            GammaSet((1, 2)),
            PermutationPlan(30, 21),
            tie_mode="inclusive",
        )
        for res in report.per_gamma.values():
            assert 1.0 / 31.0 <= res.p_perm <= 1.0

    def test_seed_required(self):
        sample = small_sample(8, n=20)
        with pytest.raises(GammadepError) as exc:
            permutation_test(sample, KernelPairSpec.dcov(), GammaSet((1,)), PermutationPlan(10, None))
        assert exc.value.code == "SEED_REQUIRED"

    def test_sample_too_small(self):
        sample = small_sample(9, n=3)
        with pytest.raises(GammadepError) as exc:
            permutation_test(sample, KernelPairSpec.dcov(), GammaSet((1,)), PermutationPlan(10, 1))
        assert exc.value.code == "TOO_SMALL"

    def test_asymptotic_pvalues_only_for_even_and_infinite(self):
        sample = small_sample(10, n=30)
        report = permutation_test(
            sample, KernelPairSpec.dcov(), GammaSet.default(), PermutationPlan(20, 17)
        )
        for g, res in report.per_gamma.items():
            if g is not INFINITY and g % 2 == 1:
                assert res.p_asym is None
            else:
                assert res.p_asym is not None
                assert 0.0 < res.p_asym <= 1.0

    def test_pcov_report_has_no_asymptotic_pvalues(self):
        sample = small_sample(11, n=9)
        report = permutation_test(
            sample, KernelPairSpec.pcov(), GammaSet((1, 2)), PermutationPlan(15, 19)
        )
        assert report.sigma0_sq is None
        assert all(r.p_asym is None for r in report.per_gamma.values())
        assert all(0 < r.p_perm <= 1 for r in report.per_gamma.values())


class TestForkedWorkers:
    """Failures and fork safety of the forked permutation blocks. B = 61
    over 2 workers: this process runs b = 1..30 and one child b = 31..61."""

    @staticmethod
    def _args(seed, gammas=GammaSet((1,))):
        sample = small_sample(seed, n=fork_min_n(61))
        return sample, KernelPairSpec.dcov(), gammas, PermutationPlan(61, 1)

    @pytest.mark.parametrize("how", ["killed", "silent"])
    def test_a_dead_worker_is_worker_failed(self, how, monkeypatch):
        import os
        import signal

        parent = os.getpid()

        def die(b):
            if os.getpid() != parent:
                if how == "killed":
                    os.kill(os.getpid(), signal.SIGKILL)
                os._exit(0)

        fail_at(monkeypatch, die, {45})
        seen = record_pools(monkeypatch, cpu_count=2)
        with pytest.raises(GammadepError) as exc:
            permutation_test(*self._args(17), threads=2)
        assert seen == [2]
        assert exc.value.code == "WORKER_FAILED"
        expected = "killed by signal 9" if how == "killed" else "exit status 0 after sending 0 of 248 bytes"
        assert expected in str(exc.value)
        assert_no_child()

    @pytest.mark.parametrize("error", [fail("NONFINITE", "injected overflow"), KeyboardInterrupt()])
    def test_an_error_in_this_process_block_reaps_the_child(self, error, monkeypatch):
        def raise_error(b):
            raise error

        fail_at(monkeypatch, raise_error, {30})
        seen = record_pools(monkeypatch, cpu_count=2)
        with pytest.raises(type(error)) as exc:
            permutation_test(*self._args(18), threads=2)
        assert seen == [2]
        assert exc.value is error
        assert_no_child()

    def test_elsewhere_than_linux_the_blocks_run_serially(self, monkeypatch):
        import os
        import sys

        args = self._args(19, GammaSet.default())
        serial = permutation_test(*args, threads=1)
        seen = record_pools(monkeypatch, cpu_count=2)

        def no_fork():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", no_fork)
        monkeypatch.setattr(sys, "platform", "darwin")
        assert permutation_test(*args, threads=2) == serial
        assert seen == []

    def test_fork_with_a_live_blas_thread_pool(self):
        # the BLAS pool is running when the pool forks, and the child runs a
        # matrix product itself; under -W error a fork warning fails the run
        import os
        import subprocess
        import sys

        import gammadep

        script = (
            "import os\n"
            "import numpy as np\n"
            "from gammadep import GammaSet, KernelPairSpec, PermutationPlan, permutation_test, validate_sample\n"
            "m = np.random.default_rng(0).standard_normal((600, 600))\n"
            "mm = m @ m\n"
            "real_perm, real_fork, forks = PermutationPlan.permutation, os.fork, []\n"
            "def permutation(self, b, n):\n"
            "    if b == 19 and not np.allclose(m @ m, mm):\n"
            "        raise AssertionError('matrix product differs in the child')\n"
            "    return real_perm(self, b, n)\n"
            "def fork():\n"
            "    pid = real_fork()\n"
            "    if pid:\n"
            "        forks.append(pid)\n"
            "    return pid\n"
            "PermutationPlan.permutation, os.fork, os.cpu_count = permutation, fork, lambda: 2\n"
            "rng = np.random.default_rng(700)\n"
            "x = rng.standard_normal((700, 3))\n"
            "s = validate_sample(x, 0.5 * x[:, :2] + rng.standard_normal((700, 2)))\n"
            "args = (s, KernelPairSpec.dcov(), GammaSet.default(), PermutationPlan(19, 3))\n"
            "one = permutation_test(*args, threads=1)\n"
            "assert not forks\n"
            "assert permutation_test(*args, threads=2) == one\n"
            "assert len(forks) == 1\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(gammadep.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        env.update(OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2", MKL_NUM_THREADS="2")
        done = subprocess.run(
            [sys.executable, "-W", "error", "-c", script], capture_output=True, env=env, timeout=120
        )
        assert done.returncode == 0, done.stderr.decode()


class TestPoolProperties:
    """Exact laws of the permutation pool and its p-values, for dcov at the
    two exponents whose metric takes no inexact root (u + v and max(u, v))."""

    @pytest.mark.xfail(strict=True, reason="rounding in s1, s2, s3 breaks exact ties of u + v and max(u, v)")
    @settings(derandomize=True, deadline=None, max_examples=150)
    @example(xy=([0] * 7 + [1], [0] * 7 + [3]), b_count=1, seed=0)
    @given(
        st.integers(6, 12).flatmap(
            lambda n: st.tuples(*[st.lists(st.integers(-3, 3), min_size=n, max_size=n)] * 2)
        ),
        st.integers(1, 40),
        st.integers(0, 2**64 - 1),
    )
    def test_integer_data_ranks_equal_the_exact_ranks(self, xy, b_count, seed):
        # integer d = 1 data: every distance, T1(pi) and S(pi) is an exact
        # integer in float64, so the pool's p-values, ties included, must
        # equal the ranks of u + v and max(u, v) taken in exact arithmetic
        x, y = (np.array(col, dtype=np.float64).reshape(-1, 1) for col in xy)
        n = len(x)
        plan = PermutationPlan(b_count, seed)
        gammas = GammaSet((1, INFINITY))
        *_, scaled = permutation_pool(validate_sample(x, y), KernelPairSpec.dcov(), gammas, plan)

        a = np.abs(np.subtract.outer(xy[0], xy[0]))
        b = np.abs(np.subtract.outer(xy[1], xy[1]))
        r, c = a.sum(axis=1), b.sum(axis=1)
        ab = int(r.sum()) * int(c.sum())
        exact = []
        for k in range(b_count + 1):
            perm = np.arange(n) if k == 0 else plan.permutation(k, n)
            t1 = int((a * b[np.ix_(perm, perm)]).sum())
            sig3 = int(r @ c[perm]) - t1
            s1 = Fraction(t1, n * (n - 1))
            s3 = Fraction(sig3, n * (n - 1) * (n - 2))
            s2 = Fraction(ab - 4 * sig3 - 2 * t1, math.perm(n, 4))
            u, v = s1 - s3, s2 - s3
            exact.append((u + v, max(u, v)))
        for tie_mode in ("strict", "inclusive"):
            p, _ = permutation_pvalues(scaled, (), tie_mode)
            for j in range(2):
                pool = [e[j] for e in exact]
                want = [
                    add_one_p_of_member_zero([s] + pool[:i] + pool[i + 1 :], tie_mode)
                    for i, s in enumerate(pool)
                ]
                assert p[:, j].tolist() == want

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(
        st.integers(6, 20),
        st.integers(1, 3),
        st.integers(1, 3),
        st.integers(0, 2**32 - 1),
        st.integers(-30, 30),
        st.integers(-30, 30),
        st.integers(1, 40),
    )
    def test_power_of_two_scaling_is_exact(self, n, d1, d2, data_seed, k1, k2, b_count):
        # squares, sums and sqrt commute exactly with powers of two, so the
        # triple scales by 2^(k1 + k2) exactly and no rank moves
        rng = np.random.default_rng(data_seed)
        x = rng.standard_normal((n, d1))
        y = 0.5 * x[:, :1] + rng.standard_normal((n, d2))
        gammas = GammaSet((1, INFINITY))
        plan = PermutationPlan(b_count, data_seed)
        spec = KernelPairSpec.dcov()
        _, base, _, base_scaled = permutation_pool(validate_sample(x, y), spec, gammas, plan)
        _, moved, _, moved_scaled = permutation_pool(
            validate_sample(np.ldexp(x, k1), np.ldexp(y, k2)), spec, gammas, plan
        )
        for name in ("s1", "s2", "s3"):
            assert getattr(moved, name) == math.ldexp(getattr(base, name), k1 + k2)
        for tie_mode in ("strict", "inclusive"):
            want = permutation_pvalues(base_scaled, COMBINERS, tie_mode)[0]
            assert np.array_equal(permutation_pvalues(moved_scaled, COMBINERS, tie_mode)[0], want)


# report_to_dict of one dcov permutation_test, recorded before the test was
# split into its pool, p-value and report steps; a change that moves these
# digits edits the pin and names the moved fields
PINNED_REPORT = {
    "schema_version": 1,
    "n": 30,
    "d1": 2,
    "d2": 2,
    "kernel": {"id": "dcov", "m": 4, "bandwidths": None},
    "gammas": ["1", "2", "3", "4", "5", "6", "inf"],
    "b_count": 49,
    "seed": 5,
    "combiners": ["fisher", "min", "cauchy"],
    "tie_mode": "strict",
    "stat_triple": {"s1": 3.2530703810243615, "s2": 3.1112503616668232, "s3": 3.1196907288405527},
    "sigma0_sq": 0.03391456229375943,
    "per_gamma": {
        "1": {"mu_hat": 0.12493928501007945, "scaled_stat": 3.7481785503023834, "p_perm": 0.02, "p_asym": None},
        "2": {
            "mu_hat": 0.13364644183329835,
            "scaled_stat": 0.7320117092239959,
            "p_perm": 0.04,
            "p_asym": 0.024704940823963312,
        },
        "3": {"mu_hat": 0.13336838487256725, "scaled_stat": 1.2876575983646172, "p_perm": 0.04, "p_asym": None},
        "4": {
            "mu_hat": 0.1333801868885248,
            "scaled_stat": 0.7305533708309982,
            "p_perm": 0.04,
            "p_asym": 0.007684633604543376,
        },
        "5": {"mu_hat": 0.13337962511441392, "scaled_stat": 1.0265077799554616, "p_perm": 0.04, "p_asym": None},
        "6": {
            "mu_hat": 0.13337965361128507,
            "scaled_stat": 0.7305504499512622,
            "p_perm": 0.04,
            "p_asym": 0.004741129852754365,
        },
        "inf": {
            "mu_hat": 0.13337965218380887,
            "scaled_stat": 0.7305504421326531,
            "p_perm": 0.04,
            "p_asym": 0.0015245865546999256,
        },
    },
    "combined": {
        "fisher": {"stat": 46.45055590927469, "p_perm": 0.04},
        "min": {"stat": -0.02, "p_perm": 0.02},
        "cauchy": {"stat": 31.69471768685011, "p_perm": 0.04},
    },
}


def test_dcov_report_is_pinned():
    from gammadep.cli import report_to_dict

    rng = np.random.default_rng(5)
    x = rng.standard_normal((30, 2))
    sample = validate_sample(x, 0.5 * x + rng.standard_normal((30, 2)))
    report = permutation_test(sample, KernelPairSpec.dcov(), GammaSet.default(), PermutationPlan(49, 5))
    assert report_to_dict(report) == PINNED_REPORT


def peak_nxn(fn, n):
    """tracemalloc peak of fn() above the bytes traced at entry, in n x n
    float64 matrices."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - base) / (8.0 * n * n)


class TestMemory:
    # The shared zero-diagonal pair: a test holds A~'s upper-triangle walk
    # blocks (0.56 n x n at this n) and B~, and on top of them one distance
    # tile while B~ is built or two row blocks of the T1 gather in a
    # permuted triple; the dense A~ is dropped, once packed, before B~ is
    # built. The jackknife and the median bandwidth build no n x n
    # temporary. The tile (512 KB) and the two gather blocks (256 KB each)
    # do not grow with n; at this n each is 0.18 n x n (at n = 200 the
    # gather blocks alone are 1.6).
    N = 600

    def sample(self, d=1, seed=31):
        rng = np.random.default_rng(seed)
        return validate_sample(rng.standard_normal((self.N, d)), rng.standard_normal((self.N, d)))

    def test_permutation_test_holds_two_matrices(self):
        s = self.sample()

        def run():
            plan = PermutationPlan(20, 3)
            permutation_test(s, KernelPairSpec.dcov(), GammaSet.default(), plan, threads=1)

        assert peak_nxn(run, self.N) <= 1.85

    @pytest.mark.parametrize(
        "spec, d",
        [(KernelPairSpec.dcov(), 1), (KernelPairSpec.dcov(), 5), (KernelPairSpec.ghsic(1.0, 2.0), 5)],
        ids=["dcov-d1", "dcov-d5", "ghsic-d5"],
    )
    def test_build_pair_matrices_holds_two_matrices_and_a_tile(self, spec, d):
        s = self.sample(d, seed=33)
        assert peak_nxn(lambda: build_pair_matrices(s, spec), self.N) <= 1.85

    def test_permuted_triple_holds_no_matrix(self):
        # two gather blocks of 54 rows each
        core = PairStatCore(build_pair_matrices(self.sample(seed=32), KernelPairSpec.dcov()))
        perm = PermutationPlan(1, 3).permutation(1, self.N)
        assert peak_nxn(lambda: core.triple(perm), self.N) <= 0.25

    def test_jackknife_fast_holds_no_matrix(self):
        mats = build_pair_matrices(self.sample(), KernelPairSpec.dcov())
        assert peak_nxn(lambda: jackknife_fast(mats), self.N) <= 0.1

    def test_median_bandwidth_holds_one_matrix_and_a_tile(self):
        x = self.sample(seed=34).x
        assert peak_nxn(lambda: median_bandwidth(x), self.N) <= 1.25

    @pytest.mark.parametrize("n", [600, 1000, 1500])
    def test_byte_model_matches_traced_peak(self, n):
        # one worker, as threads=1 runs the permutations
        rng = np.random.default_rng(35)
        s = validate_sample(rng.standard_normal((n, 1)), rng.standard_normal((n, 1)))

        def run():
            permutation_test(s, KernelPairSpec.dcov(), GammaSet.default(), PermutationPlan(5, 3), threads=1)

        traced = peak_nxn(run, n) * 8.0 * n * n
        assert abs(pair_peak_bytes(n, 1, workers=1) / traced - 1.0) <= 0.1


class TestDeriveSeed:
    def test_deterministic_and_path_sensitive(self):
        assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
        assert derive_seed(1, 2, 3) != derive_seed(1, 3, 2)
        assert derive_seed(1) != derive_seed(2)


class TestPvaluesShrinkUnderDependence:
    def test_median_pvalue_decreases_with_n(self):
        # weak linear signal: the permutation p-value drifts toward zero as
        # the sample grows
        spec = KernelPairSpec.dcov()
        gammas = GammaSet((2,))
        medians = {}
        for n in (50, 200):
            ps = []
            for rep in range(40):
                rng = np.random.default_rng(derive_seed(606, n, rep))
                x = rng.standard_normal((n, 2))
                y = 0.35 * x + rng.standard_normal((n, 2))
                rpt = permutation_test(
                    validate_sample(x, y), spec, gammas,
                    PermutationPlan(80, derive_seed(607, n, rep)),
                )
                ps.append(rpt.per_gamma[2].p_perm)
            medians[n] = float(np.median(ps))
        assert medians[200] < medians[50]
