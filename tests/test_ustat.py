"""Estimator tests: hand enumerations at tiny n are the ground truth here,
the closed-form fast path is gated on the brute enumerator, and the brute
enumerator is gated on pure-Python loops written in this file.
"""

import itertools
import math

import numpy as np
import pytest

from gammadep import (
    GammadepError,
    KernelPairSpec,
    TupleBudget,
    brute_force_triple,
    build_pair_matrices,
    fast_triple_pair,
    jackknife_fast,
    median_bandwidth,
    pairwise_dcov,
    pairwise_ghsic,
    permutation_sigma0_sq,
    validate_sample,
)
from gammadep.ustat import PairStatCore, PcovPermCore


def dcov_sample(rng, n, d1=3, d2=2, dependent=False):
    x = rng.standard_normal((n, d1))
    y = rng.standard_normal((n, d2))
    if dependent:
        y = y + 0.7 * x[:, :d2]
    return validate_sample(x, y)


def hand_triple_pair(sample):
    """Pure-Python enumeration of all ordered 4-tuples for a pair kernel."""
    n = sample.n
    a = [[math.dist(sample.x[i], sample.x[j]) for j in range(n)] for i in range(n)]
    b = [[math.dist(sample.y[i], sample.y[j]) for j in range(n)] for i in range(n)]
    s1 = s2 = s3 = 0.0
    count = 0
    for i1, i2, i3, i4 in itertools.permutations(range(n), 4):
        f1 = a[i1][i2]
        s1 += f1 * b[i1][i2]
        s2 += f1 * b[i3][i4]
        s3 += f1 * b[i1][i3]
        count += 1
    return s1 / count, s2 / count, s3 / count


class TestBruteForceTriple:
    def test_constant_y_gives_exact_zeros(self):
        s = validate_sample(np.arange(10.0).reshape(5, 2), np.ones((5, 3)))
        t = brute_force_triple(s, KernelPairSpec.dcov())
        assert (t.s1, t.s2, t.s3) == (0.0, 0.0, 0.0)

    def test_hand_enumeration_n4(self):
        rng = np.random.default_rng(10)
        s = dcov_sample(rng, 4)
        t = brute_force_triple(s, KernelPairSpec.dcov())
        h1, h2, h3 = hand_triple_pair(s)
        assert t.s1 == pytest.approx(h1, abs=1e-12)
        assert t.s2 == pytest.approx(h2, abs=1e-12)
        assert t.s3 == pytest.approx(h3, abs=1e-12)

    def test_s1_is_mean_over_ordered_pairs(self):
        rng = np.random.default_rng(11)
        s = dcov_sample(rng, 6)
        t = brute_force_triple(s, KernelPairSpec.dcov())
        vals = [
            math.dist(s.x[i], s.x[j]) * math.dist(s.y[i], s.y[j])
            for i in range(6)
            for j in range(6)
            if i != j
        ]
        assert t.s1 == pytest.approx(sum(vals) / len(vals), rel=1e-12)

    def test_too_small(self):
        s = dcov_sample(np.random.default_rng(0), 3)
        with pytest.raises(GammadepError) as exc:
            brute_force_triple(s, KernelPairSpec.dcov())
        assert exc.value.code == "TOO_SMALL"

    def test_budget_enforced(self):
        s = dcov_sample(np.random.default_rng(0), 9)
        with pytest.raises(GammadepError) as exc:
            brute_force_triple(s, KernelPairSpec.dcov(), TupleBudget(8))
        assert exc.value.code == "TOO_LARGE"

    def test_component_means_match_population_under_independence(self):
        # with x and y independent every component estimates the same
        # product of marginal mean distances; check each against a direct
        # Monte-Carlo estimate of that product at 3 combined standard errors
        rng = np.random.default_rng(44)
        mu_a = np.mean([math.dist(a, b) for a, b in rng.standard_normal((30_000, 2, 2))])
        mu_b = np.mean([math.dist(a, b) for a, b in rng.standard_normal((30_000, 2, 2))])
        target = mu_a * mu_b
        spec = KernelPairSpec.dcov()
        comps = np.array(
            [
                [t.s1, t.s2, t.s3]
                for t in (
                    fast_triple_pair(
                        build_pair_matrices(dcov_sample(rng, 10, d1=2, d2=2), spec)
                    )
                    for _ in range(3000)
                )
            ]
        )
        for k in range(3):
            se = comps[:, k].std(ddof=1) / math.sqrt(len(comps))
            assert abs(comps[:, k].mean() - target) < 3 * se + 0.01

    def test_tuple_ceiling_is_absolute(self):
        # a generous budget still refuses an enumeration past ~1e7 tuples
        with pytest.raises(GammadepError) as exc:
            TupleBudget(60).check(50, 5)
        assert exc.value.code == "TOO_LARGE"

    def test_unbiased_under_independence(self):
        # mean of (s1 + s2 - 2 s3) over many independent draws sits within
        # 3 Monte-Carlo standard errors of zero; runs on the fast path after
        # asserting it agrees with the brute enumerator on a subsample
        rng = np.random.default_rng(12)
        spec = KernelPairSpec.dcov()
        vals = []
        for rep in range(10_000):
            s = dcov_sample(rng, 8, d1=2, d2=2)
            mats = build_pair_matrices(s, spec)
            t = fast_triple_pair(mats)
            if rep < 25:
                bt = brute_force_triple(s, spec)
                assert abs(bt.s1 - t.s1) < 1e-10
                assert abs(bt.s2 - t.s2) < 1e-10
                assert abs(bt.s3 - t.s3) < 1e-10
            vals.append(t.s1 + t.s2 - 2.0 * t.s3)
        vals = np.array(vals)
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean()) < 3.0 * se


class TestExactRationalIdentity:
    def test_closed_forms_equal_enumeration_in_exact_arithmetic(self):
        # integer kernel matrices + Fraction arithmetic: the closed forms
        # must equal the tuple enumeration exactly, so any wrong collision
        # coefficient fails with no tolerance to hide behind
        from fractions import Fraction

        rng = np.random.default_rng(40)
        n = 7
        a = rng.integers(0, 20, (n, n))
        b = rng.integers(0, 20, (n, n))
        a = a + a.T
        b = b + b.T
        np.fill_diagonal(a, 0)
        np.fill_diagonal(b, 0)

        enum = [0, 0, 0]
        for i1, i2, i3, i4 in itertools.permutations(range(n), 4):
            f1 = int(a[i1, i2])
            enum[0] += f1 * int(b[i1, i2])
            enum[1] += f1 * int(b[i3, i4])
            enum[2] += f1 * int(b[i1, i3])
        count = math.perm(n, 4)
        enum = [Fraction(v, count) for v in enum]

        t1 = int((a * b).sum())
        r = a.sum(axis=1)
        c = b.sum(axis=1)
        sig3 = int((r * c).sum()) - t1
        s1 = Fraction(t1, n * (n - 1))
        s3 = Fraction(sig3, n * (n - 1) * (n - 2))
        s2 = Fraction(int(a.sum()) * int(b.sum()) - 4 * sig3 - 2 * t1, count)
        assert [s1, s2, s3] == enum

    def test_jackknife_reduction_in_exact_arithmetic(self):
        # same idea for the variance estimator: subset enumeration, the
        # slot sums over ordered tuples that jackknife_brute runs, and the
        # row-sum reduction agree as exact rationals
        from fractions import Fraction

        rng = np.random.default_rng(41)
        n = 7
        a = rng.integers(0, 9, (n, n))
        b = rng.integers(0, 9, (n, n))
        a = a + a.T
        b = b + b.T
        np.fill_diagonal(a, 0)
        np.fill_diagonal(b, 0)

        def psi1(idx):
            return Fraction(
                sum(int(a[p, q]) * int(b[p, q]) for p, q in itertools.combinations(idx, 2)), 6
            )

        def psi3(idx):
            return Fraction(
                sum(
                    int(a[u, v]) * int(b[u, w])
                    for u, v, w in itertools.permutations(idx, 3)
                ),
                24,
            )

        brute = Fraction(0)
        subset_g = []
        for i in range(n):
            others = [j for j in range(n) if j != i]
            vals = [psi1((i,) + s) - psi3((i,) + s) for s in itertools.combinations(others, 3)]
            g = sum(vals, Fraction(0)) / len(vals)
            subset_g.append(g)
            brute += g * g
        brute *= Fraction(n - 1, (n - 4) ** 2)

        # every ordered 4-tuple credits its unsymmetrized psi_1 - psi_3 to
        # the row in each of its four slots
        slot_sums = [0] * n
        for t in itertools.permutations(range(n), 4):
            h = int(a[t[0], t[1]]) * (int(b[t[0], t[1]]) - int(b[t[0], t[2]]))
            for i in t:
                slot_sums[i] += h
        assert [Fraction(v, 4 * math.perm(n - 1, 3)) for v in slot_sums] == subset_g

        t1 = int((a * b).sum())
        r = [int(v) for v in a.sum(axis=1)]
        c = [int(v) for v in b.sum(axis=1)]
        u = [int(v) for v in (a * b).sum(axis=1)]
        p = [sum(int(a[i, k]) * c[k] for k in range(n)) for i in range(n)]
        q = [sum(int(b[i, k]) * r[k] for k in range(n)) for i in range(n)]
        sig3 = sum(r[k] * c[k] for k in range(n)) - t1
        big_n = n - 1
        fast = Fraction(0)
        for i in range(n):
            g1 = Fraction(u[i], 2 * big_n) + Fraction(t1 - 2 * u[i], 2 * big_n * (big_n - 1))
            sig3_i = sig3 - r[i] * c[i] - p[i] - q[i] + 3 * u[i]
            g3 = Fraction(r[i] * c[i] + p[i] + q[i] - 3 * u[i], 4 * big_n * (big_n - 1)) + Fraction(
                sig3_i, 4 * big_n * (big_n - 1) * (big_n - 2)
            )
            g = g1 - g3
            fast += g * g
        fast *= Fraction(n - 1, (n - 4) ** 2)
        assert fast == brute


class TestFastTriplePair:
    @pytest.mark.parametrize("kind", ["dcov", "ghsic"])
    def test_matches_brute_force(self, kind):
        rng = np.random.default_rng(13)
        for n in (8, 10):
            s = dcov_sample(rng, n, dependent=True)
            if kind == "dcov":
                spec = KernelPairSpec.dcov()
            else:
                spec = KernelPairSpec.ghsic(median_bandwidth(s.x), 1.0)
            bt = brute_force_triple(s, spec)
            ft = fast_triple_pair(build_pair_matrices(s, spec))
            assert bt.s1 == pytest.approx(ft.s1, abs=1e-10)
            assert bt.s2 == pytest.approx(ft.s2, abs=1e-10)
            assert bt.s3 == pytest.approx(ft.s3, abs=1e-10)

    def test_randomized_equivalence_sweep(self):
        rng = np.random.default_rng(14)
        for seed in range(30):
            n = 6 + seed % 7
            s = dcov_sample(rng, n, dependent=seed % 2 == 0)
            spec = KernelPairSpec.dcov() if seed % 3 else KernelPairSpec.ghsic(
                median_bandwidth(s.x), median_bandwidth(s.y)
            )
            bt = brute_force_triple(s, spec)
            ft = fast_triple_pair(build_pair_matrices(s, spec))
            for name in ("s1", "s2", "s3"):
                assert getattr(bt, name) == pytest.approx(getattr(ft, name), abs=1e-10)

    def test_constant_y_exact_zero(self):
        s = validate_sample(np.random.default_rng(1).standard_normal((8, 2)), np.zeros((8, 1)))
        t = fast_triple_pair(build_pair_matrices(s, KernelPairSpec.dcov()))
        assert (t.s1, t.s2, t.s3) == (0.0, 0.0, 0.0)

    def test_joint_exchangeability(self):
        # relabelling the rows reorders every sum of the pair: the T1 walk,
        # S, u, p, q and the dots of both sigma0^2; n = 400 walks 4 blocks
        rng = np.random.default_rng(15)
        for n, kind in ((9, "dcov"), (400, "dcov"), (400, "ghsic")):
            s = dcov_sample(rng, n, dependent=True)
            perm = rng.permutation(n)
            sp = validate_sample(s.x[perm], s.y[perm])
            if kind == "dcov":
                spec = KernelPairSpec.dcov()
            else:
                spec = KernelPairSpec.ghsic(median_bandwidth(s.x), median_bandwidth(s.y))
            m0, m1 = build_pair_matrices(s, spec), build_pair_matrices(sp, spec)
            t0, t1 = fast_triple_pair(m0), fast_triple_pair(m1)
            assert t0.s1 == pytest.approx(t1.s1, abs=1e-12)
            assert t0.s2 == pytest.approx(t1.s2, abs=1e-12)
            assert t0.s3 == pytest.approx(t1.s3, abs=1e-12)
            for sigma0_sq in (jackknife_fast, permutation_sigma0_sq):
                assert sigma0_sq(m0) == pytest.approx(sigma0_sq(m1), rel=1e-10)

    def test_scale_equivariance_dcov(self):
        rng = np.random.default_rng(16)
        s = dcov_sample(rng, 8)
        c = 2.5
        scaled = validate_sample(c * np.array(s.x), s.y)
        t0 = fast_triple_pair(build_pair_matrices(s, KernelPairSpec.dcov()))
        t1 = fast_triple_pair(build_pair_matrices(scaled, KernelPairSpec.dcov()))
        assert t1.s1 == pytest.approx(c * t0.s1, rel=1e-12)
        assert t1.s2 == pytest.approx(c * t0.s2, rel=1e-12)
        assert t1.s3 == pytest.approx(c * t0.s3, rel=1e-12)

    def test_too_small(self):
        s = dcov_sample(np.random.default_rng(2), 3)
        mats_n3 = build_pair_matrices(s, KernelPairSpec.dcov())
        with pytest.raises(GammadepError) as exc:
            fast_triple_pair(mats_n3)
        assert exc.value.code == "TOO_SMALL"


def pair_core(sample, kind):
    if kind == "dcov":
        spec = KernelPairSpec.dcov()
    else:
        spec = KernelPairSpec.ghsic(median_bandwidth(sample.x), median_bandwidth(sample.y))
    return PairStatCore(build_pair_matrices(sample, spec))


class TestRowBlockedT1:
    # A block from row lo holds 2 * _GATHER_ELEMS // (2n - lo) rows, so the
    # rows grow along the walk. 181 is the largest n gathered as one block;
    # 182 and 183 leave a short last block; 256 walks two equal blocks; 451
    # and 538 end in a one-row block; 273 and 647 end in a block of exactly
    # its full rows; 300, 313, 361, 476 and 1000 walk 3 to 24 blocks.
    @pytest.mark.parametrize(
        "n", [4, 5, 181, 182, 183, 256, 273, 300, 313, 361, 451, 476, 538, 647, 1000]
    )
    def test_matches_the_full_gather(self, n):
        rng = np.random.default_rng(n)
        sample = dcov_sample(rng, n, dependent=True)
        for kind in ("dcov", "ghsic"):
            core = pair_core(sample, kind)
            mats = core.mats
            # the dense A~, built here, against the walk over its stored blocks
            if kind == "dcov":
                a = pairwise_dcov(sample.x)
            else:
                a = pairwise_ghsic(sample.x, mats.spec.bandwidths[0])
            np.fill_diagonal(a, 0.0)
            for perm in (rng.permutation(n), None):
                p = np.arange(n) if perm is None else perm
                ref = np.sum(a * mats.b[np.ix_(p, p)])
                assert core.triple(perm).s1 * n * (n - 1) == pytest.approx(ref, rel=1e-13)

    @pytest.mark.parametrize("n", [120, 313, 451, 1000])
    def test_identity_permutation_is_bit_identical(self, n):
        sample = dcov_sample(np.random.default_rng(n + 1), n, dependent=True)
        for kind in ("dcov", "ghsic"):
            core = pair_core(sample, kind)
            assert core.triple(np.arange(n)) == core.triple(None)

    @pytest.mark.parametrize("kind", ["dcov", "ghsic"])
    @pytest.mark.parametrize("n", [120, 300])
    def test_swapping_identical_y_rows_is_an_exact_tie(self, kind, n):
        rng = np.random.default_rng(n + len(kind))
        for _ in range(10):
            x = rng.standard_normal((n, 3))
            y = rng.standard_normal((n, 2))
            i, j = rng.choice(n, 2, replace=False)
            y[j] = y[i]
            s = validate_sample(x, y)
            if kind == "dcov":
                spec = KernelPairSpec.dcov()
            else:
                spec = KernelPairSpec.ghsic(median_bandwidth(s.x), median_bandwidth(s.y))
            core = PairStatCore(build_pair_matrices(s, spec))
            perm = np.arange(n)
            perm[[i, j]] = j, i
            assert core.triple(perm) == core.triple(None)


class TestPcovEnumeration:
    def test_matches_pure_python_loop(self):
        rng = np.random.default_rng(17)
        n = 7
        s = dcov_sample(rng, n, d1=2, d2=2, dependent=True)
        spec = KernelPairSpec.pcov()
        t = brute_force_triple(s, spec)

        def ang(z, i, j, k):
            u = z[i] - z[k]
            v = z[j] - z[k]
            c = float(u @ v) / (math.sqrt(float(u @ u)) * math.sqrt(float(v @ v)))
            return math.acos(min(1.0, max(-1.0, c)))

        s1 = s2 = s3 = 0.0
        count = 0
        for t5 in itertools.permutations(range(n), 5):
            i1, i2, i3, i4, i5 = t5
            f1 = ang(s.x, i1, i2, i5)
            s1 += f1 * ang(s.y, i1, i2, i5)
            s2 += f1 * ang(s.y, i3, i4, i5)
            s3 += f1 * ang(s.y, i1, i3, i5)
            count += 1
        assert t.s1 == pytest.approx(s1 / count, abs=1e-12)
        assert t.s2 == pytest.approx(s2 / count, abs=1e-12)
        assert t.s3 == pytest.approx(s3 / count, abs=1e-12)

    def test_perm_core_identity_matches_brute(self):
        rng = np.random.default_rng(18)
        s = dcov_sample(rng, 6, d1=2, d2=2)
        spec = KernelPairSpec.pcov()
        core = PcovPermCore(s, spec)
        bt = brute_force_triple(s, spec)
        ct = core.triple(None)
        assert (ct.s1, ct.s2, ct.s3) == (bt.s1, bt.s2, bt.s3)

    def test_perm_core_permutation_equals_permuted_sample(self):
        rng = np.random.default_rng(19)
        s = dcov_sample(rng, 6, d1=2, d2=2)
        spec = KernelPairSpec.pcov()
        perm = rng.permutation(6)
        ct = PcovPermCore(s, spec).triple(perm)
        sp = validate_sample(s.x, np.array(s.y)[perm])
        bt = brute_force_triple(sp, spec)
        assert ct.s1 == pytest.approx(bt.s1, abs=1e-12)
        assert ct.s2 == pytest.approx(bt.s2, abs=1e-12)
        assert ct.s3 == pytest.approx(bt.s3, abs=1e-12)
