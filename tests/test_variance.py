"""Variance estimator tests: the jackknife's O(n^2) reduction is gated on
the tuple-enumeration route here and again in the acceptance suite, and
the exact permutation variance on enumeration of all n! permutations."""

import itertools
import math
import sys

import numpy as np
import pytest

from gammadep import (
    GammadepError,
    KernelPairSpec,
    TupleBudget,
    build_pair_matrices,
    jackknife_brute,
    jackknife_fast,
    median_bandwidth,
    pairwise_dcov,
    permutation_sigma0_sq,
    validate_sample,
)
from gammadep.kernels import pack_rows
from gammadep.ustat import PairStatCore


def make_sample(rng, n, dependent=False):
    x = rng.standard_normal((n, 3))
    y = rng.standard_normal((n, 2))
    if dependent:
        y = y + 0.6 * x[:, :2]
    return validate_sample(x, y)


class TestJackknifeBrute:
    def test_constant_y_is_exactly_zero(self):
        s = validate_sample(np.random.default_rng(0).standard_normal((8, 2)), np.zeros((8, 1)))
        for spec in (KernelPairSpec.dcov(), KernelPairSpec.ghsic(1.0, 1.0)):
            assert jackknife_brute(s, spec) == 0.0

    def test_positive_and_deterministic(self):
        rng = np.random.default_rng(1)
        s = make_sample(rng, 8)
        a = jackknife_brute(s, KernelPairSpec.dcov())
        b = jackknife_brute(s, KernelPairSpec.dcov())
        assert a > 0.0
        assert a == b

    def test_joint_permutation_invariance(self):
        rng = np.random.default_rng(2)
        s = make_sample(rng, 9, dependent=True)
        perm = rng.permutation(9)
        sp = validate_sample(np.array(s.x)[perm], np.array(s.y)[perm])
        a = jackknife_brute(s, KernelPairSpec.dcov())
        b = jackknife_brute(sp, KernelPairSpec.dcov())
        assert a == pytest.approx(b, abs=1e-12)

    def test_n_must_exceed_arity(self):
        s = make_sample(np.random.default_rng(3), 4)
        with pytest.raises(GammadepError) as exc:
            jackknife_brute(s, KernelPairSpec.dcov())
        assert exc.value.code == "TOO_SMALL"

    def test_budget(self):
        s = make_sample(np.random.default_rng(4), 9)
        with pytest.raises(GammadepError) as exc:
            jackknife_brute(s, KernelPairSpec.dcov(), TupleBudget(8))
        assert exc.value.code == "TOO_LARGE"

    def test_pair_kernels_only(self):
        s = make_sample(np.random.default_rng(5), 8)
        with pytest.raises(GammadepError) as exc:
            jackknife_brute(s, KernelPairSpec.pcov())
        assert exc.value.code == "PAIR_KERNEL_REQUIRED"

    @pytest.mark.parametrize("kind", ["dcov", "ghsic"])
    def test_builds_no_kernel_matrix(self, kind, monkeypatch):
        # the oracle must not share the matrix builder of the fast path it
        # checks: every module that can see build_pair_matrices gets one
        # that raises
        def refuse(*args, **kwargs):
            raise AssertionError("jackknife_brute built a kernel matrix")

        for name, mod in list(sys.modules.items()):
            if name.split(".")[0] == "gammadep" and hasattr(mod, "build_pair_matrices"):
                monkeypatch.setattr(mod, "build_pair_matrices", refuse)
        s = make_sample(np.random.default_rng(11), 9, dependent=True)
        spec = KernelPairSpec.dcov() if kind == "dcov" else KernelPairSpec.ghsic(1.0, 1.5)
        assert jackknife_brute(s, spec) > 0.0


class TestJackknifeFast:
    def test_matches_brute_dcov(self):
        rng = np.random.default_rng(6)
        s = make_sample(rng, 9, dependent=True)
        spec = KernelPairSpec.dcov()
        jb = jackknife_brute(s, spec)
        jf = jackknife_fast(build_pair_matrices(s, spec))
        assert jf == pytest.approx(jb, abs=1e-10)

    def test_matches_brute_ghsic(self):
        rng = np.random.default_rng(7)
        s = make_sample(rng, 10)
        spec = KernelPairSpec.ghsic(median_bandwidth(s.x), median_bandwidth(s.y))
        jb = jackknife_brute(s, spec)
        jf = jackknife_fast(build_pair_matrices(s, spec))
        assert jf == pytest.approx(jb, abs=1e-10)

    def test_equivalence_sweep(self):
        rng = np.random.default_rng(8)
        for seed in range(20):
            n = 6 + seed % 6
            s = make_sample(rng, n, dependent=seed % 2 == 0)
            spec = KernelPairSpec.dcov()
            jb = jackknife_brute(s, spec)
            jf = jackknife_fast(build_pair_matrices(s, spec))
            assert jf == pytest.approx(jb, abs=1e-10)

    def test_constant_y_exact_zero(self):
        s = validate_sample(np.random.default_rng(9).standard_normal((10, 2)), np.zeros((10, 1)))
        jf = jackknife_fast(build_pair_matrices(s, KernelPairSpec.dcov()))
        assert jf == 0.0

    def test_nonnegative_always(self):
        rng = np.random.default_rng(10)
        for _ in range(30):
            s = make_sample(rng, 7, dependent=True)
            jf = jackknife_fast(build_pair_matrices(s, KernelPairSpec.dcov()))
            assert jf >= 0.0

    def test_too_small(self):
        s = make_sample(np.random.default_rng(11), 4)
        with pytest.raises(GammadepError) as exc:
            jackknife_fast(build_pair_matrices(s, KernelPairSpec.dcov()))
        assert exc.value.code == "TOO_SMALL"


def enumerated_u_moments(mats):
    """Mean and mean square of u over every permutation of the y rows."""
    core = PairStatCore(mats)
    us = [core.triple(np.array(p)).u for p in itertools.permutations(range(mats.n))]
    return math.fsum(us) / len(us), math.fsum(u * u for u in us) / len(us)


def spec_for(kind, sample):
    if kind == "dcov":
        return KernelPairSpec.dcov()
    return KernelPairSpec.ghsic(median_bandwidth(sample.x), median_bandwidth(sample.y))


class TestPermutationVariance:
    @pytest.mark.parametrize("kind", ["dcov", "ghsic"])
    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_matches_enumeration(self, kind, n):
        rng = np.random.default_rng(200 + n)
        s = make_sample(rng, n, dependent=n % 2 == 0)
        mats = build_pair_matrices(s, spec_for(kind, s))
        mean_u, var_u = enumerated_u_moments(mats)
        assert var_u > 0.0
        # E_pi[u] = 0 exactly, so the mean square is the variance
        assert abs(mean_u) <= 1e-10 * math.sqrt(var_u)
        closed = permutation_sigma0_sq(mats) * mats.spec.m**2 / n
        assert closed == pytest.approx(var_u, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize(
        "spec", [KernelPairSpec.dcov(), KernelPairSpec.ghsic(1.0, 1.0)], ids=["dcov", "ghsic"]
    )
    def test_constant_x_column_is_exactly_zero(self, spec):
        rng = np.random.default_rng(12)
        s = validate_sample(np.full((7, 1), 3.0), rng.standard_normal((7, 2)))
        mats = build_pair_matrices(s, spec)
        # every permuted u is 0 up to the rounding of s1 - s3
        scale = PairStatCore(mats).triple().s1
        assert math.sqrt(enumerated_u_moments(mats)[1]) <= 1e-14 * scale
        assert permutation_sigma0_sq(mats) == 0.0

    def test_invariant_to_kernel_offset(self):
        # u(pi) is unchanged by a constant added off the diagonal of A or B
        rng = np.random.default_rng(13)
        s = make_sample(rng, 12, dependent=True)
        mats = build_pair_matrices(s, KernelPairSpec.dcov())
        off = 5.0 * (1.0 - np.eye(12))
        a = pairwise_dcov(s.x)  # A~ itself: a dcov diagonal is already 0
        shifted = type(mats)(pack_rows(a + off), mats.b + 2.0 * off, mats.spec)
        assert permutation_sigma0_sq(shifted) == pytest.approx(
            permutation_sigma0_sq(mats), rel=1e-12
        )

    def test_pair_kernels_only(self):
        s = make_sample(np.random.default_rng(14), 8)
        mats = build_pair_matrices(s, KernelPairSpec.dcov())
        with pytest.raises(GammadepError) as exc:
            permutation_sigma0_sq(type(mats)(mats.a, mats.b, KernelPairSpec.pcov()))
        assert exc.value.code == "PAIR_KERNEL_REQUIRED"

    def test_too_small(self):
        s = make_sample(np.random.default_rng(15), 3)
        with pytest.raises(GammadepError) as exc:
            permutation_sigma0_sq(build_pair_matrices(s, KernelPairSpec.dcov()))
        assert exc.value.code == "TOO_SMALL"



class TestReadsThePairsSums:
    """Both closed forms read the sums a ``PairKernelMatrices`` holds, not
    its matrices, and return a plain float."""

    @pytest.mark.parametrize("kind", ["dcov", "ghsic"])
    def test_zeroed_matrices_change_nothing(self, kind):
        s = make_sample(np.random.default_rng(16), 30, dependent=True)
        mats = build_pair_matrices(s, spec_for(kind, s))
        jack, perm = jackknife_fast(mats), permutation_sigma0_sq(mats)
        zeros = np.zeros_like(mats.b)
        object.__setattr__(mats, "a", pack_rows(zeros))
        object.__setattr__(mats, "b", zeros)
        assert jackknife_fast(mats) == jack
        assert permutation_sigma0_sq(mats) == perm
        assert jack > 0.0 and perm > 0.0

    def test_both_jackknifes_return_a_float(self):
        s = make_sample(np.random.default_rng(17), 8, dependent=True)
        spec = KernelPairSpec.dcov()
        assert type(jackknife_fast(build_pair_matrices(s, spec))) is float
        assert type(jackknife_brute(s, spec)) is float
        assert type(permutation_sigma0_sq(build_pair_matrices(s, spec))) is float

class TestConsistencySmoke:
    def test_dispersion_shrinks_with_n(self):
        # coefficient of variation of the estimate across replications
        # decreases as the sample grows
        spec = KernelPairSpec.dcov()
        cvs = []
        for idx, n in enumerate((50, 100, 200)):
            rng = np.random.default_rng(100 + idx)
            vals = []
            for _ in range(300):
                x = rng.standard_normal((n, 3))
                y = rng.standard_normal((n, 2))
                vals.append(jackknife_fast(build_pair_matrices(validate_sample(x, y), spec)))
            vals = np.array(vals)
            cvs.append(vals.std(ddof=1) / vals.mean())
        assert cvs[0] > cvs[1] > cvs[2]
