"""Kernel-matrix construction checked against naive double-loop recomputation."""

import math

import numpy as np
import pytest

from gammadep import (
    GammadepError,
    KernelPairSpec,
    eval_generic_kernel,
    median_bandwidth,
    pairwise_dcov,
    pairwise_ghsic,
    validate_sample,
)
from gammadep.kernels import F1, F2, PairKernelMatrices, build_pair_matrices


def naive_distances(m):
    n = len(m)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            out[i, j] = math.sqrt(sum((m[i][k] - m[j][k]) ** 2 for k in range(len(m[0]))))
    return out


class TestPairwiseDcov:
    def test_3_4_5_triangle(self):
        got = pairwise_dcov([[0.0, 0.0], [3.0, 4.0]])
        assert np.array_equal(got, [[0.0, 5.0], [5.0, 0.0]])

    def test_single_row(self):
        assert np.array_equal(pairwise_dcov([[1.0, 2.0, 3.0]]), [[0.0]])

    def test_matches_naive_recomputation(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((8, 3))
        assert np.allclose(pairwise_dcov(m), naive_distances(m.tolist()), atol=1e-12, rtol=0)

    def test_symmetric_zero_diagonal(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            m = rng.standard_normal((9, 4))
            d = pairwise_dcov(m)
            assert np.array_equal(d, d.T)
            assert np.all(np.diag(d) == 0.0)
            assert np.all(d >= 0.0)

    def test_translation_invariance(self):
        rng = np.random.default_rng(2)
        m = rng.standard_normal((7, 3))
        shift = rng.standard_normal(3)
        assert np.allclose(pairwise_dcov(m), pairwise_dcov(m + shift), atol=1e-12, rtol=0)

    def test_positive_homogeneity(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((6, 2))
        c = 3.7
        assert np.allclose(pairwise_dcov(c * m), c * pairwise_dcov(m), rtol=1e-12)


class TestPairwiseGhsic:
    def test_identical_rows_all_ones(self):
        m = np.ones((4, 2))
        assert np.array_equal(pairwise_ghsic(m, 1.0), np.ones((4, 4)))

    def test_direct_formula_value(self):
        got = pairwise_ghsic([[0.0, 0.0], [3.0, 4.0]], 1.0)
        assert got[0, 1] == pytest.approx(math.exp(-5.0 / 2.0), abs=1e-12)
        assert got[0, 1] == pytest.approx(0.082085, abs=1e-6)

    def test_matches_naive_recomputation(self):
        rng = np.random.default_rng(4)
        m = rng.standard_normal((8, 3))
        sigma = median_bandwidth(m)
        naive = np.exp(-naive_distances(m.tolist()) / (2 * sigma**2))
        assert np.allclose(pairwise_ghsic(m, sigma), naive, atol=1e-12, rtol=0)

    def test_unit_diagonal_and_range(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((10, 2))
        k = pairwise_ghsic(m, 0.8)
        assert np.all(np.diag(k) == 1.0)
        assert np.all((k > 0.0) & (k <= 1.0))

    def test_rigid_motion_invariance(self):
        rng = np.random.default_rng(6)
        m = rng.standard_normal((8, 3))
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        moved = m @ q.T + rng.standard_normal(3)
        assert np.allclose(pairwise_ghsic(m, 1.3), pairwise_ghsic(moved, 1.3), atol=1e-10, rtol=0)

    def test_bad_bandwidth(self):
        with pytest.raises(GammadepError) as exc:
            pairwise_ghsic(np.ones((3, 1)), 0.0)
        assert exc.value.code == "BAD_BANDWIDTH"


class TestMedianBandwidth:
    def test_three_points_on_a_line(self):
        # distances {1, 1, 2}, median 1
        assert median_bandwidth([[0.0], [1.0], [2.0]]) == 1.0

    def test_degenerate(self):
        with pytest.raises(GammadepError) as exc:
            median_bandwidth(np.ones((5, 2)))
        assert exc.value.code == "DEGENERATE"

    def test_matches_brute_force_enumeration(self):
        rng = np.random.default_rng(7)
        m = rng.standard_normal((10, 2))
        dists = sorted(
            math.dist(m[i], m[j]) for i in range(10) for j in range(i + 1, 10)
        )
        assert median_bandwidth(m) == pytest.approx(float(np.median(dists)), rel=1e-12)


class TestEvalGenericKernel:
    def test_dcov_ignores_trailing_args(self):
        spec = KernelPairSpec.dcov()
        val = eval_generic_kernel(spec, F1, [[0.0, 0.0], [3.0, 4.0], [9.0, 9.0], [-1.0, 2.0]])
        assert val == 5.0

    def test_ghsic_uses_per_side_bandwidth(self):
        spec = KernelPairSpec.ghsic(1.0, 2.0)
        args = [[0.0], [1.0], [0.0], [0.0]]
        assert eval_generic_kernel(spec, F1, args) == pytest.approx(math.exp(-1.0 / 2.0))
        assert eval_generic_kernel(spec, F2, args) == pytest.approx(math.exp(-1.0 / 8.0))

    def test_pcov_orthogonal(self):
        spec = KernelPairSpec.pcov()
        args = [[1.0, 0.0], [0.0, 1.0], [5.0, 5.0], [6.0, 6.0], [0.0, 0.0]]
        assert eval_generic_kernel(spec, F1, args) == pytest.approx(math.pi / 2.0, abs=1e-12)

    def test_pcov_parallel_is_zero_angle(self):
        spec = KernelPairSpec.pcov()
        args = [[2.0, 2.0], [2.0, 2.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]
        # sqrt rounding can push the cosine a hair below 1; the clamp keeps
        # the angle real and the value collapses to ~1e-8
        assert eval_generic_kernel(spec, F1, args) == pytest.approx(0.0, abs=1e-7)

    def test_arity(self):
        with pytest.raises(GammadepError) as exc:
            eval_generic_kernel(KernelPairSpec.dcov(), F1, [[0.0], [1.0], [2.0]])
        assert exc.value.code == "ARITY"

    def test_pcov_singular(self):
        spec = KernelPairSpec.pcov()
        args = [[1.0, 1.0], [2.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]
        with pytest.raises(GammadepError) as exc:
            eval_generic_kernel(spec, F1, args)
        assert exc.value.code == "PCOV_SINGULAR"


class TestBuildPairMatrices:
    def test_invariants_hold_for_random_inputs(self):
        rng = np.random.default_rng(8)
        for seed in range(10):
            x = rng.standard_normal((7, 2))
            y = rng.standard_normal((7, 3))
            s = validate_sample(x, y)
            mats = build_pair_matrices(s, KernelPairSpec.dcov())
            assert np.array_equal(mats.a, mats.a.T)
            assert np.all(np.diag(mats.a) == 0.0)
            gm = build_pair_matrices(
                s, KernelPairSpec.ghsic(median_bandwidth(x), median_bandwidth(y))
            )
            assert np.array_equal(gm.b, gm.b.T)
            assert np.all(np.diag(gm.a) == 0.0) and np.all(np.diag(gm.b) == 0.0)
            off = ~np.eye(7, dtype=bool)
            assert np.all((gm.a[off] > 0) & (gm.a[off] <= 1))

    def test_nonzero_diagonal_is_rejected(self):
        s = validate_sample(np.random.default_rng(9).standard_normal((6, 2)), np.eye(6))
        mats = build_pair_matrices(s, KernelPairSpec.dcov())
        unit = np.eye(6)
        for a, b in ((mats.a + unit, mats.b), (mats.a, mats.b + unit)):
            with pytest.raises(GammadepError) as exc:
                PairKernelMatrices(a, b, mats.spec)
            assert exc.value.code == "BAD_KERNEL"

    def test_pcov_has_no_pair_matrices(self):
        s = validate_sample(np.eye(6), np.eye(6))
        with pytest.raises(GammadepError) as exc:
            build_pair_matrices(s, KernelPairSpec.pcov())
        assert exc.value.code == "PAIR_KERNEL_REQUIRED"
