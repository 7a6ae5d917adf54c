"""Kernel-matrix construction and the batched tuple evaluator, checked
against naive per-entry recomputation."""

import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from gammadep import (
    GammadepError,
    KernelPairSpec,
    kernel_values,
    median_bandwidth,
    pairwise_dcov,
    pairwise_ghsic,
    validate_sample,
)
from gammadep import kernels
from gammadep.kernels import (
    _GATHER_ELEMS,
    _TILE_ELEMS,
    F1,
    F2,
    PairKernelMatrices,
    _pairwise_distances,
    apex_value_table,
    build_pair_matrices,
    pack_rows,
    pair_peak_bytes,
    pair_value_table,
    resolve_kernel_spec,
    walk_row_blocks,
)


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

    @pytest.mark.parametrize("d", [400, 1])
    def test_one_tile_buffer(self, d):
        # at n = 300 the output is 0.7 MB and the tile buffer at most
        # 8 * _TILE_ELEMS bytes (0.5 MB); a per-tile temporary would show.
        # The broadcast subtraction also fills one numpy ufunc buffer; the
        # root, taken once over the contiguous output, needs none.
        n = 300
        m = np.random.default_rng(5).standard_normal((n, d))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = pairwise_dcov(m)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= out.nbytes + 8 * _TILE_ELEMS + 8 * np.getbufsize() + 4096


def one_piece_distances(m):
    diff = m[:, None] - m[None]
    return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))


class TestDistanceTiles:
    """The tiled pass against the one-piece reduction, bit for bit, at and
    around the tile edges."""

    D_SMALL_TILE = 64  # 32 x 32 tiles

    def check(self, n, d, seed=0):
        m = np.random.default_rng(seed).standard_normal((n, d))
        got = _pairwise_distances(m)
        assert np.array_equal(got, one_piece_distances(m))
        assert np.array_equal(got, got.T)
        assert np.all(np.diagonal(got) == 0.0)

    def test_tile_sides_used_below(self):
        # side = isqrt(_TILE_ELEMS // d), at least 2
        assert math.isqrt(_TILE_ELEMS // self.D_SMALL_TILE) == 32
        assert math.isqrt(_TILE_ELEMS // 1) == 256
        assert math.isqrt(_TILE_ELEMS // (_TILE_ELEMS + 1)) < 2

    @pytest.mark.parametrize("n", [1, 2, 31, 32, 33, 64, 65, 97])
    def test_around_tile_edges(self, n):
        self.check(n, self.D_SMALL_TILE)

    @pytest.mark.parametrize("n", [1, 2, 255, 256, 257])
    def test_one_column(self, n):
        self.check(n, 1, seed=1)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_smallest_tiles(self, n):
        # the 2 x 2 floor: at this d a lone 1 x 1 tile's einsum would move
        # the last bit; n = 3 and 5 end in a 1 x 1 diagonal tile
        self.check(n, _TILE_ELEMS + 1, seed=2)

    def test_close_rows_keep_their_digits(self):
        # rows 1e-6 apart at 1e3, where a Gram-matrix shortcut would cancel;
        # 85 x 85 tiles at d = 9
        rng = np.random.default_rng(3)
        m = 1e3 + 1e-6 * rng.standard_normal((200, 9))
        got = _pairwise_distances(m)
        assert np.array_equal(got, one_piece_distances(m))
        assert np.all(got[~np.eye(200, dtype=bool)] > 1e-7)


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
        # the in-place exponent is the out-of-place formula, bit for bit
        expected = np.exp(-pairwise_dcov(m) / (2.0 * sigma * sigma))
        assert np.array_equal(pairwise_ghsic(m, sigma), expected)

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

    @pytest.mark.parametrize("sigma", [-1.0, 1e-300, 1e308, math.inf])
    def test_two_sigma_squared_outside_float_range(self, sigma):
        # 2 sigma^2 underflows to 0 at 1e-300 and overflows at 1e308
        with pytest.raises(GammadepError) as exc:
            pairwise_ghsic(np.ones((3, 1)), sigma)
        assert exc.value.code == "BAD_BANDWIDTH"

    def test_exponent_past_float_range_is_zero_without_a_warning(self):
        # 2 sigma^2 = 2e-320 is subnormal, so every off-diagonal d / (2 sigma^2) overflows
        m = np.random.default_rng(7).standard_normal((6, 2))
        z = np.random.default_rng(8).standard_normal((5, 4, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            k = pairwise_ghsic(m, 1e-160)
            values = kernel_values(KernelPairSpec.ghsic(1e-160, 1e-160), F1, z)
        assert np.array_equal(k, np.eye(6))
        assert np.array_equal(values, np.zeros(5))


class TestMedianBandwidth:
    def test_three_points_on_a_line(self):
        # distances {1, 1, 2}, median 1
        assert median_bandwidth([[0.0], [1.0], [2.0]]) == 1.0

    def test_degenerate(self):
        # all rows identical, and a single row
        for m in (np.ones((5, 2)), np.ones((1, 3))):
            with pytest.raises(GammadepError) as exc:
                median_bandwidth(m)
            assert exc.value.code == "DEGENERATE"

    def test_an_overflowing_median_is_refused_without_a_warning(self):
        # finite rows whose differences overflow float64: the positive
        # distances {1e308, 1e308, 1e308, inf, inf, inf} have an inf median,
        # and {1e308, 1e308, inf} a middle pair whose sum overflows
        for rows in ([[-1e308], [1e308], [0.0], [1e308]], [[0.0], [1e308], [-1e308]]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(GammadepError) as exc:
                    median_bandwidth(rows)
            assert exc.value.code == "NONFINITE"

    def test_matches_brute_force_enumeration(self):
        rng = np.random.default_rng(7)
        m = rng.standard_normal((10, 2))
        dists = sorted(
            math.dist(m[i], m[j]) for i in range(10) for j in range(i + 1, 10)
        )
        assert median_bandwidth(m) == pytest.approx(float(np.median(dists)), rel=1e-12)
        upper = pairwise_dcov(m)[np.triu_indices(10, k=1)]
        assert median_bandwidth(m) == float(np.median(upper))

        # zero distances, ties and both parities of the positive count, each
        # against np.median of the upper triangle's positive entries
        dup = rng.standard_normal((7, 2))
        dup[[3, 5]] = dup[0]
        cases = [
            dup,
            rng.integers(0, 3, (9, 1)).astype(float),
            rng.integers(-2, 3, (12, 2)).astype(float),
            np.array([[0.0], [3.0]]),
            np.array([[0.0], [1.0], [3.0], [7.0]]),
            np.array([[0.0], [1.0], [1.0], [3.0], [7.0]]),
        ]
        parities = set()
        for m in cases:
            upper = pairwise_dcov(m)[np.triu_indices(m.shape[0], k=1)]
            positive = upper[upper > 0.0]
            parities.add(positive.size % 2)
            assert median_bandwidth(m) == float(np.median(positive))
        assert parities == {0, 1}


class TestMemoryGuard:
    """The byte model against MemAvailable, with the meminfo file swapped."""

    def sample(self):
        rng = np.random.default_rng(8)
        return validate_sample(rng.standard_normal((50, 3)), rng.standard_normal((50, 2)))

    def meminfo(self, tmp_path, monkeypatch, available_kb):
        path = tmp_path / "meminfo"
        path.write_text(f"MemTotal: 9999999 kB\nMemAvailable: {available_kb} kB\n", encoding="ascii")
        monkeypatch.setattr(kernels, "_MEMINFO", str(path))

    def test_reader(self, tmp_path, monkeypatch):
        self.meminfo(tmp_path, monkeypatch, 2048)
        assert kernels._mem_available() == 2048 * 1024
        monkeypatch.setattr(kernels, "_MEMINFO", str(tmp_path / "absent"))
        assert kernels._mem_available() is None

    @staticmethod
    def packed(n):
        return sum((hi - lo) * (n - lo) for lo, hi in walk_row_blocks(n))

    def test_model(self):
        # one n x n matrix and A~'s packed blocks, plus the larger of one
        # tile and two gather blocks per worker
        cpus = os.cpu_count() or 1
        tile = min(1000, math.isqrt(_TILE_ELEMS // 5)) ** 2 * 5
        assert 0.5 * 1000**2 < self.packed(1000) < 0.53 * 1000**2
        assert pair_peak_bytes(1000, 5, workers=1) == 8 * (
            1000**2 + self.packed(1000) + max(tile, 2 * _GATHER_ELEMS)
        )
        assert pair_peak_bytes(1000, 5) == pair_peak_bytes(1000, 5, workers=cpus)
        assert pair_peak_bytes(1000, 5, workers=cpus + 3) == pair_peak_bytes(1000, 5)
        # for n <= 181 the one block is A~ itself: two n x n matrices
        assert self.packed(181) == 181**2
        assert pair_peak_bytes(181, 1, workers=1) == 8 * (2 * 181**2 + 2 * _GATHER_ELEMS)
        # for n > _GATHER_ELEMS a gather block is one row of n, and one
        # worker's two rows of n are the largest extra
        assert pair_peak_bytes(40000, 1, workers=1) == 8 * (
            40000**2 + self.packed(40000) + 2 * 40000
        )

    def test_rebuild_buffer_fits_in_one_worker_gather_term(self):
        # u, p and q rebuild one walk block's rows x n at a time, so the
        # model needs no term of its own for that buffer (the fullest block
        # over these n fills 0.991 of the term)
        sizes = [*range(1, 3001), 8192, 16384, 32768, 32769, 40000, 100000]
        over = [
            n for n in sizes
            if max(hi - lo for lo, hi in walk_row_blocks(n)) * n > 2 * max(n, _GATHER_ELEMS)
        ]
        assert over == []

    def test_packing_admits_a_larger_n(self):
        # about 1.5 n x n matrices, not two (16 n^2 bytes)
        for n in (2000, 20000):
            assert pair_peak_bytes(n, 5, workers=2) < 0.77 * 16 * n * n

    def test_too_small_refuses_before_allocating(self, tmp_path, monkeypatch):
        s = self.sample()
        self.meminfo(tmp_path, monkeypatch, 1)

        def no_median(matrix):
            raise AssertionError("the median pass ran before the guard")

        monkeypatch.setattr(kernels, "median_bandwidth", no_median)
        for call in (
            lambda: build_pair_matrices(s, KernelPairSpec.dcov()),
            lambda: build_pair_matrices(s, KernelPairSpec.ghsic(1.0, 1.0)),
            lambda: resolve_kernel_spec("ghsic", s),
        ):
            with pytest.raises(GammadepError) as exc:
                call()
            assert exc.value.code == "TOO_LARGE"

    def test_threshold_is_the_model(self, monkeypatch):
        s = self.sample()
        need = pair_peak_bytes(s.n, 3)
        monkeypatch.setattr(kernels, "_mem_available", lambda: need)
        build_pair_matrices(s, KernelPairSpec.dcov())
        monkeypatch.setattr(kernels, "_mem_available", lambda: need - 1)
        with pytest.raises(GammadepError) as exc:
            build_pair_matrices(s, KernelPairSpec.dcov())
        assert exc.value.code == "TOO_LARGE"


def one_row(spec, which, args):
    """kernel_values on a one-row block built from a tuple of m vectors."""
    block = np.asarray([args], dtype=np.float64)
    assert block.shape[:2] == (1, spec.m)
    return float(kernel_values(spec, which, block)[0])


class TestEvalGenericKernel:
    """The cases of the former scalar evaluator, each on a one-row
    ``kernel_values`` block."""

    def test_dcov_ignores_trailing_args(self):
        spec = KernelPairSpec.dcov()
        val = one_row(spec, F1, [[0.0, 0.0], [3.0, 4.0], [9.0, 9.0], [-1.0, 2.0]])
        assert val == 5.0

    def test_ghsic_uses_per_side_bandwidth(self):
        spec = KernelPairSpec.ghsic(1.0, 2.0)
        args = [[0.0], [1.0], [0.0], [0.0]]
        assert one_row(spec, F1, args) == pytest.approx(math.exp(-1.0 / 2.0))
        assert one_row(spec, F2, args) == pytest.approx(math.exp(-1.0 / 8.0))

    def test_pcov_orthogonal(self):
        spec = KernelPairSpec.pcov()
        args = [[1.0, 0.0], [0.0, 1.0], [5.0, 5.0], [6.0, 6.0], [0.0, 0.0]]
        assert one_row(spec, F1, args) == pytest.approx(math.pi / 2.0, abs=1e-12)

    def test_pcov_parallel_is_zero_angle(self):
        spec = KernelPairSpec.pcov()
        args = [[2.0, 2.0], [2.0, 2.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]
        # sqrt rounding can push the cosine a hair below 1; the clamp keeps
        # the angle real and the value collapses to ~1e-8
        assert one_row(spec, F1, args) == pytest.approx(0.0, abs=1e-7)

    def test_arity(self):
        with pytest.raises(GammadepError) as exc:
            kernel_values(KernelPairSpec.dcov(), F1, np.zeros((1, 3, 1)))
        assert exc.value.code == "ARITY"

    def test_pcov_singular(self):
        spec = KernelPairSpec.pcov()
        args = [[1.0, 1.0], [2.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]
        with pytest.raises(GammadepError) as exc:
            one_row(spec, F1, args)
        assert exc.value.code == "PCOV_SINGULAR"


SPECS = {
    "dcov": KernelPairSpec.dcov(),
    "ghsic": KernelPairSpec.ghsic(0.7, 1.3),
    "pcov": KernelPairSpec.pcov(),
}


class TestKernelValues:
    @pytest.mark.parametrize("d", [1, 5, 64])
    @pytest.mark.parametrize("kernel", sorted(SPECS))
    def test_block_matches_its_one_row_calls(self, kernel, d):
        # not bitwise: numpy's einsum may reduce a lone row by another route
        spec = SPECS[kernel]
        z = np.random.default_rng(d).standard_normal((40, spec.m, d))
        for which in (F1, F2):
            block = kernel_values(spec, which, z)
            assert block.shape == (40,)
            rows = [kernel_values(spec, which, z[r : r + 1])[0] for r in range(40)]
            np.testing.assert_allclose(block, rows, rtol=1e-12, atol=0.0)

    def test_cosine_above_one_is_clamped(self):
        # (1, 1, 1) . (2, 2, 2) / (|(1, 1, 1)| |(2, 2, 2)|) rounds to 1 + 2^-52
        args = [[1.0, 1.0, 1.0], [2.0, 2.0, 2.0], [5.0, 0.0, 1.0], [0.0, 3.0, 1.0], [0.0, 0.0, 0.0]]
        assert one_row(SPECS["pcov"], F1, args) == 0.0

    def test_singular_last_row_of_a_block(self):
        spec = SPECS["pcov"]
        z = np.random.default_rng(3).standard_normal((6, 5, 2))
        kernel_values(spec, F1, z)
        z[-1, 1] = z[-1, 4]
        with pytest.raises(GammadepError) as exc:
            kernel_values(spec, F1, z)
        assert exc.value.code == "PCOV_SINGULAR"

    @pytest.mark.parametrize("shape", [(4, 3, 2), (4, 2)])
    def test_arity(self, shape):
        with pytest.raises(GammadepError) as exc:
            kernel_values(SPECS["dcov"], F1, np.zeros(shape))
        assert exc.value.code == "ARITY"

    def test_unknown_side(self):
        with pytest.raises(GammadepError) as exc:
            kernel_values(SPECS["dcov"], "f3", np.zeros((1, 4, 1)))
        assert exc.value.code == "BAD_KERNEL"


def literal_angle(a, b, apex):
    u = [p - q for p, q in zip(a, apex)]
    v = [p - q for p, q in zip(b, apex)]
    cosine = math.fsum(p * q for p, q in zip(u, v)) / (math.dist(a, apex) * math.dist(b, apex))
    return math.acos(min(1.0, max(-1.0, cosine)))


class TestValueTables:
    """The oracle's tables against literal per-entry formulas."""

    @pytest.mark.parametrize("d", [1, 3, 64])
    @pytest.mark.parametrize("n", [2, 5, 9])
    @pytest.mark.parametrize("kernel", ["dcov", "ghsic"])
    def test_pair_table(self, kernel, n, d):
        spec = SPECS[kernel]
        data = np.random.default_rng(10 * n + d).standard_normal((n, d))
        for which, sigma in ((F1, 0.7), (F2, 1.3)):
            table = pair_value_table(spec, which, data)
            assert np.array_equal(table, table.T)
            for i in range(n):
                for j in range(n):
                    dist = math.dist(data[i], data[j])
                    want = dist if kernel == "dcov" else math.exp(-dist / (2.0 * sigma * sigma))
                    assert table[i, j] == pytest.approx(want, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("d", [1, 3, 64])
    @pytest.mark.parametrize("n", [2, 5, 9])
    def test_apex_table(self, n, d):
        spec = SPECS["pcov"]
        data = np.random.default_rng(10 * n + d).standard_normal((n, d))
        table = apex_value_table(spec, F1, data)
        assert table.shape == (n, n, n)
        assert np.array_equal(table, table.transpose(1, 0, 2), equal_nan=True)
        i, j, k = np.indices((n, n, n))
        assert np.array_equal(np.isnan(table), (i == k) | (j == k) | (i == j))
        for i, j, k in zip(*np.nonzero(~np.isnan(table))):
            want = literal_angle(data[i], data[j], data[k])
            assert table[i, j, k] == pytest.approx(want, rel=1e-13, abs=0.0)


class TestBuildPairMatrices:
    def test_invariants_hold_for_random_inputs(self):
        rng = np.random.default_rng(8)
        for seed in range(10):
            x = rng.standard_normal((7, 2))
            y = rng.standard_normal((7, 3))
            s = validate_sample(x, y)
            mats = build_pair_matrices(s, KernelPairSpec.dcov())
            # n <= 181: the one walk block is the whole of A~
            (a,) = mats.a.blocks
            assert np.array_equal(a, a.T)
            assert np.all(np.diag(a) == 0.0)
            gm = build_pair_matrices(
                s, KernelPairSpec.ghsic(median_bandwidth(x), median_bandwidth(y))
            )
            (ga,) = gm.a.blocks
            assert np.array_equal(gm.b, gm.b.T)
            assert np.all(np.diag(ga) == 0.0) and np.all(np.diag(gm.b) == 0.0)
            off = ~np.eye(7, dtype=bool)
            assert np.all((ga[off] > 0) & (ga[off] <= 1))

    def test_nonzero_diagonal_is_rejected(self):
        s = validate_sample(np.random.default_rng(9).standard_normal((6, 2)), np.eye(6))
        mats = build_pair_matrices(s, KernelPairSpec.dcov())
        unit = np.eye(6)
        # A~'s diagonal is checked on the dense matrix, before packing
        for build in (
            lambda: pack_rows(dense_kernel(mats.spec, s.x) + unit),
            lambda: PairKernelMatrices(mats.a, mats.b + unit, mats.spec),
        ):
            with pytest.raises(GammadepError) as exc:
                build()
            assert exc.value.code == "BAD_KERNEL"

    def test_pcov_has_no_pair_matrices(self):
        s = validate_sample(np.eye(6), np.eye(6))
        with pytest.raises(GammadepError) as exc:
            build_pair_matrices(s, KernelPairSpec.pcov())
        assert exc.value.code == "PAIR_KERNEL_REQUIRED"

    def test_pcov_spec_is_refused_by_the_constructor(self):
        s = validate_sample(np.random.default_rng(10).standard_normal((6, 2)), np.eye(6))
        mats = build_pair_matrices(s, KernelPairSpec.dcov())
        with pytest.raises(GammadepError) as exc:
            PairKernelMatrices(mats.a, mats.b, KernelPairSpec.pcov())
        assert exc.value.code == "PAIR_KERNEL_REQUIRED"

    @staticmethod
    def _direct_sums(a, b):
        """Every sum a ``PairKernelMatrices`` holds, reduced from its matrices."""
        r, c = a.sum(axis=1), b.sum(axis=1)
        vectors = {
            "r": r,
            "c": c,
            "u": np.einsum("ij,ij->i", a, b),
            "p": np.einsum("ij,j->i", a, c),
            "q": np.einsum("ij,j->i", b, r),
        }
        scalars = {
            "a_total": float(r.sum()),
            "b_total": float(c.sum()),
            "a_sq": float(np.einsum("ij,ij->", a, a)),
            "b_sq": float(np.einsum("ij,ij->", b, b)),
        }
        return vectors, scalars

    @pytest.mark.parametrize("kind", ["dcov", "ghsic"])
    def test_row_sums_are_the_matrices_row_sums(self, kind):
        rng = np.random.default_rng(11)
        s = validate_sample(rng.standard_normal((40, 3)), rng.standard_normal((40, 2)))
        mats = build_pair_matrices(s, resolve_kernel_spec(kind, s))
        dense = dense_kernel(mats.spec, s.x)
        for mat, rows in ((dense, mats.r), (mats.b, mats.c)):
            assert rows.tobytes() == mat.sum(axis=1).tobytes()
        vectors, scalars = self._direct_sums(dense, mats.b)
        for name, want in vectors.items():
            got = getattr(mats, name)
            assert got.tobytes() == want.tobytes(), name
            assert not got.flags.writeable, name
            with pytest.raises(ValueError):
                got[0] = 0.0
        for name, want in scalars.items():
            assert type(getattr(mats, name)) is float and getattr(mats, name) == want, name
        with pytest.raises(AttributeError):
            mats.r = mats.c
        # a matrix pair built directly, not through build_pair_matrices, gets its own
        a = dense + (1.0 - np.eye(40))
        shifted = PairKernelMatrices(pack_rows(a), mats.b, mats.spec)
        assert shifted.r.tobytes() == a.sum(axis=1).tobytes()
        assert shifted.c is not mats.c and np.array_equal(shifted.c, mats.c)
        vectors, scalars = self._direct_sums(a, mats.b)
        for name, want in vectors.items():
            assert getattr(shifted, name).tobytes() == want.tobytes(), name
        for name, want in scalars.items():
            assert getattr(shifted, name) == want, name
        assert shifted.a_total != mats.a_total and shifted.a_sq != mats.a_sq
        assert not np.array_equal(shifted.p, mats.p)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_a_nonfinite_entry_is_refused(self, bad):
        rng = np.random.default_rng(12)
        s = validate_sample(rng.standard_normal((8, 2)), rng.standard_normal((8, 2)))
        mats = build_pair_matrices(s, KernelPairSpec.dcov())
        for name in ("a", "b"):
            mat = dense_kernel(mats.spec, s.x) if name == "a" else mats.b.copy()
            mat[2, 5] = mat[5, 2] = bad
            pair = (pack_rows(mat), mats.b) if name == "a" else (mats.a, mat)
            with pytest.raises(GammadepError) as exc:
                PairKernelMatrices(*pair, mats.spec)
            assert exc.value.code == "NONFINITE", name

    def test_an_overflowing_distance_is_refused_without_a_warning(self):
        # finite rows whose differences overflow float64 give inf distances
        x = np.array([[-1e308], [1e308], [0.0], [1.0], [2.0]])
        s = validate_sample(x, np.arange(5.0).reshape(-1, 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isinf(pairwise_dcov(x)).any()
            with pytest.raises(GammadepError) as exc:
                build_pair_matrices(s, KernelPairSpec.dcov())
        assert exc.value.code == "NONFINITE"


def dense_kernel(spec, data):
    """The zero-diagonal n x n kernel matrix of one side, built densely."""
    mat = pairwise_dcov(data) if spec.id == "dcov" else pairwise_ghsic(data, spec.bandwidths[0])
    np.fill_diagonal(mat, 0.0)
    return mat


def assert_row_einsums(mats, a):
    """u, p = A~ c and q = B~ r are the dense row einsums bit for bit."""
    b = mats.b
    want = {
        "u": np.einsum("ij,ij->i", a, b),
        "p": np.einsum("ij,j->i", a, mats.c),
        "q": np.einsum("ij,j->i", b, mats.r),
    }
    for name, vec in want.items():
        got = getattr(mats, name)
        assert got.tobytes() == vec.tobytes(), name
        assert not got.flags.writeable, name


class TestPackedRows:
    """A~ is kept only as the upper-triangle row blocks the T1 walk reads."""

    @staticmethod
    def pair(n, kind, seed=41):
        rng = np.random.default_rng(seed + n)
        x = rng.standard_normal((n, 3))
        s = validate_sample(x, 0.5 * x[:, :2] + rng.standard_normal((n, 2)))
        spec = resolve_kernel_spec(kind, s)
        return s, spec, build_pair_matrices(s, spec)

    @pytest.mark.parametrize("kind", ["dcov", "ghsic"])
    @pytest.mark.parametrize("n", [182, 451, 700, 1500])
    def test_multi_block_sums_are_the_dense_reductions(self, n, kind):
        s, spec, mats = self.pair(n, kind)
        a = dense_kernel(spec, s.x)
        b = mats.b
        spans = walk_row_blocks(n)
        assert len(spans) > 1 and len(mats.a.blocks) == len(spans)
        for (lo, hi), blk in zip(spans, mats.a.blocks):
            assert blk.shape == (hi - lo, n - lo) and blk.base is None
            assert np.array_equal(blk, a[lo:hi, lo:])
            assert not blk.flags.writeable
            with pytest.raises(ValueError):
                blk[0, 0] = 1.0
        r, c = a.sum(axis=1), b.sum(axis=1)
        want = {
            "r": r,
            "c": c,
            "a_total": float(r.sum()),
            "b_total": float(c.sum()),
            "a_sq": float(np.einsum("ij,ij->", a, a)),
            "b_sq": float(np.einsum("ij,ij->", b, b)),
        }
        for name, value in want.items():
            got = getattr(mats, name)
            if isinstance(value, float):
                assert type(got) is float and got == value, name
            else:
                assert got.tobytes() == value.tobytes(), name
                assert not got.flags.writeable, name
        assert_row_einsums(mats, a)

    @pytest.mark.parametrize("n", [5, 181])
    def test_one_block_is_the_dense_matrix(self, n):
        for kind in ("dcov", "ghsic"):
            s, spec, mats = self.pair(n, kind)
            (blk,) = mats.a.blocks
            a = dense_kernel(spec, s.x)
            assert np.array_equal(blk, a) and blk.base is None and not blk.flags.writeable
            assert_row_einsums(mats, a)

    def test_only_b_is_n_by_n(self):
        n = 600
        _, _, mats = self.pair(n, "dcov")
        held = [mats.b, mats.r, mats.c, mats.u, mats.p, mats.q, *mats.a.blocks]
        # an array that is n x n, or a view that keeps one alive
        square = [
            arr for arr in held
            if arr.shape == (n, n) or (arr.base is not None and arr.base.size >= n * n)
        ]
        assert len(square) == 1 and square[0] is mats.b
        assert sum(blk.nbytes for blk in mats.a.blocks) <= 0.6 * 8 * n * n



class TestNumpyAssumptions:
    """What numpy must keep for u, p, q and S(pi) to be fixed by the data
    alone."""

    def test_dot_einsum_bits_do_not_depend_on_blas_threads(self):
        """S(pi) = r . c[pi] and the permutation variance's dots are "i,i->"
        einsums, which give the same bits under 1 and 2 BLAS threads. The
        BLAS ddot they replace does not: OpenBLAS splits it above
        n = 10,000, and ``r @ c[perm]`` changed in 17 and 18 of these 20
        permutations (numpy 2.4.6, scipy-openblas 0.3.31, 2 cores), and in
        14 to 15 of 20 on other vectors at n up to 26,000. Vectors only: a
        whole test at n > 10,000 is too large for tier 1. Each run is a
        fresh interpreter, since a BLAS library reads its thread count
        once, when it loads."""
        script = (
            "import sys, numpy as np\n"
            "for n in (10_001, 20_000):\n"
            "    rng = np.random.default_rng(n)\n"
            "    r, c = rng.standard_normal((2, n))\n"
            "    for _ in range(20):\n"
            "        sys.stdout.buffer.write(np.einsum('i,i->', r, c[rng.permutation(n)]).tobytes())\n"
            "    sys.stdout.buffer.write(np.einsum('i,i->', r, r).tobytes())\n"
        )
        blas = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        runs = []
        for threads in ("1", "2"):
            env = dict(os.environ, **dict.fromkeys(blas, threads))
            done = subprocess.run([sys.executable, "-c", script], capture_output=True, env=env, timeout=120)
            assert done.returncode == 0, done.stderr.decode()
            runs.append(done.stdout)
        assert len(runs[0]) == 2 * 21 * 8
        assert runs[1] == runs[0]

    @pytest.mark.parametrize("length", [1500, 8192])
    def test_row_einsum_bits_do_not_depend_on_rows_per_call(self, length):
        """A row's einsum sum is the same whether one call reduces 1, 13 or
        40 rows, so the walk's block sizes leave u, p and q as the dense row
        einsums. Measured on numpy 2.4.6: from rows of 8193 elements,
        einsum's buffering makes the bits depend on the rows per call, so
        above n = 8192 u, p and q are fixed per n by the walk schedule."""
        rng = np.random.default_rng(length)
        a, b = rng.standard_normal((2, 40, length))
        c = rng.standard_normal(length)
        sums = []
        for rows in (1, 13, 40):
            spans = [slice(lo, lo + rows) for lo in range(0, 40, rows)]
            u = np.concatenate([np.einsum("ij,ij->i", a[sl], b[sl]) for sl in spans])
            p = np.concatenate([np.einsum("ij,j->i", a[sl], c) for sl in spans])
            sums.append(u.tobytes() + p.tobytes())
        assert sums[1] == sums[0] and sums[2] == sums[0]
