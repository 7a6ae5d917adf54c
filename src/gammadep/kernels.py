"""Pairwise kernel matrices and batched m-argument kernel evaluation.

Two computation routes live here on purpose. ``pairwise_dcov`` /
``pairwise_ghsic`` build the n x n matrices consumed by the O(n^2) fast
paths; ``kernel_values`` evaluates f1 or f2 over a block of coordinate
tuples, one value per tuple. It backs the brute-force enumeration used as
the correctness oracle (through ``pair_value_table`` and
``apex_value_table``) and the Monte-Carlo population means in ``simgen``.

The distance matrix behind both builders is computed on the upper triangle
only, in cache-sized tiles of row pairs that share one preallocated buffer,
and each off-diagonal tile is mirrored into the lower triangle. A pass
therefore holds its output plus one tile, and does about half the subtract
and multiply-add work of a full n x n pass. ``median_bandwidth`` takes its
median from that one matrix in place.

``pair_peak_bytes`` models a pair test's peak: A~ and B~ plus the tile and
the two live T1 gather blocks. ``build_pair_matrices`` and the ghsic median
pass in ``resolve_kernel_spec`` compare it with MemAvailable before their
first n x n allocation and refuse a run that cannot fit with TOO_LARGE.

Every statistic here is a U-statistic over distinct indices, so the fast
paths never read a kernel value at a repeated index. ``build_pair_matrices``
therefore zeroes both diagonals once and freezes the arrays: a
``PairKernelMatrices`` holds A~ and B~, the zero-diagonal matrices that
``ustat`` and ``variance`` share without copying. It also takes, once and
on construction, every O(n^2) reduction of the pair that a closed form
reads: the off-diagonal row sums r and c, u_i = sum_j a_ij b_ij,
p = A~ c and q = B~ r, the totals A.. = sum r and B.. = sum c, and the
squared norms ||A~||^2 and ||B~||^2. The triple reads r, c and the totals;
the jackknife display and the permutation variance read only these sums,
never a matrix. The only other reduction of A~ and B~ is the triple's T1
gather. Constructing one for a kernel that is not pair-dependent raises
PAIR_KERNEL_REQUIRED, so the fast paths that take a ``PairKernelMatrices``
need no check of their own, and one whose row sums are not finite (a
distance past float range is inf) raises NONFINITE.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .data_model import DCOV, GHSIC, KernelPairSpec, Sample
from .errors import fail

F1 = "f1"
F2 = "f2"

# Elements in the distance tile buffer (512 KB): a tile holds at most
# side x side row pairs of d differences, so side = isqrt(_TILE_ELEMS // d).
# Timed at (n, d) = (1000, 200), (700, 200), (1500, 5) and (700, 1) on a
# 2-core x86-64 host, 2^16 was fastest or within noise of 2^14..2^19; it
# keeps n = 100, d = 5 in one tile.
_TILE_ELEMS = 1 << 16

# Elements in one T1 gather block in ``ustat`` (256 KB of float64); a
# block's two gathers together hold at most twice this. Small enough for
# L2, and a single block for every n <= 181.
_GATHER_ELEMS = 1 << 15

# Read, never written, by the memory guard; absent outside Linux.
_MEMINFO = "/proc/meminfo"


def _tile_side(d: int) -> int:
    """Rows (and columns) of a distance tile at d coordinates."""
    return max(2, math.isqrt(_TILE_ELEMS // max(1, d)))


def pair_peak_bytes(n: int, d: int, workers: Optional[int] = None) -> int:
    """Byte model of the peak a pair-kernel test allocates at n rows.

    A~ and B~ (2 x 8 n^2 bytes), plus the distance tile of the wider side
    (d columns; 512 KB for d <= 16384), plus the two live T1 gather blocks
    per permutation worker: the rows x n block of gathered rows and the
    rows x (n - lo) block of its columns from lo on, which together hold at
    most 2 x 256 KB (or two rows of n). ``workers`` defaults to,
    and is bounded by, ``os.cpu_count()``. The tile and the gather blocks
    are never live together, so the model is an upper bound, within a few
    percent of the traced peak once the two matrices dominate.
    """
    cpus = os.cpu_count() or 1
    workers = cpus if workers is None else min(workers, cpus)
    tile = min(n, _tile_side(d)) ** 2 * d
    return 8 * (2 * n * n + tile + 2 * workers * max(n, _GATHER_ELEMS))


def _mem_available() -> Optional[int]:
    """MemAvailable in bytes, or None where the file or the field is absent."""
    try:
        with open(_MEMINFO, "rb") as fh:
            for line in fh:
                if line.startswith(b"MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return None


def _check_fits(sample: Sample) -> None:
    """Refuse, with TOO_LARGE, a pair test whose byte model exceeds the
    memory available now; called before its first n x n allocation."""
    need = pair_peak_bytes(sample.n, max(sample.d1, sample.d2))
    avail = _mem_available()
    if avail is not None and need > avail:
        raise fail(
            "TOO_LARGE",
            f"n={sample.n} needs about {need / 2**20:.0f} MB for two n x n matrices, "
            f"{avail / 2**20:.0f} MB available",
        )


def _pairwise_distances(matrix: np.ndarray) -> np.ndarray:
    """Euclidean distance matrix from the explicit row differences.

    Squared differences are accumulated in float64 before the square root
    (no Gram-matrix shortcut, which loses digits through cancellation when
    rows are close). Only the upper triangle is computed, in square tiles
    of row pairs: each tile subtracts into one reused buffer and reduces
    over the contiguous d axis straight into the output, and an off-diagonal
    tile's squared sums are then mirrored into the lower triangle. The root
    is taken once, in place, over the whole contiguous output, which needs
    no ufunc buffer (a root on each strided tile would allocate one per
    tile).
    Every entry goes through the same einsum reduction whatever the tiling,
    so the matrix does not depend on the tile size; it is exactly symmetric
    by the mirror and has a zero diagonal because row_i - row_i is 0.

    Tiles are at least 2 x 2: numpy's einsum reduces a lone 1 x 1 x d
    operand by another route, which moved the last bit at d = 9000.
    """
    m = np.ascontiguousarray(matrix, dtype=np.float64)
    n, d = m.shape
    out = np.empty((n, n), dtype=np.float64)
    side = _tile_side(d)
    tile = min(n, side)
    buf = np.empty(tile * tile * d, dtype=np.float64)
    # a difference past float range is an inf distance, refused downstream
    with np.errstate(over="ignore"):
        for i0 in range(0, n, side):
            i1 = min(n, i0 + side)
            for j0 in range(i0, n, side):
                j1 = min(n, j0 + side)
                diff = buf[: (i1 - i0) * (j1 - j0) * d].reshape(i1 - i0, j1 - j0, d)
                diff[...] = m[i0:i1, None, :]
                np.subtract(diff, m[None, j0:j1, :], out=diff)
                blk = out[i0:i1, j0:j1]
                np.einsum("ijk,ijk->ij", diff, diff, out=blk)
                if j0 != i0:
                    out[j0:j1, i0:i1] = blk.T
    return np.sqrt(out, out=out)


def pairwise_dcov(matrix) -> np.ndarray:
    """Matrix of Euclidean distances ||row_i - row_j||."""
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim == 1:
        m = m.reshape(-1, 1)
    return _pairwise_distances(m)


def pairwise_ghsic(matrix, sigma: float) -> np.ndarray:
    """Gaussian kernel matrix exp{-||row_i - row_j|| / (2 sigma^2)}.

    The exponent uses the unsquared distance; see the README note on this
    convention.
    """
    if not (sigma > 0 and 0.0 < 2.0 * sigma * sigma < math.inf):
        raise fail("BAD_BANDWIDTH", f"sigma must be positive with 2 sigma^2 finite and nonzero, got {sigma!r}")
    k = pairwise_dcov(matrix)
    np.negative(k, out=k)
    # an exponent past float range overflows to -inf, and its entry is 0
    with np.errstate(over="ignore"):
        np.divide(k, 2.0 * sigma * sigma, out=k)
    return np.exp(k, out=k)


def median_bandwidth(matrix) -> float:
    """Median of the strictly positive pairwise distances (i < j).

    Taken in place from the full distance matrix, which holds every
    positive distance twice: the median of that doubled multiset is the
    mean of its two middle order statistics, which are the two middle
    values of the upper triangle when that count is even and its middle
    value twice when it is odd. So the result is the upper-triangle median
    bit for bit, with no mask or copy of the matrix.

    Raises DEGENERATE when every pair of rows coincides (no positive
    distance exists to take a median of).
    """
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim == 1:
        m = m.reshape(-1, 1)
    n = m.shape[0]
    if n < 2:
        raise fail("DEGENERATE", "need at least two rows for a bandwidth")
    flat = _pairwise_distances(m).reshape(-1)
    positive = np.count_nonzero(flat)
    if positive == 0:
        raise fail("DEGENERATE", "all rows identical; no positive distance")
    # ascending: flat.size - positive zeros, then each positive value twice
    hi = flat.size - positive // 2
    flat.partition((hi - 1, hi))
    return float((flat[hi - 1] + flat[hi]) / 2.0)


def kernel_values(spec: KernelPairSpec, which: str, z) -> np.ndarray:
    """f1 or f2 at every row of a (count, m, d) block of coordinate tuples.

    Pair kernels read z1 and z2 of each tuple; the angle kernel reads z1, z2
    and the apex z5. Its cosine is clamped to [-1, 1] before arccos
    (floating-point cosines of parallel vectors can land at 1 + ~1e-16).
    """
    if which not in (F1, F2):
        raise fail("BAD_KERNEL", f"which must be 'f1' or 'f2', got {which!r}")
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 3 or z.shape[1] != spec.m:
        raise fail("ARITY", f"{spec.id} takes (count, {spec.m}, d) blocks, got shape {z.shape}")

    if spec.is_pair_dependent:
        diff = z[:, 0, :] - z[:, 1, :]
        dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        if spec.id == DCOV:
            return dist
        sigma = spec.bandwidths[0] if which == F1 else spec.bandwidths[1]
        with np.errstate(over="ignore"):
            return np.exp(-dist / (2.0 * sigma * sigma))
    # angle kernel: arccos of the normalized inner product of z1-z5 and z2-z5
    u = z[:, 0, :] - z[:, 4, :]
    v = z[:, 1, :] - z[:, 4, :]
    nu = np.sqrt(np.einsum("ij,ij->i", u, u))
    nv = np.sqrt(np.einsum("ij,ij->i", v, v))
    if np.any(nu == 0.0) or np.any(nv == 0.0):
        raise fail("PCOV_SINGULAR", "zero-norm direction (z1=z5 or z2=z5)")
    cosine = np.clip(np.einsum("ij,ij->i", u, v) / (nu * nv), -1.0, 1.0)
    return np.arccos(cosine)


@dataclass(frozen=True)
class PairKernelMatrices:
    """A~ and B~: the n x n matrices of f1 on X pairs and f2 on Y pairs,
    with zero diagonals, and the O(n^2) sums every closed form reads:
    the row sums r and c, u_i = sum_j a_ij b_ij, p = A~ c and q = B~ r (all
    read-only), the totals A.. and B.., and the squared norms of A~ and B~."""

    a: np.ndarray
    b: np.ndarray
    spec: KernelPairSpec
    r: np.ndarray = field(init=False, compare=False, repr=False)
    c: np.ndarray = field(init=False, compare=False, repr=False)
    u: np.ndarray = field(init=False, compare=False, repr=False)
    p: np.ndarray = field(init=False, compare=False, repr=False)
    q: np.ndarray = field(init=False, compare=False, repr=False)
    a_total: float = field(init=False, compare=False, repr=False)
    b_total: float = field(init=False, compare=False, repr=False)
    a_sq: float = field(init=False, compare=False, repr=False)
    b_sq: float = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not self.spec.is_pair_dependent:
            raise fail("PAIR_KERNEL_REQUIRED", f"{self.spec.id} has no pair fast path")
        a, b = self.a, self.b
        for name, mat in (("a", a), ("b", b)):
            if np.any(np.diagonal(mat) != 0.0):
                raise fail("BAD_KERNEL", f"{name} must have a zero diagonal")
        r, c = a.sum(axis=1), b.sum(axis=1)
        # an entry past float range (an inf distance) leaves its row sum inf or nan
        if not (np.isfinite(r).all() and np.isfinite(c).all()):
            raise fail("NONFINITE", "a kernel matrix has a row sum that is not finite")
        u = np.einsum("ij,ij->i", a, b)
        for name, vec in (("r", r), ("c", c), ("u", u), ("p", a @ c), ("q", b @ r)):
            vec.setflags(write=False)
            object.__setattr__(self, name, vec)
        object.__setattr__(self, "a_total", float(r.sum()))
        object.__setattr__(self, "b_total", float(c.sum()))
        object.__setattr__(self, "a_sq", float(np.einsum("ij,ij->", a, a)))
        object.__setattr__(self, "b_sq", float(np.einsum("ij,ij->", b, b)))

    @property
    def n(self) -> int:
        return self.a.shape[0]


def build_pair_matrices(sample: Sample, spec: KernelPairSpec) -> PairKernelMatrices:
    """Read-only A~ and B~ for a pair-dependent kernel (dcov or ghsic).

    ghsic's exp(0) = 1 diagonal is zeroed here; dcov's is already 0.
    """
    if not spec.is_pair_dependent:
        raise fail("PAIR_KERNEL_REQUIRED", f"{spec.id} is not pair-dependent")
    _check_fits(sample)
    if spec.id == DCOV:
        a = pairwise_dcov(sample.x)
        b = pairwise_dcov(sample.y)
    else:
        a = pairwise_ghsic(sample.x, spec.bandwidths[0])
        b = pairwise_ghsic(sample.y, spec.bandwidths[1])
    np.fill_diagonal(a, 0.0)
    np.fill_diagonal(b, 0.0)
    a.setflags(write=False)
    b.setflags(write=False)
    return PairKernelMatrices(a, b, spec)


def resolve_kernel_spec(kind: str, sample: Sample = None, sigmas=None) -> KernelPairSpec:
    """Build a concrete KernelPairSpec from a CLI-style kernel name.

    ``sigmas`` become the spec's bandwidths, which only ghsic accepts. A
    ghsic kernel without them takes the median heuristic on the sample's x
    and y blocks.
    """
    kind = kind.lower()
    if kind == GHSIC and sigmas is None:
        if sample is None:
            raise fail("BAD_BANDWIDTH", "ghsic needs sigmas or a sample to medianize")
        _check_fits(sample)
        sigmas = (median_bandwidth(sample.x), median_bandwidth(sample.y))
    return KernelPairSpec(kind, sigmas)


def pair_value_table(spec: KernelPairSpec, which: str, data: np.ndarray) -> np.ndarray:
    """n x n table of kernel values from one ``kernel_values`` call.

    Used by the brute-force enumeration so its kernel values come from the
    tuple evaluator rather than from the tiled matrix builders it is meant
    to check. Each unordered pair i <= j is evaluated once as the tuple
    (i, j, i, j): a pair-dependent kernel ignores its two trailing
    arguments, so the rows themselves serve as padding.
    """
    n = data.shape[0]
    i, j = np.triu_indices(n)
    vals = kernel_values(spec, which, data[np.stack((i, j, i, j), axis=1)])
    table = np.empty((n, n), dtype=np.float64)
    table[i, j] = vals
    table[j, i] = vals
    return table


def apex_value_table(spec: KernelPairSpec, which: str, data: np.ndarray) -> np.ndarray:
    """n x n x n table of angle-kernel values ang(z_i - z_k, z_j - z_k).

    Every tuple (i, j, i, j, k) with i < j and k distinct from both is
    evaluated in one ``kernel_values`` call. Entries with colliding indices
    are never read by the enumeration and are left as NaN.
    """
    n = data.shape[0]
    i, j = np.triu_indices(n, 1)
    k = np.repeat(np.arange(n), i.size)
    i, j = np.tile(i, n), np.tile(j, n)
    keep = (i != k) & (j != k)
    i, j, k = i[keep], j[keep], k[keep]
    vals = kernel_values(spec, which, data[np.stack((i, j, i, j, k), axis=1)])
    table = np.full((n, n, n), np.nan, dtype=np.float64)
    table[i, j, k] = vals
    table[j, i, k] = vals
    return table
