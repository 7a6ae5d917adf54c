"""Pairwise kernel matrices and generic m-argument kernel evaluation.

Two computation routes live here on purpose. ``pairwise_dcov`` /
``pairwise_ghsic`` build the n x n matrices consumed by the O(n^2) fast
paths; ``eval_generic_kernel`` evaluates a single kernel value from raw
coordinate vectors and backs the brute-force enumeration used as the
correctness oracle.

Every statistic here is a U-statistic over distinct indices, so the fast
paths never read a kernel value at a repeated index. ``build_pair_matrices``
therefore zeroes both diagonals once and freezes the arrays: a
``PairKernelMatrices`` holds A~ and B~, the zero-diagonal matrices that
``ustat`` and ``variance`` share without copying.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data_model import DCOV, GHSIC, PCOV, KernelPairSpec, Sample
from .errors import fail

F1 = "f1"
F2 = "f2"

# Row block sized so diff buffers stay around ~16 MB even at d=400.
_BLOCK_ELEMS = 2 << 20


def _pairwise_distances(matrix: np.ndarray) -> np.ndarray:
    """Euclidean distance matrix from the explicit row differences.

    Squared differences are accumulated in float64 before the square root
    (no Gram-matrix shortcut, which loses digits through cancellation when
    rows are close). Entry (i, j) and (j, i) are computed from the same
    subtraction order, so the matrix is exactly symmetric with a zero
    diagonal.
    """
    m = np.ascontiguousarray(matrix, dtype=np.float64)
    n, d = m.shape
    out = np.empty((n, n), dtype=np.float64)
    block = max(1, _BLOCK_ELEMS // max(1, n * d))
    for start in range(0, n, block):
        stop = min(n, start + block)
        diff = m[start:stop, None, :] - m[None, :, :]
        np.sqrt(np.einsum("ijk,ijk->ij", diff, diff), out=out[start:stop])
    return out


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
    if not (sigma > 0) or not math.isfinite(sigma):
        raise fail("BAD_BANDWIDTH", f"sigma must be positive, got {sigma!r}")
    d = pairwise_dcov(matrix)
    return np.exp(-d / (2.0 * sigma * sigma))


def median_bandwidth(matrix) -> float:
    """Median of the strictly positive pairwise distances.

    Raises DEGENERATE when every pair of rows coincides (no positive
    distance exists to take a median of).
    """
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim == 1:
        m = m.reshape(-1, 1)
    if m.shape[0] < 2:
        raise fail("DEGENERATE", "need at least two rows for a bandwidth")
    d = _pairwise_distances(m)
    iu = np.triu_indices(m.shape[0], k=1)
    positive = d[iu]
    positive = positive[positive > 0.0]
    if positive.size == 0:
        raise fail("DEGENERATE", "all rows identical; no positive distance")
    return float(np.median(positive))


def eval_generic_kernel(spec: KernelPairSpec, which: str, args) -> float:
    """Evaluate f1 or f2 at one tuple of m coordinate vectors.

    For the angle kernel the cosine is clamped to [-1, 1] before arccos
    (floating-point cosines of parallel vectors can land at 1 + ~1e-16).
    """
    if which not in (F1, F2):
        raise fail("BAD_KERNEL", f"which must be 'f1' or 'f2', got {which!r}")
    if len(args) != spec.m:
        raise fail("ARITY", f"{spec.id} takes {spec.m} arguments, got {len(args)}")
    vecs = [np.asarray(a, dtype=np.float64).ravel() for a in args]

    if spec.id == DCOV:
        diff = vecs[0] - vecs[1]
        return float(math.sqrt(float(diff @ diff)))
    if spec.id == GHSIC:
        sigma = spec.bandwidths[0] if which == F1 else spec.bandwidths[1]
        diff = vecs[0] - vecs[1]
        return float(math.exp(-math.sqrt(float(diff @ diff)) / (2.0 * sigma * sigma)))
    # angle kernel: arccos of the normalized inner product of z1-z5 and z2-z5
    u = vecs[0] - vecs[4]
    v = vecs[1] - vecs[4]
    nu = math.sqrt(float(u @ u))
    nv = math.sqrt(float(v @ v))
    if nu == 0.0 or nv == 0.0:
        raise fail("PCOV_SINGULAR", "zero-norm direction (z1=z5 or z2=z5)")
    cosine = float(u @ v) / (nu * nv)
    return float(math.acos(min(1.0, max(-1.0, cosine))))


@dataclass(frozen=True)
class PairKernelMatrices:
    """A~ and B~: the n x n matrices of f1 on X pairs and f2 on Y pairs,
    with zero diagonals."""

    a: np.ndarray
    b: np.ndarray
    spec: KernelPairSpec

    def __post_init__(self):
        for name, mat in (("a", self.a), ("b", self.b)):
            if np.any(np.diagonal(mat) != 0.0):
                raise fail("BAD_KERNEL", f"{name} must have a zero diagonal")

    @property
    def n(self) -> int:
        return self.a.shape[0]


def build_pair_matrices(sample: Sample, spec: KernelPairSpec) -> PairKernelMatrices:
    """Read-only A~ and B~ for a pair-dependent kernel (dcov or ghsic).

    ghsic's exp(0) = 1 diagonal is zeroed here; dcov's is already 0.
    """
    if not spec.is_pair_dependent:
        raise fail("PAIR_KERNEL_REQUIRED", f"{spec.id} is not pair-dependent")
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

    For ghsic the bandwidths come from ``sigmas`` when given, otherwise from
    the median heuristic on the sample's x and y blocks.
    """
    kind = kind.lower()
    if kind == DCOV:
        return KernelPairSpec.dcov()
    if kind == PCOV:
        return KernelPairSpec.pcov()
    if kind == GHSIC:
        if sigmas is not None:
            return KernelPairSpec.ghsic(*sigmas)
        if sample is None:
            raise fail("BAD_BANDWIDTH", "ghsic needs sigmas or a sample to medianize")
        return KernelPairSpec.ghsic(median_bandwidth(sample.x), median_bandwidth(sample.y))
    raise fail("BAD_KERNEL", f"unknown kernel {kind!r}")


def pair_value_table(spec: KernelPairSpec, which: str, data: np.ndarray) -> np.ndarray:
    """n x n table of kernel values built through the generic evaluator.

    Used by the brute-force enumeration so its kernel values come from
    ``eval_generic_kernel`` rather than from the vectorized matrix builders
    it is meant to check. The two trailing arguments of a pair-dependent
    kernel are ignored by definition, so the rows themselves serve as
    padding.
    """
    n = data.shape[0]
    table = np.empty((n, n), dtype=np.float64)
    for i in range(n):
        for j in range(i, n):
            val = eval_generic_kernel(spec, which, [data[i], data[j], data[i], data[j]])
            table[i, j] = val
            table[j, i] = val
    return table


def apex_value_table(spec: KernelPairSpec, which: str, data: np.ndarray) -> np.ndarray:
    """n x n x n table of angle-kernel values ang(z_i - z_k, z_j - z_k).

    Entries with colliding indices are never read by the enumeration and are
    left as NaN.
    """
    n = data.shape[0]
    table = np.full((n, n, n), np.nan, dtype=np.float64)
    for k in range(n):
        for i in range(n):
            if i == k:
                continue
            for j in range(i, n):
                if j == k or j == i:
                    continue
                val = eval_generic_kernel(
                    spec, which, [data[i], data[j], data[i], data[j], data[k]]
                )
                table[i, j, k] = val
                table[j, i, k] = val
    return table
