"""Pairwise kernel matrices and batched m-argument kernel evaluation.

Two computation routes live here on purpose. ``pairwise_dcov`` /
``pairwise_ghsic`` build the n x n matrices consumed by the O(n^2) fast
paths; ``kernel_values`` evaluates f1 or f2 over a block of coordinate
tuples, one value per tuple. It backs the Monte-Carlo population means in
``simgen`` and, through ``value_table``, the brute-force enumeration used
as the correctness oracle: one table per side, n x n for a pair kernel and
n x n x n (with the apex) for the angle kernel, NaN at colliding indices.

The distance matrix behind both builders is computed on the upper triangle
only, in cache-sized tiles of row pairs that share one preallocated buffer,
and each off-diagonal tile is mirrored into the lower triangle. A pass
therefore holds its output plus one tile, and does about half the subtract
and multiply-add work of a full n x n pass. ``median_bandwidth`` takes its
median from that one matrix in place.

``pair_peak_bytes`` models the peak of the one process that builds and
walks a pair: the dense A~ with its packed row blocks, then those blocks
with B~, plus the larger of the tile and one walker's T1 gather blocks.
``pair_walker_bytes`` names those gather blocks, the bytes that each extra
forked walker of the same matrices adds; ``inference.permutation_pool``
hands it to ``inference.fill_rows``, the one place that decides how many
processes walk a core. ``check_fits`` is the one memory check: it compares
a byte model with MemAvailable and refuses a run that cannot fit with
TOO_LARGE. ``build_pair_matrices`` and the ghsic median pass in
``resolve_kernel_spec`` call it on ``pair_peak_bytes`` before their first
n x n allocation, ``ustat.EnumerationCore`` on its own model before it
builds a tuple, and ``inference.permutation_pool`` on the pool's before its
first (B+1)-row array. ``copies_that_fit`` reads the same MemAvailable to
cap how many forked processes run side by side: a pool's walkers, or
``simulate``'s replication chunks.

Every statistic here is a U-statistic over distinct indices, so the fast
paths never read a kernel value at a repeated index. ``build_pair_matrices``
therefore zeroes both diagonals once and freezes the arrays. A~ is read
after construction only on the T1 walk, and only in its upper-triangle row
blocks A~[lo:hi, lo:] (``walk_row_blocks`` owns that schedule). So
``pack_rows`` takes the sums that read A~ alone (its row sums r, total A..
and squared norm ||A~||^2) from the dense matrix, copies each walk block
into its own read-only array, and the dense A~ is dropped before B~ is
allocated: a pair test peaks at about 1.5 n x n instead of 2. For n <= 181
the walk is one block, a copy of the whole of A~.

A ``PairKernelMatrices`` holds the packed A~ and the dense B~, and is the
one place that sums them. Permuting the y rows by pi turns B~ into
B~[pi][:, pi], whose row sums are c[pi], so a permuted triple in ``ustat``
needs only two sums, which ``permuted_sums`` returns: T1(pi) =
<A~, B~[pi][:, pi]> by the walk (``_t1``, which builds no n x n
temporary) and S(pi) = r . c[pi] by one einsum.

It also takes, once and on construction, every other O(n^2) reduction of
the pair that a closed form reads: the row sums c, u_i = sum_j a_ij b_ij,
p = A~ c and q = B~ r, the total B.. = sum c and the squared norm ||B~||^2.
u, p and q are taken on the T1 walk's own blocks: each block's rows of A~
are rebuilt into one reused buffer and reduced by row einsums, so the
module holds no matrix multiply and no sum depends on the BLAS thread
count. The jackknife display and the permutation variance read only these
sums, never a matrix.
Constructing one for a kernel that is not pair-dependent raises
PAIR_KERNEL_REQUIRED, so the fast paths that take a ``PairKernelMatrices``
need no check of their own, and one whose row sums are not finite (a
distance past float range is inf) raises NONFINITE.
"""

from __future__ import annotations

import math
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

# Elements in one T1 gather block of ``_t1`` (256 KB of float64); a
# block's two gathers together hold at most twice this. Small enough for
# L2, and a single block for every n <= 181.
_GATHER_ELEMS = 1 << 15

# Read, never written, by the memory guard; absent outside Linux.
_MEMINFO = "/proc/meminfo"


def _tile_side(d: int) -> int:
    """Rows (and columns) of a distance tile at d coordinates."""
    return max(2, math.isqrt(_TILE_ELEMS // max(1, d)))


def walk_row_blocks(n: int) -> list:
    """The row blocks [lo, hi) of the T1 walk, the one schedule that both
    ``pack_rows`` and ``_t1`` follow.

    A block from row lo holds ``2 * _GATHER_ELEMS // (2n - lo)`` rows, so its
    two gathered blocks (rows x n, then rows x (n - lo)) together hold at
    most ``2 * _GATHER_ELEMS`` elements (or a single row, once 2n - lo
    exceeds that), and the rows grow as the walk narrows: 53 blocks at
    n = 1500 where ``_GATHER_ELEMS // n`` rows give 72. For n <= 181 there
    is one block.
    """
    spans = []
    lo = 0
    while lo < n:
        hi = min(n, lo + max(1, 2 * _GATHER_ELEMS // (2 * n - lo)))
        spans.append((lo, hi))
        lo = hi
    return spans


def pair_walker_bytes(n: int) -> int:
    """Bytes of the two live T1 gather blocks of one process walking a pair
    at n rows: together at most 2 x 256 KB, or two rows of n. Each forked
    walker adds this much; the matrices are shared copy-on-write, not
    copied."""
    return 16 * max(n, _GATHER_ELEMS)


def pair_peak_bytes(n: int, d: int) -> int:
    """Byte model of the peak of the one process that builds a pair-kernel
    test's matrices at n rows and walks them.

    The dense A~ (8 n^2 bytes) while its walk blocks are copied out, then
    those blocks while B~ is built and read: both phases hold 8 (n^2 + P)
    bytes, P the elements of the blocks (about n^2 / 2, and n^2 for
    n <= 181, where the one block is a copy of A~). On top of that comes
    the larger of what is live in turn: the distance tile of the wider side
    (d columns; 512 KB for d <= 16384) and the walker's gather blocks
    (``pair_walker_bytes``). The buffer that u, p and q rebuild one walk
    block's rows into holds the block's rows x n, at most
    2 max(n, ``_GATHER_ELEMS``) elements, so the walker's term covers it.
    Within a few percent of the traced peak once the matrices dominate.
    """
    packed = sum((hi - lo) * (n - lo) for lo, hi in walk_row_blocks(n))
    tile = 8 * min(n, _tile_side(d)) ** 2 * d
    return 8 * (n * n + packed) + max(tile, pair_walker_bytes(n))


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


def check_fits(need: int, what: str) -> None:
    """Refuse, with TOO_LARGE, a run whose byte model ``need`` exceeds the
    memory available now; ``what`` names the run in the message. Called
    before the run's first large allocation, since numpy allocates lazily
    and a run past the memory would be killed later, while it fills its
    arrays. Skipped where MemAvailable cannot be read."""
    avail = _mem_available()
    if avail is not None and need > avail:
        raise fail(
            "TOO_LARGE",
            f"{what} needs about {need / 2**20:.0f} MB, {avail / 2**20:.0f} MB available",
        )


def copies_that_fit(each: int, most: int) -> int:
    """How many runs of ``each`` bytes fit side by side in the memory
    available now: at most ``most``, at least 1, and ``most`` where
    MemAvailable cannot be read. Read once, before the runs start, since
    each run's own ``check_fits`` cannot see what its siblings will
    allocate."""
    avail = _mem_available()
    if avail is None:
        return most
    return max(1, min(most, avail // each))


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
    distance exists to take a median of), and NONFINITE when the median is
    not finite (rows whose differences pass the float range give inf
    distances).
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
    # two middle distances near the float limit overflow their sum
    with np.errstate(over="ignore"):
        median = float((flat[hi - 1] + flat[hi]) / 2.0)
    if not math.isfinite(median):
        raise fail("NONFINITE", f"median distance {median!r} is not finite")
    return median


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
class PackedRows:
    """A~ as the T1 walk reads it: for each block [lo, hi) of
    ``walk_row_blocks(n)``, a read-only copy of A~[lo:hi, lo:], in walk
    order, plus the sums that read A~ alone, taken from the dense matrix
    before it was dropped: the row sums r (read-only), the total A.. and the
    squared norm ||A~||^2. For n <= 181 the one block is a copy of the
    whole of A~. Built only by ``pack_rows``; read only block by block, by
    ``_t1`` and by ``_pair_row_sums``, both on the walk's schedule."""

    blocks: tuple
    r: np.ndarray
    total: float
    sq: float

    @property
    def n(self) -> int:
        return self.r.shape[0]


def pack_rows(a: np.ndarray) -> PackedRows:
    """Pack a zero-diagonal symmetric A~ into the walk's row blocks.

    r, A.. and ||A~||^2 are taken from the dense A~ first. Every block is a
    read-only copy (a view, even of contiguous full rows, would keep the
    whole of A~ alive). Raises BAD_SHAPE for a matrix that is not square and
    BAD_KERNEL for a nonzero diagonal.
    """
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise fail("BAD_SHAPE", f"a must be a square matrix, got shape {a.shape}")
    if np.any(np.diagonal(a) != 0.0):
        raise fail("BAD_KERNEL", "a must have a zero diagonal")
    r = a.sum(axis=1)
    sq = float(np.einsum("ij,ij->", a, a))
    blocks = tuple(a[lo:hi, lo:].copy() for lo, hi in walk_row_blocks(a.shape[0]))
    for arr in (r,) + blocks:
        arr.setflags(write=False)
    return PackedRows(blocks, r, float(r.sum()), sq)


@dataclass(frozen=True)
class PairKernelMatrices:
    """A~ packed into the T1 walk's row blocks (``PackedRows``) and the dense
    B~: f1 on X pairs and f2 on Y pairs, with zero diagonals. It holds the
    O(n^2) sums every closed form reads: the row sums r and c,
    u_i = sum_j a_ij b_ij, p = A~ c and q = B~ r (all read-only), the
    totals A.. and B.., and the squared norms of A~ and B~."""

    a: PackedRows
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
        n = a.r.shape[0]
        if b.shape != (n, n):
            raise fail("BAD_SHAPE", f"b must be {n} x {n} like a, got shape {b.shape}")
        if np.any(np.diagonal(b) != 0.0):
            raise fail("BAD_KERNEL", "b must have a zero diagonal")
        r, c = a.r, b.sum(axis=1)
        # an entry past float range (an inf distance) leaves its row sum inf or nan
        if not (np.isfinite(r).all() and np.isfinite(c).all()):
            raise fail("NONFINITE", "a kernel matrix has a row sum that is not finite")
        u, p, q = _pair_row_sums(a, b, c)
        for name, vec in (("r", r), ("c", c), ("u", u), ("p", p), ("q", q)):
            vec.setflags(write=False)
            object.__setattr__(self, name, vec)
        object.__setattr__(self, "a_total", a.total)
        object.__setattr__(self, "b_total", float(c.sum()))
        object.__setattr__(self, "a_sq", a.sq)
        object.__setattr__(self, "b_sq", float(np.einsum("ij,ij->", b, b)))

    @property
    def n(self) -> int:
        return self.b.shape[0]

    def permuted_sums(self, perm: np.ndarray) -> tuple:
        """(T1(pi), S(pi)) with the y rows permuted by ``perm``: T1 by the
        walk (``_t1``) and S = r . c[pi] by one einsum, both summed in an
        order fixed by n alone, never by a BLAS thread count."""
        return _t1(self.a.blocks, self.b, perm), float(np.einsum("i,i->", self.r, self.c[perm]))


def _t1(blocks: tuple, b: np.ndarray, perm: np.ndarray) -> float:
    """T1 = <A~, B~[perm][:, perm]>, with A~ given as its stored walk blocks
    (``PackedRows.blocks``).

    A~ and the permuted B~ are both symmetric, so only the upper triangle of
    blocks is walked. The stored block of rows [lo, hi) (h = hi - lo) is
    A~[lo:hi, lo:], so lo = n minus its width. For each, the columns from lo
    on of the permuted B~ are gathered (rows, then columns: a rows x n
    block, then a rows x (n - lo) block, the only two live at once), and

        T1 = sum over blocks of 2 <blk[:, h:], A~[lo:hi, hi:]>
                              + <blk[:, :h], A~[lo:hi, lo:hi]>.

    Each term is one einsum reduction that builds no product block; einsum,
    unlike a BLAS dot, sums in an order fixed by the operands' shapes alone,
    so a permutation that leaves B~ unchanged (the identity, or swapping two
    identical y rows) reproduces the unpermuted T1 bit for bit. The row
    counts of ``walk_row_blocks`` keep the two gathered blocks within
    512 KB. For n <= 181 there is one block, a copy of A~, and one
    reduction.
    """
    n = b.shape[0]
    total = 0.0
    for a_blk in blocks:
        h, w = a_blk.shape
        lo = n - w
        blk = b.take(perm[lo : lo + h], axis=0).take(perm[lo:], axis=1)
        if h < w:
            total += 2.0 * float(np.einsum("ij,ij->", blk[:, h:], a_blk[:, h:]))
        total += float(np.einsum("ij,ij->", blk[:, :h], a_blk[:, :h]))
        del blk  # free this block before the next one is gathered
    return total


def _pair_row_sums(a: PackedRows, b: np.ndarray, c: np.ndarray):
    """u = einsum("ij,ij->i", A~, B~), p = A~ c and q = B~ r, the one route
    by which any matrix-vector sum of the pair is taken.

    The rows follow the T1 walk's blocks: for each block [lo, hi), its
    stored A~[lo:hi, lo:] fills columns lo: of one reused buffer, and the
    earlier blocks' columns lo:hi, transposed, fill columns :lo (A~ is
    symmetric). u, p and q are then one row einsum each, over the rebuilt
    rows and B~[lo:hi], so no BLAS call takes part.
    """
    n = a.n
    u, p, q = np.empty(n), np.empty(n), np.empty(n)
    spans = walk_row_blocks(n)
    buf = np.empty(max(hi - lo for lo, hi in spans) * n)
    for k, (lo, hi) in enumerate(spans):
        rows = buf[: (hi - lo) * n].reshape(hi - lo, n)
        rows[:, lo:] = a.blocks[k]
        if lo:
            earlier = [blk[:, lo - b0 : hi - b0] for (b0, _), blk in zip(spans[:k], a.blocks)]
            np.concatenate(earlier, out=rows[:, :lo].T)
        np.einsum("ij,ij->i", rows, b[lo:hi], out=u[lo:hi])
        np.einsum("ij,j->i", rows, c, out=p[lo:hi])
        np.einsum("ij,j->i", b[lo:hi], a.r, out=q[lo:hi])
    return u, p, q


def _kernel_matrix(spec: KernelPairSpec, data, side: int) -> np.ndarray:
    """Read-only zero-diagonal n x n kernel matrix of one side (0 for x, 1
    for y) of the pair; ghsic's exp(0) = 1 diagonal is zeroed here, dcov's
    is already 0."""
    mat = pairwise_dcov(data) if spec.id == DCOV else pairwise_ghsic(data, spec.bandwidths[side])
    np.fill_diagonal(mat, 0.0)
    mat.setflags(write=False)
    return mat


def build_pair_matrices(sample: Sample, spec: KernelPairSpec) -> PairKernelMatrices:
    """Packed A~ and read-only B~ for a pair-dependent kernel (dcov or ghsic).

    A~ is packed and its dense matrix dropped before B~ is allocated (for
    n <= 181 the one packed block is a copy of the whole of A~).
    """
    if not spec.is_pair_dependent:
        raise fail("PAIR_KERNEL_REQUIRED", f"{spec.id} is not pair-dependent")
    check_fits(pair_peak_bytes(sample.n, max(sample.d1, sample.d2)), f"a pair test at n={sample.n}")
    a = pack_rows(_kernel_matrix(spec, sample.x, 0))
    b = _kernel_matrix(spec, sample.y, 1)
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
        check_fits(pair_peak_bytes(sample.n, max(sample.d1, sample.d2)), f"a pair test at n={sample.n}")
        sigmas = (median_bandwidth(sample.x), median_bandwidth(sample.y))
    return KernelPairSpec(kind, sigmas)


def value_table(spec: KernelPairSpec, which: str, data: np.ndarray) -> np.ndarray:
    """Table of f1 or f2 at every index tuple the enumeration reads, from one
    ``kernel_values`` call.

    The table is n x n over (z1, z2) for a pair kernel, and n x n x n over
    (z1, z2, apex z5) for the angle kernel. Each tuple of distinct indices
    with i < j (and, for the angle kernel, an apex k distinct from both) is
    evaluated once as (i, j, i, j[, k]): the kernels ignore z3 and z4, so the
    rows themselves serve as padding. The value is mirrored to (j, i[, k]).
    Entries at colliding indices are NaN, so a read the enumeration must
    never make poisons its sum instead of passing silently.

    It is the oracle's one source of kernel values, so they come from the
    tuple evaluator rather than from the tiled matrix builders it checks.
    """
    n = data.shape[0]
    i, j = np.triu_indices(n, 1)
    apex = ()
    if spec.m == 5:
        k = np.repeat(np.arange(n), i.size)
        i, j = np.tile(i, n), np.tile(j, n)
        keep = (i != k) & (j != k)
        i, j, apex = i[keep], j[keep], (k[keep],)
    vals = kernel_values(spec, which, data[np.stack((i, j, i, j) + apex, axis=1)])
    table = np.full((n,) * (2 + len(apex)), np.nan)
    table[(i, j) + apex] = vals
    table[(j, i) + apex] = vals
    return table
