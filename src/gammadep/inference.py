"""P-values and decisions: the permutation procedure, the half-normal
asymptotic p-value, and the three p-value combiners.

Permutation flow for one sample (B replicates). ``permutation_pool`` runs
steps 1-2, ``permutation_pvalues`` steps 3-5, and ``permutation_test`` adds
the report (jackknife, permutation variance, p_asym); a simulation
replicate runs only the first two:

1. metric values mu_hat on the original sample, one per exponent;
2. for b = 1..B permute the y rows only and recompute mu_hat
   (kernel matrices are built once: permuting y rows permutes the rows and
   columns of B, so each replicate is a row-blocked gather of B against A,
   about 256 KB per block with no n x n temporary, plus O(n) reductions).
   The rows b = 1..B are filled by ``fill_rows``, the one fork helper:
   from B times the work of one permutation >= ``_FORK_MIN_WORK`` on
   (where a forked worker was measured to pay; the work is n^2 for a pair
   kernel and the (n)_m tuples of an enumeration) they run as
   ``min(threads, cpu count)`` contiguous blocks: the calling process runs
   the first and a forked child each other one, reading A and B
   copy-on-write and writing its rows of mu_hat in place into a pool
   shared with the parent. Fork is used on Linux only; elsewhere the
   blocks run serially. The (B+1) x L pool is then scaled once by the rate
   row ``rate_w(n, gamma)``;
3. per-exponent p-values, one row per pool member, each column ranked
   leave-one-out inside the shared pool with the add-one rule;
4. combined statistics (fisher / min / cauchy) for every pool member, each
   one reduction over the rows of the step-3 matrix;
5. combined p-values for every member, by the same ranking of each column
   of combined statistics. Row 0 of the (B+1) x (L + C) matrix is the
   original's.

Every permutation is a pure function of (seed, b) through a counter-based
generator, so reports are identical regardless of worker count or
execution order.

``simgen.size_power_experiment`` fills its reps x methods p-value table
through the same ``fill_rows``: a forked child runs a contiguous chunk of
replications, each running steps 1-5 with a serial pool, with work counted
as reps times B times the work of one permutation. Unlike the pool's
workers, chunks share no matrices, so their count is also capped at the
replication peaks (``pool_run_bytes``) that the memory available holds.
"""

from __future__ import annotations

import math
import mmap
import operator
import os
import signal
import sys
import threading
from dataclasses import dataclass

import numpy as np

from .data_model import (
    PAIR_KERNELS,
    CombinedResult,
    Gamma,
    GammaResult,
    GammaSet,
    KernelPairSpec,
    Sample,
    TestReport,
    has_half_normal_limit,
    is_infinity,
)

from .errors import fail
from .kernels import check_fits, copies_that_fit, pair_peak_bytes
from .metric import gamma_stats, rate_w
from .ustat import enumeration_peak_bytes, stat_core_for
from .variance import jackknife_fast, permutation_sigma0_sq

# Smallest B times the work of one permutation (n^2 entries for a pair
# kernel, (n)_m tuples for an enumeration) whose permutation blocks run in
# forked workers. A dcov pool at d = 5 on 2 cores, serial against 2
# processes, 11 alternating calls: B = 50 at n = 200 (2e6) and B = 19 at
# n = 400 and 500 (3e6, 4.8e6) were faster forked in 6, 7 and 5 of 11;
# every cell from 8e6 on, B = 19 to 200, won at least 9 of 11. A pcov test
# at n = 20, B = 39 (7.3e7 tuples) took 2.1-2.3 s serial and 1.3-1.5 s
# forked on the same 2 cores.
_FORK_MIN_WORK = 8_000_000

_MASK64 = (1 << 64) - 1

# One Philox generator per thread, re-keyed for every draw: building a fresh
# Philox(key=...) also builds a SeedSequence that reads OS entropy. A
# library caller's threads may draw at the same time, so they cannot share
# one.
_DRAW = threading.local()


def _mix64(z: int) -> int:
    """splitmix64 finalizer; the fixed mixing function behind per-b streams."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def derive_seed(master: int, *path: int) -> int:
    """Deterministic 64-bit child seed for a (master, path...) address."""
    out = _mix64(master & _MASK64)
    for part in path:
        out = _mix64(out ^ _mix64((part + 1) & _MASK64))
    return out


def check_seed(seed: int) -> int:
    """The run seed as a Python int, after refusing anything but an integer
    in [0, 2**64): every stream is keyed by a 64-bit value, so any other
    seed would alias one inside the range."""
    try:
        value = operator.index(seed)
    except TypeError:
        value = -1
    if not (0 <= value <= _MASK64):
        raise fail("SEED_RANGE", f"seed must be an integer in [0, 2**64), got {seed!r}")
    return value


@dataclass(frozen=True)
class PermutationPlan:
    """Permutation budget plus the seed that fixes every replicate."""

    b_count: int
    seed: int

    def __post_init__(self):
        try:
            b_count = operator.index(self.b_count)
        except TypeError:
            b_count = 0
        if b_count < 1:
            raise fail("BAD_PLAN", f"b_count must be a positive integer, got {self.b_count!r}")
        if self.seed is None:
            raise fail("SEED_REQUIRED", "permutation plan must carry a seed")
        object.__setattr__(self, "b_count", b_count)
        object.__setattr__(self, "seed", check_seed(self.seed))

    def permutation(self, b: int, n: int) -> np.ndarray:
        """The b-th permutation of range(n); pure function of (seed, b)."""
        k0 = derive_seed(self.seed, b)
        k1 = _mix64(k0 ^ 0xD6E8FEB86659FD93)
        rng = getattr(_DRAW, "rng", None)
        if rng is None:
            rng = _DRAW.rng = np.random.Generator(np.random.Philox(0))
        # The state of a fresh Philox(key=(k0, k1)): counter 0, empty buffer.
        rng.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": (0, 0, 0, 0), "key": (k0, k1)},
            "buffer": (0, 0, 0, 0),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        return rng.permutation(n)


def combine_fisher(p):
    """Sum of -2 log p over the last axis; larger means more evidence
    against independence. A (B+1) x L matrix gives one statistic per row."""
    arr = np.asarray(p, dtype=np.float64)
    if np.any(arr <= 0.0):
        raise fail("ZERO_P", "fisher combination needs p > 0")
    return np.sum(-2.0 * np.log(arr), axis=-1)


def combine_min(p):
    """Negative of the smallest p-value over the last axis (so larger =
    stronger evidence)."""
    return -np.min(np.asarray(p, dtype=np.float64), axis=-1)


def combine_cauchy(p):
    """Sum of (1/2) tan(pi (1/2 - p)) over the last axis; each term carries
    the printed 1/2 weight, not 1/L."""
    arr = np.asarray(p, dtype=np.float64)
    if np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise fail("P_BOUNDARY", "cauchy combination needs p strictly inside (0, 1)")
    return np.sum(0.5 * np.tan(np.pi * (0.5 - arr)), axis=-1)


_COMBINE = {"fisher": combine_fisher, "min": combine_min, "cauchy": combine_cauchy}
COMBINERS = tuple(_COMBINE)


def asymptotic_pvalue(scaled_mu: float, gamma: Gamma, sigma0: float, m: int) -> float:
    """Half-normal tail p-value for even or infinite exponents.

    ``scaled_mu`` is the already-scaled statistic sqrt(n) * mu_hat. The
    studentized value is t = scaled_mu / (2^(1/gamma) * m * sigma0), with
    the 2^(1/gamma) factor defined as 1 at the infinite exponent, and
    p = 2 (1 - Phi(t)) = erfc(t / sqrt 2), clamped into (0, 1].

    ``permutation_test`` passes sigma0 = sqrt(``permutation_sigma0_sq``),
    from the exact permutation variance of u, not the jackknife display it
    reports as ``sigma0_sq``: the jackknife overestimates sigma0 at moderate
    n and grows with |u|, which makes this p-value conservative.
    """
    if not has_half_normal_limit(gamma):
        raise fail("BAD_GAMMA", f"no distribution-free limit for odd gamma {gamma}")
    if not (sigma0 > 0.0) or not math.isfinite(sigma0):
        raise fail("BAD_SIGMA", f"sigma0 must be positive, got {sigma0!r}")
    factor = 1.0 if is_infinity(gamma) else 2.0 ** (1.0 / gamma)
    t = scaled_mu / (factor * m * sigma0)
    p = math.erfc(t / math.sqrt(2.0))
    return min(1.0, max(p, 5e-324))


def check_plan(combiners, tie_mode: str) -> tuple:
    """The combiners as a tuple, after refusing an unknown tie mode or an
    unknown or repeated combiner with BAD_PLAN."""
    if tie_mode not in ("strict", "inclusive"):
        raise fail("BAD_PLAN", f"unknown tie mode {tie_mode!r}")
    combiners = tuple(combiners)
    for c in combiners:
        if c not in _COMBINE:
            raise fail("BAD_PLAN", f"unknown combiner {c!r}")
    if len(set(combiners)) != len(combiners):
        raise fail("BAD_PLAN", f"duplicate combiner in {list(combiners)}")
    return combiners


def _pool_pvalues(pool: np.ndarray, tie_mode: str) -> np.ndarray:
    """Leave-one-out add-one p-values for every member of one statistic pool.

    strict:    p_i = (1 + #{j != i : s_j >  s_i}) / (B + 1)
    inclusive: p_i = (1 + #{j != i : s_j >= s_i}) / (B + 1)
                   = #{j : s_j >= s_i} / (B + 1)

    A member never outranks itself, so the strict count over "others" equals
    the strict count over the whole pool. When every pool statistic is
    exactly equal the pool carries no evidence and every p-value is 1
    (otherwise strict counting would grade an all-ties pool as extreme).
    """
    size = pool.shape[0]
    if np.max(pool) == np.min(pool):
        return np.ones(size, dtype=np.float64)
    order = np.sort(pool)
    if tie_mode == "strict":
        return (1 + size - np.searchsorted(order, pool, side="right")) / size
    return (size - np.searchsorted(order, pool, side="left")) / size


def pool_peak_bytes(rows: int, n_gamma: int) -> int:
    """Byte model of the arrays of one pool with ``rows`` = B + 1 members and
    L = ``n_gamma`` exponents, from its pool to its p-values: mu_hat and
    its scaled copy (2L columns), the p-values (L + C) and combined
    statistics (C) of ``permutation_pvalues``, with C every combiner, and
    at most a combiner's input and two temporaries (3L) or a ranking's sort
    temporaries (5 columns)."""
    return 8 * rows * (6 * n_gamma + 2 * len(COMBINERS) + 5)


def permutation_work(n: int, kind: str) -> int:
    """The work of one permutation at n rows, as the fork threshold counts
    it: n^2 kernel entries for a pair kernel, the (n)_m tuples of an
    enumeration for pcov. An unknown kernel is BAD_KERNEL."""
    return n * n if kind in PAIR_KERNELS else math.perm(n, KernelPairSpec(kind).m)


def pool_run_bytes(n: int, d: int, kind: str, rows: int, n_gamma: int) -> int:
    """Byte model of one pool run in one process at n rows of at most d
    columns a side: its stat core at one worker (``pair_peak_bytes`` or
    ``enumeration_peak_bytes``) and its ``pool_peak_bytes``."""
    if kind in PAIR_KERNELS:
        core = pair_peak_bytes(n, d, 1)
    else:
        core = enumeration_peak_bytes(n, KernelPairSpec(kind).m, d, 1)
    return core + pool_peak_bytes(rows, n_gamma)


def fill_rows(row, shape: tuple, first: int, work: int, threads: int, label: str, worker_bytes: int = 0):
    """A float64 table of ``shape`` whose rows i = first.. hold ``row(i)``;
    rows before ``first`` are left to the caller.

    ``work`` counts all those rows as the fork threshold does. From
    ``_FORK_MIN_WORK`` on, the rows run as ``min(threads, cpu count)``
    contiguous blocks through ``_forked_fill``, in a NaN-filled anonymous
    mapping shared with the children, on Linux; a positive
    ``worker_bytes``, the peak one block adds, lowers that count to the
    blocks that fit side by side in the memory available, at least 1. Else
    the rows run here in order, into ``np.empty``. ``label`` names a row in
    a WORKER_FAILED message.
    """
    workers = min(threads, os.cpu_count() or 1) if work >= _FORK_MIN_WORK else 1
    if workers > 1 and worker_bytes > 0:
        workers = copies_that_fit(worker_bytes, workers)
    forked = workers > 1 and sys.platform == "linux" and hasattr(os, "fork")
    if forked:
        # an anonymous mapping is shared with the children, so each writes
        # its rows in place; every row written is finite, so a NaN left in
        # a child's rows means the child never wrote them
        table = np.frombuffer(mmap.mmap(-1, 8 * math.prod(shape)), dtype=np.float64).reshape(shape)
        table.fill(np.nan)
    else:
        table = np.empty(shape, dtype=np.float64)

    def fill(lo: int, hi: int) -> None:
        for i in range(lo, hi):
            table[i] = row(i)

    size = shape[0]
    if forked:
        edges = [first + (size - first) * k // workers for k in range(workers + 1)]
        _forked_fill(fill, table, list(zip(edges[:-1], edges[1:])), label)
    else:
        fill(first, size)
    return table


def permutation_pool(
    sample: Sample, spec: KernelPairSpec, gammas: GammaSet, plan: PermutationPlan, *, threads: int = 1
):
    """Steps 1-2: the stat core, the unpermuted triple, and the (B+1) x L
    pool of mu_hat, raw and scaled by the rate row. Row 0 is the sample and
    row b its b-th permutation; a scaled column that is not finite raises
    NONFINITE. A pool whose ``pool_peak_bytes`` exceed the memory available
    is refused with TOO_LARGE before the core is built."""
    n = sample.n
    if n < spec.m:
        raise fail("TOO_SMALL", f"need n >= {spec.m}, got n={n}")
    check_fits(pool_peak_bytes(plan.b_count + 1, len(gammas)), f"a pool of B={plan.b_count} permutations")

    core = stat_core_for(sample, spec)
    glist = tuple(gammas)
    b_count = plan.b_count

    triple0 = core.triple(None)
    mu = fill_rows(
        lambda b: gamma_stats(core.triple(plan.permutation(b, n)), gammas),
        (b_count + 1, len(glist)),
        1,
        b_count * permutation_work(n, spec.id),
        threads,
        "b",
    )
    mu[0] = gamma_stats(triple0, gammas)
    scaled = mu * np.array([rate_w(n, g) for g in glist])
    finite = np.isfinite(scaled).all(axis=0)
    if not finite.all():
        bad = ", ".join(str(g) for g, ok in zip(glist, finite) if not ok)
        raise fail("NONFINITE", f"scaled statistic overflows float64 at gamma {bad}")
    return core, triple0, mu, scaled


def _forked_fill(fill, rows: np.ndarray, blocks: list, label: str) -> None:
    """Run ``fill(lo, hi)`` for every (lo, hi) block of ``rows``, a NaN-filled
    array shared with forked children: the first block in this process,
    each other non-empty one in a child that writes its rows in place and
    leaves by ``os._exit``, with status 1 if ``fill`` raised.

    Children are reaped in block order. A block whose child exited with
    status 1 is run again here, so a deterministic error is raised as the
    serial run raises it and, of several failing blocks, the lowest one's
    wins. A child killed by a signal, with any other status, or that left
    NaN in its rows gives WORKER_FAILED, which names the block's rows as
    ``label`` = lo..hi-1; its block is not run again, since what killed it
    could take this process too. Every child is reaped before this returns
    or raises; on any error, KeyboardInterrupt too, the ones still running
    are killed.
    """
    children = []  # [pid, lo, hi]; pid is None once reaped
    try:
        for lo, hi in blocks[1:]:
            if lo == hi:
                continue
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    fill(lo, hi)
                    status = 0
                finally:
                    os._exit(status)
            children.append([pid, lo, hi])
        fill(*blocks[0])
        for child in children:
            pid, lo, hi = child
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            child[0] = None
            if status == 1:
                fill(lo, hi)
            elif status != 0 or np.isnan(rows[lo:hi]).any():
                how = f"was killed by signal {-status}" if status < 0 else f"exited with status {status}"
                if status == 0:
                    how += " before writing its rows"
                raise fail("WORKER_FAILED", f"forked worker for {label} = {lo}..{hi - 1} {how}")
    finally:
        running = [pid for pid, *_ in children if pid is not None]
        for pid in running:
            os.kill(pid, signal.SIGKILL)
        for pid in running:
            os.waitpid(pid, 0)


def permutation_pvalues(scaled: np.ndarray, combiners: tuple, tie_mode: str):
    """Steps 3-5 for a checked plan: the (B+1) x (L + C) add-one p-values of
    every pool member, per exponent then per combiner, and the (B+1) x C
    combined statistics. The cauchy transform is fed p-values capped at
    B/(B+1) to stay clear of the tan singularity at 1."""
    size, n_g = scaled.shape
    p = np.empty((size, n_g + len(combiners)), dtype=np.float64)
    stats = np.empty((size, len(combiners)), dtype=np.float64)
    for j in range(n_g):
        p[:, j] = _pool_pvalues(scaled[:, j], tie_mode)
    cap = (size - 1) / size
    for k, name in enumerate(combiners):
        feed = np.minimum(p[:, :n_g], cap) if name == "cauchy" else p[:, :n_g]
        stats[:, k] = _COMBINE[name](feed)
        p[:, n_g + k] = _pool_pvalues(stats[:, k], tie_mode)
    return p, stats


def permutation_test(
    sample: Sample,
    spec: KernelPairSpec,
    gammas: GammaSet,
    plan: PermutationPlan,
    combiners=COMBINERS,
    *,
    tie_mode: str = "strict",
    threads: int = 1,
) -> TestReport:
    """Run the full permutation procedure and assemble a TestReport: the
    pool, its p-values, then the jackknife display and p_asym."""
    combiners = check_plan(combiners, tie_mode)
    core, triple0, mu, scaled = permutation_pool(sample, spec, gammas, plan, threads=threads)
    p, stats = permutation_pvalues(scaled, combiners, tie_mode)
    n = sample.n
    glist = tuple(gammas)
    combined = {
        name: CombinedResult(stat=float(stats[0, k]), p_perm=float(p[0, len(glist) + k]))
        for k, name in enumerate(combiners)
    }

    # The report carries the paper's jackknife display; p_asym is studentized
    # by the exact permutation variance of u. A variance that is 0 or rounds
    # below 0 (u cannot move under permutation) leaves p_asym missing.
    sigma0_sq = None
    sigma0 = None
    if spec.is_pair_dependent and n > spec.m:
        sigma0_sq = jackknife_fast(core.mats)
        perm_sigma0_sq = permutation_sigma0_sq(core.mats)
        if perm_sigma0_sq > 0.0:
            sigma0 = math.sqrt(perm_sigma0_sq)

    per_gamma = {}
    for j, g in enumerate(glist):
        p_asym = None
        if has_half_normal_limit(g) and sigma0 is not None:
            p_asym = asymptotic_pvalue(float(scaled[0, j]), g, sigma0, spec.m)
        per_gamma[g] = GammaResult(
            mu_hat=float(mu[0, j]),
            scaled_stat=float(scaled[0, j]),
            p_perm=float(p[0, j]),
            p_asym=p_asym,
        )

    meta = {
        "b_count": plan.b_count,
        "seed": plan.seed,
        "kernel": spec,
        "gammas": glist,
        "n": n,
        "d1": sample.d1,
        "d2": sample.d2,
        "combiners": combiners,
        "tie_mode": tie_mode,
    }
    return TestReport(
        triple=triple0,
        per_gamma=per_gamma,
        combined=combined,
        sigma0_sq=sigma0_sq,
        meta=meta,
    )
