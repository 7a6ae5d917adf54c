"""Unbiased estimation of the three kernel-product means.

Two routes with very different cost profiles:

* ``EnumerationCore`` enumerates every ordered m-tuple of distinct indices
  (m = 4 for the pair kernels, 5 for the angle kernel) and averages the
  three permuted-argument kernel products. It is the one enumeration, capped
  by a TupleBudget: ``brute_force_triple`` is its unpermuted triple, the
  jackknife oracle ``variance.jackknife_brute`` reads its tuples and
  gathered values, and the pcov permutation test runs its permuted triples.
* ``fast_triple_pair`` evaluates the same averages in O(n^2) for
  pair-dependent kernels via the closed forms below. The collision
  corrections (the 4 and 2 coefficients in the s2 numerator) are exactly the
  kind of term that silently goes wrong, which is why the oracle route
  exists and is wired into CI.

Closed forms, with A~ and B~ the zero-diagonal kernel matrices of a
``PairKernelMatrices``, T1 = sum_{i!=j} a_ij b_ij, r_i / c_i the
off-diagonal row sums and A.. / B.. their totals, and
Sig3 = S - T1 with S = sum_i r_i c_i (= the sum over ordered distinct
triples (i,j,k) of a_ij b_ik):

    s1 = T1 / (n (n-1))
    s3 = Sig3 / (n (n-1) (n-2))
    s2 = (A.. B.. - 4 Sig3 - 2 T1) / (n (n-1) (n-2) (n-3))

The s2 numerator subtracts, from the product of the two full off-diagonal
sums, the tuples whose index pairs share one index (4 Sig3: four positions
the shared index can occupy) or both (2 T1: the pair and its reversal).

u, v and u + v are taken from T1 and S with one rounding each, so equal
exact values stay equal floats where T1, S, A.. and B.. are exact (integer
dcov data), and exact ties of the permutation pool stay ties:

    u   = s1 - s3 = ((n-1) T1 - S) / (n (n-1) (n-2))
    v   = s2 - s3 = (A.. B.. + (n-1) T1 - (n+1) S) / (n (n-1) (n-2) (n-3))
    u+v = (A.. B.. + (n-1) ((n-2) T1 - 2 S)) / (n (n-1) (n-2) (n-3))

Permuting the y rows by pi changes only T1 and S. This module reads no
matrix: ``PairKernelMatrices.permuted_sums`` returns the pair (T1(pi),
S(pi)), summed in ``kernels`` on its one fixed-order route, and the
constants of the closed forms are taken once per ``PairStatCore``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .data_model import KernelPairSpec, Sample, StatTriple
from .errors import fail
from .kernels import F1, F2, PairKernelMatrices, build_pair_matrices, value_table

# Hard ceiling on enumerated tuples regardless of the configured budget.
_MAX_TUPLES = 10_000_000

@dataclass(frozen=True)
class TupleBudget:
    """Cap on the sample size the brute-force enumeration will accept."""

    max_n_bruteforce: int

    def __post_init__(self):
        if self.max_n_bruteforce < 1:
            raise fail("BAD_BUDGET", "max_n_bruteforce must be positive")

    @classmethod
    def default_for(cls, m: int) -> "TupleBudget":
        return cls(14 if m == 4 else 10)

    def check(self, n: int, m: int) -> None:
        if n > self.max_n_bruteforce:
            raise fail("TOO_LARGE", f"n={n} exceeds brute-force budget {self.max_n_bruteforce}")
        if math.perm(n, m) > _MAX_TUPLES:
            raise fail("TOO_LARGE", f"(n)_m = {math.perm(n, m)} exceeds the tuple ceiling")


@lru_cache(maxsize=1)
def _tuple_columns(n: int, m: int):
    """Read-only columns of the (n)_m x m array of ordered distinct index
    tuples. Only the last size is kept: at n = 57 and m = 4 one size is about
    300 MB, and the triple and the jackknife of one sample share it."""
    idx = np.fromiter(
        itertools.chain.from_iterable(itertools.permutations(range(n), m)),
        dtype=np.intp,
        count=math.perm(n, m) * m,
    ).reshape(-1, m)
    cols = tuple(np.ascontiguousarray(idx[:, k]) for k in range(m))
    for col in cols:
        col.setflags(write=False)
    return cols


class EnumerationCore:
    """The brute-force enumeration of one sample, for every kernel: all
    (n)_m ordered tuples of distinct indices, with the x factor
    f1(z_t0, z_t1[, apex z_t4]) gathered once from ``value_table``.

    It is the correctness oracle (``brute_force_triple`` is its unpermuted
    triple, and ``variance.jackknife_brute`` reads its ``tuples``, ``f1`` and
    ``ay``), and the pcov permutation engine: the angle kernel deliberately
    has no algebraic fast path, so each of its permutation replicates is a
    set of gathers over these tuples. The size checks run once, here.
    """

    def __init__(self, sample: Sample, spec: KernelPairSpec, budget: Optional[TupleBudget] = None):
        m = spec.m
        n = sample.n
        if budget is None:
            budget = TupleBudget.default_for(m)
        if n < m:
            raise fail("TOO_SMALL", f"need n >= {m}, got n={n}")
        budget.check(n, m)
        self.tuples = _tuple_columns(n, m)
        t0, t1 = self.tuples[:2]
        self.f1 = value_table(spec, F1, sample.x)[(t0, t1) + self.tuples[4:]]
        self.ay = value_table(spec, F2, sample.y)

    def triple(self, perm: Optional[np.ndarray] = None) -> StatTriple:
        """Triple for the sample with y rows permuted by ``perm``; None is
        the identity."""
        cols = self.tuples if perm is None else tuple(perm[t] for t in self.tuples)
        t0, t1, t2, t3 = cols[:4]
        apex = cols[4:]
        f1 = self.f1
        ay = self.ay
        count = f1.size
        s1 = float(np.sum(f1 * ay[(t0, t1) + apex])) / count
        s2 = float(np.sum(f1 * ay[(t2, t3) + apex])) / count
        s3 = float(np.sum(f1 * ay[(t0, t2) + apex])) / count
        return StatTriple(s1, s2, s3)


def brute_force_triple(
    sample: Sample, spec: KernelPairSpec, budget: Optional[TupleBudget] = None
) -> StatTriple:
    """Exact averages of the three permuted-argument products over all
    ordered tuples of distinct indices: ``EnumerationCore``'s unpermuted
    triple, whose kernel values come from ``kernels.kernel_values`` and not
    from the matrix builders and closed forms it oracle-checks."""
    return EnumerationCore(sample, spec, budget).triple(None)


class PairStatCore:
    """Reusable O(n^2) engine for one pair of kernel matrices: a permuted
    triple is the closed forms of the module docstring at the two sums
    ``PairKernelMatrices.permuted_sums`` returns, whose T1 walk holds at
    most 512 KB live and builds no n x n temporary. The totals survive a
    permutation of the y rows, so A.. B.. and the falling factorials of n
    are taken once, here."""

    def __init__(self, mats: PairKernelMatrices):
        n = mats.n
        if n < 4:
            raise fail("TOO_SMALL", f"need n >= 4, got n={n}")
        self.mats = mats
        self.n = n
        self._pairs = n * (n - 1)
        self._triples = n * (n - 1) * (n - 2)
        self._quads = math.perm(n, 4)
        self._ab = mats.a_total * mats.b_total

    def triple(self, perm: Optional[np.ndarray] = None) -> StatTriple:
        """Triple for the sample with y rows permuted by ``perm``; None is
        the identity."""
        if perm is None:
            perm = np.arange(self.n)
        t1, s = self.mats.permuted_sums(perm)
        sig3 = s - t1
        s2 = (self._ab - 4.0 * sig3 - 2.0 * t1) / self._quads
        n = self.n
        u = ((n - 1) * t1 - s) / self._triples
        v = (self._ab + (n - 1) * t1 - (n + 1) * s) / self._quads
        mu1 = (self._ab + (n - 1) * ((n - 2) * t1 - 2.0 * s)) / self._quads
        return StatTriple(t1 / self._pairs, s2, sig3 / self._triples, u, v, mu1)


def fast_triple_pair(mats: PairKernelMatrices) -> StatTriple:
    """Closed-form triple in O(n^2); equals brute_force_triple to 1e-10."""
    return PairStatCore(mats).triple(None)


def stat_core_for(sample: Sample, spec: KernelPairSpec):
    """Engine with a ``triple(perm)`` method for the given kernel."""
    if spec.is_pair_dependent:
        return PairStatCore(build_pair_matrices(sample, spec))
    return EnumerationCore(sample, spec)
