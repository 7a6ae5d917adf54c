"""Unbiased estimation of the three kernel-product means.

Two routes with very different cost profiles:

* ``brute_force_triple`` enumerates every ordered tuple of distinct indices
  and averages the three permuted-argument kernel products. It is the
  correctness oracle and is capped by a TupleBudget. For the arity-5 pcov
  kernel the oracle is ``PcovPermCore``, the same enumeration the
  permutation test runs, which ``brute_force_triple`` calls. The jackknife
  oracle ``variance.jackknife_brute`` runs the same pair enumeration.
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
from .kernels import (
    F1,
    F2,
    PairKernelMatrices,
    apex_value_table,
    build_pair_matrices,
    pair_value_table,
)

# Hard ceiling on enumerated tuples regardless of the configured budget.
_MAX_TUPLES = 10_000_000

@dataclass(frozen=True)
class TupleBudget:
    """Cap on the sample size the brute-force enumerations will accept."""

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


@lru_cache(maxsize=32)
def _tuple_columns(n: int, m: int):
    """Columns of the (n)_m x m array of ordered distinct index tuples."""
    idx = np.fromiter(
        itertools.chain.from_iterable(itertools.permutations(range(n), m)),
        dtype=np.intp,
        count=math.perm(n, m) * m,
    ).reshape(-1, m)
    cols = tuple(np.ascontiguousarray(idx[:, k]) for k in range(m))
    return cols


def brute_force_triple(
    sample: Sample, spec: KernelPairSpec, budget: Optional[TupleBudget] = None
) -> StatTriple:
    """Exact averages of the three permuted-argument products over all
    ordered tuples of distinct indices.

    Kernel values come from ``kernels.kernel_values`` (tabulated once per
    index pattern, then gathered over the enumeration), keeping this path
    independent of the vectorized matrix builders and closed forms it
    oracle-checks. The arity-5 kernel has no fast path to check, so its
    enumeration is PcovPermCore's unpermuted triple.
    """
    m = spec.m
    n = sample.n
    if budget is None:
        budget = TupleBudget.default_for(m)
    if n < m:
        raise fail("TOO_SMALL", f"need n >= {m}, got n={n}")
    budget.check(n, m)
    if m == 5:
        return PcovPermCore(sample, spec, budget).triple(None)

    ax = pair_value_table(spec, F1, sample.x)
    ay = pair_value_table(spec, F2, sample.y)
    t0, t1, t2, t3 = _tuple_columns(n, 4)
    f1 = ax[t0, t1]
    s1 = float(np.sum(f1 * ay[t0, t1]))
    s2 = float(np.sum(f1 * ay[t2, t3]))
    s3 = float(np.sum(f1 * ay[t0, t2]))
    count = math.perm(n, 4)
    return StatTriple(s1 / count, s2 / count, s3 / count)


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


class PcovPermCore:
    """Enumeration engine for the arity-5 angle kernel under y permutations.

    It enumerates all (n)_5 ordered tuples (there is deliberately no
    algebraic fast path for this kernel) and is also the pcov oracle:
    ``brute_force_triple`` returns its unpermuted triple. The tables and
    tuple-index arrays are built once so each permutation replicate is a
    set of gathers.
    """

    def __init__(self, sample: Sample, spec: KernelPairSpec, budget: Optional[TupleBudget] = None):
        if spec.m != 5:
            raise fail("BAD_KERNEL", f"expected the arity-5 kernel, got {spec.id}")
        if budget is None:
            budget = TupleBudget.default_for(5)
        n = sample.n
        if n < 5:
            raise fail("TOO_SMALL", f"need n >= 5, got n={n}")
        budget.check(n, 5)
        self.n = n
        self.ay3 = apex_value_table(spec, F2, sample.y)
        t0, t1, t2, t3, t4 = _tuple_columns(n, 5)
        self._t = (t0, t1, t2, t3, t4)
        ax3 = apex_value_table(spec, F1, sample.x)
        self._f1 = ax3[t0, t1, t4]

    def triple(self, perm: Optional[np.ndarray] = None) -> StatTriple:
        """Triple for the sample with y rows permuted by ``perm``; None is
        the identity."""
        if perm is None:
            perm = np.arange(self.n)
        t0, t1, t2, t3, t4 = (perm[t] for t in self._t)
        f1 = self._f1
        ay3 = self.ay3
        count = math.perm(self.n, 5)
        s1 = float(np.sum(f1 * ay3[t0, t1, t4])) / count
        s2 = float(np.sum(f1 * ay3[t2, t3, t4])) / count
        s3 = float(np.sum(f1 * ay3[t0, t2, t4])) / count
        return StatTriple(s1, s2, s3)


def stat_core_for(sample: Sample, spec: KernelPairSpec):
    """Engine with a ``triple(perm)`` method for the given kernel."""
    if spec.is_pair_dependent:
        return PairStatCore(build_pair_matrices(sample, spec))
    return PcovPermCore(sample, spec)
