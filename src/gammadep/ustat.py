"""Unbiased estimation of the three kernel-product means.

Two routes with very different cost profiles:

* ``EnumerationCore`` enumerates every ordered m-tuple of distinct indices
  (m = 4 for the pair kernels, 5 for the angle kernel) and averages the
  three permuted-argument kernel products. It is the one enumeration:
  ``brute_force_triple`` is its unpermuted triple, the jackknife oracle
  ``variance.jackknife_brute`` reads its tuples and gathered values, and the
  pcov permutation test runs its permuted triples. It is admitted by a
  ceiling of 1e7 tuples (n <= 57 at m = 4, n <= 27 at m = 5) and by its
  byte model, ``enumeration_peak_bytes``, against the memory available,
  through the same ``kernels.check_fits`` as the pair build and the pool.
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

import math
import os
from typing import Optional

import numpy as np

from .data_model import KernelPairSpec, Sample, StatTriple
from .errors import fail
from .kernels import F1, F2, PairKernelMatrices, build_pair_matrices, check_fits, value_table

# Ceiling on the ordered tuples one enumeration takes: n <= 57 for the pair
# kernels and n <= 27 for the angle kernel. Below it, the byte model is
# checked against the memory available.
_MAX_TUPLES = 10_000_000


def _tuple_columns(n: int, m: int) -> tuple:
    """The m columns of the (n)_m x m array of ordered tuples of distinct
    indices, in ``itertools.permutations(range(n), m)`` order: each prefix
    of k indices, in that order, is followed by the n - k indices it does
    not hold, in increasing order. Built one position at a time, so the
    columns of the last position are the only ones of full length."""
    cols = [np.arange(n)]
    for k in range(1, m):
        free = np.ones((cols[0].size, n), dtype=bool)
        for col in cols:
            free[np.arange(col.size), col] = False
        nxt = np.broadcast_to(np.arange(n), free.shape)[free]
        cols = [np.repeat(col, n - k) for col in cols] + [nxt]
    return tuple(cols)


def enumeration_peak_bytes(n: int, m: int, d: int, workers: Optional[int] = None) -> int:
    """Byte model of the peak of an ``EnumerationCore`` at n rows of at most
    d columns a side, with its triples and the brute jackknife.

    The core holds its m tuple columns and its gathered f1, 8 (m + 1) (n)_m
    bytes, and its two value tables of n^(m-2) values each. Each process
    that reads it adds two arrays of (n)_m values (a triple's gather and
    its product with f1, or the jackknife's two gathers) and, for a
    permuted triple, its permuted y table; the forked permutation workers
    read the core copy-on-write, not copying it. Before the tuples are
    built, ``value_table`` evaluates each side's (count, m, d) block of
    argument tuples, with up to two more (count, d) differences.
    ``workers`` defaults to, and is bounded by, ``os.cpu_count()``.
    """
    cpus = os.cpu_count() or 1
    workers = cpus if workers is None else min(workers, cpus)
    table = n ** (m - 2)
    block = math.comb(n, 2) * n ** (m - 4) * (m + 2) * d
    return 8 * (math.perm(n, m) * (m + 1 + 2 * workers) + table * (2 + workers) + block)


class EnumerationCore:
    """The brute-force enumeration of one sample, for every kernel: all
    (n)_m ordered tuples of distinct indices, with the x factor
    f1(z_t0, z_t1[, apex z_t4]) gathered once from ``value_table``.

    It is the correctness oracle (``brute_force_triple`` is its unpermuted
    triple, and ``variance.jackknife_brute`` reads its ``tuples``, ``f1`` and
    ``ay``), and the pcov permutation engine: the angle kernel deliberately
    has no algebraic fast path, so each of its permutation replicates is a
    set of gathers over these tuples. The constructor refuses, before it
    builds anything, n < m (TOO_SMALL), more than ``_MAX_TUPLES`` tuples
    and a byte model (``enumeration_peak_bytes``) past the memory
    available (both TOO_LARGE).
    """

    def __init__(self, sample: Sample, spec: KernelPairSpec):
        m = spec.m
        n = sample.n
        if n < m:
            raise fail("TOO_SMALL", f"need n >= {m}, got n={n}")
        count = math.perm(n, m)
        if count > _MAX_TUPLES:
            raise fail("TOO_LARGE", f"n={n} has {count} ordered {m}-tuples, past the ceiling {_MAX_TUPLES}")
        check_fits(enumeration_peak_bytes(n, m, max(sample.d1, sample.d2)), f"an enumeration of n={n} rows")
        self.spec = spec
        self.n = n
        self.tuples = _tuple_columns(n, m)
        t0, t1 = self.tuples[:2]
        self.f1 = value_table(spec, F1, sample.x)[(t0, t1) + self.tuples[4:]]
        self.ay = value_table(spec, F2, sample.y)

    def triple(self, perm: Optional[np.ndarray] = None) -> StatTriple:
        """Triple for the sample with y rows permuted by ``perm``; None is
        the identity. The permuted y table ay[pi][:, pi] (and [..., pi] at
        the apex) gathered at a tuple is ay gathered at the permuted tuple,
        so a permutation gathers no index column."""
        ay = self.ay if perm is None else self.ay[np.ix_(*(perm,) * self.ay.ndim)]
        t0, t1, t2, t3 = self.tuples[:4]
        apex = self.tuples[4:]
        f1 = self.f1
        count = f1.size
        s1 = float(np.sum(f1 * ay[(t0, t1) + apex])) / count
        s2 = float(np.sum(f1 * ay[(t2, t3) + apex])) / count
        s3 = float(np.sum(f1 * ay[(t0, t2) + apex])) / count
        return StatTriple(s1, s2, s3)


def brute_force_triple(sample: Sample, spec: KernelPairSpec) -> StatTriple:
    """Exact averages of the three permuted-argument products over all
    ordered tuples of distinct indices: ``EnumerationCore``'s unpermuted
    triple, whose kernel values come from ``kernels.kernel_values`` and not
    from the matrix builders and closed forms it oracle-checks."""
    return EnumerationCore(sample, spec).triple(None)


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
