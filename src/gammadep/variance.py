"""The limiting variance of the half-normal law: the paper's jackknife
display, and the exact permutation variance that studentizes ``p_asym``.

Under independence sqrt(n) u -> N(0, m^2 sigma0^2). Two estimates of
sigma0^2 live here:

* ``jackknife_fast`` / ``jackknife_brute``: the paper's jackknife display.
  It is what reports carry as ``sigma0_sq``. At moderate n it overestimates
  (each g(i) keeps the second-order noise of the U-statistic, the
  Efron-Stein effect) and it moves with u^2, so a half-normal p-value
  divided by it is conservative (about 0.013 at nominal 0.05 for n = 200).
* ``permutation_sigma0_sq``: n Var_pi(u) / m^2, with Var_pi(u) the exact
  variance of u over all n! permutations of the y rows, x fixed. This is
  the variance the permutation test samples from, it has no finite-sample
  bias under the null, and it is what ``p_asym`` is studentized by.

Jackknife display. For observation i, let g(i) be the average of
(symmetrized psi_1 minus symmetrized psi_3) over all 3-subsets of the
remaining rows, with row i occupying the first argument slot. The
estimate is

    sigma0_sq = (n - 1) / (n - 4)^2 * sum_i g(i)^2

The symmetrized kernel of a 4-point set is the average of its 24
orderings, so g(i) is also the average of the unsymmetrized
psi_1 - psi_3 = f1(t0, t1) (f2(t0, t1) - f2(t0, t2)) over the
4 (n-1)(n-2)(n-3) ordered 4-tuples of distinct indices that hold i in any
slot. ``jackknife_brute`` evaluates it that way, as the tuple gather of
``ustat.brute_force_triple``: kernel values from ``kernels.kernel_values``
tables, one product per tuple, and one ``np.bincount`` per slot.
``jackknife_fast`` collapses the same average to row-sum statistics of the
kernel matrices; the reduction is gated on the brute oracle in CI because
every term in it is easy to get subtly wrong.

Reduction (N = n - 1; A~ and B~ are the zero-diagonal matrices of a
``PairKernelMatrices``; u_i = sum_p a_ip b_ip, r/c the row sums of A~/B~,
p_i = (A~ c)_i and q_i = (B~ r)_i are its fields u, r, c, p and q, taken
once when it is built, so this module reads no n x n matrix and takes no
O(n^2) reduction of its own;
T1 = sum u_i, Sig3 = r.c - T1, and Sig3(-i) = Sig3 - r_i c_i - p_i - q_i + 3 u_i
the triple sum avoiding index i):

    g1(i) = u_i / (2N) + (T1 - 2 u_i) / (2 N (N-1))
    g3(i) = (r_i c_i + p_i + q_i - 3 u_i) / (4 N (N-1))
            + Sig3(-i) / (4 N (N-1) (N-2))
    g(i)  = g1(i) - g3(i)

g1 collects the 3 pairs containing i (each subset element appears with
probability 3/N) and the 3 pairs inside the subset (probability
6/(N(N-1)) per fixed pair); g3 splits the 24 ordered triples of the
4-point set by where i sits (apex, second, third, absent).

Permutation variance. Since u = T1 / (n (n-2)) - r.c / (n (n-1) (n-2)),
permuting the y rows by pi gives the quadratic-assignment form

    u(pi) = sum_ij X_ij Y_pi(i)pi(j),
    X = A~ / (n (n-2)) with diagonal -r / (n (n-1) (n-2)),
    Y = B~ with diagonal c,

and E_pi[u] = 0 exactly. In E_pi[u^2] = sum_ijkl X_ij X_kl
E[Y_pi(i)pi(j) Y_pi(k)pi(l)] the expectation depends only on which of
i, j, k, l coincide: for a coincidence pattern with d distinct indices it
is the sum of Y over index tuples with exactly that pattern, divided by
(n)_d. For symmetric X and Y the 15 patterns fall into 7 classes:

    class  blocks           count  d    tuples summed, indices tied within
    D4     i|j|k|l          1      4    M..^2
    P2a    ij|k|l, kl|i|j   2      3    tr(M) M..
    P2b    ik|j|l, ...      4      3    sum_i R_i^2
    PPa    ij|kl            1      2    tr(M)^2
    PPb    ik|jl, il|jk     2      2    sum_ij M_ij^2
    P3     ijk|l, ...       4      2    sum_i M_ii R_i
    P4     ijkl             1      1    sum_i M_ii^2

(R the row sums of M including the diagonal). The sums over tuples with
exactly a pattern follow from these by Moebius inversion over the coarser
patterns, so E_pi[u^2] costs O(n^2) in total. u is unchanged when a
constant is added to the off-diagonal entries of A~ or B~, so both are
first centered by their off-diagonal means; this makes M.. and tr(M)
vanish and keeps the sum from cancelling O(n^2)-sized terms. The centered
row sums and squared norms are shifted from the pair's r, c, totals and
squared norms, so no matrix is read here.

Both jackknife routes return a float through one finish, NONFINITE unless
the estimate is finite and nonnegative. The dots of the permutation
variance are einsums, summed in an order fixed by n. The jackknife keeps
two BLAS dots, r . c and g . g, which OpenBLAS splits across threads
above n = 10,000: as einsums they move the benchmark's pinned cli-ghsic-wide
``sigma0_sq`` past its 1e-10 gate, which has to be re-derived first.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .data_model import KernelPairSpec, Sample
from .errors import fail
from .kernels import F1, F2, PairKernelMatrices, pair_value_table
from .ustat import TupleBudget, _tuple_columns


def _jackknife_finish(g: np.ndarray, n: int, m: int) -> float:
    """sigma0_sq = (n - 1) / (n - m)^2 * sum_i g(i)^2; NONFINITE unless it is
    finite and nonnegative."""
    sigma0_sq = (n - 1) / (n - m) ** 2 * float(g @ g)
    if not (sigma0_sq >= 0.0) or not math.isfinite(sigma0_sq):
        raise fail("NONFINITE", f"sigma0_sq={sigma0_sq!r}")
    return sigma0_sq


def jackknife_brute(
    sample: Sample, spec: KernelPairSpec, budget: Optional[TupleBudget] = None
) -> float:
    """Literal enumeration of the jackknife display; O(n^4) and budget-capped.

    Runs ``brute_force_triple``'s tuple gather (see the module docstring),
    so it reads no kernel matrix of the fast path it oracle-checks.
    """
    if not spec.is_pair_dependent:
        raise fail("PAIR_KERNEL_REQUIRED", f"no jackknife for {spec.id} (arity {spec.m})")
    m = spec.m
    n = sample.n
    if budget is None:
        budget = TupleBudget.default_for(m)
    if n <= m:
        raise fail("TOO_SMALL", f"need n > {m}, got n={n}")
    budget.check(n, m)
    ax = pair_value_table(spec, F1, sample.x)
    ay = pair_value_table(spec, F2, sample.y)
    cols = _tuple_columns(n, 4)
    t0, t1, t2, _ = cols
    h = ax[t0, t1] * (ay[t0, t1] - ay[t0, t2])
    g = sum(np.bincount(t, h, minlength=n) for t in cols) / (4 * math.perm(n - 1, 3))
    return _jackknife_finish(g, n, m)


def jackknife_fast(mats: PairKernelMatrices) -> float:
    """The jackknife display in O(n) from the pair's O(n^2) sums; equals the
    brute value to 1e-10. Reads no matrix and allocates only length-n
    vectors."""
    n = mats.n
    m = mats.spec.m
    if n <= m:
        raise fail("TOO_SMALL", f"need n > {m}, got n={n}")
    r, c, u, p, q = mats.r, mats.c, mats.u, mats.p, mats.q
    t1 = float(u.sum())
    sig3 = float(r @ c) - t1
    sig3_minus_i = sig3 - r * c - p - q + 3.0 * u

    big_n = n - 1
    g1 = u / (2.0 * big_n) + (t1 - 2.0 * u) / (2.0 * big_n * (big_n - 1))
    g3 = (r * c + p + q - 3.0 * u) / (4.0 * big_n * (big_n - 1)) + sig3_minus_i / (
        4.0 * big_n * (big_n - 1) * (big_n - 2)
    )
    return _jackknife_finish(g1 - g3, n, m)


def _centered_row_stats(rows: np.ndarray, total: float, sq: float):
    """Row sums and sum of squares of a symmetric zero-diagonal kernel
    matrix with row sums ``rows``, total ``total`` and squared norm ``sq``
    after subtracting its off-diagonal mean."""
    n = rows.shape[0]
    kappa = total / (n * (n - 1))
    return rows - kappa * (n - 1), sq - kappa * kappa * n * (n - 1)


def _dot(v: np.ndarray, w: np.ndarray) -> float:
    """v . w by einsum, in an order fixed by the length alone."""
    return float(np.einsum("i,i->", v, w))


def _exact_pattern_sums(total, trace, row_sq, sq, diag_row, diag_sq):
    """Sums over index tuples with exactly each coincidence class (see the
    module docstring), by Moebius inversion of the tied-index sums."""
    p4 = diag_sq
    p3 = diag_row - p4
    ppa = trace * trace - p4
    ppb = sq - p4
    p2a = trace * total - ppa - 2.0 * p3 - p4
    p2b = row_sq - ppb - 2.0 * p3 - p4
    d4 = total * total - 2.0 * p2a - 4.0 * p2b - ppa - 2.0 * ppb - 4.0 * p3 - p4
    return d4, p2a, p2b, ppa, ppb, p3, p4


def permutation_sigma0_sq(mats: PairKernelMatrices) -> float:
    """n Var_pi(u) / m^2 in O(n^2), with Var_pi(u) the exact variance of u
    over all n! permutations of the y rows.

    This is the sigma0^2 that ``p_asym`` is studentized by. It is 0 for a
    sample whose u cannot move under permutation (a constant x or y) and
    may round to a tiny negative value there; callers treat any value that
    is not positive as "no asymptotic p-value".
    """
    n = mats.n
    m = mats.spec.m
    if n < m:
        raise fail("TOO_SMALL", f"need n >= {m}, got n={n}")
    ra, qa = _centered_row_stats(mats.r, mats.a_total, mats.a_sq)
    rb, qb = _centered_row_stats(mats.c, mats.b_total, mats.b_sq)

    scale = 1.0 / (n * (n - 2))
    xd = -ra * scale / (n - 1)
    xr = ra / (n * (n - 1))
    dd = _dot(xd, xd)
    x = _exact_pattern_sums(
        float(xr.sum()), float(xd.sum()), _dot(xr, xr), scale * scale * qa + dd, _dot(xd, xr), dd
    )
    cc = _dot(rb, rb)
    sb = float(rb.sum())
    y = _exact_pattern_sums(2.0 * sb, sb, 4.0 * cc, qb + cc, 2.0 * cc, cc)

    d4, p2a, p2b, ppa, ppb, p3, p4 = (sx * sy for sx, sy in zip(x, y))
    var_u = (
        d4 / math.perm(n, 4)
        + (2.0 * p2a + 4.0 * p2b) / math.perm(n, 3)
        + (ppa + 2.0 * ppb + 4.0 * p3) / math.perm(n, 2)
        + p4 / n
    )
    return n * var_u / (m * m)
