"""Scalar special functions used throughout: generalized Laguerre polynomials
and Laguerre functions, the normalized Bessel function (on the half-integer
lattice from cephes seeds, the upward recurrence and the power series, off it
from scipy's hyp0f1; J_alpha itself is scipy.special.jv), and both sides of
the Laguerre product generating identity.

Everything is a pure function of its arguments; scalars in, scalars out, with
numpy broadcasting over the main argument where it is cheap to provide, and
over x, y and w for the generating series, whose every degree of every point
comes from one banded solve of the Laguerre recurrence.
"""

import math

import numpy as np
from scipy.special import gammaln, hyp0f1, j0, j1, rgamma

from ._checks import finite_array, integer, integer_array, nonzero, order, shapes


def _as_array(x):
    a = np.asarray(x, dtype=float)
    return a, a.ndim == 0


def _maybe_scalar(out, scalar):
    return out[()] if scalar else out


def _recurrence(m, alpha, t):
    """(a, b, c) of the upward three-term recurrence
    c L_{m+1}^alpha(t) = a L_m^alpha(t) - b L_{m-1}^alpha(t), with
    L_{-1} = 0 and L_0 = 1; m, alpha and t broadcast."""
    return 2 * m + 1 + alpha - t, m + alpha, m + 1


def laguerre(k, alpha, t):
    """Generalized Laguerre polynomial L_k^alpha(t), for one order
    alpha > -1: the last degree of `_laguerre_rows`."""
    integer("Laguerre degree k", k, 0)
    t, scalar = _as_array(t)
    out = _laguerre_rows(alpha, t.ravel(), int(k))[:, -1].reshape(t.shape)
    return _maybe_scalar(out, scalar)


def laguerre_fn(k, lam, n, r):
    """Laguerre function L_k^{n-1}(|lam| r^2 / 2) exp(-|lam| r^2 / 4), even
    in lam."""
    integer("dimension n", n)
    nonzero("lam", lam)
    r, scalar = _as_array(r)
    x = 0.5 * abs(lam) * r * r
    out = np.asarray(laguerre(k, n - 1, x)) * np.exp(-0.5 * x)
    return _maybe_scalar(out, scalar)


_SQRT_PI = math.sqrt(math.pi)
# the integer orders leave the seeds where w * w overflows: cephes j0 and
# j1 return phase noise there, and the 0F1 series is non-finite from 2.7e154
_W_SQUARE_MAX = math.sqrt(np.finfo(float).max)
# the power series serves the lattice below w = min(floor(alpha), 8): on
# [0, floor(alpha)) it is within 1.6e-15 relative through alpha = 8.5, and
# it loses digits past that (3.0e-15 at alpha = 10, 5.5e-14 at 16)
_POWER_REACH = 8
# below this the seeds divide by a w whose j1 may underflow
_TINY = 1e-8


def _jtilde_series(alpha, w):
    return hyp0f1(alpha + 1.0, -0.25 * w * w) * rgamma(alpha + 1.0)


def _jtilde_power(alpha, w, w_max):
    """sum_k (-w^2/4)^k / (k! Gamma(alpha+k+1)) (DLMF 10.2.2) for
    0 <= w <= w_max, by Horner in w^2/4, through the first term that falls
    below 2^-60 of the first at w_max."""
    q, term, terms = 0.25 * w_max * w_max, 1.0, 0
    while term > 2.0 ** -60:
        terms += 1
        term *= q / (terms * (alpha + terms))
    z = -0.25 * w * w
    out = np.ones_like(w)
    for k in range(terms, 0, -1):
        out = 1.0 + z * out / (k * (alpha + k))
    return out * rgamma(alpha + 1.0)


def _jtilde_upward(alpha, w):
    """Jt_alpha(w) on the half-integer lattice, alpha >= 0: the two lowest
    orders of its lattice, Jt_0 = j0(w) and Jt_1 = 2 j1(w) / w or
    Jt_{-1/2} = cos(w) / sqrt(pi) and Jt_{1/2} = 2 sin(w) / (sqrt(pi) w),
    carried to alpha by Jt_{nu+1} = (nu Jt_nu - Jt_{nu-1}) / (w/2)^2, which
    is stable for w >= floor(alpha).  Orders 0 and 1/2 take one seed only.
    The half-integer lattice runs on sqrt(pi) Jt, which saves a rounding of
    each seed.  Any w goes in: the values at w < max(floor(alpha), 1e-8),
    where the seeds divide by w or the recurrence is unstable, are not
    Jt's, and numpy's warnings for them are the caller's to silence.
    """
    if alpha == 0.0:
        return j0(w)
    if alpha == 0.5:
        return 2.0 / _SQRT_PI * (np.sin(w) / w)
    half = alpha % 1.0 == 0.5
    if half:
        nu, prev, cur = 0.5, np.cos(w), 2.0 * (np.sin(w) / w)
    else:
        nu, cur = 1.0, 2.0 * j1(w) / w
        if alpha == nu:
            return cur
        prev = j0(w)
    h = 0.5 * w
    while nu < alpha:
        prev, cur = cur, (nu * cur - prev) / h / h
        nu += 1.0
    return cur / _SQRT_PI if half else cur


def bessel_j_tilde(alpha, w):
    """Normalized Bessel (w/2)^{-alpha} J_alpha(w).

    Entire and even in w, with value 1/Gamma(alpha+1) at w = 0.  Order -1/2
    is cos(w) / sqrt(pi).  The other orders of the half-integer lattice
    run the upward recurrence from its two lowest orders
    (`_jtilde_upward`) on the whole array, and overwrite the points below
    w = min(floor(alpha), 8), and those below 1e-8, with the power series
    (`_jtilde_power`); orders 0, 1/2 and 1 take no recurrence step and use
    the series near w = 0 only.  Against 40-digit mpmath, the error times
    Gamma(alpha+1) on 0 <= w <= 1000 is 1.5e-16, 1.1e-16 and 1.7e-16 at
    orders 3/2, 2 and 3 (5.9e-16, 2.2e-16 and 1.7e-16 when hyp0f1 served
    w < floor(alpha)), and the series is within 1.3e-15 relative on
    [0, floor(alpha)) through order 8.  scipy's hyp0f1,
    0F1(; alpha+1; -w^2/4) / Gamma(alpha+1), serves the orders off the
    lattice, the band 8 <= w < floor(alpha) of the orders from 9 on, and
    the integer orders from w = sqrt(max float) = 1.3e154 on, where w^2
    overflows: there it is non-finite (from 2.7e154) rather than cephes'
    phase noise.
    """
    order("Bessel order alpha", alpha, -1.0)
    w, scalar = _as_array(w)
    w = np.abs(w)
    if alpha == -0.5:
        out = np.cos(w) / _SQRT_PI
    elif alpha % 0.5:
        out = _jtilde_series(alpha, w)
    else:
        out = _jtilde_lattice(alpha, w.reshape(-1)).reshape(w.shape)
    return _maybe_scalar(out, scalar)


def _jtilde_lattice(alpha, w):
    """bessel_j_tilde at a lattice order alpha >= 0 on a 1-d w >= 0."""
    floor = math.floor(alpha)
    reach = max(min(floor, _POWER_REACH), _TINY)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        out = _jtilde_upward(alpha, w)
    near = w < reach
    out[near] = _jtilde_power(alpha, w[near], reach)
    integer = alpha % 1.0 == 0.0
    if floor > _POWER_REACH or (integer and (w >= _W_SQUARE_MAX).any()):
        rest = (w >= reach) & (w < floor)
        if integer:
            rest |= w >= _W_SQUARE_MAX
        out[rest] = _jtilde_series(alpha, w[rest])
    return out


def jtilde_of_square(alpha, w2):
    """bessel_j_tilde as an entire function of the squared argument.

    Accepts complex w2, so callers never take a square root of a complex
    number themselves; the principal root used at alpha = -1/2 is
    immaterial because the function is even.
    """
    order("Bessel order alpha", alpha, -1.0)
    w2 = np.asarray(w2, dtype=complex)
    if alpha == -0.5:
        return np.cos(np.sqrt(w2)) / math.sqrt(math.pi)
    return hyp0f1(alpha + 1.0, -0.25 * w2) * rgamma(alpha + 1.0)


# points x degrees of one block of the series tables: 1 MB per complex table
_SERIES_BLOCK = 1 << 16
# partial sums that the tail resummation reads near the rim of the disc
_TAIL = 48
_EPS = float(np.finfo(float).eps)
# the largest round-off of a sum, relative to it, that the series returns
_LOST_DIGITS = 1e-8


def _laguerre_rows(alpha, t, kmax):
    """out[i, k] = L_k^alpha(t[i]) for k <= kmax, from one lower-triangular
    banded solve; alpha > -1 is one number.

    The upward three-term recurrence (`_recurrence`) is a system with
    bandwidth 2 and one diagonal block per t: L_0 = 1 and
    c L_{m+1} - a L_m + b L_{m-1} = 0.  BLAS forward substitution (dtbsv,
    no pivoting) runs that recurrence itself, in compiled code.  The
    defining alternating sum cancels catastrophically once k t is large, so
    the recurrence is used for every degree.
    """
    order("Laguerre order alpha", alpha, -1.0)
    if t.size == 0:
        return np.zeros((0, kmax + 1))
    from scipy.linalg.blas import dtbsv

    m = np.arange(kmax, dtype=float)
    a, b, c = _recurrence(m, alpha, t[:, None])
    band = np.zeros((t.size, kmax + 1, 3))      # the (3, n) band in column order
    band[:, 0, 0] = 1.0
    band[:, 1:, 0] = c
    band[:, :-1, 1] = -a
    band[:, :-2, 2] = b[1:]
    rhs = np.zeros((t.size, kmax + 1))
    rhs[:, 0] = 1.0
    return dtbsv(2, band.reshape(-1, 3).T, rhs.ravel(), lower=1, overwrite_x=1).reshape(rhs.shape)


def _partial_sums(grows, rows, ix, iy, w, power, total, k0, k1):
    """Terms and partial sums of degrees k0 <= k < k1, from w^k0 (power)
    and the partial sum of degree k0 - 1 (total).

    Every product and sum runs in the order of the series itself, so a sum
    split into ranges of degrees equals the sum taken in one range.
    """
    terms = np.empty((w.size, k1 - k0), dtype=complex)
    terms[:, 0] = power
    terms[:, 1:] = w[:, None]
    np.cumprod(terms, axis=1, out=terms)
    power = terms[:, -1] * w
    terms *= grows[ix, k0:k1] * rows[iy, k0:k1]
    sums = np.empty((w.size, k1 - k0 + 1), dtype=complex)
    sums[:, 0] = total
    sums[:, 1:] = terms
    np.cumsum(sums, axis=1, out=sums)
    return terms, sums[:, 1:], power


def _plain_sums(grows, rows, ix, iy, w, kmax):
    """The series for |w| <= 0.85, stopped at the fourth successive term
    below 1e-17 of the partial sum, or at kmax, and the largest |term| up
    to the stop.  Degrees go in ranges of doubling length, and a point
    leaves once it has stopped."""
    out, peaks = np.empty(w.size, dtype=complex), np.empty(w.size)
    live = np.arange(w.size)
    power, total = np.ones(w.size, dtype=complex), np.zeros(w.size, dtype=complex)
    peak = np.zeros(w.size)
    flags = np.zeros((w.size, 3), dtype=bool)       # the last three degrees' tests
    k0, width = 0, 64
    while live.size:
        k1 = min(k0 + width, kmax + 1)
        terms, sums, power = _partial_sums(grows, rows, ix[live], iy[live], w[live],
                                           power, total, k0, k1)
        size = np.abs(terms)
        small = size <= 1e-17 * np.maximum(np.abs(sums), 1e-300)
        small[:, 0] &= k0 > 0                       # degree 0 never counts
        small = np.concatenate((flags, small), axis=1)
        run = small[:, 3:] & small[:, 2:-1] & small[:, 1:-2] & small[:, :-3]
        hit = run.any(axis=1)
        if k1 > kmax:
            hit[:] = True
            run[:, -1] = True
        stop = np.where(hit, run.argmax(axis=1), k1 - k0 - 1)
        size[np.arange(k1 - k0) > stop[:, None]] = 0.0
        peak = np.maximum(peak, size.max(axis=1))
        out[live[hit]] = sums[hit, stop[hit]]
        peaks[live[hit]] = peak[hit]
        keep = ~hit
        live, power, total, peak = live[keep], power[keep], sums[keep, -1], peak[keep]
        flags = small[keep, -3:]
        k0, width = k1, 2 * width
    return out, peaks


def _boosted_sums(grows, rows, ix, iy, w, kmax):
    """The series for |w| > 0.85 to degree kmax, with its tail resummed:
    S -> (S_{k+1} - w S_k)/(1 - w) iterated over the last partial sums,
    keeping the iterate whose last two entries agree best; and the largest
    |term|."""
    terms, sums, _ = _partial_sums(grows, rows, ix, iy, w, 1.0, 0.0, 0, kmax + 1)
    peak = np.abs(terms).max(axis=1)
    seq = sums[:, -_TAIL:]
    best = seq[:, -1]
    if kmax == 0:
        return best, peak
    w = w[:, None]
    best_gap = np.abs(seq[:, -1] - seq[:, -2])
    while seq.shape[1] >= 3:
        seq = (seq[:, 1:] - w * seq[:, :-1]) / (1.0 - w)
        gap = np.abs(seq[:, -1] - seq[:, -2])
        better = gap < best_gap
        best = np.where(better, seq[:, -1], best)
        best_gap = np.where(better, gap, best_gap)
    return best, peak


def _series_block(alpha, x, y, w, kmax, boost):
    """laguerre_series_sum on one block of points that share kmax, and the
    largest |term| of each point's sum."""
    k = np.arange(1.0, kmax + 1.0)
    g = np.empty(kmax + 1)
    g[0] = np.exp(-gammaln(alpha + 1.0))
    g[1:] = k / (k + alpha)
    np.cumprod(g, out=g)
    nodes, where = np.unique(np.concatenate((x, y)), return_inverse=True)
    rows = _laguerre_rows(alpha, nodes, kmax)
    grows = g * rows
    ix, iy = where[:x.size], where[x.size:]
    out, peak = np.empty(x.size, dtype=complex), np.empty(x.size)
    for part, sums in ((~boost, _plain_sums), (boost, _boosted_sums)):
        if part.any():
            out[part], peak[part] = sums(grows, rows, ix[part], iy[part], w[part], kmax)
    return out, peak


def laguerre_series_sum(alpha, x, y, w, kmax):
    """sum_{k<=kmax} Gamma(k+1)/Gamma(k+alpha+1) L_k^a(x) L_k^a(y) w^k.

    x, y, w and kmax broadcast against each other (alpha > -1 is one
    number); scalars in, a complex scalar out.  The points go in blocks of
    `_SERIES_BLOCK` point-degrees (kmax must stay below it).  In a block,
    the rows L_0^alpha, ..., L_kmax^alpha of every distinct x and y come
    from one banded forward solve of the three-term recurrence
    (`_laguerre_rows`), the factors Gamma(k+1)/Gamma(k+alpha+1) and w^k
    from running products and the partial sums from a running sum, all in
    the order of the term-by-term sum.

    For |w| <= 0.85 a point stops at the fourth successive term below 1e-17
    of its partial sum; degrees go in ranges of doubling length, and a
    point that has stopped leaves the next range.  For |w| near 1 the partial sums
    spiral slowly toward the limit; the tail is resummed by iterating
    S -> (S_{k+1} - w S_k)/(1 - w), which strips one order of the
    slowly-varying envelope per pass, over the last 48 partial sums.  The
    iteration depth is picked a posteriori by successive-difference
    minimization.  ValueError for |w| >= 1, w within 0.04 of 1 above
    |w| = 0.85, a series that overflows, and one that cancels: where eps
    times its largest term exceeds 1e-8 of the sum.
    """
    order("Laguerre order alpha", alpha, -1.0)
    x, y, w, kmax = shapes(("x", "y", "w", "kmax"), finite_array("x", x), finite_array("y", y),
                           finite_array("w", np.asarray(w, dtype=complex)),
                           integer_array("kmax", kmax, 0, _SERIES_BLOCK), broadcast=True)
    modulus = np.abs(w)
    if (modulus >= 1.0).any():
        raise ValueError("Laguerre series diverges for |w| >= 1")
    boost = modulus > 0.85
    if (boost & (np.abs(1.0 - w) < 0.04)).any():
        raise ValueError("tail resummation needs w away from the point 1")
    shape = x.shape
    x, y, w, boost, kmax = (a.ravel() for a in (x, y, w, boost, kmax))
    out, peak = np.empty(x.size, dtype=complex), np.empty(x.size)
    with np.errstate(over="ignore", invalid="ignore"):
        for degrees in np.unique(kmax).tolist():
            sel = np.flatnonzero(kmax == degrees)
            step = max(1, _SERIES_BLOCK // (degrees + 1))
            for lo in range(0, sel.size, step):
                idx = sel[lo:lo + step]
                out[idx], peak[idx] = _series_block(float(alpha), x[idx], y[idx], w[idx],
                                                    degrees, boost[idx])
    if not np.isfinite(out).all():
        raise ValueError("the Laguerre series overflows; x and y are too large")
    # each term carries a round-off of eps |term| into the sum
    if (_EPS * peak > _LOST_DIGITS * np.abs(out)).any():
        raise ValueError("the Laguerre series cancels: eps times its largest term exceeds "
                         f"{_LOST_DIGITS:g} of the sum; x and y are too large")
    out = out.reshape(shape)
    return complex(out[()]) if out.ndim == 0 else out


def hille_hardy(alpha, x, y, w, K=None):
    """Both sides of the Laguerre product generating identity.

    lhs: the truncated series `laguerre_series_sum` (K terms; by default
    600 where |w| <= 0.85 and 4000 elsewhere, chosen per point).
    rhs: (1-w)^{-(alpha+1)} exp(-w(x+y)/(1-w)) Jt_alpha(2 sqrt(-xyw)/(1-w)),
    principal powers throughout.  x, y, w and K broadcast as in
    `laguerre_series_sum`, so a batch of points shares its banded solves;
    scalars give a pair of complex scalars.  Returned as a pair; nothing is
    asserted.  ValueError where either side is out of range.
    """
    w = finite_array("w", np.asarray(w, dtype=complex))
    K = np.where(np.abs(w) <= 0.85, 600, 4000) if K is None else integer_array("K", K, 1)
    x, y, w, K = shapes(("x", "y", "w", "K"), finite_array("x", x, nonnegative=True),
                        finite_array("y", y, nonnegative=True), w, K, broadcast=True)
    lhs = laguerre_series_sum(alpha, x, y, w, K)
    one = 1.0 - w
    u2 = -4.0 * x * y * w / (one * one)
    with np.errstate(over="ignore", invalid="ignore"):
        rhs = one ** (-(alpha + 1.0)) * np.exp(-w * (x + y) / one) * jtilde_of_square(alpha, u2)
    if not np.isfinite(rhs).all():
        raise ValueError("the closed form overflows; x and y are too large")
    return lhs, (complex(rhs) if rhs.ndim == 0 else rhs)
