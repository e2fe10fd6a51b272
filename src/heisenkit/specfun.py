"""Scalar special functions used throughout: generalized Laguerre polynomials
and Laguerre functions, the normalized Bessel function (from scipy.special;
J_alpha itself is scipy.special.jv), and both sides of the Laguerre product
generating identity.

Everything is a pure function of its arguments; scalars in, scalars out, with
numpy broadcasting over the main argument where it is cheap to provide.
"""

import math

import numpy as np
from scipy.special import gammaln, hyp0f1, j0, j1, rgamma


def _as_array(x):
    a = np.asarray(x, dtype=float)
    return a, a.ndim == 0


def _maybe_scalar(out, scalar):
    return out[()] if scalar else out


def _laguerre_degrees(k, alpha, t):
    """Yield L_0^alpha(t), ..., L_k^alpha(t): one pass of the upward
    three-term recurrence from L_0 and L_1.

    alpha and t broadcast against each other.  The defining alternating sum
    cancels catastrophically once k t is large, so the recurrence is used for
    every degree.
    """
    if int(k) != k or k < 0:
        raise ValueError("Laguerre degree k must be a nonnegative integer")
    if np.any(np.asarray(alpha) <= -1.0):
        raise ValueError("Laguerre order alpha must exceed -1")
    prev = np.ones(np.broadcast(alpha, t).shape)
    yield prev
    if k == 0:
        return
    cur = 1.0 + alpha - t
    yield cur
    for m in range(1, int(k)):
        prev, cur = cur, ((2 * m + 1 + alpha - t) * cur - (m + alpha) * prev) / (m + 1.0)
        yield cur


def laguerre(k, alpha, t):
    """Generalized Laguerre polynomial L_k^alpha(t)."""
    t, scalar = _as_array(t)
    for cur in _laguerre_degrees(k, alpha, t):
        pass
    return _maybe_scalar(cur, scalar)


def laguerre_table(kmax, alpha, t):
    """Every degree at once: out[k] = L_k^alpha(t) for k = 0..kmax, with
    alpha and t broadcast against each other."""
    return np.stack(list(_laguerre_degrees(kmax, alpha, np.asarray(t, dtype=float))))


def _check_dimension(n):
    if int(n) != n or n < 1:
        raise ValueError("dimension n must be a positive integer")


def laguerre_fn(k, lam, n, r):
    """Laguerre function L_k^{n-1}(|lam| r^2 / 2) exp(-|lam| r^2 / 4).

    Even in lam by construction; lam = 0 is rejected.
    """
    _check_dimension(n)
    if lam == 0:
        raise ValueError("lam must be nonzero")
    r, scalar = _as_array(r)
    x = 0.5 * abs(lam) * r * r
    out = np.asarray(laguerre(k, n - 1, x)) * np.exp(-0.5 * x)
    return _maybe_scalar(out, scalar)


def _check_order(alpha):
    if alpha <= -1.0:
        raise ValueError("Bessel order alpha must exceed -1")


_SQRT_PI = math.sqrt(math.pi)
# the integer orders leave the seeds where w * w overflows: cephes j0 and
# j1 return phase noise there, and the 0F1 series is non-finite from 2.7e154
_W_SQUARE_MAX = math.sqrt(np.finfo(float).max)


def _jtilde_series(alpha, w):
    return hyp0f1(alpha + 1.0, -0.25 * w * w) * rgamma(alpha + 1.0)


def _jtilde_upward(alpha, w):
    """Jt_alpha(w) for w > 0 on the half-integer lattice, alpha >= 0: the
    two lowest orders of its lattice, Jt_0 = j0(w) and Jt_1 = 2 j1(w) / w
    or Jt_{-1/2} = cos(w) / sqrt(pi) and Jt_{1/2} = 2 sin(w) / (sqrt(pi) w),
    carried to alpha by Jt_{nu+1} = (nu Jt_nu - Jt_{nu-1}) / (w/2)^2, which
    is stable for w >= floor(alpha).  Orders 0 and 1/2 take one seed only.
    The half-integer lattice runs on sqrt(pi) Jt, which saves a rounding of
    each seed.
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
    come from its two lowest orders by the upward recurrence
    (`_jtilde_upward`) on |w| >= floor(alpha), |w| > 0, and on the integer
    lattice only below |w| = sqrt(max float) too.  Everywhere else, and at
    every order off the lattice, it is 0F1(; alpha+1; -w^2/4) / Gamma(alpha+1)
    from scipy's hyp0f1: at order 2 that is off by up to 1.4e-14 of the
    envelope sqrt(2/(pi w)) (w/2)^{-alpha} on 1 <= w <= 150, the recurrence
    by 2.7e-15.
    """
    _check_order(alpha)
    w, scalar = _as_array(w)
    w = np.abs(w)
    if alpha == -0.5:
        out = np.cos(w) / _SQRT_PI
    elif alpha % 0.5:
        out = _jtilde_series(alpha, w)
    else:
        seeded = (w >= math.floor(alpha)) & (w > 0.0)
        if alpha % 1.0 == 0.0:
            seeded &= w < _W_SQUARE_MAX
        if seeded.all():
            out = _jtilde_upward(alpha, w)
        else:
            out = np.empty_like(w)
            out[seeded] = _jtilde_upward(alpha, w[seeded])
            rest = ~seeded
            out[rest] = _jtilde_series(alpha, w[rest])
    return _maybe_scalar(out, scalar)


def jtilde_of_square(alpha, w2):
    """bessel_j_tilde as an entire function of the squared argument.

    Accepts complex w2, so callers never take a square root of a complex
    number themselves; the principal root used at alpha = -1/2 is
    immaterial because the function is even.
    """
    _check_order(alpha)
    w2 = np.asarray(w2, dtype=complex)
    if alpha == -0.5:
        return np.cos(np.sqrt(w2)) / math.sqrt(math.pi)
    return hyp0f1(alpha + 1.0, -0.25 * w2) * rgamma(alpha + 1.0)


def laguerre_series_sum(alpha, x, y, w, kmax):
    """sum_{k<=kmax} Gamma(k+1)/Gamma(k+alpha+1) L_k^a(x) L_k^a(y) w^k.

    For |w| near 1 the partial sums spiral slowly toward the limit; the tail
    is resummed by iterating S -> (S_{k+1} - w S_k)/(1 - w), which strips one
    order of the slowly-varying envelope per pass, over the last 48 partial
    sums.  The iteration depth is picked a posteriori by successive-difference
    minimization, so callers pay nothing when the plain sum has already
    settled.
    """
    w = complex(w)
    if abs(w) >= 1.0:
        raise ValueError("Laguerre series diverges for |w| >= 1")
    boost = abs(w) > 0.85
    if boost and abs(1.0 - w) < 0.04:
        raise ValueError("tail resummation needs w away from the point 1")
    g = np.exp(-gammaln(alpha + 1.0))
    lx_prev = ly_prev = 0.0
    lx = ly = 1.0
    wk = 1.0 + 0.0j
    total = g * wk
    tail = [total]
    settled = 0
    for k in range(1, int(kmax) + 1):
        # a scalar recurrence on purpose: run on _laguerre_degrees the
        # hille-hardy suite took 78-88 ms instead of 69, for identical errors
        lx_prev, lx = lx, ((2 * k - 1 + alpha - x) * lx - (k - 1 + alpha) * lx_prev) / k
        ly_prev, ly = ly, ((2 * k - 1 + alpha - y) * ly - (k - 1 + alpha) * ly_prev) / k
        g *= k / (k + alpha)
        wk *= w
        term = g * lx * ly * wk
        total += term
        if boost:
            tail.append(total)
            if len(tail) > 48:
                tail.pop(0)
        else:
            settled = settled + 1 if abs(term) <= 1e-17 * max(abs(total), 1e-300) else 0
            if settled >= 4:
                return total
    if not boost:
        return total
    seq = np.array(tail)
    best = seq[-1]
    best_gap = abs(seq[-1] - seq[-2])
    while seq.size >= 3:
        seq = (seq[1:] - w * seq[:-1]) / (1.0 - w)
        gap = abs(seq[-1] - seq[-2])
        if gap < best_gap:
            best, best_gap = seq[-1], gap
    return best


def hille_hardy(alpha, x, y, w, K=None):
    """Both sides of the Laguerre product generating identity.

    lhs: the truncated series (K terms; default chosen from |w|).
    rhs: (1-w)^{-(alpha+1)} exp(-w(x+y)/(1-w)) Jt_alpha(2 sqrt(-xyw)/(1-w)),
    principal powers throughout.  Returned as a pair; nothing is asserted.
    """
    if alpha <= -1.0:
        raise ValueError("order alpha must exceed -1")
    if x < 0 or y < 0:
        raise ValueError("x and y must be nonnegative")
    w = complex(w)
    if abs(w) >= 1.0:
        raise ValueError("the series diverges for |w| >= 1")
    if K is None:
        K = 600 if abs(w) <= 0.85 else 4000
    if K < 1:
        raise ValueError("need at least one term")
    lhs = laguerre_series_sum(alpha, x, y, w, K)
    one = 1.0 - w
    u2 = -4.0 * x * y * w / (one * one)
    rhs = one ** (-(alpha + 1.0)) * np.exp(-w * (x + y) / one) * jtilde_of_square(alpha, u2)
    return lhs, complex(rhs)
