"""Shared quadrature helpers: panel Gauss-Legendre rules, the one trapezoid
rule behind every central-frequency integral and the cutoff solver that
ends it, trapezoid weights, a budgeted wrapper around scipy's adaptive
integrator, and the truncation warning of every truncated integral."""

import math
import os
import sys
import warnings
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from ._checks import finite, integer, real, vector


class QuadratureError(RuntimeError):
    """Adaptive refinement exhausted its budget without converging."""


# subdivisions of an adaptive integral
_QUAD_LIMIT = 400


def adaptive_quad(f, a, b, epsabs=1e-12, epsrel=1e-11, sin_freq=None):
    """Integrate a scalar (possibly complex) function, raising QuadratureError
    instead of letting QUADPACK warnings pass silently.

    With sin_freq = w the integral is that of f(x) sin(w x), on QUADPACK's
    sine weight (QAWO), which takes the oscillation out of the integrand.

    scipy.integrate is imported here, on first use: it pulls in
    scipy.linalg, scipy.sparse and scipy.optimize, which no engine needs.
    """
    from scipy import integrate

    real("a", a)
    real("b", b)
    finite("epsabs", epsabs, nonnegative=True)
    finite("epsrel", epsrel, nonnegative=True)
    if sin_freq is not None:
        real("sin_freq", sin_freq)
    weight = {} if sin_freq is None else {"weight": "sin", "wvar": sin_freq}
    with warnings.catch_warnings():
        warnings.simplefilter("error", category=integrate.IntegrationWarning)
        try:
            value, _ = integrate.quad(f, a, b, epsabs=epsabs, epsrel=epsrel,
                                      limit=_QUAD_LIMIT, complex_func=True, **weight)
        except integrate.IntegrationWarning as exc:
            raise QuadratureError(f"adaptive quadrature did not settle: {exc}") from None
    return value


@lru_cache(maxsize=32)
def _gauss_rule(order):
    x, w = leggauss(order)
    return x, w


def gauss_panels(a, b, panels, order=16):
    """Composite Gauss-Legendre nodes/weights on [a, b] with `panels` panels."""
    real("interval end a", a)
    real("interval end b", b)
    integer("panels", panels)
    x, w = _gauss_rule(order)
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * x).ravel()
    weights = (half[:, None] * np.broadcast_to(w, (panels, order))).ravel()
    return nodes, weights


def gauss_interval(a, b, order):
    """Single-panel Gauss-Legendre rule on [a, b]."""
    return gauss_panels(a, b, 1, order)


# nodes x points of one gathered block: 1 MB per complex temporary, small
# enough for the gathered rows to stay in cache (2^21 ran 2-3x slower)
_GRID_BLOCK = 1 << 16
# unique values x nodes of one chunk of the factor tables: ~32 MB complex
_TABLE_BLOCK = 1 << 21


def _gathered_sum(a, b, ia, ib):
    """out[p] = sum_j a[ia[p], j] b[ib[p], j], in blocks of points.

    Each point's sum runs along one contiguous row, so the result does not
    depend on where the blocks are cut.
    """
    a = a.astype(np.result_type(a, b), copy=False)
    out = np.empty(ia.size, dtype=a.dtype)
    block = max(1, _GRID_BLOCK // a.shape[1])
    for lo in range(0, ia.size, block):
        hi = min(lo + block, ia.size)
        rows = a[ia[lo:hi]]
        rows *= b[ib[lo:hi]]
        out[lo:hi] = rows.sum(axis=1)
    return out


def _product_table(a, b):
    """a @ b.T, with real GEMMs on the parts of a complex factor when the
    other factor is real (a complex product would do twice the work)."""
    if np.iscomplexobj(a) == np.iscomplexobj(b):
        return a @ b.T
    if np.iscomplexobj(b):
        return _product_table(b, a).T
    out = np.empty((a.shape[0], b.shape[0]), dtype=a.dtype)
    out.real = a.real @ b.T
    out.imag = a.imag @ b.T
    return out


def envelope_cutoff(log_envelope, log_floor, start):
    """Cutoff L >= start past which an integrand's envelope stays below a
    floor, found to within 1% above the crossing.

    Both are given as logarithms, so that no envelope overflows.  The
    bracket doubles from start until log_envelope(L) <= log_floor at its
    top and is then bisected (geometrically) until its ends are 1% apart;
    the top is returned.  The envelope must decrease on [start, inf), and
    start itself is returned when it already lies below the floor.  No
    crossing below 1e7 raises QuadratureError.
    """
    lo = hi = float(start)
    while hi <= 1e7 and log_envelope(hi) > log_floor:
        lo, hi = hi, 2.0 * hi
    if hi > 1e7:
        raise QuadratureError("no usable frequency cutoff below 1e7")
    while hi > 1.01 * lo:
        # for brackets below ~1e-154 the product leaves the normal range and
        # loses digits (all of them below ~1e-162): take the roots apart
        mid = lo * hi
        mid = math.sqrt(mid) if mid >= sys.float_info.min else math.sqrt(lo) * math.sqrt(hi)
        if log_envelope(mid) > log_floor:
            lo = mid
        else:
            hi = mid
    return hi


_EPS = float(np.finfo(float).eps)
# nodes of the finer trapezoid rule: a longer rule raises before it is built
_MAX_NODES = 1 << 22


def _contract(x, w, factors, p, ir, ic, product, cuts):
    """Sums of w_j row(x_j) col(x_j) over the runs of nodes x[cuts[q]:cuts[q + 1]],
    each returned as a (p, columns) table on a product grid and per point
    otherwise, and the sum over every node of the terms' largest size,
    sum_j |w_j| max|row(x_j)| max|col(x_j)|, from which the round-off of
    the sums is bounded.

    factors(x, p) returns the tables of the first p unique rows and of every
    unique column at the nodes x, shape (values, nodes); it is called once
    per chunk of nodes, whose tables fit in _TABLE_BLOCK entries.  A
    product grid contracts a chunk by row @ (col w).T, scattered points by
    a gathered sum per point (`_gathered_sum`).
    """
    chunk = max(1, _TABLE_BLOCK // (p + int(ic.max()) + 1))
    sums, terms = [0] * (len(cuts) - 1), 0.0
    for lo in range(0, x.size, chunk):
        hi = min(lo + chunk, x.size)
        r, c = factors(x[lo:hi], p)
        c = c * w[lo:hi]
        terms += float(np.max(np.abs(r), axis=0) @ np.max(np.abs(c), axis=0))
        for q in range(len(sums)):
            a, b = max(cuts[q], lo) - lo, min(cuts[q + 1], hi) - lo
            if a < b:
                sums[q] = sums[q] + (_product_table(r[:, a:b], c[:, a:b]) if product
                                     else _gathered_sum(r[:, a:b], c[:, a:b], ir, ic))
    return sums, terms


def _disagreement(fine, coarse, noise, rtol, where):
    """Why two rules do not agree, as the text of a QuadratureError, or None
    when they do.

    They agree when their largest gap is within rtol of the largest value of
    either, and that value lies above noise, the worst-case round-off of the
    sums, unless every term is exactly 0: below it, as in the far field of
    an oscillatory integral, two rules can read the same few ulps.  A NaN
    never agrees.  where names the finer rule in the text.
    """
    scale = float(max(np.max(np.abs(fine), initial=0.0), np.max(np.abs(coarse), initial=0.0)))
    gap = float(np.max(np.abs(fine - coarse), initial=0.0))
    if scale <= noise and noise != 0.0:
        return (f"at {where} the largest value {scale:.3g} lies within the round-off "
                f"of the sums ({noise:.3g})")
    if not gap <= rtol * scale:
        return f"at {where} the coarse/fine gap is {gap / scale / rtol:.3g} x rtol (rtol {rtol:g})"
    return None


# what a band of its own costs in calls, counted in (row, node) entries
_BAND_ENTRIES = 1 << 11


def _bands(last):
    """Node ranges [lo, hi] (both even, both included) and the prefix of rows
    p that each one contracts, for rows that run to the nodes last[i] (even,
    not increasing along the rows).

    The rows that have finished inside a band are still evaluated to its
    end.  A band is cut at the end of a row when, by the next end, the rows
    finished in it would have wasted _BAND_ENTRIES entries, what a new band
    costs (a rent-or-buy rule).
    """
    ends, counts = np.unique(last, return_counts=True)
    bands, lo, p, done, done_sum = [], 0, last.size, 0, 0
    for end, count, after in zip(ends[:-1].tolist(), counts[:-1].tolist(), ends[1:].tolist()):
        done, done_sum = done + count, done_sum + count * end
        if done * after - done_sum >= _BAND_ENTRIES:
            bands.append((lo, end, p))
            lo, p, done, done_sum = end, p - done, 0, 0
    bands.append((lo, int(ends[-1]), p))
    return bands


def even_trapezoid(step, cutoffs, factors, ir, ic, rtol, start=0.0, mapping=None):
    """Integrals over [0, inf) of integrands that factor as row(lam)
    col(lam), on the trapezoid rule in a variable u of the caller's choice.

    factors(lam, p) returns the tables of the first p unique rows, shape
    (p, nodes), and of every unique column at the nodes lam; ir and ic index
    the unique values (the inverse maps of np.unique), so each factor is
    evaluated once per node and unique value.  Point p gets
        sum_j w_j row(lam_j)[ir[p]] col(lam_j)[ic[p]].
    Unique row i is summed up to cutoffs[i] (in u), which must not increase
    along the rows: the caller puts each row's cutoff where its integrand
    has fallen below its floor.

    The nodes are u_j = start + j h/2, taken to lam_j = u_j, or through
    mapping(u) = (lam(u), lam'(u)) when one is given, with weights
    (h/2) lam'(u_j).  Without a map the rule runs from 0 and suits an even
    integrand, whose half-line rule is half the full-line one.  An integrand
    that is not even needs a map of the whole line onto the half line,
    under which it decays at both ends, and a start where it has fallen
    below its floor.

    The integrand is evaluated once at step h/2, and the rule of step h is
    read from the even nodes; both end at the same even node, past the
    cutoff, with half weights at both ends (h/4 in the finer rule, h/2 in
    the coarser), so that they integrate the same truncated integral.  For
    an integrand analytic in the strip |Im u| < d both converge like
    e^{-2 pi d / h}, so the caller sizes h from d.  The two rules must
    agree (`_disagreement`), or QuadratureError is raised.  So is it,
    before anything is built, when the finer rule would take more than
    _MAX_NODES nodes.

    On a product grid (no more points than the R x T pairs of their unique
    values) the nodes are split into bands, each a trapezoid rule of its
    own that contracts the prefix of rows still running there: its even
    nodes, then its odd ones, go through `_contract` into one (R, T) table,
    which is then read at the points.  Scattered points sum every row to the
    last cutoff.
    """
    if ir.size == 0:
        return np.zeros(0)
    cutoffs = np.asarray(cutoffs, dtype=float) - start
    nodes = 2.0 * float(np.max(cutoffs)) / step
    if not nodes <= _MAX_NODES:
        raise QuadratureError("the integrand varies too fast for a trapezoid rule: it "
                              f"would take {nodes:.3g} nodes")
    half = 0.5 * step
    # the even node j at or past each cutoff, start + j h/2 >= cutoff
    last = np.maximum(2 * np.ceil(cutoffs / step).astype(int), 2)
    n_rows, n_cols = last.size, int(ic.max()) + 1
    product = n_rows * n_cols <= ir.size
    bands = _bands(last) if product and last[-1] < last[0] else [(0, int(last[0]), n_rows)]
    even = odd = None
    terms = 0.0
    for lo, hi, p in bands:
        j = np.concatenate([np.arange(lo, hi + 1, 2), np.arange(lo + 1, hi, 2)])
        m = (hi - lo) // 2 + 1                      # even nodes in [lo, hi]
        x = start + j * half
        w = np.full(j.size, half)
        w[[0, m - 1]] *= 0.5
        if mapping is not None:
            x, slope = mapping(x)
            w *= slope
        (e, o), t = _contract(x, w, factors, p, ir, ic, product, (0, m, j.size))
        terms += t
        if even is None:
            even, odd = e, o
        else:                                       # later bands: product grids only
            even[:p] += e
            odd[:p] += o
    if product:
        even, odd = even[ir, ic], odd[ir, ic]
    fine, coarse = even + odd, 2.0 * even
    nodes = int(last[0]) + 1
    failure = _disagreement(fine, coarse, nodes * _EPS * terms, rtol, f"{nodes} nodes")
    if failure is not None:
        raise QuadratureError(f"trapezoid quadrature failed to converge: {failure}")
    return fine


_PACKAGE = os.path.dirname(__file__) + os.sep


def warn_truncated(what, edge, peak, rtol):
    """Warn (RuntimeWarning) that an integral is truncated when the size of
    its integrand at the edge of its domain exceeds rtol times its peak.

    what says which integral and why; the message appends
    "(edge/peak ~x)".  The warning names the first frame outside the
    package, however deep in it the integral sits: the rule of
    warnings.warn's skip_file_prefixes (Python 3.12), written out here.
    """
    if peak > 0 and edge > rtol * peak:
        frame = sys._getframe(1)
        while frame.f_back is not None and frame.f_code.co_filename.startswith(_PACKAGE):
            frame = frame.f_back
        caller = frame.f_globals
        # no module_globals: a __main__ run by `python -c` or stdin has no source to give
        warnings.warn_explicit(f"{what} (edge/peak ~{edge / peak:.1e})", RuntimeWarning,
                               frame.f_code.co_filename, frame.f_lineno,
                               caller.get("__name__", "<string>"),
                               caller.setdefault("__warningregistry__", {}))


def trapezoid_weights(t):
    t = vector("t nodes", t)
    integer("number of t nodes", t.size, 2)
    w = np.empty_like(t)
    w[1:-1] = 0.5 * (t[2:] - t[:-2])
    w[0] = 0.5 * (t[1] - t[0])
    w[-1] = 0.5 * (t[-1] - t[-2])
    return w
