"""Hermite functions, the oscillator propagator kernel, and its decay gate.

The propagator e^{-isH} for H = -Laplacian + |x|^2 has the kernel

    e^{-ins} pi^{-n/2} (1-r^2)^{-n/2}
        exp(-((1+r^2)/(1-r^2))(|x|^2+|y|^2)/2 + (2r/(1-r^2)) x.y),

r = e^{-2is}.  The e^{-ins} factor is the ground-state phase; without it the
formula is the plain generating-function kernel.  Since
Re(1 - e^{-4is}) = 1 - cos 4s >= 0, the principal branch of the complex
square root is the continuous-in-s choice on every caustic-free interval, so
no winding bookkeeping is needed.

Away from small |sin 2s| the kernel oscillates slowly and modest grids do;
close to it the phase gradient grows like L/|sin 2s| and the y-quadrature is
refined automatically to keep the oscillation resolved.

For real s the kernel factors as c e^{a x^2} e^{a y^2} e^{b x y} with
a = -(1+r^2)/(2(1-r^2)) = i cot(2s)/2 and b = 2r/(1-r^2) = -i/sin(2s), taken
in that closed form (`_mehler_form`): purely imaginary, so that the kernel
keeps its constant modulus at any |x|.  `hermite_evolve` is one
trapezoid quadrature for all columns of f at once: the Gaussian factors are
O(N + M) exponentials for N outputs and M fine nodes, and blocking the fine
nodes in runs of B = ceil(sqrt M) splits e^{b x y} into two tables of
N sqrt M phases joined by one GEMM, each built as a product of two tables
of N M^{1/4} exponentials.  That pass is linear in f, so
2-d samples evolve by one matrix: E, the pass applied to the interpolating
spline of the identity, gives u = E f E^T.  The spline has degree 9 and
converges like h^10 in the grid step h.
"""

import math

import numpy as np

from ._checks import finite_array, integer, positive, real, shapes, vector
from .grids import RadialProfile
from .hankel import _margin, _verdict, fit_gaussian_decay
from .quadrature import warn_truncated

_CAUSTIC_TOL = 1e-6
# degree of the interpolating spline through sampled input
_SPLINE_DEGREE = 9
_REFINE_CAP = 1 << 21
# entries of one column group's fine samples and block sums: 64 MB complex
_COLUMN_BUDGET = 1 << 22


class CausticError(ValueError):
    """sin 2s is (numerically) zero: the kernel formula degenerates."""


def _propagator_time(s, n=1):
    """Check the time s and dimension n of the propagator e^{-isH}: a real
    s off the caustics, where CausticError is raised."""
    integer("dimension n", n)
    real("time s", s)
    if abs(math.sin(2.0 * s)) <= _CAUSTIC_TOL:
        raise CausticError(f"s = {s!r} is a caustic time (sin 2s = 0)")


def hermite_fn(k, x):
    """L^2-normalized Hermite function h_k on the line, by recurrence."""
    integer("degree k", k, 0)
    x = np.asarray(x, dtype=float)
    h_prev = np.zeros_like(x)
    h = np.pi ** -0.25 * np.exp(-0.5 * x * x)
    for m in range(int(k)):
        h_prev, h = h, x * math.sqrt(2.0 / (m + 1)) * h - math.sqrt(m / (m + 1.0)) * h_prev
    return h


def _mehler_form(s, n):
    """(amp, a, b) of the propagator kernel amp e^{a (|x|^2 + |y|^2) + b x.y}
    at real time s, phase e^{-ins} included in amp.  a = i cot(2s)/2 and
    b = -i/sin(2s) are written in closed form: derived from r = e^{-2is} they
    carry a round-off real part, which e^{a |x|^2} turns into a wrong
    modulus at large |x|."""
    r = np.exp(-2j * s)
    amp = np.exp(-1j * n * s) * np.pi ** (-0.5 * n) * (1.0 - r * r) ** (-0.5 * n)
    return amp, 0.5j / math.tan(2.0 * s), -1j / math.sin(2.0 * s)


def mehler_kernel(s, x, y, n=1):
    """Propagator kernel of e^{-isH} in dimension n at a real time s off the
    caustics, phase included, of constant modulus |1 - e^{-4is}|^{-n/2} pi^{-n/2}.
    x, y are bare reals for n = 1 and (..., n) arrays otherwise."""
    _propagator_time(s, n)
    amp, a, b = _mehler_form(s, n)
    x, y = shapes(("x", "y"), finite_array("x", x), finite_array("y", y), broadcast=True)
    # past 1.3e154 the value is not finite (callers check), and numpy keeps quiet
    with np.errstate(over="ignore", invalid="ignore"):
        if n == 1:
            x2, y2, xy = x * x, y * y, x * y
        else:
            x2, y2, xy = (x * x).sum(-1), (y * y).sum(-1), (x * y).sum(-1)
        return amp * np.exp(a * (x2 + y2) + b * xy)


_HALF_WIDTH = 8.0       # of the default grid and of a callable's least window


def hermite_grid(L=_HALF_WIDTH, nodes=512):
    """The default uniform evolution grid on [-L, L]."""
    positive("half-width L", L)
    integer("nodes", nodes, 16)
    return np.linspace(-L, L, nodes)


def _fine_grid(s, nodes, lo, hi):
    """Trapezoid nodes on [lo, hi] that resolve the kernel's phase at time s
    for outputs |x| <= max(|lo|, |hi|)."""
    grad = max(-lo, hi) * (abs(math.cos(2 * s) / math.sin(2 * s)) + 1.0 / abs(math.sin(2 * s)))
    n_fine = max(nodes, int(np.ceil((hi - lo) * 2.0 * grad / np.pi)) + 1)
    if n_fine > _REFINE_CAP:
        raise CausticError("so close to a caustic that the quadrature "
                           f"refinement ({n_fine} nodes) exceeds the budget")
    # the exact step: the blocked phases below multiply it by up to n_fine
    return np.linspace(lo, hi, n_fine, retstep=True)


def _edge_ratio(F):
    """The largest ratio of a column's size at its first or last row to its
    peak."""
    peak = np.abs(F).max(axis=0)
    edge = np.maximum(np.abs(F[0]), np.abs(F[-1]))
    return float(np.max(edge / np.where(peak > 0, peak, np.inf)))


def _phases(bx, start, step, count):
    """The (N, count) table e^{bx (start + step m)}, m < count, as the product
    of e^{bx (start + step C p)} and e^{bx step q} over m = C p + q with
    C = ceil(sqrt count): 2 N sqrt(count) exponentials in place of N count."""
    C = math.isqrt(count - 1) + 1
    fine = np.exp(bx[:, None] * (step * np.arange(C)))
    coarse = np.exp(bx[:, None] * (start + (step * C) * np.arange(-(-count // C))))
    return (coarse[:, :, None] * fine[:, None, :]).reshape(bx.size, -1)[:, :count]


def _evolve_columns(sample, cols, s, x, lo, hi):
    """u = e^{-isH} f on the grid x for each of the cols columns of f.

    sample(y, c) gives the columns c (a slice) of f at the fine nodes y in
    [lo, hi] as a (len(y), width) array; the grid x lies in
    [-max(|lo|, |hi|), max(|lo|, |hi|)].  For real s the kernel factors as
    c e^{a x^2} e^{a y^2} e^{b x y}, and with y_k = lo + (qB + m) dy the last
    factor splits into e^{b x (lo + qB dy)} e^{b x m dy}: the y-sum is one
    (N x B)(B x nb cols) GEMM and a weighted sum over the nb blocks (one
    batched matmul), so B = ceil(sqrt M) for M fine nodes takes two
    phase tables of N sqrt M entries instead of N M.  `_phases` builds each
    as a product of two shorter ones, so the count of complex exponentials
    is about 4 N M^{1/4}.  Columns go through in groups
    that keep the samples and the block sums within _COLUMN_BUDGET entries;
    real samples stay real up to the quadrature weights.  Returns the
    (N, cols) result and the largest ratio of a column's size at lo or hi
    to its peak.
    """
    yf, dy = _fine_grid(s, x.size, lo, hi)
    n_fine = yf.size
    amp, a, b = _mehler_form(s, 1)
    w = np.full(n_fine, dy)
    w[0] = w[-1] = 0.5 * dy
    w = w * np.exp(a * yf * yf)
    B = math.isqrt(n_fine - 1) + 1          # ceil(sqrt(n_fine))
    nb = -(-n_fine // B)
    bx = b * x
    inner = _phases(bx, 0.0, dy, B)
    outer = _phases(bx, lo, B * dy, nb)

    out = np.empty((x.size, cols), dtype=complex)
    worst = 0.0
    width = max(1, _COLUMN_BUDGET // (nb * (B + x.size)))
    for lo in range(0, cols, width):
        c = slice(lo, min(lo + width, cols))
        fy = finite_array("samples of f on the quadrature grid", sample(yf, c))
        worst = max(worst, _edge_ratio(fy))
        g = np.zeros((nb * B, fy.shape[1]), dtype=complex)
        g[:n_fine] = fy * w[:, None]
        g = g.reshape(nb, B, -1).transpose(1, 0, 2).reshape(B, -1)
        blocks = (inner @ g).reshape(x.size, nb, -1)
        out[:, c] = np.matmul(outer[:, None, :], blocks)[:, 0]
    return (amp * np.exp(a * x * x))[:, None] * out, worst


def hermite_evolve(f, s, x=None):
    """Apply e^{-isH} by quadrature against the factored Mehler kernel.

    f is a callable on the grid or an array of samples over x (1-d) or
    x cross x (2-d); x defaults to `hermite_grid()`.  A callable is
    integrated over [-m, m] with m = max(8, max|x|).  Sampled input is
    integrated over [min x, max x], where its interpolating spline of
    degree 9 (of degree nodes - 1 on fewer than 10 nodes) holds: a 1-d f
    through its own spline, a 2-d f separably, every column along axis 0
    and then every row along axis 1, as u = E f E^T.  The evolution
    matrix E = K P of the grid, the quadrature K on the fine nodes times
    the spline's interpolation matrix P there, is built once by evolving
    the spline of the identity, so a 2-d f costs one quadrature pass of
    real data and two GEMMs.  The truncation warning reads the edge/peak
    ratio of each column of f, and for a 2-d f of each half-evolved row of
    E f too.  Returns samples on the same grid.
    """
    _propagator_time(s)
    x = hermite_grid() if x is None else vector("grid x", x)
    integer("number of nodes of x", x.size, 2)
    if callable(f):
        shapes(("samples f(x)", "grid x"), f(x), x)
        span = max(_HALF_WIDTH, float(np.max(np.abs(x))))
        u, worst = _evolve_columns(lambda y, c: np.asarray(f(y))[:, None], 1,
                                   s, x, -span, span)
        u = u[:, 0]
    else:
        # sampled input is only known on [min x, max x], so the quadrature
        # window cannot extend past it; the truncation warning fires if f is
        # still large there
        lo, hi = float(np.min(x)), float(np.max(x))
        f = finite_array("samples of f", np.asarray(f, dtype=complex))
        # scipy.interpolate loads on first use (see quadrature.adaptive_quad)
        from scipy.interpolate import make_interp_spline

        degree = min(_SPLINE_DEGREE, x.size - 1)
        def splined(F):
            return lambda y, c: make_interp_spline(x, F[:, c], k=degree)(y)

        if f.shape == x.shape:
            u, worst = _evolve_columns(splined(f[:, None]), 1, s, x, lo, hi)
            u = u[:, 0]
        elif f.shape == (x.size, x.size):
            # the column pass is linear in f: it is E = K P, for the spline's
            # interpolation matrix P on the fine nodes and the quadrature K
            # there, and evolving the spline of the identity builds it
            E, _ = _evolve_columns(splined(np.eye(x.size)), x.size, s, x, lo, hi)
            half = E @ f
            u, worst = half @ E.T, max(_edge_ratio(f), _edge_ratio(half.T))
        else:
            raise ValueError("samples of f must live on the grid x (1-d) or its square (2-d)")
    warn_truncated("f has not decayed at the grid boundary; the evolution integral is truncated",
                   worst, 1.0, 1e-10)
    return u


def hermite_gate(a, b, s0):
    """margin = a b sin^2(2 s0) - 1/4 (from the Hardy rule's log sum where that formula
    leaves double range); the flow vanishes where the Hardy rule says supercritical."""
    positive("decay rate a", a)
    positive("decay rate b", b)
    real("s0", s0)
    # past 9e307, 2 s0 overflows: take sin 2s0 = 2 sin s0 cos s0 there only
    sine = math.sin(2.0 * s0) if math.isfinite(2.0 * s0) else 2.0 * math.sin(s0) * math.cos(s0)
    rates = (a, b, abs(sine), abs(sine))
    return _margin(a * b * sine ** 2 - 0.25, rates), _verdict(rates) == "supercritical"


def gate_boundary_profile(a, s0):
    """Decay rate of the evolved extremal and its gate product.

    The initial datum is the chirped Gaussian e^{-a x^2 - i (cot 2s0 / 2) x^2}
    whose image under e^{-is0 H} is again a Gaussian of rate 1/(4 a sin^2 2s0),
    so the returned product a * b_fit * sin^2(2 s0) sits on the boundary 1/4.
    The rate is fitted over 0.5 <= x <= 3 on the default grid.
    """
    positive("a", a)
    real("s0", s0)
    chirp = 0.5 / math.tan(2.0 * s0)
    x = hermite_grid()
    u = hermite_evolve(lambda y: np.exp(-(a + 1j * chirp) * y * y), s0, x)
    pos = x > 0
    fit = fit_gaussian_decay(RadialProfile(x[pos], np.abs(u[pos])), (0.5, 3.0))
    return fit.a, a * fit.a * math.sin(2.0 * s0) ** 2
