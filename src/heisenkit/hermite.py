"""Hermite functions, the oscillator propagator kernel, and its decay gate.

The propagator e^{-isH} for H = -Laplacian + |x|^2 has the kernel

    e^{-ins} pi^{-n/2} (1-r^2)^{-n/2}
        exp(-((1+r^2)/(1-r^2))(|x|^2+|y|^2)/2 + (2r/(1-r^2)) x.y),

r = e^{-2is}.  The e^{-ins} factor is the ground-state phase; without it the
formula is the plain generating-function kernel (exposed separately, and the
r = 0 instance of that is the ground-state projector).  Since
Re(1 - e^{-4is}) = 1 - cos 4s >= 0, the principal branch of the complex
square root is the continuous-in-s choice on every caustic-free interval, so
no winding bookkeeping is needed.

Away from small |sin 2s| the kernel oscillates slowly and modest grids do;
close to it the phase gradient grows like L/|sin 2s| and the y-quadrature is
refined automatically to keep the oscillation resolved.

For real s the kernel factors as c e^{a x^2} e^{a y^2} e^{b x y} with
a = -(1+r^2)/(2(1-r^2)) and b = 2r/(1-r^2), so `hermite_evolve` is one
trapezoid quadrature for all columns of f at once: the Gaussian factors are
O(N + M) exponentials for N outputs and M fine nodes, and blocking the fine
nodes in runs of B = ceil(sqrt M) splits e^{b x y} into two tables of
O(N sqrt M) exponentials joined by one GEMM.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from .grids import RadialProfile
from .hankel import fit_gaussian_decay

_CAUSTIC_TOL = 1e-6
_REFINE_CAP = 1 << 21
# entries of one column group's fine samples and block sums: 64 MB complex
_COLUMN_BUDGET = 1 << 22


class CausticError(ValueError):
    """sin 2s is (numerically) zero: the kernel formula degenerates."""


@dataclass(frozen=True)
class MehlerParams:
    s: float
    n: int = 1

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 1:
            raise ValueError("dimension n must be a positive integer")
        if abs(math.sin(2.0 * self.s)) <= _CAUSTIC_TOL:
            raise CausticError(f"s = {self.s!r} is a caustic time (sin 2s = 0)")

    @property
    def r(self):
        return complex(np.exp(-2j * self.s))


def hermite_fn(k, x):
    """L^2-normalized Hermite function h_k on the line, by recurrence."""
    if int(k) != k or k < 0:
        raise ValueError("k must be a nonnegative integer")
    x = np.asarray(x, dtype=float)
    h_prev = np.zeros_like(x)
    h = np.pi ** -0.25 * np.exp(-0.5 * x * x)
    for m in range(int(k)):
        h_prev, h = h, x * math.sqrt(2.0 / (m + 1)) * h - math.sqrt(m / (m + 1.0)) * h_prev
    return h


def mehler_kernel_r(r_factor, x, y, n=1):
    """Generating-function kernel sum_k r^k (h-products) at parameter r.

    No propagator phase; r = 0 collapses it to the ground-state projector.
    x, y are bare reals for n = 1 and (..., n) arrays otherwise.
    """
    r = complex(r_factor)
    one = 1.0 - r * r
    if abs(one) <= _CAUSTIC_TOL:
        raise CausticError("kernel parameter has r^2 = 1")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if n == 1:
        x2, y2, xy = x * x, y * y, x * y
    else:
        x2, y2, xy = (x * x).sum(-1), (y * y).sum(-1), (x * y).sum(-1)
    return (np.pi ** (-0.5 * n) * one ** (-0.5 * n)
            * np.exp(-0.5 * ((1 + r * r) / one) * (x2 + y2) + (2.0 * r / one) * xy))


def mehler_kernel(params, x, y):
    """Propagator kernel of e^{-isH} at time params.s (phase included)."""
    return np.exp(-1j * params.n * params.s) \
        * mehler_kernel_r(params.r, x, y, params.n)


def hermite_grid(L=8.0, nodes=512):
    """The default uniform evolution grid on [-L, L]."""
    if L <= 0 or nodes < 16:
        raise ValueError("need L > 0 and a nontrivial node count")
    return np.linspace(-L, L, nodes)


def _fine_grid(s, nodes, L):
    """Trapezoid nodes on [-L, L] that resolve the kernel's phase at time s."""
    grad = L * (abs(math.cos(2 * s) / math.sin(2 * s)) + 1.0 / abs(math.sin(2 * s)))
    n_fine = max(nodes, int(np.ceil(2.0 * L * 2.0 * grad / np.pi)) + 1)
    if n_fine > _REFINE_CAP:
        raise CausticError("so close to a caustic that the quadrature "
                           f"refinement ({n_fine} nodes) exceeds the budget")
    # the exact step: the blocked phases below multiply it by up to n_fine
    return np.linspace(-L, L, n_fine, retstep=True)


def _evolve_columns(sample, cols, s, x, L):
    """u = e^{-isH} f on the grid x for each of the cols columns of f.

    sample(y, c) gives the columns c (a slice) of f at the fine nodes y in
    [-L, L] as a (len(y), width) array.  For real s the kernel factors as
    c e^{a x^2} e^{a y^2} e^{b x y}, and with y_k = -L + (qB + m) dy the last
    factor splits into e^{b x (-L + qB dy)} e^{b x m dy}: the y-sum is one
    (N x B)(B x nb cols) GEMM and a weighted sum over the nb blocks, so
    B = ceil(sqrt M) for M fine nodes takes O(N sqrt M) exponentials instead
    of N M.  Columns go through in groups that keep the samples and the
    block sums within _COLUMN_BUDGET entries.  Returns the (N, cols) result
    and whether some column has not decayed at +-L.
    """
    yf, dy = _fine_grid(s, x.size, L)
    n_fine = yf.size
    r = complex(np.exp(-2j * s))
    one = 1.0 - r * r
    a = -0.5 * (1 + r * r) / one
    b = 2.0 * r / one
    w = np.full(n_fine, dy)
    w[0] = w[-1] = 0.5 * dy
    w = w * np.exp(a * yf * yf)
    B = math.isqrt(n_fine - 1) + 1          # ceil(sqrt(n_fine))
    nb = -(-n_fine // B)
    inner = np.exp(b * x[:, None] * (dy * np.arange(B)))
    outer = np.exp(b * x[:, None] * (-L + (B * dy) * np.arange(nb)))

    out = np.empty((x.size, cols), dtype=complex)
    truncated = False
    width = max(1, _COLUMN_BUDGET // (nb * (B + x.size)))
    for lo in range(0, cols, width):
        c = slice(lo, min(lo + width, cols))
        fy = np.asarray(sample(yf, c), dtype=complex)
        if not np.all(np.isfinite(fy)):
            raise ValueError("f has non-finite samples on the quadrature grid")
        peak = np.abs(fy).max(axis=0)
        edge = np.maximum(np.abs(fy[0]), np.abs(fy[-1]))
        truncated |= bool(np.any((peak > 0) & (edge > 1e-10 * peak)))
        g = np.zeros((nb * B, fy.shape[1]), dtype=complex)
        g[:n_fine] = fy * w[:, None]
        g = g.reshape(nb, B, -1).transpose(1, 0, 2).reshape(B, -1)
        blocks = (inner @ g).reshape(x.size, nb, -1)
        out[:, c] = np.einsum("jq,jqc->jc", outer, blocks)
    scale = np.exp(-1j * s) * np.pi ** -0.5 * one ** -0.5 * np.exp(a * x * x)
    return scale[:, None] * out, truncated


def hermite_evolve(f, s, x=None, L=8.0, nodes=512):
    """Apply e^{-isH} by quadrature against the factored Mehler kernel.

    f is a callable on the grid or an array of samples over x (1-d) or
    x cross x (2-d, evolved separably: every column along axis 0, then
    every row along axis 1).  Sampled input goes through one cubic spline
    per axis for all columns.  Returns samples on the same grid.  Raises
    ValueError for non-finite s, x or samples of f, and for a grid of fewer
    than 2 nodes.
    """
    if not math.isfinite(s):
        raise ValueError(f"time s must be finite, got {s!r}")
    if abs(math.sin(2.0 * s)) <= _CAUSTIC_TOL:
        raise CausticError(f"s = {s!r} is a caustic time (sin 2s = 0)")
    if x is None:
        x = hermite_grid(L, nodes)
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 2 or not np.all(np.isfinite(x)):
        raise ValueError("x must be a 1-d grid of at least 2 finite nodes")
    span = float(np.max(np.abs(x)))
    if callable(f):
        if np.shape(f(x)) != x.shape:
            raise ValueError("callable f must map the grid to samples of the same shape")
        u, truncated = _evolve_columns(lambda y, c: np.asarray(f(y))[:, None], 1,
                                       s, x, max(L, span))
        u = u[:, 0]
    else:
        # sampled input is only known on the span of x, so the quadrature
        # window cannot extend past it; the truncation warning fires if f is
        # still large there
        f = np.asarray(f, dtype=complex)

        def splined(F):
            return lambda y, c: CubicSpline(x, F[:, c])(y)

        if f.shape == x.shape:
            u, truncated = _evolve_columns(splined(f[:, None]), 1, s, x, span)
            u = u[:, 0]
        elif f.shape == (x.size, x.size):
            half, t0 = _evolve_columns(splined(f), x.size, s, x, span)
            u, t1 = _evolve_columns(splined(half.T), x.size, s, x, span)
            u, truncated = u.T, t0 or t1
        else:
            raise ValueError("samples must live on the grid (1-d) or its square (2-d)")
    if truncated:
        warnings.warn("f has not decayed at the grid boundary; the evolution "
                      "integral is truncated", RuntimeWarning, stacklevel=2)
    return u


def hermite_gate(a, b, s0):
    """margin = a b sin^2(2 s0) - 1/4; the flow vanishes when it is positive."""
    if a <= 0 or b <= 0:
        raise ValueError("decay rates must be positive")
    margin = a * b * math.sin(2.0 * s0) ** 2 - 0.25
    return margin, margin > 0


def gate_boundary_profile(a, s0, L=8.0, nodes=512, window=(0.5, 3.0)):
    """Decay rate of the evolved extremal and its gate product.

    The initial datum is the chirped Gaussian e^{-a x^2 - i (cot 2s0 / 2) x^2}
    whose image under e^{-is0 H} is again a Gaussian of rate 1/(4 a sin^2 2s0),
    so the returned product a * b_fit * sin^2(2 s0) sits on the boundary 1/4.
    """
    if a <= 0:
        raise ValueError("a must be positive")
    chirp = 0.5 / math.tan(2.0 * s0)
    x = hermite_grid(L, nodes)
    u = hermite_evolve(lambda y: np.exp(-(a + 1j * chirp) * y * y), s0, x)
    pos = x > 0
    fit = fit_gaussian_decay(RadialProfile(x[pos], np.abs(u[pos])), window)
    return fit.a, a * fit.a * math.sin(2.0 * s0) ** 2
