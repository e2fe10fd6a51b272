"""Hankel transform of order alpha, Gaussian-decay fitting, and the Hardy
decay gate.

The transform is H_alpha F(s) = int_0^inf F(r) J_alpha(rs)/(rs)^alpha
r^{2 alpha + 1} dr, evaluated by direct summation over a composite
Gauss-Legendre rule whose panels resolve the oscillation of J_alpha(r s_max).
The kernel is written through the normalized Bessel function, so s = 0 and
negative arguments need no special casing.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._checks import finite_array, integer, on_nodes, order, positive, real, shapes, vector
from .grids import RadialProfile
from .quadrature import gauss_panels, warn_truncated
from .specfun import bessel_j_tilde


class DegenerateFitError(ValueError):
    """Decay fit had too few usable nodes or produced a nonpositive rate."""


@dataclass(frozen=True)
class HankelPlan:
    alpha: float
    r_nodes: np.ndarray
    r_weights: np.ndarray

    def __post_init__(self):
        order("Hankel order alpha", self.alpha, -0.5)
        r = vector("r_nodes", self.r_nodes, nonnegative=True, increasing=True)
        w = finite_array("r_weights", self.r_weights, nonnegative=True)
        shapes(("r_weights", "r_nodes"), w, r)
        object.__setattr__(self, "r_nodes", r)
        object.__setattr__(self, "r_weights", w)


def hankel_plan(alpha, r_max=8.0, s_max=10.0):
    """Plan with panel width at most a half-period of J_alpha(r s_max)."""
    positive("r_max", r_max)
    real("s_max", s_max)
    panels = max(8, int(np.ceil(r_max * max(s_max, 1.0) / np.pi)))
    nodes, weights = gauss_panels(0.0, r_max, panels)
    return HankelPlan(alpha, nodes, weights)


def hankel_transform(plan, F, s_grid):
    """Transform a profile sampled on the plan's nodes; F may be complex.

    Returns a RadialProfile on s_grid.  A truncation warning fires when the
    integrand's envelope |F| r^{2 alpha + 1} has not decayed at r_max.
    """
    vals = finite_array("values of F", F.values if isinstance(F, RadialProfile) else F)
    r = plan.r_nodes
    shapes(("values of F", "the plan's nodes"), vals, r)
    if isinstance(F, RadialProfile):
        on_nodes("radii of F", F.r, r, "the plan's")
    alpha = plan.alpha
    power = r ** (2 * alpha + 1)
    # |Jt_a| peaks at 0, so |F| r^{2 alpha + 1} bounds the integrand at every s
    envelope = np.abs(vals) * power
    warn_truncated("profile has not decayed at r_max; transform is truncated",
                   float(envelope[-1]), float(np.max(envelope)), 1e-12)
    s = vector("s_grid", s_grid, nonnegative=True, increasing=True)
    # J_a(rs)/(rs)^a = 2^{-a} Jt_a(rs); Jt handles s = 0 and s < 0 (even)
    kernel = 2.0 ** (-alpha) * bessel_j_tilde(alpha, np.outer(r, s))
    weight = plan.r_weights * power * vals
    return RadialProfile(s, weight @ kernel)


@dataclass(frozen=True)
class DecayFit:
    C: float
    a: float
    residual: float
    window: tuple


def fit_gaussian_decay(F, window=None):
    """Least-squares fit of log|F| against (1, r^2) over a radial window.

    Returns DecayFit with amplitude C, rate a (|F| ~ C e^{-a r^2}) and the
    rms log-domain residual.  Default window: outer third of the grid.
    """
    r = np.asarray(F.r, dtype=float)
    vals = np.abs(np.asarray(F.values))
    if window is None:
        window = (r[0] + 2.0 * (r[-1] - r[0]) / 3.0, r[-1])
    window = vector("window", window, increasing=True)
    integer("length of window", window.size, allowed=(2,))
    lo, hi = window
    mask = (r >= lo) & (r <= hi) & (vals > 0) & np.isfinite(vals)
    if int(mask.sum()) < 8:
        raise DegenerateFitError("fewer than 8 usable nodes in the fit window")
    x = r[mask] ** 2
    y = np.log(vals[mask])
    design = np.stack([np.ones_like(x), x], axis=1)
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    intercept, slope = coef
    a = -slope
    if a <= 0:
        raise DegenerateFitError(f"fitted rate is nonpositive ({a:.3g})")
    residual = float(np.sqrt(np.mean((design @ coef - y) ** 2)))
    return DecayFit(C=float(np.exp(intercept)), a=float(a),
                    residual=residual, window=(float(lo), float(hi)))


_HARDY_TOL = 1e-9


def _log4p(rates, over=()):
    """log 4P for P = prod(rates) / prod(over), a sum of logs so that no product
    overflows; -inf at a zero rate."""
    if 0 in rates:
        return -math.inf
    return math.log(4.0) + sum(map(math.log, rates)) - sum(map(math.log, over))


def _verdict(rates, over=()):
    """Hardy's test of P = prod(rates) / prod(over) against 1/4: 'critical' where
    |log 4P| <= 4e-9 (P = 1/4 within 1e-9); the rule of every gate."""
    log4p = _log4p(rates, over)
    if abs(log4p) <= 4.0 * _HARDY_TOL:
        return "critical"
    return "supercritical" if log4p > 0 else "subcritical"


def _margin(margin, rates, over=()):
    """A gate's margin P - 1/4 as its own formula gave it where that is finite,
    else from the log sum of P (the formula left double range), inf where P does."""
    if math.isfinite(margin):
        return margin
    try:
        return math.exp(_log4p(rates, over) - math.log(4.0)) - 0.25
    except OverflowError:
        return math.inf


def hardy_gate(a, b):
    """Classify a Gaussian decay pair: 'supercritical' (ab > 1/4, only the
    zero profile is admissible), 'critical' (ab = 1/4 within 1e-9), else
    'subcritical'."""
    positive("decay rate a", a)
    positive("decay rate b", b)
    return _verdict((a, b))
