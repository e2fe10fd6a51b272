"""Heat kernels on groups with an H-type center of dimension k <= 3, their
partial Radon collapse to the Heisenberg group, and the decay gate.

The kernel h_s(v, t) depends only on (|v|, |t|) and is computed from its
central-frequency integral.  Written through the normalized Bessel function
the integrand is smooth down to lam = 0 and |t| = 0:

    h_s = c(n, k) int_0^inf lam^{k-1} Jt_{k/2-1}(lam |t|)
              (lam / sinh(s lam))^n e^{-lam coth(s lam) |v|^2 / 4} dlam,

with c(n, k) = 2^{1-k/2} / (2^n (2 pi)^{n+k/2}).  At k = 1 this collapses to
the cosine inversion integral of the Heisenberg kernel with exactly matching
constants, which the tests check between the two pointwise oracles in `oracles.py`.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._checks import finite_array, integer, positive, shapes, vector
from .heisenberg import _central_integral
from .propagator import uniqueness_gate
from .quadrature import QuadratureError, _disagreement, gauss_panels, warn_truncated
from .specfun import bessel_j_tilde

# the center dimensions k of the groups here
_CENTERS = (1, 2, 3)


@dataclass(frozen=True)
class HTypePoint:
    v: tuple
    t: tuple

    def __post_init__(self):
        v, t = (vector(f"coordinates {name}", getattr(self, name)) for name in "vt")
        for name, x in zip("vt", (v, t)):
            if np.iscomplexobj(x):
                raise ValueError(f"coordinates {name} must be real, got {getattr(self, name)}")
        integer("half the length 2n of coordinates v", v.size / 2)
        integer("center dimension k of coordinates t", t.size, allowed=_CENTERS)
        object.__setattr__(self, "v", tuple(v.tolist()))
        object.__setattr__(self, "t", tuple(t.tolist()))

    @property
    def n(self):
        return len(self.v) // 2

    @property
    def k(self):
        return len(self.t)

    @property
    def v_norm(self):
        return math.hypot(*self.v)          # finite up to 1.8e308

    @property
    def t_norm(self):
        return math.hypot(*self.t)


def _constant(n, k):
    return 2.0 ** (1.0 - 0.5 * k) / (2.0 ** n * (2.0 * math.pi) ** (n + 0.5 * k))


def htype_heat_batch(s, n, k, vnorm, tnorm):
    """h_s over broadcastable (|v|, |t|) arrays on one shared rule.

    It is the Heisenberg engine's integral (`heisenberg._central_integral`)
    with Jt_{k/2-1}(lam |t|) in place of cos(lam t), ending where lam^{k-1}
    (lam / sinh(s lam))^n crosses 1e-16 of its peak s^{-(n+k-1)}.  Every
    k runs on the Heisenberg engine's trapezoid rule, which must agree with
    the rule of twice its step to 1e-8: in lam at k = 1 and 3, where the
    integrand is even in lam, and at k = 2 (lam Jt_0, odd) in the variable
    u of lam = (1/s) log(1 + e^{s u}), which maps the whole u line onto the
    half line.  This is the fast path behind `radon_heat_profile`.  Norms
    must be finite and nonnegative.
    """
    positive("diffusion time s", s)
    integer("dimension n", n)
    integer("center dimension k", k, allowed=_CENTERS)
    vnorm, tnorm = shapes(("vnorm", "tnorm"),
                          finite_array("norms |v| (vnorm)", vnorm, nonnegative=True),
                          finite_array("norms |t| (tnorm)", tnorm, nonnegative=True),
                          broadcast=True)
    return _constant(n, k) * _central_integral(
        s, n, k, vnorm, tnorm, lambda x: bessel_j_tilde(0.5 * k - 1.0, x), 1e-16, 1e-8)


def _perp_basis(eta):
    eta = vector("eta", eta)
    integer("center dimension k of eta", eta.size, allowed=_CENTERS)
    if abs(float(eta @ eta) - 1.0) > 1e-12:
        raise ValueError("eta must be a unit vector")
    k = eta.size
    if k == 1:
        return eta, np.zeros((1, 0))
    q, _ = np.linalg.qr(np.column_stack([eta, np.eye(k)]))
    if q[:, 0] @ eta < 0:
        q = -q
    return eta, q[:, 1:k]


# h_s decays like e^{-pi |t| / s}, set by the pole of the central-frequency
# integrand at lam = i pi / s, so it falls by 1e-16 within (16 ln 10 / pi) s
# of the farthest target
_NU_DECAY = 16.0 * math.log(10.0) / math.pi
# Gauss nodes in rho = |nu| per unit of a / s, set by h_s's analyticity in
# rho within ~s of the real line (at 3.6 the coarse rule missed rtol at k = 3)
_RHO_DENSITY = 4.2
# radii of the finer rule: past 1024, max|t| > 232 s, where h_s has fallen
# to e^{-729} of h_s(v, 0); the Gauss nodes cost O(n^3) (0.13 s at 1024)
_MAX_RADII = 1 << 10


def _radial_rules(a, s, k):
    """Gauss rules in rho on [0, a], of _RHO_DENSITY a / s nodes and of 2/3 as
    many, with weights |S^{k-2}| rho^{k-2} w (|S^0| = 2, |S^1| = 2 pi)."""
    nodes = _RHO_DENSITY * a / s
    if not nodes <= _MAX_RADII:
        raise QuadratureError(f"the nu window would take {nodes:.3g} Gauss radii")
    nodes = math.ceil(nodes)
    rules = [gauss_panels(0.0, a, 1, m) for m in (nodes, 2 * nodes // 3)]
    return [(rho, 2.0 * math.pi ** (k - 2) * w * rho ** (k - 2)) for rho, w in rules]


def _warn_window_truncated(vals, ring):
    """Warn when the (..., nodes) integrand is not small on the nodes `ring`
    of the outermost radius."""
    vals = np.abs(vals)
    warn_truncated("f has not decayed across the nu window; the Radon integral is truncated",
                   float(np.max(vals[..., ring])), float(np.max(vals)), 1e-10)


def partial_radon(f, eta, targets):
    """(R_eta f)(v, t) = int_{eta-perp} f(v, t eta + nu) dnu on Heisenberg
    target points, for f a callable of HTypePoint, evaluated node by node.

    k = 1 has an empty orthogonal complement, so the transform is f itself.
    Otherwise nu = rho sigma takes `radon_heat_profile`'s Gauss rule in rho
    at s = 1 times the uniform rule on the unit sphere of eta-perp: sigma =
    +-1 at k = 2, as many angles as radii at k = 3.  A function that has not
    decayed to 1e-10 of its peak on the outermost ring raises a truncation
    warning.
    """
    eta, perp = _perp_basis(eta)
    k = eta.size
    targets = list(targets)
    if not targets:
        return np.zeros(0)
    if k == 1:
        return np.array([float(f(HTypePoint(_vec_of(p), (p.t * eta[0],))))
                         for p in targets])
    (rho, w), _ = _radial_rules(max(abs(p.t) for p in targets) + _NU_DECAY, 1.0, k)
    m = 2 if k == 2 else rho.size
    theta = 2.0 * math.pi * np.arange(m) / m
    sigma = np.column_stack([np.cos(theta), np.sin(theta)])[:, :k - 1] @ perp.T
    offsets = (rho[:, None, None] * sigma).reshape(-1, k)          # radius by radius
    vals = np.array([[float(f(HTypePoint(_vec_of(p), tuple(p.t * eta + o)))) for o in offsets]
                     for p in targets])
    _warn_window_truncated(vals, slice(-m, None))
    return vals @ np.repeat(w / m, m)


def _vec_of(p):
    return tuple(x for z in p.z for x in (z.real, z.imag))


def radon_heat_profile(s, v_norms, t_vals, n=1, k=2):
    """R_eta h_s on a (|v|, t) product grid, returned as a (len v, len t)
    array.  h_s depends on nu only through rho = |nu|, so for every eta
        R h(v, t) = |S^{k-2}| int_0^a h_s(v, sqrt(t^2 + rho^2)) rho^{k-2} drho,
    with a = max|t| + (16 ln 10 / pi) s, where h_s has fallen to 1e-16.  One
    `htype_heat_batch` call evaluates h_s on the Gauss rule in rho and on the
    coarser rule that checks it (`_radial_rules`); the two must agree to 1e-8
    of the largest value, or QuadratureError is raised.
    """
    positive("diffusion time s", s)
    integer("dimension n", n)
    integer("center dimension k", k, allowed=_CENTERS)
    v = vector("v_norms", v_norms, nonnegative=True)
    t = vector("t_vals", t_vals)
    if k == 1:
        return htype_heat_batch(s, n, 1, v[:, None], np.abs(t)[None, :])
    if v.size == 0 or t.size == 0:
        return np.zeros((v.size, t.size))
    (rho, w), (rho_c, w_c) = _radial_rules(float(np.max(np.abs(t))) + _NU_DECAY * s, s, k)
    tau = np.hypot(t[:, None], np.concatenate([rho, rho_c]))           # (t, rho)
    vals = htype_heat_batch(s, n, k, v[:, None, None], tau[None])
    _warn_window_truncated(vals, rho.size - 1)
    fine, coarse = vals[..., :rho.size] @ w, vals[..., rho.size:] @ w_c
    # h_s > 0 and the weights are positive: the sums cancel nothing
    failure = _disagreement(fine, coarse, 0.0, 1e-8, f"{rho.size} radii")
    if failure is not None:
        raise QuadratureError(f"radial nu rule failed to converge: {failure}")
    return fine


def htype_gate(a, b, s0):
    """True when ab < s0^2: the evolved solution with these central decays must vanish.  The
    surface is inherited through the Radon collapse: the Hardy rule judges the factors that
    uniqueness_gate passes at lam = 0, so the two agree bit for bit, in the critical band too."""
    return uniqueness_gate(a, b, s0)[1]
