"""Heat kernels on groups with an H-type center of dimension k <= 3, their
partial Radon collapse to the Heisenberg group, and the decay gate.

The kernel h_s(v, t) depends only on (|v|, |t|) and is computed from its
central-frequency integral.  Written through the normalized Bessel function
the integrand is smooth down to lam = 0 and |t| = 0:

    h_s = c(n, k) int_0^inf lam^{k-1} Jt_{k/2-1}(lam |t|)
              (lam / sinh(s lam))^n e^{-lam coth(s lam) |v|^2 / 4} dlam,

with c(n, k) = 2^{1-k/2} / (2^n (2 pi)^{n+k/2}).  At k = 1 this collapses to
the cosine inversion integral of the Heisenberg kernel with exactly matching
constants, which the tests exercise as a cross-module oracle.
"""

import math
from dataclasses import dataclass

import numpy as np

from .heisenberg import (HeisenbergPoint, _check_dimension, _grown_cutoff,
                         _hyperbolic_gaussian, _log_envelope, _variation_rate)
from .quadrature import (adaptive_quad, envelope_cutoff, gauss_interval, sample_axis,
                         separable_panels, warn_truncated)
from .specfun import bessel_j_tilde


@dataclass(frozen=True)
class HTypePoint:
    v: tuple
    t: tuple

    def __post_init__(self):
        v = tuple(float(c) for c in (self.v if np.iterable(self.v) else (self.v,)))
        t = tuple(float(c) for c in (self.t if np.iterable(self.t) else (self.t,)))
        if len(v) < 2 or len(v) % 2:
            raise ValueError("v must have even dimension 2n >= 2")
        if not 1 <= len(t) <= 3:
            raise ValueError("center dimension k must be 1, 2 or 3")
        if not all(map(math.isfinite, v + t)):
            raise ValueError("coordinates must be finite")
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "t", t)

    @property
    def n(self):
        return len(self.v) // 2

    @property
    def k(self):
        return len(self.t)

    @property
    def v_norm(self):
        return math.sqrt(sum(c * c for c in self.v))

    @property
    def t_norm(self):
        return math.sqrt(sum(c * c for c in self.t))


def _constant(n, k):
    return 2.0 ** (1.0 - 0.5 * k) / (2.0 ** n * (2.0 * math.pi) ** (n + 0.5 * k))


def _check_time(s):
    if not 0 < s < math.inf:
        raise ValueError("diffusion time must be positive and finite")


def htype_heat_kernel(s, p):
    """h_s at a point, by adaptive quadrature in the central frequency."""
    _check_time(s)
    n, k = p.n, p.k
    lam_max = _grown_cutoff(_log_envelope(s, n, k), math.log(1e-16) - n * math.log(s),
                            max(8.0, 4.0 / s), 1.4)

    def f(lam):
        return float(lam ** (k - 1) * _hyperbolic_gaussian(lam, s, n, p.v_norm)
                     * bessel_j_tilde(0.5 * k - 1.0, lam * p.t_norm))

    val = adaptive_quad(f, 0.0, lam_max, epsabs=1e-14)
    return _constant(n, k) * float(np.real(val))


def htype_heat_batch(s, n, k, vnorm, tnorm):
    """h_s over broadcastable (|v|, |t|) arrays on one shared panel rule.

    The radial and central factors of the integrand are tabulated on the
    unique |v| and |t| values only, and the rule is refined until two
    successive rules agree to 1e-8 (`quadrature.separable_panels`).  The
    rule ends where the envelope lam^{k-1} (lam / sinh(s lam))^n crosses
    1e-16 of s^{-n} (`quadrature.envelope_cutoff`), and its first panels
    are sized as the Heisenberg engine's, the Bessel factor oscillating at
    rate max|t| (`heisenberg._variation_rate`).  This is the fast path
    behind the Radon transform.  Norms must be finite and nonnegative.
    """
    _check_time(s)
    _check_dimension(n)
    if k not in (1, 2, 3):
        raise ValueError("center dimension k must be 1, 2 or 3")
    vnorm, tnorm = np.broadcast_arrays(sample_axis("norms |v|", vnorm, nonnegative=True),
                                       sample_axis("norms |t|", tnorm, nonnegative=True))
    rho, ir = np.unique(vnorm.ravel(), return_inverse=True)
    tau, it = np.unique(tnorm.ravel(), return_inverse=True)
    lam_max = envelope_cutoff(_log_envelope(s, n, k), math.log(1e-16) - n * math.log(s),
                              4.0 / s)

    def radial(lams):
        return lams ** (k - 1) * _hyperbolic_gaussian(lams, s, n, rho[:, None])

    with np.errstate(over="ignore", invalid="ignore"):     # |v| past 1.3e154 reads 0
        vals = separable_panels(
            0.0, lam_max, _variation_rate(s, n, rho, tau), radial,
            lambda lams: bessel_j_tilde(0.5 * k - 1.0, np.outer(tau, lams)), ir, it, 1e-8)
    return _constant(n, k) * vals.reshape(vnorm.shape)


@dataclass(frozen=True)
class HTypeHeatKernel:
    """h_s as a callable of HTypePoint, carrying enough structure for the
    Radon transform to route through the batched evaluator."""
    s: float
    n: int
    k: int

    def __call__(self, p):
        if (p.n, p.k) != (self.n, self.k):
            raise ValueError("point dimensions do not match the kernel")
        return htype_heat_kernel(self.s, p)

    def batch(self, vnorm, tnorm):
        return htype_heat_batch(self.s, self.n, self.k, vnorm, tnorm)


def _perp_basis(eta):
    eta = np.asarray(eta, dtype=float)
    if eta.ndim != 1 or not 1 <= eta.size <= 3:
        raise ValueError("eta must be a vector of dimension 1, 2 or 3")
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


def _nu_rule(k, s, t_span, half_width, nu_nodes):
    if half_width is None:
        half_width = t_span + _NU_DECAY * s
    if nu_nodes is None:
        nu_nodes = 160 if k == 2 else 48
    x, w = gauss_interval(-half_width, half_width, nu_nodes)
    if k == 2:
        return x[:, None], w
    xx, yy = np.meshgrid(x, x, indexing="ij")
    ww = np.outer(w, w).ravel()
    return np.stack([xx.ravel(), yy.ravel()], axis=1), ww


def partial_radon(f, eta, targets, half_width=None, nu_nodes=None):
    """(R_eta f)(v, t) = int_{eta-perp} f(v, t eta + nu) dnu on Heisenberg
    target points.

    k = 1 has an empty orthogonal complement, so the transform is f itself.
    When f is an HTypeHeatKernel the integrand is evaluated in one batched
    quadrature; a plain callable of HTypePoint is integrated pointwise.
    """
    eta, perp = _perp_basis(eta)
    k = eta.size
    targets = list(targets)
    if not targets:
        return np.zeros(0)
    if k == 1:
        return np.array([float(f(HTypePoint(_vec_of(p), (p.t * eta[0],))))
                         for p in targets])
    t_span = max(abs(p.t) for p in targets)
    s_hint = f.s if isinstance(f, HTypeHeatKernel) else 1.0
    nu, w = _nu_rule(k, s_hint, t_span, half_width, nu_nodes)
    offsets = nu @ perp.T                                    # (m, k)
    if isinstance(f, HTypeHeatKernel):
        rho = np.array([p.z_norm for p in targets])
        tvec = np.array([p.t for p in targets])[:, None, None] * eta[None, None, :] \
            + offsets[None, :, :]
        tau = np.linalg.norm(tvec, axis=-1)                  # (targets, m)
        vals = f.batch(rho[:, None], tau)
    else:
        vals = np.empty((len(targets), w.size))
        for i, p in enumerate(targets):
            v = _vec_of(p)
            for m in range(w.size):
                vals[i, m] = float(f(HTypePoint(v, tuple(p.t * eta + offsets[m]))))
    warn_truncated("f has not decayed across the nu window; the Radon integral is truncated",
                   float(np.max(np.abs(vals[:, [0, -1]]))), float(np.max(np.abs(vals))), 1e-10)
    return vals @ w


def _vec_of(p):
    return tuple(x for z in p.z for x in (z.real, z.imag))


def radon_heat_profile(s, v_norms, t_vals, n=1, k=2):
    """R_eta h_s on a (|v|, t) product grid, returned as a (len v, len t)
    array, on the nu rule that `partial_radon` picks by default.  The result
    does not depend on the direction eta."""
    v_norms = np.asarray(v_norms, dtype=float)
    t_vals = np.asarray(t_vals, dtype=float)
    if k == 1:
        return htype_heat_batch(s, n, 1, v_norms[:, None], np.abs(t_vals)[None, :])
    eta = np.zeros(k)
    eta[0] = 1.0
    pts = [HeisenbergPoint((complex(v),) + (0j,) * (n - 1), float(t))
           for v in v_norms for t in t_vals]
    out = partial_radon(HTypeHeatKernel(s, n, k), eta, pts)
    return out.reshape(v_norms.size, t_vals.size)


def htype_gate(a, b, s0):
    """True when ab < s0^2: the evolved solution with these central decays
    must vanish (the decision surface is inherited through the Radon
    collapse, so it matches the Heisenberg gate exactly)."""
    if a <= 0 or b <= 0:
        raise ValueError("decay rates must be positive")
    if s0 == 0:
        raise ValueError("s0 must be nonzero")
    return a * b < s0 * s0
