"""The Heisenberg group C^n x R: group law, the heat kernel at complex time
eps + i s, its central-frequency profiles, and the sharp Gaussian bound check.

The frequency profile is the hyperbolic Gaussian
    (4 pi)^{-n} (lam / sinh(lam zeta))^n exp(-lam coth(lam zeta) |z|^2 / 4)
and the kernel itself is recovered by the inversion integral
    q_zeta(z, t) = (2 pi)^{-1} int e^{-i lam t} (profile) dlam,
which converges absolutely whenever Re zeta > 0.
"""

import math
from dataclasses import dataclass

import numpy as np

from .quadrature import QuadratureError, adaptive_quad, sample_axis, separable_panels


@dataclass(frozen=True)
class HeisenbergPoint:
    z: tuple
    t: float

    def __post_init__(self):
        z = tuple(complex(c) for c in (self.z if np.iterable(self.z) else (self.z,)))
        if not z:
            raise ValueError("need at least one horizontal coordinate")
        t = float(self.t)
        if not (np.all(np.isfinite(z)) and math.isfinite(t)):
            raise ValueError("coordinates must be finite")
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "t", t)

    @property
    def n(self):
        return len(self.z)

    @property
    def z_norm(self):
        return math.sqrt(sum(abs(c) ** 2 for c in self.z))


@dataclass(frozen=True)
class ComplexTime:
    """zeta = eps + i s; kernel evaluation by inversion needs eps > 0."""
    eps: float
    s: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.eps) and math.isfinite(self.s)):
            raise ValueError("eps and s must be finite")
        if self.eps < 0:
            raise ValueError("eps must be nonnegative")
        if self.eps == 0 and self.s == 0:
            raise ValueError("zero diffusion time")

    @property
    def value(self):
        return complex(self.eps, self.s)


def _as_time(zeta):
    if isinstance(zeta, ComplexTime):
        return zeta
    zeta = complex(zeta)
    return ComplexTime(zeta.real, zeta.imag)


def group_law(p, q):
    """(z, t)(w, s) = (z + w, t + s + Im(z . conj(w)) / 2)."""
    if p.n != q.n:
        raise ValueError("points live on groups of different dimension")
    z = np.asarray(p.z)
    w = np.asarray(q.z)
    twist = float(np.imag(np.vdot(w, z)))  # vdot conjugates its first slot
    return HeisenbergPoint(tuple(z + w), p.t + q.t + 0.5 * twist)


def group_inverse(p):
    return HeisenbergPoint(tuple(-np.asarray(p.z)), -p.t)


_LIMIT_CUT = 1e-8


def heat_kernel_lambda(zeta, lam, r, n=1):
    """Frequency profile of the heat kernel at |z| = r.

    Uses the lam -> 0 Euclidean limit (4 pi zeta)^{-n} e^{-r^2/(4 zeta)} when
    |lam * zeta| < 1e-8.  With eps = 0 the profile exists only off the poles
    of sinh(i lam s), which raise.  Non-finite lam or r raise ValueError.
    """
    if int(n) != n or n < 1:
        raise ValueError("dimension n must be a positive integer")
    if not math.isfinite(lam):
        raise ValueError("lam must be finite")
    return _profile(_as_time(zeta).value, lam, sample_axis("r", r), n)


def _profile(zeta, lam, r, n):
    """heat_kernel_lambda at the complex time zeta, inputs taken as valid."""
    x = lam * zeta
    if abs(x) < _LIMIT_CUT:
        out = (4.0 * np.pi * zeta) ** (-n) * np.exp(-r * r / (4.0 * zeta))
    else:
        sh = np.sinh(x)
        if abs(sh) <= 1e-12 * max(1.0, abs(x)):
            raise ValueError("profile pole: sinh(lam * zeta) vanishes "
                             f"(lam={lam!r}, zeta={zeta!r})")
        out = (4.0 * np.pi) ** (-n) * (lam / sh) ** n \
            * np.exp(-0.25 * lam * (np.cosh(x) / sh) * r * r)
    out = np.asarray(out, dtype=complex)
    return out if np.ndim(r) else out[()]


def _profile_on_nodes(lams, r, zeta, n):
    """Profile values on an outer (r, lam) product; r 1-d, lams 1-d."""
    lams = np.asarray(lams, dtype=float)[None, :]
    r2 = (np.asarray(r, dtype=float) ** 2)[:, None]
    x = lams * zeta
    small = np.abs(x) < _LIMIT_CUT
    sh = np.sinh(np.where(small, 1.0, x))
    pref = np.where(small, (4.0 * np.pi * zeta) ** (-n),
                    (4.0 * np.pi) ** (-n) * (lams / sh) ** n)
    rate = np.where(small, 0.25 / zeta, 0.25 * lams * np.cosh(x) / sh)
    return pref * np.exp(-rate * r2)


def _frequency_cutoff(zeta, n):
    """Smallest Lam with the lam-integrand envelope below 1e-15 of its peak."""
    eps = zeta.real
    if eps <= 0:
        raise ValueError("inversion in t needs Re zeta > 0")
    peak = abs(1.0 / zeta) ** n
    lam = max(8.0, 4.0 / abs(zeta))
    while (lam / abs(math.sinh(lam * eps) if lam * eps < 700 else math.inf)) ** n > 1e-15 * peak:
        lam *= 1.3
        if lam > 1e7:
            raise QuadratureError("no usable frequency cutoff; eps too small")
    return lam


def heat_kernel(zeta, p):
    """Heat kernel q_zeta(z, t) by adaptive Fourier inversion in lam.

    For real zeta the (quadrature-level) imaginary residue is checked against
    1e-10 and zeroed.
    """
    zeta = _as_time(zeta)
    if zeta.eps <= 0:
        raise ValueError("kernel evaluation requires eps > 0")
    zv = zeta.value
    n, r, t = p.n, p.z_norm, p.t
    lam_max = _frequency_cutoff(zv, n)

    def integrand(lam):
        return np.exp(-1j * lam * t) * _profile(zv, lam, r, n)

    val = adaptive_quad(integrand, -lam_max, lam_max) / (2.0 * np.pi)
    if zeta.s == 0:
        if abs(val.imag) > 1e-10 * max(abs(val.real), 1e-300):
            raise QuadratureError("imaginary residue of a real-time kernel "
                                  f"exceeds tolerance: {val!r}")
        return complex(val.real, 0.0)
    return complex(val)


def heat_kernel_grid(zeta, r, t, n=1, rtol=1e-9):
    """Vectorized inversion on broadcastable (r, t) arrays.

    The integrand factors into the profile, a function of (lam, r), and the
    phase e^{-i lam t}; each is tabulated on the unique r and t values only.
    One composite panel rule in lam is shared by all points and refined
    until two successive rules agree to rtol (`quadrature.separable_panels`).
    Radii must be finite and nonnegative, t finite.
    """
    zeta = _as_time(zeta)
    if zeta.eps <= 0:
        raise ValueError("kernel evaluation requires eps > 0")
    zv = zeta.value
    r, t = np.broadcast_arrays(sample_axis("radii r", r, nonnegative=True),
                               sample_axis("central coordinates t", t))
    r_unique, ir = np.unique(r.ravel(), return_inverse=True)
    t_unique, it = np.unique(t.ravel(), return_inverse=True)
    lam_max = _frequency_cutoff(zv, n)
    t_span = float(np.max(np.abs(t_unique), initial=0.0))
    panels = int(np.ceil(lam_max * max(t_span, 1.0) / np.pi)) + 16
    vals = separable_panels(-lam_max, lam_max, panels,
                            lambda lams: _profile_on_nodes(lams, r_unique, zv, n),
                            lambda lams: np.exp(-1j * np.outer(t_unique, lams)),
                            ir, it, rtol) / (2.0 * np.pi)
    if zeta.s == 0:
        vals = vals.real.astype(complex)
    return vals.reshape(r.shape)


def heat_bound_check(s, points, n=None):
    """Largest ratio of q_s to s^{-n-1} e^{-(pi/2)|t|/s} e^{-|z|^2/(4s)} over
    the sampled points, plus its invariance under the parabolic rescaling
    s -> 4s, (z, t) -> (2z, 4t) (agreement to 1e-6 relative).

    Returns (C_est, holds).
    """
    if s <= 0:
        raise ValueError("diffusion time must be positive")
    pts = list(points)
    if not pts:
        raise ValueError("need at least one sample point")
    if n is None:
        n = pts[0].n
    r = np.array([p.z_norm for p in pts])
    t = np.array([p.t for p in pts])

    def cmax(time, rr, tt):
        q = heat_kernel_grid(ComplexTime(time), rr, tt, n=n).real
        envelope = time ** (-n - 1) * np.exp(-0.5 * np.pi * np.abs(tt) / time - rr ** 2 / (4.0 * time))
        return float(np.max(q / envelope))

    c_here = cmax(s, r, t)
    c_scaled = cmax(4.0 * s, 2.0 * r, 4.0 * t)
    holds = bool(np.isfinite(c_here) and c_here > 0
                 and abs(c_here - c_scaled) <= 1e-6 * c_here)
    return c_here, holds
