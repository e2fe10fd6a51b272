"""The pointwise oracles, which check the engines one point at a time by
QUADPACK: `heat_kernel`, `htype_heat_kernel` and `twisted_convolution_quad`.
They share with the engines only what is imported below, each share named
with the test that covers it, and no engine imports this module."""

import cmath
import math

import numpy as np

from ._checks import complex_time, finite, positive, real      # tests/test_contract.py
from .heisenberg import _lam_cutoff     # test_kernel_at_the_center_axis_is_the_closed_form
from .htype import _constant     # test_kernel_at_the_origin_is_the_closed_form_at_large_times
from .quadrature import QuadratureError, adaptive_quad     # tests/test_quadrature.py


def _profile(lam, zeta, n, r):
    """(lam / sinh(lam zeta))^n e^{-lam coth(lam zeta) r^2 / 4} at one lam
    and one radius, for Re zeta > 0: the pointwise oracles' own scalar
    profile (`heat_kernel`, `htype_heat_kernel`), written out with
    cmath and shared with no engine.

    It is even in lam.  Below |lam zeta| = 1e-100 it is the Euclidean limit
    zeta^{-n} e^{-r^2 / (4 zeta)}, exact in double precision there.  Past
    Re(lam zeta) = 20, 1 - e^{-2 lam zeta} rounds to 1, so 1 / sinh is
    2 e^{-lam zeta} (sinh itself overflows past 710).  The rate's real part
    is negative, so an exponent below -745 reads exactly 0, and so does an
    r^2 that overflows to inf: the exponent then has parts (-inf, +-inf) or
    (-inf, NaN), and cmath.exp takes both to 0 (C99 special values) without
    a warning.
    """
    a = abs(lam)
    x = a * zeta
    if abs(x) < 1e-100:
        power, rate = zeta ** -n, -0.25 / zeta
    else:
        csch = 2.0 * cmath.exp(-x) if x.real > 20.0 else 1.0 / cmath.sinh(x)
        power, rate = (a * csch) ** n, -0.25 * a / cmath.tanh(x)
    return power * cmath.exp(rate * (r * r))


def heat_kernel(zeta, p):
    """Heat kernel q_zeta(z, t) by adaptive Fourier inversion in lam.

    zeta is a complex time with Re zeta > 0.  This is the pointwise oracle
    of `heisenberg.heat_kernel_grid`, and it shares no profile code with it: QUADPACK
    integrates e^{-i lam t} times the scalar `_profile` over the whole line
    [-L, L].  L is the engines' `_lam_cutoff`, and the absolute tolerance
    1e-12 shrinks with the kernel's size |zeta|^{-n-1} past |zeta| = 1.
    For real zeta the (quadrature-level) imaginary residue is checked
    against 1e-10 and zeroed; the integrand is not folded onto [0, L], so
    that this check sees both halves of the line.
    """
    zeta = complex_time(zeta, inversion=True)
    n, r, t = p.n, p.z_norm, p.t
    lam_max = _lam_cutoff(zeta, n, 1, 1e-15)
    scale = (4.0 * math.pi) ** (-n)

    def integrand(lam):
        return cmath.exp(-1j * lam * t) * (scale * _profile(lam, zeta, n, r))

    val = adaptive_quad(integrand, -lam_max, lam_max,
                        epsabs=1e-12 * max(1.0, abs(zeta)) ** (-n - 1)) / (2.0 * math.pi)
    if zeta.imag == 0:
        if abs(val.imag) > 1e-10 * max(abs(val.real), 1e-300):
            raise QuadratureError("imaginary residue of a real-time kernel "
                                  f"exceeds tolerance: {val!r}")
        return complex(val.real, 0.0)
    return complex(val)


# relative tolerance of the sine-weighted k = 3 integral: the smallest power
# of ten at which 400 draws over s in [0.6, 0.8], |t| in [2.3, 2.6], |v| <= 1
# raise no round-off stop (1e-10 stopped on 5).  2e-10 clears those draws
# too, but stops at (s, |v|, |t|) = (1.88, 0.96, 8.2), 2.7e-6 of h_s(v, 0).
_SINE_RTOL = 1e-9


def htype_heat_kernel(s, p):
    """h_s at a point, by adaptive quadrature in the central frequency.

    This is the pointwise oracle of `htype_heat_batch`, and it shares no
    profile code with it: QUADPACK integrates the Bessel factor times the
    scalar `_profile`, the pointwise Heisenberg oracle's own.  It ends
    at the batch's `heisenberg._lam_cutoff`, and its absolute
    tolerance 1e-14 shrinks with the kernel's size s^{-n-k} past s = 1.
    At k = 3 and |t| > 0 the Bessel factor lam^2 Jt_{1/2}(lam |t|) is
    2 lam sin(lam |t|) / (sqrt(pi) |t|): the integral of lam times the
    profile runs on QUADPACK's sine weight, to a relative tolerance only.
    """
    from scipy.special import j0

    positive("diffusion time s", s)
    n, k = p.n, p.k
    v, t = p.v_norm, p.t_norm
    lam_max = _lam_cutoff(s, n, k, 1e-16)
    if k == 3 and t > 0:
        val = adaptive_quad(lambda lam: lam * _profile(lam, s, n, v).real, 0.0, lam_max,
                            epsabs=0.0, epsrel=_SINE_RTOL, sin_freq=t)
        return _constant(n, k) * 2.0 / (math.sqrt(math.pi) * t) * val.real

    # the Bessel factor Jt_{k/2-1}(lam |t|), written out: cos / sqrt(pi) at
    # k = 1, J_0 at k = 2, and 1 / Gamma(3/2) at k = 3, where |t| = 0 here.
    # Where x^2 overflows (x >= 1.3e154) cephes' j0 is phase noise: NaN
    # there, so that QUADPACK raises
    bessel = {1: lambda x: math.cos(x) / math.sqrt(math.pi),
              2: lambda x: j0(x) if x * x < math.inf else math.nan,
              3: lambda x: 2.0 / math.sqrt(math.pi)}[k]

    def f(lam):
        return float(lam ** (k - 1) * _profile(lam, s, n, v).real * bessel(lam * t))

    val = adaptive_quad(f, 0.0, lam_max, epsabs=1e-14 * max(1.0, s) ** (-n - k))
    return _constant(n, k) * val.real


def twisted_convolution_quad(f, g, lam, z, r_cut=12.0):
    """(f *_lam g)(z) for callables f, g of one complex variable, by nested
    adaptive quadrature over polar coordinates.  Slow; this is the oracle."""
    finite("target z", z)
    real("lam", lam)
    positive("r_cut", r_cut)
    z = complex(z)

    def ring(rho):
        def over_angle(phi):
            w = rho * np.exp(1j * phi)
            return f(z - w) * g(w) * np.exp(0.5j * lam * (z * np.conj(w)).imag)
        return rho * adaptive_quad(over_angle, 0.0, 2.0 * np.pi, epsabs=1e-13)

    return adaptive_quad(ring, 0.0, r_cut, epsabs=1e-13)
