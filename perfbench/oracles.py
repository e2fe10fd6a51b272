"""Independent routes that the benchmark checks heisenkit's outputs against.

Nothing here imports heisenkit.  Closed forms are written out again from
their definitions; the frequency integrals use one fixed, fine
Gauss-Legendre rule per call and scipy's Bessel functions (through hyp0f1)
in place of the package's hand-written ones.  Both kernels are integrated
on (r, t) product grids as one matrix product, since their integrands
factor into a part depending on (lam, r) and a part depending on (lam, t).
"""

import math

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.optimize import brentq
from scipy.special import gamma, hyp0f1

_X32, _W32 = leggauss(32)


def _panels(a, b, width):
    """Composite 32-point Gauss-Legendre rule on [a, b], panels <= width."""
    count = max(2, int(math.ceil((b - a) / width)))
    count += count % 2          # an even count keeps a node-free edge at the midpoint
    edges = np.linspace(a, b, count + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * _X32).ravel()
    weights = (half[:, None] * _W32).ravel()
    return nodes, weights


def jtilde(alpha, x):
    """(x/2)^-alpha J_alpha(x) = 0F1(; alpha+1; -x^2/4) / Gamma(alpha+1)."""
    x = np.asarray(x, dtype=float)
    return hyp0f1(alpha + 1.0, -0.25 * x * x) / gamma(alpha + 1.0)


def jtilde_sq(alpha, w2):
    """jtilde as a function of the (complex) squared argument."""
    return hyp0f1(alpha + 1.0, -0.25 * np.asarray(w2, dtype=complex)) / gamma(alpha + 1.0)


def heat_slice(zeta, lam, r, n=1):
    """Heat kernel frequency profile (4 pi)^-n (lam/sinh(lam zeta))^n
    exp(-lam coth(lam zeta) r^2/4)."""
    x = lam * complex(zeta)
    r = np.asarray(r, dtype=float)
    return ((lam / np.sinh(x)) ** n / (4.0 * math.pi) ** n
            * np.exp(-0.25 * lam * r * r / np.tanh(x)))


def heat_kernel(zeta, r, t, n=1):
    """q_zeta(r, t) on the product of the 1-d arrays r and t (Re zeta > 0),
    by Fourier inversion in lam over [-L, L] with L = 45 / Re zeta."""
    zeta = complex(zeta)
    lam_max = 45.0 / zeta.real
    lam, w = _panels(-lam_max, lam_max, 0.5)
    r = np.atleast_1d(np.asarray(r, dtype=float))
    t = np.atleast_1d(np.asarray(t, dtype=float))
    x = lam * zeta
    amp = (lam / np.sinh(x)) ** n / (4.0 * math.pi) ** n
    prof = amp[None, :] * np.exp(-0.25 * (lam / np.tanh(x))[None, :] * (r * r)[:, None])
    phase = w[:, None] * np.exp(-1j * lam[:, None] * t[None, :])
    return prof @ phase / (2.0 * math.pi)


def htype_kernel(s, n, k, rho, tau):
    """h_s(|v|, |t|) of an H-type group with center dimension k, on the
    product of the 1-d arrays rho and tau:
    c(n,k) int_0^inf lam^(k-1) Jt_(k/2-1)(lam tau) (lam/sinh(s lam))^n
    exp(-lam coth(s lam) rho^2/4) dlam, c(n,k) = 2^(1-k/2)/(2^n (2pi)^(n+k/2))."""
    lam_max = 60.0 / s
    lam, w = _panels(0.0, lam_max, 0.5)
    rho = np.atleast_1d(np.asarray(rho, dtype=float))
    tau = np.atleast_1d(np.asarray(tau, dtype=float))
    x = s * lam
    a = (lam / np.sinh(x)) ** n * np.exp(-0.25 * (lam / np.tanh(x))[None, :]
                                         * (rho * rho)[:, None])
    b = (w * lam ** (k - 1))[:, None] * jtilde(0.5 * k - 1.0, lam[:, None] * tau[None, :])
    const = 2.0 ** (1.0 - 0.5 * k) / (2.0 ** n * (2.0 * math.pi) ** (n + 0.5 * k))
    return const * (a @ b)


def mehler(s, x, y):
    """Kernel of e^{-isH} on the line, H = -d^2/dx^2 + x^2:
    e^{-is} (pi (1 - e^{-4is}))^{-1/2}
    exp(i((x^2+y^2) cos 2s - 2xy) / (2 sin 2s)), principal root."""
    x = np.asarray(x, dtype=float)
    s2 = 2.0 * s
    pref = np.exp(-1j * s) / np.sqrt(math.pi * 2j * math.sin(s2) * np.exp(-1j * s2))
    return pref * np.exp(1j * ((x * x + y * y) * math.cos(s2) - 2.0 * x * y)
                         / (2.0 * math.sin(s2)))


def hermite_fn(k, x):
    """L^2-normalised Hermite function h_k = (2^k k! sqrt(pi))^-1/2 H_k e^{-x^2/2},
    with the physicists' H_k from numpy."""
    coef = np.zeros(k + 1)
    coef[k] = 1.0
    x = np.asarray(x, dtype=float)
    norm = (2.0 ** k * math.factorial(k) * math.sqrt(math.pi)) ** -0.5
    return norm * np.polynomial.hermite.hermval(x, coef) * np.exp(-0.5 * x * x)


def hankel_gaussian(alpha, a, s):
    """Order-alpha Hankel transform of exp(-a r^2): (2a)^-(alpha+1) exp(-s^2/(4a))."""
    s = np.asarray(s, dtype=float)
    return (2.0 * a) ** (-(alpha + 1.0)) * np.exp(-s * s / (4.0 * a))


def kernel_K_closed(lam, r, t, s0, n, p0, q0):
    """Closed form of the sector kernel K_lam (see propagator.kernel_K)."""
    m = n + p0 + q0
    sn = math.sin(lam * s0)
    arg = lam * r * t / (2.0 * sn)
    return complex(np.exp(1j * lam * s0 * (q0 - p0)) * (2j * math.sin(abs(lam) * s0)) ** (-m)
                   * np.exp(0.25j * lam * (r * r + t * t) / math.tan(lam * s0))
                   * jtilde_sq(m - 1, arg * arg))


def hille_hardy_closed(alpha, x, y, w):
    """(1-w)^-(alpha+1) exp(-w(x+y)/(1-w)) Jt_alpha(2 sqrt(-xyw)/(1-w))."""
    one = 1.0 - w
    return complex(one ** (-(alpha + 1.0)) * np.exp(-w * (x + y) / one)
                   * jtilde_sq(alpha, -4.0 * x * y * w / (one * one)))


def heisenberg_margin(a, b, s0, lam, eps):
    """Central decay margin of the Heisenberg uniqueness gate."""
    osc = 4.0 if lam == 0 else (2.0 * math.sin(lam * s0) / (lam * s0)) ** 2
    return s0 * s0 * osc / (16.0 * (a + eps) * (b + eps)) - 0.25


def lambda_window(a, b, s0, eps=0.0):
    """Root of the margin in lam on (0, pi/s0), or None when a b >= s0^2."""
    if heisenberg_margin(a, b, s0, 0.0, eps) <= 0:
        return None
    return brentq(lambda lam: heisenberg_margin(a, b, s0, lam, eps),
                  1e-12, math.pi / abs(s0), xtol=1e-15, rtol=1e-15)
