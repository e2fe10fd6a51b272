"""The Heisenberg group C^n x R: group law, the heat kernel at complex time
eps + i s, and its central-frequency profiles.

The frequency profile is the hyperbolic Gaussian
    (4 pi)^{-n} (lam / sinh(lam zeta))^n exp(-lam coth(lam zeta) |z|^2 / 4)
and the kernel itself is recovered by the inversion integral
    q_zeta(z, t) = (2 pi)^{-1} int e^{-i lam t} (profile) dlam,
which converges absolutely whenever Re zeta > 0.  The engines evaluate the
profile through `_hyperbolic_factors`, broadcast over lam; the pointwise
oracles in `oracles.py` write it out themselves as the scalar `_profile`.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from ._checks import (complex_time, finite, finite_array, finite_result, integer, real, shapes,
                      vector)
from .quadrature import envelope_cutoff, even_trapezoid


@dataclass(frozen=True)
class HeisenbergPoint:
    z: tuple
    t: float

    def __post_init__(self):
        z = vector("coordinates z", self.z)
        integer("dimension n of coordinates z", z.size)
        real("coordinate t", self.t)
        object.__setattr__(self, "z", tuple(z.astype(complex).tolist()))
        object.__setattr__(self, "t", float(self.t))

    @property
    def n(self):
        return len(self.z)

    @property
    def z_norm(self):
        return math.hypot(*map(abs, self.z))        # finite up to 1.8e308


def group_law(p, q):
    """(z, t)(w, s) = (z + w, t + s + Im(z . conj(w)) / 2)."""
    z, w = shapes(("coordinates z of p", "of q"), np.asarray(p.z), np.asarray(q.z))
    twist = float(np.imag(np.vdot(w, z)))  # vdot conjugates its first slot
    return HeisenbergPoint(tuple(z + w), p.t + q.t + 0.5 * twist)


def group_inverse(p):
    return HeisenbergPoint(tuple(-np.asarray(p.z)), -p.t)


_SMALLEST = math.ulp(0.0)


def _hyperbolic_factors(lam, zeta, n, log_power=False):
    """The hyperbolic Gaussian's two lam factors: (lam / sinh(lam zeta))^n
    and -lam coth(lam zeta) / 4, the rate of its Gaussian in r^2.  With
    log_power the first comes as its logarithm n (log 2a - x - log e1),
    which stays finite where the factor itself leaves double range.

    Both are even in lam, so with a = max(|lam|, 1e-100 / |zeta|), x =
    a zeta and e1 = 1 - e^{-2x} they are (2a e^{-x} / e1)^n and
    -a (2 - e1) / (4 e1).  For Re zeta >= 0 nothing here overflows (a factor
    beyond double range underflows to 0; 2a and 2x overflow past 9e307, so
    2 scales e^{-x}, and e^{-2x} is its square there), and lam = 0 gives the
    Euclidean limit zeta^{-n} e^{-r^2 / (4 zeta)} from the same expression.
    The floor keeps |x| at 1e-100, where the limit is exact in double
    precision; a subnormal x would overflow the complex division.  Past
    |zeta| ~ 1e224 the floor itself underflows, so a is kept at the smallest
    subnormal, where x stays normal and lam = 0 still reads the limit.
    """
    a = np.maximum(np.abs(lam), (1e-100 / abs(zeta)) or _SMALLEST)
    if np.iscomplexobj(lam):        # continued from the half plane Re(lam zeta) >= 0
        a = np.where(np.abs(lam) < a, a, np.where(np.real(lam * zeta) < 0, -lam, lam))
    x = a * zeta
    ex = np.exp(-x)
    e1 = -np.expm1(-2.0 * x)
    e1 = np.where(np.isfinite(e1), e1, 1.0 - ex * ex)       # 2x overflows past 9e307
    rate = -0.25 * a * (2.0 - e1) / e1
    if log_power:
        return n * (np.log(a) + math.log(2.0) - x - np.log(e1)), rate
    return (a * (2.0 * ex) / e1) ** n, rate


def heat_kernel_lambda(zeta, lam, r, n=1):
    """Frequency profile of the heat kernel at |z| = r,
    (4 pi)^{-n} (lam / sinh(lam zeta))^n e^{-lam coth(lam zeta) r^2 / 4}.

    lam = 0 gives the Euclidean limit (4 pi zeta)^{-n} e^{-r^2/(4 zeta)}, and
    values below double range come out as 0.  At zeta = i s the profile
    exists only off the poles lam s = k pi, k != 0, which raise.  A complex
    lam gives the analytic continuation of the profile; a value past double range raises.
    """
    integer("dimension n", n)
    finite("lam", lam)
    zeta = complex_time(zeta)
    x = lam * zeta.imag
    # past |x| = 1e12 the relative pole test below flags every real x
    if zeta.real == 0 and x.imag == 0 and abs(x) >= 1e12:
        raise ValueError("lam * Im zeta is too large to tell a pole of sinh(lam * zeta) "
                         f"from round-off (lam={lam!r}, zeta={zeta!r})")
    # sin has no zero off the real line, where |sin x| >= sinh |Im x|
    if zeta.real == 0 and abs(x.imag) < 1.0 < abs(x) and abs(cmath.sin(x)) <= 1e-12 * abs(x):
        raise ValueError("profile pole: sinh(lam * zeta) vanishes "
                         f"(lam={lam!r}, zeta={zeta!r})")
    r = finite_array("r", r)
    with np.errstate(over="ignore", invalid="ignore"):     # r past 1.3e154 reads 0
        if np.iscomplexobj(lam):    # the Gaussian may bring an out-of-range power back
            log_power, rate = _hyperbolic_factors(lam, zeta, n, log_power=True)
            out = np.exp(log_power - n * math.log(4.0 * np.pi) + rate * np.square(r))
        else:
            power, rate = _hyperbolic_factors(lam, zeta, n)
            out = (4.0 * np.pi) ** (-n) * (power * np.exp(rate * np.square(r)))
        out = np.asarray(out, complex)
    finite_result(f"the profile at lam={lam!r}, zeta={zeta!r}", out)
    return out[()]


def _lam_cutoff(zeta, n, k, floor):
    """The one lam cutoff of the heat kernels here, in `htype` and in
    `oracles`, engines and oracles alike: where the modulus bound lam^{k-1}
    |lam / sinh(lam zeta)|^n of their integrands crosses floor times its
    peak, which scales as |zeta|^{-(n+k-1)}, solved from 4 / |zeta| on by
    `quadrature.envelope_cutoff`, in logs so that no power overflows."""
    zeta = complex(zeta)
    eps = zeta.real

    def log_envelope(lam):
        x = eps * lam
        log_sinh = x + math.log(-0.5 * math.expm1(-2.0 * x))
        return (k - 1 + n) * math.log(lam) - n * log_sinh

    log_peak = -(n + k - 1) * math.log(abs(zeta))
    return envelope_cutoff(log_envelope, math.log(floor) + log_peak, 4.0 / abs(zeta))


def _strip_step(zeta, radii, times):
    """The trapezoid step h = 0.6 (2 pi d) / (37 + d max|t| + Re(1/zeta) min r^2 / 4)
    of the central-frequency integrand at the sorted unique radii and
    |t|, analytic in |Im lam| < d = pi Re zeta / |zeta|^2 (its nearest pole
    is i pi / zeta): the rule converges like e^{-2 pi d / h} (Trefethen and
    Weideman, SIAM Review 56, 2014).  The k = 2 rule runs in u, through
    lam = c log(1 + e^{u/c}) with c = Re(1/zeta) = d / pi: the map's poles
    u = +-i pi c (2j + 1) lie exactly on the edge of the same strip, and
    |Im lam| <= |Im u| inside it, so the same step serves.

    On the strip the phase grows like e^{d |t|}.  A row of radius r is
    e^{-Re(1/zeta) r^2 / 4} in size, while on the line Im lam = d / 2 its
    Gaussian factor stays below 1; the table's largest row is its smallest
    radius.  Both are paid for in the step.  A row past e^{-745} underflows,
    so the radius term stops there.  A step below double range (d max|t|
    past 1.8e308) is kept at the smallest subnormal, so that the rules'
    node budget refuses it instead of a division by zero.
    """
    zeta = complex(zeta)
    width = abs(zeta) * (abs(zeta) / zeta.real)      # |zeta|^2 overflows past 1.3e154
    d = math.pi / width
    t_max = float(times[-1]) if times.size else 0.0
    r_min = float(radii[0]) if radii.size else 0.0
    step = 0.6 * 2.0 * math.pi * d / (37.0 + d * t_max + min(0.25 * r_min * r_min / width, 745.0))
    return max(step, _SMALLEST)


# samples of [0, L] on which the cutoff of each radius is placed
_CUTOFF_SAMPLES = 256
# (radius, node) entries of a trapezoid table from which on placing each
# radius's cutoff saves more than it costs: below, every radius runs to L
_RADIUS_ENTRIES = 1 << 15


def _radius_cutoffs(zeta, n, k, floor, lam_max, radii):
    """The cutoff of each sorted radius r: the first of _CUTOFF_SAMPLES
    samples of (0, lam_max] past the last one where the bound
    lam^{k-1} |lam / sinh(lam eps)|^n e^{-lam tanh(lam eps) r^2 / 4} of its
    integrand (Re coth(lam zeta) >= tanh(lam eps), eps = Re zeta) exceeds
    floor times the row's own size |zeta|^{-(n+k-1)} e^{-Re(1/zeta) r^2 / 4}.

    With rho = r^2 / 4 the bound exceeds it at lam when log env(lam) - c0 >
    (lam tanh(lam eps) - Re(1/zeta)) rho, c0 being the log of the floor at
    r = 0: past the envelope's peak, and where lam tanh(lam eps) >
    Re(1/zeta), for the radii below one threshold of rho; the samples
    before count for every radius.  The bound decreases past the peak, so
    the running maximum of the thresholds from the top gives each radius
    its last such sample.  At r = 0 this is the crossing of `_lam_cutoff`,
    rounded up to a sample.
    """
    zeta = complex(zeta)
    eps = zeta.real
    b = 1.0 / (abs(zeta) * (abs(zeta) / eps))      # Re(1/zeta)
    lam = np.linspace(0.0, lam_max, _CUTOFF_SAMPLES + 1)[1:]
    x = eps * lam
    log_env = (k - 1 + n) * np.log(lam) - n * (x + np.log(-0.5 * np.expm1(-2.0 * x)))
    c0 = math.log(floor) - (n + k - 1) * math.log(abs(zeta))
    slope = lam * np.tanh(x) - b
    rho = np.full(lam.size, np.inf)
    tail = (slope > 0) & (np.arange(lam.size) > np.argmax(log_env))
    rho[tail] = (log_env[tail] - c0) / slope[tail]
    rho = np.maximum.accumulate(rho[::-1])[::-1]
    # samples still needed by each radius; the next one lies past its cutoff
    needed = np.searchsorted(-rho, -0.25 * np.square(radii), side="left")
    return lam_max * np.minimum(needed + 1, lam.size) / lam.size


def _central_integral(zeta, n, k, radii, times, phase, floor, rtol):
    """int_0^L lam^{k-1} (lam / sinh(lam zeta))^n e^{-lam coth(lam zeta) r^2 / 4}
    phase(lam t) dlam on broadcast arrays (r, t) = (radii, times) >= 0: the
    integral behind both engines, phase cos for the Heisenberg kernel and
    the normalized Bessel function for the H-type one.  Both factors are
    tabulated on the unique radii and times only, and L is `_lam_cutoff`.

    Every k runs on one trapezoid rule (`quadrature.even_trapezoid`) of
    step h = `_strip_step`, checked against the rule of twice that step;
    on a large product grid each radius ends at its own cutoff
    (`_radius_cutoffs`).  For odd k the integrand is even in lam, and the
    rule runs in lam from 0.  At k = 2 (lam Jt_0, odd) it runs in u, with
    lam = c log(1 + e^{u/c}) and c = Re(1/zeta), which maps the whole u line
    onto the half line: the integrand then decays like c e^{2u/c} toward
    -inf, and the rule starts at u = (c/2) log(floor), where that has fallen
    to the floor.  The map's poles lie on the edge of the strip that sizes
    h, and the cutoffs in lam go to u by the inverse map.  This is the one
    place where the parity of k is read.
    At a real time every table stays real."""
    zeta = complex(zeta)
    rows, ir = np.unique(radii.ravel(), return_inverse=True)
    cols, ic = np.unique(times.ravel(), return_inverse=True)
    profile_time = zeta if zeta.imag else zeta.real
    lam_max = _lam_cutoff(zeta, n, k, floor)
    step = _strip_step(zeta, rows, cols)
    if k % 2:
        start, mapping = 0.0, None

        def to_u(lam):
            return lam
    else:
        c = 1.0 / (abs(zeta) * (abs(zeta) / zeta.real))      # Re(1/zeta)
        start = 0.5 * c * math.log(floor)

        def mapping(u):
            # u / c <= L / c, which is L s <= 46 at a real time s: e^{u/c}
            # stays finite
            x = u / c
            return c * np.log1p(np.exp(x)), 1.0 / (1.0 + np.exp(-x))

        def to_u(lam):
            return lam + c * np.log(-np.expm1(-lam / c))
    u_max = to_u(lam_max)
    with np.errstate(over="ignore", invalid="ignore"):     # r past 1.3e154 reads 0
        cutoffs = np.full(rows.size, u_max)
        if rows.size * 2.0 * (u_max - start) / step >= _RADIUS_ENTRIES:
            cutoffs = to_u(_radius_cutoffs(zeta, n, k, floor, lam_max, rows))
        squares = np.square(rows)[:, None]

        def factors(lams, p):
            # the lam factors scale the column table, not the (p, nodes) rows
            power, rate = _hyperbolic_factors(lams, profile_time, n)
            if k > 1:
                power = lams ** (k - 1) * power
            return np.exp(rate * squares[:p]), phase(np.outer(cols, lams)) * power

        vals = even_trapezoid(step, cutoffs, factors, ir, ic, rtol, start=start, mapping=mapping)
    return vals.reshape(radii.shape)


def heat_kernel_grid(zeta, r, t, n=1):
    """Vectorized inversion on broadcastable (r, t) arrays, at a complex
    time zeta with Re zeta > 0.

    The profile is even in lam, so the inversion integral is folded onto
    the half line: q = pi^{-1} int_0^L cos(lam t) (profile) dlam.  The
    integrand factors into the profile, a function of (lam, r), and the
    phase cos(lam t); each is tabulated on the unique r and |t| values only
    (both real at real zeta).  One trapezoid rule in lam is shared by all
    points, its step sized from the strip |Im lam| < pi Re zeta / |zeta|^2
    where the profile is analytic, from max|t| and from the smallest
    radius; it must agree with the rule of twice its step to 1e-9 of the
    largest value.  It ends where the envelope |lam / sinh(lam eps)|^n
    crosses 1e-15 of its peak |zeta|^{-n}, and on a large product grid
    each radius ends earlier, where its own bound crosses 1e-15 of its own
    size (`_central_integral`).  The profile's (4 pi)^{-n} is applied with
    the final 1 / pi.

    The far field cannot be tabulated.  Round-off puts a floor under the
    coarse/fine gap that scales with q_zeta(r, 0), so the two rules agree
    to 1e-9 of the largest value only when that value is above about
    1e-8 of q_zeta(r, 0) (of q_zeta(0, 0) at r = 0).  Measured at n = 1 on
    single points, r in {0, 0.5, 1, 2, 3} and t in {0, 0.5, ..., 30} for
    each zeta in {0.05, 0.1, 0.3, 0.5, 1, 2, 1 + 0.5i, 0.5 + 1i}, against
    34-digit references: every point above 7.1e-7 of q_zeta(r, 0)
    converges, all but 2 of the 1755 below 1e-9 raise (one of them, at
    9.4e-11, converges 1e-6 off), and in between the outcome turns on
    round-off.  The two rules share the round-off of the profile's values,
    which their gap cannot see, so 10 of the 564 accepted points are more
    than 1e-9 off: 1.2e-8 at most above 1e-9 of q_zeta(r, 0), 2.5e-7 and
    1e-6 below it.  A table below the limit raises QuadratureError: at
    zeta = 1 every point with r <= 1 and t >= 9.4 does.
    """
    integer("dimension n", n)
    zeta = complex_time(zeta, inversion=True)
    r, t = shapes(("radii r", "central coordinates t"),
                  finite_array("radii r", r, nonnegative=True),
                  finite_array("central coordinates t", t), broadcast=True)
    vals = _central_integral(zeta, n, 1, r, np.abs(t), np.cos, 1e-15, 1e-9)
    return (vals * ((4.0 * np.pi) ** (-n) / np.pi)).astype(complex, copy=False)
