"""The Schrodinger flow on slices, the sector-wise Hankel identity for it,
the oscillator kernel K_lam, and the decay gates.

The headline identity: evolving a slice by the complex-time kernel and
extracting a (p0, q0, j0) sector coefficient agrees, up to one global
constant, with a chirped Hankel transform of the initial sector coefficient
read at the rescaled radius lam r / (2 sin(lam s0)).  Both pipelines are
implemented independently and compared by the constancy of their ratio.

`schrodinger_evolve` is the evolution engine: it applies the heat
multiplier e^{-(2k+n)|lam| zeta} to the Laguerre projections P_k of a slice
and imports nothing from the grid twisted convolution.  That grid route in
`twisted` is kept as the oracle the engine is tested against; the checks
built on the engine each keep one side outside it (the Hankel transform
for theorem34, the closed-form tanh relation for the equality case).
"""

import math

import numpy as np

from ._checks import (complex_time, finite, finite_array, integer, nonzero, one_dimensional,
                      positive, real, vector)
from .grids import (RadialProfile, SpectralSlice, angular_modes, partial_fourier_t,
                    polar_grid, radial_slice)
from .hankel import HankelPlan, _margin, _verdict, fit_gaussian_decay, hankel_transform
from .heisenberg import heat_kernel_lambda
from .quadrature import warn_truncated
from .specfun import (_RIM_GAP, _UnsettledTail, _laguerre_basis, jtilde_of_square,
                      laguerre_series_sum)
from .spherical import _sector_shift, build_basis, spherical_coefficients

_EXCEPTIONAL_TOL = 1e-6
# the equality-case grid reaches where its extremal is 1e-9 of its peak
_EQUALITY_DECAY = math.log(1e9)


class ExceptionalLambdaError(ValueError):
    """sin(lam s0) is (numerically) zero; the flow kernel does not exist.
    `kernel_K` raises it too where its series cannot be summed so near."""


class DecayDomainError(ValueError):
    """A fitted decay rate left the hyperbolic-width domain 4 rho > |lam|."""


def _reject_exceptional(lam, s0):
    real("lam", lam)
    real("s0", s0)
    if abs(math.sin(lam * s0)) <= _EXCEPTIONAL_TOL:
        raise ExceptionalLambdaError(
            f"lam = {lam!r} is exceptional for s0 = {s0!r}: |sin(lam s0)| <= {_EXCEPTIONAL_TOL}")


def schrodinger_evolve(f, zeta):
    """u^lam = f^lam *_lam q_zeta^lam at a complex time zeta: any Re zeta >= 0
    but zeta = 0.

    This is the evolution engine, and it never forms the twisted
    convolution: on a lam-slice the kernel q_zeta^lam acts as the multiplier
    e^{-(2k+n)|lam| zeta} on the Laguerre projections P_k.  The slice's live
    angular modes m come from `grids.angular_modes`, as the twisted
    interpolant's do; each mode's radial profile is projected on
    r^|m| L_j^|m|(|lam| r^2/2) e^{-|lam| r^2/4} with the grid's own radial
    weights, one degree per radial node; coefficient (m, j) lies in P_k with
    k = j plus the degree at which m's bidegree (max(m, 0), max(-m, 0))
    starts (`spherical._sector_shift`); the evolved modes are resynthesised
    on the grid nodes, where the two halves of an even angle count's Nyquist
    bin, each evolved with its own shift, meet on one column.  The basis is
    built for each live order |m| alone, by one banded solve, and the other
    modes of the result are 0.  A radial slice evolves one mode.  At Re zeta = 0 the multiplier has
    modulus 1, the flow is unitary, and it resolves only what the grid's
    Laguerre expansion resolves, which the truncation warning reports.  The
    grid twisted convolution in `twisted` is the oracle this is tested
    against, never a fallback.
    """
    zeta = complex_time(zeta)
    grid = f.grid
    one_dimensional(grid.n, "spectral evolution")
    nonzero("central frequency lam", f.lam)
    finite_array("values of slice f", f.values)
    warn_truncated("slice has not decayed at r_max; the Laguerre projection is truncated",
                   float(np.max(np.abs(f.values[-1]))), float(np.max(np.abs(f.values))), 1e-8)
    m, c = angular_modes(f.values)
    order = np.abs(m)
    shift = _sector_shift(f.lam, np.maximum(m, 0), np.maximum(-m, 0))
    degrees = grid.r.size
    weighted = (grid.r_weights * grid.r)[:, None] * c
    j = np.arange(degrees)[:, None]
    out = np.zeros_like(f.values)
    for a in np.unique(order):
        cols = np.flatnonzero(order == a)
        basis = _laguerre_basis(f.lam, grid.r, degrees, a)
        coef = basis @ weighted[:, cols]
        coef *= np.exp(-(2 * (j + shift[cols]) + 1) * abs(f.lam) * zeta)
        # the two halves of a Nyquist bin land on one column
        np.add.at(out, (slice(None), m[cols] % out.shape[1]), basis.T @ coef)
    return SpectralSlice(f.lam, grid, np.fft.ifft(out, axis=1, norm="forward"))


def _ratio_stats(lhs_vals, rhs_vals, mask=None):
    rhs_abs = np.abs(rhs_vals)
    keep = rhs_abs > 1e-8 * float(rhs_abs.max(initial=0.0))
    if mask is not None:
        keep &= mask
    if not keep.any():
        raise ValueError("rhs is degenerate: every node is below threshold")
    ratio = np.asarray(lhs_vals)[keep] / np.asarray(rhs_vals)[keep]
    mean = complex(np.mean(ratio))
    rel_std = float(np.sqrt(np.mean(np.abs(ratio - mean) ** 2)) / abs(mean))
    return {"c_lambda": mean, "rel_std": rel_std, "nodes": int(keep.sum())}


def theorem34_pair(f, t_nodes, p0, q0, j0, lam, s0, grid, t_weights=None):
    """Grid pipelines for both sides of the sector-Hankel identity.

    f samples f(z, t) on grid x t_nodes.  lhs: slice f at lam, evolve
    by the unitary flow to time s0 (zeta = i s0), extract the (p0, q0, j0)
    radial coefficient.  rhs: extract the same coefficient of the initial
    slice, strip t^{p0+q0}, chirp by e^{i lam t^2 cot(lam s0)/4},
    Hankel-transform at order n+p0+q0-1, read at |lam| r / (2|sin(lam s0)|),
    chirp again, restore r^{p0+q0}.

    Returns (lhs, rhs, stats); stats reports the empirical constant linking
    the two and the relative spread of the pointwise ratio, computed over
    0.2 <= r <= 3 wherever |rhs| clears 1e-8 of its peak.
    """
    _reject_exceptional(lam, s0)
    integer("p0", p0, 0)
    integer("q0", q0, 0)
    integer("j0", j0, 0)
    fsl = partial_fourier_t(f, lam, grid, t_nodes, t_weights)
    basis = build_basis(grid.n, p0, q0)
    u = schrodinger_evolve(fsl, complex(0.0, s0))
    lhs = spherical_coefficients(u, basis, j0)

    coef = spherical_coefficients(fsl, basis, j0)
    r = grid.r
    chirp = np.exp(0.25j * lam * r * r / math.tan(lam * s0))
    stripped = coef.values / r ** (p0 + q0) * chirp
    plan = HankelPlan(grid.n + p0 + q0 - 1, r, grid.r_weights)
    kappa = abs(lam / (2.0 * math.sin(lam * s0)))
    hank = hankel_transform(plan, stripped, kappa * r)
    rhs = RadialProfile(r, r ** (p0 + q0) * chirp * hank.values,
                        weights=grid.r_weights, weight_power=2 * grid.n - 1)

    return lhs, rhs, _ratio_stats(lhs.values, rhs.values, (r >= 0.2) & (r <= 3.0))


def theorem34_gaussian_pair(a, lam, s0, r=None):
    """Closed-form twin of theorem34_pair for f = q_a, sector (0, 0).

    lhs comes from the complex-time semigroup (q_a evolved to time s0 is the
    q_{a+i s0} slice); rhs from the complex-Gaussian Hankel transform
    H_0(e^{-c t^2})(s) = (2c)^{-1} e^{-s^2/(4c)}.  No grids, no convolution:
    this is the independent analytic pipeline.  Past |lam a| = 710 the rhs
    is below double range, and its ratio raises as degenerate.
    """
    positive("a", a)
    _reject_exceptional(lam, s0)
    r = vector("radii r", np.linspace(0.2, 3.0, 57) if r is None else r)
    integer("number of radii r", r.size)
    root2pi = math.sqrt(2.0 * math.pi)
    lhs_vals = root2pi * heat_kernel_lambda(complex(a, s0), lam, r, 1)

    chirp = np.exp(0.25j * lam * r * r / math.tan(lam * s0))
    c = 0.25 * lam / math.tanh(lam * a) - 0.25j * lam / math.tan(lam * s0)
    try:
        amp = root2pi * (4.0 * math.pi) ** -1 * (lam / math.sinh(lam * a))
    except OverflowError:       # |lam a| > 710: the amplitude is below double range
        amp = 0.0
    kappa = abs(lam / (2.0 * math.sin(lam * s0)))
    rhs_vals = chirp * amp / (2.0 * c) * np.exp(-((kappa * r) ** 2) / (4.0 * c))

    lhs = RadialProfile(r, lhs_vals)
    rhs = RadialProfile(r, rhs_vals)
    return lhs, rhs, _ratio_stats(lhs_vals, rhs_vals)


def kernel_K(lam, r, t, s0, n, p0, q0):
    """The sector kernel both as its Laguerre series and in closed form.

    series: sum_{k <= 400} Gamma(k+1)/Gamma(k+m) L_k^{m-1}(x)
    L_k^{m-1}(y) w^k with x = |lam| r^2/2, y = |lam| t^2/2,
    w = e^{-2i|lam|s0} on the unit circle (the Abel sum), times e^{-(x+y)/2}
    and the sector phase e^{-i(n+2d)|lam|s0}, where the sector starts at
    Laguerre degree d = p0 for lam > 0 and d = q0 for lam < 0
    (`spherical._sector_shift`).
    closed, as the paper writes it and without that rule:
    e^{i lam s0 (q0-p0)} (2i sin(|lam|s0))^{-m}
    e^{i lam (r^2+t^2) cot(lam s0)/4} Jt_{m-1}(lam r t/(2 sin(lam s0))),
    m = n+p0+q0.  Returns (series, closed).  ExceptionalLambdaError where
    |sin(lam s0)| <= 1e-6, where |sin(|lam| s0)| < 0.02 (there w lies within
    0.04 of 1, where the series' tail resummation does not go), and where
    that resummation has not settled, as it may not some way further off.
    """
    _reject_exceptional(lam, s0)
    real("r", r)
    real("t", t)
    integer("dimension n", n)
    integer("p0", p0, 0)
    integer("q0", q0, 0)
    m = n + p0 + q0
    mu = abs(lam) * s0
    x = 0.5 * abs(lam) * r * r
    y = 0.5 * abs(lam) * t * t
    w = np.exp(-2j * mu)
    # |1 - w| = 2 |sin(|lam| s0)|: the series' resummation needs it >= 0.04
    if abs(1.0 - w) < _RIM_GAP:
        raise ExceptionalLambdaError(
            f"lam = {lam!r} is too near an exceptional frequency for s0 = {s0!r}: the "
            f"Laguerre series needs |sin(|lam| s0)| >= {_RIM_GAP / 2:g}, got {abs(math.sin(mu)):.6g}")
    try:
        total = laguerre_series_sum(m - 1, x, y, w, 400)
    except _UnsettledTail as exc:
        raise ExceptionalLambdaError(
            f"lam = {lam!r} is too near an exceptional frequency for s0 = {s0!r}: the "
            f"Laguerre series has not settled at |sin(|lam| s0)| = {abs(math.sin(mu)):.6g}"
        ) from exc
    shift = _sector_shift(lam, p0, q0)
    series = np.exp(-1j * (n + 2 * shift) * mu) * np.exp(-0.5 * (x + y)) * total
    arg = lam * r * t / (2.0 * math.sin(lam * s0))
    closed = (np.exp(1j * lam * s0 * (q0 - p0)) * (2j * math.sin(mu)) ** (-m)
              * np.exp(0.25j * lam * (r * r + t * t) / math.tan(lam * s0))
              * jtilde_of_square(m - 1, arg * arg))
    return complex(series), complex(closed)


def uniqueness_gate(a, b, s0, eps=0.0, lam=0.0):
    """Margin of the central decay inequality for decay rates a, b > 0,
    time s0 != 0, shift eps >= 0 and frequency lam >= 0, and True when the Hardy
    rule finds it supercritical (False in its critical band, where the margin may
    be positive): that forces the sector coefficients to vanish.

    margin = [1/(4(a+eps))] [s0^2/(4(b+eps))] [2 sin(lam s0)/(lam s0)]^2 - 1/4
    with the lam = 0 limit of the bracket equal to 4.  Where that formula leaves
    double range, the margin is P - 1/4 from the Hardy rule's log sum (inf where
    P does), so it never raises.
    """
    positive("decay rate a", a)
    positive("decay rate b", b)
    nonzero("s0", s0)
    finite("eps", eps, nonnegative=True)
    finite("lam", lam, nonnegative=True)
    x = lam * s0
    # the lam -> 0 limit, also where lam s0 underflows to 0
    osc = 4.0 if x == 0 else (2.0 * math.sin(x) / x) ** 2
    rates, over = (abs(s0), abs(s0), osc), (16.0, a + eps, b + eps)
    try:
        margin = (1.0 / (4.0 * (a + eps))) * (s0 ** 2 / (4.0 * (b + eps))) * osc - 0.25
    except OverflowError:       # s0 ** 2 past double range
        margin = math.nan
    return _margin(margin, rates, over), _verdict(rates, over) == "supercritical"


def gate_lambda_window(a, b, s0, eps=0.0):
    """Largest delta with positive margin on the whole window (0, delta).

    Returns None when uniqueness_gate finds the lam -> 0 limit not supercritical
    (no window exists, also in the critical band).  The margin is strictly decreasing
    in lam on (0, pi/|s0|) and is negative at the endpoint, so bisection applies.
    """

    def margin(lam):
        return uniqueness_gate(a, b, s0, eps, lam)[0]

    if not uniqueness_gate(a, b, s0, eps)[1]:
        return None
    lo, hi = 0.0, math.pi / abs(s0)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if margin(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def equality_case_profile(a, lam, s0):
    """The boundary-case slice, its evolved width, and the sharp relation.

    Assembles f^lam(z) = q_a^lam(z) e^{-i lam |z|^2 cot(lam s0)/4} (the
    extremal, with its free constant set to 1) on the default polar grid,
    its radius grown past 8 to where q_a^lam is 1e-9 of its peak (8.94 at
    a = 2, lam = 1, where r = 8 leaves 6.2e-8 and the truncation warning
    fires), evolves it by the unitary flow to time s0, fits the Gaussian
    decay of |u^lam| over 1 <= r <= 4, converts the raw rate rho back to the
    hyperbolic width b' via tanh(b' lam) = |lam|/(4 rho), and returns
    (f_slice, b', |tanh(a lam) tanh(b' lam) - sin^2(lam s0)|).
    """
    positive("a", a)
    nonzero("lam", lam)
    _reject_exceptional(lam, s0)
    # q_a^lam decays as e^{-rho r^2}, rho = |lam| coth(a |lam|) / 4
    decay = abs(lam) / (4.0 * math.tanh(a * abs(lam)))
    grid = polar_grid(r_max=max(8.0, math.sqrt(_EQUALITY_DECAY / decay)))
    r = grid.r
    vals = heat_kernel_lambda(a, lam, r, grid.n) \
        * np.exp(-0.25j * lam * r * r / math.tan(lam * s0))
    f_slice = radial_slice(grid, lam, vals)
    u = schrodinger_evolve(f_slice, complex(0.0, s0))
    prof = RadialProfile(r, np.mean(np.abs(u.values), axis=1))
    rho = fit_gaussian_decay(prof, (1.0, 4.0)).a
    if 4.0 * rho <= abs(lam):
        raise DecayDomainError(
            f"fitted rate {rho:.4g} is outside the width domain for lam = {lam!r}")
    b_fit = math.atanh(abs(lam) / (4.0 * rho)) / abs(lam)
    residual = abs(math.tanh(a * lam) * math.tanh(b_fit * lam) - math.sin(lam * s0) ** 2)
    return f_slice, b_fit, residual
