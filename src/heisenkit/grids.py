"""Radial and polar grids shared by the slice-level modules.

A RadialProfile is a sampled function of r > 0 together with the plain-dr
quadrature weights of its grid and the power of r its natural measure
carries (2n-1 for profiles meant to be integrated over C^n).

A PolarGrid is a product of Gauss-Legendre radii and a sphere rule on
S^{2n-1}; n = 1 uses the uniform circle (spectrally exact), n = 2 a product
rule on S^3 exact through polynomial degree ~24.  `radial_slice` and
`partial_fourier_t` build the SpectralSlices sampled on them.
`angular_modes` is the one angular spectrum of an n = 1 slice, from which
the evolution engine and the grid twisted convolution read which signed
modes the slice carries.
"""

from dataclasses import dataclass

import numpy as np

from ._checks import (NonFiniteResult, finite_array, integer, positive, quadrature_weights, real,
                      shapes, vector)
from .quadrature import gauss_panels, trapezoid_weights, warn_truncated


@dataclass
class RadialProfile:
    r: np.ndarray
    values: np.ndarray
    weights: np.ndarray | None = None
    weight_power: float = 0.0

    def __post_init__(self):
        # values may hold NaN, which fit_gaussian_decay masks: integrals check them
        self.r = vector("radii r", self.r, nonnegative=True, increasing=True)
        self.values = np.asarray(self.values)
        shapes(("values", "radii r"), self.values, self.r)
        if self.weights is not None:
            self.weights = finite_array("weights", self.weights)
            shapes(("weights", "radii r"), self.weights, self.r)
        real("weight_power", self.weight_power)

    def integrate(self):
        """Integral of values * r^weight_power dr on the stored grid."""
        values = finite_array("values", self.values)
        return np.sum(quadrature_weights(self) * values * self.r ** self.weight_power)


def radial_rule(nr=128, r_max=8.0):
    """Gauss-Legendre nodes/weights on [0, r_max] (plain dr weights)."""
    positive("r_max", r_max)
    integer("nr", nr, 2)
    return gauss_panels(0.0, r_max, 1, nr)


def circle_rule(m=64):
    integer("m", m)
    theta = 2.0 * np.pi * np.arange(m) / m
    omega = np.exp(1j * theta)[:, None]
    weights = np.full(m, 2.0 * np.pi / m)
    return theta, omega, weights


def s3_rule(m_angles=28, m_u=14):
    """Product rule on S^3: z = (sqrt(1-u) e^{i a}, sqrt(u) e^{i b}).

    Exact for monomials of total degree <= min(m_angles-1, 2*m_u-1) in each
    angular mode; weights sum to 2 pi^2.
    """
    integer("m_angles", m_angles)
    integer("m_u", m_u)
    u, wu = gauss_panels(0.0, 1.0, 1, m_u)
    a = 2.0 * np.pi * np.arange(m_angles) / m_angles
    b = 2.0 * np.pi * np.arange(m_angles) / m_angles
    U, A, B = np.meshgrid(u, a, b, indexing="ij")
    omega = np.stack([np.sqrt(1.0 - U) * np.exp(1j * A),
                      np.sqrt(U) * np.exp(1j * B)], axis=-1).reshape(-1, 2)
    w_angle = (2.0 * np.pi / m_angles) ** 2
    weights = (0.5 * wu[:, None, None] * w_angle
               * np.ones((m_u, m_angles, m_angles))).ravel()
    # surface measure of S^3 is 2 pi^2; the 1/2 above is the Jacobian du part
    return omega, weights


def sphere_area(n):
    """Surface measure of S^{2n-1}: 2 pi^n / Gamma(n)."""
    from math import gamma, pi
    integer("n", n)
    return 2.0 * pi ** n / gamma(n)


@dataclass(frozen=True)
class PolarGrid:
    n: int
    r: np.ndarray
    r_weights: np.ndarray
    omega: np.ndarray           # (ns, n) complex unit vectors
    omega_weights: np.ndarray
    r_max: float

    def __post_init__(self):
        integer("n", self.n, allowed=(1, 2))
        for name in ("r", "r_weights", "omega"):
            finite_array(name, getattr(self, name))
        positive("r_max", self.r_max)
        area = sphere_area(self.n)
        if not abs(float(np.sum(self.omega_weights)) - area) <= 1e-12 * area:
            raise ValueError("omega_weights must sum to the area of the sphere")

    def measure(self):
        """(nr, ns) weights for integration over C^n in polar form."""
        return (self.r_weights * self.r ** (2 * self.n - 1))[:, None] * self.omega_weights[None, :]

    def points(self):
        """(nr, ns, n) complex coordinates of all grid nodes."""
        return self.r[:, None, None] * self.omega[None, :, :]

    def same_as(self, other):
        return (self.n == other.n and self.r.shape == other.r.shape
                and self.omega.shape == other.omega.shape
                and np.array_equal(self.r, other.r)
                and np.array_equal(self.omega, other.omega))


@dataclass(frozen=True)
class SpectralSlice:
    """A central-frequency slice f^lam sampled on a polar grid of C^n."""
    lam: float
    grid: PolarGrid
    values: np.ndarray          # (nr, ns) complex

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        shape = (self.grid.r.size, self.grid.omega.shape[0])
        if vals.shape != shape:
            raise ValueError(f"values must have shape {shape}, got {vals.shape}")
        real("lam", self.lam)
        object.__setattr__(self, "lam", float(self.lam))
        object.__setattr__(self, "values", vals)

    @property
    def n(self):
        return self.grid.n

    def norm2(self):
        """L^2(C^n) norm of the slice under the grid measure."""
        values = finite_array("values of the slice", self.values)
        return float(np.sqrt(np.sum(self.grid.measure() * np.abs(values) ** 2)))


def angular_modes(values):
    """The live angular spectrum of (r, angle) values on na uniform angles:
    signed modes m and coefficients c with values[:, d] =
    sum_m c[:, m] e^{2 pi i m d / na}.  An even na's Nyquist bin is split
    into halves at m = -na/2 and na/2, as in zero-padded resampling.  A mode
    is live where its largest |c| reaches 1e-15 of the table's; a radial
    slice keeps m = 0 alone."""
    na = values.shape[1]
    c = np.fft.fft(values, axis=1) / na
    m = np.rint(np.fft.fftfreq(na, 1.0 / na)).astype(int)
    if na % 2 == 0:
        c[:, na // 2] /= 2.0
        c = np.hstack([c, c[:, na // 2:na // 2 + 1]])
        m = np.append(m, na // 2)
    amp = np.max(np.abs(c), axis=0)
    live = amp >= 1e-15 * np.max(amp)
    return m[live], c[:, live]


def radial_slice(grid, lam, values):
    """Slice whose values depend on |z| only; values is an array on grid.r
    or a callable of r."""
    v = finite_array("values", np.asarray(values(grid.r) if callable(values) else values,
                                          dtype=complex))
    shapes(("values", "grid.r"), v, grid.r)
    return SpectralSlice(lam, grid, np.repeat(v[:, None], grid.omega.shape[0], axis=1))


def partial_fourier_t(f, lam, grid, t_nodes, t_weights=None):
    """f^lam(z) = int e^{i lam t} f(z, t) dt from the samples f on grid x t_nodes.

    Real samples stay real: the t contraction runs against the real and the
    imaginary part of the phase, which by linearity is the complex
    contraction for complex samples too.  The samples are searched for a
    non-finite entry only when the slice comes out non-finite.
    """
    real("lam", lam)
    f = np.asarray(f)
    f = f.astype(np.result_type(f, float), copy=False)
    t_nodes = finite_array("t nodes", t_nodes)
    expected = (grid.r.size, grid.omega.shape[0]) + t_nodes.shape
    if f.shape != expected:
        raise ValueError(f"samples of f and t nodes must agree, got {f.shape} for {expected}")
    if t_weights is None:
        t_weights = trapezoid_weights(t_nodes)
    t_weights = finite_array("t weights", t_weights)
    shapes(("t weights", "t nodes"), t_weights, t_nodes)
    phase = t_weights * np.exp(1j * lam * t_nodes)
    # a non-finite slice raises below, so numpy's warnings would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        sliced = f @ phase.real + 1j * (f @ phase.imag)
    if not np.all(np.isfinite(sliced)):
        finite_array("samples of f", f)
        raise NonFiniteResult("the t integral of f overflows")
    peak = np.max(np.abs(f)) if np.iscomplexobj(f) else max(f.max(), -f.min())
    warn_truncated("f has not decayed at the ends of the t grid; the t integral is truncated",
                   float(np.max(np.abs(f[..., [0, -1]]))), float(peak), 1e-10)
    return SpectralSlice(lam, grid, sliced)


def polar_grid(n=1, nr=128, r_max=8.0, nsphere=None):
    integer("n", n, allowed=(1, 2))
    nsphere = (64 if n == 1 else 28) if nsphere is None else nsphere
    integer("nsphere", nsphere)
    r, wr = radial_rule(nr, r_max)
    if n == 1:
        _, omega, ww = circle_rule(nsphere)
    else:
        omega, ww = s3_rule(m_angles=nsphere, m_u=max(14, nsphere // 2))
    return PolarGrid(n, r, wr, omega, ww, float(r_max))
