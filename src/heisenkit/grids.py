"""Radial and polar grids shared by the slice-level modules.

A RadialProfile is a sampled function of r > 0 together with the plain-dr
quadrature weights of its grid and the power of r its natural measure
carries (2n-1 for profiles meant to be integrated over C^n).

A PolarGrid is a product of Gauss-Legendre radii and a sphere rule on
S^{2n-1}; n = 1 uses the uniform circle (spectrally exact), n = 2 a product
rule on S^3 exact through polynomial degree ~24.  `radial_slice` and
`partial_fourier_t` build the SpectralSlices sampled on them.
"""

from dataclasses import dataclass

import numpy as np

from ._checks import finite, finite_array, positive, quadrature_weights
from .quadrature import gauss_interval, trapezoid_weights, warn_truncated


@dataclass
class RadialProfile:
    r: np.ndarray
    values: np.ndarray
    weights: np.ndarray | None = None
    weight_power: float = 0.0

    def __post_init__(self):
        self.r = finite_array("radii r", self.r, nonnegative=True)
        self.values = np.asarray(self.values)
        if self.r.ndim != 1 or self.values.shape != self.r.shape:
            raise ValueError("values must be sampled on the radial grid")
        if np.any(np.diff(self.r) <= 0):
            raise ValueError("radii must be strictly increasing")
        if self.weights is not None:
            self.weights = np.asarray(self.weights, dtype=float)
            if self.weights.shape != self.r.shape:
                raise ValueError("weights must match the radial grid")

    def integrate(self):
        """Integral of values * r^weight_power dr on the stored grid."""
        return np.sum(quadrature_weights(self) * self.values * self.r ** self.weight_power)


def radial_rule(nr=128, r_max=8.0):
    """Gauss-Legendre nodes/weights on [0, r_max] (plain dr weights)."""
    positive("r_max", r_max)
    if nr < 2:
        raise ValueError("need at least 2 nodes")
    return gauss_interval(0.0, r_max, nr)


def circle_rule(m=64):
    theta = 2.0 * np.pi * np.arange(m) / m
    omega = np.exp(1j * theta)[:, None]
    weights = np.full(m, 2.0 * np.pi / m)
    return theta, omega, weights


def s3_rule(m_angles=28, m_u=14):
    """Product rule on S^3: z = (sqrt(1-u) e^{i a}, sqrt(u) e^{i b}).

    Exact for monomials of total degree <= min(m_angles-1, 2*m_u-1) in each
    angular mode; weights sum to 2 pi^2.
    """
    u, wu = gauss_interval(0.0, 1.0, m_u)
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
    return 2.0 * pi ** n / gamma(n)


@dataclass(frozen=True)
class PolarGrid:
    n: int
    r: np.ndarray
    r_weights: np.ndarray
    omega: np.ndarray           # (ns, n) complex unit vectors
    omega_weights: np.ndarray
    r_max: float

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
            raise ValueError(f"slice values must have shape {shape}, got {vals.shape}")
        area = sphere_area(self.grid.n)
        if abs(float(np.sum(self.grid.omega_weights)) - area) > 1e-12 * area:
            raise ValueError("sphere weights do not sum to the surface area")
        finite("lam", self.lam)
        object.__setattr__(self, "lam", float(self.lam))
        object.__setattr__(self, "values", vals)

    @property
    def n(self):
        return self.grid.n

    def norm2(self):
        """L^2(C^n) norm of the slice under the grid measure."""
        return float(np.sqrt(np.sum(self.grid.measure() * np.abs(self.values) ** 2)))


def live_modes(spec):
    """The angular modes that a slice carries: a mask over the columns of
    its (r, m) DFT table, true where the mode's largest amplitude reaches
    1e-15 of the table's.  A radial slice keeps m = 0 alone."""
    amp = np.max(np.abs(spec), axis=0)
    return amp >= 1e-15 * np.max(amp)


def radial_slice(grid, lam, values):
    """Slice whose values depend on |z| only; values is an array on grid.r
    or a callable of r."""
    v = np.asarray(values(grid.r) if callable(values) else values, dtype=complex)
    if v.shape != grid.r.shape:
        raise ValueError("radial values must be sampled on grid.r")
    return SpectralSlice(lam, grid, np.repeat(v[:, None], grid.omega.shape[0], axis=1))


def partial_fourier_t(values, lam, grid, t_nodes, t_weights=None):
    """f^lam(z) = int e^{i lam t} f(z, t) dt from samples on grid x t_nodes.

    Real samples stay real: the t contraction runs against the real and the
    imaginary part of the phase, which by linearity is the complex
    contraction for complex samples too.  A non-finite lam, t node, t weight
    or sample raises ValueError; the samples are searched only when the
    slice comes out non-finite.
    """
    finite("lam", lam)
    values = np.asarray(values)
    values = values.astype(np.result_type(values, float), copy=False)
    t_nodes = finite_array("t nodes", t_nodes)
    expected = (grid.r.size, grid.omega.shape[0], t_nodes.size)
    if values.shape != expected:
        raise ValueError(f"need samples of shape {expected}, got {values.shape}")
    if t_weights is None:
        t_weights = trapezoid_weights(t_nodes)
    t_weights = finite_array("t weights", t_weights)
    phase = t_weights * np.exp(1j * lam * t_nodes)
    # a non-finite slice raises below, so numpy's warnings would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        sliced = values @ phase.real + 1j * (values @ phase.imag)
    if not np.all(np.isfinite(sliced)):
        finite_array("samples of f", values)
        raise ValueError("the t integral of f overflows")
    peak = (np.max(np.abs(values)) if np.iscomplexobj(values)
            else max(values.max(), -values.min()))
    warn_truncated("f has not decayed at the ends of the t grid; the t integral is truncated",
                   float(np.max(np.abs(values[..., [0, -1]]))), float(peak), 1e-10)
    return SpectralSlice(lam, grid, sliced)


def polar_grid(n=1, nr=128, r_max=8.0, nsphere=None):
    if n == 1:
        nsphere = 64 if nsphere is None else nsphere
        r, wr = radial_rule(nr, r_max)
        _, omega, ww = circle_rule(nsphere)
        return PolarGrid(1, r, wr, omega, ww, float(r_max))
    if n == 2:
        m = 28 if nsphere is None else nsphere
        r, wr = radial_rule(nr, r_max)
        omega, ww = s3_rule(m_angles=m, m_u=max(14, m // 2))
        return PolarGrid(2, r, wr, omega, ww, float(r_max))
    raise ValueError("polar grids are implemented for n in {1, 2}")
