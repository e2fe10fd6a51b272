"""Bigraded solid harmonics on C^n (n <= 2) and the orthonormal sphere basis.

A solid harmonic of bidegree (p, q) is a polynomial sum of monomials
z^alpha conj(z)^beta with |alpha| = p, |beta| = q annihilated by the
Laplacian of R^{2n}.  All polynomial algebra here is exact (Fraction
coefficients): a monomial's harmonic part comes from the closed-form
projection sum over its iterated Laplacians, and Gram-Schmidt runs over
rationals using the closed-form sphere integrals

    int_{S^{2n-1}} z^gamma conj(z)^delta dsigma
        = [gamma == delta] * 2 pi^n gamma! / (n - 1 + |gamma|)!

so orthogonality of the constructed basis holds to machine precision by
construction, not by quadrature.  Only the final normalization constant is a
float.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np

from ._checks import finite_array, integer, integer_array, shapes
from .grids import RadialProfile, SpectralSlice, circle_rule, s3_rule

# ---------------------------------------------------------------------------
# exact polynomial layer: {(alpha, beta): Fraction}


def _multi_indices(n, total):
    if n == 1:
        return [(total,)]
    return [(a,) + rest for a in range(total, -1, -1)
            for rest in _multi_indices(n - 1, total - a)]


def monomial_keys(n, p, q):
    """Lexicographic (alpha, beta) exponent pairs of bidegree (p, q)."""
    return sorted(product(_multi_indices(n, p), _multi_indices(n, q)))


def laplacian_terms(terms, n):
    """Exact coefficients of Delta P for P given as an exponent->Fraction map.

    Delta = 4 sum_j d^2/(dz_j d conj(z)_j) on monomials: the (j-th) term drops
    one power of z_j and conj(z)_j each and picks up 4 alpha_j beta_j.
    """
    out = {}
    for (alpha, beta), c in terms.items():
        for j in range(n):
            if alpha[j] and beta[j]:
                key = (alpha[:j] + (alpha[j] - 1,) + alpha[j + 1:],
                       beta[:j] + (beta[j] - 1,) + beta[j + 1:])
                out[key] = out.get(key, Fraction(0)) + 4 * alpha[j] * beta[j] * c
    return {k: v for k, v in out.items() if v}


def _times_r2(terms, n):
    """|z|^2 * P, exactly."""
    out = {}
    for (alpha, beta), c in terms.items():
        for j in range(n):
            key = (alpha[:j] + (alpha[j] + 1,) + alpha[j + 1:],
                   beta[:j] + (beta[j] + 1,) + beta[j + 1:])
            out[key] = out.get(key, Fraction(0)) + c
    return out


def sphere_inner_exact(a_terms, b_terms, n):
    """<A, B> on S^{2n-1} divided by pi^n, as an exact Fraction.

    Coefficients are assumed rational (real), so conjugating B only swaps its
    exponent pair.
    """
    acc = Fraction(0)
    for (alpha, beta), ca in a_terms.items():
        for (gamma, delta), cb in b_terms.items():
            ee = tuple(x + y for x, y in zip(alpha, delta))
            if ee != tuple(x + y for x, y in zip(beta, gamma)):
                continue
            num = 2 * math.prod(math.factorial(e) for e in ee)
            acc += ca * cb * Fraction(num, math.factorial(n - 1 + sum(ee)))
    return acc


def harmonic_part(n, alpha, beta):
    """Harmonic component H of m = z^alpha conj(z)^beta in m = H + |z|^2 Q.

    With d = |alpha| + |beta| and N = 2n, the projection has the closed form

        H = sum_j (-1)^j |z|^{2j} Delta^j m / (2^j j! prod_{i<j} (N + 2d - 4 - 2i)),

    which stops at the first j with Delta^j m = 0 (Axler, Bourdon & Ramey,
    Harmonic Function Theory, ch. 5).
    """
    integer("n", n)
    alpha, beta = (tuple(integer_array(name, e, 0).tolist()) for name, e in
                   (("alpha", alpha), ("beta", beta)))
    shapes(("alpha", "beta", "the n coordinates"), alpha, beta, range(n))
    d = sum(alpha) + sum(beta)
    powers = [{(tuple(alpha), tuple(beta)): Fraction(1)}]
    while powers[-1]:
        powers.append(laplacian_terms(powers[-1], n))
    coeffs = [Fraction(1)]
    for j in range(1, len(powers) - 1):
        coeffs.append(-coeffs[-1] / (2 * j * (2 * n + 2 * d - 2 - 2 * j)))
    # Horner in |z|^2, from the highest Laplacian power down
    out = {}
    for c, lap in zip(reversed(coeffs), reversed(powers[:-1])):
        out = _times_r2(out, n)
        for key, v in lap.items():
            out[key] = out.get(key, Fraction(0)) + c * v
    out = {k: v for k, v in out.items() if v}
    if laplacian_terms(out, n):
        raise AssertionError("harmonic projection left a nonzero Laplacian")
    return out


# ---------------------------------------------------------------------------
# the orthonormal basis


@dataclass(frozen=True)
class SolidHarmonic:
    """P(z) = scale * sum c z^alpha conj(z)^beta, harmonic, unit sphere norm.

    Calling it evaluates the solid harmonic itself, so values at r*omega are
    r^{p+q} times the sphere values Y(omega).
    """
    n: int
    p: int
    q: int
    terms: tuple               # ((alpha, beta), Fraction) pairs, lex order
    scale: float

    def laplacian(self):
        """Exact Laplacian coefficients; empty dict for a true harmonic."""
        return laplacian_terms(dict(self.terms), self.n)

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        if self.n == 1 and (z.ndim == 0 or z.shape[-1] != 1):
            z = z[..., None]
        integer("number of coordinates of points z", z.shape[-1], allowed=(self.n,))
        out = np.zeros(z.shape[:-1], dtype=complex)
        for (alpha, beta), c in self.terms:
            term = np.full(z.shape[:-1], float(c), dtype=complex)
            for i, a in enumerate(alpha):
                if a:
                    term *= z[..., i] ** a
            for i, b in enumerate(beta):
                if b:
                    term *= np.conj(z[..., i]) ** b
            out += term
        return out * self.scale


@dataclass(frozen=True)
class BigradedBasis:
    n: int
    p: int
    q: int
    elements: tuple            # SolidHarmonic, the Y_{p,q}^j in j order
    sphere_nodes: np.ndarray   # (ns, n) unit vectors
    sphere_weights: np.ndarray

    @property
    def dimension(self):
        return len(self.elements)

    def element(self, j):
        """Y^j, for the 1-based j of the enumeration Y^1 ... Y^d(p, q)."""
        integer("index j", j, 0)
        if not 1 <= j <= self.dimension:
            raise IndexError(f"j must lie in 1..{self.dimension}, got {j}")
        return self.elements[j - 1]

    def gram(self):
        """Quadrature Gram matrix of the restrictions; identity if all went well."""
        vals = np.stack([y(self.sphere_nodes) for y in self.elements])
        return np.einsum("is,js,s->ij", vals, np.conj(vals), self.sphere_weights)


def build_basis(n, p, q):
    """Orthonormal basis of the bidegree (p, q) sphere harmonics.

    Each monomial of bidegree (p, q) is projected to its harmonic part, then
    the projections are orthonormalized by exact Gram-Schmidt in lexicographic
    monomial order, dropping exact zeros; d(p, q) falls out as the count of
    survivors.
    """
    integer("n", n, allowed=(1, 2))
    integer("p", p, 0)
    integer("q", q, 0)
    kept = []                  # (terms, norm^2 / pi^n) pairs
    for alpha, beta in monomial_keys(n, p, q):
        v = harmonic_part(n, alpha, beta)
        for e_terms, e_nn in kept:
            c = sphere_inner_exact(v, e_terms, n) / e_nn
            if c:
                for kk, vv in e_terms.items():
                    v[kk] = v.get(kk, Fraction(0)) - c * vv
        v = {k: c for k, c in v.items() if c}
        if not v:
            continue
        kept.append((v, sphere_inner_exact(v, v, n)))
    elements = []
    for terms, nn in kept:
        scale = 1.0 / math.sqrt(float(nn) * math.pi ** n)
        elements.append(SolidHarmonic(n, p, q, tuple(sorted(terms.items())), scale))
    if n == 1:
        _, nodes, weights = circle_rule()
    else:
        nodes, weights = s3_rule()
    return BigradedBasis(n, p, q, tuple(elements), nodes, weights)


def spherical_coefficients(f, basis, j):
    """Radial coefficient f_{p,q,j}(r) = int f(r omega) conj(Y^j(omega)) dsigma.

    j is 1-based, following the basis enumeration Y^1 ... Y^{d(p,q)}.  The
    integral runs over the slice's own sphere nodes.
    """
    if not isinstance(f, SpectralSlice):
        raise TypeError("f must be a SpectralSlice")
    integer("dimension n of the basis", basis.n, allowed=(f.n,))
    y = np.conj(basis.element(j)(f.grid.omega))
    coeff = finite_array("values of slice f", f.values) @ (f.grid.omega_weights * y)
    return RadialProfile(f.grid.r, coeff, weights=f.grid.r_weights,
                         weight_power=2 * f.n - 1)


def reconstruct(coefficients, bases, grid, lam=0.0):
    """Assemble a slice from {(p, q, j): RadialProfile} and its bases.

    bases maps (p, q) to a BigradedBasis (an iterable of bases is also fine).
    Missing indices contribute nothing, so an empty map gives the zero slice.
    """
    if not isinstance(bases, dict):
        bases = {(b.p, b.q): b for b in bases}
    values = np.zeros((grid.r.size, grid.omega.shape[0]), dtype=complex)
    for (p, q, j), prof in coefficients.items():
        element = bases[(p, q)].element(j)
        if prof.r.shape != grid.r.shape or not np.allclose(prof.r, grid.r):
            raise ValueError("coefficient profiles must share the target radial grid")
        values += np.asarray(prof.values, dtype=complex)[:, None] \
            * element(grid.omega)[None, :]
    return SpectralSlice(lam, grid, values)
