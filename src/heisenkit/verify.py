"""Cross-module verification suites.

Every headline identity in the package is re-run here end to end, with the
measured error recorded against a pinned tolerance.  The CLI `verify`
subcommand and the acceptance tests both call `run_suite`, so they agree by
construction.  Suites are deterministic for a fixed seed.

A suite is a generator of its checks: it yields (id, params, error, tol)
once per check and knows nothing of how a check is recorded.  `run_suite`
times each step from the moment the suite is resumed, so a check's `ms`
also counts the set-up that precedes it in the suite.  It catches every
warning while a suite runs, files on each record the distinct messages
raised since the previous one, and warns all of them again once the suite
is done (also when it raises), so stderr and any outer warning filter or
recorder still see them."""

import math
import sys
import time
import warnings
from dataclasses import dataclass

import numpy as np
import scipy

from . import __version__
from ._checks import integer
from .grids import polar_grid, radial_rule, radial_slice, RadialProfile
from .hankel import fit_gaussian_decay, hankel_plan, hankel_transform, hardy_gate
from .heisenberg import (HeisenbergPoint, heat_kernel, heat_kernel_grid,
                         heat_kernel_lambda)
from .hermite import (gate_boundary_profile, hermite_evolve, hermite_fn,
                      hermite_gate)
from .htype import htype_gate, htype_heat_batch, radon_heat_profile
from .propagator import (ExceptionalLambdaError, GateParams, equality_case_profile,
                         gate_lambda_window, kernel_K, theorem34_gaussian_pair,
                         theorem34_pair, uniqueness_gate)
from .quadrature import gauss_panels
from .specfun import hille_hardy
from .twisted import convolution_rings, hecke_bochner_check

# the versions that produce a report, recorded in each one
_LIBRARIES = {"python": "%d.%d.%d" % sys.version_info[:3],
              "numpy": np.__version__, "scipy": scipy.__version__}


@dataclass(frozen=True)
class CheckRecord:
    id: str
    params: dict
    error: float
    tol: float
    passed: bool
    ms: float
    warnings: tuple = ()        # messages of the warnings the check raised

    def to_dict(self):
        return {"id": self.id, "params": self.params, "error": self.error,
                "tol": self.tol, "pass": self.passed, "ms": self.ms,
                "warnings": list(self.warnings)}


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    checks: tuple

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def to_dict(self):
        return {"suite": self.suite, "version": __version__, "schema": 2,
                "libraries": dict(_LIBRARIES),
                "checks": [c.to_dict() for c in self.checks],
                "pass": self.passed}


def _suite_hankel(rng):
    s = np.linspace(0.0, 5.0, 41)
    worst = 0.0
    for alpha in (0.0, 0.5, 1.0, 2.0):
        plan = hankel_plan(alpha, r_max=9.0, s_max=5.0)
        for a in (0.5, 1.0, 2.0):
            out = hankel_transform(plan, np.exp(-a * plan.r_nodes ** 2), s)
            exact = (2.0 * a) ** (-(alpha + 1.0)) * np.exp(-s * s / (4.0 * a))
            worst = max(worst, float(np.max(np.abs(out.values - exact) / exact)))
    yield ("hankel-gaussian",
           {"alpha": [0.0, 0.5, 1.0, 2.0], "a": [0.5, 1.0, 2.0],
            "s_range": [0.0, 5.0]}, worst, 1e-6)

    worst = 0.0
    for a in np.geomspace(0.1, 10.0, 5):
        # keep the fit window where the transform is far above quadrature noise
        s_max = min(5.0, math.sqrt(32.0 * a))
        plan = hankel_plan(0.0, r_max=max(9.0, math.sqrt(35.0 / a)), s_max=s_max)
        prof = hankel_transform(plan, np.exp(-a * plan.r_nodes ** 2),
                                np.linspace(0.0, s_max, 49)[1:])
        fit = fit_gaussian_decay(prof)
        worst = max(worst, abs(float(a) * fit.a - 0.25))
    yield "hardy-critical-product", {"a": "geomspace(0.1, 10, 5)"}, worst, 1e-6

    axis = np.geomspace(0.1, 10.0, 7)
    bad = 0
    for a in axis:
        for b in axis:
            want = "supercritical" if a * b > 0.25 else "subcritical"
            if hardy_gate(float(a), float(b)) != want:
                bad += 1
    yield "hardy-gate-lattice", {"lattice": "7x7, geomspace(0.1, 10)"}, bad, 0.0


def _suite_hille_hardy(rng):
    xy = np.array([0.0, 1.0, 2.5, 4.0])
    ws = [0.7, -0.7, 0.7j, 0.5 * np.exp(0.25j * np.pi), 0.35 - 0.2j]
    theta = float(rng.uniform(0.0, 2.0 * np.pi))
    ws.append(0.65 * np.exp(1j * theta))
    # every (w, x, y) of the lattice in one call per alpha
    w, x, y = np.ix_(np.array(ws, dtype=complex), xy, xy)
    worst = 0.0
    for alpha in (0.0, 1.0, 2.0):
        lhs, rhs = hille_hardy(alpha, x, y, w)
        worst = max(worst, float(np.max(np.abs(lhs - rhs) / np.abs(rhs))))
    yield ("hille-hardy-interior",
           {"alpha": [0.0, 1.0, 2.0], "xy": xy.tolist(),
            "w_abs_max": 0.7, "seed_theta": theta},
           worst, 1e-6)

    radius = 1.0 - 1e-6
    w = radius * np.exp(1j * np.array([0.5 * np.pi, 2.0 * np.pi / 3.0, np.pi]))[:, None]
    x, y = np.array([0.5, 1.0]), np.array([0.5, 2.0])
    worst = 0.0
    for alpha in (0.0, 1.0, 2.0):
        lhs, rhs = hille_hardy(alpha, x, y, w, K=1500)
        worst = max(worst, float(np.max(np.abs(lhs - rhs) / np.abs(rhs))))
    yield ("hille-hardy-boundary",
           {"alpha": [0.0, 1.0, 2.0], "w_abs": radius,
            "theta": [1.5708, 2.0944, 3.1416]},
           worst, 1e-3)


def _suite_semigroup(rng):
    grid = polar_grid(1, 128, 8.0)
    lam = 1.0
    f = radial_slice(grid, lam, heat_kernel_lambda(0.5, lam, grid.r))
    # only the rings that are compared are summed
    rings = grid.r[grid.r <= 3.0]
    conv = convolution_rings(f, f, rings)
    target = heat_kernel_lambda(1.0, lam, rings)
    scale = float(np.max(np.abs(target)))
    err = float(np.max(np.abs(conv - target[:, None]))) / scale
    yield ("twisted-semigroup", {"n": 1, "lam": 1.0, "grid": "128x64", "r_cut": 3.0},
           err, 1e-6)

    s = 1.0
    r = np.array([0.5, 1.2, 2.0])
    t_nodes, t_w = gauss_panels(-15.0, 15.0, 24, 16)
    q = heat_kernel_grid(s, r[:, None], t_nodes[None, :])
    worst = 0.0
    for lam in (0.5, 1.5):
        num = q @ (t_w * np.exp(1j * lam * t_nodes))
        exact = heat_kernel_lambda(s, lam, r)
        worst = max(worst, float(np.max(np.abs(num - exact) / np.abs(exact))))
    yield ("heat-roundtrip",
           {"s": s, "r": r.tolist(), "lam": [0.5, 1.5],
            "t_window": 15.0}, worst, 1e-6)

    s = 0.6
    pts = [(0.5, 0.2), (1.0, -0.7), (1.8, 1.1),
           (float(rng.uniform(0.3, 1.5)), float(rng.uniform(-1.0, 1.0)))]
    worst = 0.0
    for rho, tt in pts:
        big = heat_kernel(4.0 * s, HeisenbergPoint((2.0 * rho + 0j,), 4.0 * tt))
        ref = heat_kernel(s, HeisenbergPoint((rho + 0j,), tt))
        worst = max(worst, abs(big - ref / 16.0) / abs(ref / 16.0))
    yield ("heat-scaling",
           {"s": s, "dilation": 2.0, "points": [list(p) for p in pts]},
           worst, 1e-8)


def _suite_hecke_bochner(rng):
    nodes, weights = radial_rule(128, 8.0)
    g = RadialProfile(nodes, np.exp(-nodes ** 2), weights=weights)
    zs = (0.9 + 0.0j, 0.7 + 0.5j)

    worst = 0.0
    z_arr = np.array(zs)
    for p, q in ((0, 0), (1, 0), (0, 1)):
        # one interpolant per (p, q) slice serves both degrees, and for (1, 0)
        # also the degree 0 that the annihilation check reads
        ks = (p, p + 1, 0) if (p, q) == (1, 0) else (p, p + 1)
        pairs = hecke_bochner_check(g, p, q, 1, ks, 1.0, 1, z_arr)
        for lhs, rhs in pairs[:2]:
            worst = max(worst, float(np.max(np.abs(lhs - rhs) / np.abs(rhs))))
        if (p, q) == (1, 0):
            annihilated = pairs[2][0]
    yield ("hecke-bochner",
           {"pq": [[0, 0], [1, 0], [0, 1]], "n": 1, "lam": 1.0,
            "g": "exp(-r^2)", "z": [str(z) for z in zs]},
           worst, 1e-5)

    # evaluated above on the (1, 0) interpolant; only the reading is timed here
    yield ("hecke-bochner-annihilation",
           {"pq": [1, 0], "k": 0, "n": 1, "lam": 1.0,
            "note": "evaluated on the (1, 0) interpolant of hecke-bochner, "
                    "whose ms counts this work"},
           float(np.max(np.abs(annihilated))), 1e-6)

    yield ("constant-convention",
           {"note": "working prefactor over the printed one is "
                    "2*pi^m*(2*pi)^(n-p-q); 4*pi^2 in the n=1 "
                    "radial case, folded into rhs, never fitted",
            "factor_n1_radial": 4.0 * math.pi ** 2},
           0.0, 1.0)


def _suite_theorem34(rng):
    _, _, stats = theorem34_gaussian_pair(1.0, 1.0, 1.0)
    yield ("theorem34-gaussian",
           {"a": 1.0, "lam": 1.0, "s0": 1.0, "eps": 0,
            "c_lambda": [stats["c_lambda"].real, stats["c_lambda"].imag]},
           stats["rel_std"], 1e-13)

    grid = polar_grid(1, 96, 6.0)
    t_nodes, t_w = gauss_panels(-5.5, 5.5, 10, 12)
    vals = (np.exp(-grid.r ** 2)[:, None, None]
            * np.ones(grid.omega.shape[0])[None, :, None]
            * np.exp(-t_nodes ** 2)[None, None, :])
    _, _, stats = theorem34_pair(vals, t_nodes, 0, 0, 1, 1.0, 1.0, grid, t_weights=t_w)
    yield ("theorem34-grid",
           {"f": "exp(-|z|^2 - t^2)", "p0": 0, "q0": 0,
            "lam": 1.0, "s0": 1.0, "eps": 0, "grid": "96x64"},
           stats["rel_std"], 1e-12)

    worst = 0.0
    for p0, q0 in ((0, 0), (1, 0)):
        series, closed = kernel_K(1.0, 1.3, 0.7, 1.0, 1, p0, q0)
        worst = max(worst, abs(series - closed) / abs(closed))
    yield ("theorem34-kernel",
           {"lam": 1.0, "r": 1.3, "t": 0.7, "s0": 1.0,
            "pq": [[0, 0], [1, 0]], "K": 400, "abel_damping": 1e-12}, worst, 1e-10)

    raised = 0
    try:
        kernel_K(math.pi, 1.0, 1.0, 1.0, 1, 0, 0)
    except ExceptionalLambdaError:
        raised += 1
    try:
        theorem34_gaussian_pair(1.0, math.pi, 1.0)
    except ExceptionalLambdaError:
        raised += 1
    yield "theorem34-exceptional", {"lam_s0": "pi"}, 2 - raised, 0.0


def _suite_gates(rng):
    lattice = [(a, b, s0) for a in (0.3, 0.7, 1.3) for b in (0.3, 0.7, 1.3)
               for s0 in (0.4, 0.8, 1.5)]
    bad = 0
    for a, b, s0 in lattice:
        want = a * b < s0 * s0
        delta = gate_lambda_window(a, b, s0)
        if (delta is not None) != want:
            bad += 1
            continue
        if want:
            margin, ok = uniqueness_gate(GateParams(a, b, s0, 0.0, 0.5 * delta))
            if not ok:
                bad += 1
        else:
            for lam in np.linspace(1e-4, math.pi / s0 - 1e-4, 37):
                margin, ok = uniqueness_gate(GateParams(a, b, s0, 0.0, float(lam)))
                if ok:
                    bad += 1
                    break
    yield ("gate-lambda-window",
           {"lattice": "3x3x3, a,b in {0.3,0.7,1.3}, "
                       "s0 in {0.4,0.8,1.5}"}, bad, 0.0)

    bad = 0
    for a, b, s0 in lattice:
        limit = uniqueness_gate(GateParams(a, b, s0))[1]
        if htype_gate(a, b, s0) != limit:
            bad += 1
    yield "gate-htype-agreement", {"lattice": "same 3x3x3"}, bad, 0.0

    _, b_fit, residual = equality_case_profile(1.0, 1.0, 1.0)
    yield ("equality-tanh-residual",
           {"a": 1.0, "lam": 1.0, "s0": 1.0, "eps": 0,
            "b_fit": b_fit}, residual, 1e-8)

    fits = [equality_case_profile(a, 1.0, 0.7)[1] for a in (0.5, 1.0, 2.0)]
    violation = max(0.0, fits[1] - fits[0], fits[2] - fits[1])
    yield ("equality-monotone",
           {"a": [0.5, 1.0, 2.0], "lam": 1.0, "s0": 0.7, "eps": 0,
            "b_fit": fits}, violation, 0.0)


def _suite_hermite(rng):
    x = np.linspace(-4.0, 4.0, 161)

    s = 0.35
    worst = 0.0
    for k in (0, 1, 2):
        u = hermite_evolve(lambda y, k=k: hermite_fn(k, y).astype(complex), s, x=x)
        want = np.exp(-1j * (2 * k + 1) * s) * hermite_fn(k, x)
        worst = max(worst, float(np.max(np.abs(u - want))
                                 / np.max(np.abs(want))))
    yield "hermite-eigenphase", {"k": [0, 1, 2], "s": s}, worst, 1e-6

    u = hermite_evolve(lambda y: np.exp(-0.5 * y * y).astype(complex),
                       0.25 * math.pi, x=x)
    want = np.exp(-0.25j * math.pi) * np.exp(-0.5 * x * x)
    err = float(np.max(np.abs(u - want)) / np.max(np.abs(want)))
    yield "hermite-fourier-fixed-point", {"s0": "pi/4", "f": "exp(-x^2/2)"}, err, 1e-6

    worst = 0.0
    prods = []
    for a, s0 in ((1.0, 0.125 * math.pi), (0.7, 0.5)):
        _, prod = gate_boundary_profile(a, s0)
        prods.append(prod)
        worst = max(worst, abs(prod - 0.25))
    yield ("hermite-gate-boundary",
           {"cases": [[1.0, 0.125 * math.pi], [0.7, 0.5]],
            "products": prods}, worst, 1e-3)

    margin, ok = hermite_gate(1.0, 1.0, 0.25 * math.pi)
    err = abs(margin - 0.75) + (0.0 if ok else 1.0)
    yield "hermite-gate-margin", {"a": 1.0, "b": 1.0, "s0": "pi/4"}, err, 1e-12


def _suite_radon(rng):
    v = np.linspace(0.4, 2.0, 5)
    t = np.linspace(-1.5, 1.5, 5)

    want = heat_kernel_grid(1.0, v[:, None], t[None, :])
    err = max(float(np.max(np.abs(radon_heat_profile(1.0, v, t, n=1, k=k) - want)))
              for k in (2, 3)) / float(np.max(np.abs(want)))
    yield "radon-collapse", {"s": 1.0, "n": 1, "k": [2, 3], "grid": "5x5"}, err, 1e-12

    # the pointwise kernel is QUADPACK over its own profile and constant,
    # and shares no code with the batch's trapezoid rule
    want = np.array([[heat_kernel(1.0, HeisenbergPoint((vv,), tt)) for tt in t] for vv in v])
    got = htype_heat_batch(1.0, 1, 1, v[:, None], np.abs(t)[None, :])
    err = float(np.max(np.abs(got - want)) / np.max(np.abs(want)))
    yield ("radon-degenerate",
           {"s": 1.0, "n": 1, "k": 1,
            "note": "k=1 center integral against the pointwise t-kernel; "
                    "arbitrates the prefactor convention"},
           err, 1e-13)


_SUITES = {
    "hankel": _suite_hankel,
    "hille-hardy": _suite_hille_hardy,
    "semigroup": _suite_semigroup,
    "hecke-bochner": _suite_hecke_bochner,
    "theorem34": _suite_theorem34,
    "gates": _suite_gates,
    "hermite": _suite_hermite,
    "radon": _suite_radon,
}

SUITE_NAMES = tuple(_SUITES) + ("all",)


def _run(fn, seed):
    """The records of one suite: each step of the suite is timed from the
    moment it is resumed, and carries the distinct warnings raised since
    the previous record."""
    checks, filed = [], 0
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            t0 = time.perf_counter()
            for cid, params, error, tol in fn(np.random.default_rng(seed)):
                ms = (time.perf_counter() - t0) * 1000.0
                fired = tuple(dict.fromkeys(str(w.message) for w in caught[filed:]))
                filed = len(caught)
                err = float(error)
                checks.append(CheckRecord(cid, params, err, float(tol), bool(err <= tol),
                                          ms, fired))
                t0 = time.perf_counter()
        return checks
    finally:
        for w in caught:
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno,
                                   source=w.source)


def run_suite(name, seed=0):
    integer("seed", seed, 0)
    if name == "all":
        return SuiteReport("all", tuple(c for fn in _SUITES.values()
                                        for c in _run(fn, seed)))
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    return SuiteReport(name, tuple(_run(_SUITES[name], seed)))
