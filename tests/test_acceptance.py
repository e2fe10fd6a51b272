"""Acceptance gate: one test per shipped criterion, driven off the verify suites.

Each test prints a single pass/fail line (visible with -rA or on failure) and
asserts the tolerance that the corresponding check was built against, so a
silent retuning of verify.py cannot loosen the contract.
"""

import pytest

from heisenkit.verify import run_suite

_SUITES = ("hankel", "hille-hardy", "semigroup", "hecke-bochner",
           "theorem34", "gates", "hermite", "radon")


@pytest.fixture(scope="module")
def records():
    out = {}
    for name in _SUITES:
        for c in run_suite(name).checks:
            out[c.id] = c
    return out


def _report(num, label, checks):
    ok = all(c.passed for c in checks)
    worst = max(c.error for c in checks)
    ms = sum(c.ms for c in checks)
    print(f"criterion {num:2d} {label}: {'PASS' if ok else 'FAIL'} "
          f"(worst error {worst:.3g}, {ms/1000.0:.1f}s)")
    for c in checks:
        assert c.passed, f"{c.id}: error {c.error:.3g} exceeds tol {c.tol:.3g}"


def test_criterion_01_hankel_gaussian_closed_form(records):
    c = records["hankel-gaussian"]
    assert c.tol == 1e-6
    assert c.ms < 2000.0
    _report(1, "hankel gaussian closed form", [c])


def test_criterion_02_hardy_product_and_lattice(records):
    prod = records["hardy-critical-product"]
    lattice = records["hardy-gate-lattice"]
    assert prod.tol == 1e-6
    assert lattice.error == 0          # misclassification count
    _report(2, "hardy decay product and 7x7 gate lattice", [prod, lattice])


def test_criterion_03_hille_hardy_series(records):
    interior = records["hille-hardy-interior"]
    boundary = records["hille-hardy-boundary"]
    assert interior.tol == 1e-6
    assert boundary.tol == 1e-3
    _report(3, "hille-hardy series vs closed form", [interior, boundary])


def test_criterion_04_twisted_semigroup(records):
    c = records["twisted-semigroup"]
    assert c.tol == 1e-3
    assert c.ms < 2000.0
    _report(4, "twisted semigroup q_1/2 * q_1/2 = q_1", [c])


def test_criterion_05_heat_roundtrip_and_scaling(records):
    rt = records["heat-roundtrip"]
    sc = records["heat-scaling"]
    assert rt.tol == 1e-6
    assert sc.tol == 1e-8
    _report(5, "heat kernel roundtrip and parabolic scaling", [rt, sc])


def test_criterion_06_hecke_bochner(records):
    hb = records["hecke-bochner"]
    ann = records["hecke-bochner-annihilation"]
    assert hb.tol == 1e-3
    assert ann.tol == 1e-6
    _report(6, "hecke-bochner factorization and annihilation", [hb, ann])


def test_criterion_07_theorem34_linking_constant(records):
    closed = records["theorem34-gaussian"]
    grid = records["theorem34-grid"]
    exc = records["theorem34-exceptional"]
    assert closed.tol == 1e-3
    assert grid.tol == 1e-2
    assert grid.ms < 2000.0
    assert exc.error == 0              # both exceptional points must raise
    _report(7, "theorem34 ratio constancy and exceptional rejection",
            [closed, grid, exc])


def test_criterion_08_gate_lambda_window(records):
    c = records["gate-lambda-window"]
    assert c.error == 0                # lattice misfires
    _report(8, "lambda window exists iff ab < s0^2 (3^3 lattice)", [c])


def test_criterion_09_equality_case_residual(records):
    c = records["equality-tanh-residual"]
    assert c.tol == 5e-3
    assert c.ms < 2000.0
    _report(9, "equality case tanh residual", [c])


def test_criterion_10_hermite_suite(records):
    phase = records["hermite-eigenphase"]
    fourier = records["hermite-fourier-fixed-point"]
    boundary = records["hermite-gate-boundary"]
    assert phase.tol == 1e-6
    assert fourier.tol == 1e-6
    assert boundary.tol == 1e-3
    assert phase.ms + fourier.ms + boundary.ms < 2000.0
    _report(10, "hermite eigenphases, pi/4 fixed point, gate boundary",
            [phase, fourier, boundary])


def test_criterion_11_radon_reduction(records):
    collapse = records["radon-collapse"]
    degenerate = records["radon-degenerate"]
    assert collapse.tol == 1e-2
    assert degenerate.tol == 1e-5
    assert collapse.ms + degenerate.ms < 2000.0
    _report(11, "radon reduction to the n=1 kernel", [collapse, degenerate])
