"""The argument contract of `heisenkit._checks`: a NaN or infinite argument
raises ValueError naming the argument, before any work is done, and the
edge inputs inside the domain stay accepted."""

import ast
import inspect
import math
import pathlib
import warnings

import numpy as np
import pytest

import heisenkit
from heisenkit import (HankelPlan, HeisenbergPoint, HTypePoint, RadialProfile, bessel_j_tilde,
                       build_basis, gate_lambda_window, hankel_plan, hardy_gate, heat_kernel,
                       heat_kernel_grid, heat_kernel_lambda, hecke_bochner_check, hermite_fn,
                       hermite_gate, htype_gate, htype_heat_batch, htype_heat_kernel,
                       jtilde_of_square, kernel_K, laguerre, laguerre_fn, laguerre_projection,
                       hille_hardy, laguerre_series_sum, mehler_kernel, partial_fourier_t,
                       polar_grid, radial_rule, radial_slice, reconstruct, schrodinger_evolve,
                       twisted_convolution_quad, uniqueness_gate)
from heisenkit._checks import (NonFiniteResult, complex_time, finite, finite_array, integer,
                               nonzero, order, positive)
from heisenkit.hermite import hermite_grid
from heisenkit.quadrature import gauss_panels

NAN, INF = math.nan, math.inf


def _profile():
    r, w = radial_rule(32, 6.0)
    return RadialProfile(r, np.exp(-r ** 2), weights=w)


def _gaussian(z):
    return np.exp(-abs(z) ** 2)


# calls that return NaN, or build a plan, grid or slice on NaN, unless their
# NaN or inf argument is refused
HOLES = {
    "bessel_j_tilde-nan": (lambda: bessel_j_tilde(NAN, 1.0), "Bessel order alpha"),
    "bessel_j_tilde-inf": (lambda: bessel_j_tilde(INF, 1.0), "Bessel order alpha"),
    "jtilde_of_square-nan": (lambda: jtilde_of_square(NAN, 1.0), "Bessel order alpha"),
    "hankel_plan-nan": (lambda: hankel_plan(NAN), "Hankel order alpha"),
    "HankelPlan-nan": (lambda: HankelPlan(NAN, *radial_rule(32, 6.0)), "Hankel order alpha"),
    "radial_rule-nan": (lambda: radial_rule(128, NAN), "r_max"),
    "polar_grid-nan": (lambda: polar_grid(1, 16, NAN), "r_max"),
    "hermite_grid-nan": (lambda: hermite_grid(NAN), "half-width L"),
    "gauss_panels-nan": (lambda: gauss_panels(0.0, NAN, 2), "interval end b"),
    "laguerre_fn-nan": (lambda: laguerre_fn(2, NAN, 1, 1.0), "lam"),
    "laguerre_projection-nan": (lambda: laguerre_projection(_profile(), 0, NAN, 1), "lam"),
    "mehler-nan": (lambda: mehler_kernel(NAN, 0.0, 0.0), "time s"),
    "mehler-inf": (lambda: mehler_kernel(INF, 0.0, 0.0), "time s"),
    "radial_slice-nan": (lambda: radial_slice(polar_grid(1, 16, 4.0), NAN, np.ones(16)), "lam"),
    "twisted_convolution_quad-z-nan": (
        lambda: twisted_convolution_quad(_gaussian, _gaussian, 1.0, NAN, r_cut=2.0), "target z"),
    "twisted_convolution_quad-lam-nan": (
        lambda: twisted_convolution_quad(_gaussian, _gaussian, NAN, 0.5, r_cut=2.0), "lam"),
}


@pytest.mark.parametrize("call,name", HOLES.values(), ids=HOLES)
def test_nan_and_inf_arguments_raise_value_error_naming_the_argument(call, name):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{name} must .*, got (nan|inf)$"):
            call()


def test_hecke_bochner_check_refuses_n_other_than_1_before_building_a_basis():
    with pytest.raises(NotImplementedError, match="n = 1 only"):
        hecke_bochner_check(_profile(), 0, 0, 1, (0,), 1.0, 2, 0.5)


def test_finite_array_names_the_first_bad_entry_and_its_index():
    assert finite_array("r", [0.0, 2.5], nonnegative=True).dtype == float
    assert finite_array("t", -1.0) == -1.0
    with pytest.raises(ValueError, match=r"^t must be finite, got nan$"):
        finite_array("t", NAN)
    assert finite_array("z", [1.0, 2j]).dtype == complex
    for bad in (NAN, INF, -INF):
        with pytest.raises(ValueError, match=r"^t must be finite, got -?(nan|inf) at index \(1,\)"):
            finite_array("t", [0.0, bad, NAN])
    with pytest.raises(ValueError, match=r"^v must be finite, got \(1\+nanj\) at index \(1, 0\)$"):
        finite_array("v", [[0.5, 1.0], [complex(1.0, NAN), 0.0]])
    with pytest.raises(ValueError, match=r"^r must be nonnegative, got -0.1 at index \(1,\)$"):
        finite_array("r", [0.5, -0.1, -0.2], nonnegative=True)


@pytest.mark.parametrize("check,args,accepted", [
    (finite, ("x",), (0.0, -1e308, 2j)),
    (positive, ("x",), (1e-300, 1e308)),
    (nonzero, ("x",), (-1e-300, 1e308)),
    (order, ("alpha",), (-0.5, 1e308)),
], ids=["finite", "positive", "nonzero", "order"])
def test_each_scalar_rule_refuses_nan_and_inf_and_keeps_its_domain(check, args, accepted):
    extra = (-1.0,) if check is order else ()
    for value in accepted:
        check(*args, value, *extra)
    for value in (NAN, INF, -INF):
        with pytest.raises(ValueError, match=f"^{args[0]} must "):
            check(*args, value, *extra)
    finite("x", 0.0, nonnegative=True)
    with pytest.raises(ValueError, match="nonnegative and finite"):
        finite("x", -1e-300, nonnegative=True)


def test_complex_time_rule_names_zeta_and_keeps_the_right_half_plane():
    assert type(complex_time(2)) is complex and complex_time(2) == 2.0
    for value in (1j, complex(-0.0, 1.0), 1e-300, 1.0 + 1e308j):
        assert complex_time(value) == value
    assert complex_time(0.5 - 1j, inversion=True) == 0.5 - 1j
    for value, rule in ((NAN, "finite"), (complex(0.0, INF), "finite"), (0, "nonzero"),
                        (complex(-1e-300, 1.0), "nonzero")):
        with pytest.raises(ValueError, match=f"^zeta must be {rule}"):
            complex_time(value)
    for value in (1j, complex(-0.0, 2.0), 0.0, -1.0):
        with pytest.raises(ValueError, match="^zeta must have a positive real part"):
            complex_time(value, inversion=True)


def test_the_time_rule_serves_exactly_the_functions_that_take_zeta():
    # every public zeta enters through `_checks.complex_time`, and nothing
    # else calls it: a second entry, or a time checked twice, shows here
    takers = {f"{getattr(heisenkit, name).__module__.rpartition('.')[2]}.{name}"
              for name in heisenkit.__all__ if inspect.isfunction(getattr(heisenkit, name))
              and "zeta" in inspect.signature(getattr(heisenkit, name)).parameters}
    callers = set()
    for path in sorted(pathlib.Path(heisenkit.__file__).parent.glob("*.py")):
        for function in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(function, ast.FunctionDef) and any(
                    isinstance(node, ast.Call) and getattr(node.func, "id", None) == "complex_time"
                    for node in ast.walk(function)):
                callers.add(f"{path.stem}.{function.name}")
    assert callers == takers == {"oracles.heat_kernel", "heisenberg.heat_kernel_grid",
                                 "heisenberg.heat_kernel_lambda",
                                 "propagator.schrodinger_evolve"}


@pytest.mark.parametrize("value,allowed", [
    (0, None), (1.5, None), (NAN, None), (INF, None), (4, (1, 2, 3)), (0, (1, 2, 3)),
])
def test_integer_rule_refuses_non_integers_and_values_outside_the_set(value, allowed):
    integer("k", 3, allowed=allowed)
    integer("k", 0, 0)
    with pytest.raises(ValueError, match="^k must be "):
        integer("k", value, allowed=allowed)


def test_edge_inputs_inside_the_domain_stay_accepted():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for eps in np.linspace(0.0, 0.05, 6):
            assert gate_lambda_window(0.3, 0.3, 0.7, eps) > 0
        # a negative s0 in every gate that takes one, and lam = 0
        assert gate_lambda_window(0.3, 0.3, -0.7) == gate_lambda_window(0.3, 0.3, 0.7)
        assert uniqueness_gate(1.0, 1.0, -1.1, lam=0.0)[1]
        assert htype_gate(0.5, 0.5, -1.0)
        assert hermite_gate(1.0, 1.0, -math.pi / 4.0)[1]
        assert hardy_gate(1.0, 0.25) == "critical"
        # r = 0 and t = 0 in the kernels
        assert heat_kernel_grid(1.0, 0.0, 0.0).real > 0
        assert heat_kernel_lambda(1.0, 0.5, 0.0).real > 0
        assert heat_kernel(1.0, HeisenbergPoint((0.0,), 0.0)).real > 0
        for k in (1, 2, 3):
            assert htype_heat_batch(1.0, 1, k, 0.0, 0.0) > 0
            assert htype_heat_kernel(1.0, HTypePoint((0.0, 0.0), (0.0,) * k)) > 0
        series, closed = kernel_K(1.3, 0.0, 0.0, 1.0, 1, 0, 0)
        assert abs(series - closed) < 1e-10 * abs(closed)
        assert abs(mehler_kernel(-0.3, 0.0, 0.0)) > 0


def test_coordinate_entries_and_basis_keys_raise_naming_their_argument():
    # the entries of a tuple of real coordinates and the bidegrees of a
    # coefficient map lie outside the sweep's menu of malformed values
    with pytest.raises(ValueError, match=r"^coordinates v must be real, got \(1j, 0\.0\)$"):
        HTypePoint((1j, 0.0), (0.1,))
    with pytest.raises(ValueError, match=r"^coordinates t must be real, got \(0\.1j,\)$"):
        HTypePoint((1.0, 0.0), (0.1j,))
    grid = polar_grid(1, 16, 4.0, 8)
    profile = RadialProfile(grid.r, np.exp(-grid.r ** 2))
    with pytest.raises(ValueError, match=r"^bases must .*, got none for \(2, 0\)$"):
        reconstruct({(2, 0, 1): profile}, [build_basis(1, 1, 0)], grid)


def test_a_profile_off_its_nodes_is_refused_by_one_rule():
    # radii off by a factor 1 + 5e-6 would place every value on the wrong
    # radius; `hankel_transform` refuses them by the same rule
    grid = polar_grid(1, 16, 4.0, 8)
    with pytest.raises(ValueError, match=r"^radii of profile \(1, 0, 1\) must be the grid's "
                                         r"radial nodes to 1e-12, got .* at index \(0,\)$"):
        reconstruct({(1, 0, 1): RadialProfile(grid.r * (1 + 5e-6), grid.r)}, [build_basis(1, 1, 0)],
                    grid)


def test_pointwise_special_functions_map_a_nan_point_to_nan():
    # as scipy.special does; only their other arguments follow the contract
    for value in (laguerre(2, 0.5, NAN), laguerre_fn(2, 1.0, 1, NAN), hermite_fn(2, NAN),
                  bessel_j_tilde(0.0, NAN), bessel_j_tilde(1.5, NAN), bessel_j_tilde(0.3, NAN)):
        assert math.isnan(value)
    # and only that point, which Laguerre's banded solve would spread to every later one
    got = laguerre(2, 0.5, [NAN, 1.0, 2.0])
    assert math.isnan(got[0]) and np.array_equal(got[1:], laguerre(2, 0.5, [1.0, 2.0]))


def _overflowing_slice():
    grid = polar_grid(1, 128, 8.0, 8)
    return radial_slice(grid, 1e4, np.exp(-grid.r ** 2))


@pytest.mark.parametrize("call,message", [
    (lambda: heat_kernel_lambda(1e-300, 1.0, 0.0, 2),
     r"^the profile at lam=1\.0, zeta=.* must be finite"),
    (lambda: partial_fourier_t(np.full((32, 8, 3), 1e308), 0.0, polar_grid(1, 32, 8.0, 8),
                               np.array([-1.0, 0.0, 1.0])), "^the t integral of f overflows$"),
    (lambda: schrodinger_evolve(_overflowing_slice(), 1.0), "^the Laguerre table overflows"),
    (lambda: laguerre_series_sum(0.0, 1e300, 1e300, 0.5, 60), "^the Laguerre series overflows"),
    (lambda: hille_hardy(0.0, 1000.0, 1000.0, -0.8, K=1), "^the closed form overflows"),
    (lambda: laguerre(2, 1e300, [0.0, 1.0]),
     r"^the Laguerre polynomial must be finite, got inf at index \(0,\)$"),
    # inf * e^{-inf} would read NaN: laguerre refuses the inf first
    (lambda: laguerre_fn(2, 1e300, 1, 1.0), "^the Laguerre polynomial must be finite, got inf$"),
    # past |x| = 1.3e154 the phase is inf - inf
    (lambda: mehler_kernel(0.3, np.array([0.0, 1e300]), 0.0),
     r"^the kernel must be finite, got \(nan\+nanj\) at index \(1,\)$"),
], ids=["profile", "t-integral", "laguerre-table", "series", "closed-form", "laguerre",
        "laguerre-fn", "mehler"])
def test_an_overflowed_result_is_a_numerical_failure_that_is_a_value_error(call, message):
    # finite arguments whose result overflowed: not a broken rule, so the
    # CLI exits 3 for it, yet still the ValueError of every refused call
    with pytest.raises(NonFiniteResult, match=message) as info:
        call()
    assert isinstance(info.value, ArithmeticError) and isinstance(info.value, ValueError)
