"""The argument contract over every public callable of heisenkit.

CALLS holds one valid call of each name in `heisenkit.__all__`, by keyword.
The sweep replaces one argument at a time by each malformed value that its
kind admits:

- a number: NaN, +inf, -inf and a complex number, and 1.5 where the valid
  value is an integer;
- an array, or a tuple or list of numbers: an empty one, one whose first
  entry is NaN, and one with an extra axis;
- a RadialProfile or a SpectralSlice: one whose first value is NaN;
- a complex time zeta: also 0 and -1.0, and 1j where the kernel is
  evaluated by inversion, each of which must raise.

Each call must raise ValueError or NotImplementedError (subclasses
included) whose message names the argument, or return a result whose every
number is finite.  A message names an argument when the argument's name is
a word of its subject, the text before " must ", or stands before " = "
(as in "n = 1 only").  The README's exceptions are listed once, in
EXCEPTIONS, each with the behaviour that the README gives it instead, and
every sentence of the README's contract paragraph has its own probes.
"""

import cmath
import dataclasses
import inspect
import math
import numbers
import re
from pathlib import Path

import numpy as np
import pytest

import heisenkit as hk
from heisenkit.hermite import hermite_grid

NAN, INF = math.nan, math.inf


def _profile():
    r, w = hk.radial_rule(32, 6.0)
    return hk.RadialProfile(r, np.exp(-r ** 2), weights=w)


def _grid():
    return hk.polar_grid(1, 16, 5.0, nsphere=8)


def _slice():
    grid = _grid()
    return hk.radial_slice(grid, 1.0, np.exp(-grid.r ** 2))


def _gaussian(z):
    return np.exp(-abs(z) ** 2)


def _calls():
    """name -> keyword arguments of one valid call."""
    r, w = hk.radial_rule(32, 6.0)
    grid, sl, basis = _grid(), _slice(), hk.build_basis(1, 1, 0)
    t_nodes = np.linspace(-6.0, 6.0, 25)
    samples = (np.exp(-grid.r ** 2)[:, None, None] * np.ones(8)[None, :, None]
               * np.exp(-t_nodes ** 2)[None, None, :])
    pt = hk.HeisenbergPoint((0.3 + 0.2j,), 0.4)
    x = np.linspace(-6.0, 6.0, 32)
    return {
        "BigradedBasis": dict(n=1, p=1, q=0, elements=basis.elements,
                              sphere_nodes=basis.sphere_nodes,
                              sphere_weights=basis.sphere_weights),
        "CheckRecord": dict(id="c", params={}, error=0.0, tol=1.0, passed=True, ms=1.0,
                            warnings=()),
        "DecayFit": dict(C=1.0, a=1.0, residual=0.0, window=(1.0, 2.0)),
        "HankelPlan": dict(alpha=0.0, r_nodes=r, r_weights=w),
        "HeisenbergPoint": dict(z=(0.3 + 0.2j,), t=0.4),
        "HTypePoint": dict(v=(0.3, 0.2), t=(0.4, 0.1)),
        "PolarGrid": dict(n=1, r=grid.r, r_weights=grid.r_weights, omega=grid.omega,
                          omega_weights=grid.omega_weights, r_max=5.0),
        "RadialProfile": dict(r=r, values=np.exp(-r ** 2), weights=w, weight_power=1.0),
        "SolidHarmonic": dict(n=1, p=1, q=0, terms=basis.elements[0].terms,
                              scale=basis.elements[0].scale),
        "SpectralSlice": dict(lam=1.0, grid=grid, values=sl.values),
        "SuiteReport": dict(suite="s", checks=()),
        "adaptive_quad": dict(f=math.exp, a=0.0, b=1.0, epsabs=1e-12, epsrel=1e-11,
                              sin_freq=2.0),
        "bessel_j_tilde": dict(alpha=0.5, w=np.array([0.0, 1.0])),
        "build_basis": dict(n=1, p=1, q=0),
        "circle_rule": dict(m=8),
        "equality_case_profile": dict(a=1.0, lam=1.0, s0=0.7),
        "fit_gaussian_decay": dict(F=_profile(), window=(1.0, 3.0)),
        "gate_boundary_profile": dict(a=1.0, s0=0.6),
        "gate_lambda_window": dict(a=0.3, b=0.3, s0=0.7, eps=0.01),
        "group_inverse": dict(p=pt),
        "group_law": dict(p=pt, q=pt),
        "hankel_plan": dict(alpha=0.0, r_max=6.0, s_max=2.0),
        "hankel_transform": dict(plan=hk.HankelPlan(0.0, r, w), F=_profile(),
                                 s_grid=np.array([0.0, 1.0])),
        "hardy_gate": dict(a=1.0, b=0.5),
        "harmonic_part": dict(n=1, alpha=(1,), beta=(0,)),
        "heat_kernel": dict(zeta=1.0, p=pt),
        "heat_kernel_grid": dict(zeta=1.0, r=np.array([0.0, 1.0]), t=np.array([0.0, 0.5]), n=1),
        "heat_kernel_lambda": dict(zeta=1.0, lam=0.5, r=np.array([0.0, 1.0]), n=1),
        "hecke_bochner_check": dict(g=_profile(), p=1, q=0, j=1, ks=(1,), lam=1.0, n=1,
                                    z=np.array([0.4 + 0.3j])),
        "hermite_evolve": dict(f=hk.hermite_fn(0, x), s=0.4, x=x),
        "hermite_fn": dict(k=2, x=np.array([0.0, 1.0])),
        "hermite_gate": dict(a=1.0, b=1.0, s0=0.7),
        "hille_hardy": dict(alpha=0.5, x=np.array([0.5]), y=np.array([1.0]),
                            w=np.array([0.3 + 0.1j]), K=np.array([40])),
        "htype_gate": dict(a=0.5, b=0.5, s0=1.0),
        "htype_heat_batch": dict(s=1.0, n=1, k=2, vnorm=np.array([0.0, 1.0]),
                                 tnorm=np.array([0.5, 1.0])),
        "htype_heat_kernel": dict(s=1.0, p=hk.HTypePoint((0.3, 0.2), (0.4,))),
        "jtilde_of_square": dict(alpha=0.5, w2=np.array([0.0, 1.0])),
        "kernel_K": dict(lam=1.0, r=0.5, t=0.7, s0=1.3, n=1, p0=0, q0=0),
        "laguerre": dict(k=2, alpha=0.5, t=np.array([0.0, 1.0])),
        "laguerre_fn": dict(k=2, lam=1.0, n=1, r=np.array([0.0, 1.0])),
        "laguerre_projection": dict(g=_profile(), k=1, lam=1.0, m=1),
        "laguerre_series_sum": dict(alpha=0.5, x=np.array([0.5]), y=np.array([1.0]),
                                    w=np.array([0.3 + 0.1j]), kmax=np.array([40])),
        "mehler_kernel": dict(s=0.3, x=np.array([0.0, 1.0]), y=np.array([0.5, 0.2]), n=1),
        "partial_fourier_t": dict(f=samples, lam=1.0, grid=grid, t_nodes=t_nodes,
                                  t_weights=np.full(25, 0.5)),
        "partial_radon": dict(f=lambda p: math.exp(-p.t_norm ** 2), eta=np.array([1.0]),
                              targets=[pt]),
        "polar_grid": dict(n=1, nr=16, r_max=5.0, nsphere=8),
        "radial_rule": dict(nr=16, r_max=5.0),
        "radial_slice": dict(grid=grid, lam=1.0, values=np.exp(-grid.r ** 2)),
        "radon_heat_profile": dict(s=1.0, v_norms=np.array([0.5]), t_vals=np.array([0.5]),
                                   n=1, k=2),
        "reconstruct": dict(coefficients={(1, 0, 1): _profile()}, bases=[basis],
                            grid=hk.polar_grid(1, 32, 6.0, nsphere=8), lam=1.0),
        "run_suite": dict(name="hankel", seed=0),
        "s3_rule": dict(m_angles=8, m_u=4),
        "schrodinger_evolve": dict(f=sl, zeta=1.0),
        "slice_value": dict(sl=sl, z=np.array([0.3 + 0.1j])),
        "sphere_area": dict(n=2),
        "spherical_coefficients": dict(f=sl, basis=basis, j=1),
        "theorem34_gaussian_pair": dict(a=1.0, lam=1.0, s0=0.7, r=np.array([0.5, 1.0])),
        "theorem34_pair": dict(f=samples, t_nodes=t_nodes, p0=0, q0=0, j0=1, lam=1.0,
                               s0=0.7, grid=grid, t_weights=np.full(25, 0.5)),
        "twisted_convolution": dict(f=sl, g=sl),
        "twisted_convolution_quad": dict(f=_gaussian, g=_gaussian, lam=1.0, z=0.3, r_cut=1.0),
        "uniqueness_gate": dict(a=1.0, b=1.0, s0=1.1, eps=0.1, lam=0.5),
    }


CALLS = _calls()


def _malformed(value):
    """The menu of malformed values for an argument whose valid value is
    value; empty for a kind that the menu does not cover."""
    if isinstance(value, bool) or value is None:
        return []
    if isinstance(value, numbers.Integral):
        return [NAN, INF, -INF, 1 + 1j, 1.5]
    if isinstance(value, numbers.Real):
        return [NAN, INF, -INF, 1 + 1j]
    if isinstance(value, numbers.Complex):
        return [complex(NAN, 0.0), complex(INF, 0.0)]
    if isinstance(value, (hk.RadialProfile, hk.SpectralSlice)):
        values = np.array(value.values, dtype=complex)
        values.flat[0] = NAN
        return [dataclasses.replace(value, values=values)]
    if isinstance(value, (list, tuple)):
        if not value or not all(isinstance(v, numbers.Number) for v in value):
            return []
        return [type(value)(v.tolist()) for v in _malformed(np.asarray(value))]
    if isinstance(value, np.ndarray) and value.size and value.dtype.kind in "iufc":
        poisoned = value.astype(np.result_type(value, float))
        poisoned.flat[0] = NAN
        return [value[:0], poisoned, value[None]]
    return []


# The README's exceptions to the contract, each (name, argument) with the
# check that replaces the sweep's for the malformed value it is given.
def _nan_in_nan_out(call, arg, value):
    """The pointwise special functions map a NaN point to NaN, as
    scipy.special does."""
    if np.isnan(np.asarray(value, dtype=complex)).any():
        assert np.isnan(np.asarray(call())).any()
    else:
        _check_contract(call, arg)


def _kept_until_used(call, arg, value):
    """A RadialProfile (for fit_gaussian_decay's mask) and a SpectralSlice
    keep a NaN value; integrating one, or taking the norm of the other,
    raises naming the values."""
    if not np.isnan(np.asarray(value, dtype=complex)).any():
        _check_contract(call, arg)
        return
    record = call()
    with pytest.raises(ValueError) as info:
        record.integrate() if isinstance(record, hk.RadialProfile) else record.norm2()
    _assert_names(info.value, arg)


def _zero_at_infinite_points(call, arg, value):
    """slice_value is 0 at an infinite point, as beyond r_max."""
    if np.isinf(np.asarray(value)).any() and not np.isnan(np.asarray(value)).any():
        assert np.all(call() == 0)
    else:
        _check_contract(call, arg)


def _analytic_continuation(call, arg, value):
    """heat_kernel_lambda at a complex lam is the analytic continuation of
    its profile (the valid call is at zeta = 1, n = 1)."""
    if isinstance(value, complex) and cmath.isfinite(value):
        want = [_profile_lambda(1.0, value, r) for r in CALLS["heat_kernel_lambda"]["r"]]
        np.testing.assert_allclose(call(), want, rtol=1e-13)
    else:
        _check_contract(call, arg)


def _record_keeps_value(call, arg, value):
    """The records that a call builds (a fit, a check record or report, a
    basis) store what they are given, a NaN error of a failed check
    included."""
    assert getattr(call(), arg) is value


RECORDS = ("BigradedBasis", "CheckRecord", "DecayFit", "SolidHarmonic", "SuiteReport")
POINTWISE = (("laguerre", "t"), ("laguerre_fn", "r"), ("hermite_fn", "x"),
             ("bessel_j_tilde", "w"), ("jtilde_of_square", "w2"))
EXCEPTIONS = {
    **{key: _nan_in_nan_out for key in POINTWISE},
    ("RadialProfile", "values"): _kept_until_used,
    ("SpectralSlice", "values"): _kept_until_used,
    ("slice_value", "z"): _zero_at_infinite_points,
    ("heat_kernel_lambda", "lam"): _analytic_continuation,
    **{(name, arg): _record_keeps_value for name in RECORDS for arg in CALLS[name]},
}


def _assert_names(exc, arg):
    """The message names arg: in its subject, the text before " must ", or
    before " = ".  An underscore of arg may read as a space ("t nodes")."""
    text = str(exc)
    word = arg.replace("_", "[_ ]")
    named = (" must " in text and re.search(rf"\b{word}\b", text.split(" must ")[0])) \
        or re.search(rf"\b{word} = ", text)
    assert named, f"{type(exc).__name__} does not name {arg}: {text}"


def _numbers(result):
    """Every number that a result carries, through containers and the
    fields of records."""
    if isinstance(result, numbers.Number) and not isinstance(result, bool):
        yield result
    elif isinstance(result, np.ndarray):
        for item in result.ravel().tolist():
            yield from _numbers(item)
    elif isinstance(result, dict):
        for item in result.values():
            yield from _numbers(item)
    elif isinstance(result, (tuple, list)):
        for item in result:
            yield from _numbers(item)
    elif dataclasses.is_dataclass(result):
        for field in dataclasses.fields(result):
            yield from _numbers(getattr(result, field.name))


def _check_contract(call, arg):
    try:
        result = call()
    except (ValueError, NotImplementedError) as exc:
        _assert_names(exc, arg)
        return
    bad = [v for v in _numbers(result) if not cmath.isfinite(v)]
    assert not bad, f"{arg} gave a result holding {bad[:3]}"


def _public_callables():
    """Every name of __all__ but the exception classes, which take a
    message and no argument of the contract."""
    return [name for name in hk.__all__
            if not (isinstance(getattr(hk, name), type)
                    and issubclass(getattr(hk, name), Exception))]


PROBES = [(name, arg) for name in _public_callables()
          for arg in inspect.signature(getattr(hk, name)).parameters
          if _malformed(CALLS[name].get(arg))]


@pytest.mark.parametrize("name", _public_callables())
def test_calls_give_every_parameter_a_valid_value(name):
    # so that the sweep walks every parameter that inspect.signature lists
    params = inspect.signature(getattr(hk, name)).parameters
    assert set(CALLS[name]) == set(params)


# where a time zeta is evaluated by inversion, Re zeta = 0 is refused too
INVERTED = ("heat_kernel", "heat_kernel_grid")


@pytest.mark.parametrize("name,arg", PROBES, ids=[f"{n}-{a}" for n, a in PROBES])
def test_every_argument_obeys_the_contract(name, arg):
    fn, kwargs = getattr(hk, name), CALLS[name]
    check = EXCEPTIONS.get((name, arg), lambda call, arg, value: _check_contract(call, arg))
    for value in _malformed(kwargs[arg]):
        check(lambda value=value: fn(**{**kwargs, arg: value}), arg, value)
    if arg == "zeta":
        for value in [0, -1.0] + [1j] * (name in INVERTED):
            with pytest.raises(ValueError) as info:
                fn(**{**kwargs, arg: value})
            _assert_names(info.value, arg)


def _raises(call, pattern, kind=ValueError):
    with pytest.raises(kind, match=pattern):
        call()


def _profile_lambda(zeta, lam, r):
    """(4 pi)^-1 (lam / sinh(lam zeta)) e^{-lam coth(lam zeta) r^2 / 4} at n = 1."""
    x = lam * zeta
    return lam / cmath.sinh(x) * cmath.exp(-lam * r * r / (4.0 * cmath.tanh(x))) / (4.0 * math.pi)


def _n2_slice():
    grid = hk.polar_grid(2, 8, 4.0, nsphere=8)
    return hk.radial_slice(grid, 1.0, np.exp(-grid.r ** 2))


def _sentence_probes():
    """The opening words of each sentence of the README's contract
    paragraph, and the calls that assert it."""
    nan_profile = _profile()
    nan_profile.values[np.searchsorted(nan_profile.r, 2.0)] = NAN      # inside the fit window
    nan_slice = _malformed(_slice())[0]
    grid, t = _grid(), np.linspace(-6.0, 6.0, 25)
    samples = CALLS["partial_fourier_t"]["f"]
    basis = hk.build_basis(1, 1, 0)
    return {
        "The Python API has one argument contract": [
            lambda: _raises(lambda: hk.hardy_gate(NAN, 1.0), "^decay rate a must be"),
            lambda: set(CALLS) == set(_public_callables()) or pytest.fail("uncovered call")],
        "Scalar arguments must be finite": [
            lambda: _raises(lambda: hk.hardy_gate(1.0, INF), "decay rate b must be"),
            lambda: _raises(lambda: hk.partial_fourier_t(np.where(samples > 0.5, NAN, samples),
                                                         1.0, grid, t), "samples of f must be"),
            lambda: _raises(lambda: hk.hermite_evolve(np.full(32, NAN), 0.4, np.arange(32.0)),
                            "samples of f must be"),
            lambda: _raises(lambda: hk.laguerre_projection(nan_profile, 1, 1.0, 1),
                            "values of g must be finite"),
            lambda: _raises(lambda: hk.hankel_transform(hk.HankelPlan(
                0.0, nan_profile.r, nan_profile.weights), nan_profile, [0.0]),
                            "values of F must be finite"),
            lambda: _raises(lambda: hk.spherical_coefficients(nan_slice, basis, 1),
                            "values of slice f must be finite"),
            lambda: _raises(lambda: hk.twisted_convolution(_slice(), nan_slice),
                            "values of slice g must be finite"),
            lambda: _raises(lambda: hk.hecke_bochner_check(_profile(), 0, 0, 1, (0,), 1.0, 1,
                                                           [0.5, INF]), "targets z must be")],
        "On top of that": [
            lambda: _raises(lambda: hk.hardy_gate(0.0, 1.0), "positive"),
            lambda: _raises(lambda: hermite_grid(-1.0), "^half-width L must be positive"),
            lambda: _raises(lambda: hk.radial_rule(8, 0.0), "^r_max must be positive"),
            lambda: _raises(lambda: hk.htype_gate(1.0, 1.0, 0.0), "s0 must be finite and nonzero"),
            lambda: _raises(lambda: hk.laguerre_fn(1, 0.0, 1, 1.0),
                            "lam must be finite and nonzero"),
            lambda: _raises(lambda: hk.heat_kernel_grid(1.0, [-1.0], 0.0), "nonnegative"),
            lambda: _raises(lambda: hk.uniqueness_gate(1.0, 1.0, 1.0, lam=-1.0), "nonnegative"),
            lambda: _raises(lambda: hk.bessel_j_tilde(-1.0, 1.0), "must exceed -1"),
            lambda: _raises(lambda: hk.hankel_plan(-0.5), "must exceed -0.5"),
            lambda: _raises(lambda: hk.heat_kernel_grid(1.0, 0.0, 0.0, n=0), "positive integer"),
            lambda: _raises(lambda: hk.laguerre(-1, 0.5, 1.0), "nonnegative integer"),
            lambda: _raises(lambda: hk.htype_heat_batch(1.0, 1, 4, 0.0, 0.0), "1, 2 or 3")],
        "A complex time zeta": [
            lambda: _raises(lambda: hk.heat_kernel_lambda(-1.0, 1.0, 0.5),
                            "^zeta must be nonzero with a nonnegative real part, got -1.0$"),
            lambda: _raises(lambda: hk.schrodinger_evolve(_slice(), 0.0), "^zeta must be nonzero"),
            lambda: _raises(lambda: hk.heat_kernel_grid(1j, [0.5], [0.0]),
                            r"^zeta must have a positive real part, got 1j$"),
            lambda: _raises(lambda: hk.heat_kernel(NAN, hk.HeisenbergPoint((0.0,), 0.0)),
                            "^zeta must be finite, got nan$"),
            lambda: np.isfinite(hk.heat_kernel_lambda(1j, 0.5, 0.5))
            or pytest.fail("Re zeta = 0 was refused off the inversion")],
        "Counts and indices must be integers": [
            lambda: _raises(lambda: hk.radial_rule(2.5, 4.0), "^nr must be"),
            lambda: _raises(lambda: hk.polar_grid(1, 16, 4.0, nsphere=7.5), "^nsphere must be"),
            lambda: _raises(lambda: hk.hille_hardy(0.5, 1.0, 1.0, 0.3, K=2.5), "^K must be"),
            lambda: _raises(lambda: hk.run_suite("hankel", seed=1.5), "^seed must be"),
            lambda: _raises(lambda: hk.build_basis(1, 1.5, 0), "^p must be"),
            lambda: _raises(lambda: hk.spherical_coefficients(_slice(), basis, 1.5),
                            "^index j must be"),
            lambda: _raises(lambda: hk.spherical_coefficients(_slice(), basis, 2),
                            "j must lie in", IndexError)],
        "A complex number is refused": [
            lambda: _raises(lambda: hk.htype_heat_batch(1 + 1j, 1, 2, 0.0, 0.0),
                            "diffusion time s must be"),
            lambda: _raises(lambda: hk.htype_heat_kernel(1j, hk.HTypePoint((0.0, 0.0), (0.0,))),
                            "diffusion time s must be"),
            lambda: _raises(lambda: hk.radon_heat_profile(1 + 1j, [0.5], [0.5]),
                            "diffusion time s must be"),
            lambda: _raises(lambda: hk.hermite_evolve(np.exp(-np.arange(-4.0, 4.0, 0.25) ** 2),
                                                      0.3 + 0.1j, np.arange(-4.0, 4.0, 0.25)),
                            "time s must be real"),
            lambda: _raises(lambda: hk.mehler_kernel(0.3 + 0j, 0.0, 0.0), "time s must be real"),
            lambda: _raises(lambda: hk.hardy_gate(1 + 1j, 1.0), "decay rate a must be"),
            lambda: _raises(lambda: hk.htype_gate(1.0, 1.0, 1j), "s0 must be"),
            lambda: _raises(lambda: hk.hermite_gate(1.0, 1.0, 0.5 + 0.5j), "s0 must be real")],
        "`heat_kernel_lambda` accepts a complex lam": [
            lambda: np.testing.assert_allclose(
                hk.heat_kernel_lambda(1.0, 0.5 + 0.3j, [0.0, 0.7]),
                [_profile_lambda(1.0, 0.5 + 0.3j, r) for r in (0.0, 0.7)], rtol=1e-13),
            # 1e-346 to 1e-432 at 50 digits, so 0: not NaN, nor an OverflowError
            *[lambda args=args: hk.heat_kernel_lambda(*args) == 0 or pytest.fail(str(args))
              for args in ((1 + 1j, 1 + 1000j, 0.5), (0.5 + 2j, 3 + 400j, 0.5),
                           (0.3 + 1j, 1 + 800j, 0.0), (1j, 1 + 1000j, 0.5), (2j, 0.1 + 400j, 0.5))],
            lambda: _raises(lambda: hk.heat_kernel_lambda(1j, 1e12 + 1e3j, 0.5),
                            r"^the profile at lam=.*, zeta=1j must be finite, got "),
            # a power factor past double range that the Gaussian brings back
            # (50-digit values; the exponents are ~ -620 and +536)
            *[lambda args=args, want=want: np.testing.assert_allclose(
                hk.heat_kernel_lambda(*args), want, rtol=1e-11)
              for args, want in (
                  ((2.2337705621567445 - 61.40707102902259j,
                    439.57621491827655 - 22.189628495397052j, 1.1003607673799756, 2),
                   6.443133113843301e-270 - 1.1998490435841444e-270j),
                  ((2.636826051073124 - 176.9426349622119j,
                    -18.63897848009675 + 6.17318418405001j, 18.409681773162553, 1),
                   -4.6220522242392235e+232 - 2.0640907824544556e+233j))]],
        "A broken rule raises `ValueError` of the form": [
            lambda: _raises(lambda: hk.heat_kernel_grid(1.0, [0.5, 1.0, NAN], 0.0),
                            r"^radii r must be finite, got nan at index \(2,\)$"),
            lambda: _raises(lambda: hk.hardy_gate(1.0, -2.0),
                            "^decay rate b must be positive and finite, got -2.0$")],
        "An n other than 1": [
            lambda: _raises(lambda: hk.schrodinger_evolve(_n2_slice(), 1.0), "n = 1 only",
                            NotImplementedError),
            lambda: _raises(lambda: hk.slice_value(_n2_slice(), 0.5), "n = 1 only",
                            NotImplementedError),
            lambda: _raises(lambda: hk.twisted_convolution(_n2_slice(), _n2_slice()),
                            "n = 1 only", NotImplementedError),
            lambda: _raises(lambda: hk.hecke_bochner_check(_profile(), 0, 0, 1, (0,), 1.0, 2, 0.5),
                            "n = 1 only", NotImplementedError)],
        "The pointwise special functions are an exception": [
            lambda: all(math.isnan(v) for v in (
                hk.laguerre(2, 0.5, NAN), hk.laguerre_fn(2, 1.0, 1, NAN), hk.hermite_fn(2, NAN),
                hk.bessel_j_tilde(1.5, NAN), abs(hk.jtilde_of_square(0.5, NAN))))
            or pytest.fail("a NaN point did not map to NaN")],
        "`slice_value` returns 0 at infinite points": [
            lambda: np.all(hk.slice_value(_slice(), [INF, complex(0.0, -INF)]) == 0)
            or pytest.fail("not 0 at an infinite point"),
            lambda: _raises(lambda: hk.slice_value(_slice(), complex(0.5, NAN)),
                            "points z must have no NaN part")],
        "A `RadialProfile` keeps a NaN value": [
            lambda: abs(hk.fit_gaussian_decay(nan_profile, (0.5, 4.0)).a - 1.0) < 1e-6
            or pytest.fail("the fit did not mask the NaN"),
            lambda: _raises(nan_profile.integrate, "^values must be finite"),
            lambda: _raises(nan_slice.norm2, "^values of the slice must be finite")],
        "The records that a call builds": [
            lambda: math.isnan(hk.DecayFit(NAN, 1.0, 0.0, (0.0, 1.0)).C)
            or pytest.fail("the record changed its value"),
            lambda: math.isnan(hk.CheckRecord("c", {}, NAN, 1.0, False, 1.0).error)
            or pytest.fail("the record changed its value")],
        "Results are checked apart from arguments": [
            lambda: _raises(lambda: hk.partial_fourier_t(np.full(samples.shape, 1e308), 0.0,
                                                         grid, t), "overflows")],
        "A Tier-1 sweep": [
            lambda: {n for n, _ in PROBES} <= set(CALLS) or pytest.fail("a probe without a call")],
    }


def _contract_sentences():
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    start = text.index("The Python API has one argument contract")
    paragraph = " ".join(text[start:text.index("\n\n", start)].split())
    return re.split(r"(?<=\.)\s+(?=[A-Z`])", paragraph)


def test_every_sentence_of_the_readme_contract_is_asserted():
    probes = _sentence_probes()
    sentences = _contract_sentences()
    openings = [next((key for key in probes if sentence.startswith(key)), None)
                for sentence in sentences]
    assert None not in openings, sentences[openings.index(None)]
    assert sorted(openings) == sorted(probes), "a sentence is asserted twice or not at all"
    for key in openings:
        for probe in probes[key]:
            probe()
