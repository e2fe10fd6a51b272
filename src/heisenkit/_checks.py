"""The argument contract of every entry point, each rule written once.

A validator raises ValueError naming the argument it was given, in one
form: "<name> must be <rule>, got <value>", and for a sample array
"... at index <index>", the first entry that breaks the rule.  A rule on
real numbers refuses a complex one, even with a zero imaginary part.
A result computed from valid arguments that overflowed raises
NonFiniteResult instead, which is both a ValueError and an ArithmeticError.
Pointwise special functions map a NaN point to NaN, as scipy.special does:
only their order, degree, dimension and frequency arguments come here.
"""

import cmath
import math

import numpy as np

_COMPLEX = (complex, np.complexfloating)


class NonFiniteResult(ArithmeticError, ValueError):
    """Finite inputs whose result overflowed or lost every digit: a
    numerical failure, and a ValueError as every refused call is."""


def finite(name, value, nonnegative=False):
    """A real or complex scalar that is finite, and with nonnegative a real
    one not below 0."""
    if not cmath.isfinite(value) or (nonnegative and (isinstance(value, _COMPLEX) or value < 0)):
        rule = "nonnegative and finite" if nonnegative else "finite"
        raise ValueError(f"{name} must be {rule}, got {value}")


def real(name, value):
    """A finite real scalar: a time or a frequency that meets a real function."""
    if isinstance(value, _COMPLEX) or not math.isfinite(value):
        rule = "real" if isinstance(value, _COMPLEX) else "finite"
        raise ValueError(f"{name} must be {rule}, got {value}")


def positive(name, value):
    """A real scalar with 0 < value < inf."""
    if isinstance(value, _COMPLEX) or not 0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")


def nonzero(name, value):
    """A finite real scalar other than 0: a time s0 or a frequency lam."""
    if isinstance(value, _COMPLEX) or not (math.isfinite(value) and value != 0):
        raise ValueError(f"{name} must be finite and nonzero, got {value}")


def complex_time(zeta, inversion=False):
    """complex(zeta) for a finite time zeta != 0 with Re zeta >= 0, and
    Re zeta > 0 where the kernel is evaluated by inversion."""
    finite("zeta", zeta)
    value = complex(zeta)
    if inversion and not value.real > 0:
        raise ValueError(f"zeta must have a positive real part, got {zeta}")
    if value == 0 or value.real < 0:
        raise ValueError(f"zeta must be nonzero with a nonnegative real part, got {zeta}")
    return value


def order(name, value, lowest):
    """An order with lowest < value < inf."""
    if isinstance(value, _COMPLEX) or not lowest < value < math.inf:
        raise ValueError(f"{name} must exceed {lowest:g} and be finite, got {value}")


def integer(name, value, lowest=1, allowed=None):
    """An integer of at least lowest (1, a dimension or a count; 0, a degree
    or an index), and one of allowed when they are given."""
    if isinstance(value, _COMPLEX) or not (math.isfinite(value) and value == int(value)
                                           and value >= lowest):
        rule = {0: "a nonnegative integer", 1: "a positive integer"}.get(
            lowest, f"an integer of at least {lowest}")
        raise ValueError(f"{name} must be {rule}, got {value}")
    if allowed is not None and value not in allowed:
        *rest, last = allowed
        choices = f"{', '.join(map(str, rest))} or {last}" if rest else str(last)
        raise ValueError(f"{name} must be {choices}, got {value}")


def _refuse(name, rule, values, bad, error=ValueError):
    """Raise error for the first entry of values where bad holds, if there is one."""
    if bad.any():
        index = tuple(np.argwhere(bad)[0].tolist())
        where = f" at index {index}" if index else ""
        raise error(f"{name} must be {rule}, got {values[index]}{where}")


def finite_array(name, values, nonnegative=False):
    """values as an array of floats, complex ones kept complex, whose every
    entry is finite, and with nonnegative not below 0."""
    values = np.asarray(values)
    values = values.astype(np.result_type(values, float), copy=False)
    _refuse(name, "finite", values, ~np.isfinite(values))
    if nonnegative:
        _refuse(name, "nonnegative", values, values < 0)
    return values


def finite_result(name, values):
    """Refuse a computed array with a non-finite entry, in the form of
    `finite_array` but with NonFiniteResult."""
    _refuse(name, "finite", values, ~np.isfinite(values), NonFiniteResult)


def vector(name, values, nonnegative=False, increasing=False):
    """values as a 1-d `finite_array`, a scalar read as one entry; with
    increasing each entry above the one before it (radii)."""
    values = finite_array(name, np.atleast_1d(values), nonnegative)
    if values.ndim != 1:
        raise ValueError(f"{name} must be a vector, got shape {values.shape}")
    if increasing:
        _refuse(name, "strictly increasing", values, np.diff(values, prepend=-np.inf) <= 0)
    return values


def integer_array(name, values, lowest, below=math.inf):
    """values as an int array whose every entry is an integer with
    lowest <= entry < below: degrees, or a degree count per point."""
    values = np.asarray(values)
    with np.errstate(invalid="ignore"):
        ok = (values == np.round(values.real)) & (values.real >= lowest) & (values.real < below)
    _refuse(name, f"an integer in [{lowest}, {below})", values, ~ok)
    return values.real.astype(int)


def shapes(names, *arrays, broadcast=False):
    """arrays of one shape, or with broadcast arrays that broadcast together,
    returned broadcast; names are theirs, in order."""
    try:
        if broadcast:
            return np.broadcast_arrays(*arrays)
        if len({np.shape(a) for a in arrays}) == 1:
            return arrays
    except ValueError:
        pass
    rule = "broadcast together" if broadcast else "have one shape"
    raise ValueError(f"{' and '.join(names)} must {rule}, got shapes "
                     + " and ".join(str(np.shape(a)) for a in arrays))


def on_nodes(name, radii, nodes, whose):
    """radii equal, entry by entry to 1e-12, to the nodes (whose) they are placed on."""
    shapes((name, f"{whose} nodes"), radii, nodes)
    _refuse(name, f"{whose} nodes to 1e-12", radii, ~(np.abs(radii - nodes) <= 1e-12))


def one_dimensional(n, what):
    """NotImplementedError unless n = 1, the only dimension of what."""
    if n != 1:
        raise NotImplementedError(f"{what} is implemented for n = 1 only")


def quadrature_weights(profile):
    """The quadrature weights that a RadialProfile carries."""
    if profile.weights is None:
        raise ValueError("profile carries no quadrature weights")
    return profile.weights
