"""The argument contract of every entry point, each rule written once.

A validator raises ValueError naming the argument it was given, in one
form: "<name> must be <rule>, got <value>", and for a sample array
"... at index <index>", the first entry that breaks the rule.  Pointwise
special functions map a NaN point to NaN, as scipy.special does: only
their order, degree, dimension and frequency arguments come here.
"""

import cmath
import math

import numpy as np


def finite(name, value, nonnegative=False):
    """A real or complex scalar that is finite, and with nonnegative not
    below 0."""
    if not cmath.isfinite(value) or (nonnegative and value < 0):
        rule = "nonnegative and finite" if nonnegative else "finite"
        raise ValueError(f"{name} must be {rule}, got {value}")


def positive(name, value):
    """A real scalar with 0 < value < inf."""
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")


def nonzero(name, value):
    """A finite real scalar other than 0: a time s0 or a frequency lam."""
    if not (math.isfinite(value) and value != 0):
        raise ValueError(f"{name} must be finite and nonzero, got {value}")


def order(name, value, lowest):
    """An order with lowest < value < inf."""
    if not lowest < value < math.inf:
        raise ValueError(f"{name} must exceed {lowest:g} and be finite, got {value}")


def integer(name, value, lowest=1, allowed=None):
    """An integer of at least lowest (1, a dimension; 0, a degree), and one
    of allowed when they are given."""
    if not (math.isfinite(value) and value == int(value) and value >= lowest):
        kind = "positive" if lowest == 1 else "nonnegative"
        raise ValueError(f"{name} must be a {kind} integer, got {value}")
    if allowed is not None and value not in allowed:
        choices = ", ".join(map(str, allowed[:-1])) + f" or {allowed[-1]}"
        raise ValueError(f"{name} must be {choices}, got {value}")


def finite_array(name, values, nonnegative=False):
    """values as an array of floats, complex ones kept complex, whose every
    entry is finite, and with nonnegative not below 0."""
    values = np.asarray(values)
    values = values.astype(np.result_type(values, float), copy=False)
    bad, rule = ~np.isfinite(values), "finite"
    if nonnegative and not bad.any():
        bad, rule = values < 0, "nonnegative"
    if bad.any():
        index = tuple(np.argwhere(bad)[0].tolist())
        where = f" at index {index}" if index else ""
        raise ValueError(f"{name} must be {rule}, got {values[index]}{where}")
    return values


def one_dimensional(n, what):
    """NotImplementedError unless n = 1, the only dimension of what."""
    if n != 1:
        raise NotImplementedError(f"{what} is implemented for n = 1 only")


def quadrature_weights(profile):
    """The quadrature weights that a RadialProfile carries."""
    if profile.weights is None:
        raise ValueError("profile carries no quadrature weights")
    return profile.weights
