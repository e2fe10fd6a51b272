"""Shared fixtures."""

import numpy as np
import pytest

from heisenkit import heisenberg, quadrature


@pytest.fixture
def order12_rules(monkeypatch):
    """Panel counts of the order-12 rules that the separable engine builds,
    in the order it builds them."""
    rules = []
    original = quadrature.gauss_panels

    def counting(a, b, panels, order=16):
        if order == 12:
            rules.append(panels)
        return original(a, b, panels, order)

    monkeypatch.setattr(quadrature, "gauss_panels", counting)
    return rules


@pytest.fixture
def engine_cutoffs(monkeypatch):
    """Upper ends of the frequency rules that `heat_kernel_grid` and
    `htype_heat_batch` hand to their integrator (both through
    `heisenberg._central_integral`): the last radius cutoff of the trapezoid
    rule (odd k), or the end of the panel rule (k = 2)."""
    cutoffs = []

    def trapezoid(step, ends, *rest):
        cutoffs.append(float(np.max(ends)))
        return quadrature.even_trapezoid(step, ends, *rest)

    def panels(a, b, *rest):
        cutoffs.append(b)
        return quadrature.separable_panels(a, b, *rest)

    monkeypatch.setattr(heisenberg, "even_trapezoid", trapezoid)
    monkeypatch.setattr(heisenberg, "separable_panels", panels)
    return cutoffs


@pytest.fixture
def trapezoid_rules(monkeypatch):
    """(nodes, radius cutoffs) of each trapezoid rule that
    `heisenberg._central_integral` runs, in the order it runs them: nodes
    counts the finer rule, step h / 2, up to the last cutoff."""
    rules = []

    def recording(step, ends, *rest):
        rules.append((int(2 * np.ceil(np.max(ends) / step)) + 1, np.array(ends)))
        return quadrature.even_trapezoid(step, ends, *rest)

    monkeypatch.setattr(heisenberg, "even_trapezoid", recording)
    return rules
