"""Shared fixtures."""

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
    `htype_heat_batch` hand to the separable engine (both through
    `heisenberg._central_integral`)."""
    cutoffs = []

    def recording(a, b, *rest):
        cutoffs.append(b)
        return quadrature.separable_panels(a, b, *rest)

    monkeypatch.setattr(heisenberg, "separable_panels", recording)
    return cutoffs
