"""Shared fixtures."""

import numpy as np
import pytest

from heisenkit import heisenberg, quadrature


@pytest.fixture
def engine_cutoffs(monkeypatch):
    """Upper ends, in lam, of the trapezoid rules that `heat_kernel_grid` and
    `htype_heat_batch` hand to their integrator (both through
    `heisenberg._central_integral`): the last radius cutoff, taken back to
    lam through the rule's map where it has one (k = 2)."""
    cutoffs = []

    def trapezoid(step, ends, *rest, start=0.0, mapping=None):
        end = np.max(ends)
        cutoffs.append(float(end if mapping is None else mapping(end)[0]))
        return quadrature.even_trapezoid(step, ends, *rest, start=start, mapping=mapping)

    monkeypatch.setattr(heisenberg, "even_trapezoid", trapezoid)
    return cutoffs


@pytest.fixture
def trapezoid_rules(monkeypatch):
    """(nodes, radius cutoffs) of each trapezoid rule that
    `heisenberg._central_integral` runs, in the order it runs them: nodes
    counts the finer rule, step h / 2, from its start up to the last cutoff."""
    rules = []

    def recording(step, ends, *rest, start=0.0, mapping=None):
        rules.append((int(2 * np.ceil((np.max(ends) - start) / step)) + 1, np.array(ends)))
        return quadrature.even_trapezoid(step, ends, *rest, start=start, mapping=mapping)

    monkeypatch.setattr(heisenberg, "even_trapezoid", recording)
    return rules
