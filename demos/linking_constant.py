"""The linking constant between a solution at two times, and the gates it feeds.

Evolving a frequency slice from time 0 to s0 multiplies each Laguerre mode by
a phase; for one bigraded sector the whole map collapses to a single constant
c_lambda times a kernel integral.  The ratio of the two pipelines must come
out independent of the radius, which is what theorem34_gaussian_pair measures.
The same machinery yields the lambda-window gate: a margin above zero forces
the solution to vanish.
"""

import math

import numpy as np

from heisenkit import (ExceptionalLambdaError, equality_case_profile, gate_lambda_window,
                       theorem34_gaussian_pair, uniqueness_gate)

lhs, rhs, stats = theorem34_gaussian_pair(1.0, 1.0, 1.0)
c = stats["c_lambda"]
print("ratio of the two pipelines for Gaussian data (a = 1, lam = 1, s0 = 1):")
print(f"  c_lambda = {c.real:+.6f} {c.imag:+.6f}i")
print(f"  relative std over the radial window: {stats['rel_std']:.2e}")

try:
    theorem34_gaussian_pair(1.0, math.pi, 1.0)
except ExceptionalLambdaError as e:
    print(f"  lam * s0 = pi is rejected: {e}")

print("lambda windows on both sides of ab = s0^2:")
for a, b, s0 in ((0.3, 0.3, 0.7), (1.0, 1.0, 0.5)):
    delta = gate_lambda_window(a, b, s0)
    if delta is None:
        print(f"  a = {a}, b = {b}, s0 = {s0}: no window (ab >= s0^2)")
    else:
        margin, ok = uniqueness_gate(a, b, s0, 0.0, 0.5 * delta)
        print(f"  a = {a}, b = {b}, s0 = {s0}: window (0, {delta:.4f}), "
              f"margin at the midpoint {margin:+.4f} ({'pass' if ok else 'fail'})")

_, b_fit, residual = equality_case_profile(1.0, 1.0, 1.0)
print("equality case: evolved Gaussian decays at the tanh-matched rate")
print(f"  fitted b = {b_fit:.6f}, tanh-relation residual {residual:.2e}")
