"""The bilinear Laguerre generating series against its closed form.

The series sum_k k!/Gamma(k+a+1) L_k^a(x) L_k^a(y) w^k has a product closed
form involving a modified Bessel factor.  Inside the unit disc the truncated
series converges geometrically.  On the unit circle, away from w = 1, it does
not converge at all: the tail resummation built into the evaluator returns its
Abel sum, which the closed form equals there.
The evaluator broadcasts over x, y and w, so a whole lattice of points is one
call.
"""

import numpy as np

from heisenkit import hille_hardy

print("interior of the disc (|w| = 0.7), every (w, x, y) in one call per alpha:")
w, x, y = np.ix_(np.array([0.7, -0.7, 0.7j, 0.5 * np.exp(0.25j * np.pi)]),
                 np.array([0.0, 1.0, 2.5, 4.0]), np.array([0.0, 1.0, 2.5, 4.0]))
for alpha in (0.0, 1.0, 2.0):
    lhs, rhs = hille_hardy(alpha, x, y, w)
    print(f"  alpha = {alpha}: max rel error {np.max(np.abs(lhs - rhs) / np.abs(rhs)):.2e}")

print("rim of the disc (|w| = 1, the Abel sum):")
w = np.exp(2j * np.pi / 3.0)
lhs, rhs = hille_hardy(1.0, 1.0, 2.0, w, K=1500)
print(f"  series {lhs:.6f}")
print(f"  closed {rhs:.6f}")
print(f"  rel error {abs(lhs - rhs) / abs(rhs):.2e}")
