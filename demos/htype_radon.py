"""H-type heat kernels and their partial Radon collapse to the n = 1 kernel.

On a group with a k-dimensional center the kernel depends on |v| and |t|
only.  Integrating over a hyperplane of the center (the partial Radon
transform) removes one central dimension; iterated all the way down it lands
exactly on the n = 1 kernel, which the profile below checks at k = 2 and 3.
"""

import numpy as np

from heisenkit import (HTypePoint, heat_kernel_grid, htype_gate,
                       htype_heat_batch, htype_heat_kernel, radon_heat_profile)

p = HTypePoint((0.7, 0.3), (0.4, 0.0, 0.1))
print(f"kernel at v = {p.v}, t = {p.t} (n = 1, k = 3):")
print(f"  h_1 = {htype_heat_kernel(1.0, p):.10f}")

vn, tn = np.array([0.5, 1.0, 1.5]), np.array([0.2, 0.2, 0.2])
big = htype_heat_batch(4.0, 1, 2, 2.0 * vn, 4.0 * tn)
ref = htype_heat_batch(1.0, 1, 2, vn, tn)
print("parabolic scaling h_4s(2v, 4t) = h_s / 2^(2n+2k), n = 1, k = 2:")
print(f"  max |ratio - 64| = {np.max(np.abs(ref / big - 64.0)):.2e}")

v = np.linspace(0.4, 2.0, 5)
t = np.linspace(-1.5, 1.5, 5)
want = heat_kernel_grid(1.0, v[:, None], t[None, :])
print("partial Radon of the k = 2 and k = 3 kernels vs the n = 1 kernel on a 5x5 grid:")
for k in (2, 3):
    got = radon_heat_profile(1.0, v, t, n=1, k=k)
    print(f"  k = {k}: max rel error {np.max(np.abs(got - want)) / np.max(np.abs(want)):.2e}")

print("gate decisions (threshold ab < s0^2):")
for a, b, s0 in ((1.0, 1.0, 2.0), (2.0, 1.0, 1.0)):
    print(f"  a = {a}, b = {b}, s0 = {s0}: "
          f"{'forces zero' if htype_gate(a, b, s0) else 'inconclusive'}")
