"""The harmonic-oscillator propagator and its quarter-turn Fourier transform.

The Mehler kernel evolves Hermite functions by pure phases, turns into the
Fourier transform at s = pi/4, and degenerates at the caustics s in
(pi/2) Z.  Its Gaussian-boundary decay product lands exactly on the critical
quarter, which is the sharpness statement behind the oscillator gate.
"""

import math

import numpy as np

from heisenkit import (CausticError, gate_boundary_profile, hermite_evolve, hermite_fn,
                       hermite_gate, mehler_kernel)

x = np.linspace(-4.0, 4.0, 161)
s = 0.35
print(f"eigenphases under e^(-isH) at s = {s}:")
for k in (0, 1, 2):
    hk = hermite_fn(k, x)
    u = hermite_evolve(lambda y, k=k: hermite_fn(k, y).astype(complex), s, x=x)
    i = int(np.argmax(np.abs(hk)))       # odd modes vanish at the origin
    print(f"  k = {k}: measured phase {u[i] / hk[i]:.6f}, "
          f"want exp(-{2 * k + 1}is) = {np.exp(-1j * (2 * k + 1) * s):.6f}")

u = hermite_evolve(lambda y: np.exp(-0.5 * y * y).astype(complex),
                   0.25 * math.pi, x=x)
err = np.max(np.abs(u - np.exp(-0.25j * math.pi) * np.exp(-0.5 * x * x)))
print(f"s = pi/4 fixes the Gaussian up to a phase: max abs error {err:.2e}")

try:
    mehler_kernel(0.5 * math.pi, x, 0.0)
except CausticError as e:
    print(f"caustic at s = pi/2 is refused: {e}")

print("boundary decay product ab sin^2(2 s0) for the evolved Gaussian:")
for a, s0 in ((1.0, 0.125 * math.pi), (0.7, 0.5)):
    _, prod = gate_boundary_profile(a, s0)
    print(f"  a = {a}, s0 = {s0:.4f}: product = {prod:.6f} (want 0.25)")

margin, ok = hermite_gate(1.0, 1.0, 0.25 * math.pi)
print(f"gate at (a, b, s0) = (1, 1, pi/4): margin {margin:+.2f}, "
      f"{'supercritical' if ok else 'subcritical'}")
