"""Numerical harmonic analysis on the Heisenberg group and its relatives.

The package computes the objects behind a family of Hardy-type uniqueness
results for the Schrodinger equation: heat kernels in real and complex time,
twisted convolution, bigraded spherical harmonics with Hecke-Bochner
projections, the Hermite (Mehler) propagator, H-type generalizations with
their partial Radon reduction, and the decay gates that decide when a
solution is forced to vanish.  `verify.run_suite` re-checks every headline
identity numerically; the `heisenkit` console script exposes kernels, suites
and gate sweeps.
"""

# set before the submodule imports: verify.py reads it while they run
__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .grids import (PolarGrid, RadialProfile, SpectralSlice, circle_rule,
                    partial_fourier_t, polar_grid, radial_rule, radial_slice,
                    s3_rule, sphere_area)
from .hankel import (DecayFit, DegenerateFitError, HankelPlan,
                     fit_gaussian_decay, hankel_plan, hankel_transform,
                     hardy_gate, plan_from_nodes)
from .heisenberg import (ComplexTime, HeisenbergPoint, group_inverse,
                         group_law, heat_bound_check, heat_kernel,
                         heat_kernel_grid, heat_kernel_lambda)
from .hermite import (CausticError, MehlerParams, gate_boundary_profile,
                      hermite_evolve, hermite_fn, hermite_gate, mehler_kernel)
from .htype import (HTypePoint, htype_gate, htype_heat_batch, htype_heat_kernel,
                    partial_radon, radon_heat_profile)
from .propagator import (DecayDomainError, ExceptionalLambdaError, GateParams,
                         equality_case_profile, gate_lambda_window, kernel_K,
                         schrodinger_evolve, theorem34_gaussian_pair,
                         theorem34_pair, uniqueness_gate)
from .quadrature import QuadratureError, adaptive_quad
from .specfun import (bessel_j_tilde, hille_hardy, jtilde_of_square, laguerre,
                      laguerre_fn, laguerre_series_sum)
from .spherical import (BigradedBasis, SolidHarmonic, build_basis,
                        harmonic_part, reconstruct, spherical_coefficients)
from .twisted import (hecke_bochner_check, laguerre_projection, slice_value,
                      twisted_convolution, twisted_convolution_quad)
from .verify import CheckRecord, SuiteReport, run_suite

# the public names are those imported above, listed once there
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
