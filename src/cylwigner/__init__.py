"""Cylindrical-coordinate Wigner functions for two-mode OAM states.

Computes the real quasiprobability W(r, phi, ell) of a two-mode bosonic
state -- radius, azimuth, and integer orbital angular momentum -- through
an EPR-type entangled-state representation, together with its angle-OAM
and radial marginals and an independent brute-force route (radial-momentum
integral of the 4D Cartesian Wigner function) used for validation.
"""

__version__ = "0.1.0"

from .cylindrical import (DEFAULT_R_MIN, KAPPA, CylGrid, CylPoint, default_rule,
                          marginal_angle_oam, marginal_radial,
                          oracle_cyl_from_cartesian, wigner_cyl, wigner_cyl_grid)
from .entangled import (EntangledArg, laguerre_gauss_profile, psi_entangled,
                        xi_fock_overlap)
from .quadrature import QuadKind, QuadratureRule, gauss_hermite, gauss_legendre_mapped
from .specfun import hermite2, laguerre
from .statespec import (StateKind, StateSpec, build_state, parse_state_spec,
                        serialize_state_spec)
from .twomode import (CartesianPoint4, TwoModeFock, expectation_N_L,
                      make_N_l_eigenstate, make_summed_oam, make_superposition,
                      mode_rotate_xy_to_pm, rotate_state, wigner_4d)

__all__ = [
    "__version__",
    "CartesianPoint4", "CylGrid", "CylPoint", "DEFAULT_R_MIN", "EntangledArg",
    "KAPPA", "QuadKind", "QuadratureRule", "StateKind", "StateSpec",
    "TwoModeFock", "build_state", "default_rule", "expectation_N_L",
    "gauss_hermite", "gauss_legendre_mapped", "hermite2", "laguerre",
    "laguerre_gauss_profile", "make_N_l_eigenstate", "make_summed_oam",
    "make_superposition", "marginal_angle_oam", "marginal_radial",
    "mode_rotate_xy_to_pm", "oracle_cyl_from_cartesian", "parse_state_spec",
    "psi_entangled", "rotate_state", "serialize_state_spec", "wigner_4d",
    "wigner_cyl", "wigner_cyl_grid", "xi_fock_overlap",
]
