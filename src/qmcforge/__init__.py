"""qmcforge: component-by-component construction and certification of rank-1
lattice rules and polynomial lattice rules with weighted worst-case-error and
star-discrepancy bounds."""

from .cbc import CbcTrace, cbc_construct, euler_totient
from .discrepancy import (DiscrepancyReport, exact_star_discrepancy, r_u_lattice,
                          r_u_poly, star_disc_bound_lattice, star_disc_bound_poly,
                          star_disc_bound_rho_lattice, star_disc_bound_rho_poly)
from .errors import QmcforgeError, ResourceLimitError, UsageError
from .gfpoly import GFPoly, gf_is_irreducible, smallest_irreducible
from .korobov import (LatticeRule, MeritReport, bernoulli_even, lattice_points,
                      p_merit_closed, p_merit_series, zaremba_rho)
from .stability import (CorollaryProbe, StabilityCertificate, c_alpha_prime,
                        combined_bound_eq1, corollary_probe, jensen_certificate,
                        prop_bound, theorem1_bound, theorem2_bound_poly)
from .walsh import (PolyLatticeRule, cbc_construct_poly, mu_of, p_merit_wal_closed,
                    p_merit_wal_series, poly_lattice_points, rho_wal, walsh_phi_alpha)
from .weights import SpaceParams, WeightSet, check_monotone, weighted_zeta_sum, zeta

__version__ = "0.1.0"

__all__ = [
    "CbcTrace", "CorollaryProbe", "DiscrepancyReport", "GFPoly", "LatticeRule",
    "MeritReport", "PolyLatticeRule", "QmcforgeError", "ResourceLimitError", "SpaceParams",
    "StabilityCertificate", "UsageError", "WeightSet", "bernoulli_even", "c_alpha_prime",
    "cbc_construct", "cbc_construct_poly", "check_monotone", "combined_bound_eq1",
    "corollary_probe", "euler_totient", "exact_star_discrepancy", "gf_is_irreducible",
    "jensen_certificate", "lattice_points", "mu_of", "p_merit_closed", "p_merit_series",
    "p_merit_wal_closed", "p_merit_wal_series", "poly_lattice_points", "prop_bound",
    "r_u_lattice", "r_u_poly", "rho_wal", "smallest_irreducible", "star_disc_bound_lattice",
    "star_disc_bound_poly", "star_disc_bound_rho_lattice", "star_disc_bound_rho_poly",
    "theorem1_bound", "theorem2_bound_poly", "walsh_phi_alpha", "weighted_zeta_sum",
    "zaremba_rho", "zeta",
]
