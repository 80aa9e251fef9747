"""qmcforge: component-by-component construction and certification of rank-1
lattice rules and polynomial lattice rules with weighted worst-case-error and
star-discrepancy bounds.

The names below resolve on first use (PEP 562), so that ``import qmcforge``
and each CLI verb load only the modules they need.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "cbc": ("CbcTrace", "cbc_construct"),
    "discrepancy": ("DiscrepancyReport", "exact_star_discrepancy", "star_disc_bound",
                    "star_disc_bound_rho"),
    "errors": ("QmcforgeError", "ResourceLimitError", "UsageError"),
    "gfpoly": ("GFPoly", "gf_is_irreducible", "smallest_irreducible"),
    "korobov": ("LatticeRule", "MeritReport", "c_alpha_prime", "euler_totient", "p_merit_closed",
                "p_merit_series"),
    "stability": ("StabilityCertificate", "combined_bound_eq1", "jensen_certificate",
                  "prop_bound", "prop_certificate", "stability_bound"),
    "walsh": ("PolyLatticeRule", "mu_of", "p_merit_wal_series", "walsh_phi_alpha"),
    "weights": ("SpaceParams", "WeightSet", "check_monotone", "weighted_zeta_sum", "zeta"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
