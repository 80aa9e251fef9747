import qmcforge

# merged into one function of the rule, or used only by the tests
REMOVED = ("bernoulli_even", "cbc_construct_poly", "lattice_points", "p_merit_wal_closed",
           "poly_lattice_points", "prop1_certificate", "prop2_certificate", "prop_bound_lattice",
           "prop_bound_poly", "r_u_lattice", "r_u_poly", "rho_wal", "star_disc_bound_lattice",
           "star_disc_bound_poly", "star_disc_bound_rho_lattice", "star_disc_bound_rho_poly",
           "theorem1_bound", "theorem2_bound_poly", "zaremba_rho")


def test_all_names_resolve_once():
    names = qmcforge.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(qmcforge, name)]
    assert not missing


def test_removed_names_do_not_resolve():
    assert not [name for name in REMOVED + ("r_u",) if hasattr(qmcforge, name)]


def test_star_import():
    namespace = {}
    exec("from qmcforge import *", namespace)
    assert set(qmcforge.__all__) <= set(namespace)
