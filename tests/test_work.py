"""Work budget tests: every time refusal goes through errors.afford, which
refuses a call whose estimated time exceeds errors.WORK_BUDGET_NS before its
work starts.

Each site is called under a budget below its estimate, with the function that
does its work patched to fail if entered, so a refusal shows that no guarded
work ran.  No test reads a clock."""

import numpy as np
import pytest

from conftest import poly_modulus
from qmcforge import cbc, cli, discrepancy, errors, gfpoly, korobov, walsh, weights
from qmcforge.errors import ResourceLimitError, afford
from qmcforge.gfpoly import GFPoly
from qmcforge.korobov import LatticeRule
from qmcforge.walsh import PolyLatticeRule
from qmcforge.weights import SpaceParams, WeightSet


def entered(*args, **kwargs):
    raise AssertionError("guarded work started before the work budget was checked")


@pytest.fixture
def no_budget(monkeypatch):
    """A 1 ns work budget: every site's estimate exceeds it."""
    monkeypatch.setattr(errors, "WORK_BUDGET_NS", 1)
    return monkeypatch


def product(s):
    return WeightSet.product([j ** -2.0 for j in range(1, s + 1)])


def test_afford_message_and_huge_units():
    afford(10 ** 9, 10.0, "ten seconds")  # at the budget, admitted
    with pytest.raises(ResourceLimitError, match=r"^2\^s needs about 1e\+291 s, budget 10 s$"):
        afford(2 ** 1000, 1.0, "2^s")  # a Python int past float64's range


def test_star_disc_bound_before_points(no_budget):
    no_budget.setattr(discrepancy, "_point_sum", entered)
    no_budget.setattr(LatticeRule, "points", entered)
    with pytest.raises(ResourceLimitError):
        discrepancy.star_disc_bound(LatticeRule(N=31, z=(1, 12)), product(2))


@pytest.mark.parametrize("z, what", [((1, 12), "exact star discrepancy"), ((1,), "subset sums")])
def test_discrepancy_report_refuses_before_points(no_budget, z, what):
    # the s = 2 exact D* is refused first, then the subset sums; both before any points
    no_budget.setattr(discrepancy, "star_disc_bound", entered)
    no_budget.setattr(LatticeRule, "points", entered)
    with pytest.raises(ResourceLimitError, match=what):
        discrepancy.discrepancy_report(LatticeRule(N=31, z=z),
                                       SpaceParams(alpha=1.0, weights=product(len(z))), None)


def test_exact_star_discrepancy_before_grid(no_budget):
    no_budget.setattr(np, "unique", entered)
    pts = np.stack([np.arange(31), (12 * np.arange(31)) % 31], axis=1)
    with pytest.raises(ResourceLimitError):
        discrepancy.exact_star_discrepancy(pts, 31)


def test_dual_product_minima_before_search(no_budget):
    no_budget.setattr(korobov, "_phi_search", entered)
    with pytest.raises(ResourceLimitError):
        korobov.dual_product_minima(LatticeRule(N=31, z=(1, 12)))


def test_dual_mu_minima_before_recursion(no_budget):
    no_budget.setattr(walsh, "_cost_extend", entered)
    rule = PolyLatticeRule(b=2, m=3, p=GFPoly(2, (1, 1, 0, 1)),
                           q=(GFPoly(2, (1,)), GFPoly(2, (0, 1))))
    with pytest.raises(ResourceLimitError):
        walsh.dual_mu_minima(rule)


@pytest.mark.parametrize("rule", [
    LatticeRule(N=31, z=(1, 12)),
    PolyLatticeRule(b=2, m=3, p=GFPoly(2, (1, 1, 0, 1)), q=(GFPoly(2, (1,)), GFPoly(2, (0, 1)))),
], ids=["lattice", "poly"])
def test_rho_checks_the_budget_on_every_call(monkeypatch, rule):
    # no dual minima outlive the call that computed them, so a repeated rho is checked again
    params = SpaceParams(alpha=1.0, weights=product(2))
    rule.rho(params)
    monkeypatch.setattr(errors, "WORK_BUDGET_NS", 1)
    with pytest.raises(ResourceLimitError):
        rule.rho(params)


def test_ratio_sum_before_subset_loop(no_budget):
    no_budget.setattr(weights, "subsets_of", entered)
    W = WeightSet.explicit({(1,): 1.0, (2,): 0.5, (1, 2): 0.25})
    with pytest.raises(ResourceLimitError):
        weights.ratio_size_sum(W, product(2), 0.5, [1.0] * 3, 2)


def test_irreducibility_before_trial_division(no_budget):
    no_budget.setattr(gfpoly, "_divides", entered)
    with pytest.raises(ResourceLimitError):
        gfpoly.gf_is_irreducible(GFPoly(2, (1, 1, 0, 1)))


def test_poly_cbc_scan_before_rows(no_budget):
    modulus = poly_modulus(2, 4, GFPoly(2, (1, 1, 0, 0, 1)))
    no_budget.setattr(walsh, "_points_of", entered)
    no_budget.setattr(cbc, "_row_scan", entered)
    with pytest.raises(ResourceLimitError):
        cbc.cbc_construct(modulus, 3, SpaceParams(alpha=1.0, weights=product(3)))


def test_streamed_poly_scan_counts_a_build_per_step(monkeypatch):
    # b = 2, m = 8, s = 8: the held rows are built once; with none held, each of
    # the 7 steps rebuilds them; either way 7 steps scan them
    units = []
    monkeypatch.setattr(walsh, "afford", lambda u, ns_per_unit, what: units.append(u))
    params = SpaceParams(alpha=1.0, weights=product(8))
    cbc.cbc_construct(poly_modulus(2, 8), 8, params)
    monkeypatch.setattr(errors, "MEMORY_BUDGET", 1 << 16)
    cbc.cbc_construct(poly_modulus(2, 8), 8, params)
    per_step = 50000 * 8 * 8
    assert units == [2 ** 16 * (96 + 7) + per_step, 2 ** 16 * (96 * 7 + 7) + per_step]


def test_poly_scan_at_s1_counts_no_scan(tmp_path):
    # s = 1 scans nothing, so b = 2, m = 17 (2^34 cells a scan) is not refused
    assert cli.main(["construct", "--kind", "poly-lattice", "--b", "2", "--m", "17", "--s", "1",
                     "--out", str(tmp_path / "rule.json")]) == 0


def test_rebuilt_shifts_count_a_build_per_extension(monkeypatch):
    # b = 2, m = 10, s = 3: the held shifts are built once per coordinate; with
    # none held, each of the 7 subset extensions rebuilds its coordinate's shifts
    units = []
    monkeypatch.setattr(walsh, "afford", lambda u, ns_per_unit, what: units.append(u))
    rule = poly_modulus(2, 10).with_codes([1, 187, 611])
    walsh.dual_mu_minima(rule)
    monkeypatch.setattr(errors, "MEMORY_BUDGET", 3 * 10 * 2 ** 10 * 8 - 1)
    walsh.dual_mu_minima(rule)
    per_subset, per_build = 10 * (2 ** 11 + 4000), 10 * (2 ** 11 + 125000)
    assert units == [7 * per_subset + 3 * per_build, 7 * (per_subset + per_build)]
