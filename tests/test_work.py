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
    # cbc builds the candidate rows and columns from rule.points
    modulus = poly_modulus(2, 4, GFPoly(2, (1, 1, 0, 0, 1)))
    no_budget.setattr(PolyLatticeRule, "points", entered)
    with pytest.raises(ResourceLimitError):
        cbc.cbc_construct(modulus, 3, SpaceParams(alpha=1.0, weights=product(3)))


def test_lattice_direct_scan_refused_before_rows(monkeypatch, capsys):
    # N = 65536, s = 8 streams (the 2^15 x (2^15 + 1) rows are 8 GiB), so each of the
    # 7 steps rebuilds 2^30 cells: far over the default budget, refused before any row
    monkeypatch.setattr(LatticeRule, "points", entered)
    assert cli.main(["construct", "--N", "65536", "--s", "8"]) == 3
    assert "budget" in capsys.readouterr().err


def scan_units(monkeypatch, modulus, s):
    """The units cbc charges for a held and for a streamed scan of s components, and
    whether both give one rule and trace."""
    units = []
    monkeypatch.setattr(cbc, "afford", lambda u, ns_per_unit, what: units.append(u))
    params = SpaceParams(alpha=1.0, weights=product(s))
    held = cbc.cbc_construct(modulus, s, params)
    monkeypatch.setattr(errors, "MEMORY_BUDGET", 1 << 16)
    return units, cbc.cbc_construct(modulus, s, params) == held


def test_streamed_poly_scan_counts_a_build_per_step(monkeypatch):
    # b = 2, m = 8, s = 8: the held rows are built once; with none held, each of
    # the 7 steps rebuilds them; either way 7 steps scan them; 8 steps form a column
    units, same = scan_units(monkeypatch, poly_modulus(2, 8), 8)
    cells, per_step = 255 * 256, (256 + 4000) * 96 * 8
    assert same and units == [cells * (96 + 7) + per_step, cells * (96 * 7 + 7) + per_step]


def test_streamed_lattice_scan_counts_a_build_per_step(monkeypatch):
    # N = 509, s = 8: 254 candidates over the 255 points n <= N/2, at the lattice
    # rule's 18 units a cell
    units, same = scan_units(monkeypatch, LatticeRule(N=509, z=(1,)), 8)
    cells, per_step = 254 * 255, (509 + 4000) * 18 * 8
    assert same and units == [cells * (18 + 7) + per_step, cells * (18 * 7 + 7) + per_step]


def test_poly_scan_at_s1_counts_no_scan(tmp_path):
    # s = 1 scans nothing, so b = 2, m = 17 (2^34 cells a scan) is not refused
    assert cli.main(["construct", "--kind", "poly-lattice", "--b", "2", "--m", "17", "--s", "1",
                     "--out", str(tmp_path / "rule.json")]) == 0


@pytest.mark.parametrize("b, m, codes", [(2, 10, [1, 187, 611]), (3, 5, [1, 100, 200]),
                                         (2, 1, [1] * 12), (3, 1, [1, 2] * 6), (5, 2, [1, 7, 13]),
                                         (7, 2, [1, 8, 20])],
                         ids=["2-10", "3-5", "2-1", "3-1", "5-2", "7-2"])
def test_dual_minima_units_per_subset(monkeypatch, b, m, codes):
    # m (b^(m+1) + 2000 b) + 5000 units for each of the 2^s - 1 subsets, and nothing
    # per coordinate, since the shift halves are built once per call; at m = 1 the
    # 5000 of the loop's own step are most of it
    units = []
    monkeypatch.setattr(walsh, "afford", lambda u, ns_per_unit, what: units.append(u))
    walsh.dual_mu_minima(poly_modulus(b, m).with_codes(codes))
    assert units == [(2 ** len(codes) - 1) * (m * (b ** (m + 1) + 2000 * b) + 5000)]
