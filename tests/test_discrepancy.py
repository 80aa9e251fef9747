import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import lattice_modulus
from qmcforge.cbc import cbc_construct
from qmcforge.discrepancy import (exact_star_discrepancy, star_disc_bound, star_disc_bound_rho,
                                  weighted_exact_star_discrepancy)
from qmcforge.errors import UsageError
from qmcforge.gfpoly import GFPoly, smallest_irreducible
from qmcforge.korobov import LatticeRule
from qmcforge.oracle import dual_enumerate_poly, reference_star_discrepancy
from qmcforge.walsh import PolyLatticeRule, r_tilde
from qmcforge.weights import SpaceParams, WeightSet, subsets_of

P3 = GFPoly(2, (1, 1, 0, 1))


def r_values(rule):
    """The per-subset R of star_disc_bound, which do not depend on the weights."""
    return star_disc_bound(rule, WeightSet.product([1.0] * rule.s))[1]


def r_u(rule, u):
    return r_values(rule)[frozenset(u)]


def rho_bound(rule, alpha, W, Wprime):
    """star_disc_bound_rho at the rule's rho under (alpha, W)."""
    return star_disc_bound_rho(rule, alpha, W, Wprime, rule.rho(SpaceParams(alpha, W))[0])


class TestRLattice:
    def test_singleton_no_dual_in_box(self):
        assert r_u(LatticeRule(N=4, z=(1,)), [1]) == 0.0

    def test_pair_n2(self):
        assert r_u(LatticeRule(N=2, z=(1, 1)), [1, 2]) == 1.0

    def test_lists_every_nonempty_subset(self):
        for s in (1, 2, 3):
            assert list(r_values(LatticeRule(N=7, z=(1, 2, 3)[:s]))) == list(subsets_of(s))

    def test_reflection_invariance(self):
        for N in (5, 8, 13):
            for z2 in range(1, N):
                a = r_u(LatticeRule(N=N, z=(1, z2)), [1, 2])
                b = r_u(LatticeRule(N=N, z=(1, N - z2 if z2 < N else z2)), [1, 2])
                assert a == pytest.approx(b, abs=0.0)

    def test_matches_direct_box_scan(self):
        rule = LatticeRule(N=6, z=(1, 5))
        got = r_u(rule, [1, 2])
        direct = 0.0
        for k1 in range(-2, 4):
            for k2 in range(-2, 4):
                if (k1, k2) == (0, 0):
                    continue
                if (k1 * 1 + k2 * 5) % 6 == 0:
                    direct += 1 / (max(1, abs(k1)) * max(1, abs(k2)))
        assert got == pytest.approx(direct, rel=1e-13)


class TestJoeBoundLattice:
    def test_singleton_example(self):
        b, _ = star_disc_bound(LatticeRule(N=4, z=(1,)), WeightSet.product([1.0]))
        assert b == pytest.approx(0.25)

    def test_zero_weights(self):
        b, _ = star_disc_bound(LatticeRule(N=4, z=(1, 3)), WeightSet.product([0.0, 0.0]))
        assert b == 0.0

    def test_pair_example(self):
        b, _ = star_disc_bound(LatticeRule(N=2, z=(1, 1)), WeightSet.order_dependent([1.0, 1.0]))
        assert b == pytest.approx(2.25)


class TestRhoBoundLattice:
    def test_singleton_example(self):
        W = WeightSet.product([1.0])
        b, vac = rho_bound(LatticeRule(N=5, z=(1,)), 1.0, W, W)
        expect = 0.2 + 0.1 * (math.log(2) * math.log2(5) + 3.0)
        assert not vac
        assert b == pytest.approx(expect, rel=1e-12)

    def test_zero_prime_weights(self):
        W = WeightSet.product([1.0])
        Wp = WeightSet.product([0.0])
        b, vac = rho_bound(LatticeRule(N=5, z=(1,)), 1.0, W, Wp)
        assert b == 0.0 and not vac

    def test_vacuous_flag(self):
        W = WeightSet.explicit({(1,): 1.0}, s_max=2)
        Wp = WeightSet.order_dependent([1.0, 1.0])
        b, vac = rho_bound(LatticeRule(N=5, z=(1, 2)), 1.0, W, Wp)
        assert vac and math.isinf(b)

    def test_nonmonotone_rejected(self):
        W = WeightSet.explicit({(1,): 0.1, (1, 2): 0.5}, s_max=2)
        with pytest.raises(UsageError):
            rho_bound(LatticeRule(N=5, z=(1, 2)), 1.0, W, W)


class TestRPoly:
    def test_r_tilde_values(self):
        assert r_tilde(0, 2) == 1.0
        assert r_tilde(1, 2) == pytest.approx(0.5)
        assert r_tilde(2, 2) == pytest.approx(0.25)

    def test_sine_factor(self):
        # k_b in the factors (b - 1) (k_b (m + 1))^|u| of the rho-based bound
        def kb(b):
            rule = PolyLatticeRule(b=b, m=1, p=smallest_irreducible(b, 1), q=(GFPoly.one(b),))
            factors = rule.rho_bound_factors()
            assert factors[0] == b - 1
            return factors[1] / ((b - 1) * 2)
        assert kb(2) == 1.0
        assert kb(3) == pytest.approx(1 + 2 / math.sqrt(3), rel=1e-12)

    def test_full_grid_has_empty_dual_box(self):
        rule = PolyLatticeRule(b=2, m=3, p=P3, q=(GFPoly.one(2),))
        assert r_u(rule, [1]) == 0.0

    def test_matches_direct_scan(self):
        rule = PolyLatticeRule(b=2, m=2, p=GFPoly(2, (1, 1, 1)),
                               q=(GFPoly.from_code(2, 1), GFPoly.from_code(2, 3)))
        from qmcforge.oracle import dual_enumerate_poly
        direct = sum(r_tilde(k1, 2) * r_tilde(k2, 2)
                     for (k1, k2) in dual_enumerate_poly(rule, 2)
                     if (k1, k2) != (0, 0))
        assert r_u(rule, [1, 2]) == pytest.approx(direct, rel=1e-13)


class TestRhoBoundPoly:
    def test_m3_example(self):
        W = WeightSet.product([1.0])
        rule = PolyLatticeRule(b=2, m=3, p=P3, q=(GFPoly.one(2),))
        b, vac = rho_bound(rule, 1.0, W, W)
        assert b == pytest.approx(0.375, rel=1e-12)

    def test_zero_prime_weights(self):
        W = WeightSet.product([1.0])
        Wp = WeightSet.product([0.0])
        rule = PolyLatticeRule(b=2, m=3, p=P3, q=(GFPoly.one(2),))
        b, _ = rho_bound(rule, 1.0, W, Wp)
        assert b == 0.0


class TestExactDstar:
    def test_equispaced(self):
        for N in (3, 8, 17):
            pts = LatticeRule(N=N, z=(1,)).points()
            assert exact_star_discrepancy(pts, N) == pytest.approx(1.0 / N, abs=1e-15)

    def test_single_point_at_origin(self):
        assert exact_star_discrepancy(np.asarray([[0]]), 1) == pytest.approx(1.0)

    def test_two_dim_example(self):
        pts = LatticeRule(N=2, z=(1, 1)).points()
        assert exact_star_discrepancy(pts, 2) == pytest.approx(0.75)

    def test_three_dims_rejected(self):
        with pytest.raises(UsageError):
            exact_star_discrepancy(np.zeros((4, 3), dtype=int), 4)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(1, 80).flatmap(lambda denom: st.tuples(st.just(denom), st.lists(
        st.tuples(st.integers(0, denom - 1), st.integers(0, denom - 1)),
        min_size=1, max_size=60))))
    def test_two_dims_equal_reference(self, case):
        denom, pts = case
        assert exact_star_discrepancy(np.asarray(pts), denom) == \
            reference_star_discrepancy(pts, denom)

    def test_matches_reference_loop(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            N = int(rng.integers(2, 14))
            denom = int(rng.integers(N, 40))
            pts = rng.integers(0, denom, size=(N, 2))
            fast = exact_star_discrepancy(pts, denom)
            slow = reference_star_discrepancy(pts.tolist(), denom)
            assert fast == pytest.approx(slow, abs=1e-12)


class TestUpperBoundProperty:
    def test_lattice_bounds_dominate_exact(self):
        W = WeightSet.product([1.0, 1.0])
        for N in (4, 7, 12, 16):
            for z2 in (1, 3, N - 1):
                rule = LatticeRule(N=N, z=(1, z2))
                exact = exact_star_discrepancy(rule.points(), N)
                joe, _ = star_disc_bound(rule, W)
                rho_b, _ = rho_bound(rule, 1.0, W, W)
                # weighted D* with unit pair weight dominates the plain D*
                assert exact <= joe + 1e-9
                assert exact <= rho_b + 1e-9

    def test_poly_bounds_dominate_exact(self):
        W = WeightSet.product([1.0, 1.0])
        for m in (2, 3, 4):
            p = smallest_irreducible(2, m)
            for codes in ((1, 1), (1, 3), (3, 2 ** m - 1)):
                rule = PolyLatticeRule(b=2, m=m, p=p,
                                       q=tuple(GFPoly.from_code(2, c) for c in codes))
                exact = exact_star_discrepancy(rule.points(), 2 ** m)
                joe, _ = star_disc_bound(rule, W)
                rho_b, _ = rho_bound(rule, 1.0, W, W)
                assert exact <= joe + 1e-9
                assert exact <= rho_b + 1e-9


class TestBeyondEnumerationSizes:
    """Sizes the dual-box R enumeration refused (N > 256, |u| > 3)."""

    def test_lattice_n4093_dominates_exact(self):
        W = WeightSet.product([1.0, 0.25])
        rule, _ = cbc_construct(lattice_modulus(4093), 2, SpaceParams(alpha=1.0, weights=W),
                                fast=True)
        joe, r_values = star_disc_bound(rule, W)
        assert len(r_values) == 3
        assert joe >= weighted_exact_star_discrepancy(rule.points(), 4093, W)

    def test_poly_s5_matches_enumeration(self):
        rule = PolyLatticeRule(b=2, m=3, p=P3,
                               q=tuple(GFPoly.from_code(2, c) for c in (1, 3, 5, 7, 6)))
        W = WeightSet.product([j ** -2.0 for j in range(1, 6)])
        joe, r_values = star_disc_bound(rule, W)
        duals = [k for k in dual_enumerate_poly(rule, 3) if any(k)]
        assert len(r_values) == 31
        expect = 0.0
        for u, r in r_values.items():
            # duals of the projection onto u: the duals supported inside u
            want = math.fsum(math.prod(r_tilde(kj, 2) for kj in k) for k in duals
                             if all(k[j] == 0 for j in range(5) if j + 1 not in u))
            assert r == pytest.approx(want, rel=1e-12, abs=1e-15)
            expect += W.weight(u) * (1 - (7 / 8) ** len(u) + want)
        assert joe >= expect
