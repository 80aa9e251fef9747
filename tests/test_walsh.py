from itertools import product

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import poly_modulus
from oracle import (_base_digits, _poly_digits_mod, _poly_digits_mul, char_sum_poly,
                    dual_enumerate_poly, reference_poly_points)
from qmcforge import cbc, korobov
from qmcforge.cbc import cbc_construct
from qmcforge.errors import UsageError
from qmcforge.gfpoly import GFPoly, gf_is_irreducible, smallest_irreducible
from qmcforge.korobov import p_merit_closed
from qmcforge.walsh import (PolyLatticeRule, _phi_axis, _shift_halves, dual_mu_minima, mu_of,
                            p_merit_wal_series, walsh_phi_alpha)
from qmcforge.weights import SpaceParams, WeightSet, subsets_of

P3 = GFPoly(2, (1, 1, 0, 1))  # x^3 + x + 1


def unit_params(s, alpha=1.0):
    return SpaceParams(alpha=alpha, weights=WeightSet.order_dependent([1.0] * s))


def rule_m3(*qcodes):
    return PolyLatticeRule(b=2, m=3, p=P3,
                           q=tuple(GFPoly.from_code(2, c) for c in qcodes))


class TestRuleValidation:
    def test_degree_bound(self):
        with pytest.raises(UsageError):
            PolyLatticeRule(b=2, m=2, p=GFPoly(2, (1, 1, 1)), q=(GFPoly(2, (1, 1, 1)),))

    def test_zero_component(self):
        with pytest.raises(UsageError):
            PolyLatticeRule(b=2, m=2, p=GFPoly(2, (1, 1, 1)), q=(GFPoly.zero(2),))

    def test_modulus_degree(self):
        with pytest.raises(UsageError):
            PolyLatticeRule(b=2, m=3, p=GFPoly(2, (1, 1, 1)), q=(GFPoly.one(2),))


class TestMu:
    def test_small_values(self):
        assert mu_of(1, 2) == 1
        assert mu_of(4, 2) == 3
        assert mu_of(9, 3) == 3

    def test_zero_rejected(self):
        with pytest.raises(UsageError):
            mu_of(0, 2)

    def test_bracketing_invariant(self):
        for b in (2, 3, 5):
            for k in range(1, 300):
                mu = mu_of(k, b)
                assert b ** (mu - 1) <= k < b ** mu


class TestPhiAlpha:
    def test_at_zero(self):
        assert walsh_phi_alpha(0, 3, 1.0, 2) == pytest.approx(0.5)
        assert walsh_phi_alpha(0, 1, 2.0, 2) == pytest.approx(1 / 14)

    def test_first_digit_one(self):
        assert walsh_phi_alpha(4, 3, 1.0, 2) == pytest.approx(-0.25)

    def test_alpha_floor(self):
        with pytest.raises(UsageError):
            walsh_phi_alpha(0, 3, 0.5, 2)

    @pytest.mark.parametrize("b,alpha", [(2, 1.0), (2, 1.5), (3, 1.0)])
    def test_walsh_series_identity(self, b, alpha):
        # phi_alpha(x) = sum_{k >= 1} b^(-2 alpha mu(k)) wal_k(x) for dyadic x
        m = 3
        omega = np.exp(2j * np.pi / b)
        for numer in range(b ** m):
            digits = []
            v = numer
            for _ in range(m):
                v, d = divmod(v, b)
                digits.append(d)
            digits = digits[::-1]  # xi_1 .. xi_m
            K = b ** 12
            total = 0.0
            for a in range(1, 13):
                shell = 0.0 + 0.0j
                for k in range(b ** (a - 1), b ** a):
                    kk, e = k, 0
                    for xi in digits:
                        e += (kk % b) * xi
                        kk //= b
                    shell += omega ** (e % b)
                total += float(b) ** (-2.0 * alpha * a) * shell.real
            got = walsh_phi_alpha(numer, m, alpha, b)
            tail = float(b) ** ((1 - 2 * alpha) * 12) / (1 - float(b) ** (1 - 2 * alpha))
            assert abs(got - total) <= tail + 1e-10

    @pytest.mark.parametrize("b,m", [(2, 10), (3, 6), (7, 3)])
    @pytest.mark.parametrize("alpha", [1.0, 1.5])
    def test_axis_equals_per_numerator_kernel(self, b, m, alpha):
        table = _phi_axis(b, m, alpha)
        assert table.shape == (b ** m,)
        for a in range(b ** m):
            assert table[a] == walsh_phi_alpha(a, m, alpha, b)  # bitwise


class TestPoints:
    def test_m2_example(self):
        rule = PolyLatticeRule(b=2, m=2, p=GFPoly(2, (1, 1, 1)), q=(GFPoly.one(2),))
        pts = rule.points()
        assert pts[:, 0].tolist() == [0, 1, 3, 2]  # 0, 1/4, 3/4, 1/2

    def test_m1_monomial(self):
        rule = PolyLatticeRule(b=2, m=1, p=GFPoly(2, (0, 1)), q=(GFPoly.one(2),))
        pts = rule.points()
        assert sorted(pts[:, 0].tolist()) == [0, 1]  # {0, 1/2}

    def test_zero_index_point_is_origin(self):
        rule = rule_m3(5, 3)
        pts = rule.points()
        assert pts[0].tolist() == [0, 0]

    def test_unit_scaling_invariance(self):
        # multiplying every q_j by a nonzero constant permutes the points
        b, m = 3, 2
        p = smallest_irreducible(b, m)
        q = (GFPoly.from_code(b, 4), GFPoly.from_code(b, 7))
        base = PolyLatticeRule(b=b, m=m, p=p, q=q)
        for c in (2,):
            scaled = PolyLatticeRule(  # c q_j has degree < m: no reduction mod p
                b=b, m=m, p=p, q=tuple(GFPoly(b, tuple(c * a for a in qj.coeffs)) for qj in q))
            a = sorted(map(tuple, base.points().tolist()))
            bb = sorted(map(tuple, scaled.points().tolist()))
            assert a == bb
            pa = p_merit_closed(base, unit_params(2)).p_value
            pb = p_merit_closed(scaled, unit_params(2)).p_value
            assert pa == pytest.approx(pb, rel=1e-12)


def random_rule(b, m, p, s, seed):
    rng = np.random.default_rng(seed)
    return PolyLatticeRule(b=b, m=m, p=p, q=tuple(GFPoly.from_code(b, int(c))
                                                  for c in rng.integers(1, b ** m, size=s)))


# (b, p): two reducible moduli, one of them not monic
REDUCIBLE = [(2, GFPoly(2, (1, 0, 1, 0, 1))),  # (x^2 + x + 1)^2
             (3, GFPoly(3, (0, 1, 0, 2)))]     # x (2x^2 + 1)


@pytest.mark.parametrize("modulus", ["irreducible", "x^m + 1"])
@pytest.mark.parametrize("b, m", [(2, 6), (3, 4), (5, 3), (7, 2), (2, 1), (2, 7), (3, 1),
                                  (3, 5), (5, 1), (5, 4), (7, 1), (7, 3)])
def test_residue_shift_matches_oracle(b, m, modulus):
    # hi[j, e, t // b^k] b^k + lo[j, e, t % b^k], k = m // 2, is the code of
    # t - (x^e q_j mod p), the product and reduction taken on the oracle's digit
    # lists, for every t in G_m and every e < m; at m = 1, lo has one entry
    def padded(digits):
        return digits + [0] * (m - len(digits))

    xm1 = GFPoly(b, (1,) + (0,) * (m - 1) + (1,))
    p = smallest_irreducible(b, m) if modulus == "irreducible" else xm1
    rule = random_rule(b, m, p, 2, seed=b * m)
    hi, lo = _shift_halves(rule)
    k, codes = m // 2, np.arange(b ** m)
    assert hi.shape == (2, m, b ** (m - k)) and lo.shape == (2, m, b ** k)
    for j, qj in enumerate(rule.q):
        for e in range(m):
            v = padded(_poly_digits_mod(_poly_digits_mul([0] * e + [1], list(qj.coeffs), b),
                                        list(p.coeffs), b))
            expected = [sum((d - vi) % b * b ** i
                            for i, (d, vi) in enumerate(zip(padded(_base_digits(t, b, m)), v)))
                        for t in range(b ** m)]
            composed = hi[j, e, codes // b ** k] * b ** k + lo[j, e, codes % b ** k]
            assert composed.tolist() == expected


# phi_u past the oracle's box, recorded from full b^m residue-shift tables: odd m
# splits the codes into halves of unequal size, and the last modulus,
# 2 x^6 + x^5 + 2 x^2 + 1 over Z_3, is reducible and not monic
PINNED_MINIMA = [
    (2, 12, (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1), [1568, 1353, 3077, 1660],
     {(1,): 13, (2,): 13, (3,): 13, (4,): 13, (1, 2): 11, (1, 3): 11, (1, 4): 10,
      (2, 3): 9, (2, 4): 11, (3, 4): 10, (1, 2, 3): 9, (1, 2, 4): 9, (1, 3, 4): 10,
      (2, 3, 4): 10, (1, 2, 3, 4): 9}),
    (3, 7, (2, 0, 1, 0, 0, 0, 0, 1), [659, 1708, 844],
     {(1,): 8, (2,): 8, (3,): 8, (1, 2): 7, (1, 3): 6, (2, 3): 7, (1, 2, 3): 7}),
    (7, 5, (3, 1, 0, 0, 0, 1), [1735, 5680], {(1,): 6, (2,): 6, (1, 2): 6}),
    (3, 6, (1, 0, 2, 0, 0, 1, 2), [651, 291, 156],
     {(1,): 7, (2,): 7, (3,): 5, (1, 2): 4, (1, 3): 5, (2, 3): 7, (1, 2, 3): 4}),
]


@pytest.mark.parametrize("b, m, p, codes, expected", PINNED_MINIMA,
                         ids=["2-12", "3-7", "7-5", "3-6-reducible"])
def test_dual_mu_minima_pinned(b, m, p, codes, expected):
    rule = PolyLatticeRule(b=b, m=m, p=GFPoly(b, p),
                           q=tuple(GFPoly.from_code(b, c) for c in codes))
    assert {tuple(sorted(u)): phi for u, phi in dual_mu_minima(rule).items()} == expected


class TestPointsAgainstOracle:
    @pytest.mark.parametrize("b,m", [(2, 1), (2, 4), (2, 7), (3, 2), (3, 4), (5, 2),
                                     (5, 3), (7, 1), (7, 3)])
    def test_points_equal_reference(self, b, m):
        rule = random_rule(b, m, smallest_irreducible(b, m), 3, seed=b * 100 + m)
        ref = reference_poly_points(rule)
        expected = [[sum(t * b ** (m - i) for i, t in enumerate(digits, 1)) for digits in row]
                    for row in ref]
        assert rule.points().tolist() == expected

    @pytest.mark.parametrize("b,p", REDUCIBLE)
    def test_reducible_modulus_points(self, b, p):
        assert not gf_is_irreducible(p)
        m = int(p.degree)
        rule = random_rule(b, m, p, 2, seed=7)
        expected = [[sum(t * b ** (m - i) for i, t in enumerate(digits, 1)) for digits in row]
                    for row in reference_poly_points(rule)]
        assert rule.points().tolist() == expected


class TestMeritClosed:
    def test_full_grid_value(self):
        rule = rule_m3(1)
        r = p_merit_closed(rule, unit_params(1))
        assert r.p_value == pytest.approx(1 / 128, rel=1e-12)

    def test_zero_weights(self):
        W = WeightSet.product([0.0])
        rule = rule_m3(1)
        assert p_merit_closed(rule, SpaceParams(alpha=1, weights=W)).p_value == 0.0

    def test_matches_dual_series_oracle_s2(self):
        rule = rule_m3(1, 5)
        params = unit_params(2, alpha=1.0)
        closed = p_merit_closed(rule, params).p_value
        direct = 0.0
        for k in dual_enumerate_poly(rule, 6):
            if k == (0, 0):
                continue
            u = frozenset(j + 1 for j, kj in enumerate(k) if kj)
            mu_sum = sum(mu_of(kj, 2) for kj in k if kj)
            direct += params.weights.weight(u) * 2.0 ** (-2.0 * mu_sum)
        series = p_merit_wal_series(rule, params, 6)
        assert series.p_value == pytest.approx(direct, rel=1e-12)
        assert abs(closed - series.p_value) <= series.truncation_bound + 1e-9

    def test_point_blocks_match_one_block(self, monkeypatch):
        # 243 points in 3 coordinates: one block by default, blocks of 7
        # points (the last one 5) when patched
        rule = PolyLatticeRule(b=3, m=5, p=smallest_irreducible(3, 5),
                               q=tuple(GFPoly.from_code(3, c) for c in (1, 100, 57)))
        params = SpaceParams(alpha=1.5, weights=WeightSet.pod([1.0, 2.0, 6.0], [1.0, 0.5, 0.3]))
        whole = p_merit_closed(rule, params)
        series = p_merit_wal_series(rule, params, 3)
        monkeypatch.setattr(korobov, "_BLOCK_CELLS", 7 * 3 + 2)
        blocked = p_merit_closed(rule, params)
        assert blocked.p_value == whole.p_value
        assert p_merit_wal_series(rule, params, 3) == series

    def test_noninteger_alpha_supported(self):
        rule = rule_m3(1, 5)
        r = p_merit_closed(rule, unit_params(2, alpha=1.5))
        assert r.p_value > 0


class TestMeritSeries:
    def test_partial_sum_of_full_grid(self):
        rule = rule_m3(1)
        r = p_merit_wal_series(rule, unit_params(1), 6)
        # duals below 2^6 are 8,16,24,...,56: 2^-8 + 2*2^-10 + 4*2^-12
        assert r.p_value == pytest.approx(7 / 1024, rel=1e-12)
        closed = p_merit_closed(rule, unit_params(1)).p_value
        assert abs(closed - r.p_value) <= r.truncation_bound + 1e-9

    def test_b_equals_bm_contributes(self):
        # k = b^m has tr_m(k) = 0, so it is always dual
        rule = rule_m3(7)
        duals = [k[0] for k in dual_enumerate_poly(rule, 4)]
        assert 8 in duals

    def test_zero_weights(self):
        W = WeightSet.product([0.0])
        rule = rule_m3(3)
        r = p_merit_wal_series(rule, SpaceParams(alpha=1, weights=W), 5)
        assert r.p_value == 0.0


class TestRho:
    def test_full_grid(self):
        rho, per_subset = rule_m3(1).rho(unit_params(1))
        assert rho == pytest.approx(2.0 ** -8)
        assert next(iter(per_subset.values()))[1] == 4  # phi = m + 1

    def test_rho_below_p(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            m = int(rng.integers(2, 6))
            s = int(rng.integers(1, 3))
            p = smallest_irreducible(2, m)
            q = tuple(GFPoly.from_code(2, int(c)) for c in rng.integers(1, 2 ** m, size=s))
            rule = PolyLatticeRule(b=2, m=m, p=p, q=q)
            rho, _ = rule.rho(unit_params(s))
            assert rho <= p_merit_closed(rule, unit_params(s)).p_value * (1 + 1e-12)

    def test_phi_chain_bounds(self):
        for m in (2, 3, 4):
            p = smallest_irreducible(2, m)
            for qc in range(1, 2 ** m):
                rule = PolyLatticeRule(b=2, m=m, p=p, q=(GFPoly.from_code(2, qc),
                                                         GFPoly.from_code(2, 1)))
                for u, phi_u in dual_mu_minima(rule).items():
                    assert len(u) <= phi_u <= m + len(u)

    def test_zero_weight_subset_never_attains(self):
        W = WeightSet.explicit({(1,): 1.0}, s_max=2)
        rho, per_subset = rule_m3(1, 5).rho(SpaceParams(alpha=1, weights=W))
        by_u = {tuple(sorted(u)): v for u, v in per_subset.items()}
        assert by_u[(2,)][0] == 0.0
        assert by_u[(1, 2)][0] == 0.0
        assert rho == by_u[(1,)][0]

    def test_phi_matches_independent_enumeration(self):
        rule = rule_m3(3, 6)
        minima = dual_mu_minima(rule)
        duals = dual_enumerate_poly(rule, rule.m + 1)
        for u, phi_u in minima.items():
            direct = min(sum(mu_of(kj, 2) for kj in k if kj)
                         for k in duals
                         if all((kj != 0) == (j + 1 in u) for j, kj in enumerate(k)))
            assert phi_u == direct


class TestCharSum:
    def test_zero_frequency(self):
        assert char_sum_poly(rule_m3(1), (0,)) == pytest.approx(1.0)

    def test_dual_frequency(self):
        assert char_sum_poly(rule_m3(1), (8,)) == pytest.approx(1.0, abs=1e-12)

    def test_nondual_frequency(self):
        assert abs(char_sum_poly(rule_m3(1), (1,))) < 1e-9

    def test_matches_membership_exhaustively_small(self):
        rule = rule_m3(5, 7)
        dual_set = set(dual_enumerate_poly(rule, 4))
        for k in product(range(0, 16, 3), repeat=2):
            expected = 1.0 if k in dual_set else 0.0
            assert abs(char_sum_poly(rule, k) - expected) < 1e-9


class TestCbcPoly:
    def test_first_component_is_one(self):
        rule, trace = cbc_construct(poly_modulus(2, 4), 1, unit_params(1))
        assert rule.q[0].coeffs == (1,)
        assert trace.choices[0][0] == 1

    def test_prop2_style_bound_m3_s2(self):
        params = unit_params(2)
        rule, trace = cbc_construct(poly_modulus(2, 3, P3), 2, params)
        p_val = p_merit_closed(rule, params).p_value
        rhs = (1 / 7) * (0.5 + 0.5 + 0.25)
        assert p_val <= rhs * (1 + 1e-9)

    def test_argmin_beats_every_last_component_swap(self):
        params = SpaceParams(alpha=1.0, weights=WeightSet.product([1.0, 0.5, 0.25]))
        rule, trace = cbc_construct(poly_modulus(2, 4), 3, params)
        best = p_merit_closed(rule, params).p_value
        for code in range(1, 16):
            other = PolyLatticeRule(b=2, m=4, p=rule.p,
                                    q=rule.q[:2] + (GFPoly.from_code(2, code),))
            assert best <= p_merit_closed(other, params).p_value * (1 + 1e-9)

    def test_trace_merit_matches_fresh_evaluation(self):
        params = SpaceParams(alpha=1.5, weights=WeightSet.product([1.0, 0.5]))
        rule, trace = cbc_construct(poly_modulus(2, 5), 2, params)
        fresh = p_merit_closed(rule, params).p_value
        assert trace.choices[-1][1] == pytest.approx(fresh, rel=1e-12)

    def test_default_modulus_is_smallest_irreducible(self):
        rule, _ = cbc_construct(poly_modulus(2, 5), 1, unit_params(1))
        assert rule.p.coeffs == (1, 0, 1, 0, 0, 1)

    # codes and trace merits recorded from the per-point GF(b) arithmetic
    # (b^(2m) products mod p and Laurent expansions) this construction replaced
    PINNED = {
        (2, 8): ([1, 196, 157, 224, 234, 93, 102, 210],
                 [7.62939453125e-06, 2.193450927734375e-05, 3.775954246520996e-05,
                  4.978023935109375e-05, 6.050100259017207e-05, 6.929391470296362e-05,
                  7.629040775686082e-05, 8.218786667220577e-05]),
        (3, 5): ([1, 91, 138, 159, 158, 108, 101, 146],
                 [5.645029269445516e-06, 1.379896043646774e-05, 2.0244153891417792e-05,
                  2.541766466584719e-05, 3.012249138670487e-05, 3.388894609925932e-05,
                  3.6739398762096275e-05, 3.9201500449333835e-05]),
        (7, 3): ([1, 59, 50, 64, 74, 90, 93, 91],
                 [1.2142656789059375e-06, 2.4533122900308826e-06, 3.217868670579023e-06,
                  3.710987318162325e-06, 4.0509371482957815e-06, 4.304025289952354e-06,
                  4.501159793377691e-06, 4.681003369827755e-06]),
    }

    @pytest.mark.parametrize("b,m", sorted(PINNED))
    def test_pinned_codes_and_merits(self, b, m):
        params = SpaceParams(alpha=1.0,
                             weights=WeightSet.product([j ** -2.0 for j in range(1, 9)]))
        _, trace = cbc_construct(poly_modulus(b, m), 8, params)
        codes, merits = self.PINNED[(b, m)]
        assert [c for c, _ in trace.choices] == codes
        assert [v for _, v in trace.choices] == pytest.approx(merits, rel=1e-12, abs=0)

    @pytest.mark.parametrize("s", [2, 4])
    def test_row_blocks_match_one_block(self, monkeypatch, s):
        # 255 candidate rows of 256 points: one block by default, 3 rows per
        # block when patched; s = 2 streams the blocks, s = 4 holds them
        params = SpaceParams(alpha=1.0, weights=WeightSet.product([1.0, 0.5, 0.3, 0.2]))
        whole = cbc_construct(poly_modulus(2, 8), s, params)
        monkeypatch.setattr(cbc, "_BLOCK_CELLS", 3 * 256 + 7)
        assert cbc_construct(poly_modulus(2, 8), s, params) == whole

    def test_reducible_modulus_accepted(self):
        p = GFPoly(2, (0, 0, 0, 1))  # x^3
        rule, _ = cbc_construct(poly_modulus(2, 3, p), 2, unit_params(2))
        assert rule.p == p and not gf_is_irreducible(rule.p)


class TestJensenWalsh:
    @pytest.mark.parametrize("delta", [0.5, 0.8])
    def test_power_mean_inequality(self, delta):
        params = SpaceParams(alpha=1.0, weights=WeightSet.product([1.0, 0.5]))
        rule, _ = cbc_construct(poly_modulus(2, 4), 2, params)
        hi = SpaceParams(alpha=1.0 / delta,
                         weights=params.weights.powered(1.0 / delta))
        lhs = p_merit_closed(rule, hi).p_value ** delta
        rhs = p_merit_closed(rule, params).p_value
        assert lhs <= rhs * (1 + 1e-10)


# Oracle gates: dual_mu_minima and p_merit_wal_series against plain dual-box
# enumeration in oracle.py, with digit counts recomputed here.

BOX_CELLS = 7_000  # oracle enumeration size per example
SETTINGS = settings(max_examples=120, deadline=None, derandomize=True)


def digit_count(k, b):
    return next(a for a in range(1, 64) if k < b ** a)


@st.composite
def rules_in_box(draw, box_digits):
    """A rule, s <= 4, whose dual box of b^(box_digits(m)) per component has
    at most BOX_CELLS cells, with p irreducible, x^m, or any p of degree m
    (reducible or not, monic or not)."""
    b = draw(st.sampled_from((2, 3, 5, 7)))
    s = draw(st.integers(1, max(d for d in range(1, 5) if b ** (box_digits(1) * d) <= BOX_CELLS)))
    m = draw(st.integers(1, max(m for m in range(1, 8) if b ** (box_digits(m) * s) <= BOX_CELLS)))
    kind = draw(st.sampled_from(("irreducible", "monomial", "any")))
    if kind == "irreducible":
        p = smallest_irreducible(b, m)
    elif kind == "monomial":
        p = GFPoly(b, (0,) * m + (1,))
    else:
        low = draw(st.lists(st.integers(0, b - 1), min_size=m, max_size=m))
        p = GFPoly(b, tuple(low) + (draw(st.integers(1, b - 1)),))
    codes = draw(st.lists(st.integers(1, b ** m - 1), min_size=s, max_size=s))
    return PolyLatticeRule(b=b, m=m, p=p, q=tuple(GFPoly.from_code(b, c) for c in codes))


@st.composite
def weight_sets(draw, s=4):
    kind = draw(st.sampled_from(("product", "order", "pod", "explicit")))
    w = st.just(0.0) | st.floats(1e-3, 2.0)
    values = draw(st.lists(w, min_size=s, max_size=s))
    if kind == "product":
        return WeightSet.product(values)
    if kind == "order":
        return WeightSet.order_dependent(values)
    if kind == "pod":
        return WeightSet.pod(draw(st.lists(w, min_size=s, max_size=s)), values)
    chosen = draw(st.lists(st.sampled_from(list(subsets_of(s))), max_size=6, unique=True))
    return WeightSet.explicit({tuple(u): draw(w) for u in chosen}, s_max=s)


def oracle_minima(rule):
    duals = dual_enumerate_poly(rule, rule.m + 1)
    return {u: min(sum(digit_count(kj, rule.b) for kj in k if kj) for k in duals
                   if all((kj != 0) == (j + 1 in u) for j, kj in enumerate(k)))
            for u in subsets_of(rule.s)}


@SETTINGS
@given(rules_in_box(lambda m: m + 1))
def test_dual_mu_minima_match_oracle(rule):
    minima = dual_mu_minima(rule)
    assert list(minima) == list(subsets_of(rule.s))
    assert minima == oracle_minima(rule)


@SETTINGS
@given(st.data())
def test_series_matches_oracle_dual_sum(data):
    rule = data.draw(rules_in_box(lambda m: m + 2))
    K = data.draw(st.integers(1, rule.m + 2))
    W = data.draw(weight_sets())
    alpha = data.draw(st.sampled_from((0.75, 1.0, 1.5, 2.0)))

    def term(k):
        return (W.weight({j + 1 for j, kj in enumerate(k) if kj})
                * math.prod(float(rule.b) ** (-2.0 * alpha * digit_count(kj, rule.b))
                            for kj in k if kj))

    dual_sum = math.fsum(term(k) for k in dual_enumerate_poly(rule, K) if any(k))
    # the point sum expands into every box term times a character of modulus 1
    box_sum = math.fsum(term(k) for k in product(range(rule.b ** K), repeat=rule.s) if any(k))
    got = p_merit_wal_series(rule, SpaceParams(alpha=alpha, weights=W), K)
    assert got.method == "truncated-series"
    assert abs(got.p_value - dual_sum) <= 1e-12 * box_sum
    closed = p_merit_closed(rule, SpaceParams(alpha=alpha, weights=W)).p_value
    tol = 1e-12 * (box_sum + got.truncation_bound)
    assert -tol <= closed - got.p_value <= got.truncation_bound + tol


@pytest.mark.parametrize("b,p", [(2, P3), (3, smallest_irreducible(3, 3)),
                                 (7, smallest_irreducible(7, 2))] + REDUCIBLE)
def test_dual_mu_minima_fixed_moduli(b, p):
    m = int(p.degree)
    s = max(d for d in range(1, 4) if b ** ((m + 1) * d) <= BOX_CELLS)
    rule = random_rule(b, m, p, s, seed=11)
    assert dual_mu_minima(rule) == oracle_minima(rule)


class TestBeyondThreeDimensions:
    """rho and the truncated series at s = 4, against the oracle and the closed form."""

    RULE = PolyLatticeRule(b=2, m=2, p=smallest_irreducible(2, 2),
                           q=tuple(GFPoly.from_code(2, c) for c in (1, 3, 2, 3)))
    PARAMS = SpaceParams(alpha=1.0, weights=WeightSet.product([1.0, 0.5, 0.25, 0.125]))

    def test_rho_at_s4(self):
        rho, per_subset = self.RULE.rho(self.PARAMS)
        minima = oracle_minima(self.RULE)
        assert {u: phi for u, (_, phi) in per_subset.items()} == minima
        assert rho == max(self.PARAMS.weights.weight(u) * 2.0 ** (-2 * phi)
                          for u, phi in minima.items())
        assert rho <= p_merit_closed(self.RULE, self.PARAMS).p_value

    def test_series_at_s4(self):
        rep = p_merit_wal_series(self.RULE, self.PARAMS, 3)
        closed = p_merit_closed(self.RULE, self.PARAMS).p_value
        assert rep.p_value <= closed <= rep.p_value + rep.truncation_bound
