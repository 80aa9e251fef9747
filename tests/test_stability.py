import math
import warnings
from dataclasses import dataclass

import pytest

from conftest import (lattice_modulus, poly_modulus, random_lattice_rules, rosser_schoenfeld_holds,
                      totient_sieve)
from qmcforge.cbc import cbc_construct
from qmcforge.discrepancy import star_disc_bound_rho
from qmcforge.errors import UsageError
from qmcforge.gfpoly import GFPoly
from qmcforge.korobov import (LatticeRule, c_alpha_prime, euler_totient, p_merit_closed,
                              p_merit_series)
from qmcforge.stability import (combined_bound_eq1, jensen_certificate, merit, prop_bound,
                                prop_certificate, stability_bound)
from qmcforge.walsh import PolyLatticeRule
from qmcforge.weights import (SpaceParams, WeightSet, ratio_size_sum, weighted_power_sum,
                              weighted_zeta_sum, zeta)

P3 = GFPoly(2, (1, 1, 0, 1))
UNIT1 = WeightSet.product([1.0])
# the b = 2, m = 8, s = 4 CBC rule under alpha 1 and gamma_j = j^-2
POLY8 = PolyLatticeRule(b=2, m=8, p=GFPoly(2, (1, 1, 0, 1, 1, 0, 0, 0, 1)), q=tuple(
    GFPoly(2, c) for c in ((1,), (0, 0, 1, 0, 0, 0, 1, 1), (1, 0, 1, 1, 1, 0, 0, 1),
                           (0, 0, 0, 0, 0, 1, 1, 1))))


class TestCAlphaPrime:
    def test_value_at_one(self):
        expect = 1 + math.pi ** 2 / 6 + (4 + math.pi ** 2 / 6) / 16
        assert c_alpha_prime(1.0) == pytest.approx(expect, rel=1e-12)

    def test_value_at_two(self):
        z4 = math.pi ** 4 / 90
        expect = 1 + z4 + (16 + z4) * 7 / 256
        assert c_alpha_prime(2.0) == pytest.approx(expect, rel=1e-12)

    def test_large_alpha_limit(self):
        assert 2.4 < c_alpha_prime(8.0) < 2.6

    def test_domain(self):
        with pytest.raises(UsageError):
            c_alpha_prime(0.5)


class TestTheorem1:
    def test_singleton_example(self):
        cert = stability_bound(LatticeRule(N=5, z=(1,)), 1.0, UNIT1, 1.0, UNIT1)
        assert cert.lhs == pytest.approx(math.pi ** 2 / 75, rel=1e-10)
        assert cert.rhs == pytest.approx(c_alpha_prime(1.0) * 0.04 * 8.0, rel=1e-10)
        assert cert.passed and not cert.vacuous
        assert cert.margin == pytest.approx(0.83, abs=0.01)

    def test_zero_target_weights(self):
        Wp = WeightSet.product([0.0])
        cert = stability_bound(LatticeRule(N=5, z=(1,)), 1.0, UNIT1, 1.0, Wp)
        assert cert.lhs == 0.0 and cert.rhs == 0.0 and cert.passed

    def test_alpha_prime_half_refused(self):
        # at alpha' = 1/2 the size factor's denominator b^(2a'-1) - 1 vanishes
        rule = PolyLatticeRule(b=2, m=3, p=P3, q=(GFPoly.one(2),))
        with pytest.raises(UsageError):
            stability_bound(rule, 1.0, UNIT1, 0.5, UNIT1)

    def test_vacuous_zero_source_weight(self):
        W = WeightSet.explicit({(1,): 1.0}, s_max=2)
        Wp = WeightSet.order_dependent([1.0, 1.0])
        cert = stability_bound(LatticeRule(N=8, z=(1, 3)), 1.0, W, 1.0, Wp)
        assert cert.vacuous and cert.passed and math.isinf(cert.rhs)

    def test_nonmonotone_rejected(self):
        W = WeightSet.pod([1.0, 3.0], [1.0, 1.0])
        with pytest.raises(UsageError):
            stability_bound(LatticeRule(N=8, z=(1, 3)), 1.0, W, 1.0, W)

    def test_cross_smoothness_grid(self):
        W = WeightSet.product([j ** -2.0 for j in range(1, 4)])
        Wp = WeightSet.product([j ** -4.0 for j in range(1, 4)])
        for N in (8, 16, 32):
            rule, _ = cbc_construct(lattice_modulus(N), 3, SpaceParams(alpha=1.0, weights=W))
            for ap in (1.0, 2.0):
                cert = stability_bound(rule, 1.0, W, ap, Wp)
                assert cert.passed, (N, ap)

    def test_random_rules_alpha_prime_noninteger(self):
        W = WeightSet.product([1.0, 0.25])
        for rule in random_lattice_rules(16, 2, 5, seed=101):
            cert = stability_bound(rule, 2.0, W, 1.5, W)
            assert cert.passed


    def test_series_lhs_decided_with_its_tail(self):
        # alpha' = 1.5 is summed as a truncated series: the pass is decided on
        # lhs + lhs_truncation, at most the series tail and above 0
        W = WeightSet.product([j ** -2.0 for j in range(1, 4)])
        Wp = WeightSet.product([j ** -3.0 for j in range(1, 4)])
        rule, _ = cbc_construct(lattice_modulus(127), 3, SpaceParams(alpha=1.0, weights=W))
        cert = stability_bound(rule, 1.0, W, 1.5, Wp)
        series = p_merit_series(rule, SpaceParams(alpha=1.5, weights=Wp))
        tail = cert.components["lhs_truncation"]
        assert cert.lhs == series.p_value
        assert 0.0 < tail <= series.truncation_bound
        assert cert.margin == cert.rhs - (cert.lhs + tail)
        closed = p_merit_closed(rule, SpaceParams(alpha=1.0, weights=Wp)).p_value
        assert cert.lhs <= closed  # the exact P at 1.5 lies below P at 1

    def test_closed_form_lhs_has_no_tail(self):
        cert = stability_bound(LatticeRule(N=5, z=(1,)), 1.0, UNIT1, 2.0, UNIT1)
        assert cert.components["lhs_truncation"] == 0.0


class TestTheorem2:
    @pytest.mark.parametrize("exponent, alpha_prime", [(9.0, 50.0), (4.0, 60.0)])
    def test_overflowing_subset_sum_is_vacuous(self, exponent, alpha_prime):
        # x_j = j^-e / j^(-e a') leaves float64 in the e_k recurrence: a vacuous pass
        # with no RuntimeWarning, also where rho^a' underflows to 0 (not 0 * inf = NaN)
        W = WeightSet.product([j ** -exponent for j in range(1, 5)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cert = stability_bound(POLY8, 1.0, W, alpha_prime, W)
        assert cert.vacuous and cert.passed and math.isinf(cert.rhs)
        assert math.isinf(cert.components["subset_sum"])

    def test_tight_full_grid_case(self):
        rule = PolyLatticeRule(b=2, m=3, p=P3, q=(GFPoly.one(2),))
        cert = stability_bound(rule, 1.0, UNIT1, 1.0, UNIT1)
        assert cert.lhs == pytest.approx(1 / 128, rel=1e-12)
        assert cert.rhs == pytest.approx(2.0 ** -7, rel=1e-12)
        assert cert.passed

    def test_zero_target_weights(self):
        Wp = WeightSet.product([0.0])
        rule = PolyLatticeRule(b=2, m=3, p=P3, q=(GFPoly.one(2),))
        cert = stability_bound(rule, 1.0, UNIT1, 1.0, Wp)
        assert cert.lhs == 0.0 and cert.rhs == 0.0 and cert.passed

    def test_alpha_prime_half_refused(self):
        # at alpha' = 1/2 the size factor's denominator b^(2a'-1) - 1 vanishes
        rule = PolyLatticeRule(b=2, m=3, p=P3, q=(GFPoly.one(2),))
        with pytest.raises(UsageError):
            stability_bound(rule, 1.0, UNIT1, 0.5, UNIT1)

    def test_grid_with_noninteger_target(self):
        W = WeightSet.product([1.0, 0.25])
        for m in (3, 4, 5):
            rule, _ = cbc_construct(poly_modulus(2, m), 2, SpaceParams(alpha=1.0, weights=W))
            cert = stability_bound(rule, 1.0, W, 1.5, W)
            assert cert.passed, m

    def test_no_monotonicity_needed(self):
        W = WeightSet.pod([1.0, 3.0], [1.0, 1.0])  # not monotone
        base = WeightSet.product([1.0, 1.0])
        rule, _ = cbc_construct(poly_modulus(2, 4), 2, SpaceParams(alpha=1.0, weights=base))
        cert = stability_bound(rule, 1.0, W, 2.0, W)
        assert cert.passed


class TestPropBounds:
    def test_lattice_value(self):
        assert prop_bound(lattice_modulus(5), 1.0, UNIT1, 1.0) == pytest.approx(
            2 * zeta(2.0) / 4, rel=1e-12)

    def test_poly_value(self):
        assert prop_bound(poly_modulus(2, 3), 1.0, UNIT1, 1.0) == pytest.approx(1 / 14, rel=1e-12)

    def test_zero_weights(self):
        W = WeightSet.product([0.0])
        assert prop_bound(lattice_modulus(7), 1.0, W, 1.0) == 0.0

    def test_lambda_out_of_range(self):
        with pytest.raises(UsageError):
            prop_bound(lattice_modulus(7), 1.0, UNIT1, 0.4)
        with pytest.raises(UsageError):
            prop_bound(poly_modulus(2, 3), 1.0, UNIT1, 0.4)

    def test_certificates_on_cbc_output(self):
        W = WeightSet.product([1.0, 0.5])
        rule, _ = cbc_construct(lattice_modulus(16), 2, SpaceParams(alpha=1.0, weights=W))
        for lam in (1.0, 0.75):
            assert prop_certificate(rule, 1.0, W, lam).passed
        prule, _ = cbc_construct(poly_modulus(2, 4), 2, SpaceParams(alpha=1.0, weights=W))
        for lam in (1.0, 0.75):
            assert prop_certificate(prule, 1.0, W, lam).passed

    def test_bad_rule_can_fail_prop1(self):
        # the guarantee holds for CBC outputs, not arbitrary vectors
        W2 = WeightSet.order_dependent([1.0, 1.0])
        cert = prop_certificate(LatticeRule(N=16, z=(1, 1)), 2.0, W2)
        assert not cert.passed

    def test_prop1_records_no_rho(self):
        # the N = 4093, s = 16 CBC rule under alpha 3, j^-6 (fast scan) has a closed-form
        # P of -5.6e-17 from rounding; with no rho recorded, nothing is checked below P
        rule = LatticeRule(N=4093, z=(1, 3379, 461, 1724, 1060, 2746, 3933, 1548, 3874, 2565,
                                      3707, 3592, 1466, 2845, 2867, 950))
        cert = prop_certificate(rule, 3.0, WeightSet.product([j ** -6.0 for j in range(1, 17)]))
        assert cert.lhs < 0.0 and "rho" not in cert.components and cert.passed

    def test_recorded_rho_above_P_fails_prop2(self, monkeypatch):
        W = WeightSet.product([j ** -2.0 for j in range(1, 5)])
        assert prop_certificate(POLY8, 1.0, W).passed
        monkeypatch.setattr(PolyLatticeRule, "guarantee_components", lambda self, params: {
            "rho": 2.0 * merit(self, params).p_value})
        cert = prop_certificate(POLY8, 1.0, W)
        assert cert.lhs <= cert.rhs and not cert.passed


class TestCombinedBound:
    def test_overflowing_size_factors_are_vacuous(self):
        # at N = 65521 the size factor 8^k (log2 N)^(k-1) leaves float64 from k = 147
        # on, and from k = 257 on its power 16^(k-1) alone does
        W = WeightSet.product([1.0] * 260)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cert = combined_bound_eq1(LatticeRule(N=65521, z=(1,) * 260), 1.0, W, 1.0, W)
        assert cert.vacuous and cert.passed and math.isinf(cert.rhs)

    def test_majorizes_theorem1_on_cbc_rules(self):
        W = WeightSet.product([1.0, 0.25])
        for N in (16, 32, 64):
            rule, _ = cbc_construct(lattice_modulus(N), 2, SpaceParams(alpha=1.0, weights=W))
            t1 = stability_bound(rule, 1.0, W, 2.0, W)
            e1 = combined_bound_eq1(rule, 1.0, W, 2.0, W, 1.0)
            assert e1.rhs >= t1.rhs >= t1.lhs
            assert e1.passed

    def test_singleton_example(self):
        cert = combined_bound_eq1(LatticeRule(N=5, z=(1,)), 1.0, UNIT1, 1.0, UNIT1, 1.0)
        expect = c_alpha_prime(1.0) * (2 * zeta(2.0) / 4) * 8.0
        assert cert.rhs == pytest.approx(expect, rel=1e-10)


class TestJensen:
    def test_lattice_half(self):
        W = WeightSet.product([1.0, 0.5])
        rule, _ = cbc_construct(lattice_modulus(32), 2, SpaceParams(alpha=1.0, weights=W))
        cert = jensen_certificate(rule, 1.0, W, 0.5)
        assert cert.passed

    def test_lattice_fractional_with_series_rhs(self):
        W = WeightSet.product([1.0, 0.5])
        rule, _ = cbc_construct(lattice_modulus(16), 2, SpaceParams(alpha=2.0, weights=W))
        cert = jensen_certificate(rule, 1.6, W, 0.8)
        assert cert.components["alpha_high"] == pytest.approx(2.0)
        assert cert.passed

    def test_lhs_tail_beyond_margin_fails(self):
        # alpha / delta = 0.947 has no closed forms around it, so the lhs
        # series can only be raised by its tail majorant, which exceeds rhs - lhs
        W = WeightSet.product([1.0, 0.5])
        rule, _ = cbc_construct(lattice_modulus(31), 2, SpaceParams(alpha=1.0, weights=W))
        cert = jensen_certificate(rule, 0.9, W, 0.95)
        assert cert.lhs < cert.rhs
        assert cert.components["lhs_truncation"] > cert.rhs - cert.lhs
        assert not cert.passed
        assert cert.margin == pytest.approx(
            cert.rhs - cert.lhs - cert.components["lhs_truncation"], rel=1e-12)

    def test_poly_both_deltas(self):
        W = WeightSet.product([1.0, 0.5])
        rule, _ = cbc_construct(poly_modulus(2, 5), 2, SpaceParams(alpha=1.0, weights=W))
        for delta in (0.5, 0.8):
            assert jensen_certificate(rule, 1.0, W, delta).passed

    def test_delta_range(self):
        with pytest.raises(UsageError):
            jensen_certificate(LatticeRule(N=5, z=(1,)), 1.0, UNIT1, 0.0)


class TestTotientInequality:
    def test_spot_values(self):
        assert rosser_schoenfeld_holds(3)
        assert rosser_schoenfeld_holds(2310)  # primorial, worst-case shape

    def test_sieve_matches_direct(self):
        phi = totient_sieve(500)
        for n in (1, 2, 97, 360, 499):
            assert phi[n] == euler_totient(n)


class TestSerialization:
    def test_certificate_json_keys(self):
        cert = stability_bound(LatticeRule(N=5, z=(1,)), 1.0, UNIT1, 1.0, UNIT1)
        obj = cert.to_jsonable()
        assert set(obj) == {"lhs", "rhs", "margin", "components", "passed", "vacuous"}


@dataclass(frozen=True)
class CorollaryProbe:
    """Exponents for finite evaluations of the tractability statements.

    lam and delta obey 1/(2 alpha) < lam < 1 and 0 < delta < cap, where the
    cap is alpha'/(alpha lam) for the merit statements and 1/(alpha lam) for
    the discrepancy statements; q, q_prime, q_dprime >= 0 divide out the
    allowed polynomial growth in s.
    """

    lam: float
    delta: float
    q: float = 0.0
    q_prime: float = 0.0
    q_dprime: float = 0.0

    def validate(self, kind: str, alpha: float, alpha_prime: float) -> None:
        if not (1.0 / (2.0 * alpha) < self.lam < 1.0):
            raise UsageError(f"lambda={self.lam} outside (1/(2 alpha), 1)")
        cap = (alpha_prime / (alpha * self.lam) if kind in ("cor1", "cor3")
               else 1.0 / (alpha * self.lam))
        if not 0.0 < self.delta < cap:
            raise UsageError(f"delta={self.delta} outside (0, {cap})")
        if min(self.q, self.q_prime, self.q_dprime) < 0:
            raise UsageError("growth exponents must be >= 0")


def corollary_probe(kind: str, probe: CorollaryProbe, grid: list[tuple[int, int]],
                    alpha: float, W: WeightSet, alpha_prime: float,
                    Wprime: WeightSet) -> dict:
    """Evaluate the finite quantities inside the tractability suprema on a
    declared (s, N) or (s, m) grid, plus the observed merit or discrepancy
    bound and its ratio to the claimed envelope.

    Rules are CBC-constructed per grid cell under (alpha, gamma).  The
    empirical constant C is the largest observed ratio; no asymptotic claim
    is asserted.
    """
    if kind not in ("cor1", "cor2", "cor3", "cor4"):
        raise UsageError(f"unknown corollary kind {kind!r}")
    probe.validate(kind, alpha, alpha_prime)
    lam, delta, params = probe.lam, probe.delta, SpaceParams(alpha=alpha, weights=W)
    rows = []
    for s, size in grid:
        if kind in ("cor1", "cor2"):  # lattice rules with N = size; n = phi(N)
            rule, _ = cbc_construct(lattice_modulus(size), s, params)
            n = euler_totient(size)
            sup1 = weighted_zeta_sum(W, s, lam, alpha)
            F = 2.0 ** (2 * alpha_prime + 1) / (2.0 ** (2 * alpha_prime - 1) - 1)
            L = math.log2(size)
            disc_factors = [(2.0 * math.log2(size)) ** k for k in range(s + 1)]
        else:  # polynomial lattice rules with b = 2, m = size; n = b^m
            b = 2
            rule, _ = cbc_construct(poly_modulus(b, size), s, params)
            n = float(b) ** size
            sup1 = weighted_power_sum(W, s, lam,
                                      (b - 1.0) / (float(b) ** (2.0 * alpha * lam) - b))
            F = b ** (2 * alpha_prime - 1) * (b - 1) / (b ** (2 * alpha_prime - 1) - 1.0)
            L = size + 1.0
            disc_factors = [(size + 1.0) ** k for k in range(s + 1)]  # k_b = 1 at b = 2
        merit_factors = [0.0] + [F ** k * L ** (k - 1) for k in range(1, s + 1)]  # Theorem 1 or 2
        row: dict = {"s": s, "N_or_m": size, "sup1": sup1 / s ** probe.q}
        if kind in ("cor1", "cor3"):
            expo = alpha_prime / (alpha * lam)
            val, _ = ratio_size_sum(W, Wprime, alpha_prime / alpha, merit_factors, s)
            row["sup2"] = val / (s ** probe.q_prime * n ** delta)
            row["observed"] = merit(rule, SpaceParams(alpha=alpha_prime, weights=Wprime)).p_value
            envelope = s ** (probe.q * expo + probe.q_prime) * n ** (delta - expo)
        else:
            expo = 1.0 / (2.0 * alpha * lam)
            order_sum, _ = ratio_size_sum(Wprime, Wprime, 0.0, range(s + 1), s)  # gamma'_u |u|
            row["sup2"] = order_sum / s ** probe.q_prime
            val, _ = ratio_size_sum(W, Wprime, 1.0 / (2.0 * alpha), disc_factors, s)
            row["sup3"] = val / (s ** probe.q_dprime * n ** delta)
            row["observed"] = star_disc_bound_rho(rule, alpha, W, Wprime, rule.rho(params)[0])[0]
            envelope = (s ** max(probe.q_prime, probe.q * expo + probe.q_dprime)
                        * n ** (delta - expo))
        row["envelope"] = envelope
        row["ratio"] = row["observed"] / envelope if envelope > 0 else math.inf
        rows.append(row)
    C = max((r["ratio"] for r in rows), default=0.0)
    return {"kind": kind, "rows": rows, "C": C}


class TestCorollaryProbe:
    def test_validation(self):
        with pytest.raises(UsageError):
            CorollaryProbe(lam=1.0, delta=0.1).validate("cor1", 1.0, 2.0)

    def test_cor1_table_shape_and_ratios(self):
        W = WeightSet.product([j ** -2.0 for j in range(1, 17)])
        Wp = WeightSet.product([j ** -6.0 for j in range(1, 17)])
        probe = CorollaryProbe(lam=0.75, delta=0.5)
        out = corollary_probe("cor1", probe, [(1, 8), (2, 8), (2, 16)], 1.0, W, 2.0, Wp)
        assert len(out["rows"]) == 3
        assert out["C"] == max(r["ratio"] for r in out["rows"])
        for row in out["rows"]:
            assert row["observed"] <= out["C"] * row["envelope"] * (1 + 1e-12)

    def test_cor1_summability_sums_bounded_in_s(self):
        # partial sums of the general-weight conditions stay nondecreasing and
        # bounded for gamma_j = j^-2, gamma'_j = j^-6, alpha'/alpha = 2
        W = WeightSet.product([j ** -2.0 for j in range(1, 17)])
        Wp = WeightSet.product([j ** -6.0 for j in range(1, 17)])
        vals1, vals2 = [], []
        for s in (4, 8, 16):
            z = 2 * zeta(2 * 1.0 * 0.75)
            vals1.append(math.prod(1 + (j ** -2.0) ** 0.75 * z for j in range(1, s + 1)) - 1)
            vals2.append(math.prod(1 + (j ** -6.0) / (j ** -2.0) ** 2 * 1.0
                                   for j in range(1, s + 1)) - 1)
        assert vals1 == sorted(vals1) and vals2 == sorted(vals2)
        # log(1 + sum) increments shrink as s doubles: converging, not drifting
        logs1 = [math.log1p(v) for v in vals1]
        logs2 = [math.log1p(v) for v in vals2]
        assert logs1[2] - logs1[1] < logs1[1] - logs1[0]
        assert logs2[2] - logs2[1] < logs2[1] - logs2[0]
        assert vals2[-1] < 5.0

    def test_zero_weights_zero_table(self):
        W0 = WeightSet.product([0.0, 0.0])
        probe = CorollaryProbe(lam=0.75, delta=0.5)
        out = corollary_probe("cor1", probe, [(2, 8)], 1.0, W0, 2.0, W0)
        assert out["rows"][0]["observed"] == 0.0

    def test_cor4_runs(self):
        W = WeightSet.product([j ** -2.0 for j in range(1, 9)])
        probe = CorollaryProbe(lam=0.75, delta=0.25)
        out = corollary_probe("cor4", probe, [(2, 3), (2, 4)], 1.0, W, 1.0, W)
        assert all(math.isfinite(r["observed"]) for r in out["rows"])
