"""Stability certificates: evaluate both sides of the worst-case-error bounds
that hold when a rule built for one (alpha, gamma) is used under another.

Every certificate records lhs (the merit under the target parameters), rhs
(the bound), their margin, and the dominant components.  Inequalities are
checked with 1e-9 relative slack; a bound that is not finite (a zero weight
in a denominator, or a sum past float64) is a vacuous pass, never a failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Mapping

import numpy as np

from .errors import UsageError
from .korobov import _BERNOULLI_EVEN, LatticeRule, MeritReport, p_merit_closed, p_merit_series
from .weights import SpaceParams, WeightSet, check_monotone, ratio_size_sum

if TYPE_CHECKING:  # walsh loads only for polynomial lattice rules
    from .walsh import PolyLatticeRule

CERT_REL_SLACK = 1e-9
JENSEN_REL_SLACK = 1e-10


@dataclass(frozen=True)
class StabilityCertificate:
    """One checked inequality lhs <= rhs with its audit trail."""

    lhs: float
    rhs: float
    margin: float
    components: Mapping[str, float]
    passed: bool
    vacuous: bool

    def to_jsonable(self) -> dict:
        def num(v):
            return "inf" if isinstance(v, float) and math.isinf(v) else v
        return {"lhs": self.lhs, "rhs": num(self.rhs), "margin": num(self.margin),
                "components": {k: num(v) for k, v in self.components.items()},
                "passed": self.passed, "vacuous": self.vacuous}


def _certificate(lhs: float, rhs: float, components: dict, lhs_truncation: float | None = None,
                 rel_slack: float = CERT_REL_SLACK) -> StabilityCertificate:
    """lhs <= rhs, decided on lhs + lhs_truncation, the most a truncated-series
    lhs can leave out (None for a closed form), so that a pass stays sound."""
    lhs_truncation = lhs_truncation or 0.0
    upper = lhs + lhs_truncation
    vacuous = not math.isfinite(rhs)
    passed = vacuous or upper <= rhs * (1.0 + rel_slack)
    return StabilityCertificate(lhs=lhs, rhs=rhs, margin=rhs - upper,
                                components={**components, "lhs_truncation": lhs_truncation},
                                passed=passed, vacuous=vacuous)


def merit(rule: LatticeRule | PolyLatticeRule, params: SpaceParams) -> MeritReport:
    """P of the rule under params, by the only choice between closed form and
    series: the Walsh closed form for every alpha, the Bernoulli closed form
    for alpha in 1..4, else the truncated Korobov series at p_merit_series'
    default radius, whose truncation_bound is the smaller of its tail bound
    and, for a < alpha < a + 1 with closed forms at a and a + 1, Hoelder's
    P_a^(a+1-alpha) P_(a+1)^(alpha-a) less the series."""
    if not isinstance(rule, LatticeRule) or params.alpha in _BERNOULLI_EVEN:
        return p_merit_closed(rule, params)
    report = p_merit_series(rule, params)
    a, t = math.floor(params.alpha), params.alpha % 1.0
    if a in _BERNOULLI_EVEN and a + 1 in _BERNOULLI_EVEN:
        lo, hi = (p_merit_closed(rule, SpaceParams(alpha=x, weights=params.weights)).p_value
                  for x in (a, a + 1))
        return replace(report, truncation_bound=min(
            report.truncation_bound, max(lo ** (1.0 - t) * hi ** t - report.p_value, 0.0)))
    return report


def _stability_bound(rule: LatticeRule | PolyLatticeRule, alpha: float, W: WeightSet,
                     alpha_prime: float, Wprime: WeightSet, base: float, power: float,
                     components: Callable[[dict], dict]) -> StabilityCertificate:
    """The one shape of Theorems 1 and 2 and eq. (1), (c, F, L) from rule.stability_constants:

        P_{a',g'} <= c * base^power * sum_u g'_u / g_u^(a'/a) * F^|u| L^(|u|-1),

    components(constants) placing the base among the constants the rule records."""
    c, F, L, constants = rule.stability_constants(alpha_prime)  # refuses a bad alpha' first
    with np.errstate(over="ignore"):  # a size factor past float64 is inf: a vacuous bound
        size_factors = [0.0] + [float(np.float64(F) ** k * np.float64(L) ** (k - 1))
                                for k in range(1, rule.s + 1)]
    subset_sum = ratio_size_sum(W, Wprime, alpha_prime / alpha, size_factors, rule.s)[0]
    rhs = c * base ** power * subset_sum if math.isfinite(subset_sum) else math.inf
    lhs = merit(rule, SpaceParams(alpha=alpha_prime, weights=Wprime))
    return _certificate(lhs.p_value, rhs, {**components(constants), "subset_sum": subset_sum},
                        lhs.truncation_bound)


def _require_monotone(rule: LatticeRule | PolyLatticeRule, W: WeightSet) -> None:
    if rule.needs_monotone_weights and not check_monotone(W, rule.s):
        raise UsageError("the stability bound needs monotone weights gamma")


def stability_bound(rule: LatticeRule | PolyLatticeRule, alpha: float, W: WeightSet,
                    alpha_prime: float, Wprime: WeightSet) -> StabilityCertificate:
    """Theorems 1 (Korobov, monotone gamma: gamma_v >= gamma_u for v in u) and
    2 (Walsh, any gamma), one statement:

        P_{a',g'} <= c rho_{a,g}^(a'/a) sum_u g'_u / g_u^(a'/a) F^|u| L^(|u|-1),

    Theorem 1: c = c_{a'}, F = 2^(2a'+1) / (2^(2a'-1) - 1), L = log2 N;
    Theorem 2: c = 1, F = b^(2a'-1) (b-1) / (b^(2a'-1) - 1), L = m + 1.
    """
    _require_monotone(rule, W)
    rho = rule.rho(SpaceParams(alpha=alpha, weights=W))[0]
    return _stability_bound(rule, alpha, W, alpha_prime, Wprime, rho, alpha_prime / alpha,
                            lambda constants: {"rho": rho, **constants})


def prop_bound(rule: LatticeRule | PolyLatticeRule, alpha: float, W: WeightSet,
               lam: float = 1.0) -> float:
    """The CBC guarantee of Props 1 and 2, (sum / units)^(1/lam) with
    (sum, units) = rule.cbc_guarantee: units phi(N) for lattice rules and
    b^m - 1 for polynomial lattice rules (irreducible p)."""
    total, units = rule.cbc_guarantee(W, alpha, lam)
    return (total / units) ** (1.0 / lam)


def prop_certificate(rule: LatticeRule | PolyLatticeRule, alpha: float, W: WeightSet,
                     lam: float = 1.0) -> StabilityCertificate:
    """P against the CBC guarantee (valid for CBC-constructed rules).  Where the
    rule records rho (Prop 2 reads rho <= P <= guarantee), the certificate
    checks the outer inequality and fails if rho exceeds P."""
    rhs = prop_bound(rule, alpha, W, lam)
    params = SpaceParams(alpha=alpha, weights=W)
    lhs = merit(rule, params)
    recorded = rule.guarantee_components(params)
    cert = _certificate(lhs.p_value, rhs, {"lambda": lam, **recorded},
                        lhs_truncation=lhs.truncation_bound)
    if "rho" in recorded and recorded["rho"] > lhs.p_value * (1.0 + CERT_REL_SLACK):
        return replace(cert, passed=False)
    return cert


def combined_bound_eq1(rule: LatticeRule, alpha: float, W: WeightSet,
                       alpha_prime: float, Wprime: WeightSet,
                       lam: float = 1.0) -> StabilityCertificate:
    """Stability bound with the CBC guarantee substituted for rho:

        P_{a',g'}(z) <= c_{a'} * (weighted_zeta_sum(lam) / phi(N))^(a'/(a lam))
                        * the Theorem-1 subset sum.

    Valid for rules produced by the CBC search under (alpha, gamma); its rhs
    majorizes the Theorem-1 rhs because rho <= P <= CBC guarantee.
    """
    _require_monotone(rule, W)
    total, units = rule.cbc_guarantee(W, alpha, lam)
    raw = total / units
    return _stability_bound(rule, alpha, W, alpha_prime, Wprime, raw, alpha_prime / (alpha * lam),
                            lambda constants: {**constants, "cbc_guarantee_base": raw})


def jensen_certificate(rule: LatticeRule | PolyLatticeRule, alpha: float,
                       W: WeightSet, delta: float) -> StabilityCertificate:
    """Power-mean stability: (P_{a/d, g^(1/d)})^d <= P_{a, g} for 0 < d <= 1.

    For lattice rules a noninteger exponent falls back to the truncated
    series.  A truncated rhs is a lower estimate, so it is used as it is; a
    truncated lhs is raised by its tail, (P + tail)^d - P^d, so the check
    stays sound.
    """
    if not 0.0 < delta <= 1.0:
        raise UsageError(f"delta must lie in (0, 1], got {delta}")
    alpha_hi = alpha / delta
    high = merit(rule, SpaceParams(alpha=alpha_hi, weights=W.powered(1.0 / delta)))
    if high.p_value <= 0.0:  # rounding, not a P: P^delta is undefined below 0
        raise UsageError(f"P at alpha/delta = {alpha_hi:g} is {high.p_value:.3g}, not positive")
    rhs = merit(rule, SpaceParams(alpha=alpha, weights=W)).p_value
    lhs, tail = high.p_value ** delta, high.truncation_bound or 0.0
    return _certificate(lhs, rhs, {"delta": delta, "alpha_high": alpha_hi},
                        lhs_truncation=(high.p_value + tail) ** delta - lhs,
                        rel_slack=JENSEN_REL_SLACK)
