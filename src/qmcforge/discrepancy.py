"""Weighted star discrepancy bounds and exact star discrepancy (s <= 2).

The subset-sum bounds combine the volume term 1 - (1 - 1/N)^|u| with either
the truncated dual sums R_u or the figure of merit rho.  The exact star
discrepancy evaluates the local discrepancy on the critical grid of point
coordinates with both open and closed counting, which brackets the one-sided
limits where the supremum is attained.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .errors import ResourceLimitError, UsageError
from .korobov import LatticeRule, lattice_points, zaremba_rho_value
from .walsh import (PolyLatticeRule, _combine_residues, _residue_axis, mu_of,
                    poly_lattice_points, rho_wal_value)
from .weights import SpaceParams, WeightSet, check_monotone, subsets_of

R_SUBSET_LIMIT = 3
R_LATTICE_N_LIMIT = 256
EXACT_DSTAR_N_LIMIT = 4096


@dataclass(frozen=True)
class DiscrepancyReport:
    """Star-discrepancy bounds (and the exact value when computable)."""

    bound_joe: float | None = None
    bound_rho: float | None = None
    exact_dstar: float | None = None
    r_values: Mapping[frozenset[int], float] | None = None
    vacuous: bool = False

    def to_jsonable(self) -> dict:
        def num(v):
            if v is None:
                return None
            return "inf" if math.isinf(v) else v
        rv = None
        if self.r_values is not None:
            rv = [{"u": sorted(u), "R": val} for u, val in
                  sorted(self.r_values.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))]
        return {"bound_joe": num(self.bound_joe), "bound_rho": num(self.bound_rho),
                "exact_dstar": self.exact_dstar, "per_subset": rv, "vacuous": self.vacuous}


def _check_u(u: Iterable[int], s: int) -> tuple[int, ...]:
    idx = tuple(sorted(set(int(j) for j in u)))
    if not idx:
        raise UsageError("coordinate subset u must be nonempty")
    if idx[0] < 1 or idx[-1] > s:
        raise UsageError(f"subset {idx} outside 1..{s}")
    if len(idx) > R_SUBSET_LIMIT:
        raise ResourceLimitError(f"R sums support |u| <= {R_SUBSET_LIMIT}")
    return idx


def r_u_lattice(rule: LatticeRule, u: Iterable[int]) -> float:
    """R_{u,N}(z): dual vectors in the box -N/2 < k_j <= N/2 (vector nonzero,
    zero components allowed), weighted by prod 1/max(1, |k_j|)."""
    idx = _check_u(u, rule.s)
    N = rule.N
    if N > R_LATTICE_N_LIMIT:
        raise ResourceLimitError(f"R enumeration capped at N <= {R_LATTICE_N_LIMIT}")
    axis = np.arange(-((N - 1) // 2), N // 2 + 1, dtype=np.int64)
    d = len(idx)
    dot = np.zeros((1,) * d, dtype=np.int64)
    weight = np.ones((1,) * d)
    nonzero = np.zeros((1,) * d, dtype=bool)
    for pos, j in enumerate(idx):
        sh = [1] * d
        sh[pos] = axis.size
        a = axis.reshape(sh)
        dot = dot + a * rule.z[j - 1]
        weight = weight / np.maximum(1, np.abs(a))
        nonzero = nonzero | (a != 0)
    dual = ((dot % N) == 0) & nonzero
    return float(weight[dual].sum())


def star_disc_bound_lattice(rule: LatticeRule, W: WeightSet) -> tuple[float, dict]:
    """Subset-sum bound sum_u gamma_u [1 - (1 - 1/N)^|u| + R_{u,N}(z) / 2].

    Returns the bound and the per-subset R values.
    """
    if rule.s > R_SUBSET_LIMIT:
        raise ResourceLimitError(f"bound needs R for |u| = s; capped at s <= {R_SUBSET_LIMIT}")
    N = rule.N
    total = 0.0
    r_values = {}
    for u in subsets_of(rule.s):
        r = r_u_lattice(rule, u)
        r_values[u] = r
        g = W.weight(u)
        total += g * (1.0 - (1.0 - 1.0 / N) ** len(u) + r / 2.0)
    return total, r_values


def star_disc_bound_rho_lattice(rule: LatticeRule, alpha: float, W: WeightSet,
                                Wprime: WeightSet) -> tuple[float, bool]:
    """Merit-based bound: for monotone gamma,

        D* <= sum_u gamma'_u [ 1 - (1 - 1/N)^|u|
              + rho^(1/(2 alpha)) / (2 gamma_u^(1/(2 alpha)))
                * ( log 2 (log2 N)^|u| + 3 (2 log2 N)^(|u|-1) ) ].

    Returns (bound, vacuous); vacuous marks gamma_u = 0 < gamma'_u, where the
    bound is +inf.
    """
    if not check_monotone(W, rule.s):
        raise UsageError("rho-based discrepancy bound needs monotone weights")
    rho = zaremba_rho_value(rule, SpaceParams(alpha=alpha, weights=W))
    rho_pow = rho ** (1.0 / (2.0 * alpha))
    N = rule.N
    L = math.log2(N)
    total = 0.0
    vacuous = False
    for u in subsets_of(rule.s):
        gp = Wprime.weight(u)
        if gp == 0.0:
            continue
        g = W.weight(u)
        if g == 0.0:
            vacuous = True
            continue
        k = len(u)
        spread = math.log(2.0) * L ** k + 3.0 * (2.0 * L) ** (k - 1)
        total += gp * (1.0 - (1.0 - 1.0 / N) ** k
                       + rho_pow / (2.0 * g ** (1.0 / (2.0 * alpha))) * spread)
    return (math.inf if vacuous else total), vacuous


def r_tilde(k: int, b: int) -> float:
    """Per-coordinate weight of the polynomial-lattice R sum: 1 for k = 0,
    else 1 / (b^a sin(pi kappa_{a-1} / b)) with a = mu(k) and kappa_{a-1}
    the leading base-b digit."""
    if k == 0:
        return 1.0
    a = mu_of(k, b)
    lead = k // b ** (a - 1)
    return 1.0 / (b ** a * math.sin(math.pi * lead / b))


def r_u_poly(rule: PolyLatticeRule, u: Iterable[int]) -> float:
    """R_{u,b^m}(q): dual vectors with all components < b^m (vector nonzero),
    weighted by prod r_tilde(k_j)."""
    idx = _check_u(u, rule.s)
    size = rule.npoints
    if size ** len(idx) > 2 * 10 ** 7:
        raise ResourceLimitError("R enumeration too large for this rule")
    d = len(idx)
    axes = [_residue_axis(rule, j - 1, size) for j in idx]
    total_res = _combine_residues(rule, axes)
    rt = np.asarray([r_tilde(k, rule.b) for k in range(size)])
    weight = np.ones((1,) * d)
    nonzero = np.zeros((1,) * d, dtype=bool)
    k = np.arange(size, dtype=np.int64)
    for pos in range(d):
        sh = [1] * d
        sh[pos] = size
        weight = weight * rt.reshape(sh)
        nonzero = nonzero | (k.reshape(sh) != 0)
    dual = (total_res == 0) & nonzero
    return float(weight[dual].sum())


def star_disc_bound_poly(rule: PolyLatticeRule, W: WeightSet) -> tuple[float, dict]:
    """Subset-sum bound sum_u gamma_u [1 - (1 - 1/b^m)^|u| + R_{u,b^m}(q)]."""
    if rule.s > R_SUBSET_LIMIT:
        raise ResourceLimitError(f"bound needs R for |u| = s; capped at s <= {R_SUBSET_LIMIT}")
    N = rule.npoints
    total = 0.0
    r_values = {}
    for u in subsets_of(rule.s):
        r = r_u_poly(rule, u)
        r_values[u] = r
        total += W.weight(u) * (1.0 - (1.0 - 1.0 / N) ** len(u) + r)
    return total, r_values


def sine_factor(b: int) -> float:
    """k_b = 1 for b = 2 and 1 + 1/sin(pi/b) for prime b > 2."""
    return 1.0 if b == 2 else 1.0 + 1.0 / math.sin(math.pi / b)


def star_disc_bound_rho_poly(rule: PolyLatticeRule, alpha: float, W: WeightSet,
                             Wprime: WeightSet) -> tuple[float, bool]:
    """Merit-based bound: for monotone gamma,

        D* <= sum_u gamma'_u [ 1 - (1 - 1/b^m)^|u|
              + (b - 1) (rho / gamma_u)^(1/(2 alpha)) (k_b (m + 1))^|u| ].
    """
    if not check_monotone(W, rule.s):
        raise UsageError("rho-based discrepancy bound needs monotone weights")
    rho = rho_wal_value(rule, SpaceParams(alpha=alpha, weights=W))
    rho_pow = rho ** (1.0 / (2.0 * alpha))
    N = rule.npoints
    kb = sine_factor(rule.b)
    total = 0.0
    vacuous = False
    for u in subsets_of(rule.s):
        gp = Wprime.weight(u)
        if gp == 0.0:
            continue
        g = W.weight(u)
        if g == 0.0:
            vacuous = True
            continue
        k = len(u)
        total += gp * (1.0 - (1.0 - 1.0 / N) ** k
                       + (rule.b - 1) * rho_pow / g ** (1.0 / (2.0 * alpha))
                       * (kb * (rule.m + 1)) ** k)
    return (math.inf if vacuous else total), vacuous


def exact_star_discrepancy(numerators: np.ndarray, denominator: int) -> float:
    """Exact star discrepancy of rational points (numerators over a common
    denominator), dimensions 1 and 2.

    On each cell of the grid spanned by the point coordinates, the counting
    measure is constant and only the anchored-box volume varies, so the
    supremum of |Delta| is attained in the limit at grid corners: closed
    counting at the lower corner, strict counting at the upper corner.
    """
    pts = np.asarray(numerators, dtype=np.int64)
    if pts.ndim == 1:
        pts = pts[:, None]
    npts, s = pts.shape
    if s not in (1, 2):
        raise UsageError(f"exact star discrepancy supports s in (1, 2), got {s}")
    if npts > EXACT_DSTAR_N_LIMIT:
        raise ResourceLimitError(f"exact star discrepancy capped at N <= {EXACT_DSTAR_N_LIMIT}")
    if np.any(pts < 0) or np.any(pts >= denominator):
        raise UsageError("point numerators must lie in [0, denominator)")
    if s == 1:
        grid = np.unique(np.concatenate([pts[:, 0], [0, denominator]]))
        xs = np.sort(pts[:, 0])
        closed = np.searchsorted(xs, grid, side="right")
        strict = np.searchsorted(xs, grid, side="left")
        vol = grid / denominator
        dev = np.maximum(np.abs(closed / npts - vol), np.abs(strict / npts - vol))
        return float(dev.max())
    gx = np.unique(np.concatenate([pts[:, 0], [0, denominator]]))
    gy = np.unique(np.concatenate([pts[:, 1], [0, denominator]]))
    ix = np.searchsorted(gx, pts[:, 0])
    iy = np.searchsorted(gy, pts[:, 1])
    hist = np.zeros((gx.size, gy.size), dtype=np.int64)
    np.add.at(hist, (ix, iy), 1)
    closed = hist.cumsum(axis=0).cumsum(axis=1)
    strict = np.zeros_like(closed)
    strict[1:, 1:] = closed[:-1, :-1]
    vol = (gx[:, None] / denominator) * (gy[None, :] / denominator)
    dev = np.maximum(np.abs(closed / npts - vol), np.abs(strict / npts - vol))
    return float(dev.max())


def weighted_exact_star_discrepancy(numerators: np.ndarray, denominator: int,
                                    W: WeightSet) -> float:
    """max over nonempty u of gamma_u times the exact star discrepancy of the
    coordinate projection onto u (s <= 2); this is the weighted star
    discrepancy the subset-sum bounds dominate."""
    pts = np.asarray(numerators, dtype=np.int64)
    if pts.ndim == 1:
        pts = pts[:, None]
    s = pts.shape[1]
    best = 0.0
    for u in subsets_of(s):
        cols = [j - 1 for j in sorted(u)]
        d = exact_star_discrepancy(pts[:, cols], denominator)
        best = max(best, W.weight(u) * d)
    return best


def lattice_report(rule: LatticeRule, alpha: float, W: WeightSet,
                   Wprime: WeightSet | None = None,
                   with_exact: bool = False) -> DiscrepancyReport:
    """Assemble the discrepancy bounds (and exact D* for s <= 2) for one rule."""
    Wp = Wprime if Wprime is not None else W
    bound_joe, r_values = star_disc_bound_lattice(rule, Wp)
    bound_rho, vacuous = star_disc_bound_rho_lattice(rule, alpha, W, Wp)
    exact = None
    if with_exact and rule.s <= 2:
        exact = weighted_exact_star_discrepancy(lattice_points(rule), rule.N, Wp)
    return DiscrepancyReport(bound_joe=bound_joe, bound_rho=bound_rho,
                             exact_dstar=exact, r_values=r_values, vacuous=vacuous)


def poly_report(rule: PolyLatticeRule, alpha: float, W: WeightSet,
                Wprime: WeightSet | None = None,
                with_exact: bool = False) -> DiscrepancyReport:
    """Polynomial-lattice counterpart of lattice_report."""
    Wp = Wprime if Wprime is not None else W
    bound_joe, r_values = star_disc_bound_poly(rule, Wp)
    bound_rho, vacuous = star_disc_bound_rho_poly(rule, alpha, W, Wp)
    exact = None
    if with_exact and rule.s <= 2:
        exact = weighted_exact_star_discrepancy(poly_lattice_points(rule),
                                                rule.npoints, Wp)
    return DiscrepancyReport(bound_joe=bound_joe, bound_rho=bound_rho,
                             exact_dstar=exact, r_values=r_values, vacuous=vacuous)
