"""Weighted star discrepancy bounds and exact star discrepancy (s <= 2).

The subset-sum bounds combine the volume term 1 - (1 - 1/N)^|u| with either
the truncated dual sums R_u or the figure of merit rho.  R_u is the point sum
mean_n prod_{j in u} (1 + g(x_nj)) - 1 over a Fourier kernel table g (Joe,
MCQMC 2004; Dick, Leobacher, Pillichshammer, SINUM 2005), O(N |u|) for any N
and s.  The exact star discrepancy evaluates the local discrepancy on the
critical grid of point coordinates with both open and closed counting, which
brackets the one-sided limits where the supremum is attained.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

import numpy as np

from .errors import UsageError, afford
from .weights import SpaceParams, WeightSet, check_monotone, ratio_size_sum, subsets_of

if TYPE_CHECKING:
    from .korobov import LatticeRule
    from .walsh import PolyLatticeRule


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


def _point_sum(f: np.ndarray, hits: np.ndarray, table_err: float) -> tuple[float, float]:
    """R = mean_n prod_j f_nj - 1 over the factors f_nj = 1 + g(x_nj), shape (N, d),
    and a first-order bound on the rounding error of R (u = 2^-53), the sum of:

    * table: the error delta of g, ||delta||_2 <= sqrt(N) table_err, enters
      as (1/N) sum_nj delta(x_nj) w_nj, w_nj = prod_{i != j} f_ni; with c_j =
      hits[j] the most hits of one entry in column j, Cauchy-Schwarz bounds it
      by table_err sum_j sqrt(c_j mean_n w_nj^2);
    * products: d sums 1 + g and d - 1 products, (2d - 1) u mean_n |prod_j f_nj|;
    * mean: math.fsum and the division by N round once each, 2 u |mean|;
    * the cancelling -1: exact for a mean in [1/2, 2] (Sterbenz), else u |R|.
    """
    prods = np.prod(f, axis=1)
    mean = math.fsum(prods.tolist()) / f.shape[0]
    a, ones = np.abs(f), np.ones((f.shape[0], 1))
    w = (np.cumprod(np.hstack([ones, a[:, :-1]]), axis=1)  # |w_nj|: prefix times suffix
         * np.cumprod(np.hstack([ones, a[:, :0:-1]]), axis=1)[:, ::-1])
    spread = np.sqrt(hits * np.mean(w ** 2, axis=0)).sum()
    rounding = (2 * f.shape[1] - 1) * np.abs(prods).mean() + 2 * abs(mean) + abs(mean - 1)
    return mean - 1.0, float(table_err * spread + 2.0 ** -53 * rounding)


def star_disc_bound(rule: LatticeRule | PolyLatticeRule, W: WeightSet) -> tuple[float, dict]:
    """Subset-sum bound sum_u gamma_u [1 - (1 - 1/n)^|u| + scale R_u] over the n
    points, each R_u raised by its rounding allowance; returns it and the
    per-subset R.  R_u, the point sum over rule.r_kernel() in the coordinates
    of u, sums the nonzero dual vectors supported in u: lattice rules weigh
    those in the box -N/2 < k_j <= N/2 by prod 1/max(1, |k_j|) (scale 1/2),
    polynomial lattice rules those with all k_j < b^m by prod r_tilde(k_j) (scale 1)."""
    n, s = rule.npoints, rule.s
    # before the points are built; units: 20 n for kernel and points, n |u| + 1000 per u
    afford(n * (s * 2 ** (s - 1) + 20) + 1000 * (2 ** s - 1), 78.9,
           f"subset sums over the 2^{s} - 1 subsets of {n} points")
    table, table_err, scale = rule.r_kernel()
    x = rule.points()
    f, hits = 1.0 + table[x], np.asarray([np.bincount(col).max() for col in x.T])
    total, r_values = 0.0, {}
    for u in subsets_of(rule.s):
        cols = [j - 1 for j in sorted(u)]
        r_values[u], slack = _point_sum(f[:, cols], hits[cols], table_err)
        total += W.weight(u) * (1 - (1 - 1 / rule.npoints) ** len(u)
                                + scale * (r_values[u] + slack))
    return total, r_values


def star_disc_bound_rho(rule: LatticeRule | PolyLatticeRule, alpha: float, W: WeightSet,
                        Wprime: WeightSet, rho: float) -> tuple[float, bool]:
    """Merit-based bound for monotone gamma over the n points, F = rule.rho_bound_factors():

        D* <= sum_u gamma'_u [1 - (1 - 1/n)^|u| + (rho / gamma_u)^(1/(2 alpha)) F_|u|],

    as two subset-size sums, rho = rule.rho under (alpha, W).  Returns (bound,
    vacuous); vacuous marks gamma_u = 0 < gamma'_u, where the bound is +inf."""
    if not check_monotone(W, rule.s):
        raise UsageError("rho-based discrepancy bound needs monotone weights")
    rho_pow = rho ** (1.0 / (2.0 * alpha))
    volume, vacuous = ratio_size_sum(
        W, Wprime, 0.0, [1.0 - (1.0 - 1.0 / rule.npoints) ** k for k in range(rule.s + 1)], rule.s)
    rho_term, _ = ratio_size_sum(W, Wprime, 1.0 / (2.0 * alpha),
                                 [rho_pow * f for f in rule.rho_bound_factors()], rule.s)
    return (math.inf if vacuous else volume + rho_term), vacuous


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
    # units: npts grid rows of npts cells, plus 1600 per row
    afford(npts * (npts + 1600), 11.5, f"exact star discrepancy of {npts} points")
    gx = np.unique(np.concatenate([pts[:, 0], [0, denominator]]))
    gy = np.unique(np.concatenate([pts[:, 1], [0, denominator]]))
    ix = np.searchsorted(gx, pts[:, 0])
    iy = np.searchsorted(gy, pts[:, 1])
    # one grid row at a time: column counts over rows <= i, and the strict
    # count strict[i, k] = closed[i - 1, k - 1] from the previous row
    columns = np.zeros(gy.size, dtype=np.int64)
    strict = np.zeros(gy.size, dtype=np.int64)
    best = 0.0
    for i in range(gx.size):
        np.add.at(columns, iy[ix == i], 1)
        closed = columns.cumsum()
        vol = (gx[i] / denominator) * (gy / denominator)
        dev = np.maximum(np.abs(closed / npts - vol), np.abs(strict / npts - vol))
        best = max(best, float(dev.max()))
        strict[1:] = closed[:-1]
    return best


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


def discrepancy_report(rule: LatticeRule | PolyLatticeRule, params: SpaceParams,
                       rho: float | None) -> DiscrepancyReport:
    """The subset-sum bounds of one rule under params' weights, and its exact
    weighted D* for s <= 2; the rho bound only when rho, the rule's figure of
    merit under params, is given."""
    W = params.weights
    bound_rho, vacuous = None, False
    if rho is not None:
        bound_rho, vacuous = star_disc_bound_rho(rule, params.alpha, W, W, rho)
    bound_joe, r_values = star_disc_bound(rule, W)
    exact = weighted_exact_star_discrepancy(rule.points(), rule.npoints, W) if rule.s <= 2 else None
    return DiscrepancyReport(bound_joe=bound_joe, bound_rho=bound_rho,
                             exact_dstar=exact, r_values=r_values, vacuous=vacuous)
