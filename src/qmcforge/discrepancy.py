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
from typing import Iterable, Mapping

import numpy as np

from .errors import ResourceLimitError, UsageError
from .korobov import LatticeRule, lattice_points, zaremba_rho
from .walsh import PolyLatticeRule, mu_of, poly_lattice_points, rho_wal
from .weights import (SpaceParams, WeightSet, _guard_enum, check_monotone, ratio_size_sum,
                      subsets_of)

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


def _columns(u: Iterable[int], s: int) -> list[int]:
    idx = sorted(set(int(j) for j in u))
    if not idx:
        raise UsageError("coordinate subset u must be nonempty")
    if idx[0] < 1 or idx[-1] > s:
        raise UsageError(f"subset {tuple(idx)} outside 1..{s}")
    return [j - 1 for j in idx]


def _fft_error(c: np.ndarray, n: int, axes: int) -> float:
    """e >= ||fl(g) - g||_2 / sqrt(c.size) for the length-n DFT g of c along
    `axes` axes, run in long double and rounded to float64.  Rounding adds
    2^-53 ||g||_2 = 2^-53 sqrt(c.size) ||c||_2.  The transform is modelled as
    8 u per pass (Higham 2002, Thm 24.2: 6.7 u per radix-2 pass) plus 20 u
    from c, u the long-double unit roundoff, times sqrt 2 for a mirrored half,
    over 2 ceil(log2 2n) + 3 passes per axis: Bluestein's two padded
    transforms and three chirp products, as pocketfft runs for large primes.
    Its generic small-prime passes are covered only empirically (tests check
    the table against a direct sum up to N = 4093).  With 80-bit long double
    this term is below 2^-53 / 3."""
    passes = axes * (2 * math.ceil(math.log2(2 * n)) + 3)
    u = np.finfo(np.longdouble).eps / 2
    return float(np.linalg.norm(c)) * (2.0 ** -53 + 2 ** 0.5 * (8 * passes + 20) * u)


def _lattice_kernel(N: int) -> tuple[np.ndarray, float]:
    """g(a/N) = sum over -N/2 < k <= N/2, k != 0, of e(k a/N) / |k|, a < N,
    from one FFT of c_k = 1/|k| at index k mod N, mirrored across N/2 as in
    korobov.omega_table so that z and N - z give bitwise-equal R."""
    k = np.arange(1, N)
    c = np.concatenate([[0.0], 1.0 / np.minimum(k, N - k)])
    g = np.fft.fft(c.astype(np.longdouble)).real.astype(np.float64)
    g[N // 2 + 1:] = g[1:(N + 1) // 2][::-1]
    return g, _fft_error(c, N, 1)


def _poly_kernel(b: int, m: int) -> tuple[np.ndarray, float]:
    """g(a/b^m) = sum over 0 < k < b^m of r_tilde(k) wal_k(a/b^m), a < b^m: the
    size-b DFT along each digit axis of r_tilde reshaped to [b] * m, axes
    reversed since digit kappa_i of k pairs with digit xi_(i+1) of x.  It is
    real (r_tilde is even under digitwise negation) and exact for b = 2."""
    c = np.asarray([0.0] + [r_tilde(k, b) for k in range(1, b ** m)])
    g = np.fft.fftn(c.astype(np.longdouble).reshape([b] * m)).real.T.ravel()
    return g.astype(np.float64), (0.0 if b == 2 else _fft_error(c, b, m))


def _point_sum(table: np.ndarray, table_err: float, x: np.ndarray) -> tuple[float, float]:
    """R = mean_n prod_j f_nj - 1, f_nj = 1 + g(x_nj), over numerators x (N, d),
    and a first-order bound on the rounding error of R (u = 2^-53), the sum of:

    * table: the error delta of g, ||delta||_2 <= sqrt(N) table_err, enters
      as (1/N) sum_nj delta(x_nj) w_nj, w_nj = prod_{i != j} f_ni; with c_j
      the most hits of one entry in column j, Cauchy-Schwarz bounds it by
      table_err sum_j sqrt(c_j mean_n w_nj^2);
    * products: d sums 1 + g and d - 1 products, (2d - 1) u mean_n |prod_j f_nj|;
    * mean: math.fsum and the division by N round once each, 2 u |mean|;
    * the cancelling -1: exact for a mean in [1/2, 2] (Sterbenz), else u |R|.
    """
    f = 1.0 + table[x]
    prods = np.prod(f, axis=1)
    mean = math.fsum(prods.tolist()) / x.shape[0]
    a, ones = np.abs(f), np.ones((x.shape[0], 1))
    w = (np.cumprod(np.hstack([ones, a[:, :-1]]), axis=1)  # |w_nj|: prefix times suffix
         * np.cumprod(np.hstack([ones, a[:, :0:-1]]), axis=1)[:, ::-1])
    hits = [np.bincount(col).max() for col in x.T]
    spread = np.sqrt(hits * np.mean(w ** 2, axis=0)).sum()
    rounding = (2 * x.shape[1] - 1) * np.abs(prods).mean() + 2 * abs(mean) + abs(mean - 1)
    return mean - 1.0, float(table_err * spread + 2.0 ** -53 * rounding)


def _subset_bound(x: np.ndarray, kernel: tuple, W: WeightSet, scale: float) -> tuple[float, dict]:
    """sum_u gamma_u [1 - (1 - 1/N)^|u| + scale (R_u + allowance_u)], and each R_u."""
    npts, s = x.shape
    _guard_enum(s)
    total, r_values = 0.0, {}
    for u in subsets_of(s):
        r_values[u], slack = _point_sum(*kernel, x[:, _columns(u, s)])
        total += W.weight(u) * (1 - (1 - 1 / npts) ** len(u) + scale * (r_values[u] + slack))
    return total, r_values


def r_u_lattice(rule: LatticeRule, u: Iterable[int]) -> float:
    """R_{u,N}(z): dual vectors in the box -N/2 < k_j <= N/2 (vector nonzero),
    weighted by prod 1/max(1, |k_j|), as a point sum over the kernel table."""
    return _point_sum(*_lattice_kernel(rule.N), lattice_points(rule)[:, _columns(u, rule.s)])[0]


def star_disc_bound_lattice(rule: LatticeRule, W: WeightSet) -> tuple[float, dict]:
    """Subset-sum bound sum_u gamma_u [1 - (1 - 1/N)^|u| + R_{u,N}(z) / 2], each
    R_u raised by its rounding allowance; returns it and the per-subset R."""
    return _subset_bound(lattice_points(rule), _lattice_kernel(rule.N), W, 0.5)


def star_disc_bound_rho_lattice(rule: LatticeRule, alpha: float, W: WeightSet,
                                Wprime: WeightSet) -> tuple[float, bool]:
    """Merit-based bound: for monotone gamma,

        D* <= sum_u gamma'_u [ 1 - (1 - 1/N)^|u|
              + rho^(1/(2 alpha)) / (2 gamma_u^(1/(2 alpha)))
                * ( log 2 (log2 N)^|u| + 3 (2 log2 N)^(|u|-1) ) ].

    Returns (bound, vacuous); vacuous marks gamma_u = 0 < gamma'_u, where the
    bound is +inf.
    """
    L = math.log2(rule.N)
    return _rho_bound(rule, rule.N, alpha, W, Wprime, zaremba_rho, [0.0] + [
        (math.log(2.0) * L ** k + 3.0 * (2.0 * L) ** (k - 1)) / 2.0
        for k in range(1, rule.s + 1)])


def _rho_bound(rule: LatticeRule | PolyLatticeRule, npoints: int, alpha: float,
               W: WeightSet, Wprime: WeightSet, rho_of, factors: list[float]) -> tuple[float, bool]:
    """(sum_u gamma'_u [1 - (1 - 1/npoints)^|u| + factors[|u|] (rho / gamma_u)^(1/(2 alpha))],
    vacuous) for monotone W, rho = rho_of(rule, (alpha, W))[0], as two subset-size
    sums; gamma_u = 0 < gamma'_u makes it vacuous, the sum +inf."""
    if not check_monotone(W, rule.s):
        raise UsageError("rho-based discrepancy bound needs monotone weights")
    rho_pow = rho_of(rule, SpaceParams(alpha=alpha, weights=W))[0] ** (1.0 / (2.0 * alpha))
    volume, vacuous = ratio_size_sum(
        W, Wprime, 0.0, [1.0 - (1.0 - 1.0 / npoints) ** k for k in range(rule.s + 1)], rule.s)
    rho_term, _ = ratio_size_sum(W, Wprime, 1.0 / (2.0 * alpha),
                                 [rho_pow * f for f in factors], rule.s)
    return (math.inf if vacuous else volume + rho_term), vacuous


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
    weighted by prod r_tilde(k_j), as a point sum over the kernel table."""
    x = poly_lattice_points(rule)[:, _columns(u, rule.s)]
    return _point_sum(*_poly_kernel(rule.b, rule.m), x)[0]


def star_disc_bound_poly(rule: PolyLatticeRule, W: WeightSet) -> tuple[float, dict]:
    """Subset-sum bound sum_u gamma_u [1 - (1 - 1/b^m)^|u| + R_{u,b^m}(q)],
    each R_u raised by its rounding allowance."""
    return _subset_bound(poly_lattice_points(rule), _poly_kernel(rule.b, rule.m), W, 1.0)


def sine_factor(b: int) -> float:
    """k_b = 1 for b = 2 and 1 + 1/sin(pi/b) for prime b > 2."""
    return 1.0 if b == 2 else 1.0 + 1.0 / math.sin(math.pi / b)


def star_disc_bound_rho_poly(rule: PolyLatticeRule, alpha: float, W: WeightSet,
                             Wprime: WeightSet) -> tuple[float, bool]:
    """Merit-based bound: for monotone gamma,

        D* <= sum_u gamma'_u [ 1 - (1 - 1/b^m)^|u|
              + (b - 1) (rho / gamma_u)^(1/(2 alpha)) (k_b (m + 1))^|u| ].
    """
    kb = sine_factor(rule.b)
    return _rho_bound(rule, rule.npoints, alpha, W, Wprime, rho_wal, [
        (rule.b - 1) * (kb * (rule.m + 1)) ** k for k in range(rule.s + 1)])


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
                       with_rho: bool) -> DiscrepancyReport:
    """The subset-sum bounds of one rule under params' weights, and its exact
    weighted D* for s <= 2; the rho bound, which needs the dual minima, only
    when with_rho is set."""
    W, lattice = params.weights, isinstance(rule, LatticeRule)
    bound_rho, vacuous = None, False
    if with_rho:  # the capped dual minima first
        rho_bound = star_disc_bound_rho_lattice if lattice else star_disc_bound_rho_poly
        bound_rho, vacuous = rho_bound(rule, params.alpha, W, W)
    bound_joe, r_values = (star_disc_bound_lattice if lattice else star_disc_bound_poly)(rule, W)
    exact = None
    if rule.s <= 2:
        points, n = ((lattice_points(rule), rule.N) if lattice
                     else (poly_lattice_points(rule), rule.npoints))
        exact = weighted_exact_star_discrepancy(points, n, W)
    return DiscrepancyReport(bound_joe=bound_joe, bound_rho=bound_rho,
                             exact_dstar=exact, r_values=r_values, vacuous=vacuous)
