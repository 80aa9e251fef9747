"""Greedy component-by-component search for generating vectors of both rule
families.

Each step scans every candidate for the next component, evaluating the merit
with earlier components frozen, and keeps the argmin (smallest candidate among
near-ties).  The per-point subset sums are maintained incrementally: extending
the rule by one coordinate changes each point's sum by t * h(n), where t is
the new coordinate's (gamma-scaled) kernel factor and h is a state vector, so
one scan costs one product F @ h, F[c, n] the kernel at point n for candidate
c.  POD and order-dependent state keeps one contiguous row per subset size.
The loop (_greedy) is the same for both families, and cbc owns the kernel
columns, the rows of F (both gathered from the kernel table at rule.points())
and the row scan's one hold-or-stream decision and work budget; each rule's
cbc_scan names the table, the candidates and the scan: rows of a width, or for
prime N a circular correlation by the FFT.  A lattice rule's columns n and
N - n are equal, so its rows span n <= N/2 only and its scan folds h onto them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from . import errors
from .errors import UsageError, afford, finite
from .korobov import _BLOCK_CELLS
from .weights import SpaceParams, WeightSet

if TYPE_CHECKING:
    from .korobov import LatticeRule
    from .walsh import PolyLatticeRule

TIE_REL_TOL = 1e-12


@dataclass(frozen=True)
class CbcTrace:
    """Per-dimension (chosen component, merit after the choice) plus the
    total number of candidate merit evaluations."""

    choices: tuple[tuple[int, float], ...]
    evaluations: int

    def to_jsonable(self) -> list:
        return [{"dim": i + 1, "chosen": c, "merit": m}
                for i, (c, m) in enumerate(self.choices)]


class _MeritState:
    """Incremental per-point subset-sum state of s coordinates over a fixed point count.

    After ell accepted coordinates with factor columns f_1..f_ell, the state
    yields S(n) = sum over nonempty u of gamma_u prod_{j in u} f_j(n) and the
    gradient h(n) with S_new(n) = S(n) + t_new(n) * h(n), where the candidate
    column t_new is scale() times the raw factor column.
    """

    def __init__(self, weights: WeightSet, s: int, npoints: int):
        self.weights = weights
        self.npoints = npoints
        self.dim = 0
        kind = weights.kind
        if kind == "product":
            self.prodstate = np.ones(npoints)
        elif kind in ("pod", "order"):
            self.e = np.zeros((s + 1, npoints))  # e[k] = e_k(t_1..t_dim)
            self.e[0] = 1.0
        else:
            self.cols: list[np.ndarray] = []
        self.S = np.zeros(npoints)

    def scale(self) -> float:
        """Multiplier turning a raw factor column into t_new."""
        if self.weights.kind in ("product", "pod"):
            return self.weights.gamma[self.dim]
        return 1.0

    def gradient(self) -> np.ndarray:
        kind = self.weights.kind
        if kind == "product":
            return self.prodstate
        if kind in ("pod", "order"):
            G = np.asarray(self.weights.Gamma[: self.dim + 1])
            return G @ self.e[: self.dim + 1]
        h = np.zeros(self.npoints)
        new = self.dim + 1
        for fs, w in self.weights.table:
            if w == 0.0 or new not in fs or max(fs) > new:
                continue
            rest = sorted(fs - {new})
            term = np.full(self.npoints, w)
            for j in rest:
                term = term * self.cols[j - 1]
            h += term
        return h

    def update(self, factor_col: np.ndarray) -> None:
        kind = self.weights.kind
        t_col = self.scale() * factor_col
        self.S += t_col * self.gradient()
        if kind == "product":
            self.prodstate *= 1.0 + t_col
        elif kind in ("pod", "order"):
            for k in range(self.dim + 1, 0, -1):
                self.e[k] += t_col * self.e[k - 1]
        else:
            self.cols.append(np.array(factor_col))
        self.dim += 1


def _select(merits: np.ndarray, candidates: np.ndarray) -> tuple[int, float]:
    """Smallest candidate whose merit is within TIE_REL_TOL of the minimum."""
    finite(float(np.abs(merits).max()), "a CBC merit")  # NaN and inf propagate through max
    m_star = float(merits.min())
    hits = np.flatnonzero(merits <= m_star + TIE_REL_TOL * abs(m_star))
    idx = hits[np.argmin(candidates[hits])]
    return int(candidates[idx]), float(merits[idx])


def _powers(g: int, N: int) -> np.ndarray:
    """out[a] = g^a mod N, a < N - 1, by doubling: out[k:2k] = out[:k] g^k mod N."""
    out, k = np.ones(N - 1, dtype=np.int64), 1
    while k < N - 1:  # products stay below N^2 < 2^63
        out[k:2 * k] = (out[:k] * pow(g, k, N) % N)[:N - 1 - k]
        k *= 2
    return out


def _row_scan(rule: LatticeRule | PolyLatticeRule, table: np.ndarray, candidates: np.ndarray,
              width: int, s: int) -> Callable[[np.ndarray], np.ndarray]:
    """scan(h) = F @ h for F[i, n] = table[x_n], x_n point n < width of the rule whose
    one component is candidates[i], in blocks of _BLOCK_CELLS cells: F is held when
    later steps rescan it and it fits, else each scan remakes the blocks and drops
    each after its product.  The work budget is charged before any row exists."""
    count = candidates.size
    holds = s > 2 and count * width * 8 <= errors.MEMORY_BUDGET
    # units: rule.point_units a cell each time the rows are built (once if held, else
    # every step), 1 a cell per scan, and a step's column and 4000 cells of numpy calls
    afford(count * width * (rule.point_units * (1 if holds else s - 1) + s - 1)
           + (rule.npoints + 4000) * rule.point_units * s, 0.787,
           f"CBC scan of {count * width} cells over {s} components")
    block = max(1, _BLOCK_CELLS // width)
    spans = [(lo, min(lo + block, count)) for lo in range(0, count, block)]

    def rows(lo: int, hi: int, out: np.ndarray) -> np.ndarray:
        # points() is the transpose of one (s, n) array, so x.T is contiguous and no index
        # is copied; 'clip' moves none (all are in range) and fills out unbuffered
        x = rule.with_codes(candidates[lo:hi].tolist()).points(0, width)
        return np.take(table, x.T, mode="clip", out=out)
    if holds:
        F = np.empty((count, width))
        for lo, hi in spans:
            rows(lo, hi, F[lo:hi])
        return lambda h: F @ h
    return lambda h: np.concatenate([rows(lo, hi, np.empty((hi - lo, width))) @ h
                                     for lo, hi in spans])


def _greedy(rule: LatticeRule | PolyLatticeRule, s: int, weights: WeightSet, table: np.ndarray,
            scan: Callable[[np.ndarray], np.ndarray], candidates: np.ndarray) -> CbcTrace:
    """The CBC loop shared by both rule families.

    Component 1 is candidate 1; each later step keeps the candidate minimizing
    (sum S + scale * F @ h) / npoints, ``scan(h)`` giving F @ h over ``candidates``;
    the column of c is the table at the points of the rule whose one component is c.
    """
    npoints = rule.npoints
    state = _MeritState(weights, s, npoints)

    def column(c: int) -> np.ndarray:
        return table[rule.with_codes([c]).points()[:, 0]]
    with np.errstate(over="ignore", invalid="ignore"):  # _select refuses what overflows
        state.update(column(1))
        trace = [(1, finite(float(state.S.mean()), "a CBC merit"))]
        for _ in range(1, s):
            chosen, merit = _select(  # no merits outlive their step
                (float(state.S.sum()) + state.scale() * scan(state.gradient())) / npoints,
                candidates)
            state.update(column(chosen))
            trace.append((chosen, merit))
    return CbcTrace(choices=tuple(trace), evaluations=1 + (s - 1) * (npoints - 1))


def cbc_construct(rule: LatticeRule | PolyLatticeRule, s: int, params: SpaceParams,
                  fast: bool = False) -> tuple[LatticeRule | PolyLatticeRule, CbcTrace]:
    """Greedy CBC search from the one-component rule that carries the modulus
    (N, or b, m and p; only the modulus is read): component 1 is 1, each later
    one minimizes the closed-form merit over rule.cbc_scan's candidates with
    ties resolved toward the smallest, and ``fast`` asks for the FFT scan."""
    if not 1 <= s <= params.weights.s_max:
        raise UsageError(f"dimension s={s} outside 1..{params.weights.s_max}, the weights' s_max")
    trace = _greedy(rule, s, params.weights, *rule.cbc_scan(s, params, fast))
    return rule.with_codes([c for c, _ in trace.choices]), trace
