"""Greedy component-by-component search for lattice generating vectors.

Each step scans every candidate for the next component, evaluating the merit
with earlier components frozen, and keeps the argmin (smallest candidate among
near-ties).  The per-point subset sums are maintained incrementally: extending
the rule by one coordinate changes each point's sum by t * h(n), where t is
the new coordinate's (gamma-scaled) kernel factor and h is a state vector, so
one scan costs one product F @ h with F[c, n] = omega(c n / N), made in row
blocks for c <= N/2 (omega is mirrored, so row N - c equals row c).  For prime N the
scan is instead a circular correlation in the index ordering induced by a
primitive root, evaluated with the FFT; that order is sorted once so that
selection is one vectorised test.  POD and order-dependent state keeps one
contiguous row per subset size.  The loop itself (_greedy) also builds
polynomial lattice rules, which supply their own kernel columns and scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import UsageError
from .korobov import _BLOCK_CELLS, LatticeRule, is_prime, omega_table, primitive_root
from .weights import SpaceParams, WeightSet

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
    """Incremental per-point subset-sum state over a fixed point count.

    After ell accepted coordinates with factor columns f_1..f_ell, the state
    yields S(n) = sum over nonempty u of gamma_u prod_{j in u} f_j(n) and the
    gradient h(n) with S_new(n) = S(n) + t_new(n) * h(n), where the candidate
    column t_new is scale() times the raw factor column.
    """

    def __init__(self, weights: WeightSet, npoints: int):
        self.weights = weights
        self.npoints = npoints
        self.dim = 0
        kind = weights.kind
        if kind == "product":
            self.prodstate = np.ones(npoints)
        elif kind in ("pod", "order"):
            self.e = np.zeros((weights.s_max + 1, npoints))  # e[k] = e_k(t_1..t_dim)
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
        self.S = self.S + t_col * self.gradient()
        if kind == "product":
            self.prodstate = self.prodstate * (1.0 + t_col)
        elif kind in ("pod", "order"):
            for k in range(self.dim + 1, 0, -1):
                self.e[k] += t_col * self.e[k - 1]
        else:
            self.cols.append(np.array(factor_col))
        self.dim += 1


def _select(merits: np.ndarray, candidates: np.ndarray,
            order: np.ndarray) -> tuple[int, float]:
    """Smallest candidate whose merit is within TIE_REL_TOL of the minimum.

    ``order`` lists the indices of ``candidates`` in ascending candidate order.
    """
    m_star = float(merits.min())
    thresh = m_star + TIE_REL_TOL * abs(m_star)
    hits = np.flatnonzero(merits[order] <= thresh)
    if hits.size == 0:
        raise RuntimeError("selection failed; unreachable")
    idx = order[hits[0]]
    return int(candidates[idx]), float(merits[idx])


def _check_dimension(s: int, weights: WeightSet) -> None:
    if s < 1:
        raise UsageError("dimension must be >= 1")
    if s > weights.s_max:
        raise UsageError(f"weights defined up to s_max={weights.s_max}, need {s}")


def _powers(g: int, N: int) -> np.ndarray:
    """out[a] = g^a mod N, a < N - 1, by doubling: out[k:2k] = out[:k] g^k mod N."""
    out, k = np.ones(N - 1, dtype=np.int64), 1
    while k < N - 1:  # products stay below N^2 < 2^63
        out[k:2 * k] = (out[:k] * pow(g, k, N) % N)[:N - 1 - k]
        k *= 2
    return out


def _row_scan(rows: Callable[[int, int], np.ndarray], count: int, npoints: int,
              hold: bool) -> Callable[[np.ndarray], np.ndarray]:
    """scan(h) = F @ h with F[lo:hi] = rows(lo, hi), made in blocks of _BLOCK_CELLS
    cells: F is held when ``hold`` (later steps rescan it), else each scan
    remakes the blocks and drops each after its product."""
    block = max(1, _BLOCK_CELLS // npoints)
    spans = [(lo, min(lo + block, count)) for lo in range(0, count, block)]
    if hold:
        F = np.empty((count, npoints))
        for lo, hi in spans:
            F[lo:hi] = rows(lo, hi)
        return lambda h: F @ h
    return lambda h: np.concatenate([rows(lo, hi) @ h for lo, hi in spans])


def _greedy(s: int, weights: WeightSet, npoints: int, column: Callable[[int], np.ndarray],
            scan: Callable[[np.ndarray], np.ndarray], candidates: np.ndarray,
            order: np.ndarray) -> CbcTrace:
    """The CBC loop shared by both rule families.

    Component 1 is candidate 1; each later step keeps the candidate minimizing
    (sum S + scale * F @ h) / npoints, where ``column(c)`` is the kernel at the
    points for candidate c, ``scan(h)`` returns F @ h over ``candidates`` and
    ``order`` lists the indices of ``candidates`` in ascending order.
    """
    state = _MeritState(weights, npoints)
    state.update(column(1))
    trace = [(1, float(state.S.mean()))]
    for _ in range(1, s):
        merits = (float(state.S.sum()) + state.scale() * scan(state.gradient())) / npoints
        chosen, merit = _select(merits, candidates, order)
        state.update(column(chosen))
        trace.append((chosen, merit))
    return CbcTrace(choices=tuple(trace), evaluations=1 + (s - 1) * (npoints - 1))


def cbc_construct(N: int, s: int, params: SpaceParams,
                  fast: bool = False) -> tuple[LatticeRule, CbcTrace]:
    """Greedy CBC search: z_1 = 1, then each z_{l+1} minimizes the merit over
    {1, ..., N-1} with ties resolved toward the smallest candidate.

    Works for every weight kind; integer alpha in 1..4 (Bernoulli closed
    form evaluated incrementally).  ``fast`` (prime N only) scans by a
    length-(N-1) circular correlation in the primitive-root ordering, with
    the FFT.  The FFT's rounding scales with the kernel's norm rather than
    with the merit, so candidates that tie exactly (z, N - z, z^-1, N - z^-1
    at s = 2) can come out more than TIE_REL_TOL apart: the choice can then
    differ from the direct scan's within the tie class, and later components
    follow a different prefix (N = 2027, s = 6, gamma_j = j^-2 is one case).
    """
    if N < 2:
        raise UsageError(f"modulus N must be >= 2, got {N}")
    if fast and not is_prime(N):
        raise UsageError(f"fast CBC needs prime N, got {N}")
    _check_dimension(s, params.weights)
    alpha = int(params.alpha)
    if alpha != params.alpha:
        raise UsageError("CBC construction needs integer alpha (closed-form merit)")
    table = omega_table(alpha, N)
    n = np.arange(N, dtype=np.int64)

    if fast and N > 2:
        exps = _powers(primitive_root(N), N)
        fft_w = np.fft.fft(table[exps])
        candidates, order = exps, np.argsort(exps)

        def scan(h: np.ndarray) -> np.ndarray:
            # T(g^a) = h(0) w(0) + sum_b h(g^b) w(g^(a+b) mod (N-1))
            corr = np.real(np.fft.ifft(np.conj(np.fft.fft(h[exps])) * fft_w))
            return h[0] * table[0] + corr
    else:
        # rows c and N - c of omega((c n) mod N) are identical and the tie
        # policy keeps the smaller c, so candidates c <= N/2 suffice; with
        # s = 1 nothing is scanned and no row is built
        candidates = np.arange(1, (N // 2 if s > 1 else 0) + 1, dtype=np.int64)
        order = np.arange(candidates.size)
        scan = _row_scan(lambda lo, hi: table[(candidates[lo:hi, None] * n) % N],
                         candidates.size, N, s > 2)

    trace = _greedy(s, params.weights, N, lambda c: table[(c * n) % N], scan,
                    candidates, order)
    return LatticeRule(N=N, z=tuple(c for c, _ in trace.choices)), trace
