"""Greedy component-by-component search for lattice generating vectors.

Each step scans every candidate for the next component, evaluating the merit
with earlier components frozen, and keeps the argmin (smallest candidate among
near-ties).  The per-point subset sums are maintained incrementally: extending
the rule by one coordinate changes each point's sum by t * h(n), where t is
the new coordinate's (gamma-scaled) kernel factor and h is a state vector, so
one scan costs one product F @ h with F[c, n] = omega(c n / N), built once
for c <= N/2 (omega is mirrored, so row N - c equals row c).  For prime N the
scan is instead a circular correlation in the index ordering induced by a
primitive root, evaluated with the FFT; that order is sorted once so that
selection is one vectorised test.  POD and order-dependent state keeps one
contiguous row per subset size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import UsageError
from .korobov import LatticeRule, omega_table
from .weights import SpaceParams, WeightSet

TIE_REL_TOL = 1e-12

# int64 cells of c * n index temporary per row block of the candidate matrix
_INDEX_BLOCK_CELLS = 1 << 22


@dataclass(frozen=True)
class CbcTrace:
    """Per-dimension (chosen component, merit after the choice) plus the
    total number of candidate merit evaluations."""

    choices: tuple[tuple[int, float], ...]
    evaluations: int

    def to_jsonable(self) -> list:
        return [{"dim": i + 1, "chosen": c, "merit": m}
                for i, (c, m) in enumerate(self.choices)]


def euler_totient(N: int) -> int:
    """phi(N) = #{1 <= n <= N : gcd(n, N) = 1}, via trial-division factoring."""
    if N < 1:
        raise UsageError("totient needs N >= 1")
    result = N
    n = N
    f = 2
    while f * f <= n:
        if n % f == 0:
            result -= result // f
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        result -= result // n
    return result


def is_prime(N: int) -> bool:
    if N < 2:
        return False
    f = 2
    while f * f <= N:
        if N % f == 0:
            return False
        f += 1
    return True


def primitive_root(N: int) -> int:
    """Smallest generator of the multiplicative group mod prime N."""
    if not is_prime(N):
        raise UsageError(f"primitive root search needs prime N, got {N}")
    if N == 2:
        return 1
    # distinct prime factors of N - 1
    factors = []
    n = N - 1
    f = 2
    while f * f <= n:
        if n % f == 0:
            factors.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        factors.append(n)
    for g in range(2, N):
        if all(pow(g, (N - 1) // q, N) != 1 for q in factors):
            return g
    raise RuntimeError("no primitive root found; unreachable for prime N")


class _MeritState:
    """Incremental per-point subset-sum state over a fixed point count.

    After ell accepted coordinates with factor columns f_1..f_ell, the state
    yields S(n) = sum over nonempty u of gamma_u prod_{j in u} f_j(n) and the
    gradient h(n) with S_new(n) = S(n) + t_new(n) * h(n) for the candidate
    column t_new (already gamma-scaled where the kind requires it).
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

    def _next_gamma(self) -> float:
        return self.weights.gamma[self.dim]

    def scale(self) -> float:
        """Multiplier turning a raw factor column into t_new."""
        kind = self.weights.kind
        if kind in ("product", "pod"):
            return self._next_gamma()
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

    def update(self, factor_col: np.ndarray, t_col: np.ndarray) -> None:
        kind = self.weights.kind
        self.S = self.S + t_col * self.gradient()
        if kind == "product":
            self.prodstate = self.prodstate * (1.0 + t_col)
        elif kind in ("pod", "order"):
            for k in range(self.dim + 1, 0, -1):
                self.e[k] += t_col * self.e[k - 1]
        else:
            self.cols.append(np.array(factor_col))
        self.dim += 1

    def merit(self) -> float:
        return float(self.S.mean())


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


def cbc_construct(N: int, s: int, params: SpaceParams) -> tuple[LatticeRule, CbcTrace]:
    """Greedy CBC search: z_1 = 1, then each z_{l+1} minimizes the merit over
    {1, ..., N-1} with ties resolved toward the smallest candidate.

    Works for every weight kind; integer alpha in 1..4 (Bernoulli closed
    form evaluated incrementally).
    """
    return _cbc_lattice(N, s, params, fast=False)


def cbc_construct_fast(N: int, s: int, alpha: int,
                       product_gammas: Sequence[float]) -> tuple[LatticeRule, CbcTrace]:
    """FFT-accelerated CBC for prime N and product weights.

    The scan is a length-(N-1) circular correlation in the primitive-root
    ordering, followed by the same tie policy as cbc_construct.  The FFT's
    rounding scales with the kernel's norm rather than with the merit, so
    candidates that tie exactly (z, N - z, z^-1, N - z^-1 at s = 2) can come
    out more than TIE_REL_TOL apart: the choice can then differ from
    cbc_construct's within the tie class, and later components follow a
    different prefix (N = 2027, s = 6, gamma_j = j^-2 is one case).
    """
    if not is_prime(N):
        raise UsageError(f"fast CBC needs prime N, got {N}")
    gammas = list(product_gammas)
    if len(gammas) < s:
        raise UsageError(f"need {s} product weights, got {len(gammas)}")
    params = SpaceParams(alpha=float(alpha), weights=WeightSet.product(gammas))
    return _cbc_lattice(N, s, params, fast=True)


def _cbc_lattice(N: int, s: int, params: SpaceParams, fast: bool) -> tuple[LatticeRule, CbcTrace]:
    if N < 2:
        raise UsageError(f"modulus N must be >= 2, got {N}")
    if s < 1:
        raise UsageError("dimension must be >= 1")
    if s > params.weights.s_max:
        raise UsageError(f"weights defined up to s_max={params.weights.s_max}, need {s}")
    alpha = int(params.alpha)
    if alpha != params.alpha:
        raise UsageError("CBC construction needs integer alpha (closed-form merit)")
    table = omega_table(alpha, N)
    n = np.arange(N, dtype=np.int64)
    state = _MeritState(params.weights, N)

    if fast and N > 2:
        g = primitive_root(N)
        exps = np.empty(N - 1, dtype=np.int64)  # exps[a] = g^a mod N
        acc = 1
        for a in range(N - 1):
            exps[a] = acc
            acc = (acc * g) % N
        w_perm = table[exps]
        fft_w = np.fft.fft(w_perm)
        candidates, order = exps, np.argsort(exps)
    elif s > 1:
        # rows c and N - c of omega((c n) mod N) are identical and the tie
        # policy keeps the smaller c, so candidates c <= N/2 suffice
        candidates = np.arange(1, N // 2 + 1, dtype=np.int64)
        order = np.arange(candidates.size)
        factor_rows = np.empty((candidates.size, N))
        block = max(1, _INDEX_BLOCK_CELLS // N)
        for lo in range(0, candidates.size, block):
            rows = candidates[lo:lo + block, None]
            factor_rows[lo:lo + block] = table[(rows * n[None, :]) % N]

    chosen: list[int] = []
    trace: list[tuple[int, float]] = []
    evaluations = 0

    for ell in range(s):
        if ell == 0:
            z_new = 1
            col = table[n % N]
            state.update(col, state.scale() * col)
            trace.append((1, state.merit()))
            evaluations += 1
            chosen.append(1)
            continue
        h = state.gradient()
        scale = state.scale()
        base = float(state.S.sum())
        if fast and N > 2:
            # T(g^a) = h(0) w(0) + sum_b h(g^b) w(g^(a+b) mod (N-1))
            h_perm = h[exps]
            corr = np.real(np.fft.ifft(np.conj(np.fft.fft(h_perm)) * fft_w))
            merits = (base + scale * (h[0] * table[0] + corr)) / N
        else:
            merits = (base + scale * (factor_rows @ h)) / N
        evaluations += N - 1
        z_new, merit = _select(merits, candidates, order)
        col = table[(z_new * n) % N]
        state.update(col, scale * col)
        trace.append((z_new, merit))
        chosen.append(z_new)

    rule = LatticeRule(N=N, z=tuple(chosen))
    return rule, CbcTrace(choices=tuple(trace), evaluations=evaluations)
