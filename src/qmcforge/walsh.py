"""Polynomial lattice rules over Z_b and their weighted Walsh-space merit.

Points arise from the first m digits of the Laurent expansions
n(x) q_j(x) / p(x), which are linear over Z_b in the digits of n (a Hankel
generating matrix per q_j); the dual lattice consists of the integer frequency
vectors k with tr_m(k) . q = 0 mod p.  The squared worst-case error is the
dual sum of gamma_u * b^(-2 alpha mu(k_u)) and collapses to one pass over
the b^m points through the kernel phi_alpha, valid for every alpha > 1/2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .cbc import CbcTrace, _check_dimension, _greedy
from .errors import QmcforgeError, ResourceLimitError, UsageError
from .gfpoly import DigitExpansion, GFPoly, gf_is_irreducible, smallest_irreducible
from .korobov import MeritReport, _kernel_merit
from .weights import SpaceParams, subsets_of, weighted_power_sum

# Cell guard for the b^(2m) point table and the b^(2m) * m addition digits.
_TABLE_CELL_LIMIT = 1 << 24
RHO_DIM_LIMIT = 3
SERIES_DIM_LIMIT = 3


@dataclass(frozen=True)
class PolyLatticeRule:
    """Polynomial lattice rule: prime base b, degree m, modulus p, vector q.

    Every q_j is a nonzero polynomial of degree < m; the rule has b^m points.
    """

    b: int
    m: int
    p: GFPoly
    q: tuple[GFPoly, ...]

    def __post_init__(self):
        object.__setattr__(self, "q", tuple(self.q))
        if self.m < 1:
            raise UsageError(f"degree m must be >= 1, got {self.m}")
        if self.p.base != self.b:
            raise UsageError("modulus base differs from rule base")
        if self.p.degree != self.m:
            raise UsageError(f"deg(p) = {self.p.degree} but m = {self.m}")
        if not self.q:
            raise UsageError("generating vector must have at least one component")
        for qj in self.q:
            if qj.base != self.b:
                raise UsageError("component base differs from rule base")
            if qj.is_zero() or qj.degree >= self.m:
                raise UsageError("components must be nonzero with degree < m")

    @property
    def s(self) -> int:
        return len(self.q)

    @property
    def npoints(self) -> int:
        return self.b ** self.m

    def to_jsonable(self) -> dict:
        return {"type": "poly-lattice", "b": self.b, "m": self.m,
                "p": list(self.p.coeffs), "q": [list(qj.coeffs) for qj in self.q]}


def mu_of(k: int, b: int) -> int:
    """Number of base-b digits of k >= 1 (position of the leading digit)."""
    if k < 1:
        raise UsageError("mu(k) is defined for k >= 1")
    count = 0
    while k:
        k //= b
        count += 1
    return count


@dataclass(frozen=True)
class WalshIndexProfile:
    """A frequency index k >= 1 together with its digit count mu(k)."""

    b: int
    k: int
    mu: int

    @classmethod
    def of(cls, k: int, b: int) -> "WalshIndexProfile":
        return cls(b=b, k=k, mu=mu_of(k, b))

    def __post_init__(self):
        if not self.b ** (self.mu - 1) <= self.k < self.b ** self.mu:
            raise UsageError(f"mu={self.mu} is not the digit count of k={self.k}")


def walsh_phi_alpha(numer: int, m: int, alpha: float, b: int) -> float:
    """Walsh kernel phi_alpha at the rational numer / b^m.

    phi_alpha(0) = (b-1)/(b^(2 alpha) - b); otherwise, with a the position of
    the first nonzero base-b digit of x,

        phi_alpha(x) = (b-1)/(b^(2 alpha) - b)
                       - (b^(2 alpha) - 1) / (b^((2 alpha - 1) a) (b^(2 alpha) - b)).

    The digit position is computed exactly from the integer numerator.
    """
    if not alpha > 0.5:
        raise UsageError(f"phi_alpha needs alpha > 1/2, got {alpha}")
    if not 0 <= numer < b ** m:
        raise UsageError(f"numerator {numer} outside 0..b^m-1")
    b2a = float(b) ** (2.0 * alpha)
    base_term = (b - 1) / (b2a - b)
    if numer == 0:
        return base_term
    a = m - mu_of(numer, b) + 1  # x = numer / b^m, digits xi_i = base-b digits of numer
    return base_term - (b2a - 1.0) / (float(b) ** ((2.0 * alpha - 1.0) * a) * (b2a - b))


def _phi_axis(b: int, m: int, alpha: float) -> np.ndarray:
    return np.asarray([walsh_phi_alpha(a, m, alpha, b) for a in range(b ** m)])


def _digit_matrix(b: int, m: int) -> np.ndarray:
    """Row c holds the m base-b digits of c, lowest first (coefficients of G_m)."""
    codes = np.arange(b ** m, dtype=np.int64)
    return (codes[:, None] // b ** np.arange(m, dtype=np.int64)) % b


def _laurent_matrix(b: int, m: int, p_coeffs: tuple[int, ...]) -> np.ndarray:
    """L[c, k-1] = digit t_k of the Laurent expansion of x^c / p, k = 1..2m-1.

    Long division for every c < m at once: matching the coefficient of
    x^(m-k) in p * sum_k t_k x^(-k) = x^c gives
    p_m t_k = [c = m-k] - sum_{k-m <= i < k} p_{m-k+i} t_i (mod b).
    The digits of q / p are then digits(q) @ L mod b.
    """
    inv_lead = pow(p_coeffs[m], -1, b)
    c = np.arange(m)
    L = np.zeros((m, 2 * m - 1), dtype=np.int64)
    for k in range(1, 2 * m):
        acc = (c == m - k).astype(np.int64)
        for i in range(max(1, k - m), k):
            acc -= p_coeffs[m - k + i] * L[:, i - 1]
        L[:, k - 1] = (acc * inv_lead) % b
    return L


def _points_of(b: int, m: int, p_coeffs: tuple[int, ...], qcodes) -> np.ndarray:
    """out[r, n] = numerator over b^m of nu_m(n q_r / p), q_r = qcodes[r].

    With u_k the Laurent digits of q_r / p, digit i of n q_r / p is
    sum_c n_c u_(i+c): the Hankel matrix of u_1..u_(2m-1) applied to the
    digits of n.  Products stay below m (b-1)^2 and numerators below b^m, so
    float64 arithmetic is exact, floor(digit / b) included.
    """
    nd = _digit_matrix(b, m)
    U = (nd[qcodes] @ _laurent_matrix(b, m, p_coeffs)) % b
    nd = nd.T.astype(np.float64)
    out = np.zeros((U.shape[0], b ** m))
    for i in range(m):  # out <- b out + digit - b floor(digit / b), all in place
        digit = U[:, i:i + m].astype(np.float64) @ nd
        out *= b
        out += digit
        digit /= b  # np.floor is ~6x faster than np.remainder here
        out -= np.multiply(np.floor(digit, out=digit), b, out=digit)
    return out.astype(np.int64)


@lru_cache(maxsize=256)
def _g_m_codes_points(b: int, m: int, p_coeffs: tuple[int, ...]) -> np.ndarray:
    """numerators[qcode, ncode] = numerator of nu_m(n q mod p) over b^m."""
    if b ** (2 * m) > _TABLE_CELL_LIMIT:
        raise ResourceLimitError(f"point table b^(2m) too large for b={b}, m={m}")
    return _points_of(b, m, p_coeffs, slice(None))


def poly_lattice_points(rule: PolyLatticeRule) -> np.ndarray:
    """Integer numerators of the node set, shape (b^m, s); denominator b^m.

    Row for n in G_m holds the numerator of nu_m(n q_j / p) in column j.
    """
    return _points_of(rule.b, rule.m, rule.p.coeffs, [qj.code() for qj in rule.q]).T


def _point_digits(rule: PolyLatticeRule) -> np.ndarray:
    """digits[n, j, i-1] = digit xi_i of coordinate j of point n."""
    powers = rule.b ** np.arange(rule.m - 1, -1, -1)
    return (poly_lattice_points(rule)[:, :, None] // powers) % rule.b


def poly_lattice_point_expansions(rule: PolyLatticeRule) -> list[tuple[DigitExpansion, ...]]:
    """The same node set as exact digit expansions (m digits per coordinate)."""
    return [tuple(DigitExpansion(rule.b, tuple(d)) for d in row)
            for row in _point_digits(rule).tolist()]


def p_merit_wal_closed(rule: PolyLatticeRule, params: SpaceParams,
                       want_subsets: bool = False) -> MeritReport:
    """P(q) by the phi_alpha closed form (any alpha > 1/2).

    Equals (1/b^m) sum over points of sum over nonempty u of
    gamma_u * prod_{j in u} phi_alpha(x_j).
    """
    factors = _phi_axis(rule.b, rule.m, params.alpha)[poly_lattice_points(rule)]
    return _kernel_merit(factors, params.weights, want_subsets)


def _residue_axis(rule: PolyLatticeRule, j: int, kmax: int) -> np.ndarray:
    """codes of tr_m(k) q_j mod p for k = 0..kmax-1.

    Row c of M holds the digits of x^c q_j mod p, so digits(g) @ M mod b are
    the digits of g q_j mod p: multiplication by q_j as a matrix over Z_b.
    """
    b, m = rule.b, rule.m
    digits = _digit_matrix(b, m)
    M = digits[[(GFPoly.from_code(b, b ** c) * rule.q[j] % rule.p).code() for c in range(m)]]
    base_codes = ((digits @ M) % b) @ b ** np.arange(m, dtype=np.int64)
    return base_codes[np.arange(kmax) % rule.npoints]


@lru_cache(maxsize=64)
def _addition_table(b: int, m: int) -> np.ndarray:
    """Coefficientwise addition mod b on integer-encoded polynomials of G_m."""
    if b ** (2 * m) * m > _TABLE_CELL_LIMIT:
        raise ResourceLimitError(f"addition table b^(2m) * m too large for b={b}, m={m}")
    digits = _digit_matrix(b, m)
    return ((digits[:, None, :] + digits[None, :, :]) % b) @ b ** np.arange(m, dtype=np.int64)


def _combine_residues(rule: PolyLatticeRule, residue_axes: list[np.ndarray]) -> np.ndarray:
    """Residue codes of the componentwise sum over a meshgrid of frequencies."""
    table = None if rule.b == 2 else _addition_table(rule.b, rule.m)  # b = 2: XOR
    total = np.zeros((1,) * len(residue_axes), dtype=np.int64)
    for j, res in enumerate(residue_axes):
        sh = [1] * len(residue_axes)
        sh[j] = -1
        res = res.reshape(sh)
        total = np.bitwise_xor(total, res) if table is None else table[total, res]
    return total


def _mu_axis(kmax: int, b: int) -> np.ndarray:
    return np.asarray([0] + [mu_of(k, b) for k in range(1, kmax)], dtype=np.int64)


def _walsh_weight_per_axis(alpha: float, b: int) -> float:
    """sum_{k >= 1} b^(-2 alpha mu(k)) = (b-1)/(b^(2 alpha) - b)."""
    return (b - 1) / (float(b) ** (2.0 * alpha) - b)


def p_merit_wal_series(rule: PolyLatticeRule, params: SpaceParams,
                       digit_cap: int) -> MeritReport:
    """P(q) by truncated dual enumeration over k_j < b^digit_cap.

    Membership is tested through tr_m(k) . q mod p with exact field
    arithmetic; the truncation_bound majorizes all dropped dual terms.
    """
    s = rule.s
    if s > SERIES_DIM_LIMIT:
        raise UsageError(f"series evaluation supports s <= {SERIES_DIM_LIMIT}")
    kmax = rule.b ** digit_cap
    if kmax ** s > 2 * 10 ** 8:
        raise ResourceLimitError("series box b^(digit_cap * s) too large")
    alpha = params.alpha
    mu = _mu_axis(kmax, rule.b)
    radial_axis = np.where(np.arange(kmax) == 0, 1.0,
                           float(rule.b) ** (-2.0 * alpha * mu))
    residue_axes = [_residue_axis(rule, j, kmax) for j in range(s)]
    total = _combine_residues(rule, residue_axes)

    gamma_lut = np.zeros(1 << s)
    for u in subsets_of(s):
        gamma_lut[sum(1 << (j - 1) for j in u)] = params.weights.weight(u)

    radial = np.ones((1,) * s)
    pattern = np.zeros((1,) * s, dtype=np.int64)
    k = np.arange(kmax, dtype=np.int64)
    for j in range(s):
        sh = [1] * s
        sh[j] = kmax
        radial = radial * radial_axis.reshape(sh)
        pattern = pattern + (k.reshape(sh) != 0).astype(np.int64) * (1 << j)
    dual = total == 0
    p = float(np.sum(radial[dual] * gamma_lut[pattern[dual]]))

    full = 1.0 + _walsh_weight_per_axis(alpha, rule.b)
    capped = 1.0 + sum((rule.b - 1) * rule.b ** (a - 1) * float(rule.b) ** (-2.0 * alpha * a)
                       for a in range(1, digit_cap + 1))
    bound = (weighted_power_sum(params.weights, s, 1.0, full)
             - weighted_power_sum(params.weights, s, 1.0, capped))
    return MeritReport(p_value=p, method="truncated-series", truncation_bound=bound)


@lru_cache(maxsize=512)
def dual_mu_minima(rule: PolyLatticeRule) -> dict[frozenset[int], int]:
    """phi_u(q) = min of mu(k_u) over dual vectors with positive components.

    Each component of a minimizer satisfies mu(k_j) <= m + 1, because
    phi_u <= m + |u| while every coordinate contributes at least 1; so the
    box k_j < b^(m+1) is exhaustive.  The vector (b^m, ..., b^m) is always
    dual, so the minimum exists inside the box.
    """
    s = rule.s
    if s > RHO_DIM_LIMIT:
        raise ResourceLimitError(f"dual mu enumeration capped at s <= {RHO_DIM_LIMIT}")
    kmax = rule.b ** (rule.m + 1)
    mu = _mu_axis(kmax, rule.b)
    residue_full = [_residue_axis(rule, j, kmax) for j in range(s)]
    out = {}
    for u in subsets_of(s):
        idx = sorted(u)
        axes = [residue_full[j - 1][1:] for j in idx]  # positive frequencies only
        total = _combine_residues(rule, axes)
        musum = np.zeros((1,) * len(idx), dtype=np.int64)
        for pos, j in enumerate(idx):
            sh = [1] * len(idx)
            sh[pos] = kmax - 1
            musum = musum + mu[1:].reshape(sh)
        dual = total == 0
        if not dual.any():
            raise QmcforgeError("dual enumeration found no vector; box bug")
        phi_u = int(musum[dual].min())
        if not len(u) <= phi_u <= rule.m + len(u):
            raise QmcforgeError(f"phi_u = {phi_u} outside [{len(u)}, {rule.m + len(u)}]")
        out[u] = phi_u
    return out


def rho_wal_value(rule: PolyLatticeRule, params: SpaceParams) -> float:
    """rho alone, from the cached dual minima (no merit evaluation)."""
    minima = dual_mu_minima(rule)
    return max(params.weights.weight(u) * float(rule.b) ** (-2.0 * params.alpha * phi_u)
               for u, phi_u in minima.items())


def rho_wal(rule: PolyLatticeRule, params: SpaceParams) -> MeritReport:
    """Figure of merit rho = max over u of gamma_u b^(-2 alpha phi_u(q)).

    The report carries the closed-form P and per-subset (term, phi_u, None).
    """
    per_subset = {u: (params.weights.weight(u) * float(rule.b) ** (-2.0 * params.alpha * phi_u),
                      phi_u, None) for u, phi_u in dual_mu_minima(rule).items()}
    base = p_merit_wal_closed(rule, params)
    return MeritReport(p_value=base.p_value, rho_value=max(t for t, _, _ in per_subset.values()),
                       method=base.method, per_subset=per_subset)


def walsh_char_sum(rule: PolyLatticeRule, k: Sequence[int]) -> complex:
    """(1/b^m) sum over points of wal_k(x), from exact digits.

    Equals 1 exactly when tr_m(k) . q = 0 mod p; otherwise the modulus is at
    rounding level.
    """
    k = tuple(int(v) for v in k)
    if len(k) != rule.s or any(v < 0 for v in k):
        raise UsageError("frequency vector must have s nonnegative components")
    b, m = rule.b, rule.m
    kappa = np.asarray([[(kj // b ** i) % b for i in range(m)] for kj in k], dtype=np.int64)
    exponent = np.einsum("nji,ji->n", _point_digits(rule), kappa) % b  # xi_i pairs kappa_{i-1}
    return complex(np.exp(2j * np.pi * exponent / b).mean())


def cbc_construct_poly(b: int, m: int, s: int, params: SpaceParams,
                       p: GFPoly | None = None) -> tuple[PolyLatticeRule, CbcTrace]:
    """Greedy CBC over G_m \\ {0}: q_1 = 1, then each component minimizes the
    closed-form merit; ties resolve toward the smallest integer encoding.

    With p omitted, the lexicographically smallest monic irreducible of
    degree m is used.  A reducible p is accepted (the construction is
    well-defined), but the search-quality certificate of the CBC bound
    assumes irreducible p.
    """
    if p is None:
        p = smallest_irreducible(b, m)
    if p.base != b or p.degree != m:
        raise UsageError("modulus must have the rule's base and degree m")
    _check_dimension(s, params.weights)
    size = b ** m
    factor_rows = _phi_axis(b, m, params.alpha)[_g_m_codes_points(b, m, p.coeffs)[1:]]
    # row c-1 holds the kernel at the points of candidate code c
    trace = _greedy(s, params.weights, size, lambda c: factor_rows[c - 1],
                    lambda h: factor_rows @ h, np.arange(1, size, dtype=np.int64),
                    np.arange(size - 1))
    rule = PolyLatticeRule(b=b, m=m, p=p,
                           q=tuple(GFPoly.from_code(b, c) for c, _ in trace.choices))
    return rule, trace


def certification_available(rule: PolyLatticeRule) -> bool:
    """True when the modulus is irreducible, as the CBC quality bound assumes."""
    return gf_is_irreducible(rule.p)
