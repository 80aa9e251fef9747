"""Polynomial lattice rules over Z_b and their weighted Walsh-space merit.

Points arise from the first m digits of the Laurent expansions
n(x) q_j(x) / p(x), which are linear over Z_b in the digits of n (a Hankel
generating matrix per q_j); the dual lattice consists of the integer frequency
vectors k with tr_m(k) . q = 0 mod p.  The squared worst-case error is the
dual sum of gamma_u * b^(-2 alpha mu(k_u)) and collapses to one pass over
the b^m points through the kernel phi_alpha, valid for every alpha > 1/2;
the series truncated to k_j < b^K is the same pass over a truncated kernel.
The dual minima phi_u behind rho come from a shortest-cost recursion over
the b^m residues of G_m, one component at a time, with no box of frequencies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import errors
from .errors import QmcforgeError, UsageError, afford, as_int, finite_power, require
from .gfpoly import GFPoly
from .korobov import MeritReport, _fft_error, _kernel_merit, _largest, _series_report
from .weights import SpaceParams, WeightSet, subsets_of, weighted_power_sum


@dataclass(frozen=True)
class PolyLatticeRule:
    """Polynomial lattice rule: prime base b, degree m, modulus p, vector q.

    Every q_j is a nonzero polynomial of degree < m; the rule has b^m points.
    """

    b: int
    m: int
    p: GFPoly
    q: tuple[GFPoly, ...]
    needs_monotone_weights = False  # Theorem 2 holds for any weights

    def __post_init__(self):
        object.__setattr__(self, "m", as_int(self.m, "degree m"))
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

    def points(self, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """Integer numerators of nodes lo..hi-1 (default all), shape (hi - lo, s);
        denominator b^m.  Row for n in G_m holds the numerator of nu_m(n q_j / p)
        in column j."""
        return _points_of(self.b, self.m, self.p.coeffs, [qj.code() for qj in self.q],
                          np.arange(lo, self.npoints if hi is None else hi)).T

    def merit_kernel(self, alpha: float) -> np.ndarray:
        """phi_alpha(a / b^m), a = 0..b^m-1, the kernel of P's closed form (any alpha > 1/2)."""
        return _phi_axis(self.b, self.m, alpha)

    def rho(self, params: SpaceParams) -> tuple[float, dict]:
        """Figure of merit rho = max over u of gamma_u b^(-2 alpha phi_u(q)), and
        the per-subset breakdown {u: (term, phi_u, None)}."""
        per_subset = {u: (params.weights.weight(u) * float(self.b) ** (-2.0 * params.alpha * phi_u),
                          phi_u, None) for u, phi_u in dual_mu_minima(self).items()}
        return _largest(per_subset), per_subset

    def series(self, params: SpaceParams, K: int) -> MeritReport:
        return p_merit_wal_series(self, params, K)

    def r_kernel(self) -> tuple[np.ndarray, float, float]:
        """(g, e, 1): g(a/b^m) = sum over 0 < k < b^m of r_tilde(k) wal_k(a/b^m),
        a < b^m, the size-b DFT along each digit axis of r_tilde reshaped to
        [b] * m, axes reversed since digit kappa_i of k pairs with digit xi_(i+1)
        of x; e bounds its rounding, and R_u enters the discrepancy bound whole.
        g is real (r_tilde is even under digitwise negation) and exact for b = 2."""
        b, m = self.b, self.m
        c = np.zeros(b ** m)
        for a in range(1, m + 1):
            for lead in range(1, b):  # r_tilde is one value on the run of k of this mu(k), lead
                c[lead * b ** (a - 1):(lead + 1) * b ** (a - 1)] = r_tilde(lead * b ** (a - 1), b)
        g = np.fft.fftn(c.astype(np.longdouble).reshape([b] * m)).real.T.ravel()
        return g.astype(np.float64), (0.0 if b == 2 else _fft_error(c, b, m)), 1.0

    def rho_bound_factors(self) -> list[float]:
        """F_k = (b - 1) (k_b (m + 1))^k, k = 0..s, k_b = 1 for b = 2 and
        1 + 1/sin(pi/b) for prime b > 2: the subset-size factors of
        discrepancy.star_disc_bound_rho."""
        kb = 1.0 if self.b == 2 else 1.0 + 1.0 / math.sin(math.pi / self.b)
        return [(self.b - 1) * (kb * (self.m + 1)) ** k for k in range(self.s + 1)]

    def with_codes(self, codes: list[int]) -> PolyLatticeRule:
        """The rule of the same modulus with q_j = the polynomial of code codes[j]."""
        return PolyLatticeRule(b=self.b, m=self.m, p=self.p,
                               q=tuple(GFPoly.from_code(self.b, c) for c in codes))

    def cbc_scan(self, s: int, params: SpaceParams, fast: bool = False) -> tuple:
        """(column, scan, candidates) of cbc._greedy for q_(l+1) in G_m \\ {0}, by
        integer encoding.  A reducible p is accepted (the construction is
        well-defined), but the CBC guarantee assumes irreducible p."""
        from .cbc import _check_dimension, _row_scan  # only a search loads cbc
        if fast:
            raise UsageError("fast CBC needs a lattice rule; polynomial lattice rules have "
                             "no FFT scan")
        _check_dimension(s, params.weights)
        b, m, size = self.b, self.m, self.npoints
        # units: 12 m per cell of the candidate rows each time they are built (once
        # if _row_scan holds them, else every step), 1 per cell scanned, 5 10^4 m per step
        builds = 1 if (size - 1) * size * 8 <= errors.MEMORY_BUDGET else s - 1
        afford(size * size * (12 * m * builds + s) + 50000 * m * s, 0.787,
               f"CBC scan of {size * size} cells over {s} components")
        table, n, candidates = self.merit_kernel(params.alpha), np.arange(size), np.arange(1, size)

        def rows(lo: int, hi: int) -> np.ndarray:  # the kernel at the points of candidates lo..hi-1
            return table[_points_of(b, m, self.p.coeffs, candidates[lo:hi], n)]
        return lambda c: rows(c - 1, c)[0], _row_scan(rows, size - 1, size, s > 2), candidates

    def stability_constants(self, alpha_prime: float) -> tuple[float, float, float, dict]:
        """(c, F, L) of Theorem 2 and the components it records (none): c = 1,
        F = b^(2a'-1) (b-1) / (b^(2a'-1) - 1), L = m + 1."""
        if not alpha_prime > 0.5:  # the target SpaceParams' check, before F divides by zero
            raise UsageError(f"alpha must exceed 1/2, got {alpha_prime}")
        t = finite_power(self.b, 2.0 * alpha_prime - 1.0, f"alpha' = {alpha_prime} too large")
        return 1.0, t * (self.b - 1.0) / (t - 1.0), self.m + 1.0, {}

    def cbc_guarantee(self, W: WeightSet, alpha: float, lam: float) -> tuple[float, int]:
        """(sum over u of gamma_u^lam ((b-1)/(b^(2 alpha lam) - b))^|u|, b^m - 1):
        Prop 2's CBC guarantee for irreducible p is (sum / (b^m - 1))^(1/lam)."""
        if lam > 1.0 or 2.0 * alpha * lam <= 1.0:
            raise UsageError(f"need 1/(2 alpha) < lambda <= 1, got lambda={lam}")
        factor = (self.b - 1.0) / (finite_power(self.b, 2.0 * alpha * lam,
                                                f"alpha = {alpha} too large") - self.b)
        return weighted_power_sum(W, self.s, lam, factor), self.b ** self.m - 1

    def guarantee_components(self, params: SpaceParams) -> dict:
        """What the Prop 2 certificate records beside lambda: rho, for its chain
        rho <= P."""
        return {"rho": self.rho(params)[0]}


def mu_of(k: int, b: int) -> int:
    """Number of base-b digits of k >= 1 (position of the leading digit)."""
    if k < 1:
        raise UsageError("mu(k) is defined for k >= 1")
    count = 0
    while k:
        k //= b
        count += 1
    return count


def r_tilde(k: int, b: int) -> float:
    """Per-coordinate weight of the polynomial-lattice R sum: 1 for k = 0,
    else 1 / (b^a sin(pi kappa_{a-1} / b)) with a = mu(k) and kappa_{a-1}
    the leading base-b digit."""
    if k == 0:
        return 1.0
    a = mu_of(k, b)
    lead = k // b ** (a - 1)
    return 1.0 / (b ** a * math.sin(math.pi * lead / b))


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
    too_large = f"alpha = {alpha} too large"
    b2a = finite_power(b, 2.0 * alpha, too_large)
    base_term = (b - 1) / (b2a - b)
    if numer == 0:
        return base_term
    a = m - mu_of(numer, b) + 1  # x = numer / b^m, digits xi_i = base-b digits of numer
    return base_term - (b2a - 1.0) / (finite_power(b, (2.0 * alpha - 1.0) * a, too_large)
                                      * (b2a - b))


def _phi_axis(b: int, m: int, alpha: float) -> np.ndarray:
    """phi_alpha(a / b^m), a = 0..b^m-1: one value per digit count mu(a),
    taken at a = b^(mu-1) (and a = 0), repeated over the a that share it."""
    starts = [0] + [b ** mu for mu in range(m + 1)]
    return np.repeat([walsh_phi_alpha(a, m, alpha, b) for a in starts[:-1]],
                     np.diff(starts))


def _digits(codes, b: int, m: int) -> np.ndarray:
    """Row r: the m base-b digits of codes[r], lowest first (coefficients of G_m)."""
    return (np.asarray(codes, dtype=np.int64)[:, None] // b ** np.arange(m, dtype=np.int64)) % b


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


def _points_of(b: int, m: int, p_coeffs: tuple[int, ...], qcodes, ncodes) -> np.ndarray:
    """out[r, i] = numerator over b^m of nu_m(n q_r / p), q_r = qcodes[r] and
    n = ncodes[i].

    With u_k the Laurent digits of q_r / p, digit i of n q_r / p is
    sum_c n_c u_(i+c): the Hankel matrix of u_1..u_(2m-1) applied to the
    digits of n.  Products stay below m (b-1)^2 and numerators below b^m, so
    float64 arithmetic is exact, floor(digit / b) included.
    """
    U = (_digits(qcodes, b, m) @ _laurent_matrix(b, m, p_coeffs)) % b
    nd = _digits(ncodes, b, m).T.astype(np.float64)
    out = np.zeros((U.shape[0], nd.shape[1]))
    for i in range(m):  # out <- b out + digit - b floor(digit / b), all in place
        digit = U[:, i:i + m].astype(np.float64) @ nd
        out *= b
        out += digit
        digit /= b  # np.floor is ~6x faster than np.remainder here
        out -= np.multiply(np.floor(digit, out=digit), b, out=digit)
    return out.astype(np.int64)


def p_merit_wal_series(rule: PolyLatticeRule, params: SpaceParams,
                       digit_cap: int) -> MeritReport:
    """P(q) truncated to the dual vectors with k_j < b^digit_cap, as a point sum.

    The truncated kernel sum_{1 <= k < b^K} b^(-2 alpha mu(k)) wal_k(x), K =
    digit_cap, equals phi_alpha(x) when one of the first K digits of x is
    nonzero (every shell past the first nonzero digit sums to 0), and c_K =
    sum_{a=1..K} (b-1) b^(a-1) b^(-2 alpha a) otherwise, i.e. at the
    numerators below b^(m-K).  Character orthogonality then turns the point
    mean into the dual sum.  The truncation_bound takes c = 1 + c_K and
    d = sum_{a > K} (b-1) b^(a-1) b^(-2 alpha a).
    """
    if digit_cap < 0:
        raise UsageError(f"digit cap must be >= 0, got {digit_cap}")
    b, alpha = rule.b, params.alpha
    r = float(b) ** (1.0 - 2.0 * alpha)
    c_K = sum((b - 1) * b ** (a - 1) * float(b) ** (-2.0 * alpha * a)
              for a in range(1, digit_cap + 1))
    table = rule.merit_kernel(alpha)
    table[:b ** max(rule.m - digit_cap, 0)] = c_K
    p = _kernel_merit(rule, table, params.weights).p_value
    return _series_report(p, params.weights, rule.s, 1.0 + c_K,
                          (b - 1) / b * r ** (digit_cap + 1) / (1.0 - r))


def _residue_shift(rule: PolyLatticeRule, j: int, e: int) -> np.ndarray:
    """shift[t] = code of t - v_e, v_e = x^e q_j mod p, for the codes t indexing
    G_m, built digit by digit (XOR by v_e's code for b = 2)."""
    b, m = rule.b, rule.m
    v = (GFPoly.from_code(b, b ** e) * rule.q[j] % rule.p).coeffs
    shift = np.zeros(1, dtype=np.int64)
    for i in range(m):
        vi = v[i] if i < len(v) else 0
        shift = ((((np.arange(b) - vi) % b) * b ** i)[:, None] + shift).ravel()
    return shift


def _cost_extend(D: np.ndarray, shifts: list[np.ndarray], b: int) -> np.ndarray:
    """out(t) = min over residues r in G_m of D(t - r q_j) + cost(r), the codes
    t indexing G_m; cost(r) = deg(r) + 1, or m + 1 for r = 0, is the least
    mu(k) over k >= 1 with tr_m(k) = r (k = r, or k = b^m for r = 0).

    Residues are taken by leading position e: least(t) holds the minimum
    over deg(r) < e (r = 0 included), and r = c x^e + r' gives the shift
    t - c v_e, v_e = x^e q_j mod p, applied c = 1..b-1 times through
    shifts[e] = _residue_shift(rule, j, e).
    """
    m = len(shifts)
    least, out = D, D + (m + 1)
    for e, shift in enumerate(shifts):
        step = best = least[shift]
        for _ in range(b - 2):
            step = step[shift]
            best = np.minimum(best, step)
        out = np.minimum(out, best + (e + 1))
        least = np.minimum(least, best)
    return out


def dual_mu_minima(rule: PolyLatticeRule) -> dict[frozenset[int], int]:
    """phi_u(q) = min of mu(k_u) over dual vectors with positive components.

    Only the residues tr_m(k_j) decide membership, and each residue has a
    cheapest k_j (see _cost_extend); so phi_u = D_u(0), where D_u(t) is the
    least total cost of residues (r_j)_{j in u} with sum r_j q_j = t mod p.
    D_{v + {j}} extends D_v by one component; no inverse of q_j is needed,
    so a reducible p is handled alike.  The subsets are walked depth-first,
    holding one array of b^m costs per depth and each coordinate's m shifts.
    """
    b, m, s = rule.b, rule.m, rule.s
    # units: m (b^(m+1) + 2000 b) per subset for the shifted minima and their numpy
    # calls, m (b^(m+1) + 12500 m) per coordinate for its shifts, built digit by digit
    afford(m * ((2 ** s - 1) * (b ** (m + 1) + 2000 * b) + s * (b ** (m + 1) + 12500 * m)), 2.0,
           f"dual minima at s={s}")
    require(s * m * rule.npoints, 8, f"residue shifts of {s} coordinates at m={m}")
    shifts = [[_residue_shift(rule, j, e) for e in range(m)] for j in range(s)]
    phi = {}

    def walk(D: np.ndarray, v: frozenset[int]) -> None:
        for j in range(max(v, default=0) + 1, s + 1):
            Dj = _cost_extend(D, shifts[j - 1], b)
            u = v | {j}
            phi[u] = int(Dj[0])
            if not len(u) <= phi[u] <= m + len(u):
                raise QmcforgeError(f"phi_u = {phi[u]} outside [{len(u)}, {m + len(u)}]")
            walk(Dj, u)

    # unreachable: above every total cost; costs stay below (m + 1)(s + 2)
    start = np.full(rule.npoints, (m + 1) * (s + 1), dtype=np.int16)
    start[0] = 0
    walk(start, frozenset())
    return {u: phi[u] for u in subsets_of(s)}
