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

from .errors import QmcforgeError, UsageError, afford, as_int, finite_power, require
from .gfpoly import GFPoly
from .korobov import _BLOCK_CELLS, MeritReport, _kernel_merit, _rho, _series_report, _subset_bytes
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
    r_kernel_units = 0  # r_kernel repeats m (b - 1) + 1 values

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
        denominator b^m.  Row for n in G_m holds the numerator of nu_m(n q_j / p) in
        column j, the transpose of one (s, hi - lo) array filled in blocks of
        _BLOCK_CELLS // m points.  With u_k the Laurent digits of q_j / p, digit i of
        n q_j / p is sum_c n_c u_(i+c): the Hankel matrix of u_1..u_(2m-1) applied to
        the digits of n.  Products stay below m (b-1)^2 and numerators below b^m, so
        float64 arithmetic is exact, floor(digit / b) included."""
        b, m = self.b, self.m
        n = np.arange(lo, self.npoints if hi is None else hi)
        U = _digits([qj.code() for qj in self.q], b, m) @ _laurent_matrix(b, m, self.p.coeffs)
        U = (U % b).astype(np.float64)
        out, step = np.zeros((self.s, n.size)), _BLOCK_CELLS // m
        for first in range(0, n.size, step):
            nd = _digits(n[first:first + step], b, m).T.astype(np.float64)
            acc = out[:, first:first + step]
            for i in range(m):  # acc <- b acc + digit - b floor(digit / b), all in place
                digit = U[:, i:i + m] @ nd
                acc *= b
                acc += digit
                digit /= b  # np.floor is ~6x faster than np.remainder here
                acc -= np.multiply(np.floor(digit, out=digit), b, out=digit)
        return out.astype(np.int64).T

    @property
    def point_units(self) -> int:
        """Work units (0.787 ns, cbc's) per cell of points() gathered from a table."""
        return 12 * self.m

    def merit_kernel(self, alpha: float) -> np.ndarray:
        """phi_alpha(a / b^m), a = 0..b^m-1, the kernel of P's closed form (any alpha > 1/2)."""
        require(self.npoints, 8, f"kernel table at b={self.b}, m={self.m}")
        return _phi_axis(self.b, self.m, alpha)

    def rho(self, params: SpaceParams) -> tuple[float, dict]:
        """Figure of merit rho = max over u of gamma_u b^(-2 alpha phi_u(q)), and
        the per-subset breakdown {u: (term, phi_u)}."""
        return _rho(params, dual_mu_minima(self),
                    lambda gamma, phi: gamma * float(self.b) ** (-2.0 * params.alpha * phi))

    def series(self, params: SpaceParams, K: int) -> MeritReport:
        return p_merit_wal_series(self, params, K)

    def r_kernel(self) -> tuple[np.ndarray, float, float]:
        """(g, e, 1): g(a/b^m) = sum over 0 < k < b^m of r_tilde(k) wal_k(a/b^m), a < b^m,
        r_tilde(k) = 1 / (b^mu(k) sin(pi d / b)), d the leading base-b digit of k; e bounds
        its rounding, and R_u enters the discrepancy bound whole.

        Summed over each run of k of one mu(k) and leading digit, g(0) = m C_0 and
        g(a/b^m) = (m - mu(a)) C_0 + C_d for a >= 1 of leading digit d, where C_d is the
        sum over 0 < kappa < b of cos(2 pi kappa d / b) / (b sin(pi kappa / b)).  The
        m (b - 1) + 1 values are formed in long double (unit roundoff u; sinl and atanl
        within 1 ulp): each term, a quotient of sines of arguments in [-pi/2, pi/2], is
        within 14 u of its value; so C_d is within (b + 12) u C_0 and g within m (b + 14)
        u C_0, m + 1 covering second-order terms.  Rounding once to float64 adds 2^-53
        rms(g).  At b = 2 every sine is +-1, so g is exact and e = 0."""
        b, m = self.b, self.m
        k = np.arange(1, b)
        pi = 4 * np.arctan(np.longdouble(1))
        t = np.abs(b - 2 * (np.outer(np.arange(b), k) % b))  # cos(2 pi dk/b) = sin(pi (t/b - 1/2))
        C = (np.sin(pi * (2 * t - b) / (2 * b))
             / (b * np.sin(pi * np.minimum(k, b - k) / b))).sum(axis=1)
        g = np.concatenate([[m * C[0]], (np.arange(m - 1, -1, -1)[:, None] * C[0] + C[1:]).ravel()])
        runs = np.concatenate([[1], np.repeat(b ** np.arange(m, dtype=np.int64), b - 1)])
        e = (2.0 ** -53 * float(np.sqrt((runs * g * g).sum() / b ** m)) * (1 + 1e-12)
             + (m + 1) * (b + 14) * float(np.finfo(np.longdouble).eps / 2 * C[0]))
        return np.repeat(g.astype(np.float64), runs), (0.0 if b == 2 else e), 1.0

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
        """(table, scan, candidates) of cbc._greedy for q_(l+1) in G_m \\ {0}, by
        integer encoding, over rows of all b^m points.  A reducible p is accepted
        (the construction is well-defined), but the CBC guarantee assumes irreducible p."""
        from .cbc import _row_scan  # only a search loads cbc
        if fast:
            raise UsageError("fast CBC needs a lattice rule; polynomial lattice rules have "
                             "no FFT scan")
        table, candidates = self.merit_kernel(params.alpha), np.arange(1, self.npoints)
        return table, _row_scan(self, table, candidates, self.npoints, s), candidates

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
    c_K = (b - 1) / b * r * (1.0 - r ** digit_cap) / (1.0 - r)
    table = rule.merit_kernel(alpha)
    table[:b ** max(rule.m - digit_cap, 0)] = c_K
    p = _kernel_merit(rule, table, params.weights).p_value
    return _series_report(p, params.weights, rule.s, 1.0 + c_K,
                          (b - 1) / b * r ** (digit_cap + 1) / (1.0 - r))


def _shift_halves(rule: PolyLatticeRule) -> tuple[np.ndarray, np.ndarray]:
    """(hi, lo) of shapes (s, m, b^(m-k)) and (s, m, b^k), k = m // 2: the code of t - v,
    v = x^e q_j mod p, is hi[j, e, t // b^k] b^k + lo[j, e, t % b^k], as digitwise
    subtraction changes the high and low digits of t independently (XOR for b = 2).
    Row i of X holds the digits of x^(i+1) mod p, so v @ X holds those of x v mod p."""
    b, m, p = rule.b, rule.m, np.array(rule.p.coeffs)
    X = np.vstack([np.eye(m, dtype=np.int64)[1:], -pow(int(p[m]), -1, b) * p[:m] % b])
    v = _digits([qj.code() for qj in rule.q], b, m)  # row j: the digits of v, lowest first
    halves = [], []
    for _ in range(m):  # the code of t - w for every t < b^n, w the n high or low digits of v
        for out, w in zip(halves, (v[:, m // 2:], v[:, :m // 2])):
            n = w.shape[1]
            out.append((_digits(np.arange(b ** n), b, n) - w[:, None]) % b @ b ** np.arange(n))
        v = v @ X % b
    return tuple(np.stack(half, axis=1) for half in halves)


def _cost_extend(D: np.ndarray, halves, b: int, m: int, scratch: np.ndarray,
                 out: np.ndarray) -> None:
    """out(t) = min over residues r in G_m of D(t - r q_j) + cost(r), the codes
    t indexing G_m; cost(r) = deg(r) + 1, or m + 1 for r = 0, is the least
    mu(k) over k >= 1 with tr_m(k) = r (k = r, or k = b^m for r = 0).

    Residues are taken by leading position e: least(t) holds the minimum
    over deg(r) < e (r = 0 included), and r = c x^e + r' gives the shift
    t - c v_e, v_e = x^e q_j mod p, applied c = 1..b-1 times.  On the b^(m-k)
    x b^k view of the costs, each shift gathers rows by hi and columns by lo,
    the e-th pair of ``halves``, into the four arrays of ``scratch`` (mode "clip":
    every index is in range, and "raise" would copy the output through a buffer).
    """
    low, tmp, best, step = scratch
    least = D  # until the first shift; then low, in place
    np.add(D, m + 1, out=out)
    for e, (hi, lo) in enumerate(zip(*halves)):
        least.take(hi, 0, tmp, "clip").take(lo, 1, best, "clip")
        for c in range(b - 2):  # the (c + 2)-fold shift, into step
            (step if c else best).take(hi, 0, tmp, "clip").take(lo, 1, step, "clip")
            np.minimum(best, step, out=best)
        least = np.minimum(least, best, out=low)
        best += e + 1
        np.minimum(out, best, out=out)


def dual_mu_minima(rule: PolyLatticeRule) -> dict[frozenset[int], int]:
    """phi_u(q) = min of mu(k_u) over dual vectors with positive components.

    Only the residues tr_m(k_j) decide membership, and each residue has a
    cheapest k_j (see _cost_extend); so phi_u = D_u(0), where D_u(t) is the
    least total cost of residues (r_j)_{j in u} with sum r_j q_j = t mod p.
    D_{v + {j}} extends D_v by one component; no inverse of q_j is needed,
    so a reducible p is handled alike.  u extends u less its least coordinate, walked
    in the counting order of bit masks: one int16 array of b^m costs per size, four of scratch.
    """
    b, m, s = rule.b, rule.m, rule.s
    # units per subset: m (b^(m+1) + 2000 b) for the shifted minima and their numpy
    # calls, and 5000 for the loop's own step (the most of it at m = 1)
    afford((2 ** s - 1) * (m * (b ** (m + 1) + 2000 * b) + 5000), 2.0, f"dual minima at s={s}")
    # bytes: s + 5 int16 cost arrays, the intp cells of the s m shift halves, the dicts
    require(2 * (s + 5) * rule.npoints + 8 * s * m * (b ** (m - m // 2) + b ** (m // 2))
            + (2 ** s - 1) * _subset_bytes(s), 1, f"dual minima at m={m}, s={s}")
    halves = list(zip(*_shift_halves(rule)))  # [j] = (hi[j], lo[j])
    # costs[d], sets[d]: D_u and u of the last u of size d, costs[-4:] _cost_extend's scratch;
    # (m + 1)(s + 1) is unreachable, above every total cost, which stays below (m + 1)(s + 2)
    costs = np.full((s + 5, b ** (m - m // 2), b ** (m // 2)), (m + 1) * (s + 1), dtype=np.int16)
    costs[0, 0, 0] = 0
    sets = [frozenset()] * (s + 1)
    phi = dict.fromkeys(subsets_of(s))  # phi_u in subsets_of's order
    for x in range(1, 2 ** s):  # no mask of u's size less one lies between x & (x - 1) and x
        d, j = x.bit_count(), (x & -x).bit_length()  # |u| and its least coordinate
        u = sets[d] = sets[d - 1] | {j}
        _cost_extend(costs[d - 1], halves[j - 1], b, m, costs[-4:], costs[d])
        phi[u] = int(costs[d, 0, 0])
        if not d <= phi[u] <= m + d:
            raise QmcforgeError(f"phi_u = {phi[u]} outside [{d}, {m + d}]")
    return phi
