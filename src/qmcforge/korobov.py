"""Rank-1 lattice rules and their worst-case error in weighted Korobov spaces.

The squared worst-case error of the rule with generating vector z and modulus
N is the dual-lattice sum

    P(z) = sum over nonempty u, sum over k_u in the dual of
           gamma_u * prod_{j in u} |k_j|^(-2 alpha),

which for integer alpha collapses to a single pass over the N points using
the even Bernoulli polynomial B_{2 alpha}.  The figure of merit rho is the
largest single dual term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Mapping

import numpy as np

from .errors import ResourceLimitError, UsageError, afford, as_int, finite, finite_power, require
from .weights import (SpaceParams, WeightSet, ratio_size_sum, subset_product_sum,
                      subsets_of, weighted_zeta_sum, zeta)

if TYPE_CHECKING:
    from .walsh import PolyLatticeRule

# Monomial coefficients of B_2, B_4, B_6, B_8, highest degree first.
_BERNOULLI_EVEN = {
    1: (1.0, -1.0, 1.0 / 6),
    2: (1.0, -2.0, 1.0, 0.0, -1.0 / 30),
    3: (1.0, -3.0, 5.0 / 2, 0.0, -1.0 / 2, 0.0, 1.0 / 42),
    4: (1.0, -4.0, 14.0 / 3, 0.0, -7.0 / 3, 0.0, 2.0 / 3, 0.0, -1.0 / 30),
}

# Dual minima cap on N, kept beside the work budget: its refusal is what the sweep
# tables record as thm1_rhs = NaN at N > 1024, so replacing it moves pinned outputs.
ZAREMBA_N_LIMIT = 1024

# largest modulus whose products (N - 1)^2 of two residues fit int64, as points
# and cbc._powers compute them
N_MAX = math.isqrt(2 ** 63 - 1) + 1

# cells per block of a streamed product space (CBC candidate rows, merit points)
_BLOCK_CELLS = 1 << 18


@dataclass(frozen=True)
class LatticeRule:
    """Rank-1 lattice rule: modulus N >= 2 and generating vector z.

    The node set is {({n z_1 / N}, ..., {n z_s / N}) : n = 0..N-1}.
    """

    N: int
    z: tuple[int, ...]
    needs_monotone_weights = True  # Theorem 1 holds for monotone weights only
    # work units (0.787 ns, cbc's) a cell of points() and a point of r_kernel()'s FFT
    point_units, r_kernel_units = 18, 2000

    def __post_init__(self):
        object.__setattr__(self, "N", as_int(self.N, "modulus N"))
        object.__setattr__(self, "z", tuple(as_int(v, "component of z") for v in self.z))
        if not 2 <= self.N <= N_MAX:
            raise UsageError(f"modulus N must lie in 2..{N_MAX}, got {self.N}")
        if len(self.z) < 1:
            raise UsageError("generating vector must have at least one component")
        if any(not 1 <= v <= self.N - 1 for v in self.z):
            raise UsageError(f"components of z must lie in 1..{self.N - 1}")

    @property
    def s(self) -> int:
        return len(self.z)

    @property
    def npoints(self) -> int:
        return self.N

    def to_jsonable(self) -> dict:
        return {"type": "lattice", "N": self.N, "z": list(self.z)}

    def points(self, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """Integer numerators of nodes lo..hi-1 (default all), shape (hi - lo, s);
        denominator N.  Row n holds (n * z_j) mod N, so the point is row / N exactly:
        the transpose of one (s, hi - lo) product, reduced in place."""
        n = np.arange(lo, self.N if hi is None else hi, dtype=np.int64)
        x = np.multiply.outer(np.asarray(self.z, dtype=np.int64), n)
        return np.remainder(x, self.N, out=x).T

    def merit_kernel(self, alpha: float) -> np.ndarray:
        """omega(a/N), a = 0..N-1, the kernel of P's closed form (integer alpha in 1..4)."""
        alpha = _require_closed_alpha(alpha)
        require(self.N, 8, f"kernel table at N={self.N}")
        return omega_table(alpha, self.N)

    def rho(self, params: SpaceParams) -> tuple[float, dict]:
        """Figure of merit rho = max over u of gamma_u / phi_u(z)^(2 alpha), and
        the per-subset breakdown {u: (term, phi_u)}."""
        too_large = f"alpha = {params.alpha} too large"
        return _rho(params, dual_product_minima(self),
                    lambda gamma, phi: gamma / finite_power(phi, 2.0 * params.alpha, too_large))

    def series(self, params: SpaceParams, K: int | None) -> MeritReport:
        return p_merit_series(self, params, K)

    def r_kernel(self) -> tuple[np.ndarray, float, float]:
        """(g, e, 1/2): g(a/N) = sum over -N/2 < k <= N/2, k != 0, of e(k a/N) / |k|,
        a < N, from one FFT of c_k = 1/|k| at index k mod N, mirrored across N/2
        as in omega_table so that z and N - z give bitwise-equal R; e bounds its
        rounding, and R_u enters the discrepancy bound halved."""
        N = self.N
        k = np.arange(1, N)
        c = np.concatenate([[0.0], 1.0 / np.minimum(k, N - k)])
        g = np.fft.fft(c.astype(np.longdouble)).real.astype(np.float64)
        g[N // 2 + 1:] = g[1:(N + 1) // 2][::-1]
        return g, _fft_error(c, N), 0.5

    def rho_bound_factors(self) -> list[float]:
        """F_k = (log 2 (log2 N)^k + 3 (2 log2 N)^(k-1)) / 2, k = 1..s, and F_0 = 0:
        the subset-size factors of discrepancy.star_disc_bound_rho."""
        L = math.log2(self.N)
        return [0.0] + [(math.log(2.0) * L ** k + 3.0 * (2.0 * L) ** (k - 1)) / 2.0
                        for k in range(1, self.s + 1)]

    def with_codes(self, codes: list[int]) -> LatticeRule:
        """The rule of the same modulus with z = codes."""
        return LatticeRule(N=self.N, z=tuple(codes))

    def cbc_scan(self, s: int, params: SpaceParams, fast: bool = False) -> tuple:
        """(table, scan, candidates) of cbc._greedy for z_(l+1) in 1..N-1.

        Integer alpha in 1..4 only (the Bernoulli closed form).  The direct scan
        multiplies cbc's rows F[c, n] = omega((c n) mod N) over n <= N/2 only, against h
        folded onto those columns (F's columns n and N - n are equal).  ``fast``
        (prime N only) scans by a length-(N-1) circular correlation in the
        primitive-root ordering, with the FFT, in one complex buffer.  The FFT's
        rounding scales with the kernel's norm rather than with the merit, so
        candidates that tie exactly (z, N - z, z^-1, N - z^-1 at s = 2) can come
        out more than TIE_REL_TOL apart: the choice can then differ from the
        direct scan's within the tie class, and later components follow a
        different prefix (N = 2027, s = 6, gamma_j = j^-2 is one case).
        """
        from .cbc import _powers, _row_scan  # cbc imports korobov
        N = self.N
        if fast and not is_prime(N):
            raise UsageError(f"fast CBC needs prime N, got {N}")
        if int(params.alpha) != params.alpha:
            raise UsageError("CBC construction needs integer alpha (closed-form merit)")
        if fast:  # at peak (tracemalloc), 72 bytes a point for the table, exps, fft_w, buf and
            # three scan-sized temporaries, and 8 for each row of cbc._MeritState: S and the
            # product, or S and s + 1 more (e_0..e_s, or the columns and the gradient)
            rows = 2 if params.weights.kind == "product" else s + 2
            require(N, 72 + 8 * rows, f"fast CBC scan at N={N}")
        table = self.merit_kernel(params.alpha)
        if fast and N > 2:
            exps = _powers(primitive_root(N), N)
            fft_w, buf = np.fft.fft(table[exps]), np.empty(N - 1, dtype=complex)

            def scan(h: np.ndarray) -> np.ndarray:
                # T(g^a) = h(0) w(0) + sum_b h(g^b) w(g^(a+b) mod (N-1)), in one buffer
                buf[:] = h[exps]
                np.fft.fft(buf, out=buf)
                np.multiply(np.conj(buf, out=buf), fft_w, out=buf)
                return h[0] * table[0] + np.fft.ifft(buf, out=buf).real
            return table, scan, exps
        # rows c and N - c of omega((c n) mod N) are identical and the tie policy
        # keeps the smaller c, so candidates c <= N/2 suffice (none at s = 1); the
        # table is mirrored bitwise, so columns n and N - n are too: h folds onto n <= N/2
        candidates = np.arange(1, (N // 2 if s > 1 else 0) + 1, dtype=np.int64)
        product = _row_scan(self, table, candidates, N // 2 + 1, s)

        def folded(h: np.ndarray) -> np.ndarray:
            half = h[:N // 2 + 1].copy()
            half[1:(N + 1) // 2] += h[N - 1:N // 2:-1]
            return product(half)
        return table, folded, candidates

    def stability_constants(self, alpha_prime: float) -> tuple[float, float, float, dict]:
        """(c, F, L) of Theorem 1 and the components it records: c = c_{a'},
        F = 2^(2a'+1) / (2^(2a'-1) - 1), L = log2 N."""
        c = c_alpha_prime(alpha_prime)  # refuses a' <= 1/2 before F divides by zero
        F = 2.0 ** (2.0 * alpha_prime + 1.0) / (2.0 ** (2.0 * alpha_prime - 1.0) - 1.0)
        return c, F, math.log2(self.N), {"c_alpha_prime": c}

    def cbc_guarantee(self, W: WeightSet, alpha: float, lam: float) -> tuple[float, int]:
        """(sum over u of gamma_u^lam (2 zeta(2 alpha lam))^|u|, phi(N)): Prop 1's
        CBC guarantee is (sum / phi(N))^(1/lam), any 1/(2 alpha) < lam <= 1."""
        return weighted_zeta_sum(W, self.s, lam, alpha), euler_totient(self.N)

    def guarantee_components(self, params: SpaceParams) -> dict:
        """What the Prop 1 certificate records beside lambda."""
        return {"totient": euler_totient(self.N)}


def _rho(params: SpaceParams, minima: dict, term: Callable) -> tuple[float, dict]:
    """(rho, {u: (term(gamma_u, phi_u), phi_u)}) from the dual minima {u: phi_u}
    of either rule family: rho is the largest term, and np.max passes on a NaN term."""
    per_subset = {u: (term(params.weights.weight(u), phi), phi) for u, phi in minima.items()}
    return finite(float(np.max([t for t, _ in per_subset.values()])), "rho"), per_subset


def _subset_bytes(s: int) -> int:
    """Bytes a subset of a dual search's {u: phi_u} and _rho's per_subset (tracemalloc):
    frozenset u, 216 + 32 s on average, two dict entries and (term, phi), 232 in all."""
    return 448 + 32 * s


def c_alpha_prime(alpha_prime: float) -> float:
    """(1 + zeta(2a')) + (2^(2a') + zeta(2a')) (2^(2a'-1) - 1) / 2^(4a'), Theorem 1's c."""
    if not alpha_prime > 0.5:
        raise UsageError(f"alpha' must exceed 1/2, got {alpha_prime}")
    finite_power(2, 4.0 * alpha_prime, f"alpha' = {alpha_prime} too large")  # t ** 2 below
    z = zeta(2.0 * alpha_prime)
    t = 2.0 ** (2.0 * alpha_prime)
    return (1.0 + z) + (t + z) * (t / 2.0 - 1.0) / t ** 2


def _prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n >= 1, ascending, by trial division."""
    out, f = [], 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    return out + [n] if n > 1 else out


def euler_totient(N: int) -> int:
    """phi(N) = #{1 <= n <= N : gcd(n, N) = 1} = N prod_{p | N} (1 - 1/p)."""
    if N < 1:
        raise UsageError("totient needs N >= 1")
    for f in _prime_factors(N):
        N -= N // f
    return N


def is_prime(N: int) -> bool:
    return N >= 2 and _prime_factors(N) == [N]


def primitive_root(N: int) -> int:
    """Smallest generator of the multiplicative group mod prime N."""
    if not is_prime(N):
        raise UsageError(f"primitive root search needs prime N, got {N}")
    if N == 2:
        return 1
    factors = _prime_factors(N - 1)
    for g in range(2, N):
        if all(pow(g, (N - 1) // q, N) != 1 for q in factors):
            return g
    raise RuntimeError("no primitive root found; unreachable for prime N")


@dataclass(frozen=True)
class MeritReport:
    """Evaluated merit data for one rule under one (alpha, gamma) pair.

    ``truncation_bound`` is None for a closed form, else the most P can fall
    short of the full dual sum.  ``per_subset`` is the rho breakdown only, set
    with rho: u -> (rho term of u, phi_u).
    """

    p_value: float
    rho_value: float | None = None
    method: str = "closed-form"
    truncation_bound: float | None = None
    per_subset: Mapping[frozenset[int], tuple[float, int]] | None = None

    def to_jsonable(self) -> dict:
        subsets = None
        if self.per_subset is not None:
            subsets = [{"u": sorted(u), "inner": inner, "phi": phi}
                       for u, (inner, phi) in sorted(
                           self.per_subset.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))]
        return {"P": self.p_value, "rho": self.rho_value, "method": self.method,
                "truncation_bound": self.truncation_bound, "per_subset": subsets}


def _require_closed_alpha(alpha: float) -> int:
    a = int(alpha)
    if a != alpha or a not in _BERNOULLI_EVEN:
        raise UsageError(
            f"closed form needs integer alpha in 1..4 (got {alpha}); use the series evaluator")
    return a


def omega_factor(alpha: int) -> float:
    """(2 pi)^(2 alpha) / ((-1)^(alpha+1) (2 alpha)!), the B_{2 alpha} scale."""
    sign = 1.0 if alpha % 2 == 1 else -1.0
    return sign * (2.0 * math.pi) ** (2 * alpha) / math.factorial(2 * alpha)


def omega_table(alpha: int, N: int) -> np.ndarray:
    """omega(a/N) for a = 0..N-1 where omega(x) = factor * B_{2 alpha}(x).

    omega is the Fourier kernel sum_{k != 0} exp(2 pi i k x) / |k|^(2 alpha).
    The table is mirrored across a = N/2 so that reflected candidates z and
    N - z produce bitwise identical values.
    """
    half = np.arange(N // 2 + 1) / N
    table = np.empty(N)
    table[: N // 2 + 1] = omega_factor(alpha) * np.polyval(_BERNOULLI_EVEN[alpha], half)
    table[N // 2 + 1:] = table[1: (N + 1) // 2][::-1]
    return table


def _fft_error(c: np.ndarray, n: int) -> float:
    """e >= ||fl(g) - g||_2 / sqrt(n) for the length-n DFT g of c, run in long
    double and rounded to float64.  Rounding adds 2^-53 ||g||_2 = 2^-53 sqrt(n)
    ||c||_2.  The transform is modelled as 8 u per pass (Higham 2002, Thm 24.2:
    6.7 u per radix-2 pass) plus 20 u from c, u the long-double unit roundoff,
    times sqrt 2 for a mirrored half, over 2 ceil(log2 2n) + 3 passes:
    Bluestein's two padded transforms and three chirp products, as pocketfft
    runs for large primes.  Its generic small-prime passes are covered only
    empirically (tests check the table against a direct sum up to N = 4093).
    With 80-bit long double this term is below 2^-53 / 3."""
    passes = 2 * math.ceil(math.log2(2 * n)) + 3
    u = np.finfo(np.longdouble).eps / 2
    return float(np.linalg.norm(c)) * (2.0 ** -53 + 2 ** 0.5 * (8 * passes + 20) * u)


def p_merit_closed(rule: LatticeRule | PolyLatticeRule, params: SpaceParams) -> MeritReport:
    """P of either rule family by its closed form: the mean over the points of
    sum over nonempty u of gamma_u * prod_{j in u} kernel(x_j), the kernel
    rule.merit_kernel(alpha) (Bernoulli for integer alpha in 1..4, or Walsh)."""
    return _kernel_merit(rule, rule.merit_kernel(params.alpha), params.weights)


def _kernel_merit(rule: LatticeRule | PolyLatticeRule, table: np.ndarray,
                  weights: WeightSet) -> MeritReport:
    """The mean over n of S(n) = sum_u gamma_u prod_{j in u} table[x_j(n)], S
    filled in blocks of points x = rule.points(lo, hi), never holding all n at once."""
    npoints, S = rule.npoints, np.empty(rule.npoints)
    block = max(1, _BLOCK_CELLS // rule.s)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        for lo in range(0, npoints, block):
            x = rule.points(lo, min(lo + block, npoints))
            S[lo:lo + block] = subset_product_sum(weights, table[x])
        p = float(S.mean())
    return MeritReport(p_value=finite(p, "P"), method="closed-form")


def p_merit_series(rule: LatticeRule, params: SpaceParams, K: int | None = None) -> MeritReport:
    """P(z) by truncated dual enumeration over the box |k_j| <= K.

    Works for any alpha > 1/2.  K >= N is required so that the minimal
    single-coordinate dual vectors (multiples of N) are reachable; the
    default is K = max(N, 64).  The report's truncation_bound majorizes the
    dropped tail.
    """
    K = max(rule.N, 64) if K is None else K
    if K < rule.N:
        raise UsageError(f"need K >= N (K={K}, N={rule.N})")
    s = rule.s
    # 40 bytes per cell at peak (tracemalloc): res, radial, pattern and the bincount weights
    require((2 * K + 1) ** (s - 1), 40, f"series box (2K+1)^(s-1) at K={K}, s={s}")
    # 57 bytes per k at peak (tracemalloc, K = N): the k axis arrays, with the two
    # bincounts of N cells
    require(2 * K + 1, 57, f"series k axis 2K+1 at K={K}")
    alpha = params.alpha
    rng = np.arange(-K, K + 1, dtype=np.int64)
    # |k| = 1 stands in at k = 0, which the zero weight pattern excludes
    radial_axis = np.maximum(np.abs(rng), 1).astype(np.float64) ** (-2.0 * alpha)

    gamma_lut = np.zeros(1 << s)
    for u in subsets_of(s):
        gamma_lut[sum(1 << (j - 1) for j in u)] = params.weights.weight(u)

    # the box over coordinates 2..s, flattened: sum k_j z_j mod N, radial product
    # and nonzero pattern (bits 1..s-1) of each cell
    res, radial, pattern = np.zeros(1, dtype=np.int64), np.ones(1), np.zeros(1, dtype=np.int64)
    for j in range(1, s):
        res = ((res[:, None] + rng * rule.z[j]) % rule.N).ravel()
        radial = (radial[:, None] * radial_axis).ravel()
        pattern = (pattern[:, None] + (rng != 0) * (1 << j)).ravel()
    # mass[bit][r] sums the cells of residue r, k_1 != 0 as pattern bit 0 = bit;
    # (k_1, cell) is dual iff r = -k_1 z_1 mod N
    with np.errstate(over="ignore", invalid="ignore"):  # _series_report refuses it
        mass = [np.bincount(res, weights=radial * gamma_lut[pattern + bit], minlength=rule.N)
                for bit in (0, 1)]
        r1 = (-rng * rule.z[0]) % rule.N
        p = float(np.sum(radial_axis * np.where(rng != 0, mass[1][r1], mass[0][r1])))
    # c sums the 1-d terms |k| <= K, d >= 2 int_K^inf x^(-2 alpha) dx their tail
    c = 1.0 + 2.0 * float(np.sum(radial_axis[K + 1:]))
    d = 2.0 * K ** (1.0 - 2.0 * alpha) / (2.0 * alpha - 1.0)
    return _series_report(p, params.weights, s, c, d)


def _series_report(p: float, weights: WeightSet, s: int, c: float, d: float) -> MeritReport:
    """The report of a truncated-series P in s coordinates, c the kept (1 included)
    and d the dropped part of the 1-d kernel sum: the dropped terms sum_u gamma_u
    ((c + d)^|u| - c^|u|) are at most sum_u gamma_u |u| d (c + d)^(|u|-1), no cancellation."""
    bound, _ = ratio_size_sum(weights, weights, 0.0,
                              [k * d * (c + d) ** (k - 1) for k in range(s + 1)], s)
    return MeritReport(p_value=finite(p, "series P"), method="truncated-series",
                       truncation_bound=finite(bound, "series truncation bound"))


def _phi_search(zs: list[int], N: int) -> int:
    """phi_u for |u| >= 2, u the coordinates of zs.  The j* of least g =
    gcd(z_j*, N) is solved for: k_j* z_j* = -t (mod N), t = sum_{j != j*}
    k_j z_j over the head, needs g | t and fixes k_j* modulo N / g (least
    nonzero modulus taken).  Heads, first component positive, run over
    prod |k_j| <= P for P = 1, 2, 4, ... until the best product is <= P,
    which is exact: a vector of product <= P has a head of product <= P."""
    g, star = min((math.gcd(v, N), i) for i, v in enumerate(zs))
    M = N // g
    inv = pow(zs[star] // g, -1, M)
    P = 1
    while True:
        prod, t = np.ones(1, dtype=np.int64), np.zeros(1, dtype=np.int64)
        for i, zj in enumerate(zs[:star] + zs[star + 1:]):  # the head
            reach = P // prod  # largest |k_j| that keeps the product <= P
            # 68 bytes per cell at peak (tracemalloc): parent, k, prod, t and their temporaries
            require(int(reach.sum()) * (2 if i else 1), 68, f"dual minima head table at P={P}")
            parent = np.repeat(np.arange(prod.size), reach)
            k = np.arange(1, parent.size + 1) - np.repeat(np.cumsum(reach) - reach, reach)
            if i:
                parent, k = np.concatenate([parent, parent]), np.concatenate([k, -k])
            prod, t = prod[parent] * np.abs(k), (t[parent] + k * zj) % N
        solvable = t % g == 0
        r = (-(t[solvable] // g) * inv) % M
        best = (prod[solvable] * np.where(r == 0, M, np.minimum(r, M - r))).min(initial=2 * P)
        if best <= P:
            return int(best)
        P *= 2


def dual_product_minima(rule: LatticeRule) -> dict[frozenset[int], int]:
    """phi_u for every nonempty u of the rule, by exact search: the minimum of
    prod |k_j| over dual vectors supported exactly on u with all components
    nonzero, N / gcd(z_j, N) for u = {j} and _phi_search otherwise."""
    N, s = rule.N, rule.s
    if N > ZAREMBA_N_LIMIT:
        raise ResourceLimitError(f"dual minima capped at N <= {ZAREMBA_N_LIMIT}")
    # units: N + 1000 per subset, the 1000 its search's fixed cost
    afford((2 ** s - 1) * (N + 1000), 260, f"dual minima over the 2^{s} - 1 subsets")
    require(2 ** s - 1, _subset_bytes(s), f"dual minima dicts of the 2^{s} - 1 subsets")
    return {u: N // math.gcd(rule.z[min(u) - 1], N) if len(u) == 1
            else _phi_search([rule.z[j - 1] for j in sorted(u)], N) for u in subsets_of(s)}
