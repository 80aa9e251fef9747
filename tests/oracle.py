"""Independent brute-force references used by the test suite.

Nothing here shares arithmetic with the module it checks: dual lattices are
enumerated by direct residue tests, Laurent digits come from repeated
multiply-by-x long division, polynomial reduction is reimplemented on plain
digit lists, and the star discrepancy is a double loop.  Clarity over speed;
hard caps abort instead of approximating.
"""

from __future__ import annotations

import cmath
import math
from itertools import islice, product
from typing import Iterable, Sequence

from qmcforge.errors import ResourceLimitError, UsageError
from qmcforge.gfpoly import GFPoly
from qmcforge.korobov import LatticeRule
from qmcforge.walsh import PolyLatticeRule
from qmcforge.weights import SpaceParams

_ENUM_LIMIT = 10 ** 8
_PROBE_LIMIT = 10 ** 4


def dual_enumerate_lattice(rule: LatticeRule, K: int) -> list[tuple[int, ...]]:
    """All k with |k_j| <= K and k . z = 0 mod N, by direct residue test.

    The zero vector is always dual and is included; callers that need the
    nonzero duals filter it out.
    """
    if (2 * K + 1) ** rule.s > _ENUM_LIMIT:
        raise ResourceLimitError("dual box too large")
    out = []
    for k in product(range(-K, K + 1), repeat=rule.s):
        acc = 0
        for kj, zj in zip(k, rule.z):
            acc += kj * zj
        if acc % rule.N == 0:
            out.append(k)
    return out


def _poly_digits_mod(digits: list[int], mod_digits: list[int], b: int) -> list[int]:
    """Schoolbook reduction of a digit list by a nonzero digit list, mod b."""
    rem = list(digits)
    dd = len(mod_digits) - 1
    inv_lead = pow(mod_digits[-1], -1, b)
    for i in range(len(rem) - dd - 1, -1, -1):
        factor = (rem[i + dd] * inv_lead) % b
        if factor:
            for j, c in enumerate(mod_digits):
                rem[i + j] = (rem[i + j] - factor * c) % b
    while rem and rem[-1] == 0:
        rem.pop()
    return rem


def _poly_digits_mul(a: list[int], c: list[int], b: int) -> list[int]:
    if not a or not c:
        return []
    out = [0] * (len(a) + len(c) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(c):
            out[i + j] = (out[i + j] + x * y) % b
    while out and out[-1] == 0:
        out.pop()
    return out


def _base_digits(k: int, b: int, count: int) -> list[int]:
    out = []
    for _ in range(count):
        k, d = divmod(k, b)
        out.append(d)
    while out and out[-1] == 0:
        out.pop()
    return out


def dual_enumerate_poly(rule: PolyLatticeRule, digit_cap: int) -> list[tuple[int, ...]]:
    """All k with components < b^digit_cap and tr_m(k) . q = 0 mod p.

    Membership is tested with standalone digit-list arithmetic (no GFPoly).
    The zero vector is included.
    """
    b, m = rule.b, rule.m
    kmax = b ** digit_cap
    if kmax ** rule.s > _ENUM_LIMIT:
        raise ResourceLimitError("dual box too large")
    p_digits = list(rule.p.coeffs)
    q_digits = [list(qj.coeffs) for qj in rule.q]
    out = []
    for k in product(range(kmax), repeat=rule.s):
        acc: list[int] = []
        for kj, qd in zip(k, q_digits):
            term = _poly_digits_mul(_base_digits(kj, b, m), qd, b)
            n = max(len(acc), len(term))
            acc = [((acc[i] if i < len(acc) else 0) + (term[i] if i < len(term) else 0)) % b
                   for i in range(n)]
            while acc and acc[-1] == 0:
                acc.pop()
        if not _poly_digits_mod(acc, p_digits, b):
            out.append(k)
    return out


def r_tilde(k: int, b: int) -> float:
    """Per-coordinate weight of the polynomial-lattice R sum: 1 for k = 0, else
    1 / (b^a sin(pi d / b)), a the number of base-b digits of k and d the leading one."""
    if k == 0:
        return 1.0
    a = 1
    while k >= b ** a:
        a += 1
    return 1.0 / (b ** a * math.sin(math.pi * (k // b ** (a - 1)) / b))


def reference_laurent_digits(numer: GFPoly, p: GFPoly, count: int) -> tuple[int, ...]:
    """First ``count`` Laurent digits of numer / p by repeated
    multiply-by-x-and-reduce long division."""
    if count > 64:
        raise ResourceLimitError("reference division capped at 64 digits")
    if p.is_zero():
        raise UsageError("reference division needs a nonzero modulus")
    b = p.base
    m = int(p.degree)
    inv_lead = pow(p.coeffs[-1], -1, b)
    rem = _poly_digits_mod(list(numer.coeffs), list(p.coeffs), b)
    digits = []
    for _ in range(count):
        rem = [0] + rem  # multiply by x
        if len(rem) == m + 1:
            d = (rem[m] * inv_lead) % b
            if d:
                rem = [(r - d * c) % b for r, c in zip(rem, p.coeffs)]
            rem = rem[:m]
        else:
            d = 0
        while rem and rem[-1] == 0:
            rem.pop()
        digits.append(d)
    return tuple(digits)


def reference_poly_points(rule: PolyLatticeRule) -> list[tuple[tuple[int, ...], ...]]:
    """Digits t_1..t_m of every coordinate of every point, n in code order:
    n q_j is reduced mod p on digit lists, then divided out digit by digit."""
    b, m = rule.b, rule.m
    if b ** m * rule.s > _ENUM_LIMIT:
        raise ResourceLimitError("reference point set too large")
    p_digits = list(rule.p.coeffs)
    rows = []
    for n in range(b ** m):
        residues = (_poly_digits_mod(_poly_digits_mul(_base_digits(n, b, m), list(qj.coeffs), b),
                                     p_digits, b) for qj in rule.q)
        rows.append(tuple(reference_laurent_digits(GFPoly(b, tuple(r)), rule.p, m)
                          for r in residues))
    return rows


def char_sum_lattice(rule: LatticeRule, k: Sequence[int]) -> complex:
    """(1/N) sum over points of exp(2 pi i k . x), from the points themselves."""
    if len(k) != rule.s:
        raise UsageError("frequency vector length must match the rule dimension")
    N = rule.N
    total = 0.0 + 0.0j
    for n in range(N):
        phase = 0.0
        for kj, zj in zip(k, rule.z):
            phase += kj * ((n * zj) % N) / N
        total += cmath.exp(2j * cmath.pi * phase)
    return total / N


def _wal_value(k: int, digits: Sequence[int], b: int) -> complex:
    exponent = 0
    kk = k
    for xi in digits:
        if not kk:
            break
        exponent += (kk % b) * xi
        kk //= b
    return cmath.exp(2j * cmath.pi * (exponent % b) / b)


def _wal_mean(rows: Sequence[Sequence[Sequence[int]]], k: Sequence[int], b: int) -> complex:
    """Mean of wal_k over points given by their digit rows."""
    total = 0.0 + 0.0j
    for row in rows:
        term = 1.0 + 0.0j
        for kj, digits in zip(k, row):
            term *= _wal_value(kj, digits, b)
        total += term
    return total / len(rows)


def char_sum_poly(rule: PolyLatticeRule, k: Sequence[int]) -> complex:
    """(1/b^m) sum over points of wal_k(x), from the reference points."""
    if len(k) != rule.s or any(kj < 0 for kj in k):
        raise UsageError("frequency vector must have s nonnegative components")
    return _wal_mean(reference_poly_points(rule), k, rule.b)


def _frequencies(s: int, limit: int, count: int) -> list[tuple[int, ...]]:
    """Deterministic probe frequencies ordered by sup-norm shells."""
    out: list[tuple[int, ...]] = []
    for radius in range(1, limit + 1):
        for k in product(range(-radius, radius + 1), repeat=s):
            if max(abs(v) for v in k) == radius:
                out.append(k)
                if len(out) >= count:
                    return out
    return out


def wce_by_function_probe(rule: LatticeRule | PolyLatticeRule, params: SpaceParams,
                          probe_count: int = 200) -> float:
    """Lower bound on the worst-case error from unit-norm single-frequency
    probes f_k = r_alpha(k)^(1/2) basis_k: the rule integrates basis_k to the
    character sum, while the true integral vanishes, so each probe yields a
    valid error witness, which stays below sqrt(P).
    """
    if probe_count > _PROBE_LIMIT:
        raise ResourceLimitError(f"probe count capped at {_PROBE_LIMIT}")
    alpha = params.alpha
    best = 0.0
    if isinstance(rule, PolyLatticeRule):
        b = rule.b
        rows = reference_poly_points(rule)
        freqs = list(islice((k for k in product(range(rule.npoints + 1), repeat=rule.s)
                             if any(k)), probe_count))
        for k in freqs:
            u = frozenset(j + 1 for j, kj in enumerate(k) if kj)
            gamma = params.weights.weight(u)
            if gamma == 0.0:
                continue
            # mu(k_j): the digit count of k_j <= b^m
            mu_sum = sum(len(_base_digits(kj, b, rule.m + 1)) for kj in k if kj)
            r = gamma * float(b) ** (-2.0 * alpha * mu_sum)
            best = max(best, math.sqrt(r) * abs(_wal_mean(rows, k, b)))
    else:
        freqs = _frequencies(rule.s, 2 * rule.N, probe_count)
        for k in freqs:
            u = frozenset(j + 1 for j, kj in enumerate(k) if kj)
            gamma = params.weights.weight(u)
            if gamma == 0.0:
                continue
            r = gamma * math.prod(abs(kj) ** (-2.0 * alpha) for kj in k if kj)
            qsum = char_sum_lattice(rule, k)
            best = max(best, math.sqrt(r) * abs(qsum))
    return best


def reference_star_discrepancy(numerators: Iterable[Sequence[int]], denominator: int) -> float:
    """Exact star discrepancy, s <= 2, by a plain double loop over the grid
    with per-point strict and closed counting."""
    pts = [tuple(row) for row in numerators]
    if not pts:
        raise UsageError("need at least one point")
    s = len(pts[0])
    if s not in (1, 2):
        raise UsageError("reference star discrepancy supports s in (1, 2)")
    if len(pts) * (len(pts) + 2) ** s > _ENUM_LIMIT:
        raise ResourceLimitError("reference grid too large")
    axes = [sorted({p[j] for p in pts} | {0, denominator}) for j in range(s)]
    best = 0.0
    for corner in product(*axes):
        closed = sum(1 for p in pts if all(pj <= cj for pj, cj in zip(p, corner)))
        strict = sum(1 for p in pts if all(pj < cj for pj, cj in zip(p, corner)))
        vol = math.prod(c / denominator for c in corner)
        best = max(best, abs(closed / len(pts) - vol), abs(strict / len(pts) - vol))
    return best
