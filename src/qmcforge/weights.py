"""Coordinate-subset weights gamma_u and the aggregate sums used by error bounds.

A weight set assigns a nonnegative number gamma_u to every nonempty subset u
of coordinate indices {1, ..., s_max}.  Four shapes are supported:

    product   gamma_u = prod_{j in u} gamma_j
    pod       gamma_u = Gamma_{|u|} * prod_{j in u} gamma_j
    order     gamma_u = Gamma_{|u|}
    explicit  finite table of subsets; unlisted subsets weigh 0
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from itertools import combinations
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import UsageError, afford, finite_power

S_MAX_DEFAULT = 64

_BERNOULLI_NUMBERS = (1.0 / 6, -1.0 / 30, 1.0 / 42, -1.0 / 30, 5.0 / 66, -691.0 / 2730)


def zeta(x: float) -> float:
    """Riemann zeta for x > 1 by Euler-Maclaurin summation.

    Absolute error below 1e-14 for all x > 1 + 1e-3; no special-function
    dependency.
    """
    if x <= 1.0:
        raise UsageError(f"zeta({x}) diverges; need exponent > 1")
    M = 64
    total = float(np.sum(np.arange(1, M, dtype=np.float64) ** (-x)))
    total += 0.5 * M ** (-x)
    total += M ** (1.0 - x) / (x - 1.0)
    # Correction terms B_{2i}/(2i)! * x(x+1)...(x+2i-2) * M^(-x-2i+1).
    poch = x
    for i, b2i in enumerate(_BERNOULLI_NUMBERS, start=1):
        power = M ** (-x - 2 * i + 1)
        if power == 0.0:  # so are the later terms, whose poch may be inf
            break
        total += b2i / math.factorial(2 * i) * poch * power
        poch *= (x + 2 * i - 1) * (x + 2 * i)
    return total


def _as_weight_tuple(values: Iterable[float], name: str) -> tuple[float, ...]:
    out = tuple(float(v) for v in values)
    if any(v < 0 or not math.isfinite(v) for v in out):
        raise UsageError(f"{name} entries must be finite and >= 0")
    return out


@dataclass(frozen=True)
class WeightSet:
    """Immutable weight assignment gamma_u over coordinate subsets.

    Use the classmethod constructors; the raw fields depend on ``kind``.
    Coordinates are 1-based.  ``s_max`` is the largest dimension for which
    weights are defined.
    """

    kind: str
    gamma: tuple[float, ...] = ()
    Gamma: tuple[float, ...] = ()
    table: tuple[tuple[frozenset[int], float], ...] = ()
    s_max: int = S_MAX_DEFAULT

    @classmethod
    def product(cls, gammas: Sequence[float]) -> "WeightSet":
        g = _as_weight_tuple(gammas, "gamma")
        if not g:
            raise UsageError("product weights need at least one gamma_j")
        return cls(kind="product", gamma=g, s_max=len(g))

    @classmethod
    def pod(cls, Gammas: Sequence[float], gammas: Sequence[float]) -> "WeightSet":
        G = _as_weight_tuple(Gammas, "Gamma")
        g = _as_weight_tuple(gammas, "gamma")
        if not G or not g:
            raise UsageError("pod weights need Gamma_k and gamma_j sequences")
        return cls(kind="pod", gamma=g, Gamma=G, s_max=min(len(g), len(G)))

    @classmethod
    def order_dependent(cls, Gammas: Sequence[float]) -> "WeightSet":
        G = _as_weight_tuple(Gammas, "Gamma")
        if not G:
            raise UsageError("order-dependent weights need Gamma_k entries")
        return cls(kind="order", Gamma=G, s_max=len(G))

    @classmethod
    def explicit(cls, mapping: Mapping[Iterable[int], float],
                 s_max: int = S_MAX_DEFAULT) -> "WeightSet":
        entries = []
        for u, w in mapping.items():
            fs = frozenset(int(j) for j in u)
            if not fs or min(fs) < 1:
                raise UsageError("explicit weight subsets must be nonempty sets of indices >= 1")
            w = float(w)
            if w < 0 or not math.isfinite(w):
                raise UsageError("explicit weights must be finite and >= 0")
            entries.append((fs, w))
        entries.sort(key=lambda e: (len(e[0]), sorted(e[0])))
        top = max((max(fs) for fs, _ in entries), default=1)
        return cls(kind="explicit", table=tuple(entries), s_max=max(s_max, top))

    @classmethod
    def from_formula(cls, kind: str, formula: str, s_max: int = S_MAX_DEFAULT,
                     Gammas: Sequence[float] | None = None) -> "WeightSet":
        fn = parse_weight_formula(formula)
        seq = [fn(j) for j in range(1, s_max + 1)]
        if kind == "product":
            return cls.product(seq)
        if kind == "pod":
            if Gammas is None:
                raise UsageError("pod weights need a Gamma sequence")
            return cls.pod(Gammas, seq)
        raise UsageError(f"formula weights unsupported for kind {kind!r}")

    def _check_subset(self, u: Iterable[int]) -> frozenset[int]:
        fs = frozenset(int(j) for j in u)
        if not fs:
            raise UsageError("coordinate subset u must be nonempty")
        if min(fs) < 1 or max(fs) > self.s_max:
            raise UsageError(f"subset {sorted(fs)} outside 1..{self.s_max}")
        return fs

    def weight(self, u: Iterable[int]) -> float:
        """gamma_u for a nonempty subset u of {1, ..., s_max}."""
        fs = self._check_subset(u)
        if self.kind == "explicit":
            return next((w for subset, w in self.table if subset == fs), 0.0)
        G, g = _size_and_coordinate_parts(self, self.s_max)
        return G[len(fs) - 1] * math.prod(g[j - 1] for j in fs)

    def powered(self, t: float) -> "WeightSet":
        """Weight set with every gamma_u raised to the power t (t > 0)."""
        if t <= 0:
            raise UsageError("weight power must be positive")

        def power(w: float) -> float:  # not finite_power: a zero weight stays 0
            try:
                return w ** t
            except OverflowError:
                raise UsageError(f"weight {w:g} to the power {t:g} overflows float64") from None
        return replace(self, gamma=tuple(map(power, self.gamma)),
                       Gamma=tuple(map(power, self.Gamma)),
                       table=tuple((fs, power(w)) for fs, w in self.table))

    def to_jsonable(self) -> dict:
        if self.kind == "product":
            return {"kind": "product", "gamma": list(self.gamma)}
        if self.kind == "pod":
            return {"kind": "pod", "Gamma": list(self.Gamma), "gamma": list(self.gamma)}
        if self.kind == "order":
            return {"kind": "order", "Gamma": list(self.Gamma)}
        return {"kind": "explicit",
                "weights": {",".join(str(j) for j in sorted(fs)): w for fs, w in self.table},
                "s_max": self.s_max}

    @classmethod
    def from_jsonable(cls, obj: dict) -> "WeightSet":
        kind = obj.get("kind")
        if kind == "product":
            g = obj["gamma"]
            if isinstance(g, str):
                return cls.from_formula("product", g, int(obj.get("s_max", S_MAX_DEFAULT)))
            return cls.product(g)
        if kind == "pod":
            g = obj["gamma"]
            if isinstance(g, str):
                return cls.from_formula("pod", g, int(obj.get("s_max", S_MAX_DEFAULT)),
                                        Gammas=obj["Gamma"])
            return cls.pod(obj["Gamma"], g)
        if kind == "order":
            return cls.order_dependent(obj["Gamma"])
        if kind == "explicit":
            mapping = {tuple(int(t) for t in key.split(",")): w
                       for key, w in obj["weights"].items()}
            return cls.explicit(mapping, s_max=int(obj.get("s_max", S_MAX_DEFAULT)))
        raise UsageError(f"unknown weight kind {kind!r}")


_FORMULA_RE = re.compile(
    r"^\s*(?:(?P<c>[-+]?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?)\s*\*\s*)?"
    r"j\s*\^\s*(?P<e>[-+]?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?)\s*$"
)


def parse_weight_formula(text: str) -> Callable[[int], float]:
    """Parse 'j^c' or 'c*j^e' into the map j -> c * j**e."""
    m = _FORMULA_RE.match(text)
    if not m:
        raise UsageError(f"weight formula {text!r} not of the form j^c or c*j^e")
    c = float(m.group("c")) if m.group("c") else 1.0
    e = float(m.group("e"))
    return lambda j: c * float(j) ** e


@dataclass(frozen=True)
class SpaceParams:
    """Smoothness alpha > 1/2 together with a weight set."""

    alpha: float
    weights: WeightSet

    def __post_init__(self):
        if not self.alpha > 0.5:
            raise UsageError(f"alpha must exceed 1/2, got {self.alpha}")
        if not math.isfinite(self.alpha):
            raise UsageError(f"alpha must be finite, got {self.alpha}")


def subsets_of(s: int) -> Iterable[frozenset[int]]:
    """All nonempty subsets of {1, ..., s} (2^s - 1 of them)."""
    for k in range(1, s + 1):
        for combo in combinations(range(1, s + 1), k):
            yield frozenset(combo)


def check_monotone(W: WeightSet, s: int) -> bool:
    """True iff gamma_v >= gamma_u whenever v is a nonempty proper subset of u.

    Checked through single-element removals (gamma_{u\\{j}} >= gamma_u), which
    implies the full condition by transitivity.  For gamma_u = Gamma_|u|
    prod_{j in u} g_j a removal from |u| = k reads Gamma_(k-1) >= Gamma_k g_j,
    needed wherever k - 1 coordinates other than j have g_i > 0.  Explicit
    tables only need their own entries checked because unlisted subsets weigh 0.
    """
    if not 1 <= s <= W.s_max:
        raise UsageError(f"dimension s={s} outside 1..{W.s_max}")
    if W.kind != "explicit":
        G, g = _size_and_coordinate_parts(W, s)
        positives = sum(1 for x in g if x > 0.0)
        return all(G[k - 2] >= G[k - 1] * g[j] for k in range(2, s + 1) for j in range(s)
                   if positives - (g[j] > 0.0) >= k - 1)
    # explicit: removals from unlisted subsets (gamma_u = 0) hold trivially
    return all(W.weight(fs - {j}) >= w for fs, w in W.table
               if len(fs) >= 2 and max(fs) <= s and w != 0.0 for j in fs)


def weighted_power_sum(W: WeightSet, s: int, lam: float, factor: float) -> float:
    """Sum over nonempty u of gamma_u^lam * factor^|u|."""
    return ratio_size_sum(W, W, 1.0 - lam, [factor ** k for k in range(s + 1)], s)[0]


def weighted_zeta_sum(W: WeightSet, s: int, lam: float, alpha: float) -> float:
    """Sum over nonempty u of gamma_u^lam * (2 zeta(2 alpha lam))^|u|."""
    if lam > 1.0 or 2.0 * alpha * lam <= 1.0:
        raise UsageError(f"need 1/(2 alpha) < lambda <= 1, got lambda={lam}, alpha={alpha}")
    if not math.isfinite(2.0 * alpha * lam):
        raise UsageError(f"2 alpha lambda overflows float64 at alpha={alpha:g}, lambda={lam:g}")
    return weighted_power_sum(W, s, lam, 2.0 * zeta(2.0 * alpha * lam))


def _elementary_symmetric(terms: Iterable, n: int, shape: tuple = ()) -> np.ndarray:
    """e_0..e_n of the n terms (scalars, or arrays of the given shape), by the
    recurrence e_k += t e_(k-1) over the terms t in turn; an e_k past float64 is inf."""
    e = np.zeros((n + 1,) + shape)
    e[0] = 1.0
    with np.errstate(over="ignore"):
        for j, t in enumerate(terms):
            for k in range(j + 1, 0, -1):
                e[k] += t * e[k - 1]
    return e


def _size_and_coordinate_parts(W: WeightSet, s: int) -> tuple[Sequence[float], Sequence[float]]:
    """(Gamma_1..Gamma_s, gamma_1..gamma_s) with gamma_u = Gamma_|u| prod_{j in u} gamma_j."""
    ones = (1.0,) * s
    return (ones if W.kind == "product" else W.Gamma[:s],
            ones if W.kind == "order" else W.gamma[:s])


def subset_product_sum(W: WeightSet, factors: np.ndarray) -> np.ndarray:
    """Per-row sums S(n) = sum over nonempty u of gamma_u * prod_{j in u} factors[n, j-1].

    ``factors`` has shape (npoints, s).  This is the inner kernel of the
    computable merit forms; rows are independent.
    """
    factors = np.asarray(factors, dtype=np.float64)
    npoints, s = factors.shape
    if not 1 <= s <= W.s_max:
        raise UsageError(f"dimension s={s} outside 1..{W.s_max}")
    if W.kind == "product":
        g = np.asarray(W.gamma[:s])
        return np.prod(1.0 + g[None, :] * factors, axis=1) - 1.0
    if W.kind in ("pod", "order"):
        G, g = _size_and_coordinate_parts(W, s)
        e = _elementary_symmetric((g[j] * factors[:, j] for j in range(s)), s, (npoints,))
        return np.asarray(G) @ e[1:]
    out = np.zeros(npoints)
    for fs, w in W.table:
        if w == 0.0 or max(fs) > s:
            continue
        cols = [j - 1 for j in sorted(fs)]
        out += w * np.prod(factors[:, cols], axis=1)
    return out


def ratio_size_sum(W: WeightSet, Wprime: WeightSet, ratio_exp: float,
                   size_factors: Sequence[float], s: int) -> tuple[float, bool]:
    """Sum over nonempty u of (gamma'_u / gamma_u^ratio_exp) * size_factors[|u|].

    Returns (value, vacuous); vacuous is True when some gamma_u = 0 while
    gamma'_u > 0, in which case the value is +inf.  The 0/0 case counts as 0.

    With gamma_u = Gamma_|u| prod_{j in u} g_j for both sets, it is O(s^2):
    sum_k c_k Gamma'_k / Gamma_k^r e_k(x), x_j = g'_j / g_j^r over P' = {j :
    g'_j > 0}, r = ratio_exp, c = size_factors.  An explicit gamma' is summed
    over its table, an explicit gamma with structured gamma' over all subsets.
    """
    if not 1 <= s <= min(W.s_max, Wprime.s_max):
        raise UsageError(f"dimension s={s} outside 1..{min(W.s_max, Wprime.s_max)}")
    if Wprime.kind != "explicit" and W.kind != "explicit":
        Gp, gp = _size_and_coordinate_parts(Wprime, s)
        G, g = _size_and_coordinate_parts(W, s)
        support = [j for j in range(s) if gp[j] > 0.0]
        sizes = [k for k in range(1, len(support) + 1) if Gp[k - 1] > 0.0]
        if not sizes:
            return 0.0, False
        if any(G[k - 1] == 0.0 for k in sizes) or any(g[j] == 0.0 for j in support):
            return math.inf, True
        e = _elementary_symmetric((gp[j] / finite_power(g[j], ratio_exp, "weight gamma_j")
                                   for j in support), len(support))
        return sum(size_factors[k] * Gp[k - 1] / finite_power(G[k - 1], ratio_exp, "weight Gamma_k")
                   * float(e[k]) for k in sizes), False
    if Wprime.kind == "explicit":
        pairs = ((fs, wp) for fs, wp in Wprime.table if max(fs) <= s)
    else:
        afford(2 ** s, 4700, f"ratio sum over the 2^{s} - 1 subsets")  # a unit per subset
        pairs = ((u, Wprime.weight(u)) for u in subsets_of(s))
    # an explicit gamma by hash lookup, not one scan of its table per u
    weight = W.weight if W.kind != "explicit" else (lambda u, t=dict(W.table): t.get(u, 0.0))
    total = 0.0
    vacuous = False
    for u, wp in pairs:
        if wp == 0.0:
            continue
        w = weight(u)
        if w == 0.0:
            vacuous = True
            continue
        total += wp / finite_power(w, ratio_exp, "weight gamma_u") * size_factors[len(u)]
    return (math.inf if vacuous else total), vacuous
