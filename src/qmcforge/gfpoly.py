"""Polynomials over Z_b (b prime) as validated coefficient records, and the
irreducibility test for moduli.

Coefficients are stored lowest degree first, reduced mod b, with no trailing
zeros; the zero polynomial has degree -inf.  Points, CBC rows and Walsh kernels
run on integer digit codes and walsh forms the residues x^e q_j mod p itself,
so the one polynomial computation here is the trial division of gf_is_irreducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import UsageError, afford, as_int

SUPPORTED_BASES = (2, 3, 5, 7)


def _normalize(base: int, coeffs) -> tuple[int, ...]:
    out = [as_int(c, "polynomial coefficient") % base for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


@dataclass(frozen=True)
class GFPoly:
    """Polynomial over Z_b, coefficients lowest degree first."""

    base: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        base = as_int(self.base, "base b")
        if base not in SUPPORTED_BASES:
            raise UsageError(f"base must be a prime in {SUPPORTED_BASES}, got {base}")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "coeffs", _normalize(self.base, self.coeffs))

    @classmethod
    def zero(cls, base: int) -> "GFPoly":
        return cls(base, ())

    @classmethod
    def one(cls, base: int) -> "GFPoly":
        return cls(base, (1,))

    @classmethod
    def from_code(cls, base: int, code: int) -> "GFPoly":
        """Decode the integer sum(c_i * b^i) back into a polynomial."""
        if code < 0:
            raise UsageError("polynomial code must be >= 0")
        digits = []
        while code:
            code, d = divmod(code, base)
            digits.append(d)
        return cls(base, tuple(digits))

    def code(self) -> int:
        """Integer encoding sum(c_i * b^i); orders G_m for tie-breaking."""
        return sum(c * self.base ** i for i, c in enumerate(self.coeffs))

    @property
    def degree(self) -> float:
        return len(self.coeffs) - 1 if self.coeffs else -math.inf

    def is_zero(self) -> bool:
        return not self.coeffs


def gf_is_irreducible(p: GFPoly) -> bool:
    """Trial division by every monic polynomial of degree 1..deg(p)/2."""
    d = p.degree
    if d < 1:
        raise UsageError("irreducibility is defined for degree >= 1")
    d = int(d)
    b = p.base
    half = d // 2
    # units: d + 12 per trial division by each of the b + b^2 + ... + b^half candidates
    afford((b ** (half + 1) - b) // (b - 1) * (d + 12), 766,
           f"irreducibility test of degree {d} over Z_{b}")
    for deg in range(1, half + 1):
        for low in range(b ** deg):
            monic = GFPoly.from_code(b, low + b ** deg).coeffs
            if _divides(monic, p.coeffs, b):
                return False
    return True


def _divides(d: tuple[int, ...], a: tuple[int, ...], b: int) -> bool:
    """Whether the monic d divides a over Z_b, by long division: each step
    clears the remainder's coefficient c of degree top by subtracting c x^(top - deg d) d."""
    rem, dd = list(a), len(d) - 1
    for top in range(len(rem) - 1, dd - 1, -1):
        c = rem[top]
        if c:
            for i, di in enumerate(d, top - dd):
                rem[i] = (rem[i] - c * di) % b
    return not any(rem)


def smallest_irreducible(b: int, m: int) -> GFPoly:
    """Monic irreducible of degree m with the smallest integer encoding."""
    if m < 1:
        raise UsageError("degree must be >= 1")
    for low in range(b ** m):
        candidate = GFPoly.from_code(b, low + b ** m)
        if gf_is_irreducible(candidate):
            return candidate
    raise RuntimeError("no irreducible found; unreachable for prime b")
