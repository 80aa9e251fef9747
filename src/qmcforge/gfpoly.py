"""Exact polynomial arithmetic over Z_b (b prime).

Coefficients are stored lowest degree first, reduced mod b, with no trailing
zeros; the zero polynomial has degree -inf.
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

    def _same_base(self, other: "GFPoly") -> None:
        if self.base != other.base:
            raise UsageError(f"base mismatch: {self.base} vs {other.base}")

    def __add__(self, other: "GFPoly") -> "GFPoly":
        self._same_base(other)
        n = max(len(self.coeffs), len(other.coeffs))
        a = self.coeffs + (0,) * (n - len(self.coeffs))
        b = other.coeffs + (0,) * (n - len(other.coeffs))
        return GFPoly(self.base, tuple((x + y) % self.base for x, y in zip(a, b)))

    def __neg__(self) -> "GFPoly":
        return GFPoly(self.base, tuple(-c % self.base for c in self.coeffs))

    def __sub__(self, other: "GFPoly") -> "GFPoly":
        return self + (-other)

    def __mul__(self, other: "GFPoly") -> "GFPoly":
        self._same_base(other)
        if self.is_zero() or other.is_zero():
            return GFPoly.zero(self.base)
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] = (out[i + j] + a * b) % self.base
        return GFPoly(self.base, tuple(out))

    def divmod(self, divisor: "GFPoly") -> tuple["GFPoly", "GFPoly"]:
        self._same_base(divisor)
        if divisor.is_zero():
            raise UsageError("division by the zero polynomial")
        b = self.base
        rem = list(self.coeffs)
        dcoeffs = divisor.coeffs
        dd = len(dcoeffs) - 1
        inv_lead = pow(dcoeffs[-1], -1, b)
        quot = [0] * max(len(rem) - dd, 0)
        for i in range(len(rem) - dd - 1, -1, -1):
            factor = (rem[i + dd] * inv_lead) % b
            if factor:
                quot[i] = factor
                for j, c in enumerate(dcoeffs):
                    rem[i + j] = (rem[i + j] - factor * c) % b
        return GFPoly(b, tuple(quot)), GFPoly(b, tuple(rem[:dd]))

    def __mod__(self, divisor: "GFPoly") -> "GFPoly":
        return self.divmod(divisor)[1]

    def __repr__(self) -> str:
        if self.is_zero():
            return f"GFPoly({self.base}, 0)"
        terms = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                lead = "" if c == 1 else str(c)
                terms.append(f"{lead}x^{i}" if i > 1 else f"{lead}x")
        return f"GFPoly({self.base}, {' + '.join(terms)})"


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
            candidate = GFPoly.from_code(b, low + b ** deg)  # monic of this degree
            if (p % candidate).is_zero():
                return False
    return True


def smallest_irreducible(b: int, m: int) -> GFPoly:
    """Monic irreducible of degree m with the smallest integer encoding."""
    if m < 1:
        raise UsageError("degree must be >= 1")
    for low in range(b ** m):
        candidate = GFPoly.from_code(b, low + b ** m)
        if gf_is_irreducible(candidate):
            return candidate
    raise RuntimeError("no irreducible found; unreachable for prime b")
