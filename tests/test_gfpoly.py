import pytest

from oracle import _poly_digits_mul, reference_laurent_digits
from qmcforge.errors import UsageError
from qmcforge.gfpoly import GFPoly, gf_is_irreducible, smallest_irreducible
from qmcforge.walsh import PolyLatticeRule


def poly(base, *coeffs):
    return GFPoly(base, tuple(coeffs))


class TestArithmetic:
    def test_integer_coefficients_only(self):
        import numpy as np

        assert poly(3, np.int64(4), 2).coeffs == (1, 2)
        with pytest.raises(UsageError):
            poly(2, 1, 1.5)  # refused, not truncated to x + 1

    @pytest.mark.parametrize("base", [2.0, "2"])
    def test_integer_base_only(self, base):
        with pytest.raises(UsageError):
            GFPoly(base, (1, 3))  # not float or string coefficients mod 2.0

    def test_normalization_strips_leading_zeros(self):
        assert poly(2, 1, 1, 0, 0).coeffs == (1, 1)
        assert poly(2).degree == float("-inf")


class TestIrreducibility:
    def test_known_irreducible(self):
        assert gf_is_irreducible(poly(2, 1, 1, 1))          # x^2+x+1
        assert gf_is_irreducible(poly(2, 1, 1, 0, 1))       # x^3+x+1

    def test_square_is_reducible(self):
        assert not gf_is_irreducible(poly(2, 0, 0, 1))      # x^2

    def test_degree_one_always(self):
        for b in (2, 3, 5):
            for c in range(b):
                assert gf_is_irreducible(poly(b, c, 1))

    def test_matches_brute_force_factor_scan(self):
        # monics of degree 4 over GF(2) and GF(3): reducible iff some product of
        # lower-degree monics, multiplied on the oracle's digit lists, reproduces it
        for b in (2, 3):
            monics = {d: [list(GFPoly.from_code(b, low + b ** d).coeffs) for low in range(b ** d)]
                      for d in range(1, 4)}
            products = {tuple(_poly_digits_mul(f1, f2, b))
                        for d1 in (1, 2) for f1 in monics[d1] for f2 in monics[4 - d1]}
            for code in range(b ** 4, 2 * b ** 4):
                p = GFPoly.from_code(b, code)
                assert gf_is_irreducible(p) == (p.coeffs not in products)

    def test_smallest_irreducible_values(self):
        assert smallest_irreducible(2, 3).coeffs == (1, 1, 0, 1)       # x^3+x+1
        assert smallest_irreducible(2, 5).coeffs == (1, 0, 1, 0, 0, 1)  # x^5+x^2+1
        assert smallest_irreducible(2, 1).coeffs == (0, 1)             # x


class TestDigitExpansion:
    def test_example_x_over_trinomial(self):
        assert reference_laurent_digits(poly(2, 0, 1), poly(2, 1, 1, 1), 2) == (1, 1)

    def test_zero_numerator(self):
        assert reference_laurent_digits(GFPoly.zero(2), poly(2, 1, 1, 1), 2) == (0, 0)

    def test_power_modulus_shift(self):
        # 1 / x^2 = x^(-2): digits (0, 1)
        assert reference_laurent_digits(GFPoly.one(2), poly(2, 0, 0, 1), 2) == (0, 1)

    def test_degree_mismatch(self):
        with pytest.raises(UsageError):
            PolyLatticeRule(b=2, m=3, p=poly(2, 1, 1, 1), q=(GFPoly.one(2),))

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_exhaustive_against_reference_division(self, m):
        # row n = 1 of the shipped point set holds the digits of q_j / p for
        # every nonzero q_j of degree < m, reducible moduli included
        b = 2
        numers = [GFPoly.from_code(b, code) for code in range(1, b ** m)]
        for pcode in range(b ** m, 2 * b ** m):
            p = GFPoly.from_code(b, pcode)
            got = PolyLatticeRule(b=b, m=m, p=p, q=tuple(numers)).points()[1]
            for numer, numerator in zip(numers, got.tolist()):
                ref = reference_laurent_digits(numer, p, m)
                assert numerator == sum(t * b ** (m - i) for i, t in enumerate(ref, 1))

    def test_reference_division_period(self):
        p = poly(2, 1, 1, 1)
        assert reference_laurent_digits(poly(2, 0, 1), p, 6) == (1, 1, 0, 1, 1, 0)
        assert reference_laurent_digits(GFPoly.zero(2), p, 5) == (0,) * 5
        assert reference_laurent_digits(GFPoly.one(2), poly(2, 0, 0, 1), 4) == (0, 1, 0, 0)


def tr_m(k, m, b):
    """The polynomial of the low m base-b digits of k."""
    return GFPoly.from_code(b, k % b ** m)


class TestTruncation:
    def test_zero(self):
        assert tr_m(0, 4, 2).is_zero()

    def test_digit_transcription(self):
        assert tr_m(6, 3, 2).coeffs == (0, 1, 1)  # 6 = 110 in base 2

    def test_truncates_high_digits(self):
        assert tr_m(5, 2, 2).coeffs == (1,)  # 101 -> keep low two digits

    @pytest.mark.parametrize("b,m", [(2, 4), (3, 3)])
    def test_bijection_on_g_m(self, b, m):
        seen = {tr_m(k, m, b).coeffs for k in range(b ** m)}
        assert len(seen) == b ** m
