"""R_u as a point sum over a kernel table, checked against dual-box
enumeration in tests/oracle.py.

For every subset u of a small rule, the point sum must agree with the
enumerated R_u within 1e-12 relative plus its rounding allowance, R_u plus the
allowance must not fall below the enumerated value, and the subset-sum bound
must not fall below the bound assembled from the enumerated R values.  The
kernel tables themselves are checked against long-double direct sums: the
lattice table at sizes where pocketfft runs radix, generic and Bluestein
transforms, the polynomial table entry by entry.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import dual_enumerate_lattice, dual_enumerate_poly, r_tilde
from qmcforge.discrepancy import _point_sum, star_disc_bound
from qmcforge.gfpoly import GFPoly, smallest_irreducible
from qmcforge.korobov import LatticeRule
from qmcforge.walsh import PolyLatticeRule
from qmcforge.weights import WeightSet, subsets_of

BOX_CELLS = 30_000  # oracle enumeration size per example
LARGE_N = (97, 100, 127, 243, 251, 256, 300, 509)  # Bluestein primes and composites
SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)


def oracle_r_values(s, duals, weight):
    """R_u for every u from the nonzero dual vectors of the whole rule: those
    supported inside u are exactly the duals of the projection onto u."""
    return {u: math.fsum(math.prod(weight(kj) for kj in k) for k in duals
                         if all(k[j - 1] == 0 for j in range(1, s + 1) if j not in u))
            for u in subsets_of(s)}


def check_against_oracle(rule, W, ref, scale):
    x, npts = rule.points(), rule.npoints
    table, table_err, kernel_scale = rule.r_kernel()
    assert kernel_scale == scale
    total, r_values = star_disc_bound(rule, W)
    f, hits = 1.0 + table[x], np.asarray([np.bincount(col).max() for col in x.T])
    for u, want in ref.items():
        cols = [j - 1 for j in sorted(u)]
        got, slack = _point_sum(f[:, cols], hits[cols], table_err)
        assert abs(got - want) <= 1e-12 * abs(want) + slack
        assert got + slack >= want
        assert got == r_values[u]
    oracle_bound = sum(Fraction(W.weight(u)) * (1 - (1 - Fraction(1, npts)) ** len(u)
                                                 + Fraction(scale) * Fraction(want))
                       for u, want in ref.items())
    assert Fraction(total) >= oracle_bound


weights = st.lists(st.just(0.0) | st.floats(1e-3, 2.0), min_size=4,
                   max_size=4).map(WeightSet.product)


@st.composite
def lattice_rules(draw):
    N = draw(st.integers(2, 64))
    box = 2 * (N // 2) + 1
    s = draw(st.integers(1, max(d for d in range(1, 5) if box ** d <= BOX_CELLS)))
    z = draw(st.lists(st.integers(1, N - 1), min_size=s, max_size=s))
    return LatticeRule(N=N, z=tuple(z))


@st.composite
def poly_rules(draw):
    b = draw(st.sampled_from((2, 3, 5, 7)))
    m = draw(st.integers(1, max(m for m in range(1, 5) if b ** m <= 64)))
    s = draw(st.integers(1, max(d for d in range(1, 5) if b ** (m * d) <= BOX_CELLS)))
    codes = draw(st.lists(st.integers(1, b ** m - 1), min_size=s, max_size=s))
    return PolyLatticeRule(b=b, m=m, p=smallest_irreducible(b, m),
                           q=tuple(GFPoly.from_code(b, c) for c in codes))


def lattice_matches_oracle(rule, W):
    N = rule.N
    duals = [k for k in dual_enumerate_lattice(rule, N // 2)
             if any(k) and all(-N < 2 * kj for kj in k)]  # box -N/2 < k_j <= N/2
    ref = oracle_r_values(rule.s, duals, lambda kj: 1.0 / max(1, abs(kj)))
    check_against_oracle(rule, W, ref, 0.5)


@SETTINGS
@given(lattice_rules(), weights)
def test_lattice_point_sum_matches_oracle(rule, W):
    lattice_matches_oracle(rule, W)


@pytest.mark.parametrize("N", LARGE_N)
@settings(max_examples=3, deadline=None, derandomize=True)
@given(z=st.lists(st.integers(1, 10 ** 6), min_size=2, max_size=2), W=weights)
def test_lattice_point_sum_matches_oracle_large_n(N, z, W):
    lattice_matches_oracle(LatticeRule(N=N, z=tuple(1 + v % (N - 1) for v in z)), W)


@SETTINGS
@given(poly_rules(), weights)
def test_poly_point_sum_matches_oracle(rule, W):
    duals = [k for k in dual_enumerate_poly(rule, rule.m) if any(k)]
    ref = oracle_r_values(rule.s, duals, lambda kj: r_tilde(kj, rule.b))
    check_against_oracle(rule, W, ref, 1.0)


PI = 4 * np.arctan(np.longdouble(1))


def direct_lattice_table(N):
    """g(a/N) = sum_k c_k cos(2 pi k a / N) in long double, term by term."""
    k = np.arange(1, N)
    c = np.concatenate([[0.0], 1.0 / np.minimum(k, N - k)]).astype(np.longdouble)
    cos = np.cos(2 * PI * np.arange(N, dtype=np.longdouble) / N)
    a = np.arange(N)
    return sum(c[j] * cos[(j * a) % N] for j in range(1, N))


def digit_rows(b, count):
    """Row n: the count base-b digits of n < b^count, least significant first."""
    return (np.arange(b ** count)[:, None] // b ** np.arange(count)) % b


def direct_poly_table(b, m):
    """g(a/b^m) = sum over 0 < k < b^m of r_tilde(k) Re wal_k(a/b^m) in long double,
    term by term.  Re wal_k(a/b^m) = cos(2 pi E / b), E = sum_i kappa_i xi_(i+1) over
    digit kappa_i of k (least significant first) and digit xi_(i+1) of a (most
    significant first), split as E_hi + E_lo over the high and low digits of k.  The
    terms of each run of k that shares r_tilde(k) = 1 / (b^mu sin(pi d / b)), one
    mu(k) and leading digit d, are summed before they are weighted."""
    h = m // 2
    xi, lo_digits, hi_digits = digit_rows(b, m)[:, ::-1], digit_rows(b, h).T, digit_rows(b, m - h).T
    runs = [(mu, d) for mu in range(1, m + 1) for d in range(1, b)]
    weight = np.asarray([1 / (np.longdouble(b) ** mu * np.sin(PI * d / b)) for mu, d in runs])
    cos = np.cos(2 * PI * np.arange(2 * b, dtype=np.longdouble) / b)
    step = max(1, (1 << 20) // b ** m)  # rows of a per block
    blocks = []
    for lo in range(0, b ** m, step):
        x = xi[lo:lo + step]
        E = ((x[:, h:] @ hi_digits) % b)[:, :, None] + ((x[:, :h] @ lo_digits) % b)[:, None, :]
        blocks.append(np.add.reduceat(cos[E].reshape(len(x), -1),
                                      [d * b ** (mu - 1) for mu, d in runs], axis=1) @ weight)
    return np.concatenate(blocks)


@pytest.mark.parametrize("N", [2, 3, 4, 5, 7, 31, 47, 53, 64, 97, 100, 127, 243, 251,
                               256, 509, 1000, 1021, 2039, 4093])
def test_lattice_table_within_its_error_bound(N):
    table, table_err, _ = LatticeRule(N=N, z=(1,)).r_kernel()
    err = np.linalg.norm(table.astype(np.longdouble) - direct_lattice_table(N))
    assert float(err) <= math.sqrt(N) * table_err


@pytest.mark.parametrize("b, m", [(2, 8), (3, 5), (5, 4), (7, 3), (3, 8), (5, 6), (7, 5)])
def test_poly_table_within_its_error_bound(b, m):
    rule = PolyLatticeRule(b=b, m=m, p=smallest_irreducible(b, m), q=(GFPoly.from_code(b, 1),))
    table, table_err, _ = rule.r_kernel()
    direct = direct_poly_table(b, m)
    err = np.abs(table.astype(np.longdouble) - direct)
    assert float(np.linalg.norm(err)) <= math.sqrt(b ** m) * table_err
    # each entry is the long-double value rounded once
    assert np.all(err <= 2.0 ** -53 * np.abs(table) + 1e-18)


@pytest.mark.parametrize("m", [1, 2, 8, 20])
def test_poly_table_exact_at_base_2(m):
    # g(0) = m / 2 and g(a / 2^m) = (m - mu(a) - 1) / 2 for a >= 1, as exact dyadics
    table, table_err, _ = PolyLatticeRule(b=2, m=m, p=smallest_irreducible(2, m),
                                          q=(GFPoly.from_code(2, 1),)).r_kernel()
    mu = np.frexp(np.arange(1, 2 ** m))[1]  # the bit length of a
    assert table_err == 0.0
    assert np.array_equal(table, np.concatenate([[m / 2], (m - mu - 1) / 2]))
