"""Memory regression tests: the streamed scans and merits hold one block of
their product space at a time, and a table over errors.MEMORY_BUDGET is
refused before it is allocated.

numpy reports its buffers to tracemalloc, so the traced peak of a call
bounds the arrays it held at once.  Each bound is far below the whole
product space the call walks (noted per test)."""

import math
import tracemalloc

import numpy as np
import pytest

from conftest import lattice_modulus, poly_modulus
from qmcforge import errors, walsh
from qmcforge.cbc import cbc_construct
from qmcforge.discrepancy import star_disc_bound
from qmcforge.errors import ResourceLimitError
from qmcforge.gfpoly import GFPoly, smallest_irreducible
from qmcforge.korobov import LatticeRule, dual_product_minima, p_merit_closed, p_merit_series
from qmcforge.walsh import PolyLatticeRule, dual_mu_minima
from qmcforge.weights import SpaceParams, WeightSet

MiB = 1 << 20


def traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def product_params(s, alpha=1.0):
    return SpaceParams(alpha=alpha, weights=WeightSet.product([j ** -2.0 for j in range(1, s + 1)]))


def test_direct_scan_at_s2():
    # the 2046 x 4093 candidate matrix alone is 67 MB
    assert traced_peak(
        lambda: cbc_construct(lattice_modulus(4093), 2, product_params(2))) < 16 * MiB


def test_order_dependent_state_sized_by_s():
    # 513 e_k rows of the 65521 points, one per Gamma_k defined, are 257 MiB
    params = SpaceParams(alpha=1, weights=WeightSet.order_dependent([1.0] * 512))
    rule = LatticeRule(N=65521, z=(1,))
    assert traced_peak(lambda: cbc_construct(rule, 2, params, fast=True)) < 16 * MiB
    assert cbc_construct(rule, 2, params, fast=True)[0].z == (1, 18303)


def test_closed_merit_pod():
    # the (N, s) point and kernel arrays are 17 MB each, the POD sums 17 MB more
    rng = np.random.default_rng(5)
    rule = LatticeRule(N=65521, z=tuple(int(v) for v in rng.integers(1, 65521, size=32)))
    W = WeightSet.pod([math.factorial(k) for k in range(1, 33)],
                      [j ** -2.0 for j in range(1, 33)])
    assert traced_peak(lambda: p_merit_closed(rule, SpaceParams(alpha=1, weights=W))) < 16 * MiB


def test_series_box():
    # the (2K+1)^3 box is 16.6 million cells
    rule = LatticeRule(N=127, z=(1, 47, 19))
    params = SpaceParams(alpha=1.5, weights=WeightSet.product([1.0, 0.5, 0.25]))
    assert traced_peak(lambda: p_merit_series(rule, params, 127)) < 16 * MiB


def test_poly_scan_at_s2():
    # the b^(2m) point table of b = 2, m = 12 is 134 MB
    assert traced_peak(lambda: cbc_construct(poly_modulus(2, 12), 2, product_params(2))) < 32 * MiB


def test_poly_closed_merit():
    # the (b^m, s) point array at b = 2, m = 18, s = 32 is 67 MB
    rng = np.random.default_rng(7)
    q = tuple(GFPoly.from_code(2, int(c)) for c in rng.integers(1, 2 ** 18, size=32))
    rule = PolyLatticeRule(b=2, m=18, p=smallest_irreducible(2, 18), q=q)
    assert traced_peak(lambda: p_merit_closed(rule, product_params(32))) < 32 * MiB


def test_poly_points_in_blocks():
    # b = 2, m = 18: blocks of 2^18 // 18 = 14563 points; the 18 x 2^18 digit matrix
    # alone is 36 MiB in int64 and 36 MiB more in float64
    rule = PolyLatticeRule(b=2, m=18, p=smallest_irreducible(2, 18),
                           q=(GFPoly.from_code(2, 91713), GFPoly.from_code(2, 5)))
    points = rule.points()
    for lo, hi in [(0, 1), (100, 14563), (14000, 14563 * 2 + 7), (14563, 14564),
                   (150001, 2 ** 18), (2 ** 18 - 1, 2 ** 18)]:
        assert np.array_equal(rule.points(lo, hi), points[lo:hi])
    assert traced_peak(rule.points) < 24 * MiB


def test_discrepancy_refused_before_points():
    # the (N, s) point array of N = 65521, s = 21 is 11 MB; the subset cap refuses first
    rule = LatticeRule(N=65521, z=tuple(range(1, 22)))
    W = WeightSet.product([j ** -2.0 for j in range(1, 22)])

    def refused():
        with pytest.raises(ResourceLimitError):
            star_disc_bound(rule, W)
    assert traced_peak(refused) < MiB


def weights_of(kind, s):
    gammas = [j ** -2.0 for j in range(1, s + 1)]
    if kind == "pod":
        return WeightSet.pod([float(math.factorial(k)) for k in range(1, s + 1)], gammas)
    if kind == "order":
        return WeightSet.order_dependent([0.5 ** k for k in range(1, s + 1)])
    return WeightSet.product(gammas)


@pytest.mark.parametrize("modulus, s, kind", [
    (lattice_modulus(4093), 16, "product"),
    (lattice_modulus(2039), 16, "pod"),
    (lattice_modulus(4096), 8, "product"),
    (lattice_modulus(1000), 8, "order"),
    (poly_modulus(2, 8), 8, "product"),
    (poly_modulus(3, 5), 8, "product"),
], ids=["lattice-4093", "lattice-2039-pod", "lattice-4096", "lattice-1000-order", "poly-2-8",
        "poly-3-5"])
def test_streamed_scan_matches_held(monkeypatch, modulus, s, kind):
    # under a 64 KiB budget no candidate matrix is held: each scan remakes its
    # row blocks, and the trace is the held scan's, bitwise
    params = SpaceParams(alpha=1.0, weights=weights_of(kind, s))
    held = cbc_construct(modulus, s, params)
    monkeypatch.setattr(errors, "MEMORY_BUDGET", 1 << 16)
    assert cbc_construct(modulus, s, params) == held


@pytest.mark.parametrize("budget", [1 << 30, 1 << 16], ids=["held", "streamed"])
@pytest.mark.parametrize("N", [1021, 1001, 1024, 3, 2])
def test_direct_scan_rows_match_full_construction(monkeypatch, budget, N):
    # rows made at the points n <= N/2, with each column of I folded onto them,
    # equal omega((c n) mod N) over every n, bitwise: scan(I) returns F exactly
    monkeypatch.setattr(errors, "MEMORY_BUDGET", budget)
    rule = lattice_modulus(N)
    _, scan, candidates = rule.cbc_scan(3, product_params(3))
    full = rule.merit_kernel(1.0)[(candidates[:, None] * np.arange(N)) % N]
    assert scan(np.eye(N)).tobytes() == full.tobytes()


def test_direct_scan_streams_over_budget(monkeypatch):
    # s = 3 holds the 32 MiB half-width matrix of N = 4093 unless the budget is below it
    monkeypatch.setattr(errors, "MEMORY_BUDGET", 16 * MiB)
    assert traced_peak(
        lambda: cbc_construct(lattice_modulus(4093), 3, product_params(3))) < 16 * MiB


def test_direct_scan_holds_half_width():
    # s = 3 holds the 2046 x 2047 matrix over the points n <= N/2 (32 MiB), not the
    # 2046 x 4093 one (64 MiB)
    assert traced_peak(
        lambda: cbc_construct(lattice_modulus(4093), 3, product_params(3))) < 40 * MiB


@pytest.mark.parametrize("N", [5, 4093, 65521])
def test_fast_scan_matches_out_of_place_fft(N):
    # the in-place scan gives the out-of-place FFT correlation's bytes, on which
    # the fast-scan choices depend
    rule = lattice_modulus(N)
    _, scan, exps = rule.cbc_scan(3, product_params(3), fast=True)
    table, h = rule.merit_kernel(1.0), np.random.default_rng(N).random(N)
    fft_w = np.fft.fft(table[exps])
    expected = np.real(np.fft.ifft(np.conj(np.fft.fft(h[exps])) * fft_w)) + h[0] * table[0]
    assert scan(h).tobytes() == expected.tobytes()


def refused_within(fn, requested):
    def refused():
        with pytest.raises(ResourceLimitError,
                           match=f"needs {requested} bytes, budget {errors.MEMORY_BUDGET} bytes"):
            fn()
    assert traced_peak(refused) < MiB


def test_series_box_refused_before_box():
    # the (2K+1)^3 box of K = 359 is 371 million cells, 40 bytes each
    rule = LatticeRule(N=359, z=(1, 105, 82, 17))
    params = SpaceParams(alpha=1.5, weights=WeightSet.product([j ** -2.0 for j in range(1, 5)]))
    refused_within(lambda: p_merit_series(rule, params), 719 ** 3 * 40)


def test_head_table_refused_before_table(monkeypatch):
    # phi_u of u = {1, 2, 3} walks heads of up to 238 cells, 68 bytes each
    monkeypatch.setattr(errors, "MEMORY_BUDGET", 68 * 200)
    rule = LatticeRule(N=1021, z=(1, 433, 229))
    refused_within(lambda: dual_product_minima(rule), r"\d+")


def shift_rule(b, m, codes=(1, 187, 611)):
    return poly_modulus(b, m).with_codes(list(codes))


@pytest.mark.parametrize("b, m, codes", [(2, 10, (1, 187, 611)), (3, 5, (1, 100, 200))],
                         ids=["2-10", "3-5"])
def test_rebuilt_shifts_match_held(monkeypatch, b, m, codes):
    # under a budget below the s m b^m int64 shifts, each of the 7 subset extensions
    # rebuilds its coordinate's m shifts where the held walk builds 3 m; phi_u is
    # the held shifts', for every subset
    rule, builds, build = shift_rule(b, m, codes), [], walsh._residue_shift
    monkeypatch.setattr(walsh, "_residue_shift", lambda *a: builds.append(a) or build(*a))
    held = dual_mu_minima(rule)
    assert len(builds) == 3 * m
    monkeypatch.setattr(errors, "MEMORY_BUDGET", 3 * m * b ** m * 8 - 1)
    assert dual_mu_minima(rule) == held
    assert len(builds) == 3 * m + 7 * m


def never_built(*args):
    raise AssertionError("a residue shift was built before the memory budget was checked")


def test_residue_shifts_refused_before_shifts(monkeypatch):
    # b = 2, m = 10: shifts that do not all fit are rebuilt one at a time, so only
    # a budget below one shift of 2^10 int64 cells refuses, before any is built
    monkeypatch.setattr(errors, "MEMORY_BUDGET", 1024 * 8 - 1)
    monkeypatch.setattr(walsh, "_residue_shift", never_built)
    refused_within(lambda: dual_mu_minima(shift_rule(2, 10)), 1024 * 8)


@pytest.mark.parametrize("merit, requested", [
    (lambda: p_merit_closed(LatticeRule(N=2000003, z=(1,)), product_params(1)), 2000003 * 8),
    (lambda: cbc_construct(lattice_modulus(1000003), 2, product_params(2), fast=True),
     1000003 * 88),
    (lambda: p_merit_closed(poly_modulus(2, 20), product_params(1)), 2 ** 20 * 8),
], ids=["lattice-closed", "lattice-fast-cbc", "poly-closed"])
def test_kernel_table_refused_before_table(monkeypatch, merit, requested):
    # the kernel table of the closed form holds 8 bytes a point; the fast CBC scan
    # counts its 88 bytes a point at product weights, the table's 8 included
    monkeypatch.setattr(errors, "MEMORY_BUDGET", MiB)
    refused_within(merit, requested)


@pytest.mark.parametrize("kind, s, per_point", [("product", 2, 88), ("pod", 8, 152)])
def test_fast_scan_refused_before_table(monkeypatch, kind, s, per_point):
    # 16 MiB fits the 8 MB kernel table of N = 1000003 but not the fast scan: 72 bytes a
    # point, and 8 for each merit-state row (2 at product weights, s + 2 otherwise)
    monkeypatch.setattr(errors, "MEMORY_BUDGET", 16 * MiB)
    params = SpaceParams(alpha=1.0, weights=weights_of(kind, s))
    refused_within(lambda: cbc_construct(lattice_modulus(1000003), s, params, fast=True),
                   1000003 * per_point)


def test_fast_scan_within_default_budget():
    # the fast scan of N = 1000003 at product weights holds 88 MB, within the 1 GiB budget
    rule, _ = cbc_construct(lattice_modulus(1000003), 2, product_params(2), fast=True)
    assert rule.z == (1, 580135)


def test_series_k_axis_refused_before_axis(monkeypatch):
    # at s = 1 the box is one cell, but the k axis of K = 2 10^6 is 4 million cells,
    # 57 bytes each
    monkeypatch.setattr(errors, "MEMORY_BUDGET", MiB)
    rule = LatticeRule(N=127, z=(1,))
    params = SpaceParams(alpha=1.5, weights=WeightSet.product([1.0]))
    refused_within(lambda: p_merit_series(rule, params, 2000000), 4000001 * 57)
