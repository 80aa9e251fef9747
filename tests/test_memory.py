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
from qmcforge import errors
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


def test_direct_scan_streams_over_budget(monkeypatch):
    # s = 3 holds the 67 MB matrix of N = 4093 unless the budget is below it
    monkeypatch.setattr(errors, "MEMORY_BUDGET", 32 * MiB)
    assert traced_peak(
        lambda: cbc_construct(lattice_modulus(4093), 3, product_params(3))) < 16 * MiB


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


def test_residue_shifts_refused_before_shifts(monkeypatch):
    # b = 2, m = 10, s = 3 holds 3 coordinates of 10 shifts of 2^10 int64 cells
    monkeypatch.setattr(errors, "MEMORY_BUDGET", 3 * 10 * 1024 * 8 - 1)
    rule = PolyLatticeRule(b=2, m=10, p=smallest_irreducible(2, 10),
                           q=tuple(GFPoly.from_code(2, c) for c in (1, 187, 611)))
    refused_within(lambda: dual_mu_minima(rule), 3 * 10 * 1024 * 8)
