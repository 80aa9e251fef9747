"""Memory regression tests: the streamed scans and merits hold one block of
their product space at a time.

numpy reports its buffers to tracemalloc, so the traced peak of a call
bounds the arrays it held at once.  Each budget is far below the whole
product space the call walks (noted per test)."""

import math
import tracemalloc

import numpy as np
import pytest

from conftest import lattice_modulus, poly_modulus
from qmcforge.cbc import cbc_construct
from qmcforge.discrepancy import star_disc_bound
from qmcforge.errors import ResourceLimitError
from qmcforge.gfpoly import GFPoly, smallest_irreducible
from qmcforge.korobov import LatticeRule, p_merit_closed, p_merit_series
from qmcforge.walsh import PolyLatticeRule
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
