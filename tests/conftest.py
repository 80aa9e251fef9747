import math

import numpy as np
import pytest

from qmcforge.weights import WeightSet


@pytest.fixture
def unit_weights():
    """gamma_u = 1 for every subset up to dimension 8 (order-dependent form)."""
    return WeightSet.order_dependent([1.0] * 8)


@pytest.fixture
def decaying_product():
    return WeightSet.product([j ** -2.0 for j in range(1, 17)])


def brute_force_monotone(W: WeightSet, s: int) -> bool:
    """Full pairwise check of gamma_v >= gamma_u over all v strictly inside u."""
    from itertools import combinations

    subsets = []
    for k in range(1, s + 1):
        subsets.extend(frozenset(c) for c in combinations(range(1, s + 1), k))
    for u in subsets:
        for v in subsets:
            if v < u and W.weight(v) < W.weight(u):
                return False
    return True


def rosser_schoenfeld_holds(N: int) -> bool:
    """Totient growth check for N >= 3:
    1/phi(N) < (1/N) (e^gamma log log N + 2.50637 / log log N)."""
    from qmcforge.korobov import euler_totient

    ll = math.log(math.log(N))
    rhs = (math.exp(0.5772156649015329) * ll + 2.50637 / ll) / N
    return 1.0 / euler_totient(N) < rhs


def totient_sieve(limit: int) -> np.ndarray:
    """phi(n) for n = 0..limit via a sieve (phi[0] = 0 by convention)."""
    phi = np.arange(limit + 1, dtype=np.int64)
    phi[0] = 0
    for p in range(2, limit + 1):
        if phi[p] == p:  # p prime
            phi[p::p] -= phi[p::p] // p
    return phi


def random_lattice_rules(N: int, s: int, count: int, seed: int):
    """Fixed-seed random generating vectors for stability grids."""
    from qmcforge.korobov import LatticeRule

    rng = np.random.default_rng(seed)
    return [LatticeRule(N=N, z=tuple(int(v) for v in rng.integers(1, N, size=s)))
            for _ in range(count)]


def random_poly_rules(b: int, m: int, s: int, count: int, seed: int):
    from qmcforge.gfpoly import GFPoly, smallest_irreducible
    from qmcforge.walsh import PolyLatticeRule

    p = smallest_irreducible(b, m)
    rng = np.random.default_rng(seed)
    return [PolyLatticeRule(b=b, m=m, p=p,
                            q=tuple(GFPoly.from_code(b, int(c))
                                    for c in rng.integers(1, b ** m, size=s)))
            for _ in range(count)]


def lattice_modulus(N: int):
    """The one-component lattice rule z = (1,) that carries the modulus N: the
    start of a CBC search."""
    from qmcforge.korobov import LatticeRule

    return LatticeRule(N=N, z=(1,))


def poly_modulus(b: int, m: int, p=None):
    """The one-component polynomial lattice rule q = (1,) that carries the
    modulus p (default the smallest irreducible of degree m)."""
    from qmcforge.gfpoly import GFPoly, smallest_irreducible
    from qmcforge.walsh import PolyLatticeRule

    return PolyLatticeRule(b=b, m=m, p=p or smallest_irreducible(b, m), q=(GFPoly(b, (1,)),))


def with_phi0(minima):
    """{u: (phi_u, phi_{u,0})} from dual minima {u: phi_u}: phi_{u,0} allows zero
    components, so it is the least phi_v over nonempty v contained in u."""
    return {u: (phi, min(phi_v for v, phi_v in minima.items() if v <= u))
            for u, phi in minima.items()}
