import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import with_phi0
from oracle import char_sum_lattice, dual_enumerate_lattice
from qmcforge import korobov
from qmcforge.errors import ResourceLimitError, UsageError
from qmcforge.korobov import (LatticeRule, dual_product_minima, omega_factor, omega_table,
                              p_merit_closed, p_merit_series)
from qmcforge.weights import SpaceParams, WeightSet, subsets_of


def unit_params(s, alpha=1.0):
    return SpaceParams(alpha=alpha, weights=WeightSet.order_dependent([1.0] * s))


PRIMES = [n for n in range(2, 201) if all(n % d for d in range(2, math.isqrt(n) + 1))]


@st.composite
def lattice_rules(draw, s, n_max, prime):
    """A rule with prime or composite N <= n_max; each z_j is a multiple of a
    drawn divisor of N, so composite N often shares a factor with z_j."""
    N = draw(st.sampled_from([n for n in range(2, n_max + 1) if (n in PRIMES) == prime]))
    z = []
    for _ in range(s):
        f = draw(st.sampled_from([d for d in range(1, N) if N % d == 0]))
        z.append(f * draw(st.integers(1, (N - 1) // f)))
    return LatticeRule(N=N, z=tuple(z))


def oracle_minima(rule):
    """(phi_u, phi_{u,0}) from the oracle's dual box |k_j| <= N, which holds
    a minimizer of each: components reduce into (-N/2, N/2] and only
    multiples of N collapse to 0, so |k_j| <= N suffices."""
    duals = np.asarray([k for k in dual_enumerate_lattice(rule, rule.N) if any(k)])
    nonzero = duals != 0
    size = np.prod(np.maximum(np.abs(duals), 1), axis=1)
    out = {}
    for u in subsets_of(rule.s):
        inside = np.asarray([j + 1 in u for j in range(rule.s)])
        exact = (nonzero == inside).all(axis=1)
        contained = ~(nonzero & ~inside).any(axis=1)
        out[u] = (int(size[exact].min()), int(size[contained].min()))
    return out


class TestLatticePoints:
    def test_two_point_rule(self):
        pts = LatticeRule(N=2, z=(1,)).points()
        assert pts[:, 0].tolist() == [0, 1]

    def test_five_point_pair(self):
        pts = LatticeRule(N=5, z=(1, 2)).points()
        assert [tuple(r) for r in pts.tolist()] == [(0, 0), (1, 2), (2, 4), (3, 1), (4, 3)]

    def test_reflected_generator(self):
        pts = LatticeRule(N=4, z=(3,)).points()
        assert pts[:, 0].tolist() == [0, 3, 2, 1]

    def test_validation(self):
        with pytest.raises(UsageError):
            LatticeRule(N=4, z=(0,))
        with pytest.raises(UsageError):
            LatticeRule(N=4, z=(4,))
        with pytest.raises(UsageError):
            LatticeRule(N=1, z=(1,))


class TestBernoulli:
    """omega_table(alpha, N) is omega_factor(alpha) B_{2 alpha}(a/N), a < N."""

    def test_constant_terms(self):
        for alpha, b0 in ((1, 1 / 6), (2, -1 / 30), (3, 1 / 42), (4, -1 / 30)):
            assert omega_table(alpha, 7)[0] / omega_factor(alpha) == pytest.approx(b0)

    def test_midpoint(self):
        assert omega_table(1, 2)[1] / omega_factor(1) == pytest.approx(-1 / 12)

    def test_unsupported_degree(self):
        with pytest.raises(UsageError):
            LatticeRule(N=5, z=(1,)).merit_kernel(5)

    @pytest.mark.parametrize("alpha", [1, 2, 3, 4])
    def test_fourier_series_identity(self, alpha):
        # omega(x) = sum_{k != 0} e^{2 pi i k x} / |k|^{2a}, at x = a/N on both sides of 1/2
        table = omega_table(alpha, 80)
        for a in (0, 10, 24, 40, 72):
            x = a / 80
            K = 200000 if alpha == 1 else 2000
            k = np.arange(1, K + 1, dtype=np.float64)
            series = 2 * np.sum(np.cos(2 * np.pi * k * x) / k ** (2 * alpha))
            tail = 2 * (K ** (1 - 2 * alpha)) / (2 * alpha - 1)
            assert abs(table[a] - series) <= tail + 1e-10


class TestOmegaTable:
    def test_reflection_is_bitwise(self):
        for N in (5, 8, 13, 64):
            t = omega_table(1, N)
            for a in range(1, N):
                assert t[a] == t[N - a]

    def test_values(self):
        t = omega_table(1, 4)
        assert t[0] == pytest.approx(2 * math.pi ** 2 / 6)
        assert t[2] == pytest.approx(2 * math.pi ** 2 * (-1 / 12))


class TestMeritClosed:
    def test_analytic_value_n5(self):
        r = p_merit_closed(LatticeRule(N=5, z=(1,)), unit_params(1))
        assert r.p_value == pytest.approx(math.pi ** 2 / 75, rel=1e-12)

    def test_analytic_value_n2(self):
        r = p_merit_closed(LatticeRule(N=2, z=(1,)), unit_params(1))
        assert r.p_value == pytest.approx(math.pi ** 2 / 12, rel=1e-12)

    def test_zero_weights(self):
        W = WeightSet.product([0.0, 0.0])
        r = p_merit_closed(LatticeRule(N=7, z=(1, 3)), SpaceParams(alpha=1, weights=W))
        assert r.p_value == 0.0

    def test_noninteger_alpha_rejected(self):
        with pytest.raises(UsageError):
            p_merit_closed(LatticeRule(N=5, z=(1,)), unit_params(1, alpha=1.5))

    def test_product_collapse_vs_explicit_subsets(self):
        # same weights written as product form and as an explicit table
        gammas = [0.9, 0.3, 0.6]
        prod = WeightSet.product(gammas)
        table = {tuple(sorted(u)): math.prod(gammas[j - 1] for j in u)
                 for u in subsets_of(3)}
        expl = WeightSet.explicit(table, s_max=3)
        rule = LatticeRule(N=17, z=(1, 5, 7))
        a = p_merit_closed(rule, SpaceParams(alpha=2, weights=prod)).p_value
        b = p_merit_closed(rule, SpaceParams(alpha=2, weights=expl)).p_value
        assert a == pytest.approx(b, rel=1e-10)

    def test_scaling_linearity(self):
        # P and rho are linear in gamma: c gamma_u as order and as POD weights
        rule = LatticeRule(N=13, z=(1, 5))
        for W, cW in ((WeightSet.order_dependent([1.0, 0.7]),
                       WeightSet.order_dependent([3.5, 3.5 * 0.7])),
                      (WeightSet.product([1.0, 0.7]), WeightSet.pod([3.5, 3.5], [1.0, 0.7])),
                      (WeightSet.pod([1.0, 2.0], [0.5, 0.7]),
                       WeightSet.pod([3.5, 7.0], [0.5, 0.7]))):
            base, scaled = (SpaceParams(alpha=1, weights=w) for w in (W, cW))
            assert p_merit_closed(rule, scaled).p_value == pytest.approx(
                3.5 * p_merit_closed(rule, base).p_value, rel=1e-12)
            assert rule.rho(scaled)[0] == pytest.approx(3.5 * rule.rho(base)[0], rel=1e-12)

    def test_point_blocks_match_one_block(self, monkeypatch):
        # 1021 points in 4 coordinates: one block by default, blocks of 10
        # points (the last one 1) when patched
        rule = LatticeRule(N=1021, z=(1, 306, 388, 138))
        params = SpaceParams(alpha=2, weights=WeightSet.order_dependent([1.0, 0.4, 0.2, 0.1]))
        whole = p_merit_closed(rule, params)
        monkeypatch.setattr(korobov, "_BLOCK_CELLS", 10 * 4 + 3)
        blocked = p_merit_closed(rule, params)
        assert blocked.p_value == whole.p_value


class TestMeritSeries:
    def test_matches_closed_form_singleton(self):
        rule = LatticeRule(N=5, z=(1,))
        closed = p_merit_closed(rule, unit_params(1)).p_value
        r = p_merit_series(rule, unit_params(1), 10 ** 4)
        # dropped tail is 2/25 * sum_{j>2000} j^-2, about 3e-4 relative
        assert r.p_value == pytest.approx(closed, rel=5e-4)
        assert abs(r.p_value - closed) <= r.truncation_bound + 1e-9
        r_wide = p_merit_series(rule, unit_params(1), 4 * 10 ** 4)
        assert r_wide.p_value == pytest.approx(closed, rel=1e-4)

    def test_matches_closed_form_pair(self):
        rule = LatticeRule(N=5, z=(1, 2))
        params = unit_params(2)
        closed = p_merit_closed(rule, params).p_value
        r = p_merit_series(rule, params, 200)
        assert abs(r.p_value - closed) <= r.truncation_bound + 1e-9

    def test_zero_weights(self):
        W = WeightSet.product([0.0])
        r = p_merit_series(LatticeRule(N=5, z=(1,)), SpaceParams(alpha=1, weights=W), 10)
        assert r.p_value == 0.0
        assert r.truncation_bound == 0.0

    def test_small_radius_rejected(self):
        with pytest.raises(UsageError):
            p_merit_series(LatticeRule(N=12, z=(5,)), unit_params(1), 11)

    def test_streamed_slabs_match_closed_form(self):
        # s = 3, K = 150: the 301^2 cells over coordinates 2..3 fall into 149
        # residue classes, summed against the 301 values of k_1
        rule = LatticeRule(N=149, z=(1, 41, 63))
        params = SpaceParams(alpha=1, weights=WeightSet.product([1.0, 0.5, 0.25]))
        r = p_merit_series(rule, params, 150)
        closed = p_merit_closed(rule, params).p_value
        assert 0 <= closed - r.p_value <= r.truncation_bound + 1e-12 * closed

    def test_streamed_slabs_match_single_box(self):
        # the residue-class sum (121^2 cells over coordinates 2..3 binned by
        # residue mod 59, then 121 values of k_1) against the whole 121^3 box
        rule = LatticeRule(N=59, z=(1, 17, 40))
        params = SpaceParams(alpha=1.5, weights=WeightSet.product([1.0, 0.6, 0.3]))
        K = 60
        k = np.meshgrid(*[np.arange(-K, K + 1)] * 3, indexing="ij", sparse=True)
        dual = sum(kj * zj for kj, zj in zip(k, rule.z)) % rule.N == 0
        radial = math.prod(np.maximum(np.abs(kj), 1.0) ** -3.0 for kj in k)  # pattern drops 0s
        pattern = sum((kj != 0) * (1 << j) for j, kj in enumerate(k))
        gamma = np.zeros(8)
        for u in subsets_of(3):
            gamma[sum(1 << (j - 1) for j in u)] = params.weights.weight(u)
        expected = float(np.sum((radial * gamma[pattern])[dual]))
        got = p_merit_series(rule, params, K).p_value
        assert got == pytest.approx(expected, rel=1e-12)

    def test_matches_independent_dual_enumeration(self):
        rule = LatticeRule(N=7, z=(1, 3))
        params = SpaceParams(alpha=1.25, weights=WeightSet.product([1.0, 0.5]))
        K = 30
        direct = 0.0
        for k in dual_enumerate_lattice(rule, K):
            if k == (0, 0):
                continue
            u = frozenset(j + 1 for j, kj in enumerate(k) if kj)
            direct += params.weights.weight(u) * math.prod(
                abs(kj) ** -2.5 for kj in k if kj)
        got = p_merit_series(rule, params, K).p_value
        assert got == pytest.approx(direct, rel=1e-12)


class TestZaremba:
    def test_pair_example(self):
        rho, per_subset = LatticeRule(N=5, z=(1, 2)).rho(unit_params(2))
        by_u = {tuple(sorted(u)): v for u, v in per_subset.items()}
        assert by_u[(1,)][1] == 5
        assert by_u[(2,)][1] == 5
        assert by_u[(1, 2)][1] == 2
        assert rho == pytest.approx(0.25)

    def test_singleton_minimum_is_n(self):
        for N in (7, 16, 33):
            rho, _ = LatticeRule(N=N, z=(1,)).rho(unit_params(1))
            assert rho == pytest.approx(N ** -2.0)

    def test_composite_gcd_singleton(self):
        # z = 2, N = 4: dual multiples of 2, so phi = 2 rather than N
        _, per_subset = LatticeRule(N=4, z=(2,)).rho(unit_params(1))
        assert next(iter(per_subset.values()))[1] == 2

    def test_rho_below_p(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            N = int(rng.integers(4, 40))
            s = int(rng.integers(1, 4))
            z = tuple(int(v) for v in rng.integers(1, N, size=s))
            rule = LatticeRule(N=N, z=z)
            rho, _ = rule.rho(unit_params(s))
            assert rho <= p_merit_closed(rule, unit_params(s)).p_value * (1 + 1e-12)

    def test_phi_matches_independent_enumeration(self):
        rule = LatticeRule(N=12, z=(1, 7, 5))
        minima = with_phi0(dual_product_minima(rule))
        duals = dual_enumerate_lattice(rule, 2 * rule.N)
        for u, (phi_u, phi_u0) in minima.items():
            # every minimizer has components of magnitude <= N, so the 2N box
            # contains it and the direct minimum must agree exactly
            direct = min(
                math.prod(abs(kj) for j, kj in enumerate(k) if j + 1 in u)
                for k in duals
                if all((kj != 0) == (j + 1 in u) for j, kj in enumerate(k)))
            assert phi_u == direct
            direct0 = min(
                (math.prod(max(1, abs(kj)) for kj in k)
                 for k in duals
                 if any(kj for kj in k) and all(kj == 0 or j + 1 in u
                                                for j, kj in enumerate(k))),
                default=None)
            assert phi_u0 == direct0


class TestDualMinimaSearch:
    """The hyperbolic-cross search against the oracle's dual box."""

    @pytest.mark.parametrize("prime", [True, False])
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_pairs_match_oracle(self, prime, data):
        rule = data.draw(lattice_rules(2, 200, prime))
        assert with_phi0(dual_product_minima(rule)) == oracle_minima(rule)

    @pytest.mark.parametrize("prime", [True, False])
    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_triples_match_oracle(self, prime, data):
        rule = data.draw(lattice_rules(3, 36, prime))
        assert with_phi0(dual_product_minima(rule)) == oracle_minima(rule)

    def test_no_coordinate_coprime_to_n(self):
        # gcd(z_j, 30) = 6, 10, 15: the search solves for the coordinate of least gcd
        rule = LatticeRule(N=30, z=(6, 10, 15))
        assert with_phi0(dual_product_minima(rule)) == oracle_minima(rule)

    def test_n_cap(self):
        with pytest.raises(ResourceLimitError):
            dual_product_minima(LatticeRule(N=korobov.ZAREMBA_N_LIMIT + 1, z=(1, 2)))


class TestCharacterSum:
    def test_dual_frequency(self):
        rule = LatticeRule(N=5, z=(1, 2))
        assert char_sum_lattice(rule, (1, 2)) == pytest.approx(1.0, abs=1e-12)

    def test_nondual_frequency(self):
        rule = LatticeRule(N=5, z=(1, 2))
        assert abs(char_sum_lattice(rule, (1, 0))) < 1e-12

    def test_random_rules_match_indicator(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            N = int(rng.integers(2, 20))
            s = int(rng.integers(1, 3))
            z = tuple(int(v) for v in rng.integers(1, N, size=s))
            k = tuple(int(v) for v in rng.integers(-2 * N, 2 * N + 1, size=s))
            rule = LatticeRule(N=N, z=z)
            expected = 1.0 if sum(kj * zj for kj, zj in zip(k, z)) % N == 0 else 0.0
            assert abs(char_sum_lattice(rule, k) - expected) < 1e-9
