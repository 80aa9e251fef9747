import math
import time
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_force_monotone
from qmcforge.errors import UsageError
from qmcforge.weights import (SpaceParams, WeightSet, check_monotone, parse_weight_formula,
                              ratio_size_sum, subset_product_sum, subsets_of,
                              weighted_power_sum, weighted_zeta_sum, zeta)


class TestZeta:
    def test_known_even_values(self):
        assert zeta(2.0) == pytest.approx(math.pi ** 2 / 6, abs=1e-14)
        assert zeta(4.0) == pytest.approx(math.pi ** 4 / 90, abs=1e-14)
        assert zeta(6.0) == pytest.approx(math.pi ** 6 / 945, abs=1e-14)

    def test_apery(self):
        assert zeta(3.0) == pytest.approx(1.2020569031595942854, abs=1e-14)

    def test_bracket_against_partial_sum(self):
        # zeta(x) = partial sum up to M plus a tail inside (int_{M+1}, int_M)
        for x in (1.1, 1.5, 2.25, 3.7):
            M = 200000
            partial = float(np.sum(np.arange(1, M + 1, dtype=np.float64) ** (-x)))
            tail_low = (M + 1) ** (1 - x) / (x - 1)
            tail_high = M ** (1 - x) / (x - 1)
            assert partial + tail_low - 1e-12 <= zeta(x) <= partial + tail_high + 1e-12

    def test_divergent_rejected(self):
        with pytest.raises(UsageError):
            zeta(1.0)

    def test_huge_exponent_is_one(self):
        # once 64^-x underflows the corrections stop, before an inf poch meets a 0 power
        for x in (200.0, 1e100, 1e200, math.inf):
            assert zeta(x) == 1.0


class TestWeightEvaluation:
    def test_product(self):
        W = WeightSet.product([j ** -2.0 for j in range(1, 5)])
        assert W.weight({1, 2}) == pytest.approx(0.25)

    def test_pod_factorial(self):
        W = WeightSet.pod([math.factorial(k) for k in range(1, 5)], [1.0] * 4)
        assert W.weight({1, 2, 3}) == 6.0

    def test_explicit_defaults_to_zero(self):
        W = WeightSet.explicit({(1,): 0.5})
        assert W.weight({2}) == 0.0
        assert W.weight({1}) == 0.5

    def test_empty_subset_rejected(self):
        W = WeightSet.product([1.0])
        with pytest.raises(UsageError):
            W.weight(set())

    def test_product_extension_property(self):
        W = WeightSet.product([0.9, 0.4, 0.2, 0.7])
        for u in subsets_of(3):
            for j in range(1, 5):
                if j not in u:
                    assert W.weight(u | {j}) == pytest.approx(W.weight(u) * W.gamma[j - 1])

    def test_powered(self):
        W = WeightSet.pod([1.0, 2.0], [0.5, 0.25])
        W2 = W.powered(2.0)
        for u in subsets_of(2):
            assert W2.weight(u) == pytest.approx(W.weight(u) ** 2)

    def test_json_roundtrip(self):
        for W in (WeightSet.product([1.0, 0.5]),
                  WeightSet.pod([1.0, 3.0], [1.0, 1.0]),
                  WeightSet.order_dependent([1.0, 0.5]),
                  WeightSet.explicit({(1,): 0.1, (1, 2): 0.05})):
            W2 = WeightSet.from_jsonable(W.to_jsonable())
            for u in subsets_of(2):
                assert W2.weight(u) == W.weight(u)


class TestMonotone:
    def test_product_le_one_always_monotone(self):
        W = WeightSet.product([1.0, 0.5, 0.25, 1.0])
        assert check_monotone(W, 4) is True

    def test_explicit_violation(self):
        W = WeightSet.explicit({(1,): 0.1, (1, 2): 0.5})
        assert check_monotone(W, 2) is False

    def test_pod_growth_violates(self):
        W = WeightSet.pod([1.0, 3.0], [1.0, 1.0])
        assert check_monotone(W, 2) is False

    @pytest.mark.parametrize("s", [2, 4, 6, 8])
    def test_matches_brute_force(self, s):
        rng = np.random.default_rng(7 + s)

        def coordinate_weights():
            # zero and > 1 entries, so that whether a removal is attainable matters
            return rng.choice([0.0, 0.0, 0.5, 1.0, 1.3], size=s).tolist()

        candidates = [
            WeightSet.product(rng.uniform(0.0, 1.4, size=s).tolist()),
            WeightSet.pod(rng.uniform(0.2, 1.5, size=s).tolist(),
                          rng.uniform(0.0, 1.2, size=s).tolist()),
            WeightSet.order_dependent(rng.uniform(0.2, 1.5, size=s).tolist()),
            WeightSet.explicit(
                {tuple(c): float(rng.uniform(0, 1))
                 for k in range(1, s + 1) for c in combinations(range(1, s + 1), k)
                 if rng.uniform() < 0.4},
                s_max=s),
            *(WeightSet.product(coordinate_weights()) for _ in range(8)),
            *(WeightSet.pod(rng.uniform(0.5, 1.2, size=s).tolist(), coordinate_weights())
              for _ in range(8)),
        ]
        for W in candidates:
            assert check_monotone(W, s) == brute_force_monotone(W, s)


class TestZetaSum:
    def test_single_unit_weight(self):
        W = WeightSet.product([1.0])
        assert weighted_zeta_sum(W, 1, 1.0, 1.0) == pytest.approx(2 * math.pi ** 2 / 6, rel=1e-13)

    def test_zero_weights(self):
        W = WeightSet.product([0.0, 0.0])
        assert weighted_zeta_sum(W, 2, 1.0, 1.0) == 0.0

    def test_product_closed_form_value(self):
        W = WeightSet.product([1.0, 0.25])
        z2 = 2 * zeta(2.0)
        expect = (1 + z2) * (1 + z2 / 4) - 1
        assert weighted_zeta_sum(W, 2, 1.0, 1.0) == pytest.approx(expect, rel=1e-13)

    def test_divergent_lambda_rejected(self):
        W = WeightSet.product([1.0])
        with pytest.raises(UsageError):
            weighted_zeta_sum(W, 1, 0.5, 1.0)

    def test_overflowing_exponent_rejected(self):
        W = WeightSet.product([1.0])
        with pytest.raises(UsageError, match="2 alpha lambda overflows"):
            weighted_zeta_sum(W, 1, 1.0, 1e308)

    @pytest.mark.parametrize("s", range(1, 11))
    def test_product_form_equals_subset_enumeration(self, s):
        rng = np.random.default_rng(100 + s)
        gammas = rng.uniform(0.0, 1.5, size=s).tolist()
        W = WeightSet.product(gammas)
        lam, alpha = 0.8, 1.25
        c = 2 * zeta(2 * alpha * lam)
        direct = sum(W.weight(u) ** lam * c ** len(u) for u in subsets_of(s))
        assert weighted_zeta_sum(W, s, lam, alpha) == pytest.approx(direct, rel=1e-12)

    @pytest.mark.parametrize("kind", ["pod", "order", "explicit"])
    def test_other_kinds_match_enumeration(self, kind):
        rng = np.random.default_rng(hash(kind) % 2 ** 31)
        s = 6
        if kind == "pod":
            W = WeightSet.pod(rng.uniform(0.1, 1.0, size=s).tolist(),
                              rng.uniform(0.1, 1.0, size=s).tolist())
        elif kind == "order":
            W = WeightSet.order_dependent(rng.uniform(0.1, 1.0, size=s).tolist())
        else:
            W = WeightSet.explicit(
                {tuple(c): float(rng.uniform(0, 1))
                 for k in (1, 2, 3) for c in combinations(range(1, s + 1), k)},
                s_max=s)
        direct = sum(W.weight(u) * 3.1 ** len(u) for u in subsets_of(s))
        assert weighted_power_sum(W, s, 1.0, 3.1) == pytest.approx(direct, rel=1e-12)


class TestSubsetProductSum:
    @pytest.mark.parametrize("kind", ["product", "pod", "order", "explicit"])
    def test_matches_direct_enumeration(self, kind):
        rng = np.random.default_rng(42)
        npoints, s = 7, 4
        factors = rng.normal(size=(npoints, s))
        if kind == "product":
            W = WeightSet.product(rng.uniform(0, 1, size=s).tolist())
        elif kind == "pod":
            W = WeightSet.pod(rng.uniform(0, 1, size=s).tolist(),
                              rng.uniform(0, 1, size=s).tolist())
        elif kind == "order":
            W = WeightSet.order_dependent(rng.uniform(0, 1, size=s).tolist())
        else:
            W = WeightSet.explicit({(1,): 0.3, (2, 4): 0.2, (1, 2, 3): 0.1}, s_max=s)
        got = subset_product_sum(W, factors)
        for n in range(npoints):
            direct = sum(W.weight(u) * math.prod(factors[n, j - 1] for j in u)
                         for u in subsets_of(s))
            assert got[n] == pytest.approx(direct, rel=1e-11, abs=1e-13)


# entries of structured weights: about one in five is zero
entries = st.one_of(st.just(0.0), st.floats(0.05, 2.0), st.floats(0.05, 2.0),
                    st.floats(0.05, 2.0), st.floats(0.05, 2.0))
STRUCTURED = ("product", "pod", "order")


def structured(draw, kind: str, s: int) -> WeightSet:
    coords = draw(st.lists(entries, min_size=s, max_size=s))
    sizes = draw(st.lists(entries, min_size=s, max_size=s))
    if kind == "product":
        return WeightSet.product(coords)
    if kind == "pod":
        return WeightSet.pod(sizes, coords)
    return WeightSet.order_dependent(sizes)


def as_table(W: WeightSet, s: int) -> WeightSet:
    """The same weights as an explicit table, which the sums walk entry by entry."""
    return WeightSet.explicit({tuple(sorted(u)): W.weight(u) for u in subsets_of(s)}, s_max=s)


class TestRatioSizeSum:
    """The O(s^2) form against the subset loop (explicit gamma) and the table
    walk (explicit gamma'), on every structured kind pair."""

    @pytest.mark.parametrize("kind", STRUCTURED)
    @pytest.mark.parametrize("kind_prime", STRUCTURED)
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(s=st.integers(1, 8), r=st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0]), data=st.data())
    def test_closed_form_matches_enumeration(self, kind, kind_prime, s, r, data):
        W, Wp = structured(data.draw, kind, s), structured(data.draw, kind_prime, s)
        c = [0.0] + data.draw(st.lists(st.floats(-3.0, 3.0), min_size=s, max_size=s))
        value, vacuous = ratio_size_sum(W, Wp, r, c, s)
        # signed c_k may cancel: compare against the sum of absolute terms
        scale = ratio_size_sum(W, Wp, r, [abs(ck) for ck in c], s)[0]
        for pair in ((as_table(W, s), Wp), (W, as_table(Wp, s)),
                     (as_table(W, s), as_table(Wp, s))):
            ref, ref_vacuous = ratio_size_sum(*pair, r, c, s)
            assert ref_vacuous == vacuous
            if vacuous:
                assert math.isinf(value) and math.isinf(ref)
            else:
                assert abs(value - ref) <= 1e-12 * scale

    @pytest.mark.parametrize("kind", STRUCTURED)
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(s=st.integers(1, 8), lam=st.sampled_from([0.25, 0.5, 0.75, 1.0]),
           factor=st.floats(0.01, 5.0), data=st.data())
    def test_power_sum_matches_enumeration(self, kind, s, lam, factor, data):
        W = structured(data.draw, kind, s)
        got = weighted_power_sum(W, s, lam, factor)
        assert got == pytest.approx(weighted_power_sum(as_table(W, s), s, lam, factor),
                                    rel=1e-12, abs=0.0)
        direct = sum(W.weight(u) ** lam * factor ** len(u) for u in subsets_of(s))
        assert got == pytest.approx(direct, rel=1e-12, abs=0.0)

    def test_zero_target_weight_is_not_vacuous(self):
        # gamma'_u = 0 = gamma_u counts 0; gamma'_u > 0 = gamma_u is vacuous
        W = WeightSet.pod([1.0, 0.0], [1.0, 1.0])
        value, vacuous = ratio_size_sum(W, WeightSet.pod([2.0, 0.0], [1.0, 1.0]),
                                        0.5, [0.0, 1.0, 1.0], 2)
        assert (value, vacuous) == (4.0, False)
        value, vacuous = ratio_size_sum(W, WeightSet.product([1.0, 1.0]), 0.5, [0.0, 1.0, 1.0], 2)
        assert vacuous and math.isinf(value)

    def test_underflowing_weight_power_rejected(self):
        # (2^-9)^500 underflows to 0: refused, not divided by, in both summation forms
        W = WeightSet.product([1.0, 2.0 ** -9])
        with pytest.raises(UsageError, match="underflows float64"):
            ratio_size_sum(W, W, 500.0, [0.0, 1.0, 1.0], 2)
        explicit = WeightSet.explicit({(1,): 1.0, (2,): 2.0 ** -9, (1, 2): 2.0 ** -9})
        with pytest.raises(UsageError, match="underflows float64"):
            ratio_size_sum(explicit, W, 500.0, [0.0, 1.0, 1.0], 2)

    def test_dimension_outside_s_max_rejected(self):
        W = WeightSet.product([0.5] * 4)
        with pytest.raises(UsageError):
            ratio_size_sum(W, WeightSet.product([0.5] * 3), 1.0, [0.0] * 5, 4)
        with pytest.raises(UsageError):
            ratio_size_sum(W, W, 1.0, [], 0)

    def test_no_subset_loop_for_structured_weights(self):
        # 2^20 subsets took seconds in a loop; the elementary symmetric form
        # needs s^2 / 2 steps and also runs at s = 32 and s = 64
        for s in (20, 32, 64):
            W = WeightSet.pod([float(k) for k in range(1, s + 1)],
                              [j ** -2.0 for j in range(1, s + 1)])
            Wp = WeightSet.product([j ** -3.0 for j in range(1, s + 1)])
            sizes = [0.0] + [2.0 ** k for k in range(1, s + 1)]
            start = time.perf_counter()
            value, vacuous = ratio_size_sum(W, Wp, 1.5, sizes, s)
            assert time.perf_counter() - start < 0.5
            assert math.isfinite(value) and value > 0 and not vacuous


class TestFormulaParsing:
    def test_plain_power(self):
        fn = parse_weight_formula("j^-2")
        assert fn(3) == pytest.approx(1 / 9)

    def test_scaled_power(self):
        fn = parse_weight_formula("0.5*j^-1.5")
        assert fn(4) == pytest.approx(0.5 * 4 ** -1.5)

    def test_rejects_garbage(self):
        with pytest.raises(UsageError):
            parse_weight_formula("exp(j)")


class TestSpaceParams:
    def test_alpha_floor(self):
        with pytest.raises(UsageError):
            SpaceParams(alpha=0.5, weights=WeightSet.product([1.0]))
