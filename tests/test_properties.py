"""Property tests across modules: the chain rho <= P <= CBC guarantee on CBC
rules of both families, and JSON round-trips of rules and weight sets."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import lattice_modulus, poly_modulus
from qmcforge.cbc import cbc_construct
from qmcforge.cli import load_rule
from qmcforge.gfpoly import GFPoly, smallest_irreducible
from qmcforge.korobov import LatticeRule, p_merit_closed
from qmcforge.stability import prop_bound
from qmcforge.walsh import PolyLatticeRule
from qmcforge.weights import SpaceParams, WeightSet, subsets_of

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)
SLACK = 1e-9  # relative, as the certificates allow

positive = st.floats(0.05, 1.0, allow_nan=False)
KINDS = ["product", "pod", "order", "explicit"]


@st.composite
def weight_sets(draw, s, kind=None):
    """A weight set of the given kind (default drawn), defined up to dimension s."""
    kind = kind or draw(st.sampled_from(KINDS))
    gammas = draw(st.lists(positive, min_size=s, max_size=s))
    if kind == "product":
        return WeightSet.product(gammas)
    if kind == "pod":
        return WeightSet.pod([math.factorial(k) * draw(positive) for k in range(1, s + 1)],
                             gammas)
    if kind == "order":
        return WeightSet.order_dependent(gammas)
    subsets = draw(st.lists(st.sampled_from(list(subsets_of(s))), min_size=1, unique=True))
    return WeightSet.explicit({tuple(sorted(u)): draw(positive) for u in subsets}, s_max=s)


@st.composite
def poly_rules(draw):
    b, m = draw(st.sampled_from([(2, 3), (2, 7), (3, 4), (5, 2), (7, 3)]))
    p = smallest_irreducible(b, m)
    q = draw(st.lists(st.integers(1, b ** m - 1), min_size=1, max_size=4))
    return PolyLatticeRule(b=b, m=m, p=p, q=tuple(GFPoly.from_code(b, c) for c in q))


class TestMeritChain:
    """rho is one term of the dual sum P, and a CBC rule meets the CBC
    guarantee at lambda = 1."""

    @SETTINGS
    @given(N=st.integers(3, 400), alpha=st.sampled_from([1, 2]), data=st.data())
    def test_lattice(self, N, alpha, data):
        s = data.draw(st.integers(1, 4))
        params = SpaceParams(alpha=alpha, weights=data.draw(weight_sets(s)))
        rule, _ = cbc_construct(lattice_modulus(N), s, params)
        rho, _ = rule.rho(params)
        p = p_merit_closed(rule, params).p_value
        assert rho <= p * (1 + SLACK)
        assert p <= prop_bound(rule, alpha, params.weights, 1.0) * (1 + SLACK)

    @SETTINGS
    @given(bm=st.sampled_from([(2, 4), (2, 7), (3, 3), (3, 5), (5, 3), (7, 2)]),
           alpha=st.sampled_from([0.75, 1, 1.5, 2]), data=st.data())
    def test_poly(self, bm, alpha, data):
        (b, m), s = bm, data.draw(st.integers(1, 4))
        params = SpaceParams(alpha=alpha, weights=data.draw(weight_sets(s)))
        rule, _ = cbc_construct(poly_modulus(b, m), s, params)
        rho, _ = rule.rho(params)
        p = p_merit_closed(rule, params).p_value
        assert rho <= p * (1 + SLACK)
        assert p <= prop_bound(rule, alpha, params.weights, 1.0) * (1 + SLACK)


class TestRhoBreakdown:
    """rule.rho's breakdown is {u: (term, phi_u)}, each term the family's formula
    exactly, and rho its largest term, on CBC and random rules of both families."""

    @staticmethod
    def check(rule, params, term):
        rho, per_subset = rule.rho(params)
        for u, entry in per_subset.items():
            assert len(entry) == 2
            assert entry[0] == term(params.weights.weight(u), entry[1])
        assert rho == max(t for t, _ in per_subset.values())

    @pytest.mark.parametrize("kind", KINDS)
    @SETTINGS
    @given(N=st.integers(3, 400), alpha=st.sampled_from([1.0, 2.0]), cbc=st.booleans(),
           data=st.data())
    def test_lattice(self, kind, N, alpha, cbc, data):
        s = data.draw(st.integers(1, 4))
        params = SpaceParams(alpha=alpha, weights=data.draw(weight_sets(s, kind)))
        if cbc:
            rule, _ = cbc_construct(lattice_modulus(N), s, params)
        else:
            rule = LatticeRule(N=N, z=tuple(data.draw(st.lists(st.integers(1, N - 1),
                                                               min_size=s, max_size=s))))
        self.check(rule, params, lambda gamma, phi: gamma / phi ** (2 * alpha))

    @pytest.mark.parametrize("kind", KINDS)
    @SETTINGS
    @given(alpha=st.sampled_from([0.75, 1.0, 1.5, 2.0]), cbc=st.booleans(), data=st.data())
    def test_poly(self, kind, alpha, cbc, data):
        rule = data.draw(poly_rules())
        params = SpaceParams(alpha=alpha, weights=data.draw(weight_sets(rule.s, kind)))
        if cbc:
            rule, _ = cbc_construct(poly_modulus(rule.b, rule.m), rule.s, params)
        self.check(rule, params, lambda gamma, phi: gamma * rule.b ** (-2 * alpha * phi))


class TestJsonRoundTrip:
    @SETTINGS
    @given(N=st.integers(2, 10 ** 6), data=st.data())
    def test_lattice_rule(self, tmp_path_factory, N, data):
        z = data.draw(st.lists(st.integers(1, N - 1), min_size=1, max_size=8))
        rule = LatticeRule(N=N, z=tuple(z))
        path = tmp_path_factory.mktemp("rule") / "rule.json"
        path.write_text(json.dumps(rule.to_jsonable()))
        assert load_rule(str(path))[0] == rule

    @SETTINGS
    @given(rule=poly_rules())
    def test_poly_rule(self, tmp_path_factory, rule):
        path = tmp_path_factory.mktemp("rule") / "rule.json"
        path.write_text(json.dumps(rule.to_jsonable()))
        assert load_rule(str(path))[0] == rule

    @SETTINGS
    @given(data=st.data())
    def test_weight_sets(self, data):
        W = data.draw(weight_sets(data.draw(st.integers(1, 6))))
        back = WeightSet.from_jsonable(json.loads(json.dumps(W.to_jsonable())))
        assert back == W
        assert all(back.weight(u) == W.weight(u) for u in subsets_of(W.s_max))
