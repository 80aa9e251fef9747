import ast
import math
from pathlib import Path

import pytest

from oracle import (char_sum_poly, dual_enumerate_lattice, dual_enumerate_poly,
                    reference_laurent_digits, reference_poly_points, reference_star_discrepancy,
                    wce_by_function_probe)
from qmcforge.errors import ResourceLimitError
from qmcforge.gfpoly import GFPoly
from qmcforge.korobov import LatticeRule, p_merit_closed
from qmcforge.walsh import PolyLatticeRule
from qmcforge.weights import SpaceParams, WeightSet

P3 = GFPoly(2, (1, 1, 0, 1))


def test_oracle_imports_only_data_types():
    # the oracle shares no arithmetic with the evaluators it checks
    allowed = {"qmcforge.errors": {"ResourceLimitError", "UsageError"},
               "qmcforge.gfpoly": {"GFPoly"}, "qmcforge.korobov": {"LatticeRule"},
               "qmcforge.walsh": {"PolyLatticeRule"},
               "qmcforge.weights": {"SpaceParams", "WeightSet"}}
    tree = ast.parse((Path(__file__).parent / "oracle.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(a.name.split(".")[0] == "qmcforge" for a in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("qmcforge"):
            assert {a.name for a in node.names} <= allowed.get(node.module, set())


class TestDualLattice:
    def test_singleton_multiples(self):
        duals = dual_enumerate_lattice(LatticeRule(N=5, z=(1,)), 12)
        assert sorted(k[0] for k in duals) == [-10, -5, 0, 5, 10]

    def test_zero_always_present(self):
        duals = dual_enumerate_lattice(LatticeRule(N=7, z=(2, 3)), 1)
        assert (0, 0) in duals

    def test_pair_example(self):
        duals = dual_enumerate_lattice(LatticeRule(N=5, z=(1, 2)), 2)
        nonzero = sorted(k for k in duals if k != (0, 0))
        assert nonzero == [(-2, 1), (-1, -2), (1, 2), (2, -1)]

    def test_resource_cap(self):
        with pytest.raises(ResourceLimitError):
            dual_enumerate_lattice(LatticeRule(N=5, z=(1, 2, 3, 4)), 10 ** 3)


class TestDualPoly:
    def test_multiples_of_bm(self):
        rule = PolyLatticeRule(b=2, m=3, p=P3, q=(GFPoly.one(2),))
        assert [k[0] for k in dual_enumerate_poly(rule, 5)] == [0, 8, 16, 24]

    def test_matches_library_membership(self):
        rule = PolyLatticeRule(b=2, m=2, p=GFPoly(2, (1, 1, 1)),
                               q=(GFPoly.from_code(2, 2), GFPoly.from_code(2, 3)))
        duals = set(dual_enumerate_poly(rule, 3))
        for k1 in range(8):
            for k2 in range(8):
                expected = 1.0 if (k1, k2) in duals else 0.0
                assert abs(char_sum_poly(rule, (k1, k2)) - expected) < 1e-9


class TestReferenceLaurent:
    def test_periodic_pattern(self):
        got = reference_laurent_digits(GFPoly(2, (0, 1)), GFPoly(2, (1, 1, 1)), 6)
        assert got == (1, 1, 0, 1, 1, 0)

    def test_zero(self):
        assert reference_laurent_digits(GFPoly.zero(2), P3, 5) == (0,) * 5

    def test_shift(self):
        got = reference_laurent_digits(GFPoly.one(2), GFPoly(2, (0, 0, 1)), 4)
        assert got == (0, 1, 0, 0)

    def test_base3_against_synthetic(self):
        # every nonzero q of degree < 2 over Z_3, as the shipped point set computes it
        rule = PolyLatticeRule(b=3, m=2, p=GFPoly(3, (2, 1, 1)),
                               q=tuple(GFPoly.from_code(3, code) for code in range(1, 9)))
        expected = [[3 * t1 + t2 for t1, t2 in row] for row in reference_poly_points(rule)]
        assert rule.points().tolist() == expected


class TestFunctionProbe:
    def test_dual_probe_attains_r(self):
        rule = LatticeRule(N=5, z=(1,))
        params = SpaceParams(alpha=1.0, weights=WeightSet.product([1.0]))
        lower = wce_by_function_probe(rule, params, probe_count=30)
        # the dual frequency k = 5 contributes exactly r^(1/2) = 1/5
        assert lower == pytest.approx(0.2, rel=1e-9)
        assert lower <= math.sqrt(p_merit_closed(rule, params).p_value) + 1e-9

    def test_poly_probe(self):
        rule = PolyLatticeRule(b=2, m=3, p=P3, q=(GFPoly.one(2),))
        params = SpaceParams(alpha=1.0, weights=WeightSet.product([1.0]))
        lower = wce_by_function_probe(rule, params, probe_count=300)
        assert lower == pytest.approx(2.0 ** -4, rel=1e-9)  # k = 8, r = 2^-8
        assert lower <= math.sqrt(p_merit_closed(rule, params).p_value) + 1e-9

    def test_zero_weights_zero_probe(self):
        rule = LatticeRule(N=5, z=(1,))
        params = SpaceParams(alpha=1.0, weights=WeightSet.product([0.0]))
        assert wce_by_function_probe(rule, params, probe_count=10) == 0.0

    def test_nondual_probes_vanish(self):
        rule = LatticeRule(N=64, z=(1,))
        params = SpaceParams(alpha=1.0, weights=WeightSet.product([1.0]))
        # probes only reach |k| <= 8 < N: no dual frequency, so the witness
        # stays at rounding level
        lower = wce_by_function_probe(rule, params, probe_count=16)
        assert lower < 1e-9


class TestReferenceDstar:
    def test_equispaced(self):
        pts = [[n] for n in range(8)]
        assert reference_star_discrepancy(pts, 8) == pytest.approx(1 / 8)

    def test_matches_char_sum_free_path(self):
        assert reference_star_discrepancy([[0, 0], [1, 1]], 2) == pytest.approx(0.75)
