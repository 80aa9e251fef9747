import csv
import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import qmcforge
from qmcforge.cli import main, parse_weights
from qmcforge.errors import UsageError


OVERFLOW = "pod:1e300,1e300,1e300|1e10,1e10,1e10"


def run(args):
    return main(args)


class TestWeightSpecs:
    def test_product_formula(self):
        W = parse_weights("product:j^-2")
        assert W.weight({3}) == pytest.approx(1 / 9)

    def test_product_list(self):
        W = parse_weights("product:1,0.5,0.25")
        assert W.weight({2}) == 0.5

    def test_pod(self):
        W = parse_weights("pod:1,2|0.5,0.5")
        assert W.weight({1, 2}) == pytest.approx(2 * 0.25)

    def test_explicit(self):
        W = parse_weights("explicit:1=0.5;1,2=0.25")
        assert W.weight({1, 2}) == 0.25
        assert W.weight({2}) == 0.0

    def test_bad_spec(self):
        with pytest.raises(UsageError):
            parse_weights("nonsense")


class TestConstruct:
    def test_lattice_roundtrip(self, tmp_path, capsys):
        rule_path = tmp_path / "rule.json"
        code = run(["construct", "--kind", "lattice", "--N", "31", "--s", "4",
                    "--alpha", "1", "--weights", "product:j^-2",
                    "--out", str(rule_path)])
        assert code == 0
        obj = json.loads(rule_path.read_text())
        assert obj["type"] == "lattice" and obj["z"][0] == 1
        trace_merit = obj["trace"][-1]["merit"]

        report_path = tmp_path / "report.json"
        code = run(["evaluate", str(rule_path), "--alpha", "1",
                    "--weights", "product:j^-2", "--out", str(report_path)])
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["P"] == pytest.approx(trace_merit, rel=1e-12)

    def test_poly_default_modulus(self, tmp_path):
        rule_path = tmp_path / "rule.json"
        code = run(["construct", "--kind", "poly-lattice", "--b", "2", "--m", "5",
                    "--s", "3", "--alpha", "1", "--weights", "product:j^-2",
                    "--out", str(rule_path)])
        assert code == 0
        obj = json.loads(rule_path.read_text())
        assert obj["p"] == [1, 0, 1, 0, 0, 1]  # x^5 + x^2 + 1

    def test_poly_m11_within_table_cap(self, tmp_path):
        # the b^m x b^m candidate space of b=2, m=11 has 2^22 cells
        assert run(["construct", "--kind", "poly-lattice", "--b", "2", "--m", "11",
                    "--s", "2", "--alpha", "1", "--weights", "product:j^-2",
                    "--out", str(tmp_path / "r.json")]) == 0

    def test_poly_b5_m6_exceeds_work_budget(self, tmp_path):
        # the smallest b^m whose s = 2 scan the work budget refuses: 5^12 cells
        # (b = 2, m = 13 has 2^26 and is admitted)
        assert run(["construct", "--kind", "poly-lattice", "--b", "5", "--m", "6",
                    "--s", "2", "--alpha", "1", "--weights", "product:j^-2",
                    "--out", str(tmp_path / "r.json")]) == 3

    def test_fast_composite_rejected(self, tmp_path):
        code = run(["construct", "--kind", "lattice", "--N", "12", "--s", "2",
                    "--alpha", "1", "--weights", "product:j^-2", "--fast",
                    "--out", str(tmp_path / "r.json")])
        assert code == 2

    def test_fast_pod_weights(self, tmp_path):
        paths = [tmp_path / "direct.json", tmp_path / "fast.json"]
        for path, flags in zip(paths, ([], ["--fast"])):
            assert run(["construct", "--N", "251", "--s", "6",
                        "--weights", "pod:1,2,6,24,120,720|j^-2",
                        "--out", str(path)] + flags) == 0
        for path in paths:
            assert json.loads(path.read_text())["z"] == [1, 70, 48, 104, 99, 41]

    def test_fast_non_integer_alpha_rejected(self, tmp_path):
        # the FFT scan needs the closed-form kernel, as the direct scan does
        assert run(["construct", "--N", "31", "--s", "2", "--alpha", "1.5", "--fast",
                    "--out", str(tmp_path / "r.json")]) == 2

    def test_random_rule_seeded(self, tmp_path):
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        for p in (p1, p2):
            assert run(["construct", "--N", "17", "--s", "3", "--alpha", "1",
                        "--weights", "product:j^-2", "--random", "--seed", "7",
                        "--out", str(p)]) == 0
        assert json.loads(p1.read_text())["z"] == json.loads(p2.read_text())["z"]


class TestEvaluate:
    def test_missing_file(self):
        assert run(["evaluate", "/nonexistent/rule.json", "--alpha", "1",
                    "--weights", "product:j^-2"]) == 2

    def test_rho_and_discrepancy(self, tmp_path):
        rule_path = tmp_path / "rule.json"
        run(["construct", "--N", "16", "--s", "2", "--alpha", "1",
             "--weights", "product:j^-2", "--out", str(rule_path)])
        report_path = tmp_path / "rep.json"
        code = run(["evaluate", str(rule_path), "--alpha", "1",
                    "--weights", "product:j^-2", "--rho", "--discrepancy",
                    "--out", str(report_path)])
        assert code == 0
        rep = json.loads(report_path.read_text())
        assert rep["rho"] is not None
        assert rep["rho"] <= rep["P"] * (1 + 1e-12)
        assert all(e["phi"] is not None for e in rep["per_subset"])
        disc = rep["discrepancy"]
        assert disc["exact_dstar"] <= disc["bound_joe"] + 1e-9
        assert disc["exact_dstar"] <= disc["bound_rho"] + 1e-9

    def test_resource_cap_exit_three(self, tmp_path):
        # the lattice dual minima behind rho are capped at N <= 1024
        rule_path = tmp_path / "rule.json"
        run(["construct", "--N", "1031", "--s", "2", "--alpha", "1",
             "--weights", "product:j^-2", "--out", str(rule_path)])
        code = run(["evaluate", str(rule_path), "--alpha", "1",
                    "--weights", "product:j^-2", "--rho"])
        assert code == 3

    def test_work_budget_refuses_rho_at_s20(self, tmp_path, capsys):
        # the 2^20 - 1 lattice dual minima of N = 1021 would run for minutes; the
        # work budget refuses them before the first search
        rule_path = tmp_path / "rule.json"
        assert run(["construct", "--N", "1021", "--s", "20", "--out", str(rule_path)]) == 0
        capsys.readouterr()
        assert run(["evaluate", str(rule_path), "--alpha", "1", "--weights", "product:j^-2",
                    "--rho"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("resource limit: dual minima") and err.count("\n") == 1

    def test_exact_discrepancy_within_work_budget(self, tmp_path):
        # exact D* of 8191 points in two dimensions is a few seconds of work at most
        rule_path = tmp_path / "rule.json"
        assert run(["construct", "--N", "8191", "--s", "2", "--out", str(rule_path)]) == 0
        report_path = tmp_path / "rep.json"
        assert run(["evaluate", str(rule_path), "--alpha", "1", "--weights", "product:j^-2",
                    "--discrepancy", "--out", str(report_path)]) == 0
        disc = json.loads(report_path.read_text())["discrepancy"]
        assert 0 < disc["exact_dstar"] <= disc["bound_joe"]

    def test_discrepancy_beyond_three_dimensions(self, tmp_path):
        rule_path = tmp_path / "rule.json"
        run(["construct", "--N", "31", "--s", "4", "--alpha", "1",
             "--weights", "product:j^-2", "--out", str(rule_path)])
        report_path = tmp_path / "rep.json"
        assert run(["evaluate", str(rule_path), "--alpha", "1", "--weights", "product:j^-2",
                    "--rho", "--discrepancy", "--out", str(report_path)]) == 0
        disc = json.loads(report_path.read_text())["discrepancy"]
        assert len(disc["per_subset"]) == 15
        assert all(e["R"] >= -1e-12 for e in disc["per_subset"])

    def test_discrepancy_without_rho_skips_rho_bound(self, tmp_path):
        # the rho bound needs the lattice dual minima, capped at N <= 1024
        rule_path = tmp_path / "rule.json"
        run(["construct", "--N", "1031", "--s", "6", "--alpha", "1",
             "--weights", "product:j^-2", "--out", str(rule_path)])
        report_path = tmp_path / "rep.json"
        assert run(["evaluate", str(rule_path), "--alpha", "1", "--weights", "product:j^-2",
                    "--discrepancy", "--out", str(report_path)]) == 0
        rep = json.loads(report_path.read_text())
        assert rep["rho"] is None
        assert rep["discrepancy"]["bound_rho"] is None
        assert len(rep["discrepancy"]["per_subset"]) == 63

    def test_series_radius_kept_with_rho(self, tmp_path):
        # --rho must report P from the same truncated series as evaluation without it
        rule_path = tmp_path / "rule.json"
        run(["construct", "--N", "31", "--s", "2", "--alpha", "1",
             "--weights", "product:j^-2", "--out", str(rule_path)])
        reports = []
        for extra in ([], ["--rho"]):
            out = tmp_path / "rep.json"
            assert run(["evaluate", str(rule_path), "--alpha", "1.5", "--weights",
                        "product:j^-2", "--series-K", "200", "--out", str(out)] + extra) == 0
            reports.append(json.loads(out.read_text()))
        plain, with_rho = reports
        assert with_rho["rho"] is not None and plain["rho"] is None
        for key in ("P", "method", "truncation_bound"):
            assert with_rho[key] == plain[key]
        assert plain["method"] == "truncated-series"

    def test_poly_series_digit_cap(self, tmp_path):
        # --series-K is the digit cap of the polynomial-lattice series, with or without --rho
        rule_path = tmp_path / "rule.json"
        assert run(["construct", "--kind", "poly-lattice", "--b", "2", "--m", "6", "--s", "2",
                    "--alpha", "1", "--weights", "product:j^-2", "--out", str(rule_path)]) == 0
        reports = []
        for extra in ([], ["--series-K", "2"], ["--series-K", "2", "--rho"]):
            out = tmp_path / "rep.json"
            assert run(["evaluate", str(rule_path), "--alpha", "1", "--weights",
                        "product:j^-2", "--out", str(out)] + extra) == 0
            reports.append(json.loads(out.read_text()))
        closed, series, with_rho = reports
        assert closed["method"] == "closed-form"
        assert series["method"] == "truncated-series" and series["P"] != closed["P"]
        assert series["P"] <= closed["P"] <= series["P"] + series["truncation_bound"]
        for key in ("P", "method", "truncation_bound"):
            assert with_rho[key] == series[key]
        assert with_rho["rho"] is not None

    def test_poly_series_digit_cap_past_float_range(self, tmp_path):
        # b^(K-1) passes the float range near K = 1025; the series then equals the closed form
        rule_path = tmp_path / "rule.json"
        assert run(["construct", "--kind", "poly-lattice", "--b", "2", "--m", "6", "--s", "2",
                    "--alpha", "1", "--weights", "product:j^-2", "--out", str(rule_path)]) == 0
        reports = []
        for extra in ([], ["--series-K", "1100"]):
            out = tmp_path / "rep.json"
            assert run(["evaluate", str(rule_path), "--alpha", "1", "--weights",
                        "product:j^-2", "--out", str(out)] + extra) == 0
            reports.append(json.loads(out.read_text()))
        closed, series = reports
        assert series["method"] == "truncated-series"
        assert series["P"] == pytest.approx(closed["P"], rel=1e-12)
        assert series["truncation_bound"] == 0.0

    def test_series_K_zero_lattice_refused(self, tmp_path):
        # K = 0 is an explicit radius, below N, not a request for the closed form
        rule_path = tmp_path / "rule.json"
        run(["construct", "--N", "31", "--s", "2", "--out", str(rule_path)])
        assert run(["evaluate", str(rule_path), "--alpha", "1", "--weights", "product:j^-2",
                    "--series-K", "0"]) == 2

    def test_series_K_zero_poly_truncated_series(self, tmp_path, capsys):
        # digit cap 0 keeps no dual vector: P = 0 with the whole of P in the tail bound
        rule_path = tmp_path / "rule.json"
        run(["construct", "--kind", "poly-lattice", "--b", "2", "--m", "4", "--s", "1",
             "--out", str(rule_path)])
        capsys.readouterr()
        assert run(["evaluate", str(rule_path), "--alpha", "1", "--weights", "product:j^-2",
                    "--series-K", "0"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["method"] == "truncated-series"
        assert report["P"] == 0.0 and report["truncation_bound"] == 0.5

    def test_default_series_radius_shared_with_certify(self, tmp_path):
        # at N = 31 < 64 both verbs take the series at the same default radius
        rule_path, cert_path, rep_path = (tmp_path / n for n in ("r.json", "c.json", "e.json"))
        run(["construct", "--N", "31", "--s", "2", "--alpha", "1",
             "--weights", "product:j^-2", "--out", str(rule_path)])
        assert run(["certify", str(rule_path), "--theorem", "thm1", "--alpha", "1",
                    "--weights", "product:j^-2", "--alpha-prime", "1.5",
                    "--weights-prime", "product:j^-3", "--out", str(cert_path)]) == 0
        assert run(["evaluate", str(rule_path), "--alpha", "1.5", "--weights", "product:j^-3",
                    "--rho", "--out", str(rep_path)]) == 0
        report = json.loads(rep_path.read_text())
        assert report["method"] == "truncated-series"
        assert json.loads(cert_path.read_text())["lhs"] == report["P"]

    @pytest.fixture
    def rule_31_thm1(self, tmp_path, capsys):
        """The N = 31, s = 2 CBC rule and its thm1 certificate at alpha' = 1.5."""
        rule_path = tmp_path / "r.json"
        run(["construct", "--N", "31", "--s", "2", "--out", str(rule_path)])
        assert run(["certify", str(rule_path), "--theorem", "thm1", "--alpha", "1",
                    "--weights", "product:j^-2", "--alpha-prime", "1.5",
                    "--weights-prime", "product:j^-3"]) == 0
        return rule_path, json.loads(capsys.readouterr().out)

    def evaluate_15(self, rule_path, capsys, *extra):
        assert run(["evaluate", str(rule_path), "--alpha", "1.5",
                    "--weights", "product:j^-3", *extra]) == 0
        return json.loads(capsys.readouterr().out)

    def test_noninteger_alpha_without_rho(self, rule_31_thm1, capsys):
        # evaluate takes the series at alpha = 1.5 with or without --rho
        rule_path, cert = rule_31_thm1
        plain = self.evaluate_15(rule_path, capsys)
        assert plain["method"] == "truncated-series" and plain["rho"] is None
        assert plain["P"] == self.evaluate_15(rule_path, capsys, "--rho")["P"] == cert["lhs"]

    def test_truncation_bound_is_certificate_allowance(self, rule_31_thm1, capsys):
        # the smaller of the series tail and Hoelder's allowance, as the certificate takes it
        rule_path, cert = rule_31_thm1
        report = self.evaluate_15(rule_path, capsys, "--rho")
        assert report["truncation_bound"] == cert["components"]["lhs_truncation"]
        assert report["truncation_bound"] == pytest.approx(1.55e-4, rel=1e-2)

    def test_poly_rho_discrepancy_one_closed_form(self, tmp_path, monkeypatch):
        # --rho --discrepancy evaluates the closed-form P once; rho carries no P
        from qmcforge import korobov, stability
        rule_path = tmp_path / "r.json"
        assert run(["construct", "--kind", "poly-lattice", "--b", "2", "--m", "6", "--s", "2",
                    "--out", str(rule_path)]) == 0
        calls, closed_form = [], korobov.p_merit_closed

        def counted(*args, **kwargs):
            calls.append(1)
            return closed_form(*args, **kwargs)
        for module in (korobov, stability):  # its home and the binding merit calls
            monkeypatch.setattr(module, "p_merit_closed", counted)
        assert run(["evaluate", str(rule_path), "--alpha", "1", "--weights", "product:j^-2",
                    "--rho", "--discrepancy", "--out", str(tmp_path / "e.json")]) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("size, module, search", [
        (["--N", "31"], "korobov", "dual_product_minima"),
        (["--kind", "poly-lattice", "--m", "5"], "walsh", "dual_mu_minima"),
    ], ids=["lattice", "poly"])
    def test_rho_discrepancy_one_dual_search(self, tmp_path, monkeypatch, size, module, search):
        # --rho --discrepancy computes rho once and hands it to the rho-based bound
        import importlib
        home = importlib.import_module(f"qmcforge.{module}")
        rule_path = tmp_path / "r.json"
        assert run(["construct", *size, "--s", "3", "--out", str(rule_path)]) == 0
        calls, dual_search = [], getattr(home, search)

        def counted(rule):
            calls.append(1)
            return dual_search(rule)
        monkeypatch.setattr(home, search, counted)
        assert run(["evaluate", str(rule_path), "--alpha", "1", "--weights", "product:j^-2",
                    "--rho", "--discrepancy", "--out", str(tmp_path / "e.json")]) == 0
        assert len(calls) == 1

    def test_changed_parameters(self, tmp_path):
        # evaluating under different (alpha, gamma): the stability use case
        rule_path = tmp_path / "rule.json"
        run(["construct", "--N", "16", "--s", "2", "--alpha", "1",
             "--weights", "product:j^-2", "--out", str(rule_path)])
        out = tmp_path / "rep.json"
        assert run(["evaluate", str(rule_path), "--alpha", "2",
                    "--weights", "product:j^-4", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["P"] > 0


class TestCertify:
    @pytest.fixture
    def lattice_rule_file(self, tmp_path):
        rule_path = tmp_path / "rule.json"
        run(["construct", "--N", "16", "--s", "2", "--alpha", "1",
             "--weights", "product:j^-2", "--out", str(rule_path)])
        return rule_path

    @pytest.fixture
    def poly_rule_file(self, tmp_path):
        rule_path = tmp_path / "rule.json"
        run(["construct", "--kind", "poly-lattice", "--m", "4", "--s", "2",
             "--alpha", "1", "--weights", "product:j^-2", "--out", str(rule_path)])
        return rule_path

    def test_thm1_passes(self, lattice_rule_file, capsys):
        code = run(["certify", str(lattice_rule_file), "--theorem", "thm1",
                    "--alpha", "1", "--weights", "product:j^-2",
                    "--alpha-prime", "2", "--weights-prime", "product:j^-4"])
        assert code == 0
        cert = json.loads(capsys.readouterr().out)
        assert cert["passed"]

    def test_thm1_at_n1021_s4(self, tmp_path, capsys):
        # (N+2)^4 = 1.1e12 cells: out of reach of a dual-box enumeration
        rule_path = tmp_path / "rule.json"
        run(["construct", "--N", "1021", "--s", "4", "--weights", "product:j^-2",
             "--out", str(rule_path)])
        capsys.readouterr()
        assert run(["certify", str(rule_path), "--theorem", "thm1", "--alpha", "1",
                    "--weights", "product:j^-2"]) == 0
        assert json.loads(capsys.readouterr().out)["passed"]

    def test_thm2_passes(self, poly_rule_file, capsys):
        code = run(["certify", str(poly_rule_file), "--theorem", "thm2",
                    "--alpha", "1", "--weights", "product:j^-2",
                    "--alpha-prime", "2", "--weights-prime", "product:j^-4"])
        assert code == 0

    def test_jensen(self, lattice_rule_file):
        assert run(["certify", str(lattice_rule_file), "--theorem", "jensen",
                    "--alpha", "1", "--weights", "product:j^-2",
                    "--delta", "0.5"]) == 0

    def test_jensen_poly(self, poly_rule_file):
        assert run(["certify", str(poly_rule_file), "--theorem", "jensen",
                    "--alpha", "1", "--weights", "product:j^-2",
                    "--delta", "0.5"]) == 0

    @pytest.mark.parametrize("selector, family", [
        ("thm1", "poly"), ("prop1", "poly"), ("eq1", "poly"),
        ("thm2", "lattice"), ("prop2", "lattice")])
    def test_selector_of_the_other_family(self, selector, family, request, capsys):
        rule_file = request.getfixturevalue(f"{family}_rule_file")
        capsys.readouterr()
        assert run(["certify", str(rule_file), "--theorem", selector,
                    "--alpha", "1", "--weights", "product:j^-2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {selector} applies to ") and err.count("\n") == 1
        if selector in ("thm1", "thm2"):  # sweep --certify refuses it alike
            kind, grid = (("poly-lattice", ["--m-grid", "3,4"]) if family == "poly"
                          else ("lattice", ["--N-grid", "17,31"]))
            assert run(["sweep", "--kind", kind, *grid, "--s", "2", "--certify", selector]) == 2
            assert capsys.readouterr() == ("", err)

    def test_series_box_counts_coordinates_2_to_s(self, tmp_path, capsys):
        # alpha' = 1.5 takes the series at K = N = 359: 719^2 cells over coordinates 2..3
        rule_path = tmp_path / "rule.json"
        assert run(["construct", "--N", "359", "--s", "3", "--out", str(rule_path)]) == 0
        capsys.readouterr()
        assert run(["certify", str(rule_path), "--theorem", "thm1", "--alpha", "1",
                    "--weights", "product:j^-2", "--alpha-prime", "1.5"]) == 0
        assert json.loads(capsys.readouterr().out)["passed"]

    def test_oversized_series_box_exit_three(self, tmp_path):
        # 719^3 cells over coordinates 2..4 exceed the series cap
        rule_path = tmp_path / "rule.json"
        rule_path.write_text(json.dumps({"type": "lattice", "N": 359, "z": [1, 105, 82, 17]}))
        assert run(["certify", str(rule_path), "--theorem", "jensen", "--alpha", "1.5",
                    "--weights", "product:j^-2"]) == 3

    def test_nonmonotone_usage_error(self, lattice_rule_file):
        code = run(["certify", str(lattice_rule_file), "--theorem", "thm1",
                    "--alpha", "1", "--weights", "explicit:1=0.1;1,2=0.5"])
        assert code == 2

    def test_failed_certificate_exit_one(self, tmp_path):
        # a deliberately bad vector violates the CBC guarantee at alpha = 2
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"type": "lattice", "N": 16, "z": [1, 1]}))
        code = run(["certify", str(bad), "--theorem", "prop1",
                    "--alpha", "2", "--weights", "order:1,1"])
        assert code == 1

    def test_prop2(self, poly_rule_file):
        assert run(["certify", str(poly_rule_file), "--theorem", "prop2",
                    "--alpha", "1", "--weights", "product:j^-2",
                    "--lambda", "0.75"]) == 0

    def test_thm2_poly_m16_s4(self, tmp_path, capsys):
        # a frequency box of (2^17)^4 cells: the dual minima must not enumerate it
        rule_path = tmp_path / "rule.json"
        assert run(["construct", "--kind", "poly-lattice", "--b", "2", "--m", "16", "--s", "4",
                    "--random", "--out", str(rule_path)]) == 0
        capsys.readouterr()
        assert run(["certify", str(rule_path), "--theorem", "thm2",
                    "--alpha", "1", "--weights", "product:j^-2"]) == 0
        cert = json.loads(capsys.readouterr().out)
        assert cert["passed"] and cert["components"]["rho"] > 0

    def test_prop2_poly_b3_m5_s3(self, tmp_path):
        # a frequency box of 3^18 cells, about 3 GB as int64
        rule_path = tmp_path / "rule.json"
        assert run(["construct", "--kind", "poly-lattice", "--b", "3", "--m", "5", "--s", "3",
                    "--out", str(rule_path)]) == 0
        assert run(["certify", str(rule_path), "--theorem", "prop2",
                    "--alpha", "1", "--weights", "product:j^-2"]) == 0


class TestCertifyHighDimension:
    """eq1 needs neither rho nor the dual minima, so it reaches s = 32."""

    @pytest.fixture(scope="class")
    def rule_s32(self, tmp_path_factory):
        rule_path = tmp_path_factory.mktemp("s32") / "rule.json"
        assert run(["construct", "--N", "4093", "--s", "32", "--fast",
                    "--out", str(rule_path)]) == 0
        return rule_path

    def test_eq1_passes(self, rule_s32, capsys):
        capsys.readouterr()
        assert run(["certify", str(rule_s32), "--theorem", "eq1", "--alpha", "1",
                    "--weights", "product:j^-2"]) == 0
        cert = json.loads(capsys.readouterr().out)
        assert cert["passed"] and not cert["vacuous"] and math.isfinite(cert["rhs"])

    def test_target_weights_short_of_s_usage_error(self, rule_s32):
        # gamma' defined up to s_max = 25 < s = 32
        assert run(["certify", str(rule_s32), "--theorem", "eq1", "--alpha", "1",
                    "--weights", "product:j^-2",
                    "--weights-prime", "product:" + ",".join(["0.5"] * 25)]) == 2


class TestSweep:
    def test_csv_with_slope(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run(["sweep", "--kind", "lattice", "--N-grid", "17,31,61",
                    "--s", "2", "--alpha", "1", "--weights", "product:j^-2",
                    "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("N_or_m,")
        assert len(lines) == 5  # header + 3 rows + slope footer
        assert lines[-1].startswith("# slope_log_sqrtP_vs_log_N")
        slope = float(lines[-1].split("=")[1])
        assert slope < -0.5

    def test_empty_grid_usage_error(self):
        assert run(["sweep", "--kind", "lattice", "--N-grid", "",
                    "--s", "2", "--alpha", "1", "--weights", "product:j^-2"]) == 2

    def test_certify_column(self, tmp_path, capsys):
        code = run(["sweep", "--kind", "lattice", "--N-grid", "8,16",
                    "--s", "2", "--alpha", "1", "--weights", "product:j^-2",
                    "--certify", "thm1"])
        assert code == 0
        outtext = capsys.readouterr().out
        assert "passed" in outtext.splitlines()[0]
        assert all("True" in line for line in outtext.splitlines()[1:3])

    def test_thm1_column_follows_certificate_caps(self, tmp_path):
        # the lattice dual minima are capped at N <= 1024
        out = tmp_path / "sweep.csv"
        assert run(["sweep", "--kind", "lattice", "--N-grid", "31,61,127,251,509,1021,2039",
                    "--s", "3", "--alpha", "1", "--weights", "product:j^-2",
                    "--out", str(out)]) == 0
        rows = {int(row["N_or_m"]): float(row["thm1_rhs"])
                for row in csv.DictReader(out.read_text().splitlines()[:-1])}
        assert math.isfinite(rows[251])
        assert math.isfinite(rows[509]) and math.isfinite(rows[1021])
        assert math.isnan(rows[2039])

    def test_nonmonotone_weights_without_certify(self, tmp_path):
        # P and prop_bound need no monotone weights; Theorem 1 does
        out = tmp_path / "sweep.csv"
        assert run(["sweep", "--kind", "lattice", "--N-grid", "31", "--s", "2",
                    "--weights", "product:2,1", "--out", str(out)]) == 0
        row = next(csv.DictReader(out.read_text().splitlines()[:-1]))
        assert math.isnan(float(row["thm1_rhs"])) and math.isfinite(float(row["P"]))

    def test_nonmonotone_weights_with_certify(self):
        assert run(["sweep", "--kind", "lattice", "--N-grid", "31", "--s", "2",
                    "--weights", "product:2,1", "--certify", "thm1"]) == 2

    def test_nonmonotone_weights_poly_keeps_theorem2(self, tmp_path):
        # Theorem 2 (Walsh stability) needs no monotone weights
        out = tmp_path / "sweep.csv"
        assert run(["sweep", "--kind", "poly-lattice", "--m-grid", "4", "--s", "2",
                    "--weights", "product:2,1", "--out", str(out)]) == 0
        row = next(csv.DictReader(out.read_text().splitlines()[:-1]))
        assert math.isfinite(float(row["thm1_rhs"]))

    def test_rows_in_grid_order(self, capsys):
        code = run(["sweep", "--kind", "lattice", "--N-grid", "8,16,32",
                    "--s", "2", "--alpha", "1", "--weights", "product:j^-2"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert [line.split(",")[0] for line in lines[1:4]] == ["8", "16", "32"]

    def test_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"N-grid": "8,16", "s": 2, "alpha": 1,
                                   "weights": "product:j^-2"}))
        assert run(["sweep", "--kind", "lattice", "--config", str(cfg)]) == 0


def exit_code(args):
    """main's return code, or the code argparse exits with on a bad flag."""
    try:
        return run(args)
    except SystemExit as exc:
        return exc.code


class TestConfigPrecedence:
    def construct(self, tmp_path, cfg, *flags):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "rule.json"
        code = exit_code(["construct", "--config", str(cfg_path), *flags, "--out", str(out)])
        return code, (json.loads(out.read_text()) if code == 0 else None)

    def test_config_overrides_defaults(self, tmp_path):
        code, obj = self.construct(tmp_path, {"N": 31, "s": 4, "alpha": 2,
                                              "weights": "product:j^-3"})
        assert code == 0
        assert obj["N"] == 31 and len(obj["z"]) == 4 and obj["alpha"] == 2.0
        assert obj["weights"] == parse_weights("product:j^-3", 4).to_jsonable()
        # a JSON true sets a flag: the FFT scan, whose z_2 at N = 2027 can differ from
        # the direct scan's within its tie class
        _, fast = self.construct(tmp_path, {}, "--N", "2027", "--s", "3", "--fast")
        code, obj = self.construct(tmp_path, {"N": 2027, "s": 3, "fast": True})
        assert code == 0 and obj == fast

    def test_weight_object_in_config(self, tmp_path):
        weights = {"kind": "product", "gamma": [1.0, 0.25]}
        code, obj = self.construct(tmp_path, {"N": 31, "s": 2, "weights": weights})
        assert code == 0
        assert obj["weights"] == weights
        # a formula string in place of the gamma list gives the command line's weights
        for weights, spec in (({"kind": "product", "gamma": "j^-2"}, "product:j^-2"),
                              ({"kind": "pod", "Gamma": [1, 2, 6], "gamma": "j^-2"},
                               "pod:1,2,6|j^-2")):
            code, obj = self.construct(tmp_path, {"N": 31, "s": 3, "weights": weights})
            _, direct = self.construct(tmp_path, {"N": 31, "s": 3}, "--weights", spec)
            assert code == 0 and obj["trace"] == direct["trace"]

    def test_command_line_overrides_config(self, tmp_path):
        code, obj = self.construct(tmp_path, {"N": 31, "s": 4, "alpha": 2}, "--s", "2")
        assert code == 0
        assert len(obj["z"]) == 2 and obj["alpha"] == 2.0

    def test_defaults_fill_missing_keys(self, tmp_path):
        code, obj = self.construct(tmp_path, {"N": 31})
        assert code == 0
        assert len(obj["z"]) == 1 and obj["alpha"] == 1.0
        assert obj["weights"] == parse_weights("product:j^-2", 1).to_jsonable()

    def test_explicit_zero_beats_config(self, tmp_path):
        flags = ["--N", "101", "--s", "3", "--random"]
        _, direct = self.construct(tmp_path, {}, *flags, "--seed", "0")
        _, seeded = self.construct(tmp_path, {"seed": 5}, *flags)
        code, obj = self.construct(tmp_path, {"seed": 5}, *flags, "--seed", "0")
        assert code == 0
        assert obj["z"] == direct["z"] != seeded["z"]

    def test_unknown_key_usage_error(self, tmp_path):
        code, _ = self.construct(tmp_path, {"N": 31, "dimension": 4})
        assert code == 2

    def test_bad_choice_usage_error(self, tmp_path):
        code, _ = self.construct(tmp_path, {"N": 31, "kind": "korobov"})
        assert code == 2

    def test_required_flags_from_config(self, tmp_path):
        rule_path = tmp_path / "rule.json"
        run(["construct", "--N", "16", "--s", "2", "--out", str(rule_path)])
        cfg = tmp_path / "eval.json"
        cfg.write_text(json.dumps({"alpha": 1, "weights": "product:j^-2"}))
        out = tmp_path / "rep.json"
        assert run(["evaluate", str(rule_path), "--config", str(cfg), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["P"] > 0
        cfg.write_text(json.dumps({"alpha": 1}))
        assert exit_code(["evaluate", str(rule_path), "--config", str(cfg)]) == 2


@pytest.mark.parametrize("args, rule", [
    (["construct", "--N", "31", "--s", "2", "--weights", "product:1,x"], None),
    (["construct", "--N", "31", "--s", "2", "--weights", "explicit:1=abc"], None),
    (["construct", "--kind", "poly-lattice", "--m", "3", "--p", "1,x"], None),
    (["sweep", "--N-grid", "17,x"], None),
    (["evaluate", "RULE", "--alpha", "1", "--weights", "product:j^-2"], {"type": "lattice"}),
    (["evaluate", "RULE", "--alpha", "1", "--weights", "product:j^-2"],
     {"type": "lattice", "N": 31, "z": [1, "x"]}),
    (["evaluate", "RULE", "--alpha", "1", "--weights", "product:j^-2"], [31, 1]),
    # non-integer fields are refused, not truncated to N=31, z=(1, 12) or m=3
    (["evaluate", "RULE", "--alpha", "1", "--weights", "product:j^-2"],
     {"type": "lattice", "N": 31.7, "z": [1, 12.9]}),
    (["evaluate", "RULE", "--alpha", "1", "--weights", "product:j^-2"],
     {"type": "poly-lattice", "b": 2, "m": 3.5, "p": [1, 1, 0, 1], "q": [[1], [0, 1]]}),
    (["evaluate", "RULE", "--alpha", "1", "--weights", "product:j^-2"],
     {"type": "poly-lattice", "b": 2, "m": 3, "p": [1, 1, 0, 1], "q": [[1], [0, 1.5]]}),
    # refused before the draw from the empty range 1..N-1, as without --random
    (["construct", "--N", "0", "--s", "2", "--random"], None),
    (["construct", "--N", "1", "--s", "2", "--random"], None),
    # alpha outside the closed forms 1..4, refused before the kernel table is indexed
    (["construct", "--N", "31", "--s", "2", "--alpha", "5"], None),
    (["sweep", "--N-grid", "31,61", "--s", "2", "--alpha", "5"], None),
    # degree m = 0, refused by the modulus rule before any table or draw
    (["construct", "--kind", "poly-lattice", "--m", "0", "--p", "1", "--s", "2"], None),
    (["construct", "--kind", "poly-lattice", "--m", "0", "--p", "1", "--s", "2", "--random"], None),
    # the FFT scan is for lattice rules only; --fast is refused, not dropped
    (["construct", "--kind", "poly-lattice", "--m", "4", "--s", "2", "--fast"], None),
    # an infinite alpha or alpha' is refused by SpaceParams, not met by an
    # OverflowError, a failed selection over NaN merits or a ZeroDivisionError
    (["construct", "--N", "31", "--s", "2", "--alpha", "inf"], None),
    (["construct", "--kind", "poly-lattice", "--m", "3", "--s", "2", "--alpha", "inf"], None),
    (["certify", "RULE", "--theorem", "thm1", "--alpha", "1", "--weights", "product:j^-2",
      "--alpha-prime", "inf"], {"type": "lattice", "N": 31, "z": [1, 12]}),
    # --random runs no search, so --fast with it is refused, not dropped
    (["construct", "--N", "31", "--s", "2", "--random", "--fast"], None),
    (["construct", "--kind", "poly-lattice", "--m", "3", "--s", "2", "--random", "--fast"], None),
    # a finite alpha or alpha' whose b^(2 alpha) or 2^(4 alpha') leaves float64 is refused
    # where the power is taken, not met by an OverflowError or NaN merits
    (["construct", "--kind", "poly-lattice", "--m", "3", "--s", "2", "--alpha", "600"], None),
    (["certify", "RULE", "--theorem", "thm1", "--alpha", "1", "--weights", "product:j^-2",
      "--alpha-prime", "400"], {"type": "lattice", "N": 359, "z": [1, 105, 82, 48]}),
    (["construct", "--kind", "poly-lattice", "--m", "3", "--s", "2", "--alpha", "1e308"], None),
    # gamma_j^(alpha'/alpha) = (2^-9)^500 underflows to 0, refused before it divides
    (["certify", "RULE", "--theorem", "thm2", "--alpha", "0.6", "--weights", "product:j^-9",
      "--alpha-prime", "300"],
     {"type": "poly-lattice", "b": 2, "m": 8, "p": [1, 1, 0, 1, 1, 0, 0, 0, 1],
      "q": [[1], [0, 0, 1, 0, 0, 0, 1, 1], [1, 0, 1, 1, 1, 0, 0, 1], [0, 0, 0, 0, 0, 1, 1, 1]]}),
    # 2 alpha lambda overflows to inf, refused before zeta(inf) reaches the rhs
    (["certify", "RULE", "--theorem", "prop1", "--alpha", "1e308", "--weights", "product:j^-2"],
     {"type": "lattice", "N": 31, "z": [1, 12]}),
    # the CBC rule of N = 4093, s = 16, alpha 3, j^-6 (--fast) has closed-form P < 0
    # at alpha 3 from rounding: P^(2/3) is refused, not compared as a complex number
    (["certify", "RULE", "--theorem", "jensen", "--alpha", "2", "--weights", "product:j^-4",
      "--delta", "0.6666666666666666"],
     {"type": "lattice", "N": 4093, "z": [1, 3379, 461, 1724, 1060, 2746, 3933, 1548, 3874, 2565,
                                          3707, 3592, 1466, 2845, 2867, 950]}),
    # a config file that holds a JSON array, not an object
    (["construct", "--config", "RULE"], [{"N": 31}]),
    (["construct", "--s", "2"], None),
    (["sweep", "--N-grid", ","], None),
    (["construct", "--N", "31", "--s", "2", "--weights", "foo:1"], None),
    (["construct", "--N", "31", "--s", "2", "--weights", "{bad"], None),
    # weights past float64 make every merit NaN or inf: refused where the merit is
    # formed, not met by a failed selection or written to JSON as NaN or Infinity
    (["construct", "--N", "31", "--s", "3", "--weights", OVERFLOW], None),
    (["evaluate", "RULE", "--alpha", "1", "--weights", OVERFLOW],
     {"type": "lattice", "N": 31, "z": [1, 12, 5]}),
    (["evaluate", "RULE", "--alpha", "1", "--weights", OVERFLOW, "--series-K", "40"],
     {"type": "lattice", "N": 31, "z": [1, 12, 5]}),
    # (N - 1)^2 would pass int64, so the points would be wrong
    (["evaluate", "RULE", "--alpha", "1", "--weights", "product:j^-2"],
     {"type": "lattice", "N": 4294967311, "z": [1, 3000000019]}),
])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_malformed_input_usage_error(tmp_path, capsys, args, rule):
    # malformed input exits 2 with one line, not 1 (certificate failure) with a traceback
    rule_path = tmp_path / "rule.json"
    rule_path.write_text(json.dumps(rule))
    assert run([str(rule_path) if a == "RULE" else a for a in args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("args", [
    ["construct", "--N", "1000000007", "--s", "1", "--random"],
    ["construct", "--kind", "poly-lattice", "--b", "7", "--m", "11", "--s", "1", "--random"],
])
def test_out_of_memory_exit_three(tmp_path, args):
    # each needs an array of several GiB; under a 2 GiB address-space limit numpy's
    # MemoryError exits 3 with one line, not 1 (certificate failure) with a traceback
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    src = str(Path(qmcforge.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-m", "qmcforge.cli", *args], cwd=tmp_path,
                         capture_output=True, text=True, preexec_fn=limit, timeout=120,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.returncode == 3, out.stderr
    assert out.stderr.startswith("resource limit: ") and out.stderr.count("\n") == 1
