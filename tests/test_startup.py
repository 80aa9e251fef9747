"""Start-up import sets: each CLI verb loads only the modules it runs.

Every case runs in a fresh interpreter and reads its ``sys.modules`` after the
import or the verb, so no module loaded by another test can hide a load.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qmcforge

SRC = str(Path(qmcforge.__file__).resolve().parents[1])
RULE = {"type": "lattice", "N": 31, "z": [1, 12]}
CONSTRUCT_LATTICE = ["construct", "--N", "31", "--s", "2", "--out", "lattice.json"]
CONSTRUCT_POLY = ["construct", "--kind", "poly-lattice", "--b", "2", "--m", "4", "--s", "2",
                  "--out", "poly.json"]
EVALUATE = ["evaluate", "rule.json", "--alpha", "1", "--weights", "product:j^-2",
            "--out", "report.json"]


def loaded_after(code: str, cwd: Path) -> set[str]:
    """The module names loaded once code has run in a fresh interpreter."""
    probe = f"{code}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", probe], cwd=cwd, capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": SRC}, timeout=120)
    assert out.returncode == 0, out.stderr
    return set(json.loads(out.stdout.splitlines()[-1]))


def loaded_after_cli(argv: list[str], cwd: Path) -> set[str]:
    return loaded_after(f"from qmcforge.cli import main\nassert main({argv!r}) == 0", cwd)


def package(*names: str) -> set[str]:
    return {f"qmcforge.{name}" for name in names}


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "rule.json").write_text(json.dumps(RULE))
    return tmp_path


def test_package_import_loads_no_submodule(workdir):
    loaded = loaded_after("import qmcforge", workdir)
    assert not {name for name in loaded if name.startswith("qmcforge.")}


def test_lazy_name_loads_its_module(workdir):
    loaded = loaded_after("from qmcforge import GFPoly", workdir)
    assert {name for name in loaded if name.startswith("qmcforge.")} == package("errors", "gfpoly")


def test_cli_import_loads_errors_and_weights_only(workdir):
    loaded = loaded_after("import qmcforge.cli", workdir)
    assert {name for name in loaded if name.startswith("qmcforge.")} == package(
        "cli", "errors", "weights")
    assert not loaded & {"concurrent.futures", "csv"}


def test_oracle_is_not_in_the_package():
    # the brute-force references live with the tests they serve
    assert importlib.util.find_spec("qmcforge.oracle") is None


def test_lattice_construct(workdir):
    loaded = loaded_after_cli(CONSTRUCT_LATTICE, workdir)
    assert package("cbc", "korobov") <= loaded
    assert not loaded & package("walsh", "gfpoly", "stability", "discrepancy")
    assert "concurrent.futures" not in loaded


def test_poly_construct(workdir):
    loaded = loaded_after_cli(CONSTRUCT_POLY, workdir)
    assert package("gfpoly", "walsh") <= loaded
    assert not loaded & package("stability", "discrepancy")


def test_evaluate_loads_discrepancy_only_when_asked(workdir):
    loaded = loaded_after_cli(EVALUATE, workdir)
    assert "qmcforge.stability" in loaded
    assert not loaded & package("discrepancy")
    assert "qmcforge.discrepancy" in loaded_after_cli(EVALUATE + ["--discrepancy"], workdir)


def test_lattice_evaluate_and_certify_skip_the_polynomial_modules(workdir):
    certify = ["certify", "rule.json", "--theorem", "thm1", "--alpha", "1",
               "--weights", "product:j^-2", "--out", "cert.json"]
    for argv in (EVALUATE, EVALUATE + ["--rho", "--discrepancy"], certify):
        loaded = loaded_after_cli(argv, workdir)
        assert "qmcforge.stability" in loaded
        assert not loaded & package("walsh", "gfpoly", "cbc")


def test_sweep_loads_no_thread_pool(workdir):
    loaded = loaded_after_cli(["sweep", "--N-grid", "17,31", "--out", "sweep.csv"], workdir)
    assert "csv" in loaded
    assert "concurrent.futures" not in loaded
