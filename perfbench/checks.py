"""Output checks that do not depend on how qmcforge computes its results.

* P is recomputed here from the emitted rule, by formulas written out
  independently of the package: the Bernoulli-polynomial kernel for lattice
  rules and the digit-sum Walsh kernel for polynomial lattice rules, whose
  points come from a long division over Z_b.
* rho <= P, bound_joe >= the exact D*, every certificate passes, every
  sweep row's P is within the CBC guarantee, and the --fast scan picks the
  same vector as the direct one.
* The generating vectors and the P, rho and certificate values agree with
  reference.json, recorded from the same jobs, within REL_TOL.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

import numpy as np

REL_TOL = 1e-12

# (2 pi)^(2 alpha) / ((-1)^(alpha+1) (2 alpha)!) * B_{2 alpha}(x), as monomial
# coefficients of B_2 and B_4, highest degree first.
_BERNOULLI = {1: (1.0, -1.0, 1.0 / 6), 2: (1.0, -2.0, 1.0, 0.0, -1.0 / 30)}


def _gammas(kind: str, a: float, s: int) -> tuple[np.ndarray, np.ndarray | None]:
    gamma = np.arange(1, s + 1, dtype=np.float64) ** -float(a)
    Gamma = np.asarray([math.factorial(k) for k in range(1, s + 1)], dtype=np.float64)
    return gamma, (Gamma if kind == "pod" else None)


def _weighted_mean(factors: np.ndarray, gamma: np.ndarray,
                   Gamma: np.ndarray | None) -> tuple[float, float]:
    """(1/n) sum over points of sum over nonempty u of gamma_u prod_{j in u} factors,
    and the rounding allowance of that value.

    The allowance is a first-order bound on the rounding error of two such
    evaluations, this one and the program's, each in any order: (s + log2 n)
    units of roundoff times the same sum taken over |factors| with the
    cancelling 1 included.  Small P at large n loses digits to that
    cancellation (5e-11 relative at N=262139, s=32), so a fixed relative
    tolerance would reject correct outputs.
    """
    n, s = factors.shape
    t = factors * gamma[None, :]
    if Gamma is None:
        value = float(np.mean(np.prod(1.0 + t, axis=1) - 1.0))
        size = float(np.mean(np.prod(1.0 + np.abs(t), axis=1)))
    else:
        # POD: gamma_u = Gamma_|u| prod gamma_j, grouped by |u| through the
        # elementary symmetric polynomials of the columns.
        sums = []
        for cols in (t.T, np.abs(t.T)):
            e = np.zeros((s + 1, n))  # e[k] = e_k of the columns seen so far
            e[0] = 1.0
            for j in range(s):
                e[1:j + 2] += cols[j] * e[0:j + 1]
            sums.append(float(np.mean(Gamma @ e[1:])))
        value, size = sums[0], 1.0 + sums[1]
    return value, 2.0 * (s + math.log2(n)) * np.finfo(float).eps * size


def lattice_p(N: int, z: list[int], alpha: int, kind: str, a: float) -> tuple[float, float]:
    x = (np.arange(N, dtype=np.int64)[:, None] * np.asarray(z, dtype=np.int64)[None, :]) % N / N
    b2a = np.zeros_like(x)
    for c in _BERNOULLI[alpha]:
        b2a = b2a * x + c
    scale = (2.0 * math.pi) ** (2 * alpha) / math.factorial(2 * alpha) * (-1) ** (alpha + 1)
    return _weighted_mean(scale * b2a, *_gammas(kind, a, len(z)))


def _poly_divmod(num: list[int], p: list[int], b: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder over Z_b; coefficients lowest degree first."""
    num = list(num)
    m = len(p) - 1
    inv = pow(p[m], -1, b)
    quot = [0] * max(len(num) - m, 1)
    for k in range(len(num) - 1, m - 1, -1):
        c = num[k] * inv % b
        quot[k - m] = c
        for i in range(m + 1):
            num[k - m + i] = (num[k - m + i] - c * p[i]) % b
    return quot, num[:m]


def _poly_mul(a: list[int], c: list[int], b: int) -> list[int]:
    out = [0] * (len(a) + len(c) - 1)
    for i, ai in enumerate(a):
        for k, ck in enumerate(c):
            out[i + k] = (out[i + k] + ai * ck) % b
    return out


def poly_numerators(b: int, m: int, p: list[int], q: list[int]) -> np.ndarray:
    """Numerators over b^m of the coordinate n q / p for every n in G_m.

    With r = n q mod p, the first m Laurent digits of r / p are the
    coefficients of floor(r x^m / p), so the numerator is its base-b code.
    The map n -> digits is Z_b-linear, so it is built from n = 1, x, ..., x^(m-1).
    """
    basis = np.zeros((m, m), dtype=np.int64)  # basis[k] = digits (x^0..x^(m-1)) of x^k q / p
    for k in range(m):
        _, r = _poly_divmod(_poly_mul([0] * k + [1], q, b), p, b)
        quot, _ = _poly_divmod([0] * m + r, p, b)
        basis[k, :len(quot)] = quot[:m]
    codes = np.arange(b ** m)
    ncoef = (codes[:, None] // b ** np.arange(m)[None, :]) % b
    digits = (ncoef @ basis) % b
    return digits @ (b ** np.arange(m))


def walsh_kernel(b: int, m: int, alpha: float) -> np.ndarray:
    """phi(x) = sum_{k >= 1} b^(-2 alpha mu(k)) wal_k(x) at x = numer / b^m.

    The k with mu(k) = j sum to b^(j-1)(b-1) when the first j digits of x are
    zero, to -b^(j-1) when digit j is its first nonzero digit, and to 0 after.
    """
    r = float(b) ** (1.0 - 2.0 * alpha)
    out = np.empty(b ** m)
    out[0] = (b - 1) / b * r / (1.0 - r)
    for numer in range(1, b ** m):
        first = m + 1  # position of the first nonzero digit of numer / b^m
        while numer >= b ** (m - first + 1):
            first -= 1
        out[numer] = (b - 1) / b * sum(r ** j for j in range(1, first)) - r ** first / b
    return out


def poly_p(b: int, m: int, p: list[int], q: list[list[int]], alpha: float,
           a: float) -> tuple[float, float]:
    numer = np.stack([poly_numerators(b, m, p, qj) for qj in q], axis=1)
    return _weighted_mean(walsh_kernel(b, m, alpha)[numer], *_gammas("product", a, len(q)))


def rel_close(x, y, tol: float = REL_TOL) -> bool:
    if isinstance(x, str) or isinstance(y, str) or x is None or y is None:
        return x == y
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    return abs(x - y) <= tol * max(abs(x), abs(y))


def independent_p(rule: dict, alpha: int, kind: str, a: float) -> tuple[float, float]:
    """P of the rule and its rounding allowance (see _weighted_mean)."""
    if rule["type"] == "lattice":
        return lattice_p(rule["N"], rule["z"], alpha, kind, a)
    return poly_p(rule["b"], rule["m"], rule["p"], rule["q"], alpha, a)


def read_output(path: Path, verb: str):
    text = path.read_text()
    if verb != "sweep":
        return json.loads(text)
    rows = [row for row in csv.DictReader(io.StringIO(text)) if not row["N_or_m"].startswith("#")]
    return [{k: float(v) for k, v in row.items() if v not in ("", "True", "False")}
            for row in rows]


def reference_values(verb: str, out) -> dict:
    """The values the reference pins for one job's output."""
    if verb == "construct":
        if out["type"] == "lattice":
            return {"z": out["z"]}
        return {"p": out["p"], "q": out["q"]}
    if verb == "evaluate":
        return {"P": out["P"], "rho": out["rho"]}
    if verb == "certify":
        return {k: out[k] for k in ("lhs", "rhs", "passed", "vacuous")}
    return {"rows": [{k: row[k] for k in ("N_or_m", "P", "prop_bound", "thm1_rhs")}
                     for row in out]}


def compare(expected, got, where: str = "") -> list[str]:
    if isinstance(expected, dict):
        if not isinstance(got, dict) or set(expected) != set(got):
            return [f"{where}: keys {sorted(got) if isinstance(got, dict) else got} "
                    f"!= {sorted(expected)}"]
        return [e for k in expected for e in compare(expected[k], got[k], f"{where}.{k}")]
    if isinstance(expected, list):
        if not isinstance(got, list) or len(got) != len(expected):
            return [f"{where}: {got} != {expected}"]
        return [e for i, (x, y) in enumerate(zip(expected, got))
                for e in compare(x, y, f"{where}[{i}]")]
    if isinstance(expected, (bool, int)) and not isinstance(expected, float):
        return [] if got == expected else [f"{where}: {got} != {expected}"]
    return [] if rel_close(expected, got) else [f"{where}: {got!r} != {expected!r}"]


def check_output(job, out, values: dict, rules: dict, outputs: dict,
                 p_cache: dict) -> list[str]:
    """Errors in one successful job's output; empty when it is correct.

    ``rules`` maps job names to the rule JSON they wrote, ``outputs`` to their
    parsed outputs in this pass, and ``p_cache`` keeps independent P values.
    """
    spec = job.spec
    errors = []
    if spec.merit is not None:
        rule = out if spec.verb == "construct" else rules[spec.reads[0]]
        m = spec.merit
        key = (json.dumps([rule.get("N"), rule.get("z"), rule.get("b"), rule.get("p"),
                           rule.get("q")]), m.alpha, m.kind, values[m.axis])
        if key not in p_cache:
            p_cache[key] = independent_p(rule, m.alpha, m.kind, values[m.axis])
        want, allowance = p_cache[key]
        got = out["trace"][-1]["merit"] if spec.verb == "construct" else out["P"]
        if not abs(got - want) <= REL_TOL * abs(want) + allowance:
            errors.append(f"P = {got!r}, recomputed {want!r} +- {allowance:.3g}")
    if spec.twin is not None and spec.twin in outputs:
        if out["z"] != outputs[spec.twin]["z"]:
            errors.append(f"z differs from {spec.twin}")
    if spec.verb == "evaluate":
        if out.get("rho") is not None and not out["rho"] <= out["P"]:
            errors.append(f"rho {out['rho']!r} > P {out['P']!r}")
        disc = out.get("discrepancy") or {}
        if disc.get("exact_dstar") is not None and not disc["bound_joe"] >= disc["exact_dstar"]:
            errors.append(f"bound_joe {disc['bound_joe']!r} < exact D* {disc['exact_dstar']!r}")
    if spec.verb == "certify" and out.get("passed") is not True:
        errors.append("certificate did not pass")
    if spec.verb == "sweep":  # every row is a CBC rule, so its P meets the CBC guarantee
        errors += [f"row {row['N_or_m']:g}: P {row['P']!r} > CBC bound {row['prop_bound']!r}"
                   for row in out if not row["P"] <= row["prop_bound"]]
    return errors


def check_reference(job, out, reference: dict) -> list[str]:
    expected = reference.get(job.key)
    if expected is None:
        return [f"no reference recorded for {job.key}"]
    return compare(expected, reference_values(job.spec.verb, out), job.spec.name)
