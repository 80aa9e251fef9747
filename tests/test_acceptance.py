"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Expected values tagged as derived in the module tests were computed
from the independent oracles in tests/oracle.py (dual enumeration, reference
Laurent division, reference star discrepancy) before being frozen here.
"""

import math

import numpy as np

from conftest import (lattice_modulus, poly_modulus, random_lattice_rules, random_poly_rules,
                      rosser_schoenfeld_holds, totient_sieve, with_phi0)
from oracle import _base_digits, _poly_digits_mod, _poly_digits_mul
from qmcforge.cbc import cbc_construct
from qmcforge.discrepancy import (star_disc_bound, star_disc_bound_rho,
                                  weighted_exact_star_discrepancy)
from qmcforge.gfpoly import GFPoly, smallest_irreducible
from qmcforge.korobov import LatticeRule, dual_product_minima, p_merit_closed, p_merit_series
from qmcforge.stability import jensen_certificate, prop_certificate, stability_bound
from qmcforge.walsh import PolyLatticeRule, dual_mu_minima, p_merit_wal_series
from qmcforge.weights import SpaceParams, WeightSet


def _report(num: int, desc: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[AC{num:02d}] {desc}: {status}{'  ' + detail if detail else ''}")
    assert ok, f"criterion {num} failed: {desc} {detail}"


def _product_weights(expo: float, s: int) -> WeightSet:
    return WeightSet.product([float(j) ** expo for j in range(1, s + 1)])


def _unit_weights(s: int) -> WeightSet:
    return WeightSet.order_dependent([1.0] * s)


# ---------------------------------------------------------------------------
# criterion 1: character-sum identities, exhaustively at desk scale
# ---------------------------------------------------------------------------

def test_criterion_01_character_sums():
    # Lattice: for the node set x_n = ((n z_j mod N)/N)_j the phase of
    # exp(2 pi i k . x_n) is exactly n (k . z) mod N over N, so the character
    # sum depends on the residue r = k . z mod N alone.  Compute the sum
    # honestly per residue, then sweep every (z, k) pair through the table.
    worst = 0.0
    pairs = 0
    for N in range(2, 33):
        roots = np.exp(2j * np.pi * np.arange(N) / N)
        n = np.arange(N)
        table = np.empty(N)
        for r in range(N):
            s_val = roots[(n * r) % N].mean()
            table[r] = abs(s_val - (1.0 if r == 0 else 0.0))
        k_axis = np.arange(-2 * N, 2 * N + 1, dtype=np.int64)
        # s = 1
        z1 = np.arange(1, N, dtype=np.int64)
        res = (z1[:, None] * k_axis[None, :]) % N
        worst = max(worst, float(table[res].max()))
        pairs += res.size
        # s = 2, chunked over the z grid
        k1 = np.repeat(k_axis, k_axis.size)
        k2 = np.tile(k_axis, k_axis.size)
        zpairs = np.array([(a, b) for a in range(1, N) for b in range(1, N)],
                          dtype=np.int64)
        for start in range(0, len(zpairs), 64):
            chunk = zpairs[start:start + 64]
            res = (chunk[:, 0:1] * k1[None, :] + chunk[:, 1:2] * k2[None, :]) % N
            worst = max(worst, float(table[res].max()))
            pairs += res.size
    _report(1, "lattice character sums (N<=32, s<=2, |k|<=2N)", worst < 1e-9,
            f"max deviation {worst:.2e} over {pairs} (z,k) pairs")

    # Polynomial lattice: base 2, all moduli of degree m <= 4, all generating
    # vectors, all k_j < 2^(m+1).  Walsh values are +-1, assembled from the
    # exact point digits; membership comes from the oracle's digit-list products
    # and reductions, with residues coded as integers (addition over Z_2 is XOR).
    worst_w = 0.0
    checked = 0
    for m in range(1, 5):
        size, kmax = 2 ** m, 2 ** (m + 1)
        parity = np.array([bin(v).count("1") & 1 for v in range(kmax * size)],
                          dtype=np.int64)
        k_arr = np.arange(kmax, dtype=np.int64)
        for pcode in range(size, 2 * size):
            p = GFPoly.from_code(2, pcode)
            wal = {}
            resid = {}
            for qc in range(1, size):
                q = GFPoly.from_code(2, qc)
                numers = PolyLatticeRule(2, m, p, (q,)).points()[:, 0].tolist()
                X = np.array([int(format(a, f"0{m}b")[::-1], 2) for a in numers],
                             dtype=np.int64)
                wal[qc] = 1.0 - 2.0 * parity[k_arr[:, None] & X[None, :]]
                residues = (_poly_digits_mod(_poly_digits_mul(_base_digits(k, 2, m),
                                                              list(q.coeffs), 2), list(p.coeffs), 2)
                            for k in range(kmax))  # tr_m(k) q mod p
                resid[qc] = np.array([sum(d << i for i, d in enumerate(r)) for r in residues],
                                     dtype=np.int64)
            for qc in range(1, size):
                S = wal[qc].mean(axis=1)
                indicator = (resid[qc] == 0).astype(np.float64)
                worst_w = max(worst_w, float(np.abs(S - indicator).max()))
                checked += kmax
            for q1 in range(1, size):
                for q2 in range(1, size):
                    S = (wal[q1] @ wal[q2].T) / size
                    indicator = ((resid[q1][:, None] ^ resid[q2][None, :]) == 0)
                    worst_w = max(worst_w, float(np.abs(S - indicator).max()))
                    checked += kmax * kmax
    _report(1, "Walsh character sums (b=2, m<=4, s<=2, k<2^(m+1))", worst_w < 1e-9,
            f"max deviation {worst_w:.2e} over {checked} (rule,k) pairs")


# ---------------------------------------------------------------------------
# criterion 2: closed form vs truncated series, within the tail majorant
# ---------------------------------------------------------------------------

def _lattice_config_grid():
    weights_cycle = [
        lambda s: _product_weights(-2.0, s),
        lambda s: _unit_weights(s),
        lambda s: WeightSet.pod([1.0 / k for k in range(1, s + 1)], [1.0] * s),
        lambda s: WeightSet.explicit(
            {tuple(range(1, k + 1)): 0.5 ** k for k in range(1, s + 1)}, s_max=s),
    ]
    configs = []
    i = 0
    for alpha in (1.0, 2.0):
        for s in (1, 2, 3):
            for N in (5, 8, 13, 16, 21, 27, 32, 40, 51, 64):
                if s == 3 and N > 32:
                    continue
                configs.append((N, s, alpha, weights_cycle[i % 4](s)))
                i += 1
    return configs


def test_criterion_02_closed_vs_series():
    configs = _lattice_config_grid()
    assert len(configs) >= 50
    worst_gap = -math.inf
    for N, s, alpha, W in configs:
        rng = np.random.default_rng(1000 + N + s)
        z = tuple(int(v) for v in rng.integers(1, N, size=s))
        rule = LatticeRule(N=N, z=z)
        params = SpaceParams(alpha=alpha, weights=W)
        closed = p_merit_closed(rule, params).p_value
        K = max(N, 50) if s <= 2 else N
        series = p_merit_series(rule, params, K)
        gap = abs(closed - series.p_value) - series.truncation_bound
        worst_gap = max(worst_gap, gap)
    _report(2, f"lattice closed vs series on {len(configs)} configurations",
            worst_gap <= 1e-9, f"worst |diff|-bound = {worst_gap:.2e}")

    poly_configs = []
    for alpha in (1.0, 1.5, 2.0):
        for s in (1, 2):
            for m in (1, 2, 3, 4, 5):
                poly_configs.append((m, s, alpha, smallest_irreducible(2, m)))
    for m, s in ((3, 2), (4, 1), (5, 2), (4, 2)):
        poly_configs.append((m, s, 1.0, GFPoly(2, (0,) * m + (1,))))  # p = x^m
    assert len(poly_configs) >= 30
    worst_gap_w = -math.inf
    for i, (m, s, alpha, p) in enumerate(poly_configs):
        rng = np.random.default_rng(2000 + i)
        q = tuple(GFPoly.from_code(2, int(c)) for c in rng.integers(1, 2 ** m, size=s))
        rule = PolyLatticeRule(b=2, m=m, p=p, q=q)
        W = _product_weights(-2.0, s) if i % 2 else _unit_weights(s)
        params = SpaceParams(alpha=alpha, weights=W)
        closed = p_merit_closed(rule, params).p_value
        series = p_merit_wal_series(rule, params, m + 3)
        gap = abs(closed - series.p_value) - series.truncation_bound
        worst_gap_w = max(worst_gap_w, gap)
    _report(2, f"Walsh closed vs series on {len(poly_configs)} configurations",
            worst_gap_w <= 1e-9, f"worst |diff|-bound = {worst_gap_w:.2e}")


# ---------------------------------------------------------------------------
# criterion 3: analytic spot values
# ---------------------------------------------------------------------------

def test_criterion_03_analytic_spot_values():
    rule = LatticeRule(N=5, z=(1,))
    got = p_merit_closed(rule, SpaceParams(alpha=1.0, weights=WeightSet.product([1.0])))
    expect = math.pi ** 2 / 75  # dual = 5Z\{0}: 2 zeta(2) / 25
    ok1 = abs(got.p_value - expect) <= 1e-10 * expect
    _report(3, "lattice spot value P(N=5, z=1) = pi^2/75", ok1,
            f"got {got.p_value:.12e}")

    # dual lattice of (b=2, m=3, p=x^3+x+1, q=1) is the positive multiples of
    # 8; grouping by digit count gives 2^j frequencies with mu = 4 + j, so
    #   P = 2^-8 + sum_{j>=1} 2^j 2^(-2(4+j)) = 2^-8 + 2^-8 = 1/128.
    prule = PolyLatticeRule(b=2, m=3, p=GFPoly(2, (1, 1, 0, 1)), q=(GFPoly.one(2),))
    wgot = p_merit_closed(prule, SpaceParams(alpha=1.0, weights=WeightSet.product([1.0])))
    wexpect = 1.0 / 128.0
    ok2 = abs(wgot.p_value - wexpect) <= 1e-10 * wexpect
    _report(3, "Walsh spot value P(m=3, p=x^3+x+1, q=1) = 1/128", ok2,
            f"got {wgot.p_value:.12e}")


# ---------------------------------------------------------------------------
# criterion 4: every CBC output satisfies the search guarantee
# ---------------------------------------------------------------------------

def test_criterion_04_cbc_guarantee():
    failures = []
    count = 0
    for N, s, alpha, W in _lattice_config_grid():
        params = SpaceParams(alpha=alpha, weights=W)
        rule, _ = cbc_construct(lattice_modulus(N), s, params)
        for lam in (1.0, 0.75):
            if 2.0 * alpha * lam <= 1.0:
                continue
            cert = prop_certificate(rule, alpha, W, lam)
            count += 1
            if not cert.passed:
                failures.append((N, s, alpha, lam))
    _report(4, f"lattice CBC guarantee on {count} (rule, lambda) checks",
            not failures, f"failures: {failures}")

    failures = []
    count = 0
    for alpha in (1.0, 1.5, 2.0):
        for s in (1, 2):
            for m in (1, 2, 3, 4, 5):
                W = _product_weights(-2.0, s)
                params = SpaceParams(alpha=alpha, weights=W)
                rule, _ = cbc_construct(poly_modulus(2, m), s, params)
                for lam in (1.0, 0.75):
                    if 2.0 * alpha * lam <= 1.0:
                        continue
                    cert = prop_certificate(rule, alpha, W, lam)
                    count += 1
                    if not cert.passed:
                        failures.append((m, s, alpha, lam))
    _report(4, f"poly CBC guarantee (rho <= P <= bound) on {count} checks",
            not failures, f"failures: {failures}")


# ---------------------------------------------------------------------------
# criterion 5: stability certificates across smoothness and weight changes
# ---------------------------------------------------------------------------

def test_criterion_05_stability_grids():
    alphas = (1.0, 1.5, 2.0)
    failures = []
    count = 0
    for s in (1, 2, 3):
        W = _product_weights(-2.0, s)
        primes = {"same": _product_weights(-2.0, s), "flatter": _product_weights(-4.0, s)}
        for N in (8, 16, 32, 64):
            rules = [cbc_construct(lattice_modulus(N), s, SpaceParams(alpha=a, weights=W))[0]
                     for a in (1.0, 2.0)]
            rules += random_lattice_rules(N, s, 20, seed=9000 + 17 * s + N)
            for rule in rules:
                for a in alphas:
                    for ap in alphas:
                        for Wp in primes.values():
                            cert = stability_bound(rule, a, W, ap, Wp)
                            count += 1
                            if not cert.passed:
                                failures.append((s, N, rule.z, a, ap))
    _report(5, f"Korobov stability certificates ({count} checks)", not failures,
            f"failures: {failures[:5]}")

    failures = []
    count = 0
    for s in (1, 2):
        W = _product_weights(-2.0, s)
        primes = {"same": _product_weights(-2.0, s), "flatter": _product_weights(-4.0, s)}
        for m in (3, 4, 5):
            rules = [cbc_construct(poly_modulus(2, m), s, SpaceParams(alpha=a, weights=W))[0]
                     for a in (1.0, 2.0)]
            rules += random_poly_rules(2, m, s, 20, seed=300 + 7 * s + m)
            for rule in rules:
                for a in alphas:
                    for ap in alphas:
                        for Wp in primes.values():
                            cert = stability_bound(rule, a, W, ap, Wp)
                            count += 1
                            if not cert.passed:
                                failures.append((s, m, a, ap))
    _report(5, f"Walsh stability certificates ({count} checks)", not failures,
            f"failures: {failures[:5]}")


# ---------------------------------------------------------------------------
# criterion 6: power-mean stability in (alpha, gamma) -> (alpha/d, gamma^(1/d))
# ---------------------------------------------------------------------------

def test_criterion_06_jensen():
    failures = []
    count = 0
    for N in (8, 16, 32):
        W = WeightSet.product([1.0, 0.5])
        rule, _ = cbc_construct(lattice_modulus(N), 2, SpaceParams(alpha=1.0, weights=W))
        for alpha, delta in ((1.0, 0.5), (2.0, 0.5), (1.6, 0.8)):
            cert = jensen_certificate(rule, alpha, W, delta)
            count += 1
            if not cert.passed:
                failures.append(("lattice", N, alpha, delta))
    for m in (3, 4, 5):
        W = WeightSet.product([1.0, 0.5])
        rule, _ = cbc_construct(poly_modulus(2, m), 2, SpaceParams(alpha=1.0, weights=W))
        for delta in (0.5, 0.8):
            cert = jensen_certificate(rule, 1.0, W, delta)
            count += 1
            if not cert.passed:
                failures.append(("poly", m, delta))
    _report(6, f"power-mean stability for delta in (0.5, 0.8) ({count} checks)",
            not failures, f"failures: {failures}")


# ---------------------------------------------------------------------------
# criterion 7: FFT-accelerated search equals the naive scan
# ---------------------------------------------------------------------------

def test_criterion_07_fast_cbc_equivalence():
    mismatches = []
    worst_rel = 0.0
    for N in (13, 31, 127, 251):
        for expo in (-2.0, -1.0):
            gammas = [float(j) ** expo for j in range(1, 9)]
            fast_rule, fast_trace = cbc_construct(
                lattice_modulus(N), 8, SpaceParams(alpha=1.0, weights=WeightSet.product(gammas)),
                fast=True)
            naive_rule, naive_trace = cbc_construct(
                lattice_modulus(N), 8, SpaceParams(alpha=1.0, weights=WeightSet.product(gammas)))
            if fast_rule.z != naive_rule.z:
                mismatches.append((N, expo))
            for (_, mf), (_, mn) in zip(fast_trace.choices, naive_trace.choices):
                worst_rel = max(worst_rel, abs(mf - mn) / abs(mn))
    ok = not mismatches and worst_rel <= 1e-9
    _report(7, "fast CBC matches naive CBC (N in 13..251, s = 8)", ok,
            f"mismatches: {mismatches}, worst merit reldiff {worst_rel:.2e}")


# ---------------------------------------------------------------------------
# criterion 8: near-optimal convergence rate of the constructed rules
# ---------------------------------------------------------------------------

def test_criterion_08_convergence_rate():
    gammas = [1.0, 0.25]
    xs, ys = [], []
    for N in (17, 31, 61, 127, 251):
        rule, _ = cbc_construct(
            lattice_modulus(N), 2, SpaceParams(alpha=1.0, weights=WeightSet.product(gammas)),
            fast=True)
        p = p_merit_closed(rule, SpaceParams(alpha=1.0,
                                             weights=WeightSet.product(gammas))).p_value
        xs.append(math.log(N))
        ys.append(0.5 * math.log(p))
    slope = float(np.polyfit(np.asarray(xs), np.asarray(ys), 1)[0])
    _report(8, "log-log slope of sqrt(P) over primes 17..251", slope <= -0.85,
            f"slope = {slope:.3f}")


# ---------------------------------------------------------------------------
# criterion 9: discrepancy bounds dominate the exact star discrepancy
# ---------------------------------------------------------------------------

def _lattice_disc_family():
    rng = np.random.default_rng(77)
    for N in range(2, 33):
        for z1 in range(1, N):
            yield LatticeRule(N=N, z=(z1,))
        cands = {z for z in (1, 2, 3, N // 2, N - 1) if 1 <= z <= N - 1}
        for z2 in sorted(cands):
            yield LatticeRule(N=N, z=(1, z2))
        for _ in range(3):
            yield LatticeRule(N=N, z=(int(rng.integers(1, N)), int(rng.integers(1, N))))


def _poly_disc_family():
    rng = np.random.default_rng(78)
    for m in range(1, 6):
        p = smallest_irreducible(2, m)
        size = 2 ** m
        for qc in range(1, size):
            yield PolyLatticeRule(b=2, m=m, p=p, q=(GFPoly.from_code(2, qc),))
        fixed = {(1, 1), (1, min(3, size - 1)), (min(5, size - 1), size - 1)}
        for c1, c2 in sorted(fixed):
            yield PolyLatticeRule(b=2, m=m, p=p, q=(GFPoly.from_code(2, c1),
                                                    GFPoly.from_code(2, c2)))
        for _ in range(3):
            yield PolyLatticeRule(
                b=2, m=m, p=p,
                q=tuple(GFPoly.from_code(2, int(c)) for c in rng.integers(1, size, size=2)))
        if m >= 2:
            xm = GFPoly(2, (0,) * m + (1,))
            yield PolyLatticeRule(b=2, m=m, p=xm, q=(GFPoly.one(2),
                                                     GFPoly.from_code(2, size - 1)))


def test_criterion_09_discrepancy_soundness():
    violations = []
    count = 0
    for rule in _lattice_disc_family():
        s = rule.s
        for W in (_unit_weights(s), _product_weights(-2.0, s)):
            exact = weighted_exact_star_discrepancy(rule.points(), rule.N, W)
            joe, _ = star_disc_bound(rule, W)
            rho_b, _ = star_disc_bound_rho(rule, 1.0, W, W, rule.rho(SpaceParams(1.0, W))[0])
            count += 1
            if exact > joe + 1e-9 or exact > rho_b + 1e-9:
                violations.append(("lattice", rule.N, rule.z))
        minima = with_phi0(dual_product_minima(rule))
        for u, (_phi, phi0) in minima.items():
            if len(u) >= 2 and phi0 > rule.N / 2:
                violations.append(("phi0", rule.N, rule.z, sorted(u)))
    for rule in _poly_disc_family():
        s = rule.s
        for W in (_unit_weights(s), _product_weights(-2.0, s)):
            exact = weighted_exact_star_discrepancy(rule.points(), rule.npoints, W)
            joe, _ = star_disc_bound(rule, W)
            rho_b, _ = star_disc_bound_rho(rule, 1.0, W, W, rule.rho(SpaceParams(1.0, W))[0])
            count += 1
            if exact > joe + 1e-9 or exact > rho_b + 1e-9:
                violations.append(("poly", rule.m, tuple(q.code() for q in rule.q)))
        for u, phi_u in dual_mu_minima(rule).items():
            if not len(u) <= phi_u <= rule.m + len(u):
                violations.append(("phi-chain", rule.m, sorted(u)))
    _report(9, f"discrepancy bounds dominate exact D* ({count} rule/weight pairs)",
            not violations, f"violations: {violations[:5]}")


# ---------------------------------------------------------------------------
# criterion 10: totient growth inequality up to 10^4
# ---------------------------------------------------------------------------

def test_criterion_10_totient_inequality():
    limit = 10 ** 4
    phi = totient_sieve(limit)
    n = np.arange(3, limit + 1, dtype=np.float64)
    ll = np.log(np.log(n))
    rhs = (math.exp(0.5772156649015329) * ll + 2.50637 / ll) / n
    lhs = 1.0 / phi[3:limit + 1]
    ok = bool(np.all(lhs < rhs))
    # spot-check the scalar path agrees
    ok = ok and all(rosser_schoenfeld_holds(N) for N in (3, 4, 30, 210, 2310, 9973))
    margin = float((rhs - lhs).min())
    _report(10, "totient inequality for 3 <= N <= 10^4", ok,
            f"min margin {margin:.3e}")
