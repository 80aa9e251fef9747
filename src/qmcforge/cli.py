"""Command-line front end: construct rules, evaluate merits and bounds, emit
certificates and sweep tables.

Exit codes: 0 success or certificate pass, 1 certificate failure, 2 usage or
precondition error, 3 resource cap exceeded.

Each verb imports the modules it runs, so that a job loads and compiles no
more of the package than it uses.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import io
import json
import math
import random
import sys
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import ResourceLimitError, UsageError, as_int
from .weights import S_MAX_DEFAULT, SpaceParams, WeightSet, check_monotone

if TYPE_CHECKING:
    from .gfpoly import GFPoly
    from .korobov import LatticeRule
    from .walsh import PolyLatticeRule

EXIT_OK = 0
EXIT_CERT_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


# the rule type, as load_rule reads it, that each certificate applies to (None: either)
CERTIFICATE_RULE_TYPE = {"thm1": "lattice", "prop1": "lattice", "eq1": "lattice",
                         "thm2": "poly-lattice", "prop2": "poly-lattice", "jensen": None}


def _check_family(selector: str, kind: str) -> None:
    """Refuse a certificate selector for the rule family it does not apply to."""
    if CERTIFICATE_RULE_TYPE[selector] not in (None, kind):
        raise UsageError(f"{selector} applies to {CERTIFICATE_RULE_TYPE[selector]} rules, "
                         f"not {kind} rules")


def _parser(what: str):
    """Decorate a parser of user input so that the ValueError, KeyError or
    TypeError of malformed input exits 2 as a one-line UsageError."""
    def decorate(parse):
        @functools.wraps(parse)
        def checked(text, *args, **kwargs):
            try:
                return parse(text, *args, **kwargs)
            except UsageError:
                raise
            except (ValueError, KeyError, TypeError) as exc:
                msg = f"malformed {what} {text!r}: {type(exc).__name__}: {exc}"
                raise UsageError(msg) from None
        return checked
    return decorate


def _parse_seq(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


@_parser("size grid")
def _parse_grid(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


@_parser("weight spec")
def parse_weights(spec, s_needed: int = 0) -> WeightSet:
    """Weight declaration from CLI text ('kind:data') or config JSON dict."""
    if isinstance(spec, str) and spec.lstrip().startswith("{"):
        try:
            spec = json.loads(spec)  # a weight set object from --config
        except json.JSONDecodeError as exc:
            raise UsageError(f"weight spec is not valid JSON: {exc}")
    if isinstance(spec, dict):
        return WeightSet.from_jsonable(spec)
    if not isinstance(spec, str) or ":" not in spec:
        raise UsageError(f"weight spec {spec!r} must look like kind:data")
    kind, _, data = spec.partition(":")
    kind = kind.strip().lower()
    s_max = max(S_MAX_DEFAULT, s_needed)
    if kind == "product":
        if "j^" in data:
            return WeightSet.from_formula("product", data, s_max)
        return WeightSet.product(_parse_seq(data))
    if kind == "pod":
        gpart, _, jpart = data.partition("|")
        Gammas = _parse_seq(gpart)
        if "j^" in jpart:
            return WeightSet.from_formula("pod", jpart, len(Gammas), Gammas)
        return WeightSet.pod(Gammas, _parse_seq(jpart))
    if kind == "order":
        return WeightSet.order_dependent(_parse_seq(data))
    if kind == "explicit":
        mapping = {}
        for entry in data.split(";"):
            if not entry.strip():
                continue
            subset, _, value = entry.partition("=")
            mapping[tuple(int(t) for t in subset.split(","))] = float(value)
        return WeightSet.explicit(mapping, s_max=s_max)
    raise UsageError(f"unknown weight kind {kind!r}")


@_parser("polynomial")
def _poly_from_arg(text: str, b: int) -> GFPoly:
    from .gfpoly import GFPoly
    return GFPoly(b, tuple(int(t) for t in text.split(",")))


@_parser("rule file")
def load_rule(path: str) -> tuple[LatticeRule | PolyLatticeRule, dict]:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read rule file {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise UsageError(f"rule file {path} is not valid JSON: {exc}")
    kind = obj.get("type") if isinstance(obj, dict) else None
    if kind == "lattice":
        from .korobov import LatticeRule
        return LatticeRule(N=obj["N"], z=tuple(obj["z"])), obj
    if kind == "poly-lattice":
        from .gfpoly import GFPoly
        from .walsh import PolyLatticeRule
        b = as_int(obj["b"], "base b")
        rule = PolyLatticeRule(b=b, m=obj["m"], p=GFPoly(b, tuple(obj["p"])),
                               q=tuple(GFPoly(b, tuple(c)) for c in obj["q"]))
        return rule, obj
    raise UsageError(f"rule file {path} has unknown type {kind!r}")


def _emit(obj, out_path: str | None) -> None:
    text = json.dumps(obj, indent=2, allow_nan=False)  # a report holds no NaN or inf
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _splice_config(argv: list[str]) -> list[str]:
    """Insert the flags of the --config file right after the subcommand: the
    command line, parsed later, overrides them, and they override the defaults.
    Config values get the same checks as flags; unknown keys exit 2."""
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv)[0].config
    if not path:
        return argv
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config {path}: {exc}")
    if not isinstance(cfg, dict):
        raise UsageError(f"config {path} must hold a JSON object")
    tokens = []
    for key, value in cfg.items():
        flag = "--" + str(key).replace("_", "-")
        if isinstance(value, (list, dict)):
            value = json.dumps(value) if isinstance(value, dict) else ",".join(map(str, value))
        if value is True:
            tokens.append(flag)
        elif value is not False and value is not None:
            tokens.append(f"{flag}={value}")
    return argv[:1] + tokens + argv[1:]


def _modulus_rule(kind: str, N: int | None = None, b: int = 2, m: int | None = None,
                  p: str | None = None) -> LatticeRule | PolyLatticeRule:
    """The one-component rule (z = 1 or q = 1) that carries the modulus: N, or
    b, m and p (default the smallest irreducible of degree m)."""
    if kind == "lattice":
        from .korobov import LatticeRule
        return LatticeRule(N=N, z=(1,))
    from .gfpoly import GFPoly, smallest_irreducible
    from .walsh import PolyLatticeRule
    poly = _poly_from_arg(p, b) if p else smallest_irreducible(b, m)
    return PolyLatticeRule(b=b, m=m, p=poly, q=(GFPoly(b, (1,)),))


def cmd_construct(args: argparse.Namespace) -> int:
    from .cbc import CbcTrace, cbc_construct
    from .korobov import p_merit_closed
    if args.random and args.fast:
        raise UsageError("--fast selects the CBC scan, and --random runs no search")
    if args.kind == "lattice" and args.N is None:
        raise UsageError("lattice construction needs --N")
    if args.kind == "poly-lattice" and args.m is None:
        raise UsageError("poly-lattice construction needs --m")
    s = int(args.s)
    W = parse_weights(args.weights, s)
    modulus = _modulus_rule(args.kind, args.N, args.b, args.m, args.p)
    params = SpaceParams(alpha=float(args.alpha), weights=W)
    if args.random:
        rng = random.Random(args.seed)
        codes = [rng.randrange(1, modulus.npoints) for _ in range(s)]
        rule = modulus.with_codes(codes)
        merit = p_merit_closed(rule, params).p_value
        trace = CbcTrace(choices=tuple((c, merit) for c in codes), evaluations=0)
    else:
        rule, trace = cbc_construct(modulus, s, params, args.fast)
    payload = rule.to_jsonable()
    payload["alpha"] = float(args.alpha)
    payload["weights"] = W.to_jsonable()
    payload["trace"] = trace.to_jsonable()
    payload["evaluations"] = trace.evaluations
    for entry in payload["trace"]:
        print(f"dim {entry['dim']:3d}  component {entry['chosen']:6d}  merit {entry['merit']:.12e}",
              file=sys.stderr)
    _emit(payload, args.out)
    return EXIT_OK


def cmd_evaluate(args: argparse.Namespace) -> int:
    from .stability import merit
    rule, _ = load_rule(args.rule)
    params = SpaceParams(alpha=float(args.alpha), weights=parse_weights(args.weights, rule.s))
    rho, per_subset = rule.rho(params) if args.rho else (None, None)  # capped minima before P
    if args.series_K is not None:  # the explicit cross-check of merit's closed form or series
        report = rule.series(params, args.series_K)
    else:
        report = merit(rule, params)
    if rho is not None:
        report = dataclasses.replace(report, rho_value=rho, per_subset=per_subset)
    payload = report.to_jsonable()
    if args.discrepancy:
        from .discrepancy import discrepancy_report
        payload["discrepancy"] = discrepancy_report(rule, params, rho).to_jsonable()
    _emit(payload, args.out)
    return EXIT_OK


def cmd_certify(args: argparse.Namespace) -> int:
    from . import stability
    rule, obj = load_rule(args.rule)
    selector = args.theorem
    _check_family(selector, obj["type"])
    alpha = float(args.alpha)
    W = parse_weights(args.weights, rule.s)
    Wp = parse_weights(args.weights_prime, rule.s) if args.weights_prime else W
    alpha_p = float(args.alpha_prime) if args.alpha_prime is not None else alpha
    lam = float(args.lam)
    if selector in ("thm1", "thm2"):
        cert = stability.stability_bound(rule, alpha, W, alpha_p, Wp)
    elif selector in ("prop1", "prop2"):
        cert = stability.prop_certificate(rule, alpha, W, lam)
    elif selector == "eq1":
        cert = stability.combined_bound_eq1(rule, alpha, W, alpha_p, Wp, lam)
    else:
        cert = stability.jensen_certificate(rule, alpha, W, float(args.delta))
    _emit(cert.to_jsonable(), args.out)
    return EXIT_OK if cert.passed else EXIT_CERT_FAILED


def _sweep_cell(kind: str, size: int, s: int, alpha: float, W: WeightSet,
                certify: str | None) -> tuple[dict, int]:
    """The table row of the CBC rule for grid value size (N, or m with b = 2),
    and the rule's point count."""
    from .cbc import cbc_construct
    from .korobov import p_merit_closed
    from .stability import prop_bound, stability_bound
    params = SpaceParams(alpha=alpha, weights=W)
    rule, _ = cbc_construct(_modulus_rule(kind, N=size, m=size), s, params)
    bound = prop_bound(rule, alpha, W, 1.0)
    p = p_merit_closed(rule, params).p_value
    thm_rhs, passed = math.nan, None
    if certify or not rule.needs_monotone_weights or check_monotone(W, s):
        try:
            cert = stability_bound(rule, alpha, W, alpha, W)
            thm_rhs, passed = cert.rhs, cert.passed
        except ResourceLimitError:  # the certificate's own caps decide, not the sweep
            pass
    row = {"N_or_m": size, "P": p, "sqrtP": math.sqrt(p), "prop_bound": bound,
           "thm1_rhs": thm_rhs}
    if certify:
        row["passed"] = passed
    return row, rule.npoints


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.certify:
        _check_family(args.certify, args.kind)
    grid_text = args.N_grid if args.kind == "lattice" else args.m_grid
    if not grid_text:
        raise UsageError("sweep needs --N-grid (lattice) or --m-grid (poly-lattice)")
    grid = _parse_grid(grid_text)
    if not grid:
        raise UsageError("sweep grid is empty")
    s, alpha = int(args.s), float(args.alpha)
    W = parse_weights(args.weights, s)
    rows, npoints = zip(*(_sweep_cell(args.kind, size, s, alpha, W, args.certify)
                          for size in grid))

    sizes = np.asarray(npoints, dtype=np.float64)
    sqrtp = np.asarray([row["sqrtP"] for row in rows])
    slope = math.nan
    if len(grid) >= 2 and np.all(sqrtp > 0):
        slope = float(np.polyfit(np.log(sizes), np.log(sqrtp), 1)[0])

    import csv
    buf = io.StringIO()
    fields = list(rows[0].keys())
    writer = csv.DictWriter(buf, fieldnames=fields)
    writer.writeheader()
    writer.writerows(rows)
    buf.write(f"# slope_log_sqrtP_vs_log_N = {slope:.6f}\n")
    text = buf.getvalue()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        print(text, end="")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qmcforge",
                                     description="Construct and certify lattice and "
                                                 "polynomial lattice rules")
    sub = parser.add_subparsers(dest="command", required=True)

    con = sub.add_parser("construct", help="run the greedy component search")
    con.add_argument("--kind", choices=["lattice", "poly-lattice"], default="lattice")
    con.add_argument("--N", type=int, help="lattice modulus")
    con.add_argument("--b", type=int, default=2, help="polynomial lattice base")
    con.add_argument("--m", type=int, help="polynomial lattice degree")
    con.add_argument("--p", help="modulus polynomial coefficients, lowest first")
    con.add_argument("--s", type=int, required=False, default=1)
    con.add_argument("--alpha", type=float, default=1.0)
    con.add_argument("--weights", default="product:j^-2")
    con.add_argument("--fast", action="store_true", help="FFT scan (prime N)")
    con.add_argument("--random", action="store_true", help="draw a random vector instead")
    con.add_argument("--seed", type=int, default=20240601, help="seed for --random")
    con.add_argument("--config", help="JSON file supplying any of the flags")
    con.add_argument("--out", help="rule JSON path (default: stdout)")
    con.set_defaults(func=cmd_construct)

    ev = sub.add_parser("evaluate", help="evaluate merit (and bounds) of a stored rule")
    ev.add_argument("rule", help="rule JSON path")
    ev.add_argument("--alpha", type=float, required=True)
    ev.add_argument("--weights", required=True)
    ev.add_argument("--rho", action="store_true", help="include the figure of merit")
    ev.add_argument("--discrepancy", action="store_true", help="include discrepancy bounds")
    ev.add_argument("--series-K", type=int, dest="series_K",
                    help="evaluate by truncated series with this radius (lattice) "
                         "or digit cap (polynomial lattice)")
    ev.add_argument("--config", help="JSON file supplying any of the flags")
    ev.add_argument("--out", help="report JSON path (default: stdout)")
    ev.set_defaults(func=cmd_evaluate)

    ce = sub.add_parser("certify", help="check a stability or construction bound")
    ce.add_argument("rule", help="rule JSON path")
    ce.add_argument("--theorem", required=True, choices=list(CERTIFICATE_RULE_TYPE))
    ce.add_argument("--alpha", type=float, required=True)
    ce.add_argument("--weights", required=True)
    ce.add_argument("--alpha-prime", type=float, dest="alpha_prime")
    ce.add_argument("--weights-prime", dest="weights_prime")
    ce.add_argument("--lambda", type=float, dest="lam", default=1.0)
    ce.add_argument("--delta", type=float, default=0.5, help="Jensen exponent")
    ce.add_argument("--config", help="JSON file supplying any of the flags")
    ce.add_argument("--out", help="certificate JSON path (default: stdout)")
    ce.set_defaults(func=cmd_certify)

    sw = sub.add_parser("sweep", help="construct over a size grid and tabulate")
    sw.add_argument("--kind", choices=["lattice", "poly-lattice"], default="lattice")
    sw.add_argument("--N-grid", dest="N_grid", help="comma-separated moduli")
    sw.add_argument("--m-grid", dest="m_grid", help="comma-separated degrees")
    sw.add_argument("--s", type=int, default=2)
    sw.add_argument("--alpha", type=float, default=1.0)
    sw.add_argument("--weights", default="product:j^-2")
    sw.add_argument("--certify", choices=["thm1", "thm2"], help="add a passed column")
    sw.add_argument("--config", help="JSON file supplying any of the flags")
    sw.add_argument("--out", help="CSV path (default: stdout)")
    sw.set_defaults(func=cmd_sweep)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_splice_config(list(sys.argv[1:] if argv is None else argv)))
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ResourceLimitError, MemoryError) as exc:
        print(f"resource limit: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
