"""qmcforge benchmark: seeded lists of CLI jobs, timed end to end and per layer.

    python3 perfbench/run.py --workload lattice-build --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  A workload (see workloads.py) is a
fixed list of CLI jobs run as a closed loop by one client: one job at a time,
each a fresh interpreter running ``qmcforge.cli.main`` through child.py.  The
list is repeated until the passes have taken ``--seconds`` (at least one
pass), and each job's median over the passes is reported.  Every job's output
is checked (checks.py).  ``--workload all`` runs the three workloads in turn.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
runs one untraced pass and then traced passes, in which child.py wraps each
layer's public functions in spans, and reports the per-layer metrics; the
difference between the traced and untraced pass walls is trace.overhead_s.

The last line of standard output is the JSON result; the lines before it are
a readable report with the provenance of the numbers.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench-work"
sys.path.insert(0, str(BENCH))

from checks import check_output, check_reference, read_output  # noqa: E402
from workloads import WORKLOADS, Job  # noqa: E402

MEMORY_CAP = 4 << 30  # RLIMIT_AS of every child, in bytes
THREADS = "2"         # QMCFORGE_THREADS of every child
RUN_LIMIT_S = 165     # a run stops starting passes, and kills a job, after this long
WARMUP = ["construct", "--N", "31", "--s", "2", "--out", "warmup.json"]

# Which end-to-end metric each per-layer metric should move, and on which workload.
SHOULD_MOVE = {
    "cbc.cbc_construct.self_s": "construct_s on lattice-build; sweep_s on certify; "
                                "no change on poly-build",
    "cbc.candidates_per_s": "construct_s on lattice-build; sweep_s on certify; "
                            "no change on poly-build",
    "cbc.cbc_construct_fast.self_s": "construct_s on lattice-build",
    "cbc.primitive_root_s": "construct_s on lattice-build",
    "korobov.omega_table_s": "construct_s on lattice-build",
    "korobov.omega_table.calls": "construct_s on lattice-build",
    "korobov.p_merit_closed.self_s": "evaluate_s on lattice-build",
    "weights.subset_product_sum_s": "evaluate_s on lattice-build",
    "korobov.p_merit_series_s": "certify_s and peak_rss_mb on certify",
    "korobov.dual_product_minima_s": "certify_s, evaluate_s, sweep_s, peak_rss_mb on certify",
    "korobov.dual_product_minima.calls": "certify_s, evaluate_s, sweep_s, peak_rss_mb on certify",
    "korobov.dual_product_minima.hit_ratio": "certify_s, evaluate_s, sweep_s, peak_rss_mb "
                                             "on certify",
    "gfpoly.gf_mulmod.calls": "construct_s on poly-build; poly evaluate_s on certify",
    "gfpoly.nu_m.calls": "construct_s on poly-build; poly evaluate_s on certify",
    "gfpoly.smallest_irreducible_s": "construct_s on poly-build; poly evaluate_s on certify",
    "walsh.cbc_construct_poly.self_s": "construct_s on poly-build",
    "walsh.poly_lattice_points_s": "evaluate_s on poly-build",
    "walsh.p_merit_wal_closed.self_s": "evaluate_s on poly-build",
    "walsh.dual_mu_minima_s": "evaluate_s, certify_s, peak_rss_mb on certify",
    "walsh.dual_mu_minima.hit_ratio": "evaluate_s, certify_s, peak_rss_mb on certify",
    "discrepancy.r_u_lattice_s": "evaluate_s on certify",
    "discrepancy.r_u_lattice.calls": "evaluate_s on certify",
    "discrepancy.r_u_poly_s": "evaluate_s on certify",
    "discrepancy.exact_star_discrepancy_s": "evaluate_s on certify",
    "stability.theorem1_bound.self_s": "certify_s on certify",
    "stability.theorem2_bound_poly.self_s": "certify_s on certify",
    "stability.combined_bound_eq1.self_s": "certify_s on certify",
    "stability.jensen_certificate.self_s": "certify_s on certify",
    "stability.prop2_certificate.self_s": "certify_s on certify",
    "weights.ratio_size_sum_s": "certify_s on certify",
    "cli.main.self_s": "wall_s and setup_s on certify",
    "cli.load_rule_s": "wall_s and setup_s on certify",
    "construct_s": "the verb's share of wall_s (untraced pass of the traced run)",
    "evaluate_s": "the verb's share of wall_s (untraced pass of the traced run)",
    "certify_s": "the verb's share of wall_s (untraced pass of the traced run)",
    "sweep_s": "the verb's share of wall_s (untraced pass of the traced run)",
    "proc.cpu_s": "none: shows a parallel change spending CPU to save wall time",
    "trace.overhead_s": "none: the cost of the instrument",
}

# ROADMAP's single-shot baseline rows that a job of the benchmark covers:
# (row, workload, job, span, wall s, RSS MB or None).
REANCHOR_ROWS = (
    ("cbc_construct N=4093 s=16", "lattice-build", "direct-4093", "cbc.cbc_construct", 3.5, 422),
    ("cbc_construct_poly b=2 m=8 s=8", "poly-build", "poly-2-8", "walsh.cbc_construct_poly",
     3.5, None),
    ("dual_product_minima N=359 s=3", "certify", "thm1-359", "korobov.dual_product_minima",
     1.0, 1500),
    ("rho_wal b=2 m=8 s=3", "certify", "eval-poly-2-8", "walsh.rho_wal", 1.4, 2200),
)


@dataclass
class Result:
    job: Job
    wall_s: float
    setup_s: float | None
    rss_mib: float
    cpu_s: float
    rc: int
    stderr: str
    spans: dict | None
    status: str = "failed"   # ok, known (documented defect) or failed
    errors: list = field(default_factory=list)


@dataclass
class Pass:
    results: list[Result]
    wall_s: float

    def verb_s(self, verb: str) -> float:
        return sum(r.wall_s for r in self.results if r.job.spec.verb == verb)


def child_env() -> dict:
    env = dict(os.environ)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "PYTHONSTARTUP"):
        env.pop(name, None)  # default OpenBLAS threading
    env["PYTHONPATH"] = str(ROOT / "src")
    env["QMCFORGE_THREADS"] = THREADS
    return env


def _cap_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


def run_job(job: Job, env: dict, deadline: float, trace: bool, workdir: Path = WORK) -> Result:
    """Run one job in a fresh child and take its own rusage from wait4."""
    spans_path = workdir / f"{job.spec.name}.spans.json"
    spans_path.unlink(missing_ok=True)
    ready_r, ready_w = os.pipe()
    cmd = [sys.executable, str(BENCH / "child.py"), str(ready_w)]
    cmd += ["--spans", str(spans_path)] if trace else []
    cmd += ["--", *job.argv]
    err_path = workdir / f"{job.spec.name}.stderr"
    with open(err_path, "w") as err:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=workdir, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err, pass_fds=(ready_w,),
                                preexec_fn=_cap_memory)
    os.close(ready_w)
    reaped = False

    def on_alarm(signum, frame):
        if not reaped:
            os.kill(proc.pid, signal.SIGKILL)

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, max(deadline - start, 0.001))
    try:
        _, status, usage = os.wait4(proc.pid, 0)
        reaped = True
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    with os.fdopen(ready_r, "rb") as fh:
        ready = fh.read()
    spans = json.loads(spans_path.read_text()) if trace and spans_path.exists() else None
    return Result(job=job, wall_s=end - start,
                  setup_s=float(ready) - start if ready else None,
                  rss_mib=usage.ru_maxrss / 1024.0, cpu_s=usage.ru_utime + usage.ru_stime,
                  rc=proc.returncode, stderr=err_path.read_text(), spans=spans)


class Checker:
    """Classifies results; keeps the rules written so far and independent P values."""

    def __init__(self, values: dict, reference: dict):
        self.values = values
        self.reference = reference
        self.rules: dict[str, dict] = {}
        self.p_cache: dict = {}

    def classify(self, results: list[Result]) -> None:
        outputs = {}
        for res in results:
            if res.rc == 0:
                try:
                    outputs[res.job.spec.name] = read_output(WORK / res.job.spec.out,
                                                             res.job.spec.verb)
                except (OSError, ValueError, KeyError) as exc:
                    res.errors.append(f"unreadable output: {exc!r}")
        for name, out in outputs.items():
            if isinstance(out, dict) and out.get("type") in ("lattice", "poly-lattice"):
                self.rules[name] = out
        for res in results:
            spec = res.job.spec
            out = outputs.get(spec.name)
            if res.rc == 0 and out is not None:
                try:
                    res.errors += check_output(res.job, out, self.values, self.rules, outputs,
                                               self.p_cache)
                except (KeyError, TypeError, ValueError) as exc:
                    res.errors.append(f"output check failed: {exc!r}")
                if spec.known_defect is None or res.job.key in self.reference:
                    res.errors += check_reference(res.job, out, self.reference)
                res.status = "failed" if res.errors else "ok"
            elif (spec.known_defect is not None and res.rc == spec.known_defect[0]
                  and spec.known_defect[1] in res.stderr):
                res.status = "known"
            else:
                last = res.stderr.strip().splitlines()[-1:] or ["(no stderr)"]
                res.errors.append(f"exit {res.rc}: {last[0][:200]}")


def run_pass(jobs: list[Job], env: dict, deadline: float, trace: bool,
             checker: Checker) -> Pass:
    start = time.monotonic()
    results = [run_job(job, env, deadline, trace) for job in jobs]
    wall = time.monotonic() - start
    checker.classify(results)
    return Pass(results, wall)


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def layer_totals(results: list[Result]) -> dict:
    """Per-function totals over a traced pass: self, inclusive, calls, cache."""
    agg = {"self": {}, "incl": {}, "calls": {}, "hits": {}, "lookups": {}, "candidates": 0,
           "construct_incl": 0.0}
    for res in results:
        if not res.spans:
            continue
        spans = res.spans["spans"]
        by_id = {sp["id"]: sp for sp in spans}
        for sp in spans:
            name = sp["name"]
            agg["self"][name] = agg["self"].get(name, 0.0) + sp["self_s"]
            agg["calls"][name] = agg["calls"].get(name, 0) + 1
            parent, outermost = sp["parent"], True
            while parent is not None:  # count time once when a function nests in itself
                outermost = outermost and by_id[parent]["name"] != name
                parent = by_id[parent]["parent"]
            if outermost:
                agg["incl"][name] = agg["incl"].get(name, 0.0) + sp["end"] - sp["start"]
            if "args" in sp:  # lattice CBC scans 1 + (s - 1)(N - 1) candidates
                agg["candidates"] += 1 + (sp["args"]["s"] - 1) * (sp["args"]["N"] - 1)
                agg["construct_incl"] += sp["end"] - sp["start"]
        for name, n in res.spans["counts"].items():
            agg["calls"][name] = agg["calls"].get(name, 0) + n
        for name, info in res.spans["cache"].items():
            agg["hits"][name] = agg["hits"].get(name, 0) + info["hits"]
            agg["lookups"][name] = agg["lookups"].get(name, 0) + info["hits"] + info["misses"]
    return agg


def layer_metric(name: str, agg: dict, untraced: Pass, traced: Pass) -> float:
    if name == "cbc.candidates_per_s":
        return agg["candidates"] / agg["construct_incl"] if agg["construct_incl"] else 0.0
    if name == "proc.cpu_s":
        return sum(r.cpu_s for r in untraced.results)
    if name == "trace.overhead_s":
        return traced.wall_s - untraced.wall_s
    if name in ("construct_s", "evaluate_s", "certify_s", "sweep_s"):
        return untraced.verb_s(name[:-2])
    if name.endswith(".self_s"):
        return agg["self"].get(name[:-7], 0.0)
    if name.endswith(".calls"):
        return float(agg["calls"].get(name[:-6], 0))
    if name.endswith(".hit_ratio"):
        fn = name[:-10]
        return agg["hits"].get(fn, 0) / agg["lookups"][fn] if agg["lookups"].get(fn) else 0.0
    if name.endswith("_s"):
        return agg["incl"].get(name[:-2], 0.0)
    raise ValueError(f"no rule computes per-layer metric {name!r}")


def job_medians(passes: list[Pass], attr: str) -> list[float]:
    """Each job's median over the passes (the job list is the same in every pass)."""
    return [median(getattr(p.results[i], attr) for p in passes)
            for i in range(len(passes[0].results))]


def end_to_end(passes: list[Pass]) -> dict:
    """Times are sums over the job list of each job's median over the passes,
    which keeps one slow job in one pass from moving the result."""
    results = [r for p in passes for r in p.results]
    walls = job_medians(passes, "wall_s")
    verbs = [r.job.spec.verb for r in passes[0].results]
    e2e = {
        "wall_s": sum(walls),
        "setup_s": median(r.setup_s for r in results if r.setup_s is not None),
        "peak_rss_mb": max(job_medians(passes, "rss_mib")),
        "ok_frac": sum(r.status == "ok" for r in results) / len(results),
        "fail_frac": sum(r.status != "ok" for r in results) / len(results),
    }
    for verb in ("construct", "evaluate", "certify", "sweep"):
        e2e[f"{verb}_s"] = sum(w for w, v in zip(walls, verbs) if v == verb)
    return e2e


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return ""


def provenance(seed: int) -> dict:
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level = _read(f"{base}/{index}/level").strip()
        kind = _read(f"{base}/{index}/type").strip()
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(f"{base}/{index}/size").strip()
    model = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), platform.processor())
    mem_kib = next((line.split()[1] for line in _read("/proc/meminfo").splitlines()
                    if line.startswith("MemTotal:")), None)
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    try:  # a checkout without .git (or inside another repository) has no commit
        top, _, commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"], text=True,
            capture_output=True, timeout=10).stdout.partition("\n")
        commit = commit.strip() if top and Path(top).resolve() == ROOT else None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "nproc": os.cpu_count(), "mem_total_mib": int(mem_kib) // 1024 if mem_kib else None,
        "cpu_model": model, "caches": caches, "python": platform.python_version(),
        "numpy": np.__version__, "blas": blas,
        "QMCFORGE_THREADS": THREADS,
        "OPENBLAS_NUM_THREADS": "unset (OpenBLAS default)",
        "git_commit": commit, "src_sha256": src.hexdigest(), "seed": seed,
        "memory_cap_per_job_gib": MEMORY_CAP / 2 ** 30,
        "limits": "no CPU pinning, no dropping of the file cache, no machine-wide tracing; "
                  "timings and rusage are per process",
    }


def report_jobs(passes: list[Pass], label: str) -> None:
    print(f"{label}: {len(passes)} pass(es); per job: wall s / setup s / peak RSS MiB / status")
    for i in range(len(passes[0].results)):
        runs = [p.results[i] for p in passes]
        res = next((r for r in runs if r.status == "failed"), runs[0])
        print(f"  {res.job.spec.name:22s} {median(r.wall_s for r in runs):7.3f} "
              f"{res.setup_s if res.setup_s is not None else float('nan'):6.3f} "
              f"{res.rss_mib:7.0f}  {res.status}  {'; '.join(res.errors)[:300]}")


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec_doc: dict,
                 reference: dict) -> dict:
    """Run one workload, print its report, and return the result object."""
    run_start = time.monotonic()
    deadline = run_start + RUN_LIMIT_S
    workload = WORKLOADS[name]
    values, setup_jobs, jobs = workload.plan(seed)
    checker = Checker(values, reference)
    env = child_env()
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    try:
        warm = run_job(Job(jobs[0].spec, WARMUP, "warmup"), env, deadline, False)
        warm.status = "ok" if warm.rc == 0 else "failed"
        setup = run_pass(setup_jobs, env, deadline, False, checker)
        passes: list[Pass] = []
        traced: list[Pass] = []
        while True:  # measured time counts pass walls, not the output checks
            trace_this = trace and bool(passes)
            p = run_pass(jobs, env, deadline, trace_this, checker)
            (traced if trace_this else passes).append(p)
            measured = sum(q.wall_s for q in passes + traced)
            enough = measured >= seconds and (traced or not trace)
            if enough or time.monotonic() + p.wall_s > deadline:
                break
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    print(f"workload {workload.name} seed {seed}: {len(jobs)} jobs per pass; why: {workload.why}")
    print("provenance: " + json.dumps(provenance(seed)))
    if setup.results:
        report_jobs([setup], "set-up (not timed)")
    report_jobs(passes, "untraced")
    all_results = [warm] + setup.results + [r for p in passes + traced for r in p.results]
    failed = [r for r in all_results if r.status == "failed"]
    e2e = end_to_end(passes)
    units = {m["name"]: m["unit"] for m in spec_doc["end_to_end"]}
    print("end-to-end (untraced; medians over passes):")
    for metric, value in e2e.items():
        unit = units.get(metric, "s" if metric.endswith("_s") else "ratio")
        note = "" if metric in units else "  (reported only)"
        print(f"  {metric:16s} {value:12.6f} {unit}{note}")
    metrics = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]}
               for m in spec_doc["end_to_end"]}
    if trace:
        if traced:
            report_jobs(traced, "traced")
        else:
            failed.append("no traced pass within the run limit")
            traced = [Pass([], 0.0)]
        metrics = report_layers(workload.name, passes[0], traced, spec_doc)
    return {"correct": not failed, "attempted": len(all_results), "failed": len(failed),
            "metrics": metrics}


def report_layers(workload: str, untraced: Pass, traced: list[Pass], spec_doc: dict) -> dict:
    """Per-layer metrics (medians over traced passes), printed with what they should move."""
    metrics = {}
    for m in spec_doc["per_layer"]:
        vals = [layer_metric(m["name"], layer_totals(t.results), untraced, t) for t in traced]
        metrics[m["name"]] = {"value": median(vals), "unit": m["unit"]}
    print("per-layer (traced passes; medians) -> should move:")
    for name, v in metrics.items():
        print(f"  {name:40s} {v['value']:14.6f} {v['unit']:6s} {SHOULD_MOVE[name]}")
    print("ROADMAP baseline rows (single-shot library calls) next to this run:")
    mid = min(traced, key=lambda p: abs(p.wall_s - median(q.wall_s for q in traced)))
    for row, wl, job, span, wall, rss in REANCHOR_ROWS:
        res = next((r for r in mid.results if r.job.spec.name == job), None)
        plain = next((r for r in untraced.results if r.job.spec.name == job), None)
        if wl != workload or res is None or plain is None:
            continue
        roadmap = f"{wall:5.2f} s" + (f", {rss} MB" if rss else "")
        here = layer_totals([res])["incl"].get(span, 0.0)
        print(f"  {row:32s} ROADMAP {roadmap:16s} | here {here:6.3f} s "
              f"in {span}, job peak RSS {plain.rss_mib:6.0f} MiB ({res.job.key})")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qmcforge" / "cli.py").is_file():
        print(f"error: no qmcforge sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    spec_doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    reference = json.loads((BENCH / "reference.json").read_text())
    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                              spec_doc, reference)
        print(json.dumps(result))
        return 0
    # Every workload in turn; the result keys metrics by workload/metric.
    results = {}
    for name in WORKLOADS:
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                     spec_doc, reference)
        print()
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}/{k}": v for name, r in results.items()
                    for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
