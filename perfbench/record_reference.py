"""Record reference.json: the outputs of every job variant of every workload.

    python3 perfbench/record_reference.py [WORKLOAD ...]

Run from the root of a source checkout, at the commit whose outputs the
benchmark should hold later commits to.  Each variant's output must pass the
implementation-independent checks, and a job with a documented defect must
fail exactly as documented; otherwise nothing is written.  Named workloads
are re-recorded and the others keep their entries.
"""

from __future__ import annotations

import json
import shutil
import sys
import time
from pathlib import Path

from checks import check_output, read_output, reference_values
from run import BENCH, WORK, child_env, run_job
from workloads import WORKLOADS


def record(workload, env: dict) -> dict:
    entries: dict[str, dict] = {}
    made: dict[str, Path] = {}  # job key -> path of its output
    for n, (values, chain) in enumerate(workload.variants()):
        job = chain[-1]
        workdir = WORK / f"{workload.name}-{n}"
        workdir.mkdir(parents=True)
        for dep in chain[:-1]:
            if dep.key not in made:
                raise SystemExit(f"{job.key}: input {dep.key} was not recorded first")
            shutil.copy(made[dep.key], workdir / dep.spec.out)
        res = run_job(job, env, time.monotonic() + 600, False, workdir)
        if res.rc != 0:
            defect = job.spec.known_defect
            if defect and res.rc == defect[0] and defect[1] in res.stderr:
                print(f"  {job.key}: documented defect, exit {res.rc}")
                continue
            raise SystemExit(f"{job.key}: exit {res.rc}\n{res.stderr[-2000:]}")
        out = read_output(workdir / job.spec.out, job.spec.verb)
        rules = {d.spec.name: read_output(made[d.key], d.spec.verb) for d in chain[:-1]}
        errors = check_output(job, out, values, rules, {}, {})
        if errors:
            raise SystemExit(f"{job.key}: {errors}")
        made[job.key] = workdir / job.spec.out
        entries[job.key] = reference_values(job.spec.verb, out)
        print(f"  {job.key}: {res.wall_s:.2f} s")
    return entries


def main(names: list[str]) -> int:
    unknown = set(names) - set(WORKLOADS)
    if unknown:
        raise SystemExit(f"unknown workloads {sorted(unknown)}; choose from {sorted(WORKLOADS)}")
    path = BENCH / "reference.json"
    reference = json.loads(path.read_text()) if path.exists() else {}
    env = child_env()
    shutil.rmtree(WORK, ignore_errors=True)
    try:
        for name in names or sorted(WORKLOADS):
            print(f"recording {name}")
            keys = {job.key for _, chain in WORKLOADS[name].variants() for job in chain}
            reference = {k: v for k, v in reference.items() if k not in keys}
            reference.update(record(WORKLOADS[name], env))
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(reference)} entries to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
