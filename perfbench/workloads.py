"""The benchmark's workloads: fixed, seeded lists of qmcforge CLI jobs.

Sizes are fixed per workload.  The seed picks only the weight decay of each
job (product or POD weights j^-a with a in DECAYS), the ``--random --seed``
of the random rule, and the order of the jobs that do not depend on each
other, so every seed asks for the same amount of work.  The finite choices
also mean that every job variant has a recorded reference output
(reference.json, written by record_reference.py).
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Callable

DECAYS = (2, 2.5, 3)
RANDOM_SEEDS = (11, 12, 13, 14)


def product(a: float) -> str:
    return f"product:j^-{a:g}"


def pod(a: float, s: int) -> str:
    """POD weights with Gamma_l = l! and gamma_j = j^-a."""
    return "pod:" + ",".join(str(math.factorial(k)) for k in range(1, s + 1)) + f"|j^-{a:g}"


@dataclass(frozen=True)
class Merit:
    """Parameters under which a job's output P can be recomputed independently."""

    alpha: int
    kind: str   # "product" or "pod"
    axis: str   # the axis holding the decay a of gamma_j = j^-a


@dataclass(frozen=True)
class Spec:
    """One CLI job.  ``args`` maps the picked axis values to the CLI arguments
    (without ``--out``); file arguments name other jobs' outputs, and the
    children run in the benchmark's work directory."""

    name: str
    verb: str
    axes: tuple[str, ...]
    args: Callable[[dict], list[str]]
    reads: tuple[str, ...] = ()
    merit: Merit | None = None
    twin: str | None = None          # construct job that must give the same vector
    # A documented defect at the time of recording: the job may fail with this
    # exit code and this text in its stderr without counting as a failure.
    known_defect: tuple[int, str] | None = None
    choices: dict = field(default_factory=dict)  # axis -> options, when not DECAYS

    @property
    def out(self) -> str:
        return f"{self.name}.csv" if self.verb == "sweep" else f"{self.name}.json"


@dataclass(frozen=True)
class Job:
    spec: Spec
    argv: list[str]
    key: str  # reference key: job name plus every axis value it depends on


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: tuple[Spec, ...]
    specs: tuple[Spec, ...]

    def all_axes(self, spec: Spec) -> tuple[str, ...]:
        """Axes of the spec and of every output it reads, in a fixed order."""
        by_name = {s.name: s for s in self.setup + self.specs}
        seen: list[str] = []
        for dep in spec.reads:
            seen += [a for a in self.all_axes(by_name[dep]) if a not in seen]
        return tuple(seen + [a for a in spec.axes if a not in seen])

    def options(self, axis: str) -> tuple:
        for spec in self.setup + self.specs:
            if axis in spec.choices:
                return spec.choices[axis]
        return DECAYS

    def job(self, spec: Spec, values: dict) -> Job:
        axes = self.all_axes(spec)
        key = spec.name + "".join(f"|{a}={values[a]:g}" for a in axes)
        return Job(spec, spec.args(values) + ["--out", spec.out], key)

    def plan(self, seed: int) -> tuple[dict, list[Job], list[Job]]:
        """(axis values, set-up jobs, timed jobs in run order) for one seed."""
        rng = random.Random(f"{self.name}:{seed}")
        axes = sorted({a for s in self.setup + self.specs for a in s.axes})
        values = {a: rng.choice(self.options(a)) for a in axes}
        order = rng.sample(self.specs, len(self.specs))
        ran: set[str] = {s.name for s in self.setup}
        ordered: list[Spec] = []
        while order:  # the first job, in shuffled order, whose inputs exist
            spec = next(s for s in order if set(s.reads) <= ran)
            order.remove(spec)
            ordered.append(spec)
            ran.add(spec.name)
        return (values, [self.job(s, values) for s in self.setup],
                [self.job(s, values) for s in ordered])

    def variants(self) -> list[tuple[dict, list[Job]]]:
        """Every variant of every job, as (axis values, [jobs it reads..., job])."""
        by_name = {s.name: s for s in self.setup + self.specs}
        out = []
        for spec in self.setup + self.specs:
            axes = self.all_axes(spec)
            for combo in itertools.product(*(self.options(a) for a in axes)):
                values = dict(zip(axes, combo))
                chain, todo = [], [spec]
                while todo:
                    s = todo.pop()
                    chain.insert(0, self.job(s, values))
                    todo += [by_name[d] for d in s.reads]
                out.append((values, chain))
        return out


def _construct(N: int, s: int, axis: str, kind: str = "product", fast: bool = False) -> Callable:
    def args(v: dict) -> list[str]:
        w = product(v[axis]) if kind == "product" else pod(v[axis], s)
        return (["construct", "--N", str(N), "--s", str(s), "--alpha", "1", "--weights", w]
                + (["--fast"] if fast else []))
    return args


def _construct_poly(b: int, m: int, s: int, axis: str) -> Callable:
    return lambda v: ["construct", "--kind", "poly-lattice", "--b", str(b), "--m", str(m),
                      "--s", str(s), "--alpha", "1", "--weights", product(v[axis])]


def _evaluate(rule: str, alpha: int, weights: Callable[[dict], str], *extra: str) -> Callable:
    return lambda v: ["evaluate", f"{rule}.json", "--alpha", str(alpha),
                      "--weights", weights(v), *extra]


def _certify(rule: str, theorem: str, axis: str, alpha_prime: float | None = None) -> Callable:
    """Certificate under the weights the rule was built with; with alpha' the
    target weights are gamma^(alpha'/alpha), i.e. j^-(a alpha')."""
    def args(v: dict) -> list[str]:
        a = v[axis]
        out = ["certify", f"{rule}.json", "--theorem", theorem, "--alpha", "1",
               "--weights", product(a)]
        if alpha_prime is not None:
            out += ["--alpha-prime", f"{alpha_prime:g}",
                    "--weights-prime", product(a * alpha_prime)]
        return out
    return args


def _sweep(kind: str, grid: str, s: int, axis: str) -> Callable:
    flag = "--N-grid" if kind == "lattice" else "--m-grid"
    return lambda v: ["sweep", "--kind", kind, flag, grid, "--s", str(s), "--alpha", "1",
                      "--weights", product(v[axis])]


LATTICE_BUILD = Workload(
    name="lattice-build",
    why="large-N lattice CBC (direct and FFT scans, smooth and non-smooth N-1) and P "
        "evaluation; no dual enumeration and no GF(b) arithmetic",
    setup=(),
    specs=(
        Spec("direct-4093", "construct", ("c4093",), _construct(4093, 16, "c4093"),
             merit=Merit(1, "product", "c4093")),
        Spec("fast-4093", "construct", ("c4093",), _construct(4093, 16, "c4093", fast=True),
             merit=Merit(1, "product", "c4093"), twin="direct-4093"),
        Spec("direct-2039-pod", "construct", ("c2039",),
             _construct(2039, 16, "c2039", kind="pod"), merit=Merit(1, "pod", "c2039")),
        Spec("fast-65521", "construct", ("c65521",), _construct(65521, 32, "c65521", fast=True),
             merit=Merit(1, "product", "c65521")),
        Spec("fast-262139", "construct", ("c262139",),
             _construct(262139, 32, "c262139", fast=True), merit=Merit(1, "product", "c262139")),
        Spec("eval-262139-pod", "evaluate", ("e_pod",),
             _evaluate("fast-262139", 1, lambda v: pod(v["e_pod"], 32)),
             reads=("fast-262139",), merit=Merit(1, "pod", "e_pod")),
        Spec("eval-262139-product", "evaluate", ("e_product",),
             _evaluate("fast-262139", 2, lambda v: product(v["e_product"])),
             reads=("fast-262139",), merit=Merit(2, "product", "e_product")),
    ),
)

POLY_BUILD = Workload(
    name="poly-build",
    why="polynomial lattice CBC at s=8 for (b,m) = (2,8), (3,5), (7,3) and P evaluation; "
        "time goes to pure-Python GF(b) products, with no lattice scan or dual enumeration",
    setup=(),
    specs=tuple(
        spec
        for b, m in ((2, 8), (3, 5), (7, 3))
        for spec in (
            Spec(f"poly-{b}-{m}", "construct", (f"c{b}{m}",), _construct_poly(b, m, 8, f"c{b}{m}"),
                 merit=Merit(1, "product", f"c{b}{m}")),
            Spec(f"eval-poly-{b}-{m}", "evaluate", (f"e{b}{m}",),
                 _evaluate(f"poly-{b}-{m}", 2, lambda v, ax=f"e{b}{m}": product(v[ax])),
                 reads=(f"poly-{b}-{m}",), merit=Merit(2, "product", f"e{b}{m}")),
        )
    ),
)

CERTIFY = Workload(
    name="certify",
    why="rho, discrepancy bounds, certificates and sweeps on small-s rules; time and memory "
        "go to dual-box enumeration, and CBC runs only as many small scans",
    setup=(
        Spec("rule-251-s3", "construct", ("r251s3",), _construct(251, 3, "r251s3", fast=True),
             merit=Merit(1, "product", "r251s3")),
        Spec("rule-251-s2", "construct", ("r251s2",), _construct(251, 2, "r251s2"),
             merit=Merit(1, "product", "r251s2")),
        Spec("rule-359-s3", "construct", ("r359",), _construct(359, 3, "r359"),
             merit=Merit(1, "product", "r359")),
        Spec("rule-127-random", "construct", ("r127", "r127_seed"),
             lambda v: _construct(127, 3, "r127")(v) + ["--random", "--seed",
                                                         str(v["r127_seed"])],
             merit=Merit(1, "product", "r127"), choices={"r127_seed": RANDOM_SEEDS}),
        Spec("rule-poly-2-8", "construct", ("p28",), _construct_poly(2, 8, 3, "p28"),
             merit=Merit(1, "product", "p28")),
        Spec("rule-poly-3-4", "construct", ("p34",), _construct_poly(3, 4, 3, "p34"),
             merit=Merit(1, "product", "p34")),
        Spec("rule-poly-3-5", "construct", ("p35",), _construct_poly(3, 5, 3, "p35"),
             merit=Merit(1, "product", "p35")),
    ),
    specs=(
        Spec("eval-251-s3", "evaluate", (),
             _evaluate("rule-251-s3", 1, lambda v: product(v["r251s3"]), "--rho", "--discrepancy"),
             reads=("rule-251-s3",), merit=Merit(1, "product", "r251s3")),
        Spec("eval-251-s2", "evaluate", (),
             _evaluate("rule-251-s2", 1, lambda v: product(v["r251s2"]), "--rho", "--discrepancy"),
             reads=("rule-251-s2",), merit=Merit(1, "product", "r251s2")),
        Spec("eval-poly-2-8", "evaluate", (),
             _evaluate("rule-poly-2-8", 1, lambda v: product(v["p28"]), "--rho", "--discrepancy"),
             reads=("rule-poly-2-8",), merit=Merit(1, "product", "p28")),
        Spec("thm1-359", "certify", (), _certify("rule-359-s3", "thm1", "r359", 2),
             reads=("rule-359-s3",)),
        Spec("thm1-127-random", "certify", (), _certify("rule-127-random", "thm1", "r127", 1.5),
             reads=("rule-127-random",)),
        Spec("eq1-359", "certify", (), _certify("rule-359-s3", "eq1", "r359", 2),
             reads=("rule-359-s3",)),
        Spec("jensen-359", "certify", (), _certify("rule-359-s3", "jensen", "r359"),
             reads=("rule-359-s3",)),
        Spec("thm2-poly-2-8", "certify", (), _certify("rule-poly-2-8", "thm2", "p28", 2),
             reads=("rule-poly-2-8",)),
        Spec("prop2-poly-3-4", "certify", (), _certify("rule-poly-3-4", "prop2", "p34"),
             reads=("rule-poly-3-4",)),
        Spec("prop2-poly-3-5", "certify", (), _certify("rule-poly-3-5", "prop2", "p35"),
             reads=("rule-poly-3-5",),
             known_defect=(1, "MemoryError")),
        Spec("sweep-lattice-s2", "sweep", ("sw2",),
             _sweep("lattice", "31,61,127,251,509,1021,2039,4093", 2, "sw2")),
        Spec("sweep-lattice-s3", "sweep", ("sw3",),
             _sweep("lattice", "31,61,127,251,509,1021", 3, "sw3"),
             known_defect=(3, "dual minima enumeration too large for N=509")),
        Spec("sweep-poly-s3", "sweep", ("swp",), _sweep("poly-lattice", "3,4,5,6,7", 3, "swp")),
    ),
)

WORKLOADS = {w.name: w for w in (LATTICE_BUILD, POLY_BUILD, CERTIFY)}
