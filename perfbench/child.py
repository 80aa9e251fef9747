"""Launch one qmcforge CLI job on behalf of the benchmark.

    python3 child.py READY_FD [--spans FILE] -- CLI_ARGS...

The launcher imports ``qmcforge.cli``, writes the ``time.monotonic()`` reading
taken right after that import to the file descriptor READY_FD (so the parent
can time interpreter start plus imports), and then calls
``qmcforge.cli.main(CLI_ARGS)`` exactly as ``python -m qmcforge.cli`` does.

With ``--spans FILE`` the launcher first wraps every public function of every
loaded ``qmcforge`` module in a span (or, for the functions in COUNTED, in a
bare call counter), in each module that binds the name, so that calls made
through ``from ... import`` names are seen too.  The spans are written to FILE
as JSON when the CLI returns or raises.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import sys
import threading
import time

# Called thousands of times per job; a span each would distort the timings.
COUNTED = frozenset({
    "gfpoly.gf_mulmod", "gfpoly.nu_m", "walsh.mu_of", "walsh.walsh_phi_alpha",
    "discrepancy.r_tilde", "weights.subsets_of",
})

# Spans of these functions also record the named arguments.
RECORDED_ARGS = {
    "cbc.cbc_construct": ("N", "s"),
    "cbc.cbc_construct_fast": ("N", "s"),
}


class Tracer:
    """Spans kept in memory: name, start, end, parent, self time.

    Each thread has its own stack, so spans opened by the sweep's worker
    threads have no parent from the thread that submitted them.
    """

    def __init__(self):
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self.spans: list[dict] = []
        self.counts: dict[str, int] = {}
        self.cached: dict[str, object] = {}

    def _stack(self) -> list[dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn):
        arg_names = RECORDED_ARGS.get(name)
        signature = inspect.signature(fn) if arg_names else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            rec = {"id": next(self._ids), "name": name,
                   "parent": parent["id"] if parent else None, "child_s": 0.0}
            if signature is not None:
                bound = signature.bind_partial(*args, **kwargs).arguments
                rec["args"] = {k: bound.get(k) for k in arg_names}
            stack.append(rec)
            rec["start"] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec["end"] = time.perf_counter()
                stack.pop()
                duration = rec["end"] - rec["start"]
                rec["self_s"] = duration - rec.pop("child_s")
                if parent is not None:
                    parent["child_s"] += duration
                self.spans.append(rec)
        return wrapper

    def counter(self, name: str, fn):
        self.counts[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self._lock:
                self.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        """Replace each public qmcforge function, in every module binding it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "qmcforge" or n.startswith("qmcforge.")) and m is not None]
        replaced: dict[int, object] = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                home = getattr(obj, "__module__", None) or ""
                if not home.startswith("qmcforge."):
                    continue
                if id(obj) not in replaced:
                    name = f"{home.rsplit('.', 1)[1]}.{obj.__name__}"
                    if hasattr(obj, "cache_info"):
                        self.cached[name] = obj
                    if name in COUNTED or inspect.isgeneratorfunction(obj):
                        replaced[id(obj)] = self.counter(name, obj)
                    else:
                        replaced[id(obj)] = self.span(name, obj)
                setattr(module, attr, replaced[id(obj)])

    def dump(self, path: str) -> None:
        cache = {name: fn.cache_info()._asdict() for name, fn in self.cached.items()}
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": self.counts, "cache": cache}, fh)


def main(argv: list[str]) -> int:
    ready_fd = int(argv[0])
    rest = argv[1:]
    spans_path = None
    if rest[:1] == ["--spans"]:
        spans_path, rest = rest[1], rest[2:]
    if rest[:1] != ["--"]:
        raise SystemExit("usage: child.py READY_FD [--spans FILE] -- CLI_ARGS...")
    cli_args = rest[1:]

    import qmcforge.cli

    os.write(ready_fd, repr(time.monotonic()).encode())
    os.close(ready_fd)
    if spans_path is None:
        return qmcforge.cli.main(cli_args)
    tracer = Tracer()
    tracer.install()
    try:
        return qmcforge.cli.main(cli_args)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
