"""Outside-in tracing of the package's public functions.

:class:`Tracer` wraps each target function at every module attribute that
binds it (``cli`` imports ``exponent_fit`` by name, ``bounds_lab`` imports
``dbar_empirical``, and so on), records one span per call in memory and keeps
the counters named in ``COUNTERS``.  Wrappers are installed only inside
:meth:`Tracer.installed`, so untraced passes run the unmodified package.
"""
from __future__ import annotations

import contextlib
import inspect
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

# (module, attribute path) of every traced function, grouped by layer
TARGETS = [
    ("corpus", "tokenize"),
    ("corpus", "count_windows"),
    ("markov", "fit_empirical"),
    ("markov", "log_likelihood"),
    ("markov", "MarkovModel.load"),
    ("markov", "stationary"),
    ("markov", "sample"),
    ("markov", "hmm_sample"),
    ("markov", "hmm_sample_windows"),
    ("infometrics", "kl_rate"),
    ("infometrics", "estimate_profile"),
    ("infometrics", "kl"),
    ("hypotest", "lrt_statistic"),
    ("hypotest", "np_threshold"),
    ("hypotest", "exponent_fit"),
    ("hypotest", "miss_probability"),
    ("hypotest", "exact_statistic_table"),
    ("transport", "dbar_exact"),
    ("transport", "dbar_between"),
    ("transport", "dbar_empirical"),
    ("bounds_lab", "approx_experiment"),
    ("bounds_lab", "divergence_transport_probe"),
    ("cli", "main"),
]
MODULES = sorted({module for module, _ in TARGETS})


def _out_dir_bytes(args) -> int:
    argv = list(args["argv"] or [])
    if "--out" not in argv:
        return 0
    out = Path(argv[argv.index("--out") + 1])
    return sum(p.stat().st_size for p in out.iterdir() if p.is_file()) if out.is_dir() else 0


def _mc_trial_steps(args, result, span, tracer) -> int:
    """trials * n when no exact table answered the calibration."""
    exact = any(tracer.spans[c].name == "hypotest.exact_statistic_table"
                and not tracer.spans[c].returned_none for c in span.children)
    return 0 if exact else int(args["trials"]) * int(args["n"])


# counter name -> (traced function, count(bound args, result, span, tracer))
COUNTERS = {
    "markov.log_likelihood.tokens": (
        "markov.log_likelihood", lambda args, result, span, tracer: len(args["seq"])),
    "hypotest.mc.trial_steps": ("hypotest.np_threshold", _mc_trial_steps),
    "hypotest.exact_statistic_table.classes": (
        "hypotest.exact_statistic_table",
        lambda args, result, span, tracer: 0 if result is None else len(result[0])),
    "transport.dbar_exact.atoms": (
        "transport.dbar_exact", lambda args, result, span, tracer: len(args["mu"])),
    "transport.dbar_empirical.solves": (
        "transport.dbar_empirical",
        lambda args, result, span, tracer: int(args["bootstrap"]) + 1),
    "cli.artifact_bytes": (
        "cli.main", lambda args, result, span, tracer: _out_dir_bytes(args)),
}


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    run: int = 0
    children: list[int] = field(default_factory=list)
    returned_none: bool = False


class Tracer:
    """Span and counter recorder for the ``markovdetect`` package."""

    def __init__(self, package: str = "markovdetect"):
        self.package = package
        self.spans: list[Span] = []
        # run -> counter name -> count; errors are counted per layer
        self.counts: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.run = 0
        self._stack: list[int] = []

    # -- wrapping -------------------------------------------------------

    def _wrap(self, name: str, func):
        signature = inspect.signature(func)
        counters = [(cname, count) for cname, (target, count) in COUNTERS.items()
                    if target == name]
        module = name.split(".", 1)[0]
        tracer = self

        def traced(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = Span(name, time.perf_counter(), parent=parent, run=tracer.run)
            tracer.spans.append(span)
            if parent >= 0:
                tracer.spans[parent].children.append(index)
            tracer._stack.append(index)
            try:
                result = func(*args, **kwargs)
            except Exception:
                tracer.counts[tracer.run][f"{module}.errors"] += 1
                raise
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            span.returned_none = result is None
            if counters:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counts = tracer.counts[tracer.run]
                for cname, count in counters:
                    counts[cname] += count(bound.arguments, result, span, tracer)
            return result

        traced.__wrapped__ = func
        return traced

    def _bindings(self):
        """(owner, attribute, original, wrapper) for every binding of every target."""
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == self.package or n.startswith(self.package + "."))]
        out = []
        for module_name, path in TARGETS:
            name = f"{module_name}.{path}"
            owner = sys.modules[f"{self.package}.{module_name}"]
            if "." in path:  # a classmethod on a class of the module
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[attr]
                out.append((cls, attr, raw, classmethod(self._wrap(name, raw.__func__))))
                continue
            original = getattr(owner, path)
            wrapper = self._wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        out.append((module, attr, original, wrapper))
        return out

    @contextlib.contextmanager
    def installed(self, run: int):
        """Trace every target while the block runs; restore originals after."""
        self.run = run
        bindings = self._bindings()
        for owner, attr, _, wrapper in bindings:
            setattr(owner, attr, wrapper)
        try:
            yield self
        finally:
            for owner, attr, original, _ in reversed(bindings):
                setattr(owner, attr, original)

    # -- reporting ------------------------------------------------------

    def self_times(self, run: int) -> dict[str, float]:
        """Per function: summed span duration minus the time child spans cover."""
        out: dict[str, float] = defaultdict(float)
        for span in self.spans:
            if span.run != run:
                continue
            covered = sum(self.spans[c].end - self.spans[c].start for c in span.children)
            out[span.name] += (span.end - span.start) - covered
        return out

    def calls(self, run: int) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for span in self.spans:
            if span.run == run:
                out[span.name] += 1
        return out

    def write(self, path: Path) -> None:
        rows = [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "run": s.run} for s in self.spans]
        path.write_text(json.dumps({"spans": rows}) + "\n", encoding="utf-8")
