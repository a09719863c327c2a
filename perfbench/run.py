"""Benchmark of the markovdetect package on seeded workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload text-detect --seed 1 --seconds 15 --trace 0

With ``--trace 0`` it prints the end-to-end metrics, measured with tracing
off; with ``--trace 1`` it alternates untraced and traced passes and prints
the per-layer metrics plus the tracing overhead.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  See perfbench/README.md for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_REPEATS = 3


def _load_package():
    """Import markovdetect from this checkout's sources, or exit nonzero."""
    if not (SRC / "markovdetect" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import markovdetect
    if Path(markovdetect.__file__).resolve().parent != SRC / "markovdetect":
        sys.exit(f"perfbench: imported markovdetect from {markovdetect.__file__}, not {SRC}")


def _setup_seconds() -> float:
    """Median wall time of a fresh interpreter importing the package."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import markovdetect.cli"], cwd=ROOT, env=env,
                       check=True, timeout=120, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run(workload_name: str, seed: int, seconds: float, trace: bool, size: str = "full",
        corrupt=None) -> dict:
    """Run one workload; return the result object that the command prints.

    ``corrupt``, when given, is called with the finished passes before the
    output checks; the smoke test uses it to damage an output on purpose.
    """
    from spans import Tracer
    from speed import SpeedProbe
    from workloads import WORKLOADS

    # fixed-width names keep the paths written into run artifacts the same length
    work = WORK / f"{workload_name}-{os.getpid():07d}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        workload = WORKLOADS[workload_name](size, seed, work)
        workload.prepare()
        setup_s = None if trace else _setup_seconds()
        tracer = Tracer() if trace else None
        passes, traced = [], []
        probe = SpeedProbe()
        with probe.sampling():
            # one untimed pass lets lazy imports and allocator pools settle
            warmup = workload.run_pass(work / "pass-warm")
            deadline = time.perf_counter() + seconds
            while len(passes) < (2 if trace else 1) or time.perf_counter() < deadline:
                index = len(passes)
                is_traced = trace and index % 2 == 1
                with tracer.installed(index) if is_traced else contextlib.nullcontext():
                    passes.append(workload.run_pass(work / f"pass{index:04d}"))
                traced.append(is_traced)
        peak_rss_mb = _peak_rss_mb()
        for ops in passes:
            for op in ops:
                op.seconds = probe.normalize(op.start, op.end)
        walls = [sum(op.seconds for op in ops) for ops in passes]
        raw_walls = [sum(op.end - op.start for op in ops) for ops in passes]

        if corrupt is not None:
            corrupt(passes)
        attempted = failed = 0
        for ops in [warmup] + passes:
            for op in ops:
                attempted += 1
                problem = op.error
                if problem is None:
                    try:
                        problem = workload.check(op)
                    except (OSError, ValueError, KeyError, TypeError) as exc:
                        problem = f"unreadable output: {type(exc).__name__}: {exc}"
                if problem:
                    failed += 1
                    print(f"FAILED {op.stage}: {problem}", file=sys.stderr)

        untraced_walls = [w for w, t in zip(walls, traced) if not t]
        if trace:
            runs = [i for i, t in enumerate(traced) if t]
            metrics = _layer_metrics(tracer, runs)
            metrics["trace_overhead_s"] = _metric(
                statistics.median(w for w, t in zip(walls, traced) if t)
                - statistics.median(untraced_walls), "s")
            WORK.mkdir(exist_ok=True)
            tracer.write(WORK / f"spans-{workload_name}-seed{seed}.json")
        else:
            # the child interpreters cannot host the probe, so scale their time
            # by the host speed the probe saw over the rest of the run
            metrics = {
                "setup_s": _metric(setup_s * probe.speed_factor(), "s"),
                "wall_s": _metric(statistics.median(untraced_walls), "s"),
                "peak_rss_mb": _metric(peak_rss_mb, "MB"),
            }
            print(f"{workload_name} raw_setup_s {setup_s:.6g} s")
            print(f"{workload_name} raw_wall_s {statistics.median(raw_walls):.6g} s")
            for name, (value, unit) in workload.stage_metrics(passes).items():
                print(f"{workload_name} {name} {value:.6g} {unit}")
        for name, m in metrics.items():
            print(f"{workload_name} {name} {m['value']:.6g} {m['unit']}")
        print(f"{workload_name} fail_ratio {failed / attempted:.6g} 1 "
              f"({failed} of {attempted} operations, {len(passes)} passes)")
        return {"correct": failed == 0, "attempted": attempted, "failed": failed,
                "metrics": metrics}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _layer_metrics(tracer, runs: list[int]) -> dict:
    """Per-layer metrics: median self time over traced passes, counts of the first."""
    from spans import COUNTERS, MODULES, TARGETS
    names = [f"{module}.{path}" for module, path in TARGETS]
    selfs = [tracer.self_times(r) for r in runs]
    calls = [tracer.calls(r) for r in runs]
    counts = [tracer.counts[r] for r in runs]
    counters = list(COUNTERS) + [f"{module}.errors" for module in MODULES]
    for r, c, k in zip(runs[1:], calls[1:], counts[1:]):
        differ = [n for n in names if c.get(n, 0) != calls[0].get(n, 0)]
        differ += [n for n in counters if k.get(n, 0) != counts[0].get(n, 0)]
        if differ:
            print(f"WARNING: traced pass {r} differs from pass {runs[0]} in {differ}",
                  file=sys.stderr)
    metrics = {}
    for name in names:
        metrics[f"{name}.self_s"] = _metric(statistics.median(s.get(name, 0.0) for s in selfs), "s")
        metrics[f"{name}.calls"] = _metric(calls[0].get(name, 0), "count")
    for name in counters:
        metrics[name] = _metric(counts[0].get(name, 0), "count")
    return metrics


def main(argv=None) -> int:
    from workloads import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full",
                        help="toy sizes are for the smoke test")
    args = parser.parse_args(argv)
    _load_package()
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
