"""Smoke test of the benchmark itself, at toy sizes (about a minute).

Run from the root of a checkout:

    python3 perfbench/smoke.py

It checks that every workload prints each metric that BENCHMARK.json names,
with its unit, in both the untraced and the traced run, that every output
check passes at this size, and that a deliberately corrupted ``dbar`` output
is counted as a failed operation.
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _expect(result: dict, specs: list[dict], printed: str, label: str) -> list[str]:
    problems = []
    if not result["correct"] or result["failed"]:
        problems.append(f"{label}: {result['failed']} of {result['attempted']} operations failed")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {spec["name"]: spec["unit"] for spec in specs}
    if got != want:
        problems.append(f"{label}: metrics {sorted(set(got) ^ set(want))} missing, extra "
                        "or with the wrong unit")
    workload = label.split()[0]
    for name, unit in want.items():
        if not any(line.split()[1:2] == [name] and line.split()[-1] == unit
                   for line in printed.splitlines() if line.startswith(workload)):
            problems.append(f"{label}: no printed line for {name} in {unit}")
    return problems


def _corrupt_first_dbar(passes) -> None:
    for ops in passes:
        for op in ops:
            if op.stage == "dbar":
                path = Path(op.out) / "dbar.json"
                record = json.loads(path.read_text(encoding="utf-8"))
                record["value"] = repr(float(record["value"]) + 1e-6)
                path.write_text(json.dumps(record), encoding="utf-8")
                return
    raise AssertionError("no dbar operation to corrupt")


def main() -> int:
    run._load_package()
    problems = []
    for spec in BENCHMARK["workloads"]:
        for trace, specs in ((False, BENCHMARK["end_to_end"]), (True, BENCHMARK["per_layer"])):
            label = f"{spec['name']} trace={int(trace)}"
            printed = io.StringIO()
            with contextlib.redirect_stdout(printed):
                result = run.run(spec["name"], 1, 1, trace, size="toy")
            found = _expect(result, specs, printed.getvalue(), label)
            print(f"{'FAIL' if found else 'ok'} {label}: {result['attempted']} operations")
            problems += found

    with contextlib.redirect_stdout(io.StringIO()):
        result = run.run("transport-bootstrap", 1, 1, False, size="toy",
                         corrupt=_corrupt_first_dbar)
    if result["failed"] != 1 or result["correct"]:
        problems.append(f"corrupted dbar output counted as {result['failed']} failures, not 1")
    else:
        print(f"ok corrupted dbar output: fail_ratio {result['failed']}/{result['attempted']}")

    for problem in problems:
        print("FAIL", problem)
    print("smoke test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
