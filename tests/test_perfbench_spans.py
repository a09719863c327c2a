"""The benchmark tracer names package functions by string; check those names.

``perfbench/spans.py`` wraps the functions listed in ``TARGETS`` and reads
call arguments by name in ``COUNTERS``.  A renamed function or parameter
would only show when the benchmark runs with tracing on, so this test reads
the file's source (without editing it) and resolves each name against the
package.  The transport tests load the file and trace real solves with it.
"""
import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

from markovdetect import transport

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _module_tree():
    return ast.parse(SPANS.read_text(encoding="utf-8"))


def _assigned(tree, name):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return node.value
    raise AssertionError(f"{SPANS.name} assigns no {name}")


def _resolve(dotted):
    module, _, path = dotted.partition(".")
    obj = importlib.import_module(f"markovdetect.{module}")
    for attr in path.split("."):
        obj = getattr(obj, attr)
    return obj


def _argument_names(func_node, functions, param=None):
    """Constant keys read from parameter ``param`` (default the first), as in
    ``args["n"]``, also inside module functions it is passed on to."""
    param = param or func_node.args.args[0].arg
    names = set()
    for node in ast.walk(func_node):
        if (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
                and node.value.id == param and isinstance(node.slice, ast.Constant)):
            names.add(node.slice.value)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in functions:
            callee = functions[node.func.id]
            for i, arg in enumerate(node.args):
                if isinstance(arg, ast.Name) and arg.id == param:
                    names |= _argument_names(callee, functions, callee.args.args[i].arg)
    return names


TARGETS = ast.literal_eval(_assigned(_module_tree(), "TARGETS"))


@pytest.mark.parametrize("module,path", TARGETS, ids=[f"{m}.{p}" for m, p in TARGETS])
def test_trace_target_resolves(module, path):
    assert callable(_resolve(f"{module}.{path}"))


def test_counter_arguments_are_parameters():
    tree = _module_tree()
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    counters = _assigned(tree, "COUNTERS")
    targets = {f"{m}.{p}" for m, p in TARGETS}
    read = set()
    for key, value in zip(counters.keys, counters.values):
        target_node, count_node = value.elts
        target = ast.literal_eval(target_node)
        assert target in targets, f"counter {key.value} wraps untraced {target}"
        if isinstance(count_node, ast.Name):
            count_node = functions[count_node.id]
        names = _argument_names(count_node, functions)
        params = inspect.signature(_resolve(target)).parameters
        missing = names - set(params)
        assert not missing, f"counter {key.value} reads {missing}, not parameters of {target}"
        read |= names
    assert read, "no counter argument found; the parser no longer matches spans.py"


def _tracer_module(monkeypatch):
    """``perfbench/spans.py`` loaded from its file, unedited, with every
    package module it traces imported, as the benchmark has them."""
    spec = importlib.util.spec_from_file_location("perfbench_spans_under_test", SPANS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    for name in module.MODULES:
        importlib.import_module(f"markovdetect.{name}")
    return module


def test_transport_spans_count_through_the_module_bindings(monkeypatch):
    """``dbar_exact`` reaches the tracer's ``transport.dbar_between`` once per
    call, so its call count and ``transport.dbar_exact.atoms`` keep counting,
    and ``dbar_empirical``'s solves count its bootstrap replicates."""
    tracer = _tracer_module(monkeypatch).Tracer()
    dbar_between = transport.dbar_between
    rng = np.random.default_rng(3)
    mu, nu = rng.dirichlet(np.ones(8)), rng.dirichlet(np.ones(8))
    with tracer.installed(0):
        for _ in range(2):
            transport.dbar_exact(mu, nu, 3)
        transport.dbar_empirical(rng.integers(0, 2, size=(50, 3)),
                                 rng.integers(0, 2, size=(50, 3)), bootstrap=5)
    calls = tracer.calls(0)
    assert (calls["transport.dbar_exact"], calls["transport.dbar_between"]) == (2, 2)
    assert calls["transport.dbar_empirical"] == 1
    assert tracer.counts[0]["transport.dbar_exact.atoms"] == 16
    assert tracer.counts[0]["transport.dbar_empirical.solves"] == 6
    assert transport.dbar_between is dbar_between


_ENGINE_SOLVES = {
    "tree-enumeration": ("_tree_flow", lambda mu, nu: transport.dbar_value(mu, nu, 3)[0]),
    "hamming-flow": ("_highs_flow", lambda mu, nu: transport.dbar_value(mu, nu, 3, 3)[0]),
    # a word listed twice keeps the supports off the cube
    "support-flow": ("_highs_flow", lambda mu, nu: transport.dbar_between(
        [(0, 0), (0, 0), (1, 2)], [0.2, 0.3, 0.5], [(2, 1), (1, 1)], [0.4, 0.6]).value),
}


@pytest.mark.parametrize("engine", sorted(_ENGINE_SOLVES))
def test_patched_engines_reach_the_cached_cube_solvers(monkeypatch, engine):
    """The selector caches each cube's bound solve, and the bound solve still
    looks the module-level engine up when called, so patching
    ``transport._tree_flow`` or ``transport._highs_flow`` after the cache is
    warm reaches every solve."""
    solver, solve = _ENGINE_SOLVES[engine]
    rng = np.random.default_rng(4)
    n = 8 if engine == "tree-enumeration" else 27
    mu, nu = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))
    want = solve(mu, nu)
    real, calls = getattr(transport, solver), []

    def recorded(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(transport, solver, recorded)
    assert solve(mu, nu) == want
    assert len(calls) == 1
