"""The benchmark tracer names package functions by string; check those names.

``perfbench/spans.py`` wraps the functions listed in ``TARGETS`` and reads
call arguments by name in ``COUNTERS``.  A renamed function or parameter
would only show when the benchmark runs with tracing on, so this test reads
the file's source (without importing or editing it) and resolves each name
against the package.
"""
import ast
import importlib
import inspect
from pathlib import Path

import pytest

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
