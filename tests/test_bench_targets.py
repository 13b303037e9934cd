"""The benchmark's traced mode wraps functions by name. A name that no longer
resolves is skipped with only a warning, and its per-layer metrics read 0,
so every name it traces must still be defined by the program. Every other
program name the benchmark's code reads must exist too, and every program
function or class it calls must accept the arguments it passes, or its runs
fail."""

import ast
import contextlib
import importlib
import inspect
import pathlib
import sys
import types

import pytest

BENCH_DIR = pathlib.Path(__file__).resolve().parents[1] / "bench"


def trace_target_names():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCH_DIR))
        mp.setattr(sys, "dont_write_bytecode", True)
        workloads = importlib.import_module("workloads")
    workload = workloads.Workload(seed=0, workdir=".", clock=None)
    return sorted(workload.trace_targets())


@pytest.mark.parametrize("dotted", trace_target_names())
def test_traced_name_resolves(dotted):
    module_name, attr = dotted.rsplit(".", 1)
    module = importlib.import_module(f"rewritebench.{module_name}")
    assert callable(getattr(module, attr, None)), (
        f"bench traces rewritebench.{dotted}, which is not defined"
    )


PROGRAM_MODULES = {"cli", "core", "gateway", "permuter", "proposer", "relations"}


def _dotted(node):
    """``a.b.c`` of an attribute chain on a plain name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id, *reversed(parts)])


def bench_program_names():
    """Every ``module.attr[.attr…]`` chain on a program module, and every
    ``from rewritebench… import`` name, in the benchmark's Python files."""
    names = set()
    for path in sorted(BENCH_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute):
                dotted = _dotted(node)
                if dotted and dotted.split(".", 1)[0] in PROGRAM_MODULES:
                    names.add(dotted)
            elif isinstance(node, ast.ImportFrom) and (
                node.module or ""
            ).startswith("rewritebench"):
                module = node.module.removeprefix("rewritebench").lstrip(".")
                names.update(
                    f"{module}.{alias.name}" if module else alias.name
                    for alias in node.names
                )
    return sorted(names)


def _program_object(dotted):
    """The program object a ``module.attr[.attr…]`` name resolves to."""
    value = importlib.import_module("rewritebench")
    for part in dotted.split("."):
        if isinstance(value, types.ModuleType) and not hasattr(value, part):
            with contextlib.suppress(ModuleNotFoundError):
                importlib.import_module(f"{value.__name__}.{part}")
        value = getattr(value, part)
    return value


@pytest.mark.parametrize("dotted", bench_program_names())
def test_bench_program_name_resolves(dotted):
    try:
        _program_object(dotted)
    except AttributeError:
        pytest.fail(f"bench reads rewritebench.{dotted}, which is not defined")


def bench_program_calls():
    """Every call in the benchmark's Python files whose callee is a program
    name, directly or through a ``from rewritebench… import`` name: the
    name, the number of positional arguments and the keyword names."""
    calls = []
    for path in sorted(BENCH_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                node.module or ""
            ).startswith("rewritebench"):
                module = node.module.removeprefix("rewritebench").lstrip(".")
                for alias in node.names:
                    imported[alias.asname or alias.name] = (
                        f"{module}.{alias.name}" if module else alias.name
                    )
        for node in ast.walk(tree):
            dotted = isinstance(node, ast.Call) and _dotted(node.func)
            if not dotted:
                continue
            head, dot, rest = dotted.partition(".")
            if head in imported:
                dotted = imported[head] + dot + rest
            elif head not in PROGRAM_MODULES:
                continue
            assert not any(isinstance(a, ast.Starred) for a in node.args) and all(
                k.arg for k in node.keywords
            ), f"{path.name}:{node.lineno} unpacks arguments; bind it by hand"
            calls.append(pytest.param(
                dotted, len(node.args), [k.arg for k in node.keywords],
                id=f"{path.name}:{node.lineno}:{node.col_offset}:{dotted}",
            ))
    return calls


@pytest.mark.parametrize("dotted, n_positional, keywords", bench_program_calls())
def test_bench_call_binds(dotted, n_positional, keywords):
    """A renamed keyword, a new required argument or a dropped positional
    one would make the benchmark's call raise TypeError."""
    signature = inspect.signature(_program_object(dotted))
    try:
        signature.bind(*range(n_positional), **dict.fromkeys(keywords))
    except TypeError as exc:
        pytest.fail(
            f"bench calls rewritebench.{dotted} with {n_positional} positional "
            f"arguments and keywords {keywords}, which {signature} rejects: {exc}"
        )
