"""The benchmark's traced mode wraps functions by name. A name that no longer
resolves is skipped with only a warning, and its per-layer metrics read 0,
so every name it traces must still be defined by the program. Every other
program name the benchmark's code reads must exist too, or its runs fail."""

import ast
import contextlib
import importlib
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


@pytest.mark.parametrize("dotted", bench_program_names())
def test_bench_program_name_resolves(dotted):
    value = importlib.import_module("rewritebench")
    for part in dotted.split("."):
        if isinstance(value, types.ModuleType) and not hasattr(value, part):
            with contextlib.suppress(ModuleNotFoundError):
                importlib.import_module(f"{value.__name__}.{part}")
        assert hasattr(value, part), (
            f"bench reads rewritebench.{dotted}, which is not defined"
        )
        value = getattr(value, part)
