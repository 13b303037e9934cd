"""The benchmark's traced mode wraps functions by name. A name that no longer
resolves is skipped with only a warning, and its per-layer metrics read 0,
so every name it traces must still be defined by the program."""

import importlib
import pathlib
import sys

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
