"""Smoke tests of the public surface: every demo script runs to completion
and prints what it printed before, and every exported name resolves."""

import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

import rewritebench

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# sha256 of each demo's stdout; the demos are seeded, so a change here is a
# change in what the library computes or prints.
STDOUT_SHA256 = {
    "01_generate_dataset.py":
        "23531aa9f80346d2ade130b35cfc7b3dbd1684829f750c6c373c2c8aefca2c3e",
    "02_relation_calculus.py":
        "0145e798c90f2cc956283361197de5f383ea11121680160a63955841c2e0be12",
    "03_reordering_task.py":
        "1e6842263796e07adf8b79429acc5fe6b101756be60bd898a3b212cabdef0133",
    "04_mock_solver_run.py":
        "4e6b9cacb14f39fa2678356bd4a84fe30c7b8b892da7b2f505547a227d18609b",
}


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_0(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env,
        capture_output=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr.decode(errors="replace")
    assert hashlib.sha256(result.stdout).hexdigest() == STDOUT_SHA256[demo.name]


def test_every_exported_name_resolves():
    for name in rewritebench.__all__:
        getattr(rewritebench, name)  # AttributeError names a stale export
