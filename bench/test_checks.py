"""Tests of the benchmark's own checks: clean outputs pass, and each kind of
corrupted output is rejected.

    python3 -m pytest -q bench/test_checks.py
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH_DIR), "src"), BENCH_DIR]

import reference  # noqa: E402
import run  # noqa: E402
from fake import FakeChatBackend  # noqa: E402
from rewritebench import cli, gateway, relations  # noqa: E402
from rewritebench.core import RewriteRule  # noqa: E402

SPEC = (3, 5, "a")


@pytest.fixture(scope="module")
def small(tmp_path_factory):
    """A 32-instance lite dataset (2 per category) and its reorder set."""
    d = tmp_path_factory.mktemp("small")
    dataset_path, perm_path = str(d / "dataset.json"), str(d / "perm.json")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.dispatch(["gen", "--preset", "lite", "--seed", "5", "--size", "32",
                             "--out", dataset_path]) == 0
        assert cli.dispatch(["perm", "--dataset", dataset_path, "--out", perm_path]) == 0
    with open(dataset_path) as fh:
        dataset = json.load(fh)
    with open(perm_path) as fh:
        perm = json.load(fh)
    return dataset, perm, d


def test_clean_generation_passes(small):
    dataset, perm, _ = small
    assert reference.check_pbe_dataset(dataset) == []
    assert reference.check_reorder_dataset(perm, dataset) == []


def test_swapped_outputs_rejected(small):
    dataset = copy.deepcopy(small[0])
    a, b = dataset["instances"][:2]
    a["outputs"], b["outputs"] = b["outputs"], a["outputs"]
    errors = reference.check_pbe_dataset(dataset)
    assert any("outputs differ" in e for e in errors)


def test_wrong_category_rejected(small):
    dataset = copy.deepcopy(small[0])
    inst = dataset["instances"][0]
    inst["category"] = format(int(inst["category"], 2) ^ 0b1000, "04b")
    errors = reference.check_pbe_dataset(dataset)
    assert any("fb_edges" in e for e in errors)
    assert any("category counts" in e for e in errors)


def test_duplicate_and_no_op_rule_rejected(small):
    dataset = copy.deepcopy(small[0])
    dataset["instances"][1] = copy.deepcopy(dataset["instances"][0])
    dataset["instances"][2]["programs"].append({"find": "q", "replace": "r"})
    errors = reference.check_pbe_dataset(dataset)
    assert any("duplicate signature" in e for e in errors)
    assert any("unchanged" in e or "cascade length" in e for e in errors)


def test_off_by_one_valid_orders_rejected(small):
    dataset, perm, _ = small
    perm = copy.deepcopy(perm)
    perm["instances"][0]["n_valid_orders"] += 1
    errors = reference.check_reorder_dataset(perm, dataset)
    assert any("n_valid_orders" in e for e in errors)


def test_gt_order_that_fails_rejected(small):
    dataset, perm, _ = small
    perm = copy.deepcopy(perm)
    inst = perm["instances"][0]
    inst["gt_order"] = list(range(len(inst["gt_order"])))
    errors = reference.check_reorder_dataset(perm, dataset)
    assert any("gt_order does not reproduce" in e for e in errors)


def _solve(small, kind):
    """Solve the small set against the fake, as the solve-mock round does."""
    from rewritebench.permuter import load_perm_dataset
    from rewritebench.proposer import Dataset

    dataset, perm, d = small
    if kind == "pbe":
        instances = Dataset.from_dict(dataset).instances
        table = {gateway.render_pbe_prompt(inst, s_max=3, L_max=5):
                 (inst.id, pos, [(r.source, r.target) for r in inst.cascade])
                 for pos, inst in enumerate(instances)}
        plain = dataset["instances"]
    else:
        instances = load_perm_dataset(str(d / "perm.json"))[:16]
        table = {gateway.render_reorder_prompt(inst):
                 (inst.source_id, pos, (inst.gt_order, len(inst.scrambled)))
                 for pos, inst in enumerate(instances)}
        plain = perm["instances"][:16]
    fake = FakeChatBackend(kind, table, s_max=3)
    config = gateway.SolverConfig(sampling_budget=4, max_in_flight=2)
    selected, logs = gateway.solve_dataset(
        instances, config, fake, kind, s_max=3, L_max=5, identity_symbol="a",
        sleep=fake.sleep)
    return (plain, [lg.to_dict() for lg in logs], fake,
            [s.attempt_index for s in selected])


@pytest.mark.parametrize("kind", ["pbe", "reorder"])
def test_clean_attempts_pass(small, kind):
    plain, logs, fake, selected = _solve(small, kind)
    errors, chosen = reference.check_attempts(
        kind, plain, logs, fake.served, fake.rate_limited, selected, 4, SPEC)
    assert errors == []
    assert len(chosen) == len(plain)
    assert fake.rate_limited and fake.sleeps


@pytest.mark.parametrize("kind", ["pbe", "reorder"])
def test_flipped_passed_rejected(small, kind):
    plain, logs, fake, selected = _solve(small, kind)
    logs[5]["eval"]["passed"] = not logs[5]["eval"]["passed"]
    errors, _ = reference.check_attempts(
        kind, plain, logs, fake.served, fake.rate_limited, selected, 4, SPEC)
    assert any("passed" in e for e in errors)


def test_wrong_edit_sim_and_selection_rejected(small):
    plain, logs, fake, selected = _solve(small, "pbe")
    logs[0]["eval"]["edit_sim"] += 0.01
    selected[3] = (selected[3] + 1) % 4
    errors, _ = reference.check_attempts(
        "pbe", plain, logs, fake.served, fake.rate_limited, selected, 4, SPEC)
    assert any("edit_sim" in e for e in errors)
    assert any("selected attempt" in e for e in errors)


def test_unexplained_transport_error_rejected(small):
    plain, logs, fake, selected = _solve(small, "pbe")
    log = next(lg for lg in logs if lg["finish_reason"] != "transport_error")
    log["finish_reason"] = "transport_error"
    errors, _ = reference.check_attempts(
        "pbe", plain, logs, fake.served, fake.rate_limited, selected, 4, SPEC)
    assert any("429" in e for e in errors)


def test_replayed_metrics_must_match(small):
    plain, logs, fake, selected = _solve(small, "pbe")
    _, chosen = reference.check_attempts(
        "pbe", plain, logs, fake.served, fake.rate_limited, selected, 4, SPEC)
    expected = reference.expected_pbe_metrics(chosen)
    assert reference.check_metrics("report", dict(expected), expected) == []
    wrong = dict(expected, pass_at_1=expected["pass_at_1"] + 1 / len(plain))
    assert reference.check_metrics("report", wrong, expected)


def test_fake_is_deterministic_across_workers(small):
    a = _solve(small, "pbe")
    b = _solve(small, "pbe")
    assert a[1] == b[1] and a[3] == b[3]


def test_non_witness_rejected():
    p, q = ("ab", "c"), ("c", "a")
    good = reference.find_witness(p, q, reference.witness_bound(p, q), 1)
    assert good is not None
    assert reference.check_relation_results([(p, q, good, None)], 1) == []
    errors = reference.check_relation_results([(p, q, "ba", None)], 0)
    assert any("not a witness" in e for e in errors)


def test_missed_witness_rejected():
    p, q = ("ab", "c"), ("c", "a")
    errors = reference.check_relation_results([(p, q, None, None)], 1)
    assert any("oracle missed witness" in e for e in errors)


def test_program_oracle_results_pass():
    p, q = RewriteRule("b", "cc"), RewriteRule("cb", "a")
    bound = reference.witness_bound((p.source, p.target), (q.source, q.target))
    result = ((p.source, p.target), (q.source, q.target),
              relations.oracle_feeds(p, q, bound), relations.oracle_bleeds(p, q, bound))
    assert reference.check_relation_results([result], 2) == []


def test_benchmark_json_lists_the_printed_metrics():
    with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def test_run_rejects_a_wrong_oracle(monkeypatch, capsys):
    """End to end: a program whose oracle returns non-witnesses fails the run."""
    monkeypatch.setattr(relations, "oracle_feeds", lambda p, q, n: p.source)
    code = run.main(["--workload", "verify-relations", "--seed", "3",
                     "--seconds", "0", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1 and result["correct"] is False
