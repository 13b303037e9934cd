"""CLI tests: subcommand behaviour, exit codes, config validation, and
reproducibility of generated artifacts."""

import ast
import hashlib
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from dataclasses import fields

from chat_server import TRUNCATE, chat_reply

from rewritebench import core, gateway
from rewritebench.cli import dispatch
from rewritebench.core import RewriteRule, apply_rule, write_json
from rewritebench.gateway import SolverConfig
from rewritebench.permuter import load_perm_dataset
from rewritebench.proposer import Dataset, GeneratorParams, lite_params
from rewritebench.relations import (
    ALL_CATEGORIES,
    classify_bfcc,
    default_oracle_bound,
    oracle_bleeds,
    oracle_feeds,
)


def run(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def small_dataset(tmp_path, capsys):
    path = tmp_path / "ds.json"
    code, _, err = run(
        capsys, "gen", "--out", str(path), "--seed", "3", "--preset", "lite",
        "--size", "32", "--tau", "5000",
    )
    assert code == 0, err
    return path


class TestGen:
    def test_generates_dataset(self, small_dataset):
        data = json.loads(small_dataset.read_text())
        assert len(data["instances"]) == 32
        assert data["params"]["seed"] == 3

    def test_byte_identical_regeneration(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["gen", "--seed", "9", "--preset", "lite", "--size", "16",
                "--tau", "2000"]
        assert run(capsys, *args, "--out", str(a))[0] == 0
        assert run(capsys, *args, "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_required(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "gen", "--out", str(tmp_path / "x.json"), "--preset", "lite"
        )
        assert code == 1
        assert "--seed" in err

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"n": 2, "bogus_knob": 1}))
        code, _, err = run(
            capsys, "gen", "--out", str(tmp_path / "x.json"), "--seed", "0",
            "--preset", "lite", "--config", str(config),
        )
        assert code == 1
        assert "bogus_knob" in err

    @pytest.mark.parametrize("setting, kind", [
        pytest.param({"n": 2.5}, "an integer", id="2.5"),
        pytest.param({"n": True}, "an integer", id="True"),
        pytest.param({"t_min": 1.0}, "an integer or null", id="t_min"),
        pytest.param({"quota_mode": 1}, "a string", id="quota_mode"),
        pytest.param({"alphabet": ["a", "b"]}, "a string", id="alphabet"),
    ])
    def test_setting_of_another_type_exits_1(
        self, tmp_path, capsys, setting, kind
    ):
        config = tmp_path / "setting.json"
        config.write_text(json.dumps(setting))
        path = tmp_path / "x.json"
        code, out, err = run(
            capsys, "gen", "--out", str(path), "--seed", "0",
            "--preset", "lite", "--size", "16", "--config", str(config),
        )
        [(name, value)] = setting.items()
        assert code == 1, err
        assert out == ""
        assert f"invalid generator configuration: {name} {value!r} is not {kind}" in err
        assert not path.exists()

    def test_config_that_is_not_an_object_exits_1(self, tmp_path, capsys):
        config = tmp_path / "list.json"
        config.write_text(json.dumps([1, 2]))
        code, _, err = run(
            capsys, "gen", "--out", str(tmp_path / "x.json"), "--seed", "0",
            "--preset", "lite", "--config", str(config),
        )
        assert code == 1, err
        assert "must hold a JSON object" in err

    def test_invalid_params(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "gen", "--out", str(tmp_path / "x.json"), "--seed", "0",
            "--preset", "lite", "--l-min", "9", "--l-max", "2",
        )
        assert code == 1

    def test_lite_preset_allows_deletion(self, small_dataset):
        params = json.loads(small_dataset.read_text())["params"]
        assert (params["t_min"], params["s_min"], params["s_max"]) == (0, 1, 3)

    def test_t_min_flag(self, tmp_path, capsys):
        path = tmp_path / "ds.json"
        code, _, err = run(
            capsys, "gen", "--out", str(path), "--seed", "3", "--preset",
            "lite", "--size", "16", "--tau", "2000", "--t-min", "2",
        )
        assert code == 0, err
        data = json.loads(path.read_text())
        assert data["params"]["t_min"] == 2
        for inst in data["instances"]:
            assert all(len(p["replace"]) >= 2 for p in inst["programs"])

    def test_t_min_out_of_range(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "gen", "--out", str(tmp_path / "x.json"), "--seed", "0",
            "--preset", "lite", "--t-min", "4",
        )
        assert code == 1
        assert "t_min" in err

    def test_settings_without_t_min_pinned(self, tmp_path, capsys):
        """Left out, t_min takes s_min's value and its key stays after
        s_max; the hash was taken before t_min became keyword-only."""
        path = tmp_path / "ds.json"
        code, _, err = run(
            capsys, "gen", "--out", str(path), "--seed", "3", "--n", "3",
            "--alphabet", "abcd", "--l-min", "2", "--l-max", "4",
            "--cascade-min", "2", "--cascade-max", "3", "--s-min", "1",
            "--s-max", "2", "--size", "32", "--tau", "5000",
        )
        assert code == 0, err
        params = json.loads(path.read_text())["params"]
        assert list(params) == [
            "n", "alphabet", "l_min", "l_max", "L_min", "L_max", "s_min",
            "s_max", "t_min", "D", "tau", "seed", "quota_mode",
            "post_patience_policy",
        ]
        assert params["t_min"] == 1
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "462096bc5b50dd3b3370126d9f092f0daca72fe07da0823b16c6b12a7ba622b1"
        )

    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "frobnicate")[0] == 1

    @pytest.mark.parametrize("flags", [[], ["--alphabet", "abc"]])
    def test_missing_setting_exits_1(self, tmp_path, capsys, flags):
        out = tmp_path / "x.json"
        code, _, err = run(
            capsys, "gen", "--out", str(out), "--seed", "0", *flags
        )
        assert code == 1, err
        assert "invalid generator configuration" in err
        assert "missing" in err and "'n'" in err
        assert ("'alphabet'" in err) == (not flags)
        assert not out.exists()

    # Every gen flag, the field it sets and a value unlike the preset's.
    FLAGS = {
        "--n": ("n", 3), "--alphabet": ("alphabet", "abcdefg"),
        "--l-min": ("l_min", 3), "--l-max": ("l_max", 5),
        "--cascade-min": ("L_min", 2), "--cascade-max": ("L_max", 3),
        "--s-min": ("s_min", 1), "--s-max": ("s_max", 2),
        "--t-min": ("t_min", 1), "--size": ("D", 8), "--tau": ("tau", 200),
        "--quota-mode": ("quota_mode", "both"),
        "--post-patience-policy": ("post_patience_policy", "accept-any"),
        "--seed": ("seed", 4),
    }

    def test_every_flag_lands_on_its_field_over_config_and_preset(
        self, tmp_path, capsys
    ):
        assert {f for f, _ in self.FLAGS.values()} == {
            f.name for f in fields(GeneratorParams)
        }
        config = tmp_path / "config.json"
        config.write_text(json.dumps(lite_params(seed=9, D=5, tau=7).to_dict()))
        path = tmp_path / "ds.json"
        argv = [str(a) for flag, (_, value) in self.FLAGS.items()
                for a in (flag, value)]
        code, _, err = run(
            capsys, "gen", "--out", str(path), "--preset", "lite",
            "--config", str(config), *argv,
        )
        assert code == 0, err
        params = json.loads(path.read_text())["params"]
        assert params == {f: value for f, value in self.FLAGS.values()}


class TestPermAndStats:
    def test_perm(self, small_dataset, tmp_path, capsys):
        out = tmp_path / "perm.json"
        code, stdout, _ = run(
            capsys, "perm", "--dataset", str(small_dataset), "--out", str(out)
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert data["instances"]
        record = data["instances"][0]
        assert {"scrambled_programs", "gt_order", "n_valid_orders",
                "is_unique"} <= set(record)

    def test_stats(self, small_dataset, tmp_path, capsys):
        out = tmp_path / "stats.json"
        code, _, _ = run(
            capsys, "stats", "--dataset", str(small_dataset), "--out", str(out)
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert "kl_nats" in data and "mean_complexity" in data

    def test_missing_dataset_file(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "stats", "--dataset", str(tmp_path / "nope.json")
        )
        assert code == 1
        assert "not found" in err

    @pytest.mark.parametrize("name, digest", [
        pytest.param("dataset", "225340c3fa13ce6e0dbe8c2379d45ae44596cc26f647dc8723da4b13c4936a16", id="dataset"),
        pytest.param("perm", "d6ad81ec654ec1b09cb7543b3134a9384e0d1ac324385704b5bd3d1a770f4b0f", id="perm"),
        pytest.param("stats", "95bb0fa4b8d7a7cb198449ac5aea792655c7a7174a5ce3af59f2693be0c52db5", id="stats"),
    ])
    def test_lite_seed_0_files_pinned(self, lite_seed_0, name, digest):
        assert hashlib.sha256(lite_seed_0[name].read_bytes()).hexdigest() == digest

    def test_writing_a_dataset_streams(self, lite_seed_0, tmp_path):
        # The file is about 0.8 MB; rendering it whole before writing
        # would hold all of it at once.
        data = Dataset.load(str(lite_seed_0["dataset"])).to_dict()
        path = tmp_path / "copy.json"
        tracemalloc.start()
        try:
            write_json(data, str(path))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert path.read_bytes() == lite_seed_0["dataset"].read_bytes()
        assert path.stat().st_size > 700_000
        assert peak < 256 * 1024, peak

    def test_loaded_edges_are_the_classified_edges(self, lite_seed_0):
        """Every loaded ``fb_edges`` is what ``classify_bfcc`` gives its
        cascade, and each (i, kind, j) triple is one object however many
        instances hold it."""
        instances = Dataset.load(str(lite_seed_0["dataset"])).instances
        for inst in instances:
            assert inst.fb_edges == tuple(classify_bfcc(inst.cascade)[1])
        edges = {id(e): e for inst in instances for e in inst.fb_edges}
        assert len(edges) == len(set(edges.values())) <= 40

    def test_oracle_feeding_moves_236_lite_seed_0_categories(self, lite_seed_0):
        # The price README quotes for taking the witness oracles as the
        # definition of feeding and bleeding: this many instances of the
        # lite seed 0 dataset would change category.
        def oracle_category(cascade):
            mask = 0
            for i, p in enumerate(cascade):
                for j, q in enumerate(cascade):
                    if i != j:
                        bound = default_oracle_bound(p, q)
                        feed, bleed = (8, 4) if i < j else (2, 1)
                        if oracle_feeds(p, q, bound) is not None:
                            mask |= feed
                        if oracle_bleeds(p, q, bound) is not None:
                            mask |= bleed
            return ALL_CATEGORIES[mask]

        instances = Dataset.load(str(lite_seed_0["dataset"])).instances
        assert len(instances) == 1008
        moved = sum(oracle_category(i.cascade) != i.category for i in instances)
        assert moved == 236


@pytest.fixture(scope="module")
def lite_seed_0(tmp_path_factory):
    """The files of ``gen --preset lite --seed 0`` and of ``perm`` and
    ``stats --out`` on its dataset; the full-size lite dataset, which no
    smaller pin reaches."""
    root = tmp_path_factory.mktemp("lite0")
    files = {name: root / f"{name}.json" for name in ("dataset", "perm", "stats")}
    dataset = str(files["dataset"])
    for argv in (
        ["gen", "--preset", "lite", "--seed", "0", "--out", dataset],
        ["perm", "--dataset", dataset, "--out", str(files["perm"])],
        ["stats", "--dataset", dataset, "--out", str(files["stats"])],
    ):
        assert dispatch(argv) == 0, argv
    return files


class TestSolveEvalReport:
    def _gt_mock(self, dataset_path, tmp_path):
        data = json.loads(pathlib.Path(dataset_path).read_text())
        responses = []
        for inst in data["instances"]:
            listing = ", ".join(
                f"\"replace('{p['find']}','{p['replace']}')\""
                for p in inst["programs"]
            )
            responses.append(f"```python\n[{listing}]\n```")
        mock = tmp_path / "mock.json"
        mock.write_text(json.dumps(responses))
        config = tmp_path / "solver.json"
        config.write_text(json.dumps({"max_in_flight": 1}))
        return mock, config

    def test_mock_solve_then_eval(self, small_dataset, tmp_path, capsys):
        mock, config = self._gt_mock(small_dataset, tmp_path)
        attempts = tmp_path / "att.jsonl"
        code, _, err = run(
            capsys, "solve", "--dataset", str(small_dataset),
            "--out", str(attempts), "--mock", str(mock),
            "--config", str(config),
        )
        assert code == 0, err
        out = tmp_path / "report.json"
        code, _, _ = run(
            capsys, "eval", "--dataset", str(small_dataset),
            "--attempts", str(attempts), "--out", str(out),
        )
        assert code == 0
        metrics = json.loads(out.read_text())["metrics"]
        assert metrics["pass_at_1"] == 1.0
        assert metrics["edit_sim"] == 1.0
        assert metrics["valid_rate"] == 1.0

    def test_solver_config_that_is_not_an_object_exits_1(
        self, small_dataset, tmp_path, capsys
    ):
        mock, config = self._gt_mock(small_dataset, tmp_path)
        config.write_text(json.dumps([1, 2]))
        attempts = tmp_path / "att.jsonl"
        code, _, err = run(
            capsys, "solve", "--dataset", str(small_dataset),
            "--out", str(attempts), "--mock", str(mock),
            "--config", str(config),
        )
        assert code == 1, err
        assert "must hold a JSON object" in err
        assert not attempts.exists()

    def test_mock_file_that_is_not_a_list_exits_1(
        self, small_dataset, tmp_path, capsys
    ):
        mock, config = self._gt_mock(small_dataset, tmp_path)
        mock.write_text(json.dumps({"responses": json.loads(mock.read_text())}))
        attempts = tmp_path / "att.jsonl"
        code, _, err = run(
            capsys, "solve", "--dataset", str(small_dataset),
            "--out", str(attempts), "--mock", str(mock),
            "--config", str(config),
        )
        assert code == 1, err
        assert "must hold a JSON list of response strings" in err
        assert not attempts.exists()

    def test_every_flag_lands_on_its_field_over_config(
        self, small_dataset, tmp_path, capsys, monkeypatch
    ):
        flags = {
            "--endpoint": ("endpoint_url", "http://localhost:1/v1"),
            "--model-id": ("model_id", "m"),
            "--api-key-env": ("api_key_env", "KEY_VAR"),
            "--budget": ("sampling_budget", 3),
        }
        mock, config = self._gt_mock(small_dataset, tmp_path)
        config.write_text(json.dumps({
            "endpoint_url": "http://localhost:2/v1", "model_id": "other",
            "api_key_env": "OTHER_VAR", "sampling_budget": 2,
            "max_in_flight": 1,
        }))
        seen = []

        def solve_dataset(instances, config, *args, **kwargs):
            seen.append(config)
            return [], []

        monkeypatch.setattr(gateway, "solve_dataset", solve_dataset)
        argv = [str(a) for flag, (_, value) in flags.items()
                for a in (flag, value)]
        code, _, err = run(
            capsys, "solve", "--dataset", str(small_dataset),
            "--out", str(tmp_path / "att.jsonl"), "--mock", str(mock),
            "--config", str(config), *argv,
        )
        assert code == 0, err
        assert seen == [SolverConfig(
            max_in_flight=1, **{f: value for f, value in flags.values()}
        )]

    def test_report_bundle(self, small_dataset, tmp_path, capsys):
        mock, config = self._gt_mock(small_dataset, tmp_path)
        attempts = tmp_path / "att.jsonl"
        run(capsys, "solve", "--dataset", str(small_dataset),
            "--out", str(attempts), "--mock", str(mock),
            "--config", str(config))
        out = tmp_path / "full.json"
        code, _, _ = run(
            capsys, "report", "--dataset", str(small_dataset),
            "--attempts", str(attempts), "--out", str(out),
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert {"metrics", "breakdowns", "records"} <= set(data)
        assert {"pass_rate_by_length", "length_confusion",
                "category_confusion", "relation_tables"} <= set(
            data["breakdowns"]
        )

    def test_report_bytes_pinned(self, small_dataset, tmp_path, capsys):
        # Replies cycle through the right cascade, another instance's
        # cascade, the right cascade's first rule, no code at all, the right
        # cascade behind an escaped rule, the right cascade with
        # double-quoted arguments, and a two-block reply whose last block
        # holds another instance's cascade. So every breakdown table has
        # passing, failing and null rows, and both the plain-literal and the
        # escaped-literal readings of a reply are pinned.
        programs = [
            inst["programs"]
            for inst in json.loads(small_dataset.read_text())["instances"]
        ]

        def block(rules, rule="replace('{}','{}')", quote='"'):
            listing = ", ".join(
                quote + rule.format(p["find"], p["replace"]) + quote
                for p in rules
            )
            return f"```python\n[{listing}]\n```"

        escaped = "[\"replace('a\\\\'b','c')\", "
        responses = []
        for i, rules in enumerate(programs):
            other = programs[(i + 1) % len(programs)]
            responses.append([
                block(rules),
                block(other),
                block(rules[:1]),
                "no code here",
                block(rules).replace("[", escaped, 1),
                block(rules, 'replace("{}","{}")', "'"),
                block(rules) + "\nor\n" + block(other),
            ][i % 7])
        mock = tmp_path / "mock.json"
        mock.write_text(json.dumps(responses))
        config = tmp_path / "solver.json"
        config.write_text(json.dumps({"max_in_flight": 1}))
        attempts = tmp_path / "att.jsonl"
        code, _, err = run(
            capsys, "solve", "--dataset", str(small_dataset),
            "--out", str(attempts), "--mock", str(mock),
            "--config", str(config),
        )
        assert code == 0, err
        out = tmp_path / "full.json"
        code, _, err = run(
            capsys, "report", "--dataset", str(small_dataset),
            "--attempts", str(attempts), "--out", str(out),
        )
        assert code == 0, err
        assert hashlib.sha256(attempts.read_bytes()).hexdigest() == (
            "940cc326415b99ea306d724c729155d9f66593419c03a9ab9ca776bb37c488d2"
        )
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "6c8a04ddf33aa26b3f11c836c6df00141acd08458f0a477896de60c154084fa2"
        )
        evaluated = tmp_path / "eval.json"
        code, _, err = run(
            capsys, "eval", "--dataset", str(small_dataset),
            "--attempts", str(attempts), "--out", str(evaluated),
        )
        assert code == 0, err
        assert hashlib.sha256(evaluated.read_bytes()).hexdigest() == (
            "934a34a67d4751ac286c9e02175a6bc42a055b80f21786740f52f7e8a3408a6a"
        )

    def test_budget_of_three_pinned(self, small_dataset, tmp_path, capsys):
        # Three attempts per instance at max_in_flight 1: its cascade
        # reversed, its cascade with a first rule over s_max (which is
        # scored as the identity), then its true cascade. A one-rule
        # cascade reversed is the true cascade, and its reply is repeated.
        data = json.loads(small_dataset.read_text())
        s_max = data["params"]["s_max"]

        def reply(rules):
            listing = json.dumps([f"replace('{s}', '{t}')" for s, t in rules])
            return f"Here is the program sequence:\n\n```python\n{listing}\n```\n"

        script = []
        for inst in data["instances"]:
            rules = [(p["find"], p["replace"]) for p in inst["programs"]]
            source, target = rules[0]
            overlong = [(source, (target + source * (s_max + 1))[: s_max + 1])]
            script += [reply(rules[::-1]), reply(overlong + rules[1:]), reply(rules)]
        mock = tmp_path / "mock.json"
        mock.write_text(json.dumps(script))
        config = tmp_path / "solver.json"
        config.write_text(json.dumps({"max_in_flight": 1, "sampling_budget": 3}))
        attempts = tmp_path / "att.jsonl"
        code, _, err = run(
            capsys, "solve", "--dataset", str(small_dataset),
            "--out", str(attempts), "--mock", str(mock),
            "--config", str(config),
        )
        assert code == 0, err
        out = tmp_path / "full.json"
        code, _, err = run(
            capsys, "report", "--dataset", str(small_dataset),
            "--attempts", str(attempts), "--out", str(out),
        )
        assert code == 0, err
        assert hashlib.sha256(attempts.read_bytes()).hexdigest() == (
            "86591ea8119b33f7b98fed227ce59bc56f4b1d6f256f544f518b89cf1a9f443a"
        )
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "b7c854c096a8c6e460c12d2f860ceeb1db9fa365ec7149749ae3f01c176d1025"
        )

    @staticmethod
    def _reorder_replies(perm_path):
        """Per reorder instance, in file order: a right order, a wrong
        order, no block, and a list that is not a permutation."""
        replies = []
        for rec in json.loads(pathlib.Path(perm_path).read_text())["instances"]:
            order = rec["gt_order"]
            replies.append([
                f"```json\n{json.dumps(order)}\n```",
                f"```json\n{json.dumps(order[::-1])}\n```",
                "no block here",
                f"```json\n{json.dumps([0] * len(order))}\n```",
            ])
        return replies

    def test_reorder_attempts_and_eval_pinned(self, datasets, tmp_path, capsys):
        # Two attempts per instance at max_in_flight 1: instance i gets
        # replies i and i + 3 (mod 4) of its four, so some instances pass
        # on either attempt, and the rest fall back to an extracted order
        # or, with none, to the first attempt.
        replies = self._reorder_replies(datasets["eval-reorder"])
        script = [r[(i + 3 * k) % 4]
                  for i, r in enumerate(replies) for k in range(2)]
        mock = tmp_path / "mock.json"
        mock.write_text(json.dumps(script))
        config = tmp_path / "solver.json"
        config.write_text(json.dumps({"max_in_flight": 1, "sampling_budget": 2}))
        attempts = tmp_path / "att.jsonl"
        code, _, err = run(
            capsys, "solve-reorder", "--dataset", str(datasets["eval-reorder"]),
            "--out", str(attempts), "--mock", str(mock),
            "--config", str(config),
        )
        assert code == 0, err
        out = tmp_path / "eval.json"
        code, _, err = run(
            capsys, "eval-reorder", "--dataset", str(datasets["eval-reorder"]),
            "--attempts", str(attempts), "--out", str(out),
        )
        assert code == 0, err
        assert hashlib.sha256(attempts.read_bytes()).hexdigest() == (
            "0e1fe9813843568f43a133f513ef21c92de3349ec617ec75c0d6633e60e3a815"
        )
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "7d973809a08f3ada4ac78c55aa96db7efd2715957cdc52083fb55a7a9959a5bc"
        )

    @pytest.mark.parametrize("command, digest", [
        ("eval", "9e3395a275ed6cf56ade965af3fcbcb206b25a4ace44fd759e0e112af227b09c"),
        ("eval-reorder", "1e8e3727cd670d0d854100b549e75b15066cf761b773c430e4ed61124830b501"),
    ])
    def test_predictions_eval_pinned(
        self, datasets, tmp_path, capsys, command, digest
    ):
        # Instance i gets reply i mod 5: null, and four replies that pass,
        # fail, or hold no answer. Every sixth instance is left out of the
        # file and scores as no response.
        data = json.loads(pathlib.Path(datasets[command]).read_text())

        def block(rules):
            return "```python\n[" + ", ".join(
                f"\"replace('{p['find']}','{p['replace']}')\"" for p in rules
            ) + "]\n```"

        if command == "eval":
            replies = [
                [block(rec["programs"][:1]), block(rec["programs"]),
                 "no code here",
                 "```python\n[\"replace('a','b')\"]\n```"]
                for rec in data["instances"]
            ]
        else:
            replies = self._reorder_replies(datasets[command])
        preds = {
            rec["id"]: None if i % 5 == 4 else replies[i][i % 5]
            for i, rec in enumerate(data["instances"]) if i % 6 != 5
        }
        pred_file = tmp_path / "preds.json"
        pred_file.write_text(json.dumps(preds))
        out = tmp_path / "eval.json"
        code, _, err = run(
            capsys, command, "--dataset", str(datasets[command]),
            "--predictions", str(pred_file), "--out", str(out),
        )
        assert code == 0, err
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_eval_with_inline_predictions(self, small_dataset, tmp_path, capsys):
        data = json.loads(small_dataset.read_text())
        preds = {}
        for inst in data["instances"]:
            listing = ", ".join(
                f"\"replace('{p['find']}','{p['replace']}')\""
                for p in inst["programs"]
            )
            preds[inst["id"]] = f"```python\n[{listing}]\n```"
        pred_file = tmp_path / "preds.json"
        pred_file.write_text(json.dumps(preds))
        out = tmp_path / "rep.json"
        code, _, _ = run(
            capsys, "eval", "--dataset", str(small_dataset),
            "--predictions", str(pred_file), "--out", str(out),
        )
        assert code == 0
        assert json.loads(out.read_text())["metrics"]["pass_at_1"] == 1.0

    def test_eval_needs_source(self, small_dataset, capsys):
        code, _, err = run(capsys, "eval", "--dataset", str(small_dataset))
        assert code == 1

    def test_solve_reorder_and_eval(self, small_dataset, tmp_path, capsys):
        perm = tmp_path / "perm.json"
        run(capsys, "perm", "--dataset", str(small_dataset), "--out", str(perm))
        data = json.loads(perm.read_text())
        responses = [
            "```json\n"
            + json.dumps(
                [rec["gt_order"].index(i) for i in range(len(rec["gt_order"]))]
            )
            + "\n```"
            for rec in data["instances"]
        ]
        # gt_order is its own inverse here (single transposition), so the
        # response is just gt_order; the inversion keeps the test honest
        mock = tmp_path / "mock.json"
        mock.write_text(json.dumps(responses))
        config = tmp_path / "solver.json"
        config.write_text(json.dumps({"max_in_flight": 1}))
        attempts = tmp_path / "att.jsonl"
        code, _, err = run(
            capsys, "solve-reorder", "--dataset", str(perm),
            "--out", str(attempts), "--mock", str(mock),
            "--config", str(config),
        )
        assert code == 0, err
        out = tmp_path / "rep.json"
        code, _, _ = run(
            capsys, "eval-reorder", "--dataset", str(perm),
            "--attempts", str(attempts), "--out", str(out),
        )
        assert code == 0
        metrics = json.loads(out.read_text())["metrics"]
        assert metrics["acc"] == 1.0

    @pytest.fixture
    def datasets(self, small_dataset, tmp_path, capsys):
        """Dataset paths of the two eval commands."""
        perm = tmp_path / "perm.json"
        assert run(capsys, "perm", "--dataset", str(small_dataset),
                   "--out", str(perm))[0] == 0
        return {"eval": small_dataset, "eval-reorder": perm}

    @pytest.mark.parametrize("command", ["eval", "eval-reorder"])
    @pytest.mark.parametrize("preds", [["text"], {"inst-00000": 5}])
    def test_malformed_predictions_exit_1(
        self, datasets, tmp_path, capsys, command, preds
    ):
        pred_file = tmp_path / "preds.json"
        pred_file.write_text(json.dumps(preds))
        code, _, err = run(
            capsys, command, "--dataset", str(datasets[command]),
            "--predictions", str(pred_file),
        )
        assert code == 1, err
        assert "must be a JSON object" in err

    @pytest.mark.parametrize("command, kind", [("eval", "solve"),
                                               ("eval-reorder", "solve-reorder")])
    def test_selected_log_without_eval_is_skipped(
        self, datasets, tmp_path, capsys, command, kind
    ):
        mock = tmp_path / "mock.json"
        mock.write_text(json.dumps(["no answer"]))
        attempts = tmp_path / "att.jsonl"
        code, _, err = run(
            capsys, kind, "--dataset", str(datasets[command]),
            "--out", str(attempts), "--mock", str(mock),
        )
        assert code == 0, err
        logs = [json.loads(line) for line in attempts.read_text().splitlines()]
        logs[0]["eval"] = None
        attempts.write_text("".join(json.dumps(lg) + "\n" for lg in logs))
        code, out, err = run(
            capsys, command, "--dataset", str(datasets[command]),
            "--attempts", str(attempts),
        )
        assert code == 0, err
        assert json.loads(out)["metrics"]["count"] == len(logs) - 1

    def test_integer_over_the_digit_limit_is_no_answer(
        self, datasets, tmp_path, capsys
    ):
        """json.loads raises a plain ValueError on an integer of more than
        4,300 digits; the reply counts as holding no order."""
        reply = "```json\n[" + "1" * 5_000 + "]\n```"
        mock = tmp_path / "mock.json"
        mock.write_text(json.dumps([reply]))
        attempts = tmp_path / "att.jsonl"
        code, _, err = run(
            capsys, "solve-reorder", "--dataset", str(datasets["eval-reorder"]),
            "--out", str(attempts), "--mock", str(mock),
        )
        assert code == 0, err
        logs = [json.loads(line) for line in attempts.read_text().splitlines()]
        assert logs and not any(lg["extracted"] for lg in logs)
        data = json.loads(datasets["eval-reorder"].read_text())
        pred_file = tmp_path / "preds.json"
        pred_file.write_text(json.dumps({data["instances"][0]["id"]: reply}))
        code, out, err = run(
            capsys, "eval-reorder", "--dataset", str(datasets["eval-reorder"]),
            "--predictions", str(pred_file),
        )
        assert code == 0, err
        assert json.loads(out)["metrics"]["acc"] == 0.0

    @pytest.mark.parametrize("command, solve", [
        ("eval", "solve-reorder"), ("report", "solve-reorder"),
        ("eval-reorder", "solve"),
    ])
    def test_attempt_log_of_the_other_kind_exits_1(
        self, datasets, tmp_path, capsys, command, solve
    ):
        """A log whose ids match but whose evals are of the other task: the
        reorder log of a perm set of the same PBE set, and vice versa."""
        mock = tmp_path / "mock.json"
        mock.write_text(json.dumps(["no answer"]))
        attempts = tmp_path / "att.jsonl"
        log_dataset = datasets["eval" if solve == "solve" else "eval-reorder"]
        code, _, err = run(
            capsys, solve, "--dataset", str(log_dataset),
            "--out", str(attempts), "--mock", str(mock),
        )
        assert code == 0, err
        dataset = datasets["eval-reorder" if command == "eval-reorder" else "eval"]
        code, out, err = run(
            capsys, command, "--dataset", str(dataset),
            "--attempts", str(attempts),
        )
        assert code == 1, err
        assert out == ""
        assert f"attempts file {attempts}" in err

    def test_eval_with_an_unknown_key_exits_1(self, datasets, tmp_path, capsys):
        """An eval with a key its record type lacks, or without one of the
        record's fields, names the attempts file and the key."""
        mock = tmp_path / "mock.json"
        mock.write_text(json.dumps(["no answer"]))
        attempts = tmp_path / "att.jsonl"
        code, _, err = run(
            capsys, "solve", "--dataset", str(datasets["eval"]),
            "--out", str(attempts), "--mock", str(mock),
        )
        assert code == 0, err
        clean = attempts.read_text()
        damages = {
            "bogus": lambda ev: ev.update(bogus=1),
            "pred_category": lambda ev: ev.pop("pred_category"),
        }
        for key, damage in damages.items():
            logs = [json.loads(line) for line in clean.splitlines()]
            damage(logs[0]["eval"])
            attempts.write_text("".join(json.dumps(lg) + "\n" for lg in logs))
            code, _, err = run(
                capsys, "eval", "--dataset", str(datasets["eval"]),
                "--attempts", str(attempts),
            )
            assert code == 1, (key, err)
            assert f"attempts file {attempts}" in err
            assert key in err

    @pytest.mark.parametrize("field, value", [
        ("eval", [1]), ("eval", "x"), ("eval", 3), ("attempt_index", "0"),
        ("attempt_index", True), ("instance_id", 5), ("extracted", "no"),
        ("raw_text", 5), ("finish_reason", None), ("token_usage", []),
        ("prompt_hash", 1),
    ])
    def test_attempt_field_of_the_wrong_type_exits_1(
        self, datasets, tmp_path, capsys, field, value
    ):
        mock = tmp_path / "mock.json"
        mock.write_text(json.dumps(["no answer"]))
        attempts = tmp_path / "att.jsonl"
        code, _, err = run(
            capsys, "solve", "--dataset", str(datasets["eval"]),
            "--out", str(attempts), "--mock", str(mock),
        )
        assert code == 0, err
        logs = [json.loads(line) for line in attempts.read_text().splitlines()]
        logs[1][field] = value
        attempts.write_text("".join(json.dumps(lg) + "\n" for lg in logs))
        code, out, err = run(
            capsys, "report", "--dataset", str(datasets["eval"]),
            "--attempts", str(attempts),
        )
        assert code == 1, err
        assert out == ""
        assert "corrupt attempt log at line 2" in err
        assert field in err

    @pytest.mark.parametrize("command", ["eval", "report"])
    @pytest.mark.parametrize("field, value", [
        ("edit_sim", "x"), ("valid_rate_contrib", True), ("pred_length", [1]),
        ("complexity", 1.5), ("passed", 1), ("pred_category", None),
        ("pred_category", "11"), ("pred_category", "1x00"),
        ("pred_category", ""), ("pred_length", -7), ("valid_rate_contrib", 5.0),
        ("valid_rate_contrib", -0.5), ("edit_sim", 3.5), ("complexity", -4),
        ("attempt_index", -1),
    ])
    def test_eval_field_of_the_wrong_type_exits_1(
        self, datasets, tmp_path, capsys, command, field, value
    ):
        """A mistyped eval field, or a number no scoring can give, is a
        malformed attempt, not a value to aggregate."""
        mock = tmp_path / "mock.json"
        mock.write_text(json.dumps(["no answer"]))
        attempts = tmp_path / "att.jsonl"
        code, _, err = run(
            capsys, "solve", "--dataset", str(datasets["eval"]),
            "--out", str(attempts), "--mock", str(mock),
        )
        assert code == 0, err
        logs = [json.loads(line) for line in attempts.read_text().splitlines()]
        logs[1]["eval"][field] = value
        attempts.write_text("".join(json.dumps(lg) + "\n" for lg in logs))
        code, out, err = run(
            capsys, command, "--dataset", str(datasets["eval"]),
            "--attempts", str(attempts),
        )
        assert code == 1, err
        assert out == ""
        assert f"attempts file {attempts}" in err
        assert logs[1]["instance_id"] in err
        assert field in err

    def test_negative_edit_sim_loads(self, datasets, tmp_path, capsys):
        """A prediction farther from the outputs than the inputs scores
        below 0, so a negative ``edit_sim`` is replayed as stored."""
        mock = tmp_path / "mock.json"
        mock.write_text(json.dumps(["no answer"]))
        attempts = tmp_path / "att.jsonl"
        code, _, err = run(
            capsys, "solve", "--dataset", str(datasets["eval"]),
            "--out", str(attempts), "--mock", str(mock),
        )
        assert code == 0, err
        logs = [json.loads(line) for line in attempts.read_text().splitlines()]
        for log in logs:
            log["eval"]["edit_sim"] = -2.5
        attempts.write_text("".join(json.dumps(lg) + "\n" for lg in logs))
        code, out, err = run(
            capsys, "eval", "--dataset", str(datasets["eval"]),
            "--attempts", str(attempts),
        )
        assert code == 0, err
        assert json.loads(out)["metrics"]["edit_sim"] == -2.5

    @pytest.mark.parametrize("command, solve, field, value", [
        ("report", "solve", "edit_sim", "x"),
        ("eval-reorder", "solve-reorder", "passed", "false"),
    ])
    def test_field_selection_reads_of_the_wrong_type_exits_1(
        self, datasets, tmp_path, capsys, command, solve, field, value
    ):
        """The bad value sits on attempt 1 of the first instance, which
        attempt 0 wins over when no attempt passes."""
        mock = tmp_path / "mock.json"
        mock.write_text(json.dumps(["no answer"]))
        config = tmp_path / "solver.json"
        config.write_text(json.dumps({"max_in_flight": 1}))
        attempts = tmp_path / "att.jsonl"
        dataset = datasets["eval" if command == "report" else command]
        code, _, err = run(
            capsys, solve, "--dataset", str(dataset), "--out", str(attempts),
            "--mock", str(mock), "--config", str(config), "--budget", "2",
        )
        assert code == 0, err
        logs = [json.loads(line) for line in attempts.read_text().splitlines()]
        assert (logs[1]["instance_id"], logs[1]["attempt_index"]) == (
            logs[0]["instance_id"], 1)
        logs[1]["eval"][field] = value
        attempts.write_text("".join(json.dumps(lg) + "\n" for lg in logs))
        code, out, err = run(
            capsys, command, "--dataset", str(dataset),
            "--attempts", str(attempts),
        )
        assert code == 1, err
        assert out == ""
        assert f"attempts file {attempts}" in err
        assert logs[1]["instance_id"] in err
        assert field in err

    @pytest.mark.parametrize("field, value", [
        ("perm", "x"), ("perm", [0.5]), ("perm", [True]), ("attempt_index", "0"),
        ("attempt_index", -1),
    ])
    def test_reorder_eval_field_of_the_wrong_type_exits_1(
        self, datasets, tmp_path, capsys, field, value
    ):
        mock = tmp_path / "mock.json"
        mock.write_text(json.dumps(["no answer"]))
        attempts = tmp_path / "att.jsonl"
        code, _, err = run(
            capsys, "solve-reorder", "--dataset", str(datasets["eval-reorder"]),
            "--out", str(attempts), "--mock", str(mock),
        )
        assert code == 0, err
        logs = [json.loads(line) for line in attempts.read_text().splitlines()]
        logs[1]["eval"][field] = value
        attempts.write_text("".join(json.dumps(lg) + "\n" for lg in logs))
        code, out, err = run(
            capsys, "eval-reorder", "--dataset", str(datasets["eval-reorder"]),
            "--attempts", str(attempts),
        )
        assert code == 1, err
        assert out == ""
        assert f"attempts file {attempts}" in err
        assert logs[1]["instance_id"] in err
        assert field in err

    @pytest.mark.parametrize("command", ["eval", "report"])
    @pytest.mark.parametrize("literal", [
        pytest.param("NaN", id="nan"),
        pytest.param("Infinity", id="inf"),
        pytest.param("-Infinity", id="-inf"),
        pytest.param("1e400", id="1e400"),
    ])
    def test_non_finite_number_in_attempt_log_exits_1(
        self, datasets, tmp_path, capsys, command, literal
    ):
        mock = tmp_path / "mock.json"
        mock.write_text(json.dumps(["no answer"]))
        attempts = tmp_path / "att.jsonl"
        code, _, err = run(
            capsys, "solve", "--dataset", str(datasets["eval"]),
            "--out", str(attempts), "--mock", str(mock),
        )
        assert code == 0, err
        logs = [json.loads(line) for line in attempts.read_text().splitlines()]
        logs[0]["eval"]["edit_sim"] = "EDIT_SIM"
        text = "".join(json.dumps(lg) + "\n" for lg in logs)
        attempts.write_text(text.replace('"EDIT_SIM"', literal, 1))
        code, out, err = run(
            capsys, command, "--dataset", str(datasets["eval"]),
            "--attempts", str(attempts),
        )
        assert code == 1, err
        assert out == ""
        assert f"corrupt attempt log at line 1: {literal} is not a finite number" in err

    @pytest.mark.parametrize(
        "constant", ["NaN", "Infinity", "-Infinity", "1e400", "-1e400"]
    )
    def test_non_finite_number_in_config_exits_1(
        self, small_dataset, tmp_path, capsys, constant
    ):
        mock, config = self._gt_mock(small_dataset, tmp_path)
        config.write_text(f'{{"max_in_flight": 1, "temperature": {constant}}}')
        attempts = tmp_path / "att.jsonl"
        code, out, err = run(
            capsys, "solve", "--dataset", str(small_dataset),
            "--out", str(attempts), "--mock", str(mock),
            "--config", str(config),
        )
        assert code == 1, err
        assert out == ""
        assert f"invalid JSON in {config}" in err
        assert not attempts.exists()

    @pytest.mark.parametrize("setting", [
        {"retry_count": -1}, {"timeout_ms": 0},
        {"max_tokens": 0}, {"max_tokens": -5},
        {"retry_count": 1.5}, {"max_in_flight": 1.5}, {"sampling_budget": 1.5},
        {"max_in_flight": True}, {"early_stop": "false"}, {"temperature": True},
        {"reasoning_effort": 5}, {"api_key_env": 7},
    ])
    def test_solver_setting_out_of_range_exits_1(
        self, small_dataset, tmp_path, capsys, setting
    ):
        mock, config = self._gt_mock(small_dataset, tmp_path)
        config.write_text(json.dumps({"max_in_flight": 1, **setting}))
        attempts = tmp_path / "att.jsonl"
        code, out, err = run(
            capsys, "solve", "--dataset", str(small_dataset),
            "--out", str(attempts), "--mock", str(mock),
            "--config", str(config),
        )
        assert code == 1, err
        assert out == ""
        assert "invalid solver configuration" in err
        assert next(iter(setting)) in err
        assert not attempts.exists()

    @pytest.mark.parametrize("command, solve", [
        ("eval", "solve"), ("eval-reorder", "solve-reorder"),
    ])
    def test_attempts_and_predictions_exclude_each_other(
        self, datasets, tmp_path, capsys, command, solve
    ):
        mock = tmp_path / "mock.json"
        mock.write_text(json.dumps(["no answer"]))
        attempts = tmp_path / "att.jsonl"
        code, _, err = run(
            capsys, solve, "--dataset", str(datasets[command]),
            "--out", str(attempts), "--mock", str(mock),
        )
        assert code == 0, err
        data = json.loads(pathlib.Path(datasets[command]).read_text())
        pred_file = tmp_path / "preds.json"
        pred_file.write_text(json.dumps({data["instances"][0]["id"]: "x"}))
        code, out, err = run(
            capsys, command, "--dataset", str(datasets[command]),
            "--attempts", str(attempts), "--predictions", str(pred_file),
        )
        assert code == 1, err
        assert out == ""
        assert "--attempts" in err and "--predictions" in err

    @pytest.mark.parametrize("command", ["eval", "eval-reorder"])
    def test_predictions_matching_no_instance_exit_1(
        self, datasets, tmp_path, capsys, command
    ):
        pred_file = tmp_path / "preds.json"
        pred_file.write_text(json.dumps({"nope": "x"}))
        code, out, err = run(
            capsys, command, "--dataset", str(datasets[command]),
            "--predictions", str(pred_file),
        )
        assert code == 1, err
        assert out == ""
        assert "no instance id" in err

    @pytest.mark.parametrize("command", ["eval", "eval-reorder"])
    def test_partial_predictions_score_missing_ids_as_no_response(
        self, datasets, tmp_path, capsys, command
    ):
        data = json.loads(pathlib.Path(datasets[command]).read_text())
        pred_file = tmp_path / "preds.json"
        pred_file.write_text(json.dumps(
            {data["instances"][0]["id"]: "no answer", "nope": "x"}
        ))
        code, out, err = run(
            capsys, command, "--dataset", str(datasets[command]),
            "--predictions", str(pred_file),
        )
        assert code == 0, err
        metrics = json.loads(out)["metrics"]
        assert metrics["count"] == len(data["instances"])
        assert metrics["pass_at_1" if command == "eval" else "acc"] == 0.0


@pytest.fixture(scope="module")
def replay_sets(tmp_path_factory):
    """A 64-instance PBE dataset and its perm file, each with its task and
    instances, and with four scored replies per instance: a (text, eval,
    extracted) triple for the right answer, two wrong ones and no answer."""
    root = tmp_path_factory.mktemp("replay")
    pbe, perm = str(root / "ds.json"), str(root / "perm.json")
    assert dispatch(["gen", "--out", pbe, "--seed", "3", "--preset", "lite",
                     "--size", "64", "--tau", "5000"]) == 0
    assert dispatch(["perm", "--dataset", pbe, "--out", perm]) == 0
    dataset = Dataset.load(pbe)
    p = dataset.params
    pbe_task = gateway.PbeTask(p.s_max, p.L_max, p.alphabet.symbols[0])

    def block(rules):
        listing = ", ".join(f"'{rule.render()}'" for rule in rules)
        return f"```python\n[{listing}]\n```"

    def order(indices):
        return f"```json\n{list(indices)}\n```"

    sets = {}
    for kind, path, task, instances, texts in (
        ("pbe", pbe, pbe_task, dataset.instances, lambda inst: [
            block(inst.cascade), block(inst.cascade[::-1]),
            block(inst.cascade[:1]), "no code here"]),
        ("reorder", perm, gateway.ReorderTask(), load_perm_dataset(perm),
         lambda inst: [
             order(inst.gt_order), order(range(len(inst.scrambled))),
             order(reversed(range(len(inst.scrambled)))), "no answer"]),
    ):
        replies = [
            [(text, *task.score(inst, text, 0)) for text in texts(inst)]
            for inst in instances
        ]
        passes = [record.passed for inst_replies in replies
                  for _, record, _ in inst_replies]
        assert any(passes) and not all(passes)
        sets[kind] = (path, task, instances, replies)
    return sets


def _attempt(inst_id, reply, k, no_eval=False):
    """The log of attempt ``k`` of ``inst_id`` holding a scored reply."""
    text, record, extracted = reply
    evaluation = None if no_eval else dict(record.to_dict(), attempt_index=k)
    return gateway.AttemptLog(inst_id, k, "h", text, "stop", {}, extracted,
                              evaluation)


# Lines of an attempt log: (instance slot, reply, attempt index, no eval,
# odd), where slots 0-3 are the first four instances of the dataset and
# 4-5 ids that are not in it; then some lines again, and all shuffled.
_LINES = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 3), st.integers(0, 5),
              st.sampled_from([False, False, False, True]), st.booleans()),
    min_size=1, max_size=24,
)


@st.composite
def _shuffled_lines(draw):
    lines = draw(_LINES)
    again = draw(st.lists(st.sampled_from(lines), max_size=6))
    return draw(st.permutations(lines + again))


def _drawn_attempt(ids, replies, line):
    """The log of a drawn line. An odd eval of a dataset instance shifts
    the eval's own attempt index, which selection does not read but
    ``report`` prints, so that attempts of equal rank can differ; an odd
    eval of another id has a mistyped ``passed``, which it is not ranked
    by."""
    slot, reply, k, no_eval, odd = line
    log = _attempt(ids[slot] if slot < 4 else f"ghost-{slot}",
                   replies[slot % 4][reply], k, no_eval)
    if odd and log.eval is not None:
        if slot < 4:
            log.eval["attempt_index"] += 10
        else:
            log.eval["passed"] = "false"
    return log


class TestStreamedReplay:
    """Replay reads the attempt log one line at a time and keeps the best
    attempt of each instance; these pin it to loading the whole log,
    grouping it by instance and running ``select_attempt`` on each group."""

    @pytest.mark.parametrize("command, kind", [
        ("eval", "pbe"), ("report", "pbe"), ("eval-reorder", "reorder"),
    ])
    @settings(max_examples=80, deadline=None)
    @given(lines=_shuffled_lines())
    def test_picks_what_grouping_picks(self, replay_sets, command, kind, lines):
        dataset, task, instances, replies = replay_sets[kind]
        ids = [task.instance_id(inst) for inst in instances]
        logs = [_drawn_attempt(ids, replies, line) for line in lines]
        with tempfile.TemporaryDirectory() as tmp:
            full, chosen = os.path.join(tmp, "full.jsonl"), os.path.join(tmp, "chosen.jsonl")
            gateway.persist_attempts(logs, full)
            groups = {}
            for log in gateway.load_attempts(full):
                groups.setdefault(log.instance_id, []).append(log)
            # One log per instance: the one grouping selects.
            selected = [gateway.select_attempt(groups.get(i, ()), task) for i in ids]
            gateway.persist_attempts([s for s in selected if s is not None], chosen)
            outputs = []
            for attempts in (full, chosen):
                out = os.path.join(tmp, "out.json")
                code = dispatch([command, "--dataset", dataset, "--attempts",
                                 attempts, "--out", out])
                outputs.append((code, pathlib.Path(out).read_bytes()
                                if os.path.exists(out) else None))
                if os.path.exists(out):
                    os.remove(out)
        assert outputs[0] == outputs[1]

    def _write(self, path, logs, tail=""):
        path.write_text("".join(json.dumps(lg.to_dict()) + "\n" for lg in logs) + tail)

    def _mistyped(self, inst_id, reply, k):
        log = _attempt(inst_id, reply, k)
        log.eval["passed"] = "false"
        return log

    def test_selection_errors_come_in_dataset_order(
        self, replay_sets, tmp_path, capsys
    ):
        dataset, task, instances, replies = replay_sets["pbe"]
        first, second = (task.instance_id(inst) for inst in instances[:2])
        attempts = tmp_path / "att.jsonl"
        self._write(attempts, [
            self._mistyped(second, replies[1][0], 0),
            _attempt(first, replies[0][3], 0),
            self._mistyped(first, replies[0][0], 1),
            self._mistyped(first, replies[0][0], 2),
        ])
        code, out, err = run(capsys, "eval", "--dataset", dataset,
                             "--attempts", str(attempts))
        assert (code, out) == (1, "")
        assert (f"attempts file {attempts} holds a malformed attempt for "
                f"{first!r}: attempt 1: passed 'false' is not a boolean") in err
        assert second not in err

    def test_corrupt_line_wins_over_an_earlier_selection_error(
        self, replay_sets, tmp_path, capsys
    ):
        dataset, task, instances, replies = replay_sets["pbe"]
        first, second = (task.instance_id(inst) for inst in instances[:2])
        attempts = tmp_path / "att.jsonl"
        self._write(attempts, [
            self._mistyped(first, replies[0][0], 0),
            _attempt(second, replies[1][0], 0),
        ], tail='{"truncated": \n')
        code, out, err = run(capsys, "eval", "--dataset", dataset,
                             "--attempts", str(attempts))
        assert (code, out) == (1, "")
        assert "corrupt attempt log at line 3" in err
        assert "malformed attempt" not in err

    def test_memory_does_not_grow_with_the_budget(self, replay_sets, tmp_path):
        """A budget-32 log is a budget-2 log's lines repeated with shifted
        attempt indices; ``report`` on it must peak about as high as on the
        budget-2 log."""
        dataset, task, instances, replies = replay_sets["pbe"]
        ids = [task.instance_id(inst) for inst in instances]
        short, long = tmp_path / "k2.jsonl", tmp_path / "k32.jsonl"
        for path, budget in ((short, 2), (long, 32)):
            # Attempt k of each instance holds its wrong reply 2 + k % 2.
            self._write(path, [_attempt(i, inst_replies[2 + k % 2], k)
                               for i, inst_replies in zip(ids, replies)
                               for k in range(budget)])
        out = str(tmp_path / "report.json")
        argv = ["report", "--dataset", dataset, "--out", out, "--attempts"]
        assert dispatch(argv + [str(short)]) == 0  # imports and caches
        peaks, reports = [], []
        for path in (short, long):
            tracemalloc.start()
            try:
                assert dispatch(argv + [str(path)]) == 0
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks.append(peak)
            reports.append(pathlib.Path(out).read_bytes())
        assert reports[0] == reports[1]
        assert peaks[1] < 1.5 * peaks[0], peaks


class TestSolveOverHttp:
    """``solve`` through the real HTTP backend against a loopback server."""

    @pytest.fixture
    def tiny_dataset(self, tmp_path, capsys):
        path = tmp_path / "ds.json"
        code, _, err = run(
            capsys, "gen", "--out", str(path), "--seed", "3", "--preset",
            "lite", "--size", "4", "--tau", "5000",
        )
        assert code == 0, err
        return path

    def _solve(self, capsys, dataset, out, endpoint, *flags):
        config = out.parent / "solver.json"
        config.write_text(json.dumps({"max_in_flight": 1}))
        return run(
            capsys, "solve", "--dataset", str(dataset), "--out", str(out),
            "--endpoint", endpoint, "--config", str(config), *flags,
        )

    def test_truncated_reply_is_retried(self, loopback, tiny_dataset, tmp_path, capsys):
        loopback.script([TRUNCATE, chat_reply("no block here")])
        attempts = tmp_path / "att.jsonl"
        code, out, err = self._solve(capsys, tiny_dataset, attempts, loopback.url)
        assert code == 0, err
        logs = [json.loads(line) for line in attempts.read_text().splitlines()]
        assert len(logs) == 4
        assert [lg["raw_text"] for lg in logs] == ["no block here"] * 4
        assert len(loopback.requests) == 5

    def test_api_key_is_sent_and_never_logged(
        self, loopback, tiny_dataset, tmp_path, capsys, monkeypatch
    ):
        key = "sk-loopback-0123456789"
        monkeypatch.setenv("X", key)
        loopback.script([(401, b"{}", {}), chat_reply("no block here")])
        attempts = tmp_path / "att.jsonl"
        code, out, err = self._solve(
            capsys, tiny_dataset, attempts, loopback.url, "--api-key-env", "X",
        )
        assert code == 0, err
        assert {h["Authorization"] for h, _ in loopback.requests} == {f"Bearer {key}"}
        text = attempts.read_text()
        assert "transport_error" in text
        assert key not in text + out + err

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "1e400"])
    def test_reply_with_a_non_finite_number_logs_a_loadable_attempt(
        self, loopback, tiny_dataset, tmp_path, capsys, literal
    ):
        """A 200 whose usage holds a number that JSON does not have is no
        JSON reply, so the attempt is a transport error that eval loads."""
        _, body, _ = chat_reply("no block here")
        body = body[:-1] + b', "usage": {"total_tokens": ' + literal.encode() + b"}}"
        loopback.script([(200, body, {})])
        attempts = tmp_path / "att.jsonl"
        code, out, err = self._solve(capsys, tiny_dataset, attempts, loopback.url)
        assert code == 0, err
        logs = [json.loads(line) for line in attempts.read_text().splitlines()]
        assert [lg["finish_reason"] for lg in logs] == ["transport_error"] * 4
        assert [lg["token_usage"] for lg in logs] == [{}] * 4
        code, out, err = run(capsys, "eval", "--dataset", str(tiny_dataset),
                             "--attempts", str(attempts))
        assert code == 0, err
        assert json.loads(out)["metrics"]["count"] == 4

    def test_endpoint_that_is_not_http_exits_1(self, tiny_dataset, tmp_path, capsys):
        attempts = tmp_path / "att.jsonl"
        code, out, err = self._solve(
            capsys, tiny_dataset, attempts, "file:///etc/hostname"
        )
        assert code == 1, err
        assert out == ""
        assert "is not a valid http or https URL" in err
        assert not attempts.exists()


class TestDatasetKind:
    # Each command with the arguments it needs besides --dataset, and the
    # dataset kind it takes.
    COMMANDS = {
        "solve": ("pbe", ["--mock", "MOCK", "--out", "OUT"]),
        "eval": ("pbe", ["--predictions", "PREDS"]),
        "report": ("pbe", ["--attempts", "ATTEMPTS"]),
        "perm": ("pbe", ["--out", "OUT"]),
        "stats": ("pbe", []),
        "solve-reorder": ("reorder", ["--mock", "MOCK", "--out", "OUT"]),
        "eval-reorder": ("reorder", ["--predictions", "PREDS"]),
    }

    # A record damaged in place, and the command that reads it.
    MALFORMED = {
        "missing-inputs": ("stats", lambda d: d["instances"][0].pop("inputs")),
        "unknown-stats-key": ("stats", lambda d: d["stats"].update(foo=1)),
        "missing-gt-order": (
            "eval-reorder", lambda d: d["instances"][0].pop("gt_order")
        ),
        "missing-is-unique": (
            "eval-reorder", lambda d: d["instances"][0].pop("is_unique")
        ),
        "missing-n-valid-orders": (
            "eval-reorder", lambda d: d["instances"][0].pop("n_valid_orders")
        ),
        "bad-category": ("stats", lambda d: d["instances"][0].update(category="12")),
        "is-unique-string": (
            "eval-reorder", lambda d: d["instances"][0].update(is_unique="false")
        ),
        "gt-order-string": (
            "eval-reorder", lambda d: d["instances"][0].update(gt_order="012")
        ),
        "n-valid-orders-string": (
            "eval-reorder",
            lambda d: d["instances"][0].update(n_valid_orders="lots"),
        ),
        "stats-attempts-string": (
            "stats", lambda d: d["stats"].update(attempts="many")
        ),
        "find-not-a-string": (
            "stats", lambda d: d["instances"][0]["programs"][0].update(find=5)
        ),
        "find-not-a-string-perm": (
            "perm", lambda d: d["instances"][0]["programs"][0].update(find=5)
        ),
        "replace-null": (
            "eval-reorder",
            lambda d: d["instances"][0]["scrambled_programs"][0].update(replace=None),
        ),
        "input-int": ("stats", lambda d: d["instances"][0]["inputs"].__setitem__(0, 7)),
        "input-int-perm": (
            "perm", lambda d: d["instances"][0]["inputs"].__setitem__(0, 7)
        ),
        "output-null-perm": (
            "perm", lambda d: d["instances"][0]["outputs"].__setitem__(0, None)
        ),
        "inputs-string": ("stats", lambda d: d["instances"][0].update(inputs="ab")),
        "id-int": ("stats", lambda d: d["instances"][0].update(id=5)),
        "id-int-perm": ("perm", lambda d: d["instances"][0].update(id=5)),
        "fb-edge-index-string": (
            "perm", lambda d: d["instances"][-1].update(fb_edges=[["0", "F", 1]])
        ),
        "fb-edge-index-bool": (
            "stats", lambda d: d["instances"][-1].update(fb_edges=[[0, "B", True]])
        ),
        "fb-edge-pair": ("stats", lambda d: d["instances"][-1].update(fb_edges=[[0, 1]])),
        "fb-edge-index-past-end": (
            "stats", lambda d: d["instances"][0].update(fb_edges=[[0, "F", 9]])
        ),
        "fb-edge-index-past-end-perm": (
            "perm", lambda d: d["instances"][0].update(fb_edges=[[0, "F", 9]])
        ),
        "fb-edge-index-negative": (
            "stats", lambda d: d["instances"][0].update(fb_edges=[[-1, "F", 0]])
        ),
        "fb-edge-index-negative-perm": (
            "perm", lambda d: d["instances"][0].update(fb_edges=[[-1, "F", 0]])
        ),
        "perm-unique-with-many-orders": (
            "eval-reorder",
            lambda d: next(r for r in d["instances"] if r["n_valid_orders"] != 1)
            .update(is_unique=True),
        ),
        "perm-not-unique-with-one-order": (
            "eval-reorder",
            lambda d: next(r for r in d["instances"] if r["n_valid_orders"] == 1)
            .update(is_unique=False),
        ),
        "perm-unique-without-a-count": (
            "eval-reorder",
            lambda d: d["instances"][0].update(n_valid_orders=None, is_unique=True),
        ),
        "perm-id-int": ("eval-reorder", lambda d: d["instances"][0].update(id=5)),
        "perm-input-int": (
            "eval-reorder", lambda d: d["instances"][0]["inputs"].__setitem__(0, 7)
        ),
    }

    def _run(self, capsys, tmp_path, command, dataset):
        """Run ``command`` on ``dataset`` with the other files it needs;
        returns the exit code, stderr and the files."""
        files = {
            "MOCK": tmp_path / "mock.json",
            "PREDS": tmp_path / "preds.json",
            "ATTEMPTS": tmp_path / "att.jsonl",
            "OUT": tmp_path / "out.json",
        }
        files["MOCK"].write_text(json.dumps(["no answer"]))
        files["PREDS"].write_text(json.dumps({"inst-00000": "no answer"}))
        files["ATTEMPTS"].write_text("")
        code, _, err = run(
            capsys, command, "--dataset", str(dataset),
            *[str(files.get(arg, arg)) for arg in self.COMMANDS[command][1]],
        )
        return code, err, files

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_dataset_of_the_other_kind_exits_1(
        self, small_dataset, tmp_path, capsys, command
    ):
        perm = tmp_path / "perm.json"
        assert run(capsys, "perm", "--dataset", str(small_dataset),
                   "--out", str(perm))[0] == 0
        kind = self.COMMANDS[command][0]
        wrong = perm if kind == "pbe" else small_dataset
        code, err, files = self._run(capsys, tmp_path, command, wrong)
        assert code == 1, err
        expected = "a PBE dataset" if kind == "pbe" else "a reorder dataset"
        other = "eval-reorder" if kind == "pbe" else "eval, report"
        assert f"{command} needs {expected}" in err
        assert other in err
        assert not files["OUT"].exists()

    @pytest.mark.parametrize("rows, message", [
        ([[0, "X", 1]], "edge kind must be 'F' or 'B', got 'X'"),
        ([[1, "F", 1]], "self-edges are not allowed"),
        ([[0, "F", 1], [1, "X", 0]], "got 'X'"),
        ([[0, "X", 1], [0, "F", 9]], "names a rule outside"),
    ], ids=["kind-X", "self-edge", "kind-X-after-a-good-row", "range-first"])
    def test_bad_edge_row_exits_1_after_a_valid_load(
        self, small_dataset, tmp_path, capsys, rows, message
    ):
        """Loading a valid dataset first leaves no edge behind that a bad
        row could be served; every row's range is checked before any edge
        is built."""
        assert run(capsys, "stats", "--dataset", str(small_dataset))[0] == 0
        data = json.loads(small_dataset.read_text())
        next(
            inst for inst in data["instances"] if len(inst["programs"]) >= 2
        )["fb_edges"] = rows
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        for _ in range(2):
            code, out, err = run(capsys, "stats", "--dataset", str(bad))
            assert code == 1, err
            assert out == ""
            assert f"malformed dataset file {bad}" in err
            assert message in err

    def test_file_without_instances_exits_1(self, tmp_path, capsys):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"metrics": {}}))
        code, _, err = run(capsys, "stats", "--dataset", str(path))
        assert code == 1
        assert "not a dataset file" in err

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_record_exits_1(
        self, small_dataset, tmp_path, capsys, case
    ):
        command, damage = self.MALFORMED[case]
        source = small_dataset
        if self.COMMANDS[command][0] == "reorder":
            source = tmp_path / "perm.json"
            assert run(capsys, "perm", "--dataset", str(small_dataset),
                       "--out", str(source))[0] == 0
        data = json.loads(source.read_text())
        damage(data)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        code, err, _ = self._run(capsys, tmp_path, command, bad)
        assert code == 1, err
        assert f"malformed dataset file {bad}" in err


class TestVerifyRelations:
    def test_small_run_reports_counts(self, capsys):
        code, stdout, _ = run(
            capsys, "verify-relations", "--pairs", "50", "--seed", "1"
        )
        assert code in (0, 1)
        assert "checked 50 pairs" in stdout

    def test_last_line_lists_discrepancies(self, capsys):
        code, stdout, _ = run(
            capsys, "verify-relations", "--pairs", "300", "--seed", "0"
        )
        summary = json.loads(stdout.strip().splitlines()[-1])
        assert summary["pairs"] == 300
        found = summary["discrepancies"]
        assert found, "300 random pairs should include a known divergence"
        assert code == 1
        assert sum(summary["counts"].values()) == len(found)
        for d in found:
            p, q = RewriteRule(*d["p"]), RewriteRule(*d["q"])
            bound = default_oracle_bound(p, q)
            if d["kind"].endswith("_unsound"):
                sign = 1 if d["kind"].startswith("feeds") else -1
                w = d["witness"]
                assert len(w) <= bound
                assert sign * (apply_rule(p, w).count(q.source) - w.count(q.source)) > 0
            else:
                assert d["witness"] is None

    @pytest.mark.parametrize("flags, digest", [
        pytest.param(
            ["--pairs", "10000", "--seed", "0"],
            "ccd2d624b9749f20252011d2da44b5d7d8c4552b3aa13910dfc99d79f5d57a0e",
            id="10000-pairs-seed-0"),
        pytest.param(
            ["--pairs", "300", "--seed", "0"],
            "c69d0b1f85ced8ecc2395e0de57a974707bde53e3bf4e975d6759eb277d96724",
            id="300-pairs-seed-0"),
        pytest.param(
            ["--pairs", "200", "--seed", "1", "--alphabet", "abcd", "--max-len", "3"],
            "307b916bd8af46c31aa00eddaa7cb7a1c9840b642e41b7b3808a9f7675e059b4",
            id="200-pairs-seed-1-abcd-max-len-3"),
    ])
    def test_stdout_is_pinned(self, capsys, flags, digest):
        """The whole report, every witness included, byte for byte."""
        code, stdout, _ = run(capsys, "verify-relations", *flags)
        assert code == 1
        assert hashlib.sha256(stdout.encode()).hexdigest() == digest

    def test_seed_required(self, capsys):
        code, _, err = run(capsys, "verify-relations", "--pairs", "10")
        assert code == 1
        assert "--seed" in err

    @pytest.mark.parametrize("pairs", ["0", "-3"])
    def test_pairs_below_1_exits_1(self, capsys, pairs):
        code, stdout, err = run(
            capsys, "verify-relations", "--pairs", pairs, "--seed", "0"
        )
        assert code == 1
        assert "--pairs must be at least 1" in err
        assert stdout == ""

    @pytest.mark.parametrize("flags, message", [
        (["--min-len", "0"], "--min-len must be at least 1"),
        (["--min-len", "-1", "--max-len", "0"], "--min-len must be at least 1"),
        (["--min-len", "3", "--max-len", "2"],
         "--min-len 3 exceeds --max-len 2"),
        (["--max-len", "0"], "--min-len 1 exceeds --max-len 0"),
    ])
    def test_empty_length_range_exits_1(self, capsys, flags, message):
        code, stdout, err = run(
            capsys, "verify-relations", "--pairs", "5", "--seed", "3", *flags
        )
        assert code == 1
        assert message in err
        assert stdout == ""


SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def loaded_after_import(module, candidates):
    """Which of ``candidates`` are in ``sys.modules`` after a fresh
    interpreter imports ``module``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probe = (
        f"import sys, {module}\n"
        f"print(*[m for m in {candidates!r} if m in sys.modules])"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env,
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.split()


class TestStartup:
    """Each command imports what it runs when it starts, so importing the
    command line leaves the solver, the scorer and their stdlib out."""

    def test_cli_import_leaves_out_solver_and_scorer(self):
        assert loaded_after_import("rewritebench.cli", [
            "rewritebench.gateway", "rewritebench.evaluator",
            "rewritebench.permuter", "hashlib", "concurrent.futures",
            "logging", "fractions", "decimal", "requests", "urllib.request",
            "http.client",
        ]) == []

    def test_gateway_import_leaves_out_pool_and_fractions(self):
        assert loaded_after_import("rewritebench.gateway", [
            "concurrent.futures", "logging", "fractions", "requests",
            "urllib.request", "http.client",
        ]) == []

    def test_package_needs_only_the_standard_library(self):
        for path in sorted((SRC / "rewritebench").glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and not node.level:
                    names = [node.module]
                else:
                    continue
                for name in names:
                    assert name.split(".")[0] in sys.stdlib_module_names, (
                        f"{path.name} imports {name}"
                    )
        tomllib = pytest.importorskip("tomllib")
        with open(SRC.parent / "pyproject.toml", "rb") as fh:
            assert tomllib.load(fh)["project"]["dependencies"] == []

    def test_transport_error_is_one_class(self):
        assert gateway.TransportError is core.TransportError

    def test_transport_failure_exits_2(
        self, small_dataset, tmp_path, capsys, monkeypatch
    ):
        def solve_dataset(*args, **kwargs):
            raise gateway.TransportError("retries exhausted")

        monkeypatch.setattr(gateway, "solve_dataset", solve_dataset)
        mock = tmp_path / "mock.json"
        mock.write_text(json.dumps(["no block here"]))
        code, out, err = run(
            capsys, "solve", "--dataset", str(small_dataset),
            "--out", str(tmp_path / "att.jsonl"), "--mock", str(mock),
        )
        assert code == 2
        assert out == ""
        assert err == "transport error: retries exhausted\n"
