"""CLI tests: subcommand behaviour, exit codes, config validation, and
reproducibility of generated artifacts."""

import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

from dataclasses import fields

from rewritebench import core, gateway
from rewritebench.cli import dispatch
from rewritebench.core import RewriteRule, apply_rule
from rewritebench.gateway import SolverConfig
from rewritebench.proposer import GeneratorParams, lite_params
from rewritebench.relations import default_oracle_bound


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

    @pytest.mark.parametrize("value", [2.5, True])
    def test_integer_setting_of_another_type_exits_1(
        self, tmp_path, capsys, value
    ):
        config = tmp_path / "n.json"
        config.write_text(json.dumps({"n": value}))
        path = tmp_path / "x.json"
        code, out, err = run(
            capsys, "gen", "--out", str(path), "--seed", "0",
            "--preset", "lite", "--size", "16", "--config", str(config),
        )
        assert code == 1, err
        assert out == ""
        assert f"invalid generator configuration: n {value!r} is not an integer" in err
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
        ("attempt_index", True), ("instance_id", 5),
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
    ])
    def test_eval_field_of_the_wrong_type_exits_1(
        self, datasets, tmp_path, capsys, command, field, value
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

    @pytest.mark.parametrize("command, solve, field, value", [
        ("report", "solve", "edit_sim", "x"),
        ("eval-reorder", "solve-reorder", "passed", "false"),
        ("eval-reorder", "solve-reorder", "extracted", "no"),
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
        (logs[1] if field == "extracted" else logs[1]["eval"])[field] = value
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
        {"retry_count": 1.5}, {"max_in_flight": 1.5}, {"sampling_budget": 1.5},
        {"max_in_flight": True},
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
            "logging", "fractions", "decimal",
        ]) == []

    def test_gateway_import_leaves_out_pool_and_fractions(self):
        assert loaded_after_import("rewritebench.gateway", [
            "concurrent.futures", "logging", "fractions",
        ]) == []

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
