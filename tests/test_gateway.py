"""Gateway tests: golden prompt files, retry behaviour, budgeted solving
with the selection rules, and JSONL persistence/replay."""

import json
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

from rewritebench.core import RewriteRule, apply_cascade
from rewritebench.evaluator import EvalRecord, aggregate_pbe, score_attempt
from rewritebench.gateway import (
    AttemptLog,
    BackendResult,
    HttpChatBackend,
    MockChatBackend,
    SolverConfig,
    TransientBackendError,
    TransportError,
    chat_send,
    load_attempts,
    persist_attempts,
    render_pbe_prompt,
    render_reorder_prompt,
    select_attempt,
    solve_with_budget,
)
from rewritebench.permuter import ReorderInstance
from rewritebench.proposer import PbeInstance
from rewritebench.relations import classify_bfcc

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def make_instance(rules, inputs, id="inst"):
    cascade = tuple(RewriteRule(a, b) for a, b in rules)
    outputs = tuple(apply_cascade(cascade, inputs))
    category, edges = classify_bfcc(cascade)
    return PbeInstance(
        id=id, inputs=tuple(inputs), cascade=cascade, outputs=outputs,
        category=category, fb_edges=tuple(edges),
    )


GOLDEN_PBE = make_instance(
    [("bc", "dc"), ("ad", "ed")], ["abc", "ebc", "aba"], id="golden-pbe"
)
GOLDEN_REORDER = ReorderInstance(
    source_id="golden-reorder",
    inputs=("a",),
    outputs=("x",),
    scrambled=(RewriteRule("bc", "x"), RewriteRule("a", "bc")),
    gt_order=(1, 0),
    n_valid_orders=1,
    is_unique=True,
)


class TestPrompts:
    def test_pbe_golden_file(self):
        rendered = render_pbe_prompt(GOLDEN_PBE, s_max=3, L_max=5)
        expected = (FIXTURES / "pbe_prompt_golden.txt").read_text()
        assert rendered == expected

    def test_reorder_golden_file(self):
        rendered = render_reorder_prompt(GOLDEN_REORDER)
        expected = (FIXTURES / "reorder_prompt_golden.txt").read_text()
        assert rendered == expected

    def test_bounds_substituted(self):
        rendered = render_pbe_prompt(GOLDEN_PBE, s_max=4, L_max=7)
        assert "length <= 4" in rendered
        assert "programs in a sequence is 7" in rendered

    def test_input_list_formatting(self):
        rendered = render_pbe_prompt(GOLDEN_PBE, s_max=3, L_max=5)
        assert '["abc", "ebc", "aba"]' in rendered

    def test_reorder_index_range(self):
        inst = ReorderInstance(
            source_id="x", inputs=("a",), outputs=("a",),
            scrambled=(RewriteRule("a", "b"),) * 3, gt_order=(0, 1, 2),
        )
        assert "indices 0 to 2" in render_reorder_prompt(inst)

    def test_prompt_determinism(self):
        assert render_pbe_prompt(GOLDEN_PBE, 3, 5) == render_pbe_prompt(
            GOLDEN_PBE, 3, 5
        )


class TestChatSend:
    def _config(self, **kw):
        return SolverConfig(model_id="m", endpoint_url="http://x", **kw)

    def test_mock_echo(self):
        backend = MockChatBackend(["hello"])
        resp = chat_send("prompt", self._config(), backend, sleep=lambda _: None)
        assert resp.text == "hello"
        assert resp.retries_used == 0
        assert backend.calls[0]["messages"] == [
            {"role": "user", "content": "prompt"},
        ]

    def test_body_carries_sampling_fields(self):
        backend = MockChatBackend(["ok"])
        config = self._config(
            temperature=0.7, top_p=0.9, max_tokens=123,
            reasoning_effort="high",
        )
        chat_send("p", config, backend, sleep=lambda _: None)
        body = backend.calls[0]
        assert body["temperature"] == 0.7
        assert body["top_p"] == 0.9
        assert body["max_tokens"] == 123
        assert body["reasoning_effort"] == "high"

    def test_two_transient_failures_then_success(self):
        backend = MockChatBackend(
            [
                BackendResult(503, {}),
                TransientBackendError("conn reset"),
                MockChatBackend.ok("fine"),
            ]
        )
        delays = []
        resp = chat_send("p", self._config(), backend, sleep=delays.append)
        assert resp.text == "fine"
        assert resp.retries_used == 2
        assert delays == [0.5, 1.0]  # exponential backoff

    def test_retries_exhausted(self):
        backend = MockChatBackend([BackendResult(500, {})])
        with pytest.raises(TransportError, match="retries exhausted"):
            chat_send(
                "p", self._config(retry_count=2), backend, sleep=lambda _: None
            )

    def test_rate_limit_then_success(self):
        backend = MockChatBackend(
            [BackendResult(429, {}), MockChatBackend.ok("fine")]
        )
        delays = []
        resp = chat_send("p", self._config(), backend, sleep=delays.append)
        assert resp.text == "fine"
        assert resp.retries_used == 1
        assert delays == [0.5]

    def test_rate_limit_waits_at_least_retry_after(self):
        backend = MockChatBackend(
            [
                BackendResult(429, {}, retry_after=7.0),
                BackendResult(429, {}, retry_after=0.2),
                MockChatBackend.ok("fine"),
            ]
        )
        delays = []
        resp = chat_send("p", self._config(), backend, sleep=delays.append)
        assert resp.retries_used == 2
        assert delays == [7.0, 1.0]  # the larger of Retry-After and backoff

    def test_rate_limit_retries_exhausted(self):
        backend = MockChatBackend([BackendResult(429, {})])
        with pytest.raises(TransportError, match="retries exhausted"):
            chat_send(
                "p", self._config(retry_count=2), backend, sleep=lambda _: None
            )
        assert len(backend.calls) == 3

    @pytest.mark.parametrize(
        "header, expected",
        [("12", 12.0), ("0.5", 0.5), (None, None), ("-3", None), ("inf", None),
         ("nan", None), ("Wed, 21 Oct 2015 07:28:00 GMT", None)],
    )
    def test_http_backend_reads_retry_after(self, monkeypatch, header, expected):
        import requests

        class Response:
            status_code = 429
            headers = {} if header is None else {"Retry-After": header}

            def json(self):
                return {}

        monkeypatch.setattr(requests, "post", lambda *a, **kw: Response())
        result = HttpChatBackend().send(self._config(), {})
        assert result.status_code == 429
        assert result.retry_after == expected

    def test_auth_failure_not_retried(self):
        backend = MockChatBackend([BackendResult(401, {})])
        with pytest.raises(TransportError, match="authentication"):
            chat_send("p", self._config(), backend, sleep=lambda _: None)
        assert len(backend.calls) == 1

    def test_malformed_envelope(self):
        backend = MockChatBackend([BackendResult(200, {"oops": 1})])
        with pytest.raises(TransportError, match="malformed"):
            chat_send("p", self._config(), backend, sleep=lambda _: None)

    def test_empty_content_is_returned_not_fatal(self):
        backend = MockChatBackend([MockChatBackend.ok("")])
        resp = chat_send("p", self._config(), backend, sleep=lambda _: None)
        assert resp.text == ""


def gt_response(instance):
    listing = ", ".join(
        f"\"replace('{r.source}','{r.target}')\"" for r in instance.cascade
    )
    return f"```python\n[{listing}]\n```"


class TestSolveWithBudget:
    def test_all_attempts_issued_without_early_stop(self):
        inst = make_instance([("a", "b")], ["aa"])
        backend = MockChatBackend(
            ["nope", "nope", gt_response(inst), "nope", "nope"]
        )
        config = SolverConfig(sampling_budget=5)
        selected, logs = solve_with_budget(
            inst, config, backend, "pbe", sleep=lambda _: None
        )
        assert len(logs) == 5
        assert selected.attempt_index == 2
        assert selected.eval["passed"]

    def test_early_stop(self):
        inst = make_instance([("a", "b")], ["aa"])
        backend = MockChatBackend(["nope", gt_response(inst), "unused"])
        config = SolverConfig(sampling_budget=5, early_stop=True)
        _, logs = solve_with_budget(
            inst, config, backend, "pbe", sleep=lambda _: None
        )
        assert len(logs) == 2

    def test_best_edit_sim_selected_on_failure(self):
        # abab -> bcbc via two rules; partial predictions differ in quality
        inst = make_instance([("ab", "bc")], ["abab"])
        texts = [
            "```python\n[\"replace('x','y')\"]\n```",  # no-op, edit_sim 0
            "```python\n[\"replace('ab','bb')\"]\n```",  # closer
            "no block here",
        ]
        backend = MockChatBackend(texts)
        config = SolverConfig(sampling_budget=3)
        selected, logs = solve_with_budget(
            inst, config, backend, "pbe", sleep=lambda _: None
        )
        sims = [lg.eval["edit_sim"] for lg in logs]
        assert selected.eval["edit_sim"] == max(sims)
        assert selected.attempt_index == 1

    def test_tie_breaks_to_lowest_index(self):
        inst = make_instance([("a", "b")], ["aa"])
        backend = MockChatBackend(["no", "no", "no"])
        config = SolverConfig(sampling_budget=3)
        selected, _ = solve_with_budget(
            inst, config, backend, "pbe", sleep=lambda _: None
        )
        assert selected.attempt_index == 0

    def test_transport_errors_become_null_attempts(self):
        inst = make_instance([("a", "b")], ["aa"])
        backend = MockChatBackend([BackendResult(500, {})])
        config = SolverConfig(sampling_budget=2, retry_count=0)
        _, logs = solve_with_budget(
            inst, config, backend, "pbe", sleep=lambda _: None
        )
        assert len(logs) == 2
        assert all(lg.raw_text is None for lg in logs)
        assert all(lg.finish_reason == "transport_error" for lg in logs)

    def test_reorder_selection_first_correct(self):
        backend = MockChatBackend(
            ["```json\n[0,1]\n```", "```json\n[1,0]\n```"]
        )
        config = SolverConfig(sampling_budget=2)
        selected, logs = solve_with_budget(
            GOLDEN_REORDER, config, backend, "reorder", sleep=lambda _: None
        )
        assert selected.attempt_index == 1
        assert selected.eval["passed"]

    def test_reorder_fallback_first_non_null(self):
        backend = MockChatBackend(
            ["no block", "```json\n[0,1]\n```", "```json\n[0,1]\n```"]
        )
        config = SolverConfig(sampling_budget=3)
        selected, _ = solve_with_budget(
            GOLDEN_REORDER, config, backend, "reorder", sleep=lambda _: None
        )
        assert selected.attempt_index == 1
        assert not selected.eval["passed"]

    def test_unknown_task_kind(self):
        with pytest.raises(ValueError):
            solve_with_budget(
                GOLDEN_PBE, SolverConfig(), MockChatBackend(["x"]), "riddle"
            )

    @pytest.mark.parametrize("kind, inst, texts", [
        ("pbe", make_instance([("ab", "bc")], ["abab"]), [
            "```python\n[\"replace('ab','bb')\"]\n```",
            "```python\n[\"replace('ab','bc')\", \"replace('abcd','x')\"]\n```",
            "no block here",
        ]),
        ("reorder", GOLDEN_REORDER, [
            "```json\n[0,1]\n```", "```json\n[1,0]\n```", "no block here",
        ]),
    ])
    def test_logged_eval_is_score_attempt(self, kind, inst, texts):
        backend = MockChatBackend(texts + [BackendResult(500, {})])
        config = SolverConfig(sampling_budget=4, retry_count=0)
        _, logs = solve_with_budget(
            inst, config, backend, kind, s_max=3, L_max=5,
            identity_symbol="a", sleep=lambda _: None,
        )
        assert [lg.raw_text for lg in logs] == texts + [None]
        for lg in logs:
            assert score_attempt(
                inst, lg.raw_text, kind, 3, 5, "a", lg.attempt_index
            ) == (lg.eval, lg.extracted)


def reference_select(logs, task_kind):
    """The selection as two separate rules over logs sorted by attempt
    index: PBE takes the first pass, else the highest edit similarity;
    reorder the first pass, else the first extracted, else the first."""
    logs = sorted(logs, key=lambda lg: lg.attempt_index)
    if not logs:
        return None
    for log in logs:
        if log.eval and log.eval.get("passed"):
            return log
    if task_kind == "pbe":
        return max(
            logs,
            key=lambda lg: (
                lg.eval.get("edit_sim", float("-inf")) if lg.eval else float("-inf"),
                -lg.attempt_index,
            ),
        )
    for log in logs:
        if log.extracted:
            return log
    return logs[0]


_evals = st.one_of(
    st.none(),
    st.just({}),
    st.fixed_dictionaries({"passed": st.booleans()}),
    st.fixed_dictionaries({
        "passed": st.booleans(),
        "edit_sim": st.sampled_from([-2.0, -0.5, 0.0, 0.25, 1.0]),
    }),
)
_logs = st.lists(
    st.builds(
        AttemptLog,
        instance_id=st.just("inst"),
        attempt_index=st.integers(0, 9),
        prompt_hash=st.just(""),
        raw_text=st.none(),
        finish_reason=st.just("stop"),
        extracted=st.booleans(),
        eval=_evals,
    ),
    max_size=6,
    unique_by=lambda lg: lg.attempt_index,
)


@settings(max_examples=500, deadline=None)
@given(logs=_logs, task_kind=st.sampled_from(["pbe", "reorder"]))
def test_select_attempt_matches_reference_in_any_order(logs, task_kind):
    assert select_attempt(logs, task_kind) is reference_select(logs, task_kind)


class TestPersistence:
    def _logs(self):
        inst = make_instance([("a", "b")], ["aa"])
        backend = MockChatBackend([gt_response(inst), "nope"])
        config = SolverConfig(sampling_budget=2)
        _, logs = solve_with_budget(
            inst, config, backend, "pbe", sleep=lambda _: None
        )
        return logs

    def test_round_trip(self, tmp_path):
        logs = self._logs()
        path = tmp_path / "attempts.jsonl"
        persist_attempts(logs, str(path))
        loaded = load_attempts(str(path))
        assert [lg.to_dict() for lg in loaded] == [lg.to_dict() for lg in logs]

    def test_append_only(self, tmp_path):
        logs = self._logs()
        path = tmp_path / "attempts.jsonl"
        persist_attempts(logs, str(path))
        persist_attempts(logs, str(path))
        assert len(load_attempts(str(path))) == 2 * len(logs)

    def test_corrupt_line_names_line_number(self, tmp_path):
        path = tmp_path / "attempts.jsonl"
        persist_attempts(self._logs(), str(path))
        with open(path, "a") as fh:
            fh.write('{"truncated": \n')
        with pytest.raises(ValueError, match="line 3"):
            load_attempts(str(path))

    def test_replay_reproduces_metrics(self, tmp_path):
        logs = self._logs()
        original = aggregate_pbe(
            [EvalRecord.from_dict(select_attempt(logs, "pbe").eval)]
        )
        path = tmp_path / "attempts.jsonl"
        persist_attempts(logs, str(path))
        loaded = load_attempts(str(path))
        replayed = aggregate_pbe(
            [EvalRecord.from_dict(select_attempt(loaded, "pbe").eval)]
        )
        assert replayed.to_dict() == original.to_dict()


class TestSolverConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(sampling_budget=0)
        with pytest.raises(ValueError):
            SolverConfig(top_p=0)
        with pytest.raises(ValueError):
            SolverConfig(temperature=-1)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            SolverConfig.from_dict({"api_key": "secret"})

    def test_round_trip(self):
        config = SolverConfig(model_id="m", sampling_budget=4)
        assert SolverConfig.from_dict(config.to_dict()) == config
