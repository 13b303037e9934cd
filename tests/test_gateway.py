"""Gateway tests: golden prompt files, retry behaviour, budgeted solving
with the selection rules, concurrent solving of a dataset, and JSONL
persistence/replay."""

import json
import pathlib
import signal
import sys
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from rewritebench.core import RewriteRule, apply_cascade
from rewritebench.evaluator import EvalRecord, aggregate_pbe
from rewritebench.gateway import (
    AttemptLog,
    BackendResult,
    HttpChatBackend,
    MockChatBackend,
    PbeTask,
    ReorderTask,
    SolverConfig,
    TransientBackendError,
    TransportError,
    chat_send,
    load_attempts,
    persist_attempts,
    prompt_hash,
    render_pbe_prompt,
    render_reorder_prompt,
    select_attempt,
    solve_dataset,
    solve_with_budget,
)
from rewritebench.permuter import ReorderInstance
from rewritebench.proposer import PbeInstance
from rewritebench.relations import classify_bfcc

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
PBE = PbeTask(s_max=3, L_max=5, identity_symbol="a")
REORDER = ReorderTask()
TASKS = {"pbe": PBE, "reorder": REORDER}


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
            inst, config, backend, PBE, sleep=lambda _: None
        )
        assert len(logs) == 5
        assert selected.attempt_index == 2
        assert selected.eval["passed"]

    def test_early_stop(self):
        inst = make_instance([("a", "b")], ["aa"])
        backend = MockChatBackend(["nope", gt_response(inst), "unused"])
        config = SolverConfig(sampling_budget=5, early_stop=True)
        _, logs = solve_with_budget(
            inst, config, backend, PBE, sleep=lambda _: None
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
            inst, config, backend, PBE, sleep=lambda _: None
        )
        sims = [lg.eval["edit_sim"] for lg in logs]
        assert selected.eval["edit_sim"] == max(sims)
        assert selected.attempt_index == 1

    def test_tie_breaks_to_lowest_index(self):
        inst = make_instance([("a", "b")], ["aa"])
        backend = MockChatBackend(["no", "no", "no"])
        config = SolverConfig(sampling_budget=3)
        selected, _ = solve_with_budget(
            inst, config, backend, PBE, sleep=lambda _: None
        )
        assert selected.attempt_index == 0

    def test_transport_errors_become_null_attempts(self):
        inst = make_instance([("a", "b")], ["aa"])
        backend = MockChatBackend([BackendResult(500, {})])
        config = SolverConfig(sampling_budget=2, retry_count=0)
        _, logs = solve_with_budget(
            inst, config, backend, PBE, sleep=lambda _: None
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
            GOLDEN_REORDER, config, backend, REORDER, sleep=lambda _: None
        )
        assert selected.attempt_index == 1
        assert selected.eval["passed"]

    def test_reorder_fallback_first_non_null(self):
        backend = MockChatBackend(
            ["no block", "```json\n[0,1]\n```", "```json\n[0,1]\n```"]
        )
        config = SolverConfig(sampling_budget=3)
        selected, _ = solve_with_budget(
            GOLDEN_REORDER, config, backend, REORDER, sleep=lambda _: None
        )
        assert selected.attempt_index == 1
        assert not selected.eval["passed"]

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
        """Each logged eval is what the task's ``score`` gives its text."""
        task = TASKS[kind]
        backend = MockChatBackend(texts + [BackendResult(500, {})])
        config = SolverConfig(sampling_budget=4, retry_count=0)
        _, logs = solve_with_budget(
            inst, config, backend, task, sleep=lambda _: None,
        )
        assert [lg.raw_text for lg in logs] == texts + [None]
        for lg in logs:
            record, extracted = task.score(inst, lg.raw_text, lg.attempt_index)
            assert (record.to_dict(), extracted) == (lg.eval, lg.extracted)


class PromptKeyedBackend:
    """Replies by (prompt, number of earlier sends of that prompt), so a
    prompt gets the same replies whichever worker thread sends it.

    ``reply(prompt, k)`` gives the text. Each send waits ``delay`` seconds;
    the ``fail_on``-th send (counted from 1) runs ``fail(self)`` instead,
    which may raise. ``peak`` is the most sends ever in flight at once.
    """

    def __init__(self, reply, delay=0.0, fail_on=None, fail=None):
        self.reply = reply
        self.delay = delay
        self.fail_on = fail_on
        self.fail = fail
        self.sends: dict[str, int] = {}
        self.calls = 0
        self.in_flight = 0
        self.peak = 0
        self._lock = threading.Lock()

    def send(self, config, body):
        prompt = body["messages"][0]["content"]
        with self._lock:
            k = self.sends.get(prompt, 0)
            self.sends[prompt] = k + 1
            self.calls += 1
            n = self.calls
            self.in_flight += 1
            self.peak = max(self.peak, self.in_flight)
        try:
            if n == self.fail_on:
                self.fail(self)
            if self.delay:
                time.sleep(self.delay)
            return MockChatBackend.ok(self.reply(prompt, k))
        finally:
            with self._lock:
                self.in_flight -= 1


def pbe_set(n):
    """n PBE instances with distinct prompts and a prompt-keyed reply
    function mixing passes, near misses, no-ops and missing blocks."""
    rule_sets = [[("ab", "c"), ("c", "ba")], [("a", "bc"), ("bc", "b")],
                 [("ba", ""), ("a", "cc")]]
    instances = [
        make_instance(rule_sets[i % 3], ["ab" * (1 + i), "bca" + "a" * i],
                      id=f"pbe-{i}")
        for i in range(n)
    ]
    by_prompt = {
        render_pbe_prompt(inst, s_max=3, L_max=5): (pos, inst)
        for pos, inst in enumerate(instances)
    }
    assert len(by_prompt) == n

    def reply(prompt, k):
        pos, inst = by_prompt[prompt]
        cascade = inst.cascade
        return [
            gt_response(inst),
            gt_response(make_instance([(r.source, r.target) for r in cascade[:1]], ["a"])),
            "```python\n[\"replace('x','y')\"]\n```",
            "no block here",
            gt_response(make_instance(
                [(r.source, r.target) for r in reversed(cascade)], ["a"])),
        ][(pos + 2 * k) % 5]

    return instances, reply


def reorder_set(n):
    """n reorder instances with distinct prompts and a prompt-keyed reply
    function mixing right, wrong and unreadable orders."""
    instances = [
        ReorderInstance(
            source_id=f"reorder-{i}", inputs=("a" * (1 + i),),
            outputs=("x" * (1 + i),),
            scrambled=(RewriteRule("bc", "x"), RewriteRule("a", "bc")),
            gt_order=(1, 0),
        )
        for i in range(n)
    ]
    by_prompt = {
        render_reorder_prompt(inst): pos for pos, inst in enumerate(instances)
    }
    assert len(by_prompt) == n

    def reply(prompt, k):
        return ["```json\n[1,0]\n```", "```json\n[0,1]\n```",
                "```json\n[0,0]\n```", "no block here"][(by_prompt[prompt] + k) % 4]

    return instances, reply


DATASETS = {"pbe": pbe_set, "reorder": reorder_set}


class TestSolveDataset:
    @pytest.mark.parametrize("kind", ["pbe", "reorder"])
    @pytest.mark.parametrize("max_in_flight", [1, 2, 4])
    def test_same_results_as_a_serial_loop(self, kind, max_in_flight):
        instances, reply = DATASETS[kind](24)
        config = SolverConfig(sampling_budget=3, max_in_flight=max_in_flight)
        serial_backend = PromptKeyedBackend(reply)
        serial = [
            solve_with_budget(inst, config, serial_backend, TASKS[kind],
                              sleep=lambda _: None)
            for inst in instances
        ]
        selected, logs = solve_dataset(
            instances, config, PromptKeyedBackend(reply), kind,
            sleep=lambda _: None,
        )
        assert [s.to_dict() for s in selected] == [
            sel.to_dict() for sel, _ in serial
        ]
        assert [lg.to_dict() for lg in logs] == [
            lg.to_dict() for _, attempt_logs in serial for lg in attempt_logs
        ]
        assert {s.eval["passed"] for s in selected} == {True, False}

    def test_unknown_task_kind(self):
        with pytest.raises(ValueError, match="unknown task kind 'riddle'"):
            solve_dataset(
                [GOLDEN_PBE], SolverConfig(), MockChatBackend(["x"]), "riddle"
            )

    @pytest.mark.parametrize("kind", ["pbe", "reorder"])
    def test_task_or_its_kind(self, kind):
        """The kind string, with the PBE limits, builds the task that
        ``solve_dataset`` would otherwise be given."""
        instances, _ = DATASETS[kind](6)
        script = ["no block here", "```json\n[1,0]\n```",
                  "```python\n[\"replace('ab','c')\", \"replace('c','ba')\"]\n```"]
        config = SolverConfig(sampling_budget=2, max_in_flight=1)
        task = PbeTask(2, 1, "b") if kind == "pbe" else REORDER
        by_task = solve_dataset(instances, config, MockChatBackend(script),
                                task, sleep=lambda _: None)
        by_kind = solve_dataset(instances, config, MockChatBackend(script),
                                kind, s_max=2, L_max=1, identity_symbol="b",
                                sleep=lambda _: None)
        assert [lg.to_dict() for lg in by_task[1]] == [
            lg.to_dict() for lg in by_kind[1]
        ]
        assert by_task[1][0].prompt_hash == prompt_hash(task.prompt(instances[0]))

    def test_no_instances(self):
        config = SolverConfig(max_in_flight=2)
        assert solve_dataset([], config, MockChatBackend(["x"]), "pbe") == ([], [])

    @pytest.mark.parametrize("max_in_flight", [1, 2, 4])
    def test_peak_sends_in_flight_is_max_in_flight(self, max_in_flight):
        instances, reply = DATASETS["pbe"](12)
        backend = PromptKeyedBackend(reply, delay=0.02)
        config = SolverConfig(sampling_budget=2, max_in_flight=max_in_flight)
        solve_dataset(instances, config, backend, "pbe", sleep=lambda _: None)
        assert backend.calls == 24
        assert backend.peak == max_in_flight

    @pytest.mark.parametrize("error", [RuntimeError("boom"), KeyboardInterrupt()])
    @pytest.mark.parametrize("max_in_flight", [1, 2, 4])
    def test_backend_error_stops_the_run(self, error, max_in_flight):
        instances, reply = DATASETS["pbe"](128)
        budget = 2

        def fail(backend):
            raise error

        backend = PromptKeyedBackend(reply, fail_on=5, fail=fail)
        config = SolverConfig(sampling_budget=budget, max_in_flight=max_in_flight)
        with pytest.raises(type(error)) as raised:
            solve_dataset(instances, config, backend, "pbe", sleep=lambda _: None)
        assert raised.value is error
        # Each other worker finishes the instance it is in, and at most one
        # more taken before the failure was recorded.
        assert backend.calls <= 5 + (max_in_flight - 1) * 2 * budget

    @pytest.mark.skipif(
        not hasattr(signal, "pthread_kill")
        or signal.getsignal(signal.SIGINT) is not signal.default_int_handler,
        reason="needs SIGINT to raise KeyboardInterrupt in the main thread",
    )
    def test_interrupted_caller_stops_the_run(self):
        instances, reply = DATASETS["pbe"](64)

        def interrupt(backend):
            signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)

        backend = PromptKeyedBackend(reply, delay=0.005, fail_on=3, fail=interrupt)
        config = SolverConfig(sampling_budget=1, max_in_flight=2)
        with pytest.raises(KeyboardInterrupt):
            solve_dataset(instances, config, backend, "pbe", sleep=lambda _: None)
        assert backend.calls < 16


class TestMockChatBackend:
    def test_concurrent_sends_take_distinct_entries(self):
        threads, per_thread = 4, 1000
        backend = MockChatBackend([str(i) for i in range(threads * per_thread)])
        config = SolverConfig()
        texts = []

        def hammer():
            mine = [backend.send(config, {}).payload["choices"][0]["message"]
                    ["content"] for _ in range(per_thread)]
            texts.extend(mine)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=hammer) for _ in range(threads)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        assert sorted(texts, key=int) == [str(i) for i in range(threads * per_thread)]
        assert len(backend.calls) == threads * per_thread


def reference_select(logs, task):
    """The selection as two separate rules over logs sorted by attempt
    index: PBE takes the first pass, else the highest edit similarity;
    reorder the first pass, else the first extracted, else the first."""
    logs = sorted(logs, key=lambda lg: lg.attempt_index)
    if not logs:
        return None
    for log in logs:
        if log.eval and log.eval.get("passed"):
            return log
    if isinstance(task, PbeTask):
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
@given(logs=_logs, task=st.sampled_from([PBE, REORDER]))
def test_select_attempt_matches_reference_in_any_order(logs, task):
    assert select_attempt(logs, task) is reference_select(logs, task)


class TestPersistence:
    def _logs(self):
        inst = make_instance([("a", "b")], ["aa"])
        backend = MockChatBackend([gt_response(inst), "nope"])
        config = SolverConfig(sampling_budget=2)
        _, logs = solve_with_budget(
            inst, config, backend, PBE, sleep=lambda _: None
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
            [EvalRecord.from_dict(select_attempt(logs, PBE).eval)]
        )
        path = tmp_path / "attempts.jsonl"
        persist_attempts(logs, str(path))
        loaded = load_attempts(str(path))
        replayed = aggregate_pbe(
            [EvalRecord.from_dict(select_attempt(loaded, PBE).eval)]
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
