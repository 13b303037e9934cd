"""Prompt rendering and remote-solver orchestration.

Renders the two task prompts, drives a chat-completion endpoint (or an
injected offline backend) with retries and a fixed sampling budget, and
persists every attempt as JSONL so any run can be replayed through the
evaluator without network access.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from typing import Callable, Optional, Protocol, Sequence

from . import evaluator
from .core import FINITE_JSON
from .permuter import ReorderInstance
from .proposer import PbeInstance


class TransportError(RuntimeError):
    """Unrecoverable backend failure (retries exhausted, auth, bad envelope)."""


class TransientBackendError(RuntimeError):
    """Retryable failure (connection drop or 5xx status)."""


PBE_PROMPT_TEMPLATE = """\
Follow the instructions below to solve the code completion task:

We will provide the input corpus and corresponding output corpus. Each element in the corpus is a string, and the output is transformed from the corresponding input using an ordered sequence of "replace" programs. You need to find the correctly constructed and ordered sequence of "replace" programs to transform the entire input corpus into the output corpus. Note that the programs can interact with each other in a way that reduces or increases the number of times they are applied on a given input based on where they are ordered in the sequence. This makes it very important to apply them in the correct order.

The programs should be written using only the Python replace function. For example, for a program that replaces all occurrences of "ab" with "bc" it should be written as: replace('ab', 'bc')

Here is an example of the full task:

### Inputs 
["abc", "ebc", "aba"]

### Outputs
["edc", "edc", "aba"]

### Program Sequence
```python
["replace('bc','dc')", "replace('ad','ed')"]
```

While generating the program sequence, you need to abide by the following restrictions:
1. Each program in the sequence should have the form replace(A, B), where A and B are both strings.
2. Both argument strings A and B in replace(A, B) should have length <= {program_length}. A must have length >= 1, while B may be empty (i.e., "").
3. The maximum number of programs in a sequence is {program_num}.
4. You should only consider the Python replace function for specifying programs (each program is a Python replace function). You cannot use any other Python modules or functions.
5. Strictly follow the markdown style convention while presenting your final program sequence, and make sure to enclose it in the ```python markdown style code block.

Now, please generate the sequence of programs corresponding to the following input corpus and output corpus:

### Inputs 
{inputs_list}

### Outputs
{outputs_list}

### Program Sequence
"""

REORDER_PROMPT_TEMPLATE = """\
You are solving a **program ordering puzzle**. Given input-output string pairs and a scrambled list of string replacement programs, your goal is to determine the correct execution order.

## Background

Each program performs a Python string replacement: replace("A", "B") replaces all occurrences of "A" with "B".

**Why order matters:**
- **Feeding:** One program creates substrings that another program can match.
  Example: replace("a","bc") followed by replace("bc","x").
- **Bleeding:** One program removes substrings that another program would have matched.
  Example: replace("ab","x") followed by replace("a","y").

## Your Task

**Inputs:** {inputs}

**Outputs:** {outputs}

**Scrambled Programs** (indices 0 to {n_minus_1}):
{programs_formatted}

Find the ordering [i0, i1, ..., i_{n_minus_1}] such that applying programs in that order transforms each input to its corresponding output.

## Approach

1. Trace through what each program does
2. Identify potential feeding/bleeding interactions
3. Reason about which programs must come before others
4. Verify your ordering produces the expected outputs

## Output Format

Provide your final answer as a JSON array of indices:

```json
[i0, i1, i2, ...]
```

Your ordering must be a permutation of [0, 1, ..., {n_minus_1}].
"""


def _string_list(items: Sequence[str]) -> str:
    return json.dumps(list(items))


def render_pbe_prompt(instance: PbeInstance, s_max: int, L_max: int) -> str:
    if s_max < 1 or L_max < 1:
        raise ValueError("s_max and L_max must be at least 1")
    return PBE_PROMPT_TEMPLATE.format(
        program_length=s_max,
        program_num=L_max,
        inputs_list=_string_list(instance.inputs),
        outputs_list=_string_list(instance.outputs),
    )


def render_reorder_prompt(instance: ReorderInstance) -> str:
    programs = "\n".join(
        f"{idx}: {rule.render()}" for idx, rule in enumerate(instance.scrambled)
    )
    return REORDER_PROMPT_TEMPLATE.format(
        inputs=_string_list(instance.inputs),
        outputs=_string_list(instance.outputs),
        n_minus_1=len(instance.scrambled) - 1,
        programs_formatted=programs,
    )


@dataclass(frozen=True)
class SolverConfig:
    endpoint_url: str = ""
    model_id: str = ""
    temperature: float = 0.0
    top_p: float = 1.0
    max_tokens: int = 4096
    reasoning_effort: Optional[str] = None
    sampling_budget: int = 1
    max_in_flight: int = 4
    timeout_ms: int = 120_000
    retry_count: int = 3
    api_key_env: str = "REWRITEBENCH_API_KEY"
    early_stop: bool = False

    def __post_init__(self) -> None:
        if self.sampling_budget < 1:
            raise ValueError("sampling_budget must be at least 1")
        if self.max_in_flight < 1:
            raise ValueError("max_in_flight must be at least 1")
        if self.temperature < 0:
            raise ValueError("temperature must be non-negative")
        if not (0 < self.top_p <= 1):
            raise ValueError("top_p must lie in (0, 1]")
        if self.timeout_ms < 1:
            raise ValueError("timeout_ms must be at least 1")
        if self.retry_count < 0:
            raise ValueError("retry_count must be non-negative")

    def to_dict(self) -> dict:
        return dict(vars(self))

    @classmethod
    def from_dict(cls, data: dict) -> "SolverConfig":
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown solver keys: {sorted(unknown)}")
        return cls(**data)


@dataclass(frozen=True)
class BackendResult:
    """One raw backend exchange: HTTP status plus decoded JSON payload, and
    the seconds a rate-limited reply asked the client to wait, if any."""

    status_code: int
    payload: dict
    retry_after: Optional[float] = None


class ChatBackend(Protocol):
    def send(self, config: SolverConfig, body: dict) -> BackendResult: ...


class HttpChatBackend:
    """Chat-completion backend over HTTP POST.

    The credential is read from the environment variable named by the
    config at request time; nothing credential-shaped is ever accepted from
    configuration files.
    """

    def send(self, config: SolverConfig, body: dict) -> BackendResult:
        import requests

        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(config.api_key_env)
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        try:
            resp = requests.post(
                config.endpoint_url,
                json=body,
                headers=headers,
                timeout=config.timeout_ms / 1000.0,
            )
        except (requests.ConnectionError, requests.Timeout) as exc:
            raise TransientBackendError(str(exc)) from exc
        try:
            payload = resp.json()
        except ValueError:
            payload = {}
        return BackendResult(
            status_code=resp.status_code,
            payload=payload,
            retry_after=_retry_after_seconds(resp.headers.get("Retry-After")),
        )


def _retry_after_seconds(value: Optional[str]) -> Optional[float]:
    """The delay of a ``Retry-After`` header in its seconds form; None when
    the header is absent, an HTTP date, or not a finite delay."""
    try:
        seconds = float(value)
    except (TypeError, ValueError):
        return None
    return seconds if 0 <= seconds < math.inf else None


class MockChatBackend:
    """Scripted offline backend.

    ``script`` is a sequence of BackendResult objects, plain strings
    (wrapped as successful responses), or exceptions to raise; consumed in
    order, with the final entry repeated once exhausted. Each send takes
    the next entry, concurrent sends included.
    """

    def __init__(self, script: Sequence):
        if not script:
            raise ValueError("mock script must be non-empty")
        self.script = list(script)
        self.calls: list[dict] = []
        self._cursor = 0
        self._lock = threading.Lock()

    @staticmethod
    def ok(text: str, finish_reason: str = "stop") -> BackendResult:
        return BackendResult(
            status_code=200,
            payload={
                "choices": [
                    {
                        "message": {"role": "assistant", "content": text},
                        "finish_reason": finish_reason,
                    }
                ],
                "usage": {"total_tokens": max(1, len(text) // 4)},
            },
        )

    def send(self, config: SolverConfig, body: dict) -> BackendResult:
        with self._lock:
            self.calls.append(body)
            entry = self.script[min(self._cursor, len(self.script) - 1)]
            self._cursor += 1
        if isinstance(entry, Exception):
            raise entry
        if isinstance(entry, str):
            return self.ok(entry)
        return entry


@dataclass(frozen=True)
class ChatResponse:
    text: str
    finish_reason: str
    token_usage: dict
    retries_used: int


def chat_send(
    prompt: str,
    config: SolverConfig,
    backend: ChatBackend,
    sleep: Callable[[float], None] = time.sleep,
) -> ChatResponse:
    """One chat-completion exchange with exponential-backoff retries.

    Transient failures (connection errors, 5xx statuses and 429 rate
    limits) are retried up to retry_count times; after a 429 the wait is at
    least its ``retry_after``. Auth failures and malformed envelopes are
    fatal.
    """
    body = {
        "model": config.model_id,
        "messages": [{"role": "user", "content": prompt}],
        "temperature": config.temperature,
        "top_p": config.top_p,
        "max_tokens": config.max_tokens,
    }
    if config.reasoning_effort is not None:
        body["reasoning_effort"] = config.reasoning_effort

    last_error: Optional[str] = None
    retry_after = 0.0
    for attempt in range(config.retry_count + 1):
        if attempt:
            sleep(max(0.5 * 2 ** (attempt - 1), retry_after))
        retry_after = 0.0
        try:
            result = backend.send(config, body)
        except TransientBackendError as exc:
            last_error = str(exc)
            continue
        if result.status_code >= 500:
            last_error = f"server error {result.status_code}"
            continue
        if result.status_code == 429:
            last_error = "rate limited (429)"
            retry_after = result.retry_after or 0.0
            continue
        if result.status_code in (401, 403):
            raise TransportError(
                f"authentication failure ({result.status_code}); check the "
                f"{config.api_key_env} environment variable"
            )
        if result.status_code != 200:
            raise TransportError(f"unexpected status {result.status_code}")
        try:
            choice = result.payload["choices"][0]
            content = choice["message"]["content"]
            finish = choice.get("finish_reason", "")
        except (KeyError, IndexError, TypeError) as exc:
            raise TransportError(f"malformed response envelope: {exc!r}")
        if content is None:
            content = ""
        return ChatResponse(
            text=content,
            finish_reason=finish,
            token_usage=result.payload.get("usage", {}) or {},
            retries_used=attempt,
        )
    raise TransportError(
        f"retries exhausted after {config.retry_count + 1} attempts: {last_error}"
    )


@dataclass
class AttemptLog:
    instance_id: str
    attempt_index: int
    prompt_hash: str
    raw_text: Optional[str]
    finish_reason: str
    token_usage: dict = field(default_factory=dict)
    extracted: bool = False
    eval: Optional[dict] = None

    def to_dict(self) -> dict:
        return dict(vars(self))

    @classmethod
    def from_dict(cls, data: dict) -> "AttemptLog":
        """The log a ``to_dict`` record holds; TypeError if a field that
        replay reads has the wrong type."""
        log = cls(**data)
        if not isinstance(log.instance_id, str):
            raise TypeError(f"instance_id {log.instance_id!r} is not a string")
        if type(log.attempt_index) is not int:
            raise TypeError(f"attempt_index {log.attempt_index!r} is not an integer")
        if log.eval is not None and not isinstance(log.eval, dict):
            raise TypeError(f"eval {log.eval!r} is neither null nor an object")
        return log


def prompt_hash(prompt: str) -> str:
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class PbeTask:
    """Cascade induction under a PBE dataset's limits. ``record`` types an
    attempt log's eval; ``rank_type`` names and types ``fail_rank``'s value."""

    s_max: int = 3
    L_max: int = 5
    identity_symbol: str = "a"
    record = evaluator.EvalRecord
    rank_type = ("edit_sim", (int, float), "a number")

    def instance_id(self, instance: PbeInstance) -> str:
        return instance.id

    def prompt(self, instance: PbeInstance) -> str:
        return render_pbe_prompt(instance, s_max=self.s_max, L_max=self.L_max)

    def score(self, instance: PbeInstance, text: Optional[str], attempt_index: int):
        """The eval of a reply (None for none), and whether it held a cascade."""
        cascade = evaluator.extract_pbe_prediction(text)
        normalized = None if cascade is None else evaluator.normalize_cascade(
            cascade, self.s_max, self.L_max, self.identity_symbol
        )
        record = evaluator.evaluate_pbe(
            instance, normalized, self.identity_symbol, attempt_index
        )
        return record, normalized is not None

    def fail_rank(self, log: AttemptLog) -> float:
        """The edit similarity, or below every score for a log with no eval."""
        return (log.eval or {}).get("edit_sim", -math.inf)

    def aggregate(self, pairs: Sequence[tuple]) -> evaluator.AggregateMetrics:
        return evaluator.aggregate_pbe([record for _, record in pairs])


@dataclass(frozen=True)
class ReorderTask:
    """Order recovery: put a reorder instance's rules back in order."""

    record = evaluator.ReorderEval
    rank_type = ("extracted", (bool,), "a boolean")

    def instance_id(self, instance: ReorderInstance) -> str:
        return instance.source_id

    def prompt(self, instance: ReorderInstance) -> str:
        return render_reorder_prompt(instance)

    def score(self, instance: ReorderInstance, text: Optional[str], attempt_index: int):
        """The eval of a reply (None for none), and whether it held an order."""
        perm = evaluator.extract_permutation(text, len(instance.scrambled))
        passed = evaluator.evaluate_reorder(instance, perm)
        return evaluator.ReorderEval(passed, perm, attempt_index), perm is not None

    def fail_rank(self, log: AttemptLog) -> bool:
        """Whether an answer was extracted."""
        return log.extracted

    def aggregate(self, pairs: Sequence[tuple]) -> evaluator.AggregateMetrics:
        return evaluator.aggregate_reorder([(inst, e.passed) for inst, e in pairs])


Task = PbeTask | ReorderTask


def solve_with_budget(
    instance,
    config: SolverConfig,
    backend: ChatBackend,
    task: Task,
    sleep: Callable[[float], None] = time.sleep,
) -> tuple[Optional[AttemptLog], list[AttemptLog]]:
    """Run the sampling budget for one instance and pick the best attempt.

    All K attempts are issued unless early_stop ends the loop at the first
    pass. Each response is scored by ``task.score`` and the selection
    rule is ``select_attempt``'s.
    """
    prompt = task.prompt(instance)
    instance_id = task.instance_id(instance)
    phash = prompt_hash(prompt)

    logs: list[AttemptLog] = []
    for k in range(config.sampling_budget):
        try:
            response = chat_send(prompt, config, backend, sleep=sleep)
            text: Optional[str] = response.text
            finish = response.finish_reason
            usage = response.token_usage
        except TransportError:
            text, finish, usage = None, "transport_error", {}
        record, extracted = task.score(instance, text, k)
        logs.append(AttemptLog(
            instance_id=instance_id, attempt_index=k, prompt_hash=phash,
            raw_text=text, finish_reason=finish, token_usage=usage,
            extracted=extracted, eval=record.to_dict(),
        ))
        if record.passed and config.early_stop:
            break

    return select_attempt(logs, task), logs


def select_attempt(logs: Sequence[AttemptLog], task: Task) -> Optional[AttemptLog]:
    """Apply the selection rule to a set of scored attempt logs.

    The passing attempt with the lowest index wins. Without one, the
    attempt that ``task.fail_rank`` ranks highest wins, ties going to the
    lowest index. The result does not depend on the order of ``logs``.
    Every log's ``passed`` and rank are checked: a value of the wrong type
    raises TypeError naming the attempt and the field.
    """
    name, types, what = task.rank_type
    best = best_rank = None
    for log in logs:
        passed = (log.eval or {}).get("passed", False)
        score = task.fail_rank(log)
        if type(passed) is not bool:
            raise TypeError(
                f"attempt {log.attempt_index}: passed {passed!r} is not a boolean"
            )
        if type(score) not in types:
            raise TypeError(
                f"attempt {log.attempt_index}: {name} {score!r} is not {what}"
            )
        # Passing beats failing; then the lowest index among passes, the
        # best score among failures, and the lowest index among equals.
        rank = (passed, 0 if passed else score, -log.attempt_index)
        if best is None or rank > best_rank:
            best, best_rank = log, rank
    return best


def solve_dataset(
    instances: Sequence,
    config: SolverConfig,
    backend: ChatBackend,
    task_kind: Task | str,
    s_max: int = 3,
    L_max: int = 5,
    identity_symbol: str = "a",
    sleep: Callable[[float], None] = time.sleep,
) -> tuple[list[Optional[AttemptLog]], list[AttemptLog]]:
    """Solve every instance of ``task_kind``, a task or "pbe" (a ``PbeTask``
    of the three limits) or "reorder", on max_in_flight worker threads.

    Each worker takes the next instance not yet taken until none is left.
    Results are returned in instance order regardless of completion order.
    Once a worker raises, or the waiting caller is interrupted, no worker
    starts another instance; the first such exception is re-raised after
    the instances already started have finished.
    """
    task = task_kind
    if task_kind == "pbe":
        task = PbeTask(s_max, L_max, identity_symbol)
    elif task_kind == "reorder":
        task = ReorderTask()
    elif isinstance(task_kind, str):
        raise ValueError(f"unknown task kind {task_kind!r}")
    results: list = [None] * len(instances)
    indices = iter(range(len(instances)))
    lock = threading.Lock()
    failures: list[BaseException] = []

    def work() -> None:
        while True:
            with lock:
                i = None if failures else next(indices, None)
            if i is None:
                return
            try:
                results[i] = solve_with_budget(
                    instances[i], config, backend, task, sleep=sleep
                )
            except BaseException as exc:
                with lock:
                    failures.append(exc)
                return

    with ThreadPoolExecutor(max_workers=config.max_in_flight) as pool:
        try:
            workers = [
                pool.submit(work)
                for _ in range(min(config.max_in_flight, len(instances)))
            ]
            for worker in workers:
                worker.result()
        except BaseException as exc:
            with lock:
                failures.append(exc)
    if failures:
        raise failures[0]
    selected = [sel for sel, _ in results]
    all_logs = [log for _, logs in results for log in logs]
    return selected, all_logs


def persist_attempts(logs: Sequence[AttemptLog], path: str) -> None:
    """Append one JSON object per line; existing content is preserved."""
    with open(path, "a", encoding="utf-8") as fh:
        for log in logs:
            fh.write(json.dumps(log.to_dict()) + "\n")


def load_attempts(path: str) -> list[AttemptLog]:
    logs: list[AttemptLog] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                logs.append(AttemptLog.from_dict(FINITE_JSON.decode(line)))
            except (ValueError, TypeError) as exc:
                raise ValueError(f"corrupt attempt log at line {lineno}: {exc}")
    return logs
