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
import re
import threading
import time
from dataclasses import dataclass, field, fields
from typing import Callable, Iterator, Optional, Protocol, Sequence

from . import evaluator
from .core import FINITE_JSON, check_types
from .core import TransportError  # re-exported; see core
from .permuter import ReorderInstance
from .proposer import PbeInstance


class TransientBackendError(RuntimeError):
    """Retryable failure to exchange a request and its whole reply: a
    refused or reset connection, a timeout or a reply cut short."""


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


# Each template's text around its fields, split once so that a render is
# one join; the fields come in the order the render fills them, and the
# templates hold no other braces.
_PBE_TEXT = tuple(re.split(r"\{\w+\}", PBE_PROMPT_TEMPLATE))
_REORDER_TEXT = tuple(re.split(r"\{\w+\}", REORDER_PROMPT_TEMPLATE))


def _string_list(items: Sequence[str]) -> str:
    return json.dumps(list(items))


def render_pbe_prompt(instance: PbeInstance, s_max: int, L_max: int) -> str:
    if s_max < 1 or L_max < 1:
        raise ValueError("s_max and L_max must be at least 1")
    before_length, before_num, before_inputs, before_outputs, tail = _PBE_TEXT
    return "".join((
        before_length, str(s_max), before_num, str(L_max),
        before_inputs, _string_list(instance.inputs),
        before_outputs, _string_list(instance.outputs), tail,
    ))


def render_reorder_prompt(instance: ReorderInstance) -> str:
    programs = "\n".join(
        f"{idx}: {rule.render()}" for idx, rule in enumerate(instance.scrambled)
    )
    last = str(len(instance.scrambled) - 1)
    # Fields in template order: inputs, outputs, n_minus_1,
    # programs_formatted, then n_minus_1 twice more.
    (before_inputs, before_outputs, before_last, before_programs,
     before_last_2, before_last_3, tail) = _REORDER_TEXT
    return "".join((
        before_inputs, _string_list(instance.inputs),
        before_outputs, _string_list(instance.outputs),
        before_last, last, before_programs, programs,
        before_last_2, last, before_last_3, last, tail,
    ))


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
        if self.max_tokens < 1:
            raise ValueError("max_tokens must be at least 1")
        if self.timeout_ms < 1:
            raise ValueError("timeout_ms must be at least 1")
        if self.retry_count < 0:
            raise ValueError("retry_count must be non-negative")

    def to_dict(self) -> dict:
        return dict(vars(self))

    @classmethod
    def from_dict(cls, data: dict) -> "SolverConfig":
        check_types(cls, data)
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
        import http.client
        import urllib.error
        import urllib.parse
        import urllib.request

        url = config.endpoint_url
        invalid = f"endpoint URL {url!r} is not a valid http or https URL"
        parts = urllib.parse.urlsplit(url)
        try:
            # Reading the port raises ValueError unless it is a number in
            # 0..65535; http.client would send to a larger one modulo 65536.
            valid = (parts.scheme in ("http", "https") and parts.hostname
                     and parts.port != 0)
        except ValueError:
            valid = False
        if not valid:
            raise ValueError(invalid)
        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(config.api_key_env)
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        request = urllib.request.Request(
            url, data=json.dumps(body, allow_nan=False).encode("utf-8"),
            headers=headers, method="POST",
        )
        # A redirect is not followed, so the credential goes to no other
        # URL: a 30x arrives as an HTTPError like any status other than
        # 2xx, and the HTTPError is also the response. A failure to connect
        # or to read the whole reply (refused, reset, timed out, cut short)
        # is retryable.
        class RefuseRedirects(urllib.request.HTTPRedirectHandler):
            def redirect_request(self, *args, **kwargs):
                return None

        opener = urllib.request.build_opener(RefuseRedirects)
        try:
            try:
                resp = opener.open(request, timeout=config.timeout_ms / 1000.0)
            except urllib.error.HTTPError as exc:
                resp = exc
            with resp:
                raw = resp.read()
        except http.client.InvalidURL as exc:  # raised before anything is sent
            raise ValueError(f"{invalid}: {exc}") from exc
        except (OSError, http.client.HTTPException) as exc:
            raise TransientBackendError(str(exc)) from exc
        # A body that is not finite JSON is no JSON: a NaN or an infinity
        # in it would reach the attempt log, which then does not load.
        try:
            payload = FINITE_JSON.decode(
                raw.decode(json.detect_encoding(raw), "surrogatepass")
            )
        except ValueError:
            payload = {}
        return BackendResult(
            status_code=resp.status,
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

    Transient failures (a ``TransientBackendError``, 5xx statuses and 429
    rate limits) are retried up to retry_count times; after a 429 the wait
    is at least its ``retry_after``. Auth failures, other statuses and
    malformed envelopes are fatal.
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
            finish = choice.get("finish_reason")
            reply = {
                "text": "" if content is None else content,
                "finish_reason": "" if finish is None else finish,
                "token_usage": result.payload.get("usage") or {},
            }
            # An attempt log holds these, and its loader takes no other types.
            check_types(ChatResponse, reply)
        except (KeyError, IndexError, TypeError) as exc:
            raise TransportError(f"malformed response envelope: {exc!r}")
        return ChatResponse(**reply, retries_used=attempt)
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
        """The log a ``to_dict`` record holds; TypeError on a mistyped field,
        ValueError on a negative ``attempt_index``."""
        check_types(cls, data)
        index = data.get("attempt_index", 0)
        if index < 0:
            raise ValueError(f"attempt_index {index!r} is below 0")
        return cls(**data)


def prompt_hash(prompt: str) -> str:
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class PbeTask:
    """Cascade induction under a PBE dataset's limits. ``record`` types an
    attempt log's eval."""

    s_max: int = 3
    L_max: int = 5
    identity_symbol: str = "a"
    record = evaluator.EvalRecord

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
        """The edit similarity, or below every score for a log with no eval;
        TypeError when it is not a number."""
        score = (log.eval or {}).get("edit_sim", -math.inf)
        if type(score) not in (int, float):
            raise TypeError(
                f"attempt {log.attempt_index}: edit_sim {score!r} is not a number"
            )
        return score

    def aggregate(self, pairs: Sequence[tuple]) -> evaluator.AggregateMetrics:
        return evaluator.aggregate_pbe([record for _, record in pairs])


@dataclass(frozen=True)
class ReorderTask:
    """Order recovery: put a reorder instance's rules back in order."""

    record = evaluator.ReorderEval

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
    rule is ``select_attempt``'s. A score depends only on the instance and
    the text, so a text seen before (None for a transport error) reuses
    its first score, with its own ``attempt_index``.
    """
    prompt = task.prompt(instance)
    instance_id = task.instance_id(instance)
    phash = prompt_hash(prompt)

    scores: dict[Optional[str], tuple] = {}
    logs: list[AttemptLog] = []
    for k in range(config.sampling_budget):
        try:
            response = chat_send(prompt, config, backend, sleep=sleep)
            text: Optional[str] = response.text
            finish = response.finish_reason
            usage = response.token_usage
        except TransportError:
            text, finish, usage = None, "transport_error", {}
        if text not in scores:
            scores[text] = task.score(instance, text, k)
        record, extracted = scores[text]
        # to_dict gives each log fresh mutable values; only the index differs.
        evaluation = record.to_dict()
        evaluation["attempt_index"] = k
        logs.append(AttemptLog(
            instance_id=instance_id, attempt_index=k, prompt_hash=phash,
            raw_text=text, finish_reason=finish, token_usage=usage,
            extracted=extracted, eval=evaluation,
        ))
        if record.passed and config.early_stop:
            break

    return select_attempt(logs, task), logs


def select_attempt(logs: Sequence[AttemptLog], task: Task) -> Optional[AttemptLog]:
    """Apply the selection rule to a set of scored attempt logs.

    The passing attempt with the lowest index wins. Without one, the
    attempt that ``task.fail_rank`` ranks highest wins, ties going to the
    lowest index. The result does not depend on the order of ``logs``.
    Every log is ranked by ``attempt_rank``, in order, so the first log
    of a wrong type raises its TypeError; the first of the highest rank
    wins.
    """
    return max(logs, key=lambda log: attempt_rank(log, task), default=None)


def attempt_rank(log: AttemptLog, task: Task) -> tuple:
    """The key that the selection rule maximizes over an instance's logs.

    Passing beats failing; then the lowest index among passes, the best
    ``task.fail_rank`` among failures, and the lowest index among equals.
    A ``passed`` of the wrong type raises TypeError naming the attempt and
    the field, as ``PbeTask.fail_rank`` does for an ``edit_sim`` that is not
    a number.
    """
    passed = (log.eval or {}).get("passed", False)
    if type(passed) is not bool:
        raise TypeError(
            f"attempt {log.attempt_index}: passed {passed!r} is not a boolean"
        )
    score = task.fail_rank(log)
    return (passed, 0 if passed else score, -log.attempt_index)


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

    started: list[threading.Thread] = []
    try:
        for _ in range(min(config.max_in_flight, len(instances))):
            worker = threading.Thread(target=work)
            worker.start()
            started.append(worker)
        for worker in started:
            worker.join()
    except BaseException as exc:
        with lock:
            failures.append(exc)
        for worker in started:
            worker.join()
    if failures:
        raise failures[0]
    selected = [sel for sel, _ in results]
    all_logs = [log for _, logs in results for log in logs]
    return selected, all_logs


def persist_attempts(logs: Sequence[AttemptLog], path: str) -> None:
    """Append one JSON object per line; existing content is preserved."""
    encode = json.JSONEncoder().encode
    with open(path, "a", encoding="utf-8") as fh:
        for log in logs:
            fh.write(encode(vars(log)) + "\n")


def iter_attempts(path: str) -> Iterator[AttemptLog]:
    """The logs of an attempt log file, one line read at a time, blank
    lines skipped. A line that is not a JSON object of ``AttemptLog``'s
    fields and types raises ValueError, ``corrupt attempt log at line N``,
    when it is reached."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                log = AttemptLog.from_dict(FINITE_JSON.decode(line))
            except (ValueError, TypeError) as exc:
                raise ValueError(f"corrupt attempt log at line {lineno}: {exc}")
            yield log


def load_attempts(path: str) -> list[AttemptLog]:
    """Every log of an attempt log file, in file order. Replay does not
    call this: it streams ``iter_attempts`` and keeps one log per
    instance."""
    return list(iter_attempts(path))
