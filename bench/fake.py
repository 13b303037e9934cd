"""A zero-latency chat backend whose replies depend only on the prompt and
the attempt index.

``rewritebench.gateway.MockChatBackend`` deals replies from one cursor
shared by every worker thread, so which instance gets which reply changes
from run to run when ``max_in_flight`` > 1. This fake instead looks the
prompt up in a table built at set-up and picks the reply from a fixed
16-slot plan indexed by ``(position + 5 * attempt) % 16``. Positions are
instance indices in dataset order; with instance counts that are multiples
of 16, each slot is used by exactly 1/16 of a round's attempts.

The attempt index is the number of earlier attempts on the same prompt. A
send that follows a backoff sleep requested through :meth:`sleep` (the
``sleep`` hook ``gateway.solve_dataset`` takes) is a retry of the current
attempt, not a new one. Sleeps are recorded, never slept.
"""

from __future__ import annotations

import json
import threading
from typing import Optional

from rewritebench.gateway import BackendResult

SLOTS = 16

# Per-slot plan: (reply kind, status of the first send or None for a plain
# 200). Replies after a 503/429 are retries and carry the same reply kind.
PBE_PLAN = (
    ("true",) * 6
    + ("reordered",) * 3
    + ("overlong",) * 2
    + ("refusal",) * 2
    + ("true_after_503",) * 2
    + ("true_after_429",)
)
REORDER_PLAN = (
    ("gt",) * 7
    + ("identity",) * 3
    + ("nonperm",) * 2
    + ("refusal",)
    + ("gt_after_503",) * 2
    + ("gt_after_429",)
)
assert len(PBE_PLAN) == len(REORDER_PLAN) == SLOTS

REFUSAL = "I cannot determine a program sequence for these examples."
RETRY_AFTER_S = 1


def _ok(text: str) -> BackendResult:
    return BackendResult(
        status_code=200,
        payload={
            "choices": [
                {"message": {"role": "assistant", "content": text}, "finish_reason": "stop"}
            ],
            "usage": {"total_tokens": max(1, len(text) // 4)},
        },
    )


_UNAVAILABLE = BackendResult(503, {"error": {"message": "service unavailable"}})
# BackendResult carries no headers, so Retry-After travels in the payload.
_RATE_LIMITED = BackendResult(
    429,
    {"error": {"message": "rate limit exceeded", "type": "rate_limit"},
     "retry_after": RETRY_AFTER_S},
)


def pbe_text(rules) -> str:
    listing = json.dumps([f"replace('{s}', '{t}')" for s, t in rules])
    return f"Here is the program sequence:\n\n```python\n{listing}\n```\n"


def order_text(order) -> str:
    return f"The ordering is:\n\n```json\n{json.dumps(list(order))}\n```\n"


class FakeChatBackend:
    """Serves PBE or reorder replies for the prompts in ``table``.

    ``table`` maps prompt text to ``(instance id, position, truth)``, where
    truth is the rule list for PBE and ``(gt_order, m)`` for reorder.
    ``served`` records, per (instance id, attempt index) whose reply
    succeeded, the structured answer that reply carried.
    """

    def __init__(self, kind: str, table: dict, s_max: int):
        self.kind = kind
        self.table = table
        self.s_max = s_max
        self.plan = PBE_PLAN if kind == "pbe" else REORDER_PLAN
        self.served: dict = {}
        self.rate_limited: set = set()
        self.sleeps: list[float] = []
        self._attempts: dict[str, int] = {}
        self._local = threading.local()
        self._lock = threading.Lock()

    def sleep(self, seconds: float) -> None:
        with self._lock:
            self.sleeps.append(seconds)
        self._local.retry = True

    def send(self, config, body: dict) -> BackendResult:
        prompt = body["messages"][0]["content"]
        iid, position, truth = self.table[prompt]
        retry = getattr(self._local, "retry", False)
        self._local.retry = False
        if retry:
            k = self._attempts[prompt] - 1
        else:
            k = self._attempts.get(prompt, 0)
            self._attempts[prompt] = k + 1
        kind = self.plan[(position + 5 * k) % SLOTS]
        if not retry and kind.endswith("_after_503"):
            return _UNAVAILABLE
        if not retry and kind.endswith("_after_429"):
            self.rate_limited.add((iid, k))
            return _RATE_LIMITED
        answer, text = self._answer(kind.split("_after_")[0], truth)
        self.served[(iid, k)] = answer
        return _ok(text)

    def _answer(self, kind: str, truth) -> tuple[Optional[object], str]:
        if kind == "refusal":
            return None, REFUSAL
        if self.kind == "pbe":
            rules = list(truth)
            if kind == "reordered":
                rules.reverse()
            elif kind == "overlong":
                source, target = rules[0]
                rules[0] = (source, (target + source * (self.s_max + 1))[: self.s_max + 1])
            return rules, pbe_text(rules)
        gt_order, m = truth
        order = {
            "gt": list(gt_order),
            "identity": list(range(m)),
            "nonperm": [0] * m,
        }[kind]
        return order, order_text(order)
