"""Construction of the program-reordering task.

A reorder instance is a cascade scrambled by one transposition of a
feeding- or bleeding-related rule pair, chosen so that the scrambled
order no longer reproduces the outputs. Recovering the original order
is then a non-trivial puzzle, and an exact count of the orders that
reproduce the outputs decides whether the solution is unique.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from .core import (
    Cascade,
    EmptySourceError,
    check_types,
    decode_rules,
    encode_rules,
    read_json,
    write_json,
)
from .proposer import Dataset, PbeInstance
from .relations import _fresh_symbol


class CapacityError(ValueError):
    """Raised when the number of orders to count would exceed the cap."""


@dataclass(frozen=True, slots=True)
class ReorderInstance:
    """A scrambled cascade together with the original I/O pair.

    ``gt_order`` lists indices into ``scrambled`` in the order they must be
    applied to reproduce ``outputs``. ``n_valid_orders`` is None when m!, the
    number of orders of its m rules, exceeds the cap.
    """

    source_id: str = field(metadata={"key": "id"})
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    scrambled: Cascade = field(metadata={"key": "scrambled_programs"})
    gt_order: tuple[int, ...]
    n_valid_orders: Optional[int] = None
    is_unique: bool = False

    def reordered(self, order: tuple[int, ...]) -> Cascade:
        return tuple(self.scrambled[i] for i in order)

    def to_dict(self) -> dict:
        return {
            "id": self.source_id,
            "inputs": list(self.inputs),
            "outputs": list(self.outputs),
            "scrambled_programs": encode_rules(self.scrambled),
            "gt_order": list(self.gt_order),
            "n_valid_orders": self.n_valid_orders,
            "is_unique": self.is_unique,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ReorderInstance":
        check_types(cls, data)
        if data["is_unique"] != (data["n_valid_orders"] == 1):
            raise ValueError(
                f"is_unique {data['is_unique']!r} disagrees with "
                f"n_valid_orders {data['n_valid_orders']!r}"
            )
        return cls(
            source_id=data["id"],
            inputs=tuple(data["inputs"]),
            outputs=tuple(data["outputs"]),
            scrambled=decode_rules(data["scrambled_programs"]),
            gt_order=tuple(data["gt_order"]),
            n_valid_orders=data["n_valid_orders"],
            is_unique=data["is_unique"],
        )


def _joined(instance, rules: Cascade) -> tuple[str, str]:
    """The inputs and the outputs of ``instance``, each string followed by
    a separator that occurs in no input, output, find pattern or
    replacement of ``rules``.

    No find pattern can then match across a separator, and replacements
    never make one, so one ``str.replace`` on the joined inputs gives
    exactly the joined result of ``apply_rule_vec``, and two joined
    vectors are equal exactly when the vectors are."""
    sep = _fresh_symbol("".join((
        *instance.inputs, *instance.outputs,
        *[rule.source + rule.target for rule in rules],
    )))
    return sep.join((*instance.inputs, "")), sep.join((*instance.outputs, ""))


def fb_swap(instance: PbeInstance) -> Optional[ReorderInstance]:
    """Scramble a cascade by its first output-changing FB transposition.

    FB edges are visited in stored order (row-major over ordered pairs) with
    unordered duplicates skipped, so the result is deterministic. Returns
    None when no edge exists or no single transposition changes the outputs.
    A rule with an empty find pattern raises ``EmptySourceError`` once an
    edge exists. Each transposed cascade runs on the joined inputs of
    ``_joined``.
    """
    if not instance.fb_edges:
        return None
    rules = instance.cascade
    if any(not rule.source for rule in rules):
        raise EmptySourceError("cannot apply a rule with an empty find pattern")
    inputs, outputs = _joined(instance, rules)
    seen_pairs: set[tuple[int, int]] = set()
    for edge in instance.fb_edges:
        a, b = min(edge.i, edge.j), max(edge.i, edge.j)
        if (a, b) in seen_pairs:
            continue
        seen_pairs.add((a, b))
        swapped = list(rules)
        swapped[a], swapped[b] = swapped[b], swapped[a]
        text = inputs
        for rule in swapped:
            text = text.replace(rule.source, rule.target)
        if text == outputs:
            continue
        order = list(range(len(rules)))
        order[a], order[b] = order[b], order[a]
        return ReorderInstance(
            source_id=instance.id,
            inputs=instance.inputs,
            outputs=instance.outputs,
            scrambled=tuple(swapped),
            gt_order=tuple(order),
        )
    return None


def count_valid_orders(instance: ReorderInstance, cap: int = 40320) -> int:
    """Number of permutations of the scrambled rules reproducing the outputs.

    Exact, and |scrambled|! must not exceed ``cap``. Counts over subsets
    rather than permutations: the state is (rules not yet applied, current
    vector), and one sweep per rule but the last carries the number of
    orders reaching each state to the states one rule on, so orders with a
    common prefix, or prefixes that reach the same vector with the same
    rules left, are worked out once. Each state's last rule is applied and
    its result compared with the outputs in place. Always at least 1
    because gt_order is valid by construction. A rule with an empty find
    pattern raises ``EmptySourceError``, but only once m! fits under
    ``cap``. The vector is held as one string, joined by ``_joined``.
    """
    rules = instance.scrambled
    m = len(rules)
    if math.factorial(m) > cap:
        raise CapacityError(
            f"{m}! = {math.factorial(m)} permutations exceed cap {cap}"
        )
    if any(not rule.source for rule in rules):
        raise EmptySourceError("cannot apply a rule with an empty find pattern")
    inputs, outputs = _joined(instance, rules)
    if not m:
        return int(inputs == outputs)
    steps = [(1 << i, rule.source, rule.target) for i, rule in enumerate(rules)]
    # ``left`` has bit i set while rule i is still to be applied.
    states = {((1 << m) - 1, inputs): 1}
    for _ in range(m - 1):
        reached: dict[tuple[int, str], int] = {}
        for (left, text), count in states.items():
            for bit, source, target in steps:
                if left & bit:
                    key = (left ^ bit, text.replace(source, target))
                    reached[key] = reached.get(key, 0) + count
        states = reached
    # Each state now has one rule left: the one of bit ``left``.
    last = {bit: (source, target) for bit, source, target in steps}
    return sum(
        count for (left, text), count in states.items()
        if text.replace(*last[left]) == outputs
    )


def build_perm_dataset(
    dataset: Dataset, order_count_cap: int = 40320
) -> list[ReorderInstance]:
    """fb_swap every instance, keep the successes, and annotate uniqueness
    whenever the order count fits under the cap."""
    if order_count_cap < 1:
        raise ValueError("order_count_cap must be at least 1")
    out: list[ReorderInstance] = []
    for inst in dataset.instances:
        reorder = fb_swap(inst)
        if reorder is None:
            continue
        try:
            n = count_valid_orders(reorder, cap=order_count_cap)
        except CapacityError:
            pass  # too many orders to count: uniqueness stays unknown
        else:
            reorder = ReorderInstance(
                reorder.source_id, reorder.inputs, reorder.outputs,
                reorder.scrambled, reorder.gt_order, n, n == 1,
            )
        out.append(reorder)
    return out


def save_perm_dataset(instances: list[ReorderInstance], path: str) -> None:
    write_json({"instances": [r.to_dict() for r in instances]}, path)


def load_perm_dataset(path: str) -> list[ReorderInstance]:
    return [ReorderInstance.from_dict(d) for d in read_json(path)["instances"]]
