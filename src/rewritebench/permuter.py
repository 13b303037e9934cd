"""Construction of the program-reordering task.

A reorder instance is a cascade scrambled by one transposition of a
feeding- or bleeding-related rule pair, chosen so that the scrambled
order no longer reproduces the outputs. Recovering the original order
is then a non-trivial puzzle, and an exact count of the orders that
reproduce the outputs decides whether the solution is unique.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

from .core import (
    Cascade,
    EmptySourceError,
    apply_cascade,
    decode_rules,
    encode_rules,
    read_json,
    write_json,
)
from .proposer import Dataset, PbeInstance
from .relations import _fresh_symbol


class CapacityError(ValueError):
    """Raised when the number of orders to count would exceed the cap."""


@dataclass(frozen=True)
class ReorderInstance:
    """A scrambled cascade together with the original I/O pair.

    ``gt_order`` lists indices into ``scrambled`` in the order they must be
    applied to reproduce ``outputs``. ``n_valid_orders`` is None when m!, the
    number of orders of its m rules, exceeds the cap.
    """

    source_id: str
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    scrambled: Cascade
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
        return cls(
            source_id=data["id"],
            inputs=tuple(data["inputs"]),
            outputs=tuple(data["outputs"]),
            scrambled=decode_rules(data["scrambled_programs"]),
            gt_order=tuple(data["gt_order"]),
            n_valid_orders=data["n_valid_orders"],
            is_unique=data["is_unique"],
        )


def fb_swap(instance: PbeInstance) -> Optional[ReorderInstance]:
    """Scramble a cascade by its first output-changing FB transposition.

    FB edges are visited in stored order (row-major over ordered pairs) with
    unordered duplicates skipped, so the result is deterministic. Returns
    None when no edge exists or no single transposition changes the outputs.
    """
    seen_pairs: set[frozenset[int]] = set()
    rules = list(instance.cascade)
    for edge in instance.fb_edges:
        pair = frozenset((edge.i, edge.j))
        if pair in seen_pairs:
            continue
        seen_pairs.add(pair)
        a, b = min(edge.i, edge.j), max(edge.i, edge.j)
        swapped = list(rules)
        swapped[a], swapped[b] = swapped[b], swapped[a]
        if tuple(apply_cascade(swapped, instance.inputs)) == instance.outputs:
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
    vector), and every order through a state shares its completions, so
    orders with a common prefix, or prefixes that reach the same vector with
    the same rules left, are worked out once. Always at least 1 because
    gt_order is valid by construction. A rule with an empty find pattern
    raises ``EmptySourceError``, but only once m! fits under ``cap``.

    The vector is held as one string: its strings, each followed by a
    separator that occurs in no string and no rule. No find pattern can
    then match across a separator, and replacements never make one, so one
    ``str.replace`` on the joined string gives exactly the joined result of
    ``apply_rule_vec``.
    """
    rules = instance.scrambled
    m = len(rules)
    if math.factorial(m) > cap:
        raise CapacityError(
            f"{m}! = {math.factorial(m)} permutations exceed cap {cap}"
        )
    if any(not rule.source for rule in rules):
        raise EmptySourceError("cannot apply a rule with an empty find pattern")
    used = set("".join((
        *instance.inputs, *instance.outputs,
        *(rule.source + rule.target for rule in rules),
    )))
    sep = _fresh_symbol(used)
    outputs = "".join(s + sep for s in instance.outputs)
    steps = [(1 << i, rule.source, rule.target) for i, rule in enumerate(rules)]
    memo: dict[tuple[int, str], int] = {}

    def completions(left: int, text: str) -> int:
        # ``left`` has bit i set while rule i is still to be applied.
        if not left:
            return 1 if text == outputs else 0
        key = (left, text)
        count = memo.get(key)
        if count is None:
            count = 0
            for bit, source, target in steps:
                if left & bit:
                    count += completions(left ^ bit, text.replace(source, target))
            memo[key] = count
        return count

    return completions((1 << m) - 1, "".join(s + sep for s in instance.inputs))


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
            reorder = replace(reorder, n_valid_orders=n, is_unique=(n == 1))
        except CapacityError:
            pass  # too many orders to count: uniqueness stays unknown
        out.append(reorder)
    return out


def save_perm_dataset(instances: list[ReorderInstance], path: str) -> None:
    write_json({"instances": [r.to_dict() for r in instances]}, path)


def load_perm_dataset(path: str) -> list[ReorderInstance]:
    return [ReorderInstance.from_dict(d) for d in read_json(path)["instances"]]
