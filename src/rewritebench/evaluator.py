"""Extraction, normalization, and scoring of solver responses.

Responses arrive as free-form text. PBE predictions are pulled out of
fenced code blocks as lists of ``replace(...)`` strings, normalized
against the structural constraints (length caps, identity substitution
for invalid rules), executed, and scored; reordering predictions are
JSON index arrays. Aggregation produces the dataset-level metrics plus
diagnostic breakdowns.
"""

from __future__ import annotations

import ast
import json
import math
import re
from dataclasses import dataclass, field
from functools import lru_cache
from math import comb
from typing import Optional, Sequence

from .core import (
    Cascade,
    RewriteRule,
    apply_cascade,
    check_types,
    levenshtein_vec,
)
from .permuter import ReorderInstance
from .proposer import PbeInstance
from .relations import ALL_CATEGORIES, category_of

INVALID_CATEGORY = "INVALID"
# What an ``EvalRecord`` may hold as its ``pred_category``.
_PRED_CATEGORIES = frozenset((*ALL_CATEGORIES, INVALID_CATEGORY))
# The range (low, high) of each numeric field a stored eval may hold.
# ``edit_sim`` has no low end: a prediction farther from the outputs than
# the inputs scores below 0.
_EVAL_RANGES = {
    "edit_sim": (-math.inf, 1),
    "valid_rate_contrib": (0, 1),
    "complexity": (0, math.inf),
    "attempt_index": (0, math.inf),
    "pred_length": (0, math.inf),
}
_REORDER_EVAL_RANGES = {"attempt_index": (0, math.inf)}


def _check_ranges(data: dict, ranges: dict) -> None:
    """ValueError naming the first field of ``ranges`` whose value in
    ``data`` lies outside its range. A missing key is left to the record
    type to reject."""
    for name, (low, high) in ranges.items():
        value = data.get(name)
        if value is None:
            continue
        if value < low:
            raise ValueError(f"{name} {value!r} is below {low}")
        if value > high:
            raise ValueError(f"{name} {value!r} is above {high}")


# A fenced block: opening fence with optional language tag, body, closing
# fence. Non-greedy so consecutive blocks split correctly.
_FENCE_RE = re.compile(r"```[^\n]*\n(.*?)```", re.DOTALL)

_QUOTED = r"""(?:'(?:\\.|[^'\\])*'|"(?:\\.|[^"\\])*")"""
_RULE_RE = re.compile(
    rf"^\s*replace\s*\(\s*({_QUOTED})\s*,\s*({_QUOTED})\s*\)\s*$"
)
# A bracketed literal with no nested brackets; candidates are then parsed
# properly as Python literals.
_LIST_RE = re.compile(r"\[[^\[\]]*\]", re.DOTALL)

# A plain string literal: a quoted body without backslash, NUL, LF, CR or a
# lone surrogate is its own value, ast.literal_eval(q + body + q) == body for
# either quote q. Other literals (escapes, prefixes, concatenation, comments)
# go through ast.literal_eval.
_SINGLE_BODY = r"[^'\\\x00\n\r\ud800-\udfff]*"
_DOUBLE_BODY = r'[^"\\\x00\n\r\ud800-\udfff]*'
_PLAIN = rf"""(?:'{_SINGLE_BODY}'|"{_DOUBLE_BODY}")"""
_PLAIN_RE = re.compile(_PLAIN)
# Each literal is followed by a comma or by the closing bracket.
_PLAIN_LIST_RE = re.compile(rf"\[[ \t\n]*(?:{_PLAIN}[ \t\n]*(?:,[ \t\n]*|(?=\])))*\]")
# A rule string that _RULE_RE matches with two plain literals, capturing the
# body of each: group 1 or 2 the find pattern, 3 or 4 the replacement, by
# quote kind. _RULE_RE then finds the same two tokens and _literal returns
# these bodies, so reading them directly gives the same rule.
_PLAIN_ARG = rf"""(?:'({_SINGLE_BODY})'|"({_DOUBLE_BODY})")"""
_PLAIN_RULE_RE = re.compile(rf"\s*replace\s*\(\s*{_PLAIN_ARG}\s*,\s*{_PLAIN_ARG}\s*\)\s*")
# What ast.literal_eval raises on input it cannot read, deeply nested input
# included.
_LITERAL_ERRORS = (ValueError, TypeError, SyntaxError, MemoryError, RecursionError)


def _literal(token: str):
    """``ast.literal_eval(token)``, read directly when it is a plain string
    literal."""
    if _PLAIN_RE.fullmatch(token):
        return token[1:-1]
    return ast.literal_eval(token)


def _list_literal(candidate: str):
    """``ast.literal_eval(candidate)``, read directly when it is a list of
    plain string literals."""
    if _PLAIN_LIST_RE.fullmatch(candidate):
        return [token[1:-1] for token in _PLAIN_RE.findall(candidate)]
    return ast.literal_eval(candidate)


def parse_rule_string(text: str) -> Optional[RewriteRule]:
    """Parse one ``replace('A', 'B')`` string; None if malformed."""
    m = _PLAIN_RULE_RE.fullmatch(text)
    if m is not None:
        single_source, double_source, single_target, double_target = m.groups()
        return RewriteRule(
            double_source if single_source is None else single_source,
            double_target if single_target is None else single_target,
        )
    m = _RULE_RE.match(text)
    if not m:
        return None
    try:
        source = _literal(m.group(1))
        target = _literal(m.group(2))
    except _LITERAL_ERRORS:
        return None
    if not isinstance(source, str) or not isinstance(target, str):
        return None
    return RewriteRule(source, target)


def _cascade_from_block(body: str) -> Optional[Cascade]:
    """The last list literal in the block whose every element is a quoted
    replace-call string; None if the block has no such list."""
    result: Optional[Cascade] = None
    for candidate in _LIST_RE.findall(body):
        try:
            items = _list_literal(candidate)
        except _LITERAL_ERRORS:
            continue
        if not isinstance(items, list):
            continue
        if not all(isinstance(x, str) for x in items):
            continue
        rules = [parse_rule_string(x) for x in items]
        if any(r is None for r in rules):
            continue
        result = tuple(rules)
    return result


def extract_pbe_prediction(text: str) -> Optional[Cascade]:
    """The cascade of the last parseable fenced block; None if none is.

    A block is parseable iff it contains a list of quoted strings each of
    the shape replace('A','B') or replace("A","B"); the last such list in
    the block wins. An empty list is a parseable, empty cascade.
    """
    last: Optional[Cascade] = None
    for m in _FENCE_RE.finditer(text or ""):
        cascade = _cascade_from_block(m.group(1))
        if cascade is not None:
            last = cascade
    return last


@dataclass(frozen=True)
class NormalizedCascade:
    """The cascade actually executed after constraint enforcement."""

    rules: Cascade
    per_rule_valid: tuple[bool, ...]

    @property
    def valid_fraction(self) -> float:
        if not self.per_rule_valid:
            return 0.0
        return sum(self.per_rule_valid) / len(self.per_rule_valid)


def normalize_cascade(
    raw: Cascade, s_max: int, L_max: int, identity_symbol: str
) -> NormalizedCascade:
    """Truncate to L_max rules and swap invalid rules for the identity.

    A rule is valid iff its find pattern is non-empty and both sides are at
    most s_max long. Validity is recorded for every raw rule, including the
    truncated tail, so the adherence rate reflects what was produced.
    """
    if s_max < 1 or L_max < 1:
        raise ValueError("s_max and L_max must be at least 1")
    if len(identity_symbol) != 1:
        raise ValueError("identity_symbol must be a single character")
    valid = tuple(
        1 <= len(r.source) <= s_max and len(r.target) <= s_max for r in raw
    )
    if len(raw) <= L_max and all(valid):
        return NormalizedCascade(rules=tuple(raw), per_rule_valid=valid)
    identity = RewriteRule(identity_symbol, identity_symbol)
    executed = tuple(
        r if ok else identity for r, ok in zip(raw[:L_max], valid[:L_max])
    )
    return NormalizedCascade(rules=executed, per_rule_valid=valid)


@dataclass(frozen=True)
class EvalRecord:
    """Per-instance scoring outcome for one attempt."""

    instance_id: str
    passed: bool
    edit_sim: float
    valid_rate_contrib: float
    complexity: int
    attempt_index: int
    pred_length: int
    pred_category: str
    degenerate_denominator: bool

    def to_dict(self) -> dict:
        return dict(vars(self))

    @classmethod
    def from_dict(cls, data: dict) -> "EvalRecord":
        """The record a ``to_dict`` dict holds; TypeError on a mistyped
        field, ValueError on a number outside its range (``_EVAL_RANGES``)
        or a ``pred_category`` that is neither a category string nor
        INVALID."""
        check_types(cls, data)
        _check_ranges(data, _EVAL_RANGES)
        # A missing key is left to ``cls`` to reject.
        category = data.get("pred_category", INVALID_CATEGORY)
        if category not in _PRED_CATEGORIES:
            raise ValueError(
                f"pred_category {category!r} is not a category string "
                f"or {INVALID_CATEGORY!r}"
            )
        return cls(**data)


@lru_cache
def _baseline_distance(inputs: tuple[str, ...], outputs: tuple[str, ...]) -> int:
    """The do-nothing prediction's distance, the same for every failing
    reply to an instance. ``levenshtein_vec`` is looked up at call time."""
    return levenshtein_vec(inputs, outputs)


def evaluate_pbe(
    instance: PbeInstance,
    prediction: Optional[NormalizedCascade],
    identity_symbol: str = "a",
    attempt_index: int = 0,
) -> EvalRecord:
    """Execute one normalized prediction and score it.

    A null prediction executes as a single identity program, so its outputs
    equal the inputs and edit similarity lands exactly on the
    do-nothing baseline of 0. A prediction that leaves the inputs unchanged
    scores ``edit_sim`` 0 without a distance computation, since
    1 - d/d is exactly 0.0.
    """
    if prediction is None:
        executed: Cascade = (RewriteRule(identity_symbol, identity_symbol),)
        valid_contrib = 0.0
        pred_length = 0
        pred_category = INVALID_CATEGORY
    else:
        executed = prediction.rules
        valid_contrib = prediction.valid_fraction
        pred_length = len(executed)
        pred_category = category_of(executed)

    pred_outputs = tuple(apply_cascade(executed, instance.inputs))
    passed = pred_outputs == instance.outputs
    # The inputs are at distance 0 from the outputs exactly when they equal
    # them, and a passing attempt scores 1.0 whatever the distances are.
    degenerate = instance.inputs == instance.outputs
    if passed:
        edit_sim = 1.0
    elif degenerate or pred_outputs == instance.inputs:
        edit_sim = 0.0
    else:
        edit_sim = 1.0 - levenshtein_vec(
            pred_outputs, instance.outputs
        ) / _baseline_distance(instance.inputs, instance.outputs)
    return EvalRecord(
        instance_id=instance.id,
        passed=passed,
        edit_sim=edit_sim,
        valid_rate_contrib=valid_contrib,
        complexity=sum(len(r.source) + len(r.target) for r in executed),
        attempt_index=attempt_index,
        pred_length=pred_length,
        pred_category=pred_category,
        degenerate_denominator=degenerate,
    )


@dataclass
class AggregateMetrics:
    pass_at_1: Optional[float] = None
    edit_sim: Optional[float] = None
    valid_rate: Optional[float] = None
    complexity: Optional[float] = None
    acc: Optional[float] = None
    uacc: Optional[float] = None
    count: int = 0
    unique_count: int = 0

    def to_dict(self) -> dict:
        return dict(vars(self))


def aggregate_pbe(records: Sequence[EvalRecord]) -> AggregateMetrics:
    """Instance means of the per-record terms."""
    if not records:
        raise ValueError("no records to aggregate")
    n = len(records)
    return AggregateMetrics(
        pass_at_1=sum(r.passed for r in records) / n,
        edit_sim=sum(r.edit_sim for r in records) / n,
        valid_rate=sum(r.valid_rate_contrib for r in records) / n,
        complexity=sum(r.complexity for r in records) / n,
        count=n,
    )


def pass_at_k_estimate(n: int, c: int, k: int) -> float:
    """Fraction of size-k subsets of n attempts containing a success.

    Exact combinatorics, 1 - C(n-c,k)/C(n,k), taken as the one integer
    quotient (C(n,k) - C(n-c,k)) / C(n,k). Python rounds int / int
    correctly at any size, so the only rounding is that of the result and
    nothing overflows.
    """
    if not (0 <= c <= n):
        raise ValueError("need 0 <= c <= n")
    if not (1 <= k <= n):
        raise ValueError("need 1 <= k <= n")
    if n - c < k:
        return 1.0
    total = comb(n, k)
    return (total - comb(n - c, k)) / total


def extract_permutation(text: str, m: int) -> Optional[list[int]]:
    """The last fenced block parsing as a JSON integer array, accepted only
    if it is a permutation of 0..m-1."""
    if m < 1:
        raise ValueError("m must be at least 1")
    last: Optional[list[int]] = None
    for match in _FENCE_RE.finditer(text or ""):
        # ValueError covers JSONDecodeError and an integer over the
        # interpreter's digit limit.
        try:
            parsed = json.loads(match.group(1).strip())
        except (ValueError, RecursionError):
            continue
        if isinstance(parsed, list) and all(
            isinstance(x, int) and not isinstance(x, bool) for x in parsed
        ):
            last = parsed
    if last is None:
        return None
    if sorted(last) != list(range(m)):
        return None
    return last


def evaluate_reorder(
    instance: ReorderInstance, perm: Optional[Sequence[int]]
) -> bool:
    """Functional correctness: any order reproducing the outputs counts."""
    if perm is None:
        return False
    cascade = instance.reordered(perm)
    return tuple(apply_cascade(cascade, instance.inputs)) == instance.outputs


@dataclass(frozen=True)
class ReorderEval:
    """One reorder attempt's outcome; ``perm`` is None when no order was read."""

    passed: bool
    perm: Optional[list[int]]
    attempt_index: int

    def to_dict(self) -> dict:
        """A dict of the fields holding its own copy of ``perm``."""
        return {
            "passed": self.passed,
            "perm": None if self.perm is None else list(self.perm),
            "attempt_index": self.attempt_index,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ReorderEval":
        """The record a ``to_dict`` dict holds; TypeError on a mistyped
        field, ValueError on a negative ``attempt_index``."""
        check_types(cls, data)
        _check_ranges(data, _REORDER_EVAL_RANGES)
        return cls(**data)


def aggregate_reorder(
    results: Sequence[tuple[ReorderInstance, bool]]
) -> AggregateMetrics:
    """Overall accuracy plus accuracy restricted to unique-solution
    instances (None when that subset is empty)."""
    if not results:
        raise ValueError("no results to aggregate")
    n = len(results)
    acc = sum(ok for _, ok in results) / n
    unique = [(inst, ok) for inst, ok in results if inst.is_unique]
    uacc = sum(ok for _, ok in unique) / len(unique) if unique else None
    return AggregateMetrics(
        acc=acc, uacc=uacc, count=n, unique_count=len(unique)
    )


RELATION_BITS = ("F", "B", "CF", "CB")


@dataclass
class BreakdownBundle:
    """Diagnostic views over a scored run.

    ``pass_rate_by_length`` keys on ground-truth cascade length;
    ``length_confusion`` and ``category_confusion`` are nested
    ground-truth -> predicted count maps (predicted length 0 and the
    INVALID column hold null predictions); ``relation_tables`` holds one
    TP/FP/FN/TN table per relation bit, split by pass/fail.
    """

    pass_rate_by_length: dict[int, dict] = field(default_factory=dict)
    length_confusion: dict[int, dict[int, int]] = field(default_factory=dict)
    category_confusion: dict[str, dict[str, int]] = field(default_factory=dict)
    relation_tables: dict[str, dict[str, dict[str, int]]] = field(
        default_factory=dict
    )

    def to_dict(self) -> dict:
        return {
            "pass_rate_by_length": {
                str(k): v for k, v in sorted(self.pass_rate_by_length.items())
            },
            "length_confusion": {
                str(k): {str(p): c for p, c in sorted(v.items())}
                for k, v in sorted(self.length_confusion.items())
            },
            "category_confusion": {
                k: dict(sorted(v.items()))
                for k, v in sorted(self.category_confusion.items())
            },
            "relation_tables": self.relation_tables,
        }


def _category_bits(category: str) -> tuple[bool, ...]:
    """One flag per ``RELATION_BITS`` entry; all False for INVALID."""
    if category == INVALID_CATEGORY:
        return (False,) * len(RELATION_BITS)
    return tuple(c == "1" for c in category)


def breakdown_reports(
    records: Sequence[EvalRecord], instances: Sequence[PbeInstance]
) -> BreakdownBundle:
    """Tabulate the per-length and per-category diagnostics for a run.

    ``records`` and ``instances`` are index-aligned.
    """
    if len(records) != len(instances):
        raise ValueError("records and instances must align")
    bundle = BreakdownBundle()
    bundle.relation_tables = {
        bit: {side: dict(tp=0, fp=0, fn=0, tn=0) for side in ("pass", "fail")}
        for bit in RELATION_BITS
    }
    by_length: dict[int, list[bool]] = {}
    for rec, inst in zip(records, instances):
        gt_len = inst.effective_length
        gt_cat = inst.category
        by_length.setdefault(gt_len, []).append(rec.passed)
        row = bundle.length_confusion.setdefault(gt_len, {})
        row[rec.pred_length] = row.get(rec.pred_length, 0) + 1
        crow = bundle.category_confusion.setdefault(gt_cat, {})
        crow[rec.pred_category] = crow.get(rec.pred_category, 0) + 1
        side = "pass" if rec.passed else "fail"
        for bit, gt, pred in zip(
            RELATION_BITS, _category_bits(gt_cat),
            _category_bits(rec.pred_category),
        ):
            cell = "tp" if gt and pred else "fp" if pred else "fn" if gt else "tn"
            bundle.relation_tables[bit][side][cell] += 1
    for length, passes in by_length.items():
        bundle.pass_rate_by_length[length] = {
            "count": len(passes),
            "pass_rate": sum(passes) / len(passes),
        }
    return bundle
