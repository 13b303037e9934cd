"""Execution semantics for find-and-replace cascades over string vectors.

Everything downstream (relation classification, dataset generation,
scoring) is defined in terms of the primitives in this module, so the
replacement semantics here are deliberately pinned: left-to-right,
non-overlapping, single pass, no rescan of emitted text. This is exactly
the behaviour of ``str.replace``.
"""

from __future__ import annotations

import json
import math
import sys
from contextlib import nullcontext
from dataclasses import dataclass
from typing import NoReturn, Sequence


class EmptySourceError(ValueError):
    """A rule with an empty find pattern cannot be executed."""


class TransportError(RuntimeError):
    """Unrecoverable backend failure (retries exhausted, auth, bad envelope).

    Raised by ``gateway``; defined here so that the command line can map it
    to its exit code without importing the solver."""


def _reject_constant(name: str) -> NoReturn:
    raise ValueError(f"{name} is not a finite number")


def _finite_float(text: str) -> float:
    value = float(text)
    if math.isinf(value):
        _reject_constant(text)
    return value


# ``json.loads`` without NaN, Infinity and -Infinity, which JSON does not
# have, and without a number literal such as 1e400 that overflows to one.
# Built once: ``json.loads`` given a hook builds a decoder per call.
FINITE_JSON = json.JSONDecoder(
    parse_constant=_reject_constant, parse_float=_finite_float
)


def read_json(path: str):
    """The value of the JSON file at ``path``, decoded by ``FINITE_JSON``."""
    with open(path, encoding="utf-8") as fh:
        return FINITE_JSON.decode(fh.read())


def write_json(data, path: str | None = None) -> None:
    """``data`` as JSON indented by 2, and a newline, streamed to the file at
    ``path`` (replacing it) or, without one, to stdout."""
    out = open(path, "w", encoding="utf-8") if path else nullcontext(sys.stdout)
    with out as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")


@dataclass(frozen=True)
class Alphabet:
    """An ordered collection of distinct single-character symbols."""

    symbols: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.symbols:
            raise ValueError("alphabet must be non-empty")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("alphabet symbols must be distinct")
        for sym in self.symbols:
            if len(sym) != 1:
                raise ValueError(f"alphabet symbol {sym!r} is not a single character")

    @classmethod
    def from_string(cls, symbols: str) -> "Alphabet":
        return cls(tuple(symbols))


# The 17-symbol lowercase alphabet used by the small benchmark configuration
# (a..k plus u..z).
LITE_ALPHABET = Alphabet.from_string("abcdefghijkuvwxyz")


@dataclass(frozen=True)
class RewriteRule:
    """One find-and-replace program: every occurrence of ``source`` becomes
    ``target``.

    ``source`` may be empty only for raw, model-predicted rules that have not
    yet been normalized; executing such a rule raises ``EmptySourceError``.
    """

    source: str
    target: str

    def reversed(self) -> "RewriteRule":
        return RewriteRule(self.target, self.source)

    def render(self) -> str:
        return f'replace("{self.source}", "{self.target}")'


Cascade = tuple[RewriteRule, ...]


def encode_rules(rules: Sequence[RewriteRule]) -> list[dict]:
    """The dataset-file form of a rule list: ``{"find", "replace"}`` objects."""
    return [{"find": r.source, "replace": r.target} for r in rules]


def decode_rules(items: Sequence[dict]) -> Cascade:
    """The inverse of ``encode_rules``."""
    return tuple(RewriteRule(p["find"], p["replace"]) for p in items)


def apply_rule(rule: RewriteRule, s: str) -> str:
    """Apply one rule to one string.

    Replacement is a single left-to-right scan over non-overlapping matches;
    emitted replacement text is never rescanned within the same application.
    """
    if not rule.source:
        raise EmptySourceError("cannot apply a rule with an empty find pattern")
    return s.replace(rule.source, rule.target)


def apply_rule_vec(rule: RewriteRule, items: Sequence[str]) -> list[str]:
    """``apply_rule`` on every string of the vector."""
    if not rule.source:
        raise EmptySourceError("cannot apply a rule with an empty find pattern")
    source, target = rule.source, rule.target
    return [s.replace(source, target) for s in items]


def apply_cascade(
    cascade: Sequence[RewriteRule],
    inputs: Sequence[str],
    trace: bool = False,
) -> list[str] | tuple[list[str], list[list[str]]]:
    """Apply the rules in order to every string in ``inputs``.

    With ``trace`` set, also returns the full list of intermediate vectors,
    starting with the inputs themselves and ending with the outputs.
    """
    current = list(inputs)
    intermediates = [current]
    for rule in cascade:
        current = apply_rule_vec(rule, current)
        intermediates.append(current)
    if trace:
        return current, intermediates
    return current


def string_sets(s: str) -> tuple[frozenset[str], frozenset[str], frozenset[str]]:
    """Deduplicated sets of the non-empty substrings, prefixes, and suffixes
    of ``s``.

    The empty string is excluded from all three sets; ``string_sets("")``
    returns three empty sets.
    """
    n = len(s)
    substrings = frozenset(s[i:j] for i in range(n) for j in range(i + 1, n + 1))
    prefixes = frozenset(s[:j] for j in range(1, n + 1))
    suffixes = frozenset(s[i:] for i in range(n))
    return substrings, prefixes, suffixes


def substrings_of_length(items: Sequence[str], length: int) -> list[str]:
    """Sorted, deduplicated substrings of exactly ``length`` occurring anywhere
    in the vector."""
    if length == 1:
        return sorted(set("".join(items)))
    return sorted(
        {s[i : i + length] for s in items for i in range(len(s) - length + 1)}
    )


def levenshtein(a: str, b: str) -> int:
    """Unit-cost insert/delete/substitute edit distance."""
    if a == b:
        return 0
    # A shared prefix or suffix costs nothing under unit costs, so only the
    # differing middles go through the table.
    start, end = 0, min(len(a), len(b))
    while start < end and a[start] == b[start]:
        start += 1
    trail = 0
    while trail < end - start and a[-1 - trail] == b[-1 - trail]:
        trail += 1
    a = a[start:len(a) - trail]
    b = b[start:len(b) - trail]
    if not a:
        return len(b)
    if not b:
        return len(a)
    # Keep the shorter string in the inner loop.
    if len(b) < len(a):
        a, b = b, a
    previous = list(range(len(a) + 1))
    for j, cb in enumerate(b, start=1):
        current = [j]
        for i, ca in enumerate(a, start=1):
            cost = 0 if ca == cb else 1
            current.append(
                min(previous[i] + 1, current[i - 1] + 1, previous[i - 1] + cost)
            )
        previous = current
    return previous[-1]


def levenshtein_vec(a: Sequence[str], b: Sequence[str]) -> int:
    """Sum of per-index edit distances between two equal-length vectors."""
    if len(a) != len(b):
        raise ValueError(f"vector length mismatch: {len(a)} != {len(b)}")
    return sum(levenshtein(x, y) for x, y in zip(a, b))
