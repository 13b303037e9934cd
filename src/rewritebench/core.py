"""Execution semantics for find-and-replace cascades over string vectors.

Everything downstream (relation classification, dataset generation,
scoring) is defined in terms of the primitives in this module, so the
replacement semantics here are deliberately pinned: left-to-right,
non-overlapping, single pass, no rescan of emitted text. This is exactly
the behaviour of ``str.replace``.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from contextlib import nullcontext
from dataclasses import dataclass, fields
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


_encode_str = json.encoder.encode_basestring_ascii


def _float(value: float) -> str:
    """A float as ``json`` writes it, NaN and the infinities by name."""
    if value != value:
        return "NaN"
    if value == math.inf:
        return "Infinity"
    if value == -math.inf:
        return "-Infinity"
    return float.__repr__(value)


def _render(value, nl: str) -> str:
    """``value`` as ``json.dumps(value, indent=2)`` writes it, nested so
    that ``nl``, a newline and the indent around it, starts each of its
    lines after the first. The types are tested in ``json``'s order, so a
    subclass of ``int`` or ``float`` goes out as its base does. TypeError
    for a dict key that is not a string and for a value ``json`` cannot
    write."""
    if isinstance(value, str):
        return _encode_str(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _float(value)
    inner = nl + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        # A list of strings, or of ints, is one ``join``.
        types = set(map(type, value))
        if types == {str}:
            items = map(_encode_str, value)
        elif types == {int}:
            items = map(int.__repr__, value)
        else:
            items = [_render(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + nl + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        return "{" + inner + ("," + inner).join([
            _encode_str(key) + ": " + _render(item, inner)
            for key, item in value.items()
        ]) + nl + "}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _write(write, value, nl: str, depth: int) -> None:
    """``_render(value, nl)`` passed to ``write``; a non-empty list, tuple
    or dict less than ``depth`` levels down goes out item by item, each as
    soon as it is rendered."""
    if not (depth and isinstance(value, (list, tuple, dict)) and value):
        write(_render(value, nl))
        return
    inner = nl + "  "
    sep = inner
    if isinstance(value, dict):
        write("{")
        for key, item in value.items():
            write(sep + _encode_str(key) + ": ")
            _write(write, item, inner, depth - 1)
            sep = "," + inner
        write(nl + "}")
    else:
        write("[")
        for item in value:
            write(sep)
            _write(write, item, inner, depth - 1)
            sep = "," + inner
        write(nl + "]")


def write_json(data, path: str | None = None) -> None:
    """``data`` as JSON indented by 2, and a newline, streamed to the file at
    ``path`` (replacing it) or, without one, to stdout.

    The bytes are those of ``json.dump(data, fh, indent=2)``, rendered
    here because CPython's ``json`` runs its pure-Python encoder whenever
    it indents. Each item of the top two levels (a dataset's or perm set's
    instances, a report's records) is written as soon as it is rendered,
    so the whole document is never held as one string. TypeError for a
    dict key that is not a string."""
    out = open(path, "w", encoding="utf-8") if path else nullcontext(sys.stdout)
    with out as fh:
        _write(fh.write, data, "\n", 2)
        fh.write("\n")


_NONE = type(None)

# What a field of each annotation accepts of a decoded JSON value: its
# types, the type of every element of a list (or None, or for a list of
# fixed-length rows the types of a row's elements), and the phrase that
# ends "<key> <value> is ..." for a value it does not accept. A bool (an
# int subclass) is not an integer or a number, and a float is not an
# integer: each is rejected, not converted. JSON has no tuple, so a tuple
# is read from a list, an alphabet from the string of its symbols, a
# cascade from a list of rule objects and a relation edge from an
# ``[i, kind, j]`` row.
JSON_TYPES = {
    "int": ((int,), None, "not an integer"),
    "Optional[int]": ((int, _NONE), None, "not an integer or null"),
    "float": ((int, float), None, "not a number"),
    "bool": ((bool,), None, "not a boolean"),
    "str": ((str,), None, "not a string"),
    "Optional[str]": ((str, _NONE), None, "not a string or null"),
    "Alphabet": ((str,), None, "not a string"),
    "dict": ((dict,), None, "not an object"),
    "Optional[dict]": ((dict, _NONE), None, "neither null nor an object"),
    "tuple[str, ...]": ((list,), str, "not a list of strings"),
    "tuple[int, ...]": ((list,), int, "not a list of integers"),
    "Optional[list[int]]":
        ((list, _NONE), int, "neither null nor a list of integers"),
    "Cascade": ((list,), dict, "not a list of objects"),
    "tuple[RelationEdge, ...]":
        ((list,), (int, str, int), "not a list of [int, str, int] rows"),
}


@functools.cache
def _checks(cls) -> dict[str, tuple]:
    """The ``JSON_TYPES`` entry of each field of ``cls``, by its JSON key:
    the field's ``metadata["key"]``, else its name."""
    return {
        f.metadata.get("key", f.name): JSON_TYPES[f.type] for f in fields(cls)
    }


def _elements_are(value: list, item) -> bool:
    if type(item) is tuple:
        return all(
            type(x) is list and tuple(map(type, x)) == item for x in value
        )
    return set(map(type, value)) <= {item}


def check_types(cls, data: dict) -> None:
    """TypeError for the first key of ``data`` that is the JSON key of a
    field of the dataclass ``cls`` and holds a value ``JSON_TYPES`` does
    not accept for the field's annotation, or if ``data`` is not a dict. A
    key of no field is left to ``cls`` to reject. KeyError if a field of
    ``cls`` has an annotation with no entry."""
    if type(data) is not dict:
        raise TypeError(f"{cls.__name__} record {data!r} is not an object")
    checks = _checks(cls)
    for key, value in data.items():
        check = checks.get(key)
        if check is None:
            continue
        types, item, what = check
        if type(value) in types and (
            item is None or value is None or _elements_are(value, item)
        ):
            continue
        raise TypeError(f"{key} {value!r} is {what}")


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


@dataclass(frozen=True, slots=True)
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
    """The inverse of ``encode_rules``; TypeError if a find or replace is
    not a string. Each rule's find is read and checked before its replace,
    and rule by rule, so the first bad key of the list is the one raised."""
    rules = []
    for p in items:
        source = p["find"]
        if type(source) is not str:
            raise TypeError(f"rule find {source!r} is not a string")
        target = p["replace"]
        if type(target) is not str:
            raise TypeError(f"rule replace {target!r} is not a string")
        rules.append(RewriteRule(source, target))
    return tuple(rules)


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
