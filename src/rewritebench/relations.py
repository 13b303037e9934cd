"""Feeding/bleeding relation calculus for rule pairs and whole cascades.

``feeds`` is the symbolic classifier (substring, prefix and suffix tests
on the two rules' strings); ``bleeds`` is the same test on the reversed
first rule. ``oracle_feeds``/``oracle_bleeds`` are independent
checkers that find a concrete witness string by an exact bounded search
over a ``str.replace`` transducer, used to cross-validate the symbolic
classifier.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Collection, Optional, Sequence

from .core import EmptySourceError, RewriteRule

FEEDING = "F"
BLEEDING = "B"


@dataclass(frozen=True)
class RelationEdge:
    """A stored feeding or bleeding edge between rule positions.

    Only F and B edges are persisted; an edge with i > j encodes the
    corresponding counter-relation implicitly.
    """

    i: int
    kind: str
    j: int

    def __post_init__(self) -> None:
        if self.kind not in (FEEDING, BLEEDING):
            raise ValueError(f"edge kind must be 'F' or 'B', got {self.kind!r}")
        if self.i == self.j:
            raise ValueError("self-edges are not allowed")


@dataclass(frozen=True)
class CategoryString:
    """Presence bits for feeding, bleeding, counter-feeding, and
    counter-bleeding, rendered as a 4-character '0'/'1' string."""

    f: bool
    b: bool
    cf: bool
    cb: bool

    def render(self) -> str:
        return "".join("1" if bit else "0" for bit in (self.f, self.b, self.cf, self.cb))

    @classmethod
    def parse(cls, text: str) -> "CategoryString":
        if len(text) != 4 or any(c not in "01" for c in text):
            raise ValueError(f"malformed category string {text!r}")
        return cls(*(c == "1" for c in text))


ALL_CATEGORIES = tuple(format(i, "04b") for i in range(16))


def _creates_sites(s_i: str, t_i: str, s_j: str) -> bool:
    """The feeding test on rule sides: can rewriting ``s_i`` to ``t_i``
    create new match sites for the non-empty pattern ``s_j``?

    ``s_i`` may be empty (bleeding tests a deletion rule reversed). A
    deletion joins its neighbours, so it feeds any pattern of two or more
    symbols. A replacement that occurs inside ``s_i`` feeds nothing: every
    piece of it was already there. Otherwise it feeds when ``t_i`` lies in
    ``s_j``, when ``s_j`` lies in ``t_i`` but not in ``s_i``, or when a
    prefix (suffix) of ``t_i`` that does not occur in ``s_i`` ends (starts)
    ``s_j``. A prefix as long as ``t_i`` or ``s_j`` is one of the first two
    cases, so only shorter ones are tried.
    """
    if not t_i:
        return len(s_j) > 1
    if t_i in s_i:
        return False
    if t_i in s_j or (s_j in t_i and s_j not in s_i):
        return True
    for k in range(1, min(len(t_i), len(s_j))):
        head, tail = t_i[:k], t_i[-k:]
        if (s_j.endswith(head) and head not in s_i) or (
            s_j.startswith(tail) and tail not in s_i
        ):
            return True
    return False


def feeds(first: RewriteRule, second: RewriteRule) -> bool:
    """True iff applying ``first`` can create new match sites for ``second``.

    ``first.source`` may be empty (this happens when called on a reversed
    deletion rule); ``second.source`` must not be.
    """
    if not second.source:
        raise EmptySourceError("feeds() requires the second rule's find pattern")
    return _creates_sites(first.source, first.target, second.source)


def bleeds(first: RewriteRule, second: RewriteRule) -> bool:
    """True iff applying ``first`` can destroy match sites for ``second``.

    Definitionally the feeding test on the reversed first rule."""
    if not second.source:
        raise EmptySourceError("bleeds() requires the second rule's find pattern")
    return _creates_sites(first.target, first.source, second.source)


def classify_bfcc(cascade: Sequence[RewriteRule]) -> tuple[CategoryString, list[RelationEdge]]:
    """Classify every ordered rule pair of a cascade and derive its category.

    Edges are produced row-major over ordered pairs (i, then j); the
    category holds a bit per edge kind and direction: an edge with i < j
    sets the forward bit, i > j the counter bit.
    """
    edges: list[RelationEdge] = []
    if len(cascade) > 1 and not all(rule.source for rule in cascade):
        raise EmptySourceError("classify_bfcc() requires every find pattern")
    mask = 0
    for i, first in enumerate(cascade):
        s_i, t_i = first.source, first.target
        for j, second in enumerate(cascade):
            if i == j:
                continue
            s_j = second.source
            feed, bleed = (8, 4) if i < j else (2, 1)
            if _creates_sites(s_i, t_i, s_j):
                edges.append(RelationEdge(i, FEEDING, j))
                mask |= feed
            if _creates_sites(t_i, s_i, s_j):
                edges.append(RelationEdge(i, BLEEDING, j))
                mask |= bleed
    return _CATEGORY_OF_MASK[mask], edges


# The category of each bit mask, in render order: f = 8, b = 4, cf = 2, cb = 1.
_CATEGORY_OF_MASK = tuple(
    CategoryString(*(bool(mask & bit) for bit in (8, 4, 2, 1))) for mask in range(16)
)


@lru_cache(maxsize=64)
def _reachable(allowed: Optional[frozenset[str]]) -> tuple[bool, ...]:
    """Per bit mask: can a cascade with these bits set still end in a
    category of ``allowed`` (any category when None)?"""
    if allowed is None:
        return (True,) * 16
    targets = [int(cat, 2) for cat in allowed]
    return tuple(
        any(target & mask == mask for target in targets) for mask in range(16)
    )


def category_of(
    cascade: Sequence[RewriteRule], allowed: Optional[Collection[str]] = None
) -> Optional[CategoryString]:
    """The category ``classify_bfcc`` derives, without its edges: a pair test
    is skipped once its bit is set, and the scan stops once all four are.

    With ``allowed``, a collection of rendered categories, returns None as
    soon as the category can no longer end in it: bits are only ever set,
    so the reachable categories are those holding every bit set so far.
    The reachability table is cached by the collection's contents, so the
    answer follows them; a frozenset is used without a copy.
    """
    if len(cascade) > 1 and not all(rule.source for rule in cascade):
        raise EmptySourceError("category_of() requires every find pattern")
    reachable = _reachable(None if allowed is None else frozenset(allowed))
    mask = 0
    for i, first in enumerate(cascade):
        s_i, t_i = first.source, first.target
        for j, second in enumerate(cascade):
            if i == j:
                continue
            feed, bleed = (8, 4) if i < j else (2, 1)
            before = mask
            if not mask & feed and _creates_sites(s_i, t_i, second.source):
                mask |= feed
            if not mask & bleed and _creates_sites(t_i, s_i, second.source):
                mask |= bleed
            if mask != before and not reachable[mask]:
                return None
        if mask == 15:
            break
    return _CATEGORY_OF_MASK[mask]


_FRESH_POOL = "abcdefghijklmnopqrstuvwxyz0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ"


def _fresh_symbol(used: set[str]) -> str:
    """The first pool character not in ``used``, else the lowest code point
    not in it."""
    for c in _FRESH_POOL:
        if c not in used:
            return c
    code = 0
    while chr(code) in used:
        code += 1
    return chr(code)


def _oracle_alphabet(first: RewriteRule, second: RewriteRule) -> tuple[str, ...]:
    used = set(first.source + first.target + second.source + second.target)
    used.add(_fresh_symbol(used))
    return tuple(sorted(used))


def _kmp_step(pattern: str, k: int, c: str) -> int:
    """The KMP state after reading ``c`` in state ``k``: the length of the
    longest suffix of ``pattern[:k] + c`` that is a prefix of ``pattern``."""
    text = pattern[:k] + c
    for j in range(len(text), 0, -1):
        if pattern.startswith(text[-j:]):
            return j
    return 0


def _witness(
    first: RewriteRule, second: RewriteRule, max_len: int, sign: int, caller: str
) -> Optional[str]:
    """The shortest, then lexicographically first, string of length
    1..max_len over ``_oracle_alphabet`` on which applying ``first`` changes
    the occurrence count of ``second.source`` by an amount of sign ``sign``;
    None when ``first.source`` is empty. An empty ``second.source`` raises
    ``EmptySourceError`` naming ``caller``.

    ``str.replace(s, t)`` is a leftmost, non-overlapping rewrite, so it runs
    as a transducer whose state is the KMP state of ``s``: the pending
    buffer ``s[:k]``, emitted unchanged once it can no longer start a match
    and as ``t`` once it completes one (Kaplan & Kay 1994; Mohri & Sproat
    1996). ``str.count`` is a KMP counter that resets on every hit. A product
    state is (transducer state, counter on the input, counter on the
    output); an edge weighs ``sign`` * (output hits - input hits), and the
    pending buffer is flushed through the output counter at the end.

    ``best[n][i]`` is the largest weight that n more symbols reach from state
    i, so a witness of length n exists iff ``best[n][start] > 0``; the
    witness is then spelled greedily, smallest symbol first. The search is
    exact: it returns what enumerating every string would.
    """
    if not second.source:
        raise EmptySourceError(f"{caller}() requires the second rule's find pattern")
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    if not first.source:
        return None
    s, t, u = first.source, first.target, second.source
    alphabet = _oracle_alphabet(first, second)
    rewrite = []  # per transducer state and symbol: (next state, emitted text)
    for k in range(len(s)):
        step = {}
        for c in alphabet:
            j = _kmp_step(s, k, c)
            step[c] = (0, t) if j == len(s) else (j, (s[:k] + c)[: k + 1 - j])
        rewrite.append(step)
    count = []  # per counter state and symbol: (next state, hits)
    for k in range(len(u)):
        step = {}
        for c in alphabet:
            j = _kmp_step(u, k, c)
            step[c] = (0, 1) if j == len(u) else (j, 0)
        count.append(step)

    def run(k: int, text: str) -> tuple[int, int]:
        hits = 0
        for c in text:
            k, hit = count[k][c]
            hits += hit
        return k, hits

    states = [(0, 0, 0)]
    index = {states[0]: 0}
    edges: list[list[tuple[int, int]]] = []
    flush: list[int] = []
    for k, k_in, k_out in states:  # grows while it is scanned: a BFS
        row = []
        for c in alphabet:
            k2, emitted = rewrite[k][c]
            k_in2, hits_in = count[k_in][c]
            k_out2, hits_out = run(k_out, emitted)
            nxt = (k2, k_in2, k_out2)
            if nxt not in index:
                index[nxt] = len(states)
                states.append(nxt)
            row.append((index[nxt], sign * (hits_out - hits_in)))
        edges.append(row)
        flush.append(sign * run(k_out, s[:k])[1])

    best = [flush]
    for n in range(1, max_len + 1):
        prev = best[-1]
        cur = [max([w + prev[j] for j, w in row]) for row in edges]
        best.append(cur)
        if cur[0] > 0:
            break
        if cur == prev:  # a fixed point: every longer row is the same
            return None
    else:
        return None

    out: list[str] = []
    i, gained = 0, 0
    for left in range(n - 1, -1, -1):
        tail = best[left]
        for c, (j, w) in zip(alphabet, edges[i]):
            if gained + w + tail[j] > 0:
                out.append(c)
                i, gained = j, gained + w
                break
    return "".join(out)


def oracle_feeds(
    first: RewriteRule, second: RewriteRule, max_len: int
) -> Optional[str]:
    """Search for a string on which applying ``first`` strictly increases the
    occurrence count of ``second.source``.

    Searches every string up to ``max_len`` over the combined symbols of
    both rules plus one fresh symbol, exactly (see ``_witness``); returns
    the shortest (then lexicographically first) witness, or None.
    """
    return _witness(first, second, max_len, 1, "oracle_feeds")


def oracle_bleeds(
    first: RewriteRule, second: RewriteRule, max_len: int
) -> Optional[str]:
    """Search for a string on which applying ``first`` strictly decreases the
    occurrence count of ``second.source``."""
    return _witness(first, second, max_len, -1, "oracle_bleeds")


def default_oracle_bound(first: RewriteRule, second: RewriteRule) -> int:
    """Witness-length bound used by the cross-validation suites."""
    return len(first.source) + len(second.source) + len(first.target) + 2
