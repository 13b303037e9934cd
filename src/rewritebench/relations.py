"""Feeding/bleeding relation calculus for rule pairs and whole cascades.

``feeds`` is the symbolic classifier (substring, prefix and suffix tests
on the two rules' strings); ``bleeds`` is the same test on the reversed
first rule. ``oracle_feeds``/``oracle_bleeds`` are independent
checkers that find a concrete witness string by an exact bounded search
over a ``str.replace`` transducer, used to cross-validate the symbolic
classifier. The search is cached by the equality pattern of the strings
it reads, so pairs spelled with other symbols share it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Collection, Optional, Sequence

from .core import EmptySourceError, RewriteRule

FEEDING = "F"
BLEEDING = "B"


@dataclass(frozen=True, slots=True)
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


# A category is a 4-character '0'/'1' string of presence bits for feeding,
# bleeding, counter-feeding and counter-bleeding. As a bit mask these are
# f = 8, b = 4, cf = 2, cb = 1, so ALL_CATEGORIES[mask] is the category of mask.
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
    cases, so only shorter ones are tried, and a one-symbol side has no
    shorter prefix to try.
    """
    if not t_i:
        return len(s_j) > 1
    if t_i in s_i:
        return False
    if t_i in s_j or (s_j in t_i and s_j not in s_i):
        return True
    if len(t_i) > 1 and len(s_j) > 1:
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


def classify_bfcc(cascade: Sequence[RewriteRule]) -> tuple[str, list[RelationEdge]]:
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
    return ALL_CATEGORIES[mask], edges


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
) -> Optional[str]:
    """The category ``classify_bfcc`` derives, without its edges: a pair test
    is skipped once its bit is set, and the scan stops once all four are.

    With ``allowed``, a collection of categories, returns None as
    soon as the category can no longer end in it: bits are only ever set,
    so the reachable categories are those holding every bit set so far,
    and None means that no allowed category holds them all. That is
    reachability, not membership: a category outside ``allowed`` whose
    bits fit inside an allowed one is returned, and ``'0000'`` always is,
    so a caller that needs membership tests it on the answer.
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
    return ALL_CATEGORIES[mask]


_FRESH_POOL = "abcdefghijklmnopqrstuvwxyz0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ"


def _fresh_symbol(used: Collection[str]) -> str:
    """The first pool character not in ``used`` (a set of characters, or a
    string), else the lowest code point not in it."""
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


@lru_cache(maxsize=1024)
def _kmp_table(pattern: str, alphabet: tuple[str, ...]) -> tuple[tuple[int, ...], ...]:
    """The KMP automaton of ``pattern`` over ``alphabet``: per state
    k < len(pattern) and symbol index, the length of the longest suffix of
    ``pattern[:k] + symbol`` that is a prefix of ``pattern``. Row k is row
    ``border``, the state after reading ``pattern[1:k]``, except that
    ``pattern[k]`` goes on to k + 1."""
    rows = [[int(c == pattern[0]) for c in alphabet]]
    border = 0
    for k in range(1, len(pattern)):
        c = alphabet.index(pattern[k])
        row = rows[border][:]
        row[c] = k + 1
        rows.append(row)
        border = rows[border][c]
    return tuple(map(tuple, rows))


@lru_cache(maxsize=1024)
def _rewrite_table(s: str, t: str, alphabet: tuple[str, ...]) -> tuple[tuple, tuple]:
    """``str.replace(s, t)`` as a transducer over symbol indices: per state
    k < len(s) and symbol, the next state and the symbols emitted; and per
    state, the pending buffer ``s[:k]`` flushed at the end of the input."""
    code = {c: i for i, c in enumerate(alphabet)}
    s_ix = tuple(code[c] for c in s)
    t_ix = tuple(code[c] for c in t)
    steps = tuple(
        tuple(
            (0, t_ix) if j == len(s) else (j, (s_ix[:k] + (c,))[: k + 1 - j])
            for c, j in enumerate(row)
        )
        for k, row in enumerate(_kmp_table(s, alphabet))
    )
    return steps, tuple(s_ix[:k] for k in range(len(s)))


@lru_cache(maxsize=1024)
def _count_table(
    u: str, alphabet: tuple[str, ...]
) -> tuple[tuple[tuple[int, int], ...], ...]:
    """``str.count(u)`` as a KMP counter that resets on every hit: per state
    k < len(u) and symbol index, the next state and the hits (0 or 1)."""
    return tuple(
        tuple((0, 1) if j == len(u) else (j, 0) for j in row)
        for row in _kmp_table(u, alphabet)
    )


@lru_cache(maxsize=2)
def _product(
    s: str, t: str, u: str, alphabet: tuple[str, ...]
) -> tuple[tuple[tuple[tuple[int, int], ...], ...], tuple[int, ...]]:
    """The product of the rewrite transducer and the counters on its input
    and output, reachable states only, state 0 the start: per state, a row
    of (successor, output hits - input hits) per symbol, and the hits that
    flushing the pending buffer adds on the output."""
    steps, pending = _rewrite_table(s, t, alphabet)
    count = _count_table(u, alphabet)

    def run(k: int, symbols: tuple[int, ...]) -> tuple[int, int]:
        hits = 0
        for c in symbols:
            k, hit = count[k][c]
            hits += hit
        return k, hits

    states = [(0, 0, 0)]
    index = {states[0]: 0}
    edges: list[tuple[tuple[int, int], ...]] = []
    flush: list[int] = []
    for k, k_in, k_out in states:  # grows while it is scanned: a BFS
        row = []
        for (k2, emitted), (k_in2, hits_in) in zip(steps[k], count[k_in]):
            k_out2, hits_out = run(k_out, emitted)
            nxt = (k2, k_in2, k_out2)
            j = index.get(nxt)
            if j is None:
                j = index[nxt] = len(states)
                states.append(nxt)
            row.append((j, hits_out - hits_in))
        edges.append(tuple(row))
        flush.append(run(k_out, pending[k])[1])
    return tuple(edges), tuple(flush)


@lru_cache(maxsize=1024)
def _search(s: str, t: str, u: str, max_len: int, sign: int) -> Optional[tuple]:
    """The witness search on canonical strings, whose m symbols are
    ``chr(0)`` to ``chr(m - 1)`` in order of first appearance in
    ``s + t + u``, over the classes ``chr(0)`` to ``chr(m)``: class m
    stands for every other symbol. Returns the product's edges, the rows
    ``best[0..n]`` and the first length n whose start value is positive,
    or None when no length up to ``max_len`` has one."""
    alphabet = tuple(map(chr, range(len(set(s + t + u)) + 1)))
    edges, flush = _product(s, t, u, alphabet)
    best = [list(flush) if sign > 0 else [-hits for hits in flush]]
    for n in range(1, max_len + 1):
        prev = best[-1]
        if sign > 0:
            cur = [max([prev[j] + w for j, w in row]) for row in edges]
        else:
            cur = [max([prev[j] - w for j, w in row]) for row in edges]
        best.append(cur)
        if cur[0] > 0:
            return edges, best, n
        if cur == prev:  # a fixed point: every longer row is the same
            return None
    return None


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
    output); an edge weighs output hits - input hits, and the pending buffer
    is flushed through the output counter at the end.

    ``best[n][i]`` is the largest weight times ``sign`` that n more symbols
    reach from state i, so a witness of length n exists iff
    ``best[n][start] > 0``; the witness is then spelled greedily, smallest
    symbol first. The search is exact: it returns what enumerating every
    string would.

    The search depends only on the equality pattern of ``first.source``,
    ``first.target`` and ``second.source``, not on the symbols that spell
    it: their symbols are relabeled by first appearance, and every other
    symbol of the alphabet (the fresh one, and any found only in
    ``second.target``) falls in one class, since it sends all three KMP
    machines to state 0. ``_search`` is cached on the relabeled strings,
    ``max_len`` and ``sign`` (1,024 entries), and ``_product`` keeps the
    last two products, which the two signs of one pattern share; each KMP
    table (``_kmp_table``, and the ``_rewrite_table`` and ``_count_table``
    derived from it) is built once per relabeled pattern. The spelling
    walks the pair's own sorted alphabet and reads each symbol's class;
    every class has a member there, the fresh symbol being one of class m,
    so the classes' best values are the symbols' and the witness is the
    one the search over symbols would spell.
    """
    if not second.source:
        raise EmptySourceError(f"{caller}() requires the second rule's find pattern")
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    s, t, u = first.source, first.target, second.source
    if not s:
        return None
    symbols = "".join(dict.fromkeys(s + t + u))
    code = {ord(c): i for i, c in enumerate(symbols)}
    found = _search(
        s.translate(code), t.translate(code), u.translate(code), max_len, sign
    )
    if found is None:
        return None
    edges, best, n = found
    # ``find`` is -1 for a symbol outside ``symbols``: the last column, class m.
    spelled = [(c, symbols.find(c)) for c in _oracle_alphabet(first, second)]
    out: list[str] = []
    i, gained = 0, 0
    for left in range(n - 1, -1, -1):
        tail, row = best[left], edges[i]
        for c, k in spelled:
            j, w = row[k]
            if gained + sign * w + tail[j] > 0:
                out.append(c)
                i, gained = j, gained + sign * w
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
