"""Relation-calculus tests: the symbolic classifier's pinned examples and
its agreement with the set-algebra formulation it replaced, the bleeding
reduction, cascade classification, and the witness oracles, which must
return exactly what an exhaustive enumeration of strings returns.

The full-corpus equivalence between the symbolic classifier and the
count-based witness oracles is checked in the acceptance suite; the two
definitions are known to diverge on a few percent of random pairs (see
the xfail markers below), so here the oracles are exercised on their
pinned examples and on the structural properties that do hold exactly.
"""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from rewritebench import relations
from rewritebench.core import EmptySourceError, RewriteRule, apply_rule, string_sets
from rewritebench.relations import (
    ALL_CATEGORIES,
    RelationEdge,
    bleeds,
    category_of,
    classify_bfcc,
    default_oracle_bound,
    feeds,
    oracle_bleeds,
    oracle_feeds,
    _FRESH_POOL,
    _fresh_symbol,
    _kmp_table,
    _oracle_alphabet,
    _product,
    _search,
)

rules = st.builds(
    RewriteRule,
    st.text(alphabet="abc", min_size=1, max_size=2),
    st.text(alphabet="abc", max_size=2),
)
cascades = st.lists(rules, min_size=2, max_size=5).map(tuple)


def R(source, target):
    return RewriteRule(source, target)


class TestFeeds:
    def test_creation_example(self):
        assert feeds(R("a", "bc"), R("bc", "x"))

    def test_shared_unit_completion(self):
        # condition 4: "d" is a prefix of the target and a suffix of the
        # second source; witness "abc" -> "adc" contains "ad"
        first, second = R("bc", "dc"), R("ad", "ed")
        assert feeds(first, second)
        assert "ad" in apply_rule(first, "abc")

    def test_disjoint_symbols(self):
        assert not feeds(R("a", "b"), R("c", "d"))

    def test_deletion_feeds_longer_pattern(self):
        first, second = R("b", ""), R("aa", "c")
        assert feeds(first, second)
        assert apply_rule(first, "aba") == "aa"

    def test_deletion_does_not_feed_unit_pattern(self):
        # condition 1 requires |s_j| > 1
        assert not feeds(R("b", ""), R("a", "c"))

    def test_second_empty_source_rejected(self):
        with pytest.raises(EmptySourceError):
            feeds(R("a", "b"), R("", "c"))

    def test_subsumption_uses_second_source(self):
        # s_j inside the target but not the source fires condition 3
        assert feeds(R("a", "xbx"), R("b", "y"))


def set_creates_sites(s_i, t_i, s_j):
    """Reference feeding test in set algebra: the five conditions over the
    substring, prefix and suffix sets of the three strings."""
    if t_i == "" and len(s_j) > 1:
        return True
    sub_si, _, _ = string_sets(s_i)
    sub_sj, pref_sj, suff_sj = string_sets(s_j)
    sub_ti, pref_ti, suff_ti = string_sets(t_i)
    return bool(
        (t_i in sub_sj and t_i not in sub_si)
        or (s_j in sub_ti and s_j not in sub_si)
        or (pref_ti - sub_si) & suff_sj
        or (suff_ti - sub_si) & pref_sj
    )


def equality_patterns(n):
    """Every string of length ``n`` up to renaming of symbols: the first
    occurrence of each symbol comes in alphabet order."""
    def grow(prefix, used):
        if len(prefix) == n:
            yield prefix
            return
        for k in range(used + 1):
            yield from grow(prefix + chr(ord("a") + k), max(used, k + 1))

    yield from grow("", 0)


def test_feeds_and_bleeds_match_set_algebra_on_every_pattern():
    """Every character-equality pattern of (first.source, first.target,
    second.source) with each side of length up to 3, the first source
    possibly empty: 41,348 patterns."""
    checked = 0
    for a, b, c in itertools.product(range(4), range(4), range(1, 4)):
        for text in equality_patterns(a + b + c):
            s_i, t_i, s_j = text[:a], text[a : a + b], text[a + b :]
            first, second = R(s_i, t_i), R(s_j, "")
            assert feeds(first, second) == set_creates_sites(s_i, t_i, s_j), text
            assert bleeds(first, second) == set_creates_sites(t_i, s_i, s_j), text
            checked += 1
    assert checked == 41_348


@given(
    st.sampled_from(["a", "ab", "abc", "abcd"]).flatmap(
        lambda symbols: st.tuples(
            st.text(alphabet=symbols, max_size=6),
            st.text(alphabet=symbols, max_size=6),
            st.text(alphabet=symbols, min_size=1, max_size=6),
        )
    )
)
@settings(max_examples=500, deadline=None)
def test_feeds_and_bleeds_match_set_algebra_on_longer_sides(sides):
    s_i, t_i, s_j = sides
    first, second = R(s_i, t_i), R(s_j, "")
    assert feeds(first, second) == set_creates_sites(s_i, t_i, s_j)
    assert bleeds(first, second) == set_creates_sites(t_i, s_i, s_j)


class TestBleeds:
    def test_removal_example(self):
        assert bleeds(R("ab", "x"), R("a", "y"))

    def test_disjoint_symbols(self):
        assert not bleeds(R("a", "b"), R("c", "d"))

    def test_self_destruction(self):
        assert bleeds(R("ab", ""), R("ab", "x"))

    @given(rules, rules)
    def test_reduction_identity(self, p, q):
        """bleeds is literally feeds on the reversed first rule."""
        assert bleeds(p, q) == feeds(p.reversed(), q)

    def test_defined_for_deletion_rules(self):
        # reversed deletion rule has an empty source; must not raise
        assert isinstance(bleeds(R("ab", ""), R("cc", "d")), bool)


class TestClassify:
    def test_feeding_pair(self):
        category, edges = classify_bfcc([R("bc", "dc"), R("ad", "ed")])
        assert category == "1000"
        assert edges == [RelationEdge(0, "F", 1)]

    def test_no_interactions(self):
        category, edges = classify_bfcc([R("a", "b"), R("c", "d")])
        assert category == "0000"
        assert edges == []

    def test_reversal_moves_f_to_cf(self):
        category, edges = classify_bfcc([R("ad", "ed"), R("bc", "dc")])
        assert category == "0010"
        assert edges == [RelationEdge(1, "F", 0)]

    @given(cascades)
    @settings(max_examples=200)
    def test_reversal_duality(self, cascade):
        """Reversing a cascade swaps (F, CF) and (B, CB)."""
        cat, _ = classify_bfcc(cascade)
        rcat, _ = classify_bfcc(tuple(reversed(cascade)))
        assert rcat == cat[2:] + cat[:2]

    @given(cascades)
    @settings(max_examples=100)
    def test_bits_match_edges(self, cascade):
        cat, edges = classify_bfcc(cascade)
        assert cat in ALL_CATEGORIES
        assert (cat[0] == "1") == any(e.kind == "F" and e.i < e.j for e in edges)
        assert (cat[2] == "1") == any(e.kind == "F" and e.i > e.j for e in edges)
        assert (cat[1] == "1") == any(e.kind == "B" and e.i < e.j for e in edges)
        assert (cat[3] == "1") == any(e.kind == "B" and e.i > e.j for e in edges)

    @given(cascades)
    @settings(max_examples=200)
    def test_category_of_matches_classify(self, cascade):
        assert category_of(cascade) == classify_bfcc(cascade)[0]

    @given(cascades, st.sets(st.sampled_from(ALL_CATEGORIES)))
    @settings(max_examples=200)
    def test_category_of_rejects_only_outside_allowed(self, cascade, allowed):
        category = classify_bfcc(cascade)[0]
        result = category_of(cascade, allowed)
        if result is None:
            assert category not in allowed
        else:
            assert result == category
        if category in allowed:
            assert result == category

    def test_category_of_stops_on_unreachable_bit(self):
        cascade = [R("bc", "dc"), R("ad", "ed")]  # category 1000
        assert category_of(cascade, {"0100", "0000"}) is None
        assert category_of(cascade, {"1100"}) == "1000"

    def test_category_of_follows_a_mutated_set(self):
        # The reachability table must be keyed on the set's contents, not on
        # the set object.
        cascade = [R("bc", "dc"), R("ad", "ed")]  # category 1000
        allowed = {"1100"}
        assert category_of(cascade, allowed) == "1000"
        allowed.clear()
        allowed.add("0100")
        assert category_of(cascade, allowed) is None
        allowed.add("1000")
        assert category_of(cascade, allowed) == "1000"

    def test_category_of_requires_find_patterns(self):
        with pytest.raises(EmptySourceError):
            category_of([R("", "a"), R("b", "c")])


class TestOracles:
    def test_feed_witness(self):
        assert oracle_feeds(R("a", "bc"), R("bc", "x"), 4) == "a"

    def test_feed_absent(self):
        assert oracle_feeds(R("a", "b"), R("c", "d"), 5) is None

    def test_deletion_feed_witness(self):
        # shortest-then-lexicographic enumeration over {a, b} + fresh
        assert oracle_feeds(R("b", ""), R("aa", "c"), 4) == "aba"

    def test_bleed_witness(self):
        assert oracle_bleeds(R("ab", "x"), R("a", "y"), 3) == "ab"

    def test_bleed_absent(self):
        assert oracle_bleeds(R("a", "b"), R("c", "d"), 4) is None

    def test_self_destruction_witness(self):
        assert oracle_bleeds(R("ab", ""), R("ab", "x"), 3) == "ab"

    @pytest.mark.parametrize("oracle", [oracle_feeds, oracle_bleeds])
    def test_argument_handling(self, oracle):
        with pytest.raises(EmptySourceError, match=f"^{oracle.__name__}\\(\\)"):
            oracle(R("a", "b"), R("", "c"), 3)
        with pytest.raises(ValueError, match="max_len"):
            oracle(R("a", "b"), R("b", "c"), 0)
        assert oracle(R("", "b"), R("b", "c"), 3) is None

    def test_fresh_symbol_beyond_the_pool(self):
        # Every pool character and the last code point are used: the fresh
        # symbol is the lowest unused code point, not one past the highest.
        used = set(_FRESH_POOL) | {chr(0x10FFFF)}
        assert _fresh_symbol(used) == chr(0)
        assert _fresh_symbol(used | {chr(0)}) == chr(1)
        assert oracle_feeds(R(_FRESH_POOL, chr(0x10FFFF)), R("a", "b"), 2) is None

    def test_default_bound(self):
        assert default_oracle_bound(R("ab", "c"), R("de", "f")) == 7

    @given(rules, rules)
    @settings(max_examples=60, deadline=None)
    def test_feed_witness_is_genuine(self, p, q):
        """Any returned witness really does increase the occurrence count."""
        witness = oracle_feeds(p, q, default_oracle_bound(p, q))
        if witness is not None:
            assert apply_rule(p, witness).count(q.source) > witness.count(
                q.source
            )

    @given(rules, rules)
    @settings(max_examples=60, deadline=None)
    def test_bleed_witness_is_genuine(self, p, q):
        witness = oracle_bleeds(p, q, default_oracle_bound(p, q))
        if witness is not None:
            assert apply_rule(p, witness).count(q.source) < witness.count(
                q.source
            )


def enumerate_witness(first, second, max_len, direction):
    """Reference oracle: try every string up to ``max_len`` over the oracle
    alphabet, shortest first and lexicographic within a length, and return
    the first on which applying ``first`` moves the count of
    ``second.source`` in ``direction`` (+1 feeds, -1 bleeds)."""
    symbols = _oracle_alphabet(first, second)
    pattern = second.source
    for n in range(1, max_len + 1):
        for chars in itertools.product(symbols, repeat=n):
            s = "".join(chars)
            if first.source not in s:
                continue
            delta = apply_rule(first, s).count(pattern) - s.count(pattern)
            if delta * direction > 0:
                return s
    return None


@st.composite
def oracle_cases(draw):
    symbols = draw(st.sampled_from(["a", "ab", "abc", "abcd"]))

    def side(min_size):
        return draw(st.text(alphabet=symbols, min_size=min_size, max_size=3))

    p = RewriteRule(side(1), side(0))
    q = RewriteRule(side(1), side(0))
    return p, q, draw(st.integers(min_value=1, max_value=7))


@given(oracle_cases())
@settings(max_examples=300, deadline=None)
def test_oracles_match_enumeration(case):
    p, q, bound = case
    assert oracle_feeds(p, q, bound) == enumerate_witness(p, q, bound, 1)
    assert oracle_bleeds(p, q, bound) == enumerate_witness(p, q, bound, -1)


def test_kmp_table_matches_its_definition():
    """Every character-equality pattern of 1-7 symbols, over its own symbols
    plus one fresh one: state k on symbol c goes to the length of the
    longest suffix of ``pattern[:k] + c`` that is a prefix of the pattern."""
    checked = 0
    for n in range(1, 8):
        for pattern in equality_patterns(n):
            alphabet = tuple(sorted(set(pattern) | {"z"}))
            table = _kmp_table(pattern, alphabet)
            assert len(table) == n
            for k, row in enumerate(table):
                for c, j in zip(alphabet, row):
                    text = pattern[:k] + c
                    border = max(i for i in range(k + 2) if text.endswith(pattern[:i]))
                    assert j == border, (pattern, k, c)
                    checked += 1
    assert checked == 35_522


@st.composite
def canonical_triples(draw):
    """(s, t, u) as ``_search`` receives them: sides over three letters,
    relabeled to ``chr(0)``, ``chr(1)``, ... by first appearance."""
    s = draw(st.text(alphabet="abc", min_size=1, max_size=3))
    t = draw(st.text(alphabet="abc", max_size=3))
    u = draw(st.text(alphabet="abc", min_size=1, max_size=3))
    code = {ord(c): i for i, c in enumerate(dict.fromkeys(s + t + u))}
    return s.translate(code), t.translate(code), u.translate(code)


@given(canonical_triples())
@settings(max_examples=100, deadline=None)
def test_product_matches_its_definition(triple):
    """Along every string w of up to 5 symbols over the classes, the edge
    weights and then the flush of the state reached sum to
    ``w.replace(s, t).count(u) - w.count(u)``."""
    s, t, u = triple
    edges, flush = _product(s, t, u)
    classes = [chr(c) for c in range(len(set(s + t + u)) + 1)]
    for n in range(6):
        for w in map("".join, itertools.product(classes, repeat=n)):
            state, total = 0, 0
            for c in w:
                state, weight = edges[state][ord(c)]
                total += weight
            assert total + flush[state] == w.replace(s, t).count(u) - w.count(u), (
                triple, w)


@st.composite
def long_oracle_cases(draw):
    """Sides of 4-6 symbols over two or three letters: patterns with nested
    borders (``abab``, ``aabaa``), where a wrongly built KMP table shows.
    Half the sides repeat a unit of 1-3 symbols, so that most have one."""
    symbols = draw(st.sampled_from(["ab", "abc"]))

    def side():
        size = draw(st.integers(min_value=4, max_value=6))
        if draw(st.booleans()):
            unit = draw(st.text(alphabet=symbols, min_size=1, max_size=3))
            return (unit * size)[:size]
        return draw(st.text(alphabet=symbols, min_size=size, max_size=size))

    p = RewriteRule(side(), side())
    q = RewriteRule(side(), side())
    return p, q, draw(st.integers(min_value=1, max_value=8))


@given(long_oracle_cases())
@settings(max_examples=150, deadline=None)
def test_oracles_match_enumeration_on_longer_sides(case):
    p, q, bound = case
    assert oracle_feeds(p, q, bound) == enumerate_witness(p, q, bound, 1)
    assert oracle_bleeds(p, q, bound) == enumerate_witness(p, q, bound, -1)


def test_oracles_share_products_only_within_an_alphabet():
    """Pairs A and B differ only in the second rule's target, which changes
    the oracle alphabet (``0`` sorts before the letters and shifts every
    symbol index). They share one search over the canonical classes, so
    each must be spelled over its own alphabet. Calls alternate between
    the pairs and between the oracles, and pair C asks for bleeding before
    feeding."""
    a = (R("ab", "ba"), R("ab", ""))
    b = (R("ab", "ba"), R("ab", "0"))
    c = (R("ba", "ab"), R("ab", "a"))
    assert _oracle_alphabet(*a) != _oracle_alphabet(*b)
    _product.cache_clear()
    calls = [
        (oracle_feeds, a, 1), (oracle_bleeds, b, -1), (oracle_bleeds, a, -1),
        (oracle_feeds, b, 1), (oracle_bleeds, c, -1), (oracle_feeds, c, 1),
    ]
    for oracle, (p, q), direction in calls:
        assert oracle(p, q, 5) == enumerate_witness(p, q, 5, direction), (oracle, p, q)


def test_oracles_answer_by_equality_pattern():
    """Pairs that share an equality pattern of (p.source, p.target,
    q.source), and so one cached search, but differ in symbol order and in
    alphabet: ``0`` in q.target sorts before the letters, and a q.target
    holding the whole pool makes the fresh symbol ``chr(0)``. Calls
    alternate between the patterns, the pairs and the oracles, with the
    caches left warm. The shortest feeding witnesses of ``a→b`` on ``bb``
    are ``aa`` and ``ab``, so which comes first depends on the order of
    the symbols, not on the pattern alone."""
    past_pool = (R("ab", "ba"), R("ab", _FRESH_POOL))
    assert _oracle_alphabet(*past_pool)[0] == chr(0)
    cases = [
        ((R("ab", "ba"), R("ab", "")), 5),
        ((R("ba", "ab"), R("ab", "a")), 5),
        ((R("ba", "ab"), R("ba", "")), 5),
        ((R("ab", "ba"), R("ba", "b")), 5),
        ((R("ab", "ba"), R("ab", "0")), 5),
        ((R("ba", "ab"), R("ab", "0")), 5),
        ((R("ba", "ab"), R("ba", "0")), 5),
        (past_pool, 2),
        ((R("a", "b"), R("bb", "")), 4),
        ((R("ab", "ba"), R("ab", "")), 2),
        ((R("b", "a"), R("aa", "")), 4),
        ((R("ab", ""), R("ba", "")), 4),
        ((R("b", "a"), R("aa", "0")), 4),
        ((R("ba", ""), R("ab", "c")), 4),
        ((R("a", "b"), R("bb", "0")), 4),
    ]
    for k, ((p, q), bound) in enumerate(cases):
        calls = [(oracle_feeds, 1), (oracle_bleeds, -1)]
        for oracle, direction in calls[:: 1 if k % 2 else -1]:
            assert oracle(p, q, bound) == enumerate_witness(p, q, bound, direction), (
                oracle, p, q, bound)


@st.composite
def relabeled_twins(draw):
    """An oracle case and its twin under a random injective map of its
    symbols, which may send them below the letters (``0``, ``Z``), and an
    order in which to ask for the four answers."""
    p, q, bound = draw(oracle_cases())
    used = sorted(set(p.source + p.target + q.source + q.target))
    image = draw(st.permutations("abcdeZ0"))
    relabel = dict(zip(used, image))

    def twin(rule):
        return RewriteRule(
            "".join(map(relabel.get, rule.source)),
            "".join(map(relabel.get, rule.target)),
        )

    calls = [
        (pair, oracle, direction)
        for pair in ((p, q), (twin(p), twin(q)))
        for oracle, direction in ((oracle_feeds, 1), (oracle_bleeds, -1))
    ]
    return draw(st.permutations(calls)), bound


@given(relabeled_twins())
@settings(max_examples=100, deadline=None)
def test_relabeled_twins_match_enumeration(case):
    calls, bound = case
    for (p, q), oracle, direction in calls:
        assert oracle(p, q, bound) == enumerate_witness(p, q, bound, direction)


@pytest.mark.parametrize("name", sorted(
    name for name, value in vars(relations).items()
    if hasattr(value, "cache_parameters")
))
def test_relation_caches_are_bounded(name):
    """Every cache the module holds, found by its ``cache_parameters``."""
    assert getattr(relations, name).cache_parameters()["maxsize"] is not None


def _random_rule(rng):
    return RewriteRule(
        "".join(rng.choice("abc") for _ in range(rng.randint(1, 2))),
        "".join(rng.choice("abc") for _ in range(rng.randint(1, 2))),
    )


@pytest.mark.xfail(
    reason="the symbolic classifier (substring/prefix/suffix conditions) and "
    "the count-increase witness oracle diverge on pairs where replacement "
    "multiplies or adjacency-shifts an already-present substring; see the "
    "acceptance suite for the full-corpus tally",
    strict=True,
)
def test_oracle_equivalence_sample():
    rng = random.Random(11)
    for _ in range(600):
        p, q = _random_rule(rng), _random_rule(rng)
        bound = default_oracle_bound(p, q)
        assert (oracle_feeds(p, q, bound) is not None) == feeds(p, q)
        assert (oracle_bleeds(p, q, bound) is not None) == bleeds(p, q)


def test_oracles_match_enumeration_on_criterion_1_corpus():
    """The first 300 pairs of the acceptance suite's criterion-1 corpus."""
    rng = random.Random(0)
    for _ in range(300):
        p, q = _random_rule(rng), _random_rule(rng)
        bound = default_oracle_bound(p, q)
        assert oracle_feeds(p, q, bound) == enumerate_witness(p, q, bound, 1)
        assert oracle_bleeds(p, q, bound) == enumerate_witness(p, q, bound, -1)


def test_criterion_1_corpus_searches_once_per_pattern():
    """The search is cached on the equality pattern, not the symbols:
    criterion 1's 10,000 pairs make 584 searches (pattern, bound and
    sign), so a change that drops the reduction shows here."""
    _search.cache_clear()
    rng = random.Random(0)
    for _ in range(10_000):
        p, q = _random_rule(rng), _random_rule(rng)
        bound = default_oracle_bound(p, q)
        oracle_feeds(p, q, bound)
        oracle_bleeds(p, q, bound)
    assert _search.cache_info().misses <= 600
