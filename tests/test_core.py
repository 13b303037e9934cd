"""Execution-semantics tests: worked examples plus property checks against
independent brute-force oracles."""

import functools

import pytest
from hypothesis import given, settings, strategies as st

from rewritebench.core import (
    Alphabet,
    EmptySourceError,
    RewriteRule,
    apply_cascade,
    apply_rule,
    count_occurrences,
    levenshtein,
    levenshtein_vec,
    string_sets,
    substrings_of_length,
)


@functools.lru_cache(maxsize=None)
def naive_levenshtein(a: str, b: str) -> int:
    # Textbook recursion, independent of the two-row DP in the package.
    if not a:
        return len(b)
    if not b:
        return len(a)
    cost = 0 if a[-1] == b[-1] else 1
    return min(
        naive_levenshtein(a[:-1], b) + 1,
        naive_levenshtein(a, b[:-1]) + 1,
        naive_levenshtein(a[:-1], b[:-1]) + cost,
    )


short_text = st.text(alphabet="abc", max_size=8)
rules = st.builds(
    RewriteRule,
    st.text(alphabet="abc", min_size=1, max_size=2),
    st.text(alphabet="abc", max_size=2),
)


class TestApplyRule:
    def test_single_occurrence_rewrite(self):
        assert apply_rule(RewriteRule("c", "wa"), "wcw") == "wwaw"

    def test_identity_rule(self):
        assert apply_rule(RewriteRule("x", "x"), "hwwgdb") == "hwwgdb"

    def test_non_overlapping_single_pass(self):
        # "aaa" has one full match then a leftover "a"; emitted text is not
        # rescanned.
        assert apply_rule(RewriteRule("aa", "b"), "aaa") == "ba"

    def test_deletion(self):
        assert apply_rule(RewriteRule("b", ""), "aba") == "aa"

    def test_empty_source_rejected(self):
        with pytest.raises(EmptySourceError):
            apply_rule(RewriteRule("", "x"), "abc")

    @given(rules, short_text)
    def test_no_occurrence_noop(self, rule, s):
        if rule.source not in s:
            assert apply_rule(rule, s) == s

    @given(st.text(alphabet="ab", min_size=1, max_size=2), short_text)
    def test_deletion_length_law(self, source, s):
        rule = RewriteRule(source, "")
        k = s.count(source)
        assert len(apply_rule(rule, s)) == len(s) - k * len(source)


class TestApplyCascade:
    def test_worked_example(self):
        cascade = (RewriteRule("bc", "dc"), RewriteRule("ad", "ed"))
        assert apply_cascade(cascade, ["abc", "ebc", "aba"]) == [
            "edc", "edc", "aba",
        ]

    def test_empty_cascade_is_identity(self):
        assert apply_cascade((), ["x", "y"]) == ["x", "y"]

    def test_trace_intermediates(self):
        outputs, trace = apply_cascade(
            (RewriteRule("c", "wa"),), ["wcw"], trace=True
        )
        assert trace[0] == ["wcw"]
        assert trace[1] == ["wwaw"] == outputs

    @given(
        st.lists(rules, max_size=4),
        st.lists(rules, max_size=4),
        st.lists(short_text, min_size=1, max_size=3),
    )
    def test_composition(self, part1, part2, vec):
        whole = tuple(part1) + tuple(part2)
        assert apply_cascade(whole, vec) == apply_cascade(
            part2, apply_cascade(part1, vec)
        )


class TestStringSets:
    def test_abc(self):
        sub, pref, suff = string_sets("abc")
        assert sub == {"a", "b", "c", "ab", "bc", "abc"}
        assert pref == {"a", "ab", "abc"}
        assert suff == {"c", "bc", "abc"}

    def test_empty(self):
        assert string_sets("") == (frozenset(), frozenset(), frozenset())

    def test_duplicates_collapse(self):
        sub, _, _ = string_sets("aa")
        assert sub == {"a", "aa"}

    @given(short_text)
    def test_against_brute_force(self, s):
        sub, pref, suff = string_sets(s)
        expected = {
            s[i:j] for i in range(len(s)) for j in range(i + 1, len(s) + 1)
        }
        assert sub == expected
        assert pref == {p for p in expected if s.startswith(p)}
        assert suff == {p for p in expected if s.endswith(p)}
        assert "" not in sub


class TestLevenshtein:
    @pytest.mark.parametrize(
        "a,b,d",
        [
            ("kitten", "sitting", 3),
            ("", "abc", 3),
            ("zzb", "ac", 3),
            ("ab", "ac", 1),
        ],
    )
    def test_known_distances(self, a, b, d):
        assert levenshtein(a, b) == d

    @given(short_text, short_text)
    @settings(max_examples=150)
    def test_matches_naive_oracle(self, a, b):
        assert levenshtein(a, b) == naive_levenshtein(a, b)

    @given(short_text, short_text, short_text)
    @settings(max_examples=100)
    def test_metric_axioms(self, a, b, c):
        assert levenshtein(a, b) >= 0
        assert (levenshtein(a, b) == 0) == (a == b)
        assert levenshtein(a, b) == levenshtein(b, a)
        assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)

    def test_vec_sum(self):
        assert levenshtein_vec(["ab", "x"], ["ac", "xy"]) == 2
        assert levenshtein_vec(["ab"], ["ab"]) == 0

    def test_vec_length_mismatch(self):
        with pytest.raises(ValueError):
            levenshtein_vec(["a"], ["a", "b"])


class TestHelpers:
    def test_count_occurrences_matches_replace_scan(self):
        assert count_occurrences("aa", "aaa") == 1
        assert count_occurrences("a", "aaa") == 3

    def test_count_empty_pattern_rejected(self):
        with pytest.raises(EmptySourceError):
            count_occurrences("", "abc")

    def test_substrings_of_length(self):
        assert substrings_of_length(["aba", "bc"], 2) == ["ab", "ba", "bc"]
        assert substrings_of_length(["a"], 2) == []

    @given(st.lists(short_text, max_size=5), st.integers(1, 4))
    def test_substrings_of_length_matches_slices(self, items, length):
        # Length 1 takes a shortcut over the joined characters.
        expected = sorted({
            s[i : i + length] for s in items for i in range(len(s) - length + 1)
        })
        assert substrings_of_length(items, length) == expected

    def test_alphabet_validation(self):
        with pytest.raises(ValueError):
            Alphabet.from_string("aa")
        with pytest.raises(ValueError):
            Alphabet(())
        assert Alphabet.from_string("abc").symbols == ("a", "b", "c")
