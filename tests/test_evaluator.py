"""Evaluator tests: extraction, normalization, scoring, the pass@k
estimator against an enumeration oracle, and the breakdown reports."""

import ast
import itertools
import json
import re
from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

from rewritebench.core import RewriteRule, apply_cascade, levenshtein_vec
from rewritebench.evaluator import (
    _PLAIN_RE,
    INVALID_CATEGORY,
    EvalRecord,
    ReorderEval,
    aggregate_pbe,
    aggregate_reorder,
    breakdown_reports,
    evaluate_pbe,
    evaluate_reorder,
    extract_pbe_prediction,
    extract_permutation,
    normalize_cascade,
    parse_rule_string,
    pass_at_k_estimate,
)
from rewritebench.gateway import PbeTask
from rewritebench.permuter import ReorderInstance
from rewritebench.proposer import PbeInstance
from rewritebench.relations import classify_bfcc


def make_instance(rules, inputs, id="inst"):
    cascade = tuple(RewriteRule(a, b) for a, b in rules)
    outputs = tuple(apply_cascade(cascade, inputs))
    category, edges = classify_bfcc(cascade)
    return PbeInstance(
        id=id, inputs=tuple(inputs), cascade=cascade, outputs=outputs,
        category=category, fb_edges=tuple(edges),
    )


class TestRuleParsing:
    @pytest.mark.parametrize(
        "text,source,target",
        [
            ("replace('ab','bc')", "ab", "bc"),
            ('replace("ab", "bc")', "ab", "bc"),
            ("  replace( 'a' , '' ) ", "a", ""),
            (r"replace('a\'b', 'c')", "a'b", "c"),
            (r"replace('a\\n', 'c')", "a\\n", "c"),
        ],
    )
    def test_valid(self, text, source, target):
        assert parse_rule_string(text) == RewriteRule(source, target)

    @pytest.mark.parametrize(
        "text",
        ["replace(ab, bc)", "substitute('a','b')", "replace('a')",
         "replace('a','b','c')", "'a' -> 'b'"],
    )
    def test_invalid(self, text):
        assert parse_rule_string(text) is None


class TestExtraction:
    def test_single_block(self):
        text = "Here:\n```python\n[\"replace('ab','bc')\"]\n```\n"
        assert extract_pbe_prediction(text) == (RewriteRule("ab", "bc"),)

    def test_first_and_last_blocks(self):
        text = (
            "```python\n[\"replace('a','b')\"]\n```\n"
            "thinking...\n"
            "```python\n[\"replace('c','d')\"]\n```\n"
        )
        assert extract_pbe_prediction(text) == (RewriteRule("c", "d"),)

    def test_last_list_in_block_wins(self):
        text = (
            "```python\n"
            "[\"replace('a','b')\"]\n"
            "[\"replace('x','y')\"]\n"
            "```\n"
        )
        assert extract_pbe_prediction(text) == (RewriteRule("x", "y"),)

    def test_refusal_is_null(self):
        assert extract_pbe_prediction("I cannot solve this.") is None

    def test_empty_text_is_null(self):
        assert extract_pbe_prediction("") is None

    def test_block_with_bad_elements_is_skipped(self):
        text = "```python\n['not a rule']\n```"
        assert extract_pbe_prediction(text) is None

    def test_no_language_tag(self):
        text = "```\n[\"replace('a','b')\"]\n```"
        assert extract_pbe_prediction(text) == (RewriteRule("a", "b"),)


class TestPathologicalReplies:
    """Replies that make the parsers recurse too deep, run out of memory or
    build an unhashable set count as holding no answer."""

    def test_deeply_nested_json_array(self):
        depth = 100_000
        text = "```json\n" + "[" * depth + "]" * depth + "\n```"
        assert extract_permutation(text, 3) is None

    @pytest.mark.parametrize("signs", [3_000, 10_000])
    def test_long_chain_of_unary_minus(self, signs):
        text = "```python\n[" + "-" * signs + "1]\n```"
        assert extract_pbe_prediction(text) is None

    def test_unhashable_set_element(self):
        assert extract_pbe_prediction("```python\n[{{}}]\n```") is None

    def test_integer_over_the_digit_limit(self):
        text = "```json\n[" + "1" * 5_000 + "]\n```"
        assert extract_permutation(text, 1) is None


# The extraction as it stood before plain literals were read directly: every
# literal goes through ast.literal_eval. The error tuple is the one the
# evaluator now catches; the older code let TypeError, MemoryError and
# RecursionError through.
_REF_FENCE_RE = re.compile(r"```[^\n]*\n(.*?)```", re.DOTALL)
_REF_QUOTED = r"""(?:'(?:\\.|[^'\\])*'|"(?:\\.|[^"\\])*")"""
_REF_RULE_RE = re.compile(
    rf"^\s*replace\s*\(\s*({_REF_QUOTED})\s*,\s*({_REF_QUOTED})\s*\)\s*$"
)
_REF_LIST_RE = re.compile(r"\[[^\[\]]*\]", re.DOTALL)
_REF_ERRORS = (ValueError, TypeError, SyntaxError, MemoryError, RecursionError)


def reference_parse_rule_string(text):
    m = _REF_RULE_RE.match(text)
    if not m:
        return None
    try:
        source = ast.literal_eval(m.group(1))
        target = ast.literal_eval(m.group(2))
    except _REF_ERRORS:
        return None
    if not isinstance(source, str) or not isinstance(target, str):
        return None
    return RewriteRule(source, target)


def reference_cascade_from_block(body):
    result = None
    for candidate in _REF_LIST_RE.findall(body):
        try:
            items = ast.literal_eval(candidate)
        except _REF_ERRORS:
            continue
        if not isinstance(items, list):
            continue
        if not all(isinstance(x, str) for x in items):
            continue
        rules = [reference_parse_rule_string(x) for x in items]
        if any(r is None for r in rules):
            continue
        result = tuple(rules)
    return result


def reference_extract_pbe_prediction(text):
    last = None
    for m in _REF_FENCE_RE.finditer(text or ""):
        cascade = reference_cascade_from_block(m.group(1))
        if cascade is not None:
            last = cascade
    return last


# Pieces of replies: quotes, escapes, the characters that end the direct
# reading of a literal, comments, prefixes, separators and fences.
_PIECES = [
    "'", '"', "\\", "\\'", '\\"', "\\n", "\\N{BULLET}", "\\x41", "\x00",
    "\r", "\n", "\t", "\x0c", "\ud800", "#", "b'", "r'", "f'", "u'", "```",
    "```python\n", "[", "]", "{", "}", ",", " ", "replace(", ")", "a", "ab",
    "\u00e9", "'a'", '"b"', "replace('a','b')", "\"replace('a','b')\"",
    "'replace(\"a\",\"b\")'", "1", "-", "None",
]
_soup = st.lists(st.sampled_from(_PIECES), max_size=30).map("".join)
_plain_body = st.text(alphabet="ab #,\u00e9", max_size=3)
_body = st.one_of(
    _plain_body,
    _plain_body,
    st.lists(
        st.sampled_from(["a", "'", '"', "\\", "\x00", "\n", "\r", "\x0c",
                         "\ud800"]),
        max_size=4,
    ).map("".join),
)
_quote = st.sampled_from(["'", '"'])
_rule_text = st.builds(
    lambda q1, a, q2, b, gap: f"replace({q1}{a}{q1},{gap}{q2}{b}{q2})",
    _quote, _body, _quote, _body, st.sampled_from(["", " "]),
)


# What ``\s`` matches around the tokens of a rule, ASCII and Unicode.
_gap = st.text(alphabet=" \t\x0b\x1c\x85\xa0\u3000", max_size=2)
# Mostly none: a prefixed literal is never read directly.
_prefix = st.sampled_from(["", "", "", "", "", "r", "b"])


@st.composite
def _item(draw):
    """A quoted list element: mostly a replace call whose arguments use the
    other quote kind (either pairing), with whitespace around every token
    and now and then a prefix; sometimes any quoted rule text or body."""
    outer = draw(_quote)
    if draw(st.integers(0, 3)) == 0:
        return draw(_prefix) + outer + draw(st.one_of(_rule_text, _body)) + outer
    inner = "'" if outer == '"' else '"'
    source, target = (
        draw(_prefix) + inner + draw(_body) + inner for _ in range(2)
    )
    g = [draw(_gap) for _ in range(7)]
    return (f"{outer}{g[0]}replace{g[1]}({g[2]}{source}{g[3]},{g[4]}{target}"
            f"{g[5]}){g[6]}{outer}")


@st.composite
def _list_reply(draw):
    """A fenced list of quoted items with separators that do and do not keep
    the direct reading: no comma between two literals concatenates them."""
    items = draw(st.lists(_item(), max_size=4))
    text = "["
    for i, item in enumerate(items):
        text += draw(st.sampled_from(["", " ", "\n"])) + item
        if i < len(items) - 1:
            text += draw(st.sampled_from(
                [",", ", ", ",\n", "", " ", " ,", "\n,\t", ",,", "\r,", "\x0c,"]
            ))
    text += draw(st.sampled_from(["", ",", " ,", ", \n"])) + "]"
    return f"```python\n{text}\n```"


# ast.literal_eval warns about the backslash pieces it reads.
@pytest.mark.filterwarnings("ignore:invalid escape sequence")
class TestPlainLiteralReading:
    """Reading plain literals directly gives what ast.literal_eval gives."""

    @given(st.one_of(_soup, _soup.map(lambda t: f"```python\n[{t}]\n```")))
    @settings(max_examples=300)
    def test_extraction_matches_literal_eval(self, text):
        assert extract_pbe_prediction(text) == (
            reference_extract_pbe_prediction(text)
        )

    @given(_list_reply())
    @example("```python\n[\"replace('a','b')\" \"replace('c','d')\"]\n```")
    @example("```python\n[\"replace('a','b')\" ,\n\t'replace(\"c\",\"d\")',]\n```")
    @example("```python\n[,]\n```")
    @example("```python\n[\"replace('a','b')\",,]\n```")
    @example("```python\n['\x85replace\t(\xa0\"\"\x0b,\x1c\"b\" ) ']\n```")
    @example("```python\n[\"replace(r'a', 'b')\", b\"replace('a', 'b')\"]\n```")
    @settings(max_examples=300)
    def test_list_extraction_matches_literal_eval(self, text):
        assert extract_pbe_prediction(text) == (
            reference_extract_pbe_prediction(text)
        )

    @given(st.one_of(_soup, _soup.map(lambda t: f"replace({t})"), _rule_text))
    @settings(max_examples=300)
    def test_rule_parsing_matches_literal_eval(self, text):
        assert parse_rule_string(text) == reference_parse_rule_string(text)

    @given(st.one_of(
        st.characters(),
        st.characters(categories=["Cs"]),
        st.sampled_from(["\\", "\x00", "\n", "\r"]),
    ), _quote)
    def test_direct_reading_needs_a_character_that_reads_as_itself(
        self, char, quote
    ):
        token = quote + char + quote
        try:
            reads_as_itself = ast.literal_eval(token) == char
        except (ValueError, SyntaxError):
            reads_as_itself = False
        if char == quote:
            # Two quotes then a third: never one plain literal.
            assert _PLAIN_RE.fullmatch(token) is None
        else:
            assert (_PLAIN_RE.fullmatch(token) is not None) == reads_as_itself


class TestNormalization:
    def test_truncation(self):
        raw = tuple(RewriteRule("a", "b") for _ in range(7))
        norm = normalize_cascade(raw, s_max=3, L_max=5, identity_symbol="a")
        assert norm.rules == raw[:5]
        assert norm.per_rule_valid == (True,) * 7

    def test_overlong_source_substituted(self):
        raw = (RewriteRule("abcd", "x"),)
        norm = normalize_cascade(raw, s_max=3, L_max=5, identity_symbol="q")
        assert norm.rules == (RewriteRule("q", "q"),)
        assert norm.per_rule_valid == (False,)

    def test_empty_source_substituted(self):
        raw = (RewriteRule("", "x"),)
        norm = normalize_cascade(raw, s_max=3, L_max=5, identity_symbol="a")
        assert norm.rules == (RewriteRule("a", "a"),)

    def test_empty_target_is_valid(self):
        raw = (RewriteRule("ab", ""),)
        norm = normalize_cascade(raw, s_max=3, L_max=5, identity_symbol="a")
        assert norm.per_rule_valid == (True,)

    @given(
        st.lists(st.builds(RewriteRule, st.text("ab", max_size=5),
                           st.text("ab", max_size=5)), max_size=8),
        st.integers(1, 4), st.integers(1, 6),
    )
    @settings(max_examples=300)
    def test_matches_truncate_then_substitute(self, raw, s_max, L_max):
        def valid(rule):
            return 1 <= len(rule.source) <= s_max and len(rule.target) <= s_max

        norm = normalize_cascade(tuple(raw), s_max, L_max, "q")
        identity = RewriteRule("q", "q")
        assert norm.rules == tuple(
            r if valid(r) else identity for r in raw[:L_max]
        )
        assert norm.per_rule_valid == tuple(valid(r) for r in raw)

    def test_validity_counted_pre_truncation(self):
        raw = tuple(RewriteRule("a", "b") for _ in range(5)) + (
            RewriteRule("toolong", "x"),
        )
        norm = normalize_cascade(raw, s_max=3, L_max=5, identity_symbol="a")
        assert norm.per_rule_valid == (True,) * 5 + (False,)
        assert norm.valid_fraction == pytest.approx(5 / 6)


class TestScoreAttempt:
    @pytest.mark.parametrize(
        "text,extracted,length,category,complexity",
        [
            # An empty list is a parseable, empty cascade: it executes
            # nothing, and it is not a null prediction.
            ("```python\n[]\n```", True, 0, "0000", 0),
            # It is the last parseable block even after a non-empty one, and
            # a later block that holds no list does not replace it.
            (
                "```python\n[\"replace('a','b')\"]\n```\n"
                "```python\n[]\n```\n```\nnot a list\n```",
                True, 0, "0000", 0,
            ),
            # No parseable block executes the identity rule ('a', 'a').
            ("no code here", False, 0, INVALID_CATEGORY, 2),
        ],
    )
    def test_last_parseable_block_or_identity(
        self, text, extracted, length, category, complexity
    ):
        inst = make_instance([("a", "b")], ["ab", "ba"])
        record, found = PbeTask().score(inst, text, 0)
        assert found is extracted
        assert record.pred_length == length
        assert record.pred_category == category
        assert record.complexity == complexity

    def test_empty_cascade_has_valid_rate_zero(self):
        # An empty cascade holds no valid rule, so its valid rate is 0, not 1.
        assert normalize_cascade((), 3, 5, "a").valid_fraction == 0.0
        inst = make_instance([("a", "b")], ["ab", "ba"])
        record, found = PbeTask().score(inst, "```python\n[]\n```", 0)
        assert found
        assert record.valid_rate_contrib == 0.0


_rules = st.lists(
    st.tuples(st.text("abc", min_size=1, max_size=3), st.text("abc", max_size=3)),
    min_size=1, max_size=4,
)


@st.composite
def _pbe_instances(draw):
    rules = draw(_rules)
    inputs = draw(st.lists(st.text("abc", max_size=6), min_size=1, max_size=4))
    return make_instance(rules, inputs)


def reference_evaluate_pbe(instance, prediction, identity_symbol, attempt_index):
    """evaluate_pbe longhand, computing both distances on every call."""
    if prediction is None:
        executed = (RewriteRule(identity_symbol, identity_symbol),)
        valid, length, category = 0.0, 0, INVALID_CATEGORY
    else:
        executed = prediction.rules
        valid, length = prediction.valid_fraction, len(executed)
        category = classify_bfcc(executed)[0]
    pred_outputs = tuple(apply_cascade(executed, instance.inputs))
    d_pred = levenshtein_vec(pred_outputs, instance.outputs)
    d_inputs = levenshtein_vec(instance.inputs, instance.outputs)
    passed = pred_outputs == instance.outputs
    if passed:
        edit_sim = 1.0
    elif d_inputs == 0:
        edit_sim = 0.0
    else:
        edit_sim = 1.0 - d_pred / d_inputs
    return EvalRecord(
        instance_id=instance.id, passed=passed, edit_sim=edit_sim,
        valid_rate_contrib=valid,
        complexity=sum(len(r.source) + len(r.target) for r in executed),
        attempt_index=attempt_index, pred_length=length,
        pred_category=category, degenerate_denominator=d_inputs == 0,
    )


class TestEvaluatePbe:
    def test_ground_truth_passes(self):
        inst = make_instance([("bc", "dc"), ("ad", "ed")], ["abc", "ebc", "aba"])
        norm = normalize_cascade(inst.cascade, 3, 5, "a")
        record = evaluate_pbe(inst, norm)
        assert record.passed and record.edit_sim == 1.0
        assert record.valid_rate_contrib == 1.0

    def test_null_prediction_scores_zero(self):
        inst = make_instance([("a", "b")], ["aa"])
        record = evaluate_pbe(inst, None)
        assert not record.passed
        assert record.edit_sim == 0.0
        assert record.pred_length == 0
        assert record.pred_category == INVALID_CATEGORY

    def test_negative_edit_sim_fixture(self):
        # making things worse than doing nothing goes below zero
        inst = make_instance([("b", "c")], ["ab"])
        assert inst.outputs == ("ac",)
        norm = normalize_cascade((RewriteRule("a", "zz"),), 3, 5, "a")
        record = evaluate_pbe(inst, norm)
        assert record.edit_sim == -2.0
        assert not record.degenerate_denominator

    def test_degenerate_denominator(self):
        # the cascade leaves the inputs as they are, so the inputs are at
        # edit distance 0 from the outputs
        inst = make_instance([("z", "y")], ["ab", "ba"])
        assert inst.outputs == inst.inputs
        identity = normalize_cascade((RewriteRule("q", "r"),), 3, 5, "a")
        passing = evaluate_pbe(inst, identity)
        assert passing.passed and passing.degenerate_denominator
        assert passing.edit_sim == 1.0
        wrong = normalize_cascade((RewriteRule("a", "c"),), 3, 5, "a")
        failing = evaluate_pbe(inst, wrong)
        assert not failing.passed and failing.degenerate_denominator
        assert failing.edit_sim == 0.0

    def test_complexity_of_executed_cascade(self):
        inst = make_instance([("a", "b")], ["aa"])
        norm = normalize_cascade(
            (RewriteRule("ab", "c"), RewriteRule("x", "")), 3, 5, "a"
        )
        assert evaluate_pbe(inst, norm).complexity == 4

    @given(_pbe_instances(), st.data())
    @settings(max_examples=300)
    def test_same_record_as_computing_both_distances(self, inst, data):
        """Predictions that change nothing (none, identity rules) skip the
        distances; every field, bytes of edit_sim included, is unchanged."""
        prediction = data.draw(st.one_of(
            st.none(),
            _rules.map(lambda rules: tuple(RewriteRule(a, a) for a, _ in rules)),
            _rules.map(lambda rules: tuple(RewriteRule(a, b) for a, b in rules)),
        ))
        norm = None if prediction is None else normalize_cascade(
            prediction, 3, 5, "a"
        )
        got = evaluate_pbe(inst, norm, "a", 2)
        want = reference_evaluate_pbe(inst, norm, "a", 2)
        assert json.dumps(got.to_dict()) == json.dumps(want.to_dict())


class TestEvalRecordFromDict:
    def _record(self):
        inst = make_instance([("ab", "c")], ["abab"])
        return evaluate_pbe(inst, normalize_cascade((RewriteRule("a", "b"),), 3, 5, "a"))

    def test_round_trip(self):
        record = self._record()
        assert EvalRecord.from_dict(record.to_dict()) == record

    def test_integral_number_accepted(self):
        data = dict(self._record().to_dict(), edit_sim=0, valid_rate_contrib=1)
        assert EvalRecord.from_dict(data).edit_sim == 0

    @pytest.mark.parametrize("field, value, what", [
        ("instance_id", 5, "a string"),
        ("pred_category", None, "a string"),
        ("passed", 1, "a boolean"),
        ("degenerate_denominator", "false", "a boolean"),
        ("complexity", 1.0, "an integer"),
        ("pred_length", [1], "an integer"),
        ("attempt_index", False, "an integer"),
        ("edit_sim", "x", "a number"),
        ("valid_rate_contrib", True, "a number"),
    ])
    def test_wrong_type_rejected(self, field, value, what):
        data = dict(self._record().to_dict(), **{field: value})
        with pytest.raises(TypeError, match=f"^{field} .* is not {what}$"):
            EvalRecord.from_dict(data)

    @pytest.mark.parametrize("category", ["11", "1x00", "", "invalid", "00000"])
    def test_unknown_pred_category_rejected(self, category):
        data = dict(self._record().to_dict(), pred_category=category)
        with pytest.raises(
            ValueError, match=f"^pred_category {category!r} is not a category"
        ):
            EvalRecord.from_dict(data)

    @pytest.mark.parametrize("category", ["0000", "1111", INVALID_CATEGORY])
    def test_every_category_and_invalid_accepted(self, category):
        data = dict(self._record().to_dict(), pred_category=category)
        assert EvalRecord.from_dict(data).pred_category == category


class TestReorderEvalFromDict:
    @pytest.mark.parametrize("perm", [None, [1, 0]])
    def test_round_trip(self, perm):
        record = ReorderEval(passed=perm is not None, perm=perm, attempt_index=2)
        assert list(record.to_dict()) == ["passed", "perm", "attempt_index"]
        assert ReorderEval.from_dict(record.to_dict()) == record

    @pytest.mark.parametrize("field, value, what", [
        ("passed", 0, "not a boolean"),
        ("perm", "x", "neither null nor a list of integers"),
        ("perm", [True], "neither null nor a list of integers"),
        ("attempt_index", 1.0, "not an integer"),
    ])
    def test_wrong_type_rejected(self, field, value, what):
        data = dict(ReorderEval(True, [0], 0).to_dict(), **{field: value})
        with pytest.raises(TypeError, match=f"^{field} .* is {what}$"):
            ReorderEval.from_dict(data)


class TestAggregation:
    def test_means(self):
        inst_pass = make_instance([("a", "b")], ["aa"], id="p")
        inst_fail = make_instance([("a", "b")], ["aa"], id="f")
        rec_pass = evaluate_pbe(
            inst_pass, normalize_cascade(inst_pass.cascade, 3, 5, "a")
        )
        rec_fail = evaluate_pbe(inst_fail, None)
        metrics = aggregate_pbe([rec_pass, rec_fail])
        assert metrics.pass_at_1 == 0.5
        assert metrics.edit_sim == 0.5
        assert metrics.count == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_pbe([])


class TestPassAtK:
    def test_hand_values(self):
        assert pass_at_k_estimate(1, 1, 1) == 1.0
        assert pass_at_k_estimate(4, 2, 2) == pytest.approx(5 / 6)
        assert pass_at_k_estimate(10, 0, 3) == 0.0

    def test_matches_enumeration_for_small_n(self):
        for n in range(1, 7):
            for c in range(n + 1):
                for k in range(1, n + 1):
                    outcomes = [True] * c + [False] * (n - c)
                    hits = sum(
                        any(subset)
                        for subset in itertools.combinations(outcomes, k)
                    )
                    total = sum(
                        1 for _ in itertools.combinations(outcomes, k)
                    )
                    assert pass_at_k_estimate(n, c, k) == pytest.approx(
                        hits / total
                    )

    @given(st.integers(1, 12), st.data())
    @settings(max_examples=80)
    def test_monotonic(self, n, data):
        c = data.draw(st.integers(0, n))
        k = data.draw(st.integers(1, n))
        v = pass_at_k_estimate(n, c, k)
        if k < n:
            assert pass_at_k_estimate(n, c, k + 1) >= v - 1e-12
        if c < n:
            assert pass_at_k_estimate(n, c + 1, k) >= v - 1e-12

    @given(st.integers(1, 400), st.data())
    @settings(max_examples=300)
    def test_same_float_as_the_exact_fraction(self, n, data):
        c = data.draw(st.integers(0, n))
        k = data.draw(st.integers(1, n))
        expected = 1.0 if n - c < k else float(
            1 - Fraction(comb(n - c, k), comb(n, k))
        )
        assert pass_at_k_estimate(n, c, k) == expected

    def test_bad_params(self):
        with pytest.raises(ValueError):
            pass_at_k_estimate(3, 4, 1)
        with pytest.raises(ValueError):
            pass_at_k_estimate(3, 1, 0)


class TestPermutationExtraction:
    def test_json_block(self):
        assert extract_permutation("```json\n[2,0,1]\n```", 3) == [2, 0, 1]

    def test_not_a_permutation(self):
        assert extract_permutation("```json\n[0,0,1]\n```", 3) is None

    def test_last_block_used(self):
        text = "```json\n[0,1,2]\n```\n```json\n[2,1,0]\n```"
        assert extract_permutation(text, 3) == [2, 1, 0]

    def test_no_block(self):
        assert extract_permutation("the order is 2,0,1", 3) is None

    def test_wrong_size(self):
        assert extract_permutation("```json\n[0,1]\n```", 3) is None


class TestEvaluateReorder:
    def _instance(self):
        return ReorderInstance(
            source_id="x",
            inputs=("a",),
            outputs=("x",),
            scrambled=(RewriteRule("bc", "x"), RewriteRule("a", "bc")),
            gt_order=(1, 0),
            n_valid_orders=1,
            is_unique=True,
        )

    def test_gt_order_correct(self):
        assert evaluate_reorder(self._instance(), [1, 0])

    def test_identity_order_incorrect(self):
        assert not evaluate_reorder(self._instance(), [0, 1])

    def test_absent_perm(self):
        assert not evaluate_reorder(self._instance(), None)

    def test_commuting_alternative_order_counts(self):
        inst = ReorderInstance(
            source_id="x",
            inputs=("ac",),
            outputs=("bd",),
            scrambled=(RewriteRule("c", "d"), RewriteRule("a", "b")),
            gt_order=(1, 0),
        )
        assert evaluate_reorder(inst, [0, 1])
        assert evaluate_reorder(inst, [1, 0])

    def test_aggregate(self):
        unique = self._instance()
        free = ReorderInstance(
            source_id="y", inputs=("a",), outputs=("b",),
            scrambled=(RewriteRule("a", "b"),), gt_order=(0,),
            n_valid_orders=1, is_unique=False,
        )
        metrics = aggregate_reorder(
            [(unique, True), (unique, False), (free, True), (free, True)]
        )
        assert metrics.acc == 0.75
        assert metrics.uacc == 0.5
        assert metrics.unique_count == 2

    def test_uacc_absent_without_unique_instances(self):
        free = self._instance()
        free = ReorderInstance(
            source_id="y", inputs=free.inputs, outputs=free.outputs,
            scrambled=free.scrambled, gt_order=free.gt_order,
            n_valid_orders=2, is_unique=False,
        )
        metrics = aggregate_reorder([(free, True)])
        assert metrics.uacc is None


class TestBreakdowns:
    def _records_and_instances(self):
        instances = [
            make_instance([("bc", "dc"), ("ad", "ed")], ["abc"], id="i0"),
            make_instance([("a", "b")], ["aa"], id="i1"),
        ]
        records = [
            evaluate_pbe(
                instances[0], normalize_cascade(instances[0].cascade, 3, 5, "a")
            ),
            evaluate_pbe(instances[1], None),
        ]
        return records, instances

    def test_self_eval_diagonal(self):
        instances = [
            make_instance([("bc", "dc"), ("ad", "ed")], ["abc"], id="i0"),
            make_instance([("a", "b"), ("b", "c")], ["aa"], id="i1"),
        ]
        records = [
            evaluate_pbe(inst, normalize_cascade(inst.cascade, 3, 5, "a"))
            for inst in instances
        ]
        bundle = breakdown_reports(records, instances)
        for gt_len, row in bundle.length_confusion.items():
            assert row == {gt_len: row[gt_len]}

    def test_null_row(self):
        records, instances = self._records_and_instances()
        bundle = breakdown_reports(records, instances)
        assert bundle.length_confusion[1] == {0: 1}
        assert bundle.category_confusion[instances[1].category] == {
            INVALID_CATEGORY: 1,
        }

    def test_row_sums_conserved(self):
        records, instances = self._records_and_instances()
        bundle = breakdown_reports(records, instances)
        total = sum(
            c for row in bundle.length_confusion.values() for c in row.values()
        )
        assert total == len(instances)

    def test_relation_tables_partition(self):
        records, instances = self._records_and_instances()
        bundle = breakdown_reports(records, instances)
        for tables in bundle.relation_tables.values():
            count = sum(
                sum(side.values()) for side in tables.values()
            )
            assert count == len(instances)


class TestRoundTrip:
    @given(
        st.lists(
            st.builds(
                RewriteRule,
                st.text(alphabet="abc", min_size=1, max_size=3),
                st.text(alphabet="abc", max_size=3),
            ),
            min_size=1,
            max_size=5,
        )
    )
    @settings(max_examples=100)
    def test_render_then_extract(self, rules):
        """Formatting a cascade the way the gateway prompt shows it and
        re-extracting yields the same cascade."""
        cascade = tuple(rules)
        listing = ", ".join(
            f'"replace(\'{r.source}\',\'{r.target}\')"' for r in cascade
        )
        text = f"```python\n[{listing}]\n```"
        assert extract_pbe_prediction(text) == cascade
