"""Execution-semantics tests: worked examples plus property checks against
independent brute-force oracles."""

import contextlib
import copy
import enum
import functools
import io
import json
import pickle
from dataclasses import FrozenInstanceError, fields, make_dataclass, replace

import pytest
from hypothesis import assume, given, settings, strategies as st

from rewritebench.core import (
    Alphabet,
    EmptySourceError,
    JSON_TYPES,
    RewriteRule,
    apply_cascade,
    apply_rule,
    check_types,
    decode_rules,
    encode_rules,
    levenshtein,
    levenshtein_vec,
    read_json,
    string_sets,
    substrings_of_length,
    write_json,
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

# Every kind of value ``write_json`` takes: text with non-ASCII, control
# characters and lone surrogates, ints beyond 64 bits, every float JSON
# writes specially, tuples, and nested and empty containers.
JSON_TEXT = st.text(st.characters(exclude_categories=())) | st.sampled_from(
    ["", "\x00\x1f\x7f", "\ud800", "\udfff\ud800", "é\u2028\U0001f600", '"\\/']
)
JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([2**64, -(3**90), 10**300]),
    st.floats(),
    st.sampled_from([-0.0, 1e16, 1e-7, float("nan"), float("inf"), -float("inf")]),
    JSON_TEXT,
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.lists(JSON_TEXT, max_size=5),
        st.lists(st.integers(), max_size=5),
        st.dictionaries(JSON_TEXT, children, max_size=5),
    ),
    max_leaves=40,
)
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

    @given(short_text, short_text, short_text, short_text)
    @settings(max_examples=100)
    def test_shared_prefix_and_suffix_cost_nothing(self, prefix, a, b, suffix):
        assume(a != b)
        x, y = prefix + a + suffix, prefix + b + suffix
        assert levenshtein(x, y) == naive_levenshtein(x, y)
        assert levenshtein(x, y) == naive_levenshtein(a, b)

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


class TestJsonFiles:
    DATA = {"a": [1, 2.5, None], "b": "é", "c": {"d": True}}

    def test_write_to_a_path_then_read_back(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("stale text that is longer than the new file\n" * 40)
        write_json(self.DATA, str(path))
        assert path.read_text(encoding="utf-8") == (
            json.dumps(self.DATA, indent=2) + "\n"
        )
        assert read_json(str(path)) == self.DATA

    def test_write_without_a_path_goes_to_stdout(self, capsys):
        write_json(self.DATA)
        assert capsys.readouterr().out == json.dumps(self.DATA, indent=2) + "\n"

    @given(JSON_VALUES)
    @settings(max_examples=300, deadline=None)
    def test_writes_the_bytes_of_json_dump(self, tmp_path_factory, data):
        expected = json.dumps(data, indent=2) + "\n"
        path = tmp_path_factory.getbasetemp() / "write_json.json"
        write_json(data, str(path))
        assert path.read_bytes() == expected.encode("ascii")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            write_json(data)
        assert out.getvalue() == expected

    @pytest.mark.parametrize("data", [
        [], {}, [[]], [{}], {"a": []}, {"a": {}}, {"a": [[], {}]},
        [[[[]]]], {"a": {"b": {"c": {}}}}, [(), ((),)], "", 0, None,
        [type("Text", (str,), {})("é"), type("Real", (float,), {})(0.5),
         enum.IntEnum("Level", "LOW HIGH").HIGH],
    ], ids=repr)
    def test_empty_nested_and_subclassed(self, capsys, data):
        write_json(data)
        assert capsys.readouterr().out == json.dumps(data, indent=2) + "\n"

    @pytest.mark.parametrize("data", [
        {(1, 2): "a"},
        [{"a": [{"b": {(): 0}}]}],
        object(),
        [1, {"a": [object()]}],
        {"a": {1, 2}},
        [b"bytes"],
    ], ids=["tuple-key", "deep-tuple-key", "object", "deep-object", "set",
            "bytes"])
    def test_unsupported_key_or_value_is_a_type_error(self, tmp_path, data):
        with pytest.raises(TypeError):
            write_json(data, str(tmp_path / "x.json"))


# For each annotation of ``JSON_TYPES``: a value it accepts and one it
# rejects.
TYPE_CASES = [
    ("int", -3, True),
    ("int", 0, 1.0),
    ("Optional[int]", None, "3"),
    ("Optional[int]", 7, False),
    ("float", 2, True),
    ("float", 0.5, "0.5"),
    ("bool", False, 0),
    ("str", "", None),
    ("Optional[str]", None, 5),
    ("Alphabet", "ab", ["a", "b"]),
    ("dict", {}, None),
    ("Optional[dict]", None, [1]),
    ("tuple[str, ...]", [], "a"),
    ("tuple[str, ...]", ["a", ""], ["a", 1]),
    ("tuple[int, ...]", [2, 0, 1], [True]),
    ("tuple[int, ...]", [], [0.0]),
    ("Optional[list[int]]", None, [True]),
    ("Optional[list[int]]", [1, 0], (1, 0)),
    ("Cascade", [{"find": "a", "replace": ""}], [["a", ""]]),
    ("tuple[RelationEdge, ...]", [[0, "F", 1], [2, "B", 0]], [[0, "F", True]]),
    ("tuple[RelationEdge, ...]", [], [[0, "F"]]),
    ("tuple[RelationEdge, ...]", [[1, "B", 0]], [["1", "B", 0]]),
    ("tuple[RelationEdge, ...]", [[1, "", 0]], [(1, "B", 0)]),
]


def _records():
    """One record of each class whose ``from_dict`` checks types, and the
    dict its loader is given."""
    from rewritebench.evaluator import EvalRecord, ReorderEval
    from rewritebench.gateway import AttemptLog, SolverConfig
    from rewritebench.permuter import ReorderInstance
    from rewritebench.proposer import GenerationStats, PbeInstance, lite_params
    from rewritebench.relations import RelationEdge

    return [
        SolverConfig(),
        lite_params(seed=0),
        GenerationStats(attempts=3, acceptances=2, patience_exhausted=True),
        EvalRecord("inst-0", False, 0.5, 1.0, 4, 1, 2, "0101", False),
        ReorderEval(False, None, 0),
        ReorderEval(True, [1, 0], 1),
        AttemptLog("inst-0", 0, "ab12", None, "stop", {"total_tokens": 3},
                   True, {"passed": True}),
        ReorderInstance("inst-0", ("ab",), ("cc",),
                        (RewriteRule("b", "c"), RewriteRule("a", "c")),
                        (1, 0), 1, True),
        PbeInstance("inst-0", ("ab",),
                    (RewriteRule("a", "b"), RewriteRule("bb", "c")),
                    ("c",), "1000", (RelationEdge(0, "F", 1),)),
    ]


class TestCheckTypes:
    def test_every_annotation_has_cases(self):
        assert {case[0] for case in TYPE_CASES} == set(JSON_TYPES)

    @pytest.mark.parametrize("annotation, good, bad", TYPE_CASES)
    def test_accepts_and_rejects(self, annotation, good, bad):
        record = make_dataclass("Record", [("x", annotation)])
        check_types(record, {"x": good})
        with pytest.raises(TypeError) as exc:
            check_types(record, {"x": bad})
        assert str(exc.value) == f"x {bad!r} is {JSON_TYPES[annotation][2]}"

    def test_key_that_is_no_field_is_ignored(self):
        record = make_dataclass("Record", [("x", "int")])
        check_types(record, {"y": "anything", "x": 1})

    def test_first_bad_key_of_the_data_is_named(self):
        record = make_dataclass("Record", [("x", "int"), ("y", "str")])
        with pytest.raises(TypeError, match="^y 1 is not a string$"):
            check_types(record, {"y": 1, "x": "1"})

    def test_data_that_is_not_a_dict_is_rejected(self):
        record = make_dataclass("Record", [("x", "int")])
        with pytest.raises(TypeError, match="Record record \\[1\\] is not an object"):
            check_types(record, [1])

    def test_field_of_an_annotation_without_an_entry_raises_key_error(self):
        record = make_dataclass("Record", [("x", "int"), ("y", "set[int]")])
        with pytest.raises(KeyError):
            check_types(record, {"x": 1})

    @pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
    def test_every_field_has_an_entry(self, record):
        """Every field of a checked class, among them each that ``to_dict``
        writes, has an annotation in the table, so a field of a new
        annotation fails here, not at a user's load; and a record's own
        dict passes the check and loads back equal."""
        cls = type(record)
        for f in fields(cls):
            assert f.type in JSON_TYPES, (cls.__name__, f.name, f.type)
        data = record.to_dict()
        check_types(cls, json.loads(json.dumps(data)))
        if hasattr(cls, "from_dict"):
            assert cls.from_dict(json.loads(json.dumps(data))) == record


class TestDecodeRules:
    def test_round_trip(self):
        rules = (RewriteRule("ab", ""), RewriteRule("c", "dd"))
        assert decode_rules(encode_rules(rules)) == rules

    @pytest.mark.parametrize("rule, message", [
        ({"find": 5, "replace": "a"}, "rule find 5 is not a string"),
        ({"find": "a", "replace": None}, "rule replace None is not a string"),
    ])
    def test_side_that_is_not_a_string_is_rejected(self, rule, message):
        with pytest.raises(TypeError, match=f"^{message}$"):
            decode_rules([{"find": "x", "replace": "y"}, rule])

    @staticmethod
    def _two_pass(items):
        """The reference: every rule's find, then its replace, is looked up
        and checked, rule by rule, before any rule is built."""
        for p in items:
            for key in ("find", "replace"):
                if type(p[key]) is not str:
                    raise TypeError(f"rule {key} {p[key]!r} is not a string")
        return tuple(RewriteRule(p["find"], p["replace"]) for p in items)

    _side = st.one_of(
        st.none(),  # the key is absent
        st.text("ab", max_size=2),
        st.sampled_from([5, None, True, 1.5, ["a"], {"a": "b"}]),
    )

    @given(st.lists(st.tuples(_side, _side), max_size=5))
    @settings(max_examples=500)
    def test_raises_what_the_two_pass_reference_raises(self, sides):
        """On lists with bad rules anywhere (a missing key, a side of
        another type), the same exception with the same message; else the
        same rules."""
        items = [
            {key: side for key, side in (("find", find), ("replace", target))
             if side is not None}
            for find, target in sides
        ]
        try:
            want = self._two_pass(items)
        except (KeyError, TypeError) as exc:
            with pytest.raises(type(exc)) as got:
                decode_rules(items)
            assert got.value.args == exc.args
        else:
            assert decode_rules(items) == want


def _slotted_records():
    """One of each record declared with ``slots=True``."""
    from rewritebench.permuter import ReorderInstance
    from rewritebench.proposer import PbeInstance
    from rewritebench.relations import RelationEdge

    return [
        RewriteRule("ab", ""),
        RelationEdge(2, "B", 0),
        *[r for r in _records() if isinstance(r, (PbeInstance, ReorderInstance))],
    ]


class TestSlottedRecords:
    @pytest.mark.parametrize(
        "record", _slotted_records(), ids=lambda r: type(r).__name__
    )
    def test_copies_are_equal_and_frozen(self, record):
        """A slotted record has no ``__dict__``; pickling, deep copying and
        ``dataclasses.replace`` each give an equal record, and a field
        still cannot be set."""
        assert not hasattr(record, "__dict__")
        copies = [
            *(pickle.loads(pickle.dumps(record, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)),
            copy.deepcopy(record),
            replace(record),
        ]
        name = fields(record)[0].name
        for other in copies:
            assert type(other) is type(record)
            assert other == record and hash(other) == hash(record)
            with pytest.raises(FrozenInstanceError):
                setattr(other, name, getattr(record, name))
        changed = replace(record, **{name: getattr(record, name) * 2})
        assert getattr(changed, name) == getattr(record, name) * 2
        assert changed != record
