"""Reordering-task tests: fb_swap behaviour, uniqueness counting, and the
serialized permutation dataset."""

import hashlib
import itertools
import json
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from rewritebench.core import EmptySourceError, RewriteRule, apply_cascade
from rewritebench.permuter import (
    CapacityError,
    ReorderInstance,
    build_perm_dataset,
    count_valid_orders,
    fb_swap,
    load_perm_dataset,
    save_perm_dataset,
)
from rewritebench.proposer import (
    Dataset,
    PbeInstance,
    generate_dataset,
    lite_params,
    sample_candidate,
)
from rewritebench.relations import _FRESH_POOL, classify_bfcc


def make_instance(rules, inputs, id="inst"):
    cascade = tuple(RewriteRule(a, b) for a, b in rules)
    outputs = tuple(apply_cascade(cascade, inputs))
    category, edges = classify_bfcc(cascade)
    return PbeInstance(
        id=id,
        inputs=tuple(inputs),
        cascade=cascade,
        outputs=outputs,
        category=category,
        fb_edges=tuple(edges),
    )


class TestFbSwap:
    def test_feeding_pair(self):
        inst = make_instance([("a", "bc"), ("bc", "x")], ["a"])
        reorder = fb_swap(inst)
        assert reorder is not None
        assert reorder.scrambled == (
            RewriteRule("bc", "x"), RewriteRule("a", "bc"),
        )
        assert reorder.gt_order == (1, 0)
        assert tuple(apply_cascade(reorder.scrambled, inst.inputs)) != inst.outputs

    def test_no_edges(self):
        inst = make_instance([("a", "b"), ("c", "d")], ["ac"])
        assert fb_swap(inst) is None

    def test_invariants_on_result(self):
        inst = make_instance([("a", "bc"), ("bc", "x")], ["a"])
        reorder = fb_swap(inst)
        assert sorted(reorder.gt_order) == list(range(len(reorder.scrambled)))
        recovered = reorder.reordered(reorder.gt_order)
        assert tuple(apply_cascade(recovered, reorder.inputs)) == reorder.outputs

    def test_self_inverse(self):
        inst = make_instance([("a", "bc"), ("bc", "x")], ["a"])
        reorder = fb_swap(inst)
        twice = tuple(
            reorder.reordered(reorder.gt_order)[i] for i in reorder.gt_order
        )
        assert twice == reorder.scrambled

    def test_swap_that_preserves_outputs_is_skipped(self):
        # the pair is FB-related on symbols that never occur in the input,
        # so transposing cannot change the outputs
        inst = make_instance([("u", "vw"), ("vw", "z"), ("a", "b")], ["aaa"])
        reorder = fb_swap(inst)
        assert reorder is None or tuple(
            apply_cascade(reorder.scrambled, inst.inputs)
        ) != inst.outputs


class TestCountValidOrders:
    def test_unique(self):
        reorder = ReorderInstance(
            source_id="x",
            inputs=("a",),
            outputs=("x",),
            scrambled=(RewriteRule("bc", "x"), RewriteRule("a", "bc")),
            gt_order=(1, 0),
        )
        assert count_valid_orders(reorder, cap=10) == 1

    def test_commuting_rules(self):
        scrambled = (RewriteRule("c", "d"), RewriteRule("a", "b"))
        reorder = ReorderInstance(
            source_id="x",
            inputs=("ac",),
            outputs=("bd",),
            scrambled=scrambled,
            gt_order=(1, 0),
        )
        assert count_valid_orders(reorder, cap=10) == 2

    def test_capacity_error(self):
        reorder = ReorderInstance(
            source_id="x",
            inputs=("a",),
            outputs=("b",),
            scrambled=tuple(RewriteRule(c, c) for c in "abcdefghi"),
            gt_order=tuple(range(9)),
        )
        with pytest.raises(CapacityError):
            count_valid_orders(reorder, cap=40320)

    def test_matches_independent_enumeration(self):
        inst = make_instance([("a", "bc"), ("bc", "x"), ("x", "ya")], ["aa"])
        reorder = fb_swap(inst)
        assert reorder is not None
        assert count_valid_orders(reorder, cap=10_000) == enumerate_orders(reorder)

    def test_capacity_error_comes_before_empty_source(self):
        reorder = ReorderInstance(
            source_id="x",
            inputs=("a",),
            outputs=("b",),
            scrambled=(RewriteRule("", "b"), RewriteRule("a", "b")),
            gt_order=(1, 0),
        )
        with pytest.raises(CapacityError):
            count_valid_orders(reorder, cap=1)
        with pytest.raises(EmptySourceError):
            count_valid_orders(reorder, cap=2)

    @pytest.mark.parametrize("inputs, outputs, expected", [
        (("ab",), ("ab",), 1),
        (("ab",), ("ba",), 0),
        ((), (), 1),
        ((), ("",), 0),
    ])
    def test_empty_cascade_counts_an_int(self, inputs, outputs, expected):
        reorder = ReorderInstance(
            source_id="x", inputs=inputs, outputs=outputs, scrambled=(),
            gt_order=(),
        )
        count = count_valid_orders(reorder)
        assert type(count) is int
        assert json.dumps(count) == str(expected)

    def test_every_low_code_point_in_use(self):
        # The strings use U+0000..U+0040 and every fresh-symbol pool
        # character, so the separator must come from past all of them.
        low = "".join(chr(c) for c in range(0x41)) + _FRESH_POOL
        rules = [("\x00", "\n"), ("\n|", "\x00"), ("|", "\n|"), ("@", "")]
        inst = make_instance(rules, [low, "\x00|\n", "|@"])
        reorder = fb_swap(inst)
        assert reorder is not None
        count = count_valid_orders(reorder)
        assert type(count) is int
        assert count == enumerate_orders(reorder) >= 1

    @pytest.mark.parametrize("m, n_instances", [(7, 4), (8, 1)])
    def test_long_cascades_match_enumeration(self, m, n_instances):
        params = replace(lite_params(seed=0), L_min=m, L_max=m)
        rng = random.Random(m)
        checked = 0
        while checked < n_instances:
            candidate = sample_candidate(params, rng)
            if candidate is None:
                continue
            _, edges = classify_bfcc(candidate.cascade)
            reorder = fb_swap(replace(candidate, fb_edges=tuple(edges)))
            if reorder is None:
                continue
            assert len(reorder.scrambled) == m
            assert count_valid_orders(reorder) == enumerate_orders(reorder)
            checked += 1

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_enumeration_on_random_cascades(self, data):
        # Deletion rules (empty targets), duplicate rules and commuting
        # rules (disjoint symbols) all occur among these draws, and so do
        # the lowest code points and common separators, which the count
        # must not confuse with its own separator.
        symbols = data.draw(st.sampled_from(["ab", "abc", "a\x00\n|", "\x00\x01b"]))
        rule = st.builds(
            RewriteRule,
            st.text(symbols, min_size=1, max_size=2),
            st.text(symbols, max_size=2),
        )
        rules = data.draw(st.lists(rule, min_size=1, max_size=6))
        if data.draw(st.booleans()) and len(rules) < 6:
            rules.append(data.draw(st.sampled_from(rules)))
        inputs = tuple(data.draw(
            st.lists(st.text(symbols, max_size=5), min_size=1, max_size=3)
        ))
        gt_order = tuple(data.draw(st.permutations(range(len(rules)))))
        reorder = ReorderInstance(
            source_id="x",
            inputs=inputs,
            outputs=tuple(apply_cascade([rules[i] for i in gt_order], inputs)),
            scrambled=tuple(rules),
            gt_order=gt_order,
        )
        count = count_valid_orders(reorder)
        assert type(count) is int
        assert count == enumerate_orders(reorder)
        assert count >= 1


def enumerate_orders(reorder):
    """The reference count: every permutation, replayed from the inputs."""
    return sum(
        tuple(apply_cascade([reorder.scrambled[i] for i in perm], reorder.inputs))
        == reorder.outputs
        for perm in itertools.permutations(range(len(reorder.scrambled)))
    )


class TestBuildPermDataset:
    def _dataset(self):
        from rewritebench.proposer import generate_dataset, GeneratorParams
        from rewritebench.core import Alphabet

        params = GeneratorParams(
            n=2, alphabet=Alphabet.from_string("abc"), l_min=2, l_max=4,
            L_min=2, L_max=3, s_min=1, s_max=2, D=24, tau=50_000, seed=1,
        )
        return generate_dataset(params)

    def test_results_satisfy_invariants(self):
        dataset = self._dataset()
        instances = build_perm_dataset(dataset)
        assert 0 < len(instances) <= len(dataset.instances)
        for reorder in instances:
            assert tuple(
                apply_cascade(reorder.scrambled, reorder.inputs)
            ) != reorder.outputs
            recovered = reorder.reordered(reorder.gt_order)
            assert tuple(
                apply_cascade(recovered, reorder.inputs)
            ) == reorder.outputs
            assert reorder.n_valid_orders >= 1
            assert reorder.is_unique == (reorder.n_valid_orders == 1)

    def test_length_two_scramble_is_reversal(self):
        dataset = self._dataset()
        by_id = {inst.id: inst for inst in dataset.instances}
        for reorder in build_perm_dataset(dataset):
            original = by_id[reorder.source_id]
            if len(original.cascade) == 2:
                assert reorder.scrambled == tuple(reversed(original.cascade))

    def test_round_trip(self, tmp_path):
        instances = build_perm_dataset(self._dataset())
        path = tmp_path / "perm.json"
        save_perm_dataset(instances, str(path))
        loaded = load_perm_dataset(str(path))
        assert loaded == instances

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "1e400"])
    def test_load_rejects_a_non_finite_number(self, tmp_path, literal):
        instance = ReorderInstance(
            source_id="x", inputs=("a",), outputs=("x",),
            scrambled=(RewriteRule("bc", "x"), RewriteRule("a", "bc")),
            gt_order=(1, 0), n_valid_orders=1, is_unique=True,
        )
        path = tmp_path / "perm.json"
        save_perm_dataset([instance], str(path))
        text = path.read_text()
        assert '"n_valid_orders": 1,' in text
        path.write_text(text.replace('"n_valid_orders": 1', f'"n_valid_orders": {literal}'))
        with pytest.raises(ValueError, match=f"^{literal} is not a finite number"):
            load_perm_dataset(str(path))

    def test_lite_perm_bytes_pinned(self):
        # The pinned hash is of the perm set the order count gave when it
        # still enumerated every permutation.
        dataset = generate_dataset(lite_params(seed=4, D=64, tau=5000))
        instances = build_perm_dataset(dataset)
        text = json.dumps([r.to_dict() for r in instances], sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "42389ae4511df3f134ecd6202ad31ff85def2f2adf6bb72bab62caf7eda7ba4b"
        )

    def test_cap_counts_only_cascades_whose_orders_fit(self):
        # 3! = 6: cascades of up to 3 rules are counted, longer ones not.
        dataset = generate_dataset(lite_params(seed=4, D=64, tau=5000))
        instances = build_perm_dataset(dataset, order_count_cap=6)
        short = [r for r in instances if len(r.scrambled) <= 3]
        long = [r for r in instances if len(r.scrambled) >= 4]
        assert short and long
        for reorder in short:
            n = reorder.n_valid_orders
            assert n == count_valid_orders(reorder) >= 1
            assert reorder.is_unique == (n == 1)
        for reorder in long:
            assert reorder.n_valid_orders is None
            assert reorder.is_unique is False

    def test_cap_below_factorial_leaves_counts_absent(self):
        dataset = self._dataset()
        instances = build_perm_dataset(dataset, order_count_cap=1)
        for reorder in instances:
            assert reorder.n_valid_orders is None
            assert reorder.is_unique is False
