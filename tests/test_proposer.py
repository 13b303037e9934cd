"""Generator tests: sampling primitives, rejection-sampling discipline,
dataset invariants, serialization, and the KL balance report."""

import collections
import dataclasses
import hashlib
import json
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from rewritebench import proposer
from rewritebench.core import Alphabet, RewriteRule, apply_cascade, apply_rule_vec
from rewritebench.proposer import (
    _below,
    _word,
    Dataset,
    GeneratorParams,
    PbeInstance,
    generate_dataset,
    kl_balance_report,
    kl_from_counts,
    lite_params,
    sample_candidate,
    sample_input_vector,
    sample_rule,
)
from rewritebench.relations import ALL_CATEGORIES, classify_bfcc


def tiny_params(**overrides):
    base = dict(
        n=2, alphabet=Alphabet.from_string("abc"), l_min=2, l_max=4,
        L_min=2, L_max=3, s_min=1, s_max=2, D=24, tau=50_000, seed=0,
        quota_mode="category-balanced",
    )
    base.update(overrides)
    return GeneratorParams(**base)


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            tiny_params(l_min=0)
        with pytest.raises(ValueError):
            tiny_params(L_min=4)  # exceeds L_max=3
        with pytest.raises(ValueError):
            tiny_params(quota_mode="nope")

    def test_round_trip(self):
        params = tiny_params()
        assert GeneratorParams.from_dict(params.to_dict()) == params

    def test_unknown_keys_rejected(self):
        data = tiny_params().to_dict()
        data["surprise"] = 1
        with pytest.raises(ValueError, match="unknown"):
            GeneratorParams.from_dict(data)

    def test_t_min_defaults_to_s_min(self):
        params = tiny_params(s_min=2, s_max=3)
        assert params.t_min == 2
        assert params == tiny_params(s_min=2, s_max=3, t_min=2)
        assert params.to_dict()["t_min"] == 2

    @pytest.mark.parametrize("t_min", [-1, 3])
    def test_t_min_validation(self, t_min):
        with pytest.raises(ValueError, match="t_min"):
            tiny_params(s_max=2, t_min=t_min)

    def test_t_min_bounds_accepted(self):
        assert tiny_params(s_min=2, s_max=2, t_min=0).t_min == 0
        assert tiny_params(s_min=1, s_max=2, t_min=2).t_min == 2

    def test_dict_without_t_min_loads(self):
        data = tiny_params(s_min=2, s_max=3).to_dict()
        del data["t_min"]
        params = GeneratorParams.from_dict(data)
        assert params.t_min == 2
        assert params == tiny_params(s_min=2, s_max=3)


class TestDraws:
    """The generator draws through ``_below`` and ``_word``, or loops
    written like them, instead of ``choice``/``randint``; they must make the
    same ``getrandbits`` calls, so the stream, and every dataset, stays what
    it was."""

    @given(
        seed=st.integers(0, 2**64),
        size=st.integers(1, 40),
        lengths=st.lists(st.integers(0, 8), max_size=8),
    )
    @settings(max_examples=200)
    def test_match_choice(self, seed, size, lengths):
        symbols = tuple(chr(ord("!") + i) for i in range(size))
        ours, theirs = random.Random(seed), random.Random(seed)
        for length in lengths:
            assert symbols[_below(ours.getrandbits, size)] == theirs.choice(symbols)
            assert _word(ours.getrandbits, symbols, length) == "".join(
                [theirs.choice(symbols) for _ in range(length)]
            )
        assert ours.getstate() == theirs.getstate()

    @given(
        seed=st.integers(0, 2**64),
        ranges=st.lists(
            st.tuples(st.integers(-1000, 1000), st.integers(0, 2**70)),
            max_size=8,
        ),
    )
    @settings(max_examples=200)
    def test_match_randint(self, seed, ranges):
        ours, theirs = random.Random(seed), random.Random(seed)
        for low, width in ranges:
            assert low + _below(ours.getrandbits, width + 1) == theirs.randint(
                low, low + width
            )
        assert ours.getstate() == theirs.getstate()


def _reference_substrings(items, length):
    return sorted({s[i : i + length] for s in items for i in range(len(s) - length + 1)})


def reference_candidate(params, rng, allowed=None):
    """``sample_candidate`` written with ``random``'s own ``choice`` and
    ``randint``: every drawn rule is applied, and kept when the vector
    changed. With ``allowed``, a category is rejected when it holds a bit
    that no allowed category holds."""
    symbols = params.alphabet.symbols
    target_length = rng.randint(params.L_min, params.L_max)
    inputs = [
        "".join([rng.choice(symbols) for _ in range(rng.randint(params.l_min, params.l_max))])
        for _ in range(params.n)
    ]
    intermediate = list(inputs)
    kept = []
    for _ in range(target_length):
        source_len = rng.randint(params.s_min, params.s_max)
        candidates = _reference_substrings(intermediate, source_len)
        if not candidates:
            feasible = [
                length for length in range(params.s_min, params.s_max + 1)
                if any(len(s) >= length for s in intermediate)
            ]
            if not feasible:
                break
            candidates = _reference_substrings(intermediate, rng.choice(feasible))
        source = rng.choice(candidates)
        target = "".join(
            [rng.choice(symbols) for _ in range(rng.randint(params.t_min, params.s_max))]
        )
        rule = RewriteRule(source, target)
        changed = apply_rule_vec(rule, intermediate)
        if changed != intermediate:
            kept.append(rule)
            intermediate = changed
    if len(kept) < params.L_min or intermediate == inputs:
        return None
    category = classify_bfcc(kept)[0]
    if allowed is not None and category != "0000" and not any(
        all(have >= need for have, need in zip(cat, category)) for cat in allowed
    ):
        return None
    return (tuple(inputs), tuple(kept), tuple(intermediate), category)


@st.composite
def sampler_settings(draw):
    size = draw(st.integers(1, 5))
    l_min = draw(st.integers(1, 3))
    s_min = draw(st.integers(1, 3))
    s_max = draw(st.integers(s_min, 3))
    L_min = draw(st.integers(1, 3))
    params = GeneratorParams(
        n=draw(st.integers(1, 4)),
        alphabet=Alphabet.from_string("abcde"[:size]),
        l_min=l_min, l_max=draw(st.integers(l_min, 5)),
        L_min=L_min, L_max=draw(st.integers(L_min, 5)),
        s_min=s_min, s_max=s_max, t_min=draw(st.integers(0, s_max)),
        D=16, tau=1, seed=0,
    )
    allowed = draw(st.none() | st.sets(st.sampled_from(ALL_CATEGORIES)))
    return params, allowed


class TestStreamIdentity:
    """``sample_candidate`` must draw exactly what the straightforward
    sampler draws, and leave the generator in the same state, so that every
    dataset stays byte-identical."""

    @given(sampler_settings(), st.integers(0, 2**32))
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_sampler(self, setting, seed):
        params, allowed = setting
        ours, theirs = random.Random(seed), random.Random(seed)
        for _ in range(20):
            got = sample_candidate(params, ours, allowed)
            expected = reference_candidate(params, theirs, allowed)
            if expected is None:
                assert got is None
            else:
                assert got is not None
                assert (got.inputs, got.cascade, got.outputs, got.category) == expected
        assert ours.getstate() == theirs.getstate()

    @given(st.data())
    @settings(max_examples=200)
    def test_kept_rule_test_is_exact(self, data):
        # A rule whose find pattern occurs in the vector changes it exactly
        # when its replacement differs from its find pattern.
        vector = data.draw(st.lists(st.text(alphabet="abc", max_size=6), max_size=3))
        host = data.draw(st.text(alphabet="abc", min_size=1, max_size=6))
        vector.insert(data.draw(st.integers(0, len(vector))), host)
        start = data.draw(st.integers(0, len(host) - 1))
        source = host[start : data.draw(st.integers(start + 1, len(host)))]
        rule = RewriteRule(source, data.draw(st.text(alphabet="abc", max_size=4)))
        assert (rule.target != rule.source) == (apply_rule_vec(rule, vector) != vector)


class TestSampling:
    def test_degenerate_alphabet_forces_inputs(self):
        params = tiny_params(
            n=2, alphabet=Alphabet.from_string("a"), l_min=3, l_max=3
        )
        assert sample_input_vector(params, random.Random(0)) == ["aaa", "aaa"]

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_input_bounds(self, seed):
        params = tiny_params()
        vec = sample_input_vector(params, random.Random(seed))
        assert len(vec) == params.n
        for s in vec:
            assert params.l_min <= len(s) <= params.l_max
            assert set(s) <= set(params.alphabet.symbols)

    def test_input_determinism(self):
        params = tiny_params()
        assert sample_input_vector(params, random.Random(7)) == \
            sample_input_vector(params, random.Random(7))

    def test_rule_source_forced(self):
        params = tiny_params(s_min=2, s_max=2)
        rule = sample_rule(["ab"], params, random.Random(0))
        assert rule.source == "ab"

    def test_rule_target_forced(self):
        params = tiny_params(
            alphabet=Alphabet.from_string("z"), s_min=2, s_max=2
        )
        rule = sample_rule(["zz"], params, random.Random(0))
        assert rule.target == "zz"

    def test_rule_target_lengths_follow_t_min(self):
        params = tiny_params(s_min=1, s_max=2, t_min=0)
        rng = random.Random(0)
        lengths = {len(sample_rule(["abca"], params, rng).target)
                   for _ in range(200)}
        assert lengths == {0, 1, 2}

    def test_rule_rejection_when_no_feasible_source(self):
        params = tiny_params(s_min=2, s_max=2)
        assert sample_rule(["a"], params, random.Random(0)) is None

    def test_candidate_consistency(self):
        params = tiny_params()
        rng = random.Random(3)
        found = 0
        while found < 20:
            cand = sample_candidate(params, rng)
            if cand is None:
                continue
            found += 1
            assert params.L_min <= len(cand.cascade) <= params.L_max
            # outputs re-derivable and every rule effective along the trace
            outputs, trace = apply_cascade(
                cand.cascade, cand.inputs, trace=True
            )
            assert tuple(outputs) == cand.outputs
            assert cand.outputs != cand.inputs
            for before, after in zip(trace, trace[1:]):
                assert before != after
            cat, _ = classify_bfcc(cand.cascade)
            assert cat == cand.category


class TestGenerateDataset:
    def test_determinism(self):
        a = generate_dataset(tiny_params())
        b = generate_dataset(tiny_params())
        assert a.to_dict() == b.to_dict()

    def test_dedup_and_unique_ids(self):
        ds = generate_dataset(tiny_params())
        ids = [i.id for i in ds.instances]
        assert len(set(ids)) == len(ids)
        sigs = [i.dedup_signature() for i in ds.instances]
        assert len(set(sigs)) == len(sigs)

    def test_dedup_signature_tells_apart_cascades_that_render_alike(self):
        # Quotes inside a rule shift where one rendered rule ends: both
        # cascades have two rules and render to the same text.
        a = (RewriteRule("a", 'b"), replace("c", "d'), RewriteRule("e", "f"))
        b = (RewriteRule("a", "b"), RewriteRule("c", 'd"), replace("e", "f'))
        render = lambda cascade: ", ".join(r.render() for r in cascade)
        assert render(a) == render(b)
        first = PbeInstance(
            id="", inputs=("x",), cascade=a, outputs=("y",),
            category="0000", fb_edges=(),
        )
        second = dataclasses.replace(first, cascade=b)
        assert first.dedup_signature() != second.dedup_signature()

    def test_quota_discipline_without_patience_exhaustion(self):
        ds = generate_dataset(tiny_params(D=32))
        if not ds.stats.patience_exhausted:
            counts = {}
            for inst in ds.instances:
                key = inst.category
                counts[key] = counts.get(key, 0) + 1
            cap = math.ceil(32 / 16)
            assert all(v <= cap for v in counts.values())

    @pytest.mark.parametrize("overrides", [
        dict(D=1), dict(D=12), dict(D=24),
        dict(D=26, L_max=4, quota_mode="length-balanced"),
    ], ids=["D1", "D12", "D24", "length-balanced-D26"])
    def test_uneven_size_splits_evenly_within_patience(self, overrides):
        # D splits over the enforced bins as D // bins each plus one more in
        # D % bins of them, so the run ends before tau whatever D is.
        params = tiny_params(**overrides)
        ds = generate_dataset(params)
        assert not ds.stats.patience_exhausted
        if params.quota_mode == "length-balanced":
            bins = range(params.L_min, params.L_max + 1)
            counts = collections.Counter(i.effective_length for i in ds.instances)
        else:
            bins = ALL_CATEGORIES
            counts = collections.Counter(i.category for i in ds.instances)
        base, extra = divmod(params.D, len(bins))
        assert sorted(counts[b] for b in bins) == (
            [base] * (len(bins) - extra) + [base + 1] * extra
        )

    def test_tau_zero_accept_any(self):
        ds = generate_dataset(
            tiny_params(tau=0, post_patience_policy="accept-any", D=16)
        )
        assert len(ds.instances) == 16
        assert ds.stats.patience_exhausted

    def test_instance_replay(self):
        ds = generate_dataset(tiny_params())
        for inst in ds.instances:
            assert tuple(apply_cascade(inst.cascade, inst.inputs)) == inst.outputs
            cat, edges = classify_bfcc(inst.cascade)
            assert cat == inst.category
            assert tuple(edges) == inst.fb_edges

    def test_json_round_trip(self, tmp_path):
        ds = generate_dataset(tiny_params())
        path = tmp_path / "ds.json"
        ds.save(str(path))
        loaded = Dataset.load(str(path))
        assert loaded.to_dict() == ds.to_dict()

    @pytest.mark.parametrize("literal", ["NaN", "-Infinity", "1e400"])
    def test_load_rejects_a_non_finite_number(self, tmp_path, literal):
        path = tmp_path / "ds.json"
        Dataset(params=tiny_params(), instances=[]).save(str(path))
        text = path.read_text()
        assert '"n": 2,' in text
        path.write_text(text.replace('"n": 2', f'"n": {literal}', 1))
        with pytest.raises(ValueError, match=f"^{literal} is not a finite number"):
            Dataset.load(str(path))

    def test_config_without_t_min_keeps_instances(self):
        # A lite-shaped config written before t_min existed: replacements
        # keep lengths s_min..s_max, and the pinned hash is of the instances
        # the generator gave for it before t_min was added.
        data = lite_params(seed=4).to_dict()
        del data["t_min"]
        data.update(D=32, tau=5000)
        ds = generate_dataset(GeneratorParams.from_dict(data))
        text = json.dumps([i.to_dict() for i in ds.instances], sort_keys=True)
        assert ds.stats.attempts == 856
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "f589d51edfc97ac4c785b7f033b9fbd2808a18b865699b351de12c0b311a5cf6"
        )

    def test_lite_dataset_bytes_pinned(self):
        # The pinned hash is of the dataset the generator gave when it still
        # drew through random.choice/randint.
        ds = generate_dataset(lite_params(seed=4, D=64, tau=5000))
        text = json.dumps(ds.to_dict(), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "90a387105388edb5630e45ffd13afa3364888da4699f159306c177283969a147"
        )

    def test_short_inputs_config_bytes_pinned(self, monkeypatch):
        # Inputs shorter than the find patterns send ``sample_rule`` to its
        # fallback over the feasible lengths, and to None when there is
        # none; a two-symbol alphabet under both quotas exhausts patience.
        # The pinned hash is of the dataset the generator gave before the
        # samplers decided kept rules on their strings.
        empty_results = []
        substrings = proposer.substrings_of_length

        def counting(items, length):
            found = substrings(items, length)
            empty_results.append(not found)
            return found

        monkeypatch.setattr(proposer, "substrings_of_length", counting)
        params = GeneratorParams(
            n=3, alphabet=Alphabet.from_string("ab"), l_min=1, l_max=3,
            L_min=2, L_max=3, s_min=2, s_max=3, t_min=0, D=32, tau=2000,
            seed=11, quota_mode="both",
        )
        ds = generate_dataset(params)
        text = json.dumps(ds.to_dict(), sort_keys=True)
        assert any(empty_results)
        assert ds.stats.attempts == 2009
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "370a7d5a9b44d52fc81a1be0cdac2e93e69aa3ce05e4f425a55ff08b49a67b7f"
        )

    def test_lite_generates_deletion_rules(self):
        ds = generate_dataset(lite_params(seed=4, D=64, tau=5000))
        assert ds.params.t_min == 0
        targets = [len(r.target) for i in ds.instances for r in i.cascade]
        assert 0 in targets
        assert max(targets) <= ds.params.s_max

    def test_lite_params_shape(self):
        params = lite_params(seed=5)
        assert params.n == 5
        assert len(params.alphabet.symbols) == 17
        assert (params.L_min, params.L_max) == (2, 5)
        assert (params.l_min, params.l_max) == (2, 6)
        assert (params.s_min, params.s_max) == (1, 3)
        assert params.D == 1008 and params.tau == 100_000


class TestKl:
    def test_two_bin_hand_value(self):
        # counts [2,0], add-one -> Q = [3/4, 1/4]
        expected = 0.5 * math.log((1 / 2) / (3 / 4)) + 0.5 * math.log(
            (1 / 2) / (1 / 4)
        )
        assert kl_from_counts([2, 0]) == pytest.approx(expected)
        assert kl_from_counts([2, 0]) == pytest.approx(0.1438, abs=1e-4)

    def test_uniform_counts_give_zero(self):
        assert kl_from_counts([5] * 16) == 0.0

    @given(st.lists(st.integers(0, 50), min_size=1, max_size=16))
    def test_non_negative(self, counts):
        assert kl_from_counts(counts) >= 0.0

    def test_report_counts(self):
        ds = generate_dataset(tiny_params())
        report = kl_balance_report(ds)
        assert sum(report.category_counts.values()) == len(ds.instances)
        assert sum(report.length_counts.values()) == len(ds.instances)
        assert report.kl_nats >= 0.0

    def test_empty_dataset_rejected(self):
        ds = generate_dataset(tiny_params(D=1))
        ds.instances = []
        with pytest.raises(ValueError):
            kl_balance_report(ds)
