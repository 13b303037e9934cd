"""Acceptance gate: one test per criterion, each printing a single
PASS/FAIL line before asserting.

Criterion 1 is implemented exactly as stated and is expected to fail:
the symbolic relation classifier and the count-increase witness oracle
diverge structurally on a few percent of random pairs (see the Testing
section of README.md). The measured numbers are reported in the printed
detail; nothing is weakened to force a pass. The extra
``test_criteria_01_and_02_conflict`` counts, on criterion 1's own pairs,
why it cannot pass together with criterion 2.
"""

import itertools
import math
import random
import time

import pytest

from rewritebench.core import RewriteRule, apply_cascade, apply_rule
from rewritebench.evaluator import (
    EvalRecord,
    aggregate_pbe,
    evaluate_pbe,
    normalize_cascade,
    pass_at_k_estimate,
)
from rewritebench.gateway import (
    MockChatBackend,
    PbeTask,
    SolverConfig,
    load_attempts,
    persist_attempts,
    render_pbe_prompt,
    render_reorder_prompt,
    select_attempt,
    solve_with_budget,
)
from rewritebench.permuter import ReorderInstance, build_perm_dataset
from rewritebench.proposer import (
    generate_dataset,
    kl_balance_report,
    kl_from_counts,
    lite_params,
)
from rewritebench.relations import (
    bleeds,
    classify_bfcc,
    default_oracle_bound,
    feeds,
    oracle_bleeds,
    oracle_feeds,
)

PAIR_COUNT = 10_000

# (number, status, detail) triples re-emitted by the conftest terminal
# summary hook so every line survives output capture.
ACCEPTANCE_RESULTS: list[tuple[int, str, str]] = []


def report(number: int, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    ACCEPTANCE_RESULTS.append((number, status, detail))
    print(f"\nACCEPTANCE {number}: {status}" + (f" — {detail}" if detail else ""))
    assert ok, f"criterion {number}: {detail}"


def random_rule(rng, alphabet="abc", lo=1, hi=2):
    return RewriteRule(
        "".join(rng.choice(alphabet) for _ in range(rng.randint(lo, hi))),
        "".join(rng.choice(alphabet) for _ in range(rng.randint(lo, hi))),
    )


@pytest.fixture(scope="module")
def pair_corpus():
    rng = random.Random(0)
    return [(random_rule(rng), random_rule(rng)) for _ in range(PAIR_COUNT)]


@pytest.fixture(scope="module")
def lite_dataset():
    return generate_dataset(lite_params(seed=202))


def test_criterion_01_oracle_equivalence(pair_corpus):
    start = time.time()
    counts = dict(f_unsound=0, f_incomplete=0, b_unsound=0, b_incomplete=0)
    for p, q in pair_corpus:
        bound = default_oracle_bound(p, q)
        fw = oracle_feeds(p, q, bound)
        if fw is not None and not feeds(p, q):
            counts["f_unsound"] += 1
        if feeds(p, q) and fw is None:
            counts["f_incomplete"] += 1
        bw = oracle_bleeds(p, q, bound)
        if bw is not None and not bleeds(p, q):
            counts["b_unsound"] += 1
        if bleeds(p, q) and bw is None:
            counts["b_incomplete"] += 1
    elapsed = time.time() - start
    ok = sum(counts.values()) == 0 and elapsed < 300
    report(
        1, ok,
        f"{PAIR_COUNT} pairs in {elapsed:.1f}s; discrepancies {counts} "
        "(symbolic classifier vs count-increase oracle diverge by design; "
        "see the Testing section of README.md)",
    )


def test_criterion_02_bleeding_identity(pair_corpus):
    ok = all(bleeds(p, q) == feeds(p.reversed(), q) for p, q in pair_corpus)
    report(2, ok, f"identity exact over {PAIR_COUNT} pairs")


def test_criteria_01_and_02_conflict(pair_corpus):
    """On criterion 1's own pairs, the witness oracles break criterion 2's
    identity: where ``oracle_bleeds(p, q)`` and ``oracle_feeds(p.reversed(),
    q)`` disagree, no classifier can match the oracles (criterion 1) and
    keep ``bleeds(p, q) == feeds(p.reversed(), q)`` (criterion 2). If the
    count ever reaches 0, both criteria may pass."""
    conflicts = []
    for p, q in pair_corpus:
        bound = default_oracle_bound(p, q)
        if (oracle_bleeds(p, q, bound) is None) != (
            oracle_feeds(p.reversed(), q, bound) is None
        ):
            conflicts.append((p, q))
    corpus = set(pair_corpus)
    twins = sum((p.reversed(), q) in corpus for p, q in conflicts)
    print(f"\n{len(conflicts)} of {PAIR_COUNT} pairs break criterion 2 under "
          f"the oracles; {twins} of them have their reversed twin in the corpus")
    assert conflicts
    assert any(p == RewriteRule("b", "cc") and q.source == "cb"
               for p, q in conflicts)


def test_feeding_definition_prices(pair_corpus):
    """The figures README quotes for each definition of feeding, on
    criterion 1's pairs. The present classifier has 299 / 385 / 301 / 0
    discrepancies against the oracles (and criterion 2 passes). Taking the
    oracles as the definition breaks criterion 2 on 383 pairs, 231 of them
    with their reversed twin in the corpus; taking ``bleeds(p, q) :=
    oracle_feeds(p.reversed(), q)`` leaves those 383 pairs as criterion-1
    bleeding discrepancies instead."""
    counts = dict(f_unsound=0, f_incomplete=0, b_unsound=0, b_incomplete=0)
    conflicts = []
    for p, q in pair_corpus:
        bound = default_oracle_bound(p, q)
        fed = oracle_feeds(p, q, bound) is not None
        bled = oracle_bleeds(p, q, bound) is not None
        counts["f_unsound"] += fed and not feeds(p, q)
        counts["f_incomplete"] += feeds(p, q) and not fed
        counts["b_unsound"] += bled and not bleeds(p, q)
        counts["b_incomplete"] += bleeds(p, q) and not bled
        if bled != (oracle_feeds(p.reversed(), q, bound) is not None):
            conflicts.append((p, q))
    assert counts == dict(
        f_unsound=299, f_incomplete=385, b_unsound=301, b_incomplete=0
    )
    assert sum(counts.values()) == 985
    corpus = set(pair_corpus)
    assert len(conflicts) == 383
    assert sum((p.reversed(), q) in corpus for p, q in conflicts) == 231


def test_criterion_03_reversal_duality():
    rng = random.Random(1)
    violations = 0
    for _ in range(1000):
        cascade = tuple(
            random_rule(rng) for _ in range(rng.randint(2, 5))
        )
        cat, _ = classify_bfcc(cascade)
        rcat, _ = classify_bfcc(tuple(reversed(cascade)))
        if (rcat[0], rcat[1], rcat[2], rcat[3]) != (cat[2], cat[3], cat[0], cat[1]):
            violations += 1
    report(3, violations == 0, f"{violations} violations over 1000 cascades")


def test_criterion_04_lite_generation(lite_dataset):
    rep = kl_balance_report(lite_dataset)
    counts = set(rep.category_counts.values())
    ok = (
        len(lite_dataset.instances) == 1008
        and counts == {63}
        and rep.kl_nats == 0.0
        and not lite_dataset.stats.patience_exhausted
    )
    report(
        4, ok,
        f"1008 instances, per-category counts {sorted(counts)}, "
        f"KL {rep.kl_nats}, attempts {lite_dataset.stats.attempts}",
    )


def test_criterion_05_invariant_replay(lite_dataset):
    failures = 0
    signatures = set()
    for inst in lite_dataset.instances:
        outputs, trace = apply_cascade(inst.cascade, inst.inputs, trace=True)
        cat, edges = classify_bfcc(inst.cascade)
        good = (
            tuple(outputs) == inst.outputs
            and inst.outputs != inst.inputs
            and all(a != b for a, b in zip(trace, trace[1:]))
            and cat == inst.category
            and tuple(edges) == inst.fb_edges
            and 2 <= inst.effective_length <= 5
        )
        if not good:
            failures += 1
        signatures.add(inst.dedup_signature())
    ok = failures == 0 and len(signatures) == len(lite_dataset.instances)
    report(5, ok, f"{failures} replay failures, {len(signatures)} unique signatures")


def test_criterion_06_ground_truth_self_eval(lite_dataset):
    records = [
        evaluate_pbe(
            inst,
            normalize_cascade(inst.cascade, s_max=3, L_max=5, identity_symbol="a"),
        )
        for inst in lite_dataset.instances
    ]
    metrics = aggregate_pbe(records)
    ok = (
        metrics.pass_at_1 == 1.0
        and metrics.edit_sim == 1.0
        and metrics.valid_rate == 1.0
    )
    report(
        6, ok,
        f"Pass@1 {metrics.pass_at_1}, Edit_Sim {metrics.edit_sim}, "
        f"Valid_Rate {metrics.valid_rate}",
    )


def test_criterion_07_worked_examples():
    a = apply_rule(RewriteRule("c", "wa"), "wcw")
    b = apply_cascade(
        (RewriteRule("bc", "dc"), RewriteRule("ad", "ed")),
        ["abc", "ebc", "aba"],
    )
    ok = a == "wwaw" and b == ["edc", "edc", "aba"]
    report(7, ok, f"{a!r}, {b!r}")


def test_criterion_08_edit_sim_negativity():
    from rewritebench.proposer import PbeInstance

    inst = PbeInstance(
        id="neg", inputs=("ab",), cascade=(RewriteRule("b", "c"),),
        outputs=("ac",), category="0000",
        fb_edges=(),
    )
    record = evaluate_pbe(
        inst, normalize_cascade((RewriteRule("a", "zz"),), 3, 5, "a")
    )
    report(8, record.edit_sim == -2.0, f"edit_sim {record.edit_sim}")


def test_criterion_09_pass_at_k_enumeration():
    mismatches = 0
    for n in range(1, 7):
        for c in range(n + 1):
            for k in range(1, n + 1):
                outcomes = [True] * c + [False] * (n - c)
                subsets = list(itertools.combinations(outcomes, k))
                expected = sum(any(s) for s in subsets) / len(subsets)
                if abs(pass_at_k_estimate(n, c, k) - expected) > 1e-12:
                    mismatches += 1
    spot = pass_at_k_estimate(4, 2, 2)
    ok = mismatches == 0 and abs(spot - 5 / 6) < 1e-12
    report(9, ok, f"{mismatches} mismatches; (4,2,2) = {spot}")


def test_criterion_10_permutation_pipeline(lite_dataset):
    perm = build_perm_dataset(lite_dataset)
    invariant_failures = 0
    uniqueness_failures = 0
    for inst in perm:
        scrambled_out = tuple(apply_cascade(inst.scrambled, inst.inputs))
        recovered = tuple(
            apply_cascade(inst.reordered(inst.gt_order), inst.inputs)
        )
        if (
            scrambled_out == inst.outputs
            or recovered != inst.outputs
            or sorted(inst.gt_order) != list(range(len(inst.scrambled)))
            or inst.n_valid_orders is None
            or inst.n_valid_orders < 1
        ):
            invariant_failures += 1
        if inst.is_unique:
            # independent enumeration, not count_valid_orders
            valid = sum(
                tuple(
                    apply_cascade(
                        [inst.scrambled[i] for i in order], inst.inputs
                    )
                )
                == inst.outputs
                for order in itertools.permutations(range(len(inst.scrambled)))
            )
            if valid != 1:
                uniqueness_failures += 1
    mean_cx = sum(i.complexity for i in lite_dataset.instances) / len(
        lite_dataset.instances
    )
    complexity_ok = 10.1 <= mean_cx <= 13.1
    ok = (
        invariant_failures == 0
        and uniqueness_failures == 0
        and complexity_ok
    )
    report(
        10, ok,
        f"{len(perm)} reorder instances, {invariant_failures} invariant "
        f"failures, {uniqueness_failures} uniqueness failures, mean "
        f"complexity {mean_cx:.2f} (required [10.1, 13.1]; see the Testing "
        "section of README.md)",
    )


def test_criterion_11_prompt_golden_files():
    import pathlib

    from rewritebench.proposer import PbeInstance
    from rewritebench.relations import RelationEdge

    fixtures = pathlib.Path(__file__).parent / "fixtures"
    pbe = PbeInstance(
        id="golden-pbe", inputs=("abc", "ebc", "aba"),
        cascade=(RewriteRule("bc", "dc"), RewriteRule("ad", "ed")),
        outputs=("edc", "edc", "aba"),
        category="1000",
        fb_edges=(RelationEdge(0, "F", 1),),
    )
    reorder = ReorderInstance(
        source_id="golden-reorder", inputs=("a",), outputs=("x",),
        scrambled=(RewriteRule("bc", "x"), RewriteRule("a", "bc")),
        gt_order=(1, 0), n_valid_orders=1, is_unique=True,
    )
    pbe_ok = render_pbe_prompt(pbe, 3, 5) == (
        fixtures / "pbe_prompt_golden.txt"
    ).read_text()
    reorder_ok = render_reorder_prompt(reorder) == (
        fixtures / "reorder_prompt_golden.txt"
    ).read_text()
    report(11, pbe_ok and reorder_ok, f"pbe {pbe_ok}, reorder {reorder_ok}")


def test_criterion_12_offline_end_to_end(lite_dataset, tmp_path):
    start = time.time()
    instances = lite_dataset.instances[:10]
    config = SolverConfig(sampling_budget=4, max_in_flight=1)
    task = PbeTask()
    all_logs = []
    selected = []
    for inst in instances:
        listing = ", ".join(
            f"\"replace('{r.source}','{r.target}')\"" for r in inst.cascade
        )
        gt = f"```python\n[{listing}]\n```"
        # attempts 0-1 miss, attempts 2-3 hit; first pass must be selected
        backend = MockChatBackend(["no block", "```python\n['bad']\n```", gt, gt])
        sel, logs = solve_with_budget(
            inst, config, backend, task, sleep=lambda _: None
        )
        selected.append(sel)
        all_logs.extend(logs)
    selection_ok = all(
        sel.attempt_index == 2 and sel.eval["passed"] for sel in selected
    )
    path = tmp_path / "attempts.jsonl"
    persist_attempts(all_logs, str(path))
    loaded = load_attempts(str(path))

    def metrics_from(logs):
        by_id = {}
        for log in logs:
            by_id.setdefault(log.instance_id, []).append(log)
        chosen = [
            select_attempt(sorted(v, key=lambda lg: lg.attempt_index), task)
            for v in by_id.values()
        ]
        return aggregate_pbe(
            [EvalRecord.from_dict(c.eval) for c in chosen]
        ).to_dict()

    replay_ok = metrics_from(loaded) == metrics_from(all_logs)
    elapsed = time.time() - start
    ok = (
        len(all_logs) == 40
        and selection_ok
        and replay_ok
        and elapsed < 60
    )
    report(
        12, ok,
        f"{len(all_logs)} logs, selection_ok {selection_ok}, replay_ok "
        f"{replay_ok}, {elapsed:.1f}s",
    )


def test_criterion_13_kl_hand_check():
    value = kl_from_counts([2, 0], smoothing=1.0)
    expected = 0.5 * math.log(2 / 3) + 0.5 * math.log(2)
    ok = abs(value - 0.1438) < 1e-4 and abs(value - expected) < 1e-12
    report(13, ok, f"KL([2,0]) = {value:.6f} nats")
