"""Reference computations and output checks for the benchmark.

Nothing here imports ``rewritebench``: every check recomputes the expected
result from the definitions (a fold of ``str.replace``, an exhaustive
permutation count, an exhaustive witness search) and compares it with what
the program produced. Rules are plain ``(source, target)`` tuples and
program outputs arrive as the JSON the program wrote, or as plain values
read off its objects.

Each ``check_*`` function returns a list of error strings; an empty list
means the output passed.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Optional, Sequence

Rule = tuple[str, str]

# Any symbol absent from both rules behaves the same in a witness search, so
# one that never occurs in generated data is used.
FRESH_SYMBOL = "#"
CATEGORIES = tuple(format(i, "04b") for i in range(16))
MAX_ERRORS = 20


def fold(rules: Iterable[Rule], items: Sequence[str]) -> list[str]:
    """Apply each rule, in order, to every string: ``str.replace`` semantics."""
    current = list(items)
    for source, target in rules:
        current = [s.replace(source, target) for s in current]
    return current


def edit_distance(a: str, b: str) -> int:
    """Unit-cost Levenshtein distance."""
    row = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        prev_diag, row[0] = row[0], i
        for j, cb in enumerate(b, start=1):
            cur = min(row[j] + 1, row[j - 1] + 1, prev_diag + (ca != cb))
            prev_diag, row[j] = row[j], cur
    return row[-1]


def vector_distance(a: Sequence[str], b: Sequence[str]) -> int:
    return sum(edit_distance(x, y) for x, y in zip(a, b))


def count_valid_orders(
    rules: Sequence[Rule], inputs: Sequence[str], outputs: Sequence[str]
) -> int:
    target = list(outputs)
    return sum(
        fold([rules[i] for i in perm], inputs) == target
        for perm in itertools.permutations(range(len(rules)))
    )


def witness_bound(p: Rule, q: Rule) -> int:
    """The witness-length bound the acceptance suite uses for a pair."""
    return len(p[0]) + len(q[0]) + len(p[1]) + 2


def is_witness(p: Rule, q: Rule, w: str, bound: int, direction: int) -> bool:
    """True iff applying ``p`` to ``w`` strictly raises (direction +1) or
    strictly lowers (direction -1) the count of ``q``'s source."""
    if not isinstance(w, str) or not w or len(w) > bound or p[0] not in w:
        return False
    delta = w.replace(p[0], p[1]).count(q[0]) - w.count(q[0])
    return delta * direction > 0


def find_witness(p: Rule, q: Rule, bound: int, direction: int) -> Optional[str]:
    """Exhaustive search over the rule symbols plus one fresh symbol."""
    symbols = sorted(set(p[0] + p[1] + q[0] + q[1])) + [FRESH_SYMBOL]
    for n in range(1, bound + 1):
        for chars in itertools.product(symbols, repeat=n):
            w = "".join(chars)
            if is_witness(p, q, w, bound, direction):
                return w
    return None


def _rules(programs: list[dict]) -> list[Rule]:
    return [(p["find"], p["replace"]) for p in programs]


def _is_permutation(order, m: int) -> bool:
    return (
        isinstance(order, list)
        and all(isinstance(x, int) and not isinstance(x, bool) for x in order)
        and sorted(order) == list(range(m))
    )


def category_from_edges(edges: Sequence[Sequence]) -> str:
    """F, B, CF, CB presence bits implied by stored (i, kind, j) edges."""
    bits = [False] * 4
    for i, kind, j in edges:
        bits[(0 if kind == "F" else 1) + (0 if i < j else 2)] = True
    return "".join("1" if b else "0" for b in bits)


def check_pbe_dataset(data: dict) -> list[str]:
    """Checks on a ``gen`` output: replay, rule effect, bounds, balance and
    dedup, and category bits against the stored edges."""
    errors: list[str] = []
    params = data["params"]
    instances = data["instances"]
    s_min, s_max = params["s_min"], params["s_max"]
    t_min = params.get("t_min", s_min)
    alphabet = set(params["alphabet"])
    if len(instances) != params["D"]:
        errors.append(f"{len(instances)} instances, expected D={params['D']}")
    per_category = {c: 0 for c in CATEGORIES}
    signatures = set()
    for inst in instances:
        iid = inst["id"]
        inputs, outputs = inst["inputs"], inst["outputs"]
        rules = _rules(inst["programs"])
        if len(inputs) != params["n"] or len(outputs) != params["n"]:
            errors.append(f"{iid}: vector length differs from n")
        if any(
            not params["l_min"] <= len(s) <= params["l_max"] or set(s) - alphabet
            for s in inputs
        ):
            errors.append(f"{iid}: input outside lengths or alphabet")
        if not params["L_min"] <= len(rules) <= params["L_max"]:
            errors.append(f"{iid}: cascade length {len(rules)} out of range")
        if inst.get("cascade_length", len(rules)) != len(rules):
            errors.append(f"{iid}: cascade_length disagrees with programs")
        for source, target in rules:
            if not (s_min <= len(source) <= s_max and t_min <= len(target) <= s_max):
                errors.append(f"{iid}: rule {source!r}->{target!r} side length")
        current = list(inputs)
        for k, rule in enumerate(rules):
            nxt = fold([rule], current)
            if nxt == current:
                errors.append(f"{iid}: rule {k} leaves its vector unchanged")
            current = nxt
        if current != outputs:
            errors.append(f"{iid}: outputs differ from the fold of the inputs")
        category = inst["category"]
        if category not in per_category:
            errors.append(f"{iid}: malformed category {category!r}")
        else:
            per_category[category] += 1
        if category_from_edges(inst["fb_edges"]) != category:
            errors.append(f"{iid}: category {category} disagrees with fb_edges")
        signature = (tuple(inputs), tuple(outputs), tuple(rules))
        if signature in signatures:
            errors.append(f"{iid}: duplicate signature")
        signatures.add(signature)
        if len(errors) >= MAX_ERRORS:
            return errors
    quota = params["D"] // 16
    wrong = {c: n for c, n in per_category.items() if n != quota}
    if wrong:
        errors.append(f"category counts differ from {quota}: {wrong}")
    return errors


def check_reorder_dataset(data: dict, pbe: dict) -> list[str]:
    """Checks on a ``perm`` output against the PBE dataset it was built from."""
    errors: list[str] = []
    by_id = {inst["id"]: inst for inst in pbe["instances"]}
    if not data["instances"]:
        errors.append("no reorder instances")
    for inst in data["instances"]:
        iid = inst["id"]
        source = by_id.get(iid)
        scrambled = _rules(inst["scrambled_programs"])
        m = len(scrambled)
        inputs, outputs = inst["inputs"], inst["outputs"]
        if source is None:
            errors.append(f"{iid}: no such PBE instance")
        elif (
            sorted(scrambled) != sorted(_rules(source["programs"]))
            or inputs != source["inputs"]
            or outputs != source["outputs"]
        ):
            errors.append(f"{iid}: does not scramble its source instance")
        gt = inst["gt_order"]
        if not _is_permutation(gt, m):
            errors.append(f"{iid}: gt_order is not a permutation")
        elif fold([scrambled[i] for i in gt], inputs) != outputs:
            errors.append(f"{iid}: gt_order does not reproduce the outputs")
        if fold(scrambled, inputs) == outputs:
            errors.append(f"{iid}: scrambled order already reproduces the outputs")
        if inst["n_valid_orders"] is not None:
            expected = count_valid_orders(scrambled, inputs, outputs)
            if inst["n_valid_orders"] != expected:
                errors.append(
                    f"{iid}: n_valid_orders {inst['n_valid_orders']} != {expected}"
                )
            if inst["is_unique"] != (expected == 1):
                errors.append(f"{iid}: is_unique disagrees with the order count")
        if len(errors) >= MAX_ERRORS:
            break
    return errors


def normalize(
    raw: Sequence[Rule], s_max: int, L_max: int, identity: str
) -> tuple[list[Rule], float]:
    """The executed cascade and valid fraction the scoring spec prescribes:
    keep the first L_max rules, replace each invalid one by the identity."""
    valid = [1 <= len(s) <= s_max and len(t) <= s_max for s, t in raw]
    executed = [
        rule if ok else (identity, identity) for rule, ok in zip(raw[:L_max], valid)
    ]
    return executed, (sum(valid) / len(valid) if valid else 0.0)


def score_pbe(
    instance: dict,
    raw: Optional[Sequence[Rule]],
    s_max: int,
    L_max: int,
    identity: str,
) -> dict:
    """Expected score of one PBE answer; ``raw`` None is a null prediction."""
    if raw is None:
        executed, valid_rate, pred_length = [(identity, identity)], 0.0, 0
    else:
        executed, valid_rate = normalize(raw, s_max, L_max, identity)
        pred_length = len(executed)
    inputs, outputs = instance["inputs"], instance["outputs"]
    predicted = fold(executed, inputs)
    passed = predicted == outputs
    denom = vector_distance(inputs, outputs)
    if passed:
        edit_sim = 1.0
    elif denom == 0:
        edit_sim = 0.0
    else:
        edit_sim = 1.0 - vector_distance(predicted, outputs) / denom
    return {
        "passed": passed,
        "edit_sim": edit_sim,
        "valid_rate": valid_rate,
        "complexity": sum(len(s) + len(t) for s, t in executed),
        "pred_length": pred_length,
    }


def score_reorder(instance: dict, order) -> dict:
    """Expected score of one reorder answer; anything that is not a
    permutation of the scrambled indices is a null prediction."""
    scrambled = _rules(instance["scrambled_programs"])
    if not _is_permutation(order, len(scrambled)):
        return {"passed": False, "extracted": False}
    passed = fold([scrambled[i] for i in order], instance["inputs"]) == instance["outputs"]
    return {"passed": passed, "extracted": True}


def expected_selection(kind: str, scores: Sequence[dict]) -> int:
    """Attempt index chosen by the stated rule. PBE: first pass, else highest
    edit similarity with ties to the lowest index. Reorder: first pass, else
    first extracted answer, else the first attempt."""
    for k, s in enumerate(scores):
        if s["passed"]:
            return k
    if kind == "pbe":
        return max(range(len(scores)), key=lambda k: (scores[k]["edit_sim"], -k))
    for k, s in enumerate(scores):
        if s["extracted"]:
            return k
    return 0


def _close(a, b) -> bool:
    return a is not None and b is not None and abs(a - b) <= 1e-9


def check_attempts(
    kind: str,
    instances: Sequence[dict],
    logs: Sequence[dict],
    served: dict,
    rate_limited: set,
    selected: Sequence[Optional[int]],
    budget: int,
    spec: tuple[int, int, str],
) -> tuple[list[str], list[dict]]:
    """Check persisted attempt logs against the answers the fake served.

    ``served`` maps (instance id, attempt index) to the structured answer
    the fake's successful reply carried (rules, an order, or None for a
    refusal), with key absent when no reply succeeded. ``rate_limited``
    holds the attempts whose first reply was a 429: the only attempts that
    may end in a transport error. ``selected`` holds the attempt index the
    program selected per instance. Returns the errors and, per instance, the
    expected score of the attempt that should be selected.
    """
    errors: list[str] = []
    s_max, L_max, identity = spec
    by_key = {(lg["instance_id"], lg["attempt_index"]): lg for lg in logs}
    if len(by_key) != len(logs) or len(logs) != budget * len(instances):
        errors.append(
            f"{len(logs)} logs ({len(by_key)} distinct) for "
            f"{len(instances)} instances x {budget} attempts"
        )
    transport = {key for key, lg in by_key.items()
                 if lg["finish_reason"] == "transport_error"}
    if transport != set(rate_limited) - set(served):
        errors.append("transport errors are not exactly the unanswered 429 attempts")
    chosen: list[dict] = []
    for inst, sel in zip(instances, selected):
        iid = inst["id"]
        scores = []
        for k in range(budget):
            log = by_key.get((iid, k))
            answer = served.get((iid, k))
            if kind == "pbe":
                exp = score_pbe(inst, answer, s_max, L_max, identity)
            else:
                exp = score_reorder(inst, answer)
            scores.append(exp)
            if log is None:
                errors.append(f"{iid}#{k}: missing attempt log")
                continue
            ev = log.get("eval") or {}
            if ev.get("passed") is not exp["passed"]:
                errors.append(f"{iid}#{k}: passed {ev.get('passed')} != {exp['passed']}")
            if kind == "pbe":
                if not _close(ev.get("edit_sim"), exp["edit_sim"]):
                    errors.append(
                        f"{iid}#{k}: edit_sim {ev.get('edit_sim')} != {exp['edit_sim']}"
                    )
            elif log.get("extracted") is not exp["extracted"]:
                errors.append(f"{iid}#{k}: extracted disagrees with the served order")
        want = expected_selection(kind, scores)
        if sel != want:
            errors.append(f"{iid}: selected attempt {sel}, rule gives {want}")
        chosen.append(scores[want])
        if len(errors) >= MAX_ERRORS:
            break
    return errors, chosen


def expected_pbe_metrics(chosen: Sequence[dict]) -> dict:
    n = len(chosen)
    return {
        "pass_at_1": sum(c["passed"] for c in chosen) / n,
        "edit_sim": sum(c["edit_sim"] for c in chosen) / n,
        "valid_rate": sum(c["valid_rate"] for c in chosen) / n,
        "complexity": sum(c["complexity"] for c in chosen) / n,
        "count": n,
    }


def expected_reorder_metrics(instances: Sequence[dict], chosen: Sequence[dict]) -> dict:
    n = len(chosen)
    unique = [c for inst, c in zip(instances, chosen) if inst["is_unique"]]
    return {
        "acc": sum(c["passed"] for c in chosen) / n,
        "uacc": sum(c["passed"] for c in unique) / len(unique) if unique else None,
        "count": n,
        "unique_count": len(unique),
    }


def check_metrics(name: str, reported: dict, expected: dict) -> list[str]:
    errors = []
    for key, want in expected.items():
        got = reported.get(key)
        same = got == want if isinstance(want, int) or want is None else _close(got, want)
        if not same:
            errors.append(f"{name}: {key} {got} != {want}")
    return errors


def check_relation_results(
    results: Sequence[tuple[Rule, Rule, Optional[str], Optional[str]]],
    absent_sample: int,
) -> list[str]:
    """Checks on oracle results ``(p, q, feeds_witness, bleeds_witness)``.

    Every returned witness must contain ``p``'s source, fit the bound and
    strictly change the count of ``q``'s source in the right direction. For
    the first ``absent_sample`` None results of each oracle, an exhaustive
    search must find no witness either.
    """
    errors: list[str] = []
    left = {1: absent_sample, -1: absent_sample}
    for p, q, fw, bw in results:
        bound = witness_bound(p, q)
        for direction, w in ((1, fw), (-1, bw)):
            label = "feeds" if direction > 0 else "bleeds"
            if w is not None:
                if not is_witness(p, q, w, bound, direction):
                    errors.append(f"{label} {p}->{q}: {w!r} is not a witness")
            elif left[direction] > 0:
                left[direction] -= 1
                found = find_witness(p, q, bound, direction)
                if found is not None:
                    errors.append(f"{label} {p}->{q}: oracle missed witness {found!r}")
        if len(errors) >= MAX_ERRORS:
            break
    return errors
