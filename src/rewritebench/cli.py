"""Command-line entry point.

Subcommands cover the whole pipeline: dataset generation, reorder-task
construction, solver runs (remote or mock), scoring of persisted
attempts, report emission, oracle cross-checking of the relation
calculus, and balance statistics.

Exit codes: 0 success, 1 validation/usage error, 2 runtime or transport
error.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from typing import Optional, Sequence

from .core import Alphabet, RewriteRule
from .gateway import (
    HttpChatBackend,
    MockChatBackend,
    SolverConfig,
    TransportError,
    load_attempts,
    persist_attempts,
    select_attempt,
    solve_dataset,
)
from .permuter import (
    build_perm_dataset,
    load_perm_dataset,
    save_perm_dataset,
)
from .proposer import (
    Dataset,
    GeneratorParams,
    generate_dataset,
    kl_balance_report,
    lite_params,
)
from .relations import (
    bleeds,
    default_oracle_bound,
    feeds,
    oracle_bleeds,
    oracle_feeds,
)


class CliError(ValueError):
    """Validation failure surfaced as exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; this toolkit reserves 2
    # for runtime/transport failures.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise CliError(message)


def _load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise CliError(f"file not found: {path}")
    except json.JSONDecodeError as exc:
        raise CliError(f"invalid JSON in {path}: {exc}")


def _write_json(data: dict, path: Optional[str]) -> None:
    text = json.dumps(data, indent=2) + "\n"
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _generator_params(args) -> GeneratorParams:
    config = _load_json(args.config) if args.config else {}
    if args.preset == "lite":
        base = lite_params(seed=0).to_dict()
        base.update(config)
        config = base
    overrides = {
        "n": args.n, "l_min": args.l_min, "l_max": args.l_max,
        "L_min": args.cascade_min, "L_max": args.cascade_max,
        "s_min": args.s_min, "s_max": args.s_max, "t_min": args.t_min,
        "D": args.size, "tau": args.tau,
        "alphabet": args.alphabet, "quota_mode": args.quota_mode,
        "post_patience_policy": args.post_patience_policy,
    }
    for key, value in overrides.items():
        if value is not None:
            config[key] = value
    config["seed"] = args.seed
    try:
        return GeneratorParams.from_dict(config)
    except (ValueError, TypeError) as exc:
        raise CliError(f"invalid generator configuration: {exc}")


def _cmd_gen(args) -> int:
    params = _generator_params(args)
    dataset = generate_dataset(params)
    dataset.save(args.out)
    report = kl_balance_report(dataset)
    print(
        f"wrote {len(dataset.instances)} instances to {args.out} "
        f"(attempts {dataset.stats.attempts}, KL {report.kl_nats:.4f})"
    )
    return 0


def _cmd_perm(args) -> int:
    dataset = Dataset.from_dict(_load_json(args.dataset))
    instances = build_perm_dataset(dataset, order_count_cap=args.cap)
    save_perm_dataset(instances, args.out)
    unique = sum(1 for r in instances if r.is_unique)
    print(
        f"wrote {len(instances)} reorder instances to {args.out} "
        f"({unique} unique-solution)"
    )
    return 0


def _solver_config(args) -> SolverConfig:
    config = _load_json(args.config) if args.config else {}
    if args.endpoint is not None:
        config["endpoint_url"] = args.endpoint
    if args.model_id is not None:
        config["model_id"] = args.model_id
    if args.api_key_env is not None:
        config["api_key_env"] = args.api_key_env
    if args.budget is not None:
        config["sampling_budget"] = args.budget
    try:
        return SolverConfig.from_dict(config)
    except (ValueError, TypeError) as exc:
        raise CliError(f"invalid solver configuration: {exc}")


def _mock_backend(path: str) -> MockChatBackend:
    data = _load_json(path)
    if isinstance(data, dict):
        script = data.get("responses")
    else:
        script = data
    if not isinstance(script, list) or not all(
        isinstance(x, str) for x in script
    ):
        raise CliError(
            f"mock file {path} must hold a JSON list of response strings "
            '(or {"responses": [...]})'
        )
    return MockChatBackend(script)


def _run_solve(args, task_kind: str) -> int:
    config = _solver_config(args)
    backend = _mock_backend(args.mock) if args.mock else HttpChatBackend()
    if not args.mock and not config.endpoint_url:
        raise CliError("an endpoint URL is required unless --mock is given")
    if task_kind == "pbe":
        dataset = Dataset.from_dict(_load_json(args.dataset))
        instances = dataset.instances
        s_max = dataset.params.s_max
        L_max = dataset.params.L_max
        identity = dataset.params.alphabet.symbols[0]
    else:
        instances = load_perm_dataset(args.dataset)
        s_max, L_max, identity = 3, 5, "a"
    _, logs = solve_dataset(
        instances, config, backend, task_kind,
        s_max=s_max, L_max=L_max, identity_symbol=identity,
    )
    persist_attempts(logs, args.out)
    print(f"wrote {len(logs)} attempt logs to {args.out}")
    return 0


def _records_from_attempts(dataset: Dataset, attempts_path: str):
    """Replay persisted attempts: apply the selection rule per instance and
    return index-aligned (records, selected logs)."""
    from .evaluator import EvalRecord

    logs = load_attempts(attempts_path)
    by_instance: dict[str, list] = {}
    for log in logs:
        by_instance.setdefault(log.instance_id, []).append(log)
    records, selected_logs, instances = [], [], []
    for inst in dataset.instances:
        inst_logs = sorted(
            by_instance.get(inst.id, []), key=lambda lg: lg.attempt_index
        )
        if not inst_logs:
            continue
        chosen = select_attempt(inst_logs, "pbe")
        if chosen is None or chosen.eval is None:
            continue
        records.append(EvalRecord.from_dict(chosen.eval))
        selected_logs.append(chosen)
        instances.append(inst)
    if not records:
        raise CliError("no scored attempts match the dataset")
    return records, selected_logs, instances


def _cmd_eval(args) -> int:
    from .evaluator import aggregate_pbe, evaluate_pbe, extract_pbe_prediction, normalize_cascade

    dataset = Dataset.from_dict(_load_json(args.dataset))
    identity = dataset.params.alphabet.symbols[0]
    if args.attempts:
        records, _, _ = _records_from_attempts(dataset, args.attempts)
    elif args.predictions:
        preds = _load_json(args.predictions)
        if not isinstance(preds, dict):
            raise CliError("predictions file must map instance id to text")
        records = []
        for inst in dataset.instances:
            text = preds.get(inst.id, "")
            extraction = extract_pbe_prediction(text)
            normalized = (
                None
                if extraction.is_null
                else normalize_cascade(
                    extraction.last_cascade,
                    s_max=dataset.params.s_max,
                    L_max=dataset.params.L_max,
                    identity_symbol=identity,
                )
            )
            records.append(
                evaluate_pbe(inst, normalized, identity_symbol=identity)
            )
    else:
        raise CliError("eval needs --attempts or --predictions")
    metrics = aggregate_pbe(records)
    _write_json({"metrics": metrics.to_dict()}, args.out)
    return 0


def _cmd_eval_reorder(args) -> int:
    from .evaluator import aggregate_reorder, evaluate_reorder, extract_permutation

    instances = load_perm_dataset(args.dataset)
    if args.attempts:
        logs = load_attempts(args.attempts)
        by_instance: dict[str, list] = {}
        for log in logs:
            by_instance.setdefault(log.instance_id, []).append(log)
        results = []
        for inst in instances:
            inst_logs = sorted(
                by_instance.get(inst.source_id, []),
                key=lambda lg: lg.attempt_index,
            )
            if not inst_logs:
                continue
            chosen = select_attempt(inst_logs, "reorder")
            ok = bool(chosen.eval and chosen.eval.get("passed"))
            results.append((inst, ok))
    elif args.predictions:
        preds = _load_json(args.predictions)
        results = []
        for inst in instances:
            perm = extract_permutation(
                preds.get(inst.source_id, ""), len(inst.scrambled)
            )
            results.append((inst, evaluate_reorder(inst, perm)))
    else:
        raise CliError("eval-reorder needs --attempts or --predictions")
    if not results:
        raise CliError("no scored attempts match the dataset")
    metrics = aggregate_reorder(results)
    _write_json({"metrics": metrics.to_dict()}, args.out)
    return 0


def _cmd_report(args) -> int:
    from .evaluator import aggregate_pbe, breakdown_reports

    dataset = Dataset.from_dict(_load_json(args.dataset))
    records, _, instances = _records_from_attempts(dataset, args.attempts)
    metrics = aggregate_pbe(records)
    bundle = breakdown_reports(records, instances)
    _write_json(
        {
            "metrics": metrics.to_dict(),
            "breakdowns": bundle.to_dict(),
            "records": [r.to_dict() for r in records],
        },
        args.out,
    )
    return 0


def _cmd_verify_relations(args) -> int:
    rng = random.Random(args.seed)
    alphabet = Alphabet.from_string(args.alphabet)
    counts = {
        "feeds_unsound": 0,
        "feeds_incomplete": 0,
        "bleeds_unsound": 0,
        "bleeds_incomplete": 0,
    }

    def draw() -> RewriteRule:
        length = rng.randint(args.min_len, args.max_len)
        source = "".join(rng.choice(alphabet.symbols) for _ in range(length))
        length = rng.randint(args.min_len, args.max_len)
        target = "".join(rng.choice(alphabet.symbols) for _ in range(length))
        return RewriteRule(source, target)

    discrepancies = []
    for _ in range(args.pairs):
        p, q = draw(), draw()
        bound = default_oracle_bound(p, q)
        for relation, classify, oracle in (
            ("feeds", feeds, oracle_feeds),
            ("bleeds", bleeds, oracle_bleeds),
        ):
            symbolic = classify(p, q)
            witness = oracle(p, q, bound)
            if (witness is not None) == symbolic:
                continue
            kind = f"{relation}_incomplete" if symbolic else f"{relation}_unsound"
            counts[kind] += 1
            discrepancies.append({
                "p": [p.source, p.target],
                "q": [q.source, q.target],
                "kind": kind,
                "witness": witness,
            })

    print(f"checked {args.pairs} pairs: " + ", ".join(
        f"{k}={v}" for k, v in counts.items()
    ))
    if discrepancies:
        print("discrepancies found between symbolic classifier and witness oracle")
    else:
        print("zero discrepancies")
    print(json.dumps(
        {"pairs": args.pairs, "counts": counts, "discrepancies": discrepancies}
    ))
    return 1 if discrepancies else 0


def _cmd_stats(args) -> int:
    dataset = Dataset.from_dict(_load_json(args.dataset))
    report = kl_balance_report(dataset)
    mean_cx = sum(i.complexity for i in dataset.instances) / len(dataset.instances)
    payload = report.to_dict()
    payload["mean_complexity"] = mean_cx
    payload["stats"] = dataset.stats.to_dict()
    _write_json(payload, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rewritebench")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser(
        "gen", description="Generate a balanced PBE dataset."
    )
    gen.add_argument("--out", required=True)
    gen.add_argument("--seed", type=int, required=True,
                     help="explicit PRNG seed (required: gen is randomized)")
    gen.add_argument("--config", help="JSON file of generator parameters")
    gen.add_argument("--preset", choices=["lite"], help="parameter preset")
    gen.add_argument("--n", type=int)
    gen.add_argument("--alphabet")
    gen.add_argument("--l-min", dest="l_min", type=int)
    gen.add_argument("--l-max", dest="l_max", type=int)
    gen.add_argument("--cascade-min", dest="cascade_min", type=int)
    gen.add_argument("--cascade-max", dest="cascade_max", type=int)
    gen.add_argument("--s-min", dest="s_min", type=int)
    gen.add_argument("--s-max", dest="s_max", type=int)
    gen.add_argument("--t-min", dest="t_min", type=int,
                     help="shortest replacement (default: --s-min; 0 allows "
                          "deletion rules)")
    gen.add_argument("--size", type=int, help="target dataset size D")
    gen.add_argument("--tau", type=int, help="patience budget")
    gen.add_argument("--quota-mode", dest="quota_mode",
                     choices=["category-balanced", "length-balanced", "both"])
    gen.add_argument("--post-patience-policy", dest="post_patience_policy",
                     choices=["accept-any", "keep-length-quota"])
    gen.set_defaults(func=_cmd_gen)

    perm = sub.add_parser(
        "perm", description="Build the reordering dataset from a PBE dataset."
    )
    perm.add_argument("--dataset", required=True)
    perm.add_argument("--out", required=True)
    perm.add_argument("--cap", type=int, default=40320,
                      help="max permutations to enumerate for uniqueness")
    perm.set_defaults(func=_cmd_perm)

    for name, kind in (("solve", "pbe"), ("solve-reorder", "reorder")):
        solve = sub.add_parser(
            name, description=f"Run a solver over a {kind} dataset."
        )
        solve.add_argument("--dataset", required=True)
        solve.add_argument("--out", required=True,
                           help="attempt log JSONL (appended)")
        solve.add_argument("--config", help="JSON file of solver settings")
        solve.add_argument("--endpoint", help="chat-completion endpoint URL")
        solve.add_argument("--model-id", dest="model_id")
        solve.add_argument("--api-key-env", dest="api_key_env",
                           help="environment variable holding the API key")
        solve.add_argument("--budget", type=int, help="attempts per instance")
        solve.add_argument("--mock",
                           help="JSON file of scripted responses (offline)")
        solve.set_defaults(func=lambda a, k=kind: _run_solve(a, k))

    ev = sub.add_parser("eval", description="Score PBE attempts or predictions.")
    ev.add_argument("--dataset", required=True)
    ev.add_argument("--attempts")
    ev.add_argument("--predictions")
    ev.add_argument("--out")
    ev.set_defaults(func=_cmd_eval)

    evr = sub.add_parser(
        "eval-reorder", description="Score reordering attempts or predictions."
    )
    evr.add_argument("--dataset", required=True)
    evr.add_argument("--attempts")
    evr.add_argument("--predictions")
    evr.add_argument("--out")
    evr.set_defaults(func=_cmd_eval_reorder)

    rep = sub.add_parser(
        "report", description="Emit aggregate metrics plus breakdowns."
    )
    rep.add_argument("--dataset", required=True)
    rep.add_argument("--attempts", required=True)
    rep.add_argument("--out")
    rep.set_defaults(func=_cmd_report)

    ver = sub.add_parser(
        "verify-relations",
        description="Cross-check the symbolic relation classifier against "
        "the witness oracles on random rule pairs; the last stdout line is "
        "JSON with the counts and every discrepant pair.",
    )
    ver.add_argument("--pairs", type=int, default=10000)
    ver.add_argument("--seed", type=int, required=True,
                     help="explicit PRNG seed (required: sampling is randomized)")
    ver.add_argument("--alphabet", default="abc")
    ver.add_argument("--min-len", dest="min_len", type=int, default=1)
    ver.add_argument("--max-len", dest="max_len", type=int, default=2)
    ver.set_defaults(func=_cmd_verify_relations)

    st = sub.add_parser(
        "stats", description="Balance report and KL divergence for a dataset."
    )
    st.add_argument("--dataset", required=True)
    st.add_argument("--out")
    st.set_defaults(func=_cmd_stats)

    return parser


def dispatch(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except TransportError as exc:
        print(f"transport error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failures map to exit 2
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
