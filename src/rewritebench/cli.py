"""Command-line entry point.

Subcommands cover the whole pipeline: dataset generation, reorder-task
construction, solver runs (remote or mock), scoring of persisted
attempts, report emission, oracle cross-checking of the relation
calculus, and balance statistics.

Exit codes: 0 success, 1 validation/usage error, 2 runtime or transport
error.

Importing this module loads only ``core``, ``relations`` and ``proposer``.
A handler imports ``gateway``, ``evaluator`` or ``permuter`` when it runs,
so ``gen``, ``perm``, ``stats`` and ``verify-relations`` do not pay for
the solver and the scorer at start-up.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import fields
from typing import Optional, Sequence

from .core import Alphabet, RewriteRule, TransportError, read_json, write_json
from .proposer import (
    POST_PATIENCE_POLICIES,
    QUOTA_MODES,
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
        return read_json(path)
    except FileNotFoundError:
        raise CliError(f"file not found: {path}")
    except ValueError as exc:
        raise CliError(f"invalid JSON in {path}: {exc}")


def _load_config(path: Optional[str]) -> dict:
    """The settings of a ``--config`` file, or none without one."""
    if not path:
        return {}
    config = _load_json(path)
    if not isinstance(config, dict):
        raise CliError(f"config file {path} must hold a JSON object")
    return config


def _settings(args, cls, base: dict, what: str):
    """``cls`` built from ``base``, then the ``--config`` file, then the
    flags given: each flag's ``dest`` is the name of the field it sets."""
    config = {**base, **_load_config(args.config)}
    names = {f.name for f in fields(cls)}
    config.update(
        (key, value) for key, value in vars(args).items()
        if key in names and value is not None
    )
    try:
        return cls.from_dict(config)
    except (ValueError, TypeError) as exc:
        raise CliError(f"invalid {what} configuration: {exc}")


def _cmd_gen(args) -> int:
    preset = lite_params(seed=0).to_dict() if args.preset == "lite" else {}
    params = _settings(args, GeneratorParams, preset, "generator")
    dataset = generate_dataset(params)
    dataset.save(args.out)
    report = kl_balance_report(dataset)
    print(
        f"wrote {len(dataset.instances)} instances to {args.out} "
        f"(attempts {dataset.stats.attempts}, KL {report.kl_nats:.4f})"
    )
    return 0


def _cmd_perm(args) -> int:
    from .permuter import build_perm_dataset, save_perm_dataset

    dataset = _load_dataset(args)
    instances = build_perm_dataset(dataset, order_count_cap=args.cap)
    save_perm_dataset(instances, args.out)
    unique = sum(1 for r in instances if r.is_unique)
    print(
        f"wrote {len(instances)} reorder instances to {args.out} "
        f"({unique} unique-solution)"
    )
    return 0


def _mock_backend(path: str):
    from .gateway import MockChatBackend

    script = _load_json(path)
    if not isinstance(script, list) or not all(
        isinstance(x, str) for x in script
    ):
        raise CliError(
            f"mock file {path} must hold a JSON list of response strings"
        )
    return MockChatBackend(script)


# What each dataset kind is called, and the commands that take it.
_DATASET_KINDS = {
    "pbe": ("a PBE dataset (written by gen)",
            "solve, eval, report, perm and stats"),
    "reorder": ("a reorder dataset (written by perm)",
                "solve-reorder and eval-reorder"),
}


def _load_dataset(args):
    """The ``--dataset`` file, checked to be of the kind the command takes
    (``args.kind``), decoded: a PBE dataset (it has ``params``) as a
    ``Dataset``, a reorder dataset (it has not) as a list of
    ``ReorderInstance``."""
    path, kind = args.dataset, args.kind
    data = _load_json(path)
    if not isinstance(data, dict) or not isinstance(data.get("instances"), list):
        raise CliError(f"{path} is not a dataset file")
    found = "pbe" if "params" in data else "reorder"
    if found != kind:
        name, takers = _DATASET_KINDS[found]
        raise CliError(
            f"{args.command} needs {_DATASET_KINDS[kind][0]}, but {path} is "
            f"{name}, which {takers} take"
        )
    try:
        if kind == "pbe":
            return Dataset.from_dict(data)
        from .permuter import ReorderInstance

        return [ReorderInstance.from_dict(d) for d in data["instances"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(f"malformed dataset file {path}: {exc!r}")


def _load_task(args):
    """The instances of the ``--dataset`` file, and the task that prompts
    and scores them: a PBE dataset's under its own limits."""
    from .gateway import PbeTask, ReorderTask

    loaded = _load_dataset(args)
    if args.kind == "reorder":
        return loaded, ReorderTask()
    p = loaded.params
    return loaded.instances, PbeTask(p.s_max, p.L_max, p.alphabet.symbols[0])


def _run_solve(args) -> int:
    from .gateway import (
        HttpChatBackend, SolverConfig, persist_attempts, solve_dataset,
    )

    config = _settings(args, SolverConfig, {}, "solver")
    backend = _mock_backend(args.mock) if args.mock else HttpChatBackend()
    if not args.mock and not config.endpoint_url:
        raise CliError("an endpoint URL is required unless --mock is given")
    instances, task = _load_task(args)
    _, logs = solve_dataset(instances, config, backend, task)
    persist_attempts(logs, args.out)
    print(f"wrote {len(logs)} attempt logs to {args.out}")
    return 0


def _scored(args) -> tuple:
    """The task of the ``--dataset`` file, and its (instance, eval) pairs.

    From ``--attempts``: the selected attempt of each instance that has
    one, skipping a selection with no eval; an eval that the task's record
    type does not take (a missing or unknown key, a mistyped field, a PBE
    ``pred_category`` that is no category), or a mistyped field that
    selection reads in any attempt, is an error. The
    log is read one line at a time, and only the best-ranked attempt of
    each instance so far is kept, so memory grows with the instances, not
    the budget. A corrupt line anywhere wins over the other errors, which
    come in dataset order. From ``--predictions`` (an object mapping
    instance id to response text, null meaning no response): every
    instance, scored by the task; the file must name at least one
    instance of the dataset.
    """
    from .gateway import attempt_rank, iter_attempts

    instances, task = _load_task(args)
    ids = [task.instance_id(inst) for inst in instances]
    pairs = []
    if args.attempts is not None:
        # Per dataset id: the best (rank, log) so far, or the TypeError of
        # its first attempt that selection cannot rank. A log of an id
        # outside the dataset is checked as it is read, and not ranked.
        best: dict[str, Optional[tuple]] = dict.fromkeys(ids)
        errors: dict[str, TypeError] = {}
        for log in iter_attempts(args.attempts):
            inst_id = log.instance_id
            if inst_id not in best or inst_id in errors:
                continue
            try:
                rank = attempt_rank(log, task)
            except TypeError as exc:
                errors[inst_id] = exc
                continue
            held = best[inst_id]
            if held is None or rank > held[0]:
                best[inst_id] = (rank, log)
        for inst, inst_id in zip(instances, ids):
            try:
                if inst_id in errors:
                    raise errors[inst_id]
                held = best[inst_id]
                if held is None or held[1].eval is None:
                    continue
                pairs.append((inst, task.record.from_dict(held[1].eval)))
            except (TypeError, ValueError) as exc:
                raise CliError(
                    f"attempts file {args.attempts} holds a malformed attempt "
                    f"for {inst_id!r}: {exc}"
                )
    else:
        preds = _load_json(args.predictions)
        if not isinstance(preds, dict) or not all(
            text is None or isinstance(text, str) for text in preds.values()
        ):
            raise CliError(
                f"predictions file {args.predictions} must be a JSON object "
                "mapping instance id to response text"
            )
        if not any(inst_id in preds for inst_id in ids):
            raise CliError(
                f"no instance id in predictions file {args.predictions} is in "
                f"the dataset ({len(preds)} ids in the file)"
            )
        for inst, inst_id in zip(instances, ids):
            record, _ = task.score(inst, preds.get(inst_id), 0)
            pairs.append((inst, record))
    if not pairs:
        raise CliError("no scored attempts match the dataset")
    return task, pairs


def _cmd_eval(args) -> int:
    task, pairs = _scored(args)
    write_json({"metrics": task.aggregate(pairs).to_dict()}, args.out)
    return 0


def _cmd_report(args) -> int:
    from .evaluator import breakdown_reports

    task, pairs = _scored(args)
    records = [record for _, record in pairs]
    bundle = breakdown_reports(records, [inst for inst, _ in pairs])
    write_json(
        {
            "metrics": task.aggregate(pairs).to_dict(),
            "breakdowns": bundle.to_dict(),
            "records": [r.to_dict() for r in records],
        },
        args.out,
    )
    return 0


def _cmd_verify_relations(args) -> int:
    if args.pairs < 1:
        raise CliError("--pairs must be at least 1")
    if args.min_len < 1:
        raise CliError("--min-len must be at least 1")
    if args.min_len > args.max_len:
        raise CliError(f"--min-len {args.min_len} exceeds --max-len {args.max_len}")
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
    dataset = _load_dataset(args)
    report = kl_balance_report(dataset)
    mean_cx = sum(i.complexity for i in dataset.instances) / len(dataset.instances)
    payload = report.to_dict()
    payload["mean_complexity"] = mean_cx
    payload["stats"] = dataset.stats.to_dict()
    write_json(payload, args.out)
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
    gen.add_argument("--cascade-min", dest="L_min", type=int)
    gen.add_argument("--cascade-max", dest="L_max", type=int)
    gen.add_argument("--s-min", dest="s_min", type=int)
    gen.add_argument("--s-max", dest="s_max", type=int)
    gen.add_argument("--t-min", dest="t_min", type=int,
                     help="shortest replacement (default: --s-min; 0 allows "
                          "deletion rules)")
    gen.add_argument("--size", dest="D", type=int, help="target dataset size D")
    gen.add_argument("--tau", type=int, help="patience budget")
    gen.add_argument("--quota-mode", dest="quota_mode", choices=QUOTA_MODES)
    gen.add_argument("--post-patience-policy", dest="post_patience_policy",
                     choices=POST_PATIENCE_POLICIES)
    gen.set_defaults(func=_cmd_gen)

    perm = sub.add_parser(
        "perm", description="Build the reordering dataset from a PBE dataset."
    )
    perm.add_argument("--dataset", required=True)
    perm.add_argument("--out", required=True)
    perm.add_argument("--cap", type=int, default=40320,
                      help="bound on m!, the number of orders of an m-rule "
                           "cascade, above which n_valid_orders stays null")
    perm.set_defaults(func=_cmd_perm, kind="pbe")

    for name, kind in (("solve", "pbe"), ("solve-reorder", "reorder")):
        solve = sub.add_parser(
            name, description=f"Run a solver over a {kind} dataset."
        )
        solve.add_argument("--dataset", required=True)
        solve.add_argument("--out", required=True,
                           help="attempt log JSONL (appended)")
        solve.add_argument("--config", help="JSON file of solver settings")
        solve.add_argument("--endpoint", dest="endpoint_url",
                           help="chat-completion endpoint URL")
        solve.add_argument("--model-id", dest="model_id")
        solve.add_argument("--api-key-env", dest="api_key_env",
                           help="environment variable holding the API key")
        solve.add_argument("--budget", dest="sampling_budget", type=int,
                           help="attempts per instance")
        solve.add_argument("--mock",
                           help="JSON file of scripted responses (offline)")
        solve.set_defaults(func=_run_solve, kind=kind)

    for name, kind in (("eval", "pbe"), ("eval-reorder", "reorder")):
        ev = sub.add_parser(
            name, description=f"Score {kind} attempts or predictions."
        )
        ev.add_argument("--dataset", required=True)
        source = ev.add_mutually_exclusive_group(required=True)
        source.add_argument("--attempts")
        source.add_argument("--predictions")
        ev.add_argument("--out")
        ev.set_defaults(func=_cmd_eval, kind=kind)

    rep = sub.add_parser(
        "report", description="Emit aggregate metrics plus breakdowns."
    )
    rep.add_argument("--dataset", required=True)
    rep.add_argument("--attempts", required=True)
    rep.add_argument("--out")
    rep.set_defaults(func=_cmd_report, kind="pbe")

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
    st.set_defaults(func=_cmd_stats, kind="pbe")

    return parser


def dispatch(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ValueError, OSError) as exc:  # CliError is a ValueError
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
