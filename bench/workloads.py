"""The three benchmark workloads.

Each workload builds its inputs from the seed in :meth:`setup`, runs whole
rounds of identical operations in :meth:`round`, and checks every output
of the first round against :mod:`reference`; later rounds must reproduce
the first round's outputs byte for byte. A round times two stages, the
primary and the secondary command of the workload, on the run's
:class:`clock.HostClock`, and returns each timing as an (operations,
reference seconds) sample. The secondary stage, which takes well under a
second, runs ``SECONDARY_REPEATS`` times per round so that its median rests
on more samples.

The program is called only through module attributes looked up at call
time (``cli.dispatch(...)``), so the traced mode's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import random
import sys
from typing import Optional

from rewritebench import cli, core, gateway, permuter, proposer, relations

import reference
from fake import FakeChatBackend

BUDGET = 4
MAX_IN_FLIGHT = 2
# Reorder instances solved per round: a multiple of the fake's 16 slots,
# below the smallest perm set seen for lite datasets (about 700), so every
# round serves each reply kind to exactly the same share of attempts.
REORDER_SOLVED = 512
# Rule pairs per (|p.source|, |p.target|, |q.source|, |q.target|) length
# pattern; criterion 1 draws each side's length uniformly from 1..2. The few
# pairs with three symbols and no witness hold most of the oracle time, so
# the pair count sets how much the oracle rate moves with the seed: drawing
# 80 per pattern from 2,400 timed pairs, ten draws' middle half spread about
# 3 % around their median.
PAIRS_PER_PATTERN = 80
PAIR_ALPHABET = "abc"
SECONDARY_REPEATS = 3
# Passes of the symbolic classifier over the pair list per sample: one pass
# takes milliseconds, too short to time steadily.
SYMBOLIC_PASSES = 100
# None results per oracle re-searched exhaustively by the reference.
ABSENT_SAMPLE = 4


def _dispatch(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.dispatch(argv)
    if code != 0:
        raise RuntimeError(f"rewritebench {' '.join(argv)} exited {code}")


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _load(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: str, clock):
        self.seed = seed
        self.workdir = workdir
        self.clock = clock
        self.tracer = None
        self.errors: list[str] = []
        self.digest: Optional[str] = None
        self.layer: dict[str, float] = {}
        self.counters: dict[str, int] = {}

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def setup(self) -> None:
        raise NotImplementedError

    def round(self) -> dict:
        """Run one round; return ``primary`` and ``secondary`` lists of
        (operations, seconds) samples, ``attempted``, ``failed``, and the
        ``outputs`` :meth:`check_round` inspects."""
        raise NotImplementedError

    def check(self, outputs_digest: str, first: bool) -> None:
        if first:
            self.digest = outputs_digest
        elif outputs_digest != self.digest:
            self.errors.append("a later round's outputs differ from the first round's")

    def count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def trace_targets(self) -> dict:
        """Functions the traced mode wraps, with counter hooks. Some are
        wrapped only so that their callers' self time excludes them, and
        ``solve_dataset`` so that worker-thread spans have a parent."""
        def none_counter(key):
            return lambda args, result: self.count(key, result is None)

        return {
            "cli.dispatch": None,
            "proposer.generate_dataset": None,
            "proposer.sample_candidate": none_counter("proposer.sample_candidate.none"),
            "proposer.sample_rule": None,
            "proposer.kl_balance_report": None,
            "relations.classify_bfcc": None,
            "relations.feeds": None,
            "relations.bleeds": None,
            "relations.oracle_feeds": lambda a, r: self.count(
                "relations.oracle.witnesses", r is not None),
            "relations.oracle_bleeds": lambda a, r: self.count(
                "relations.oracle.witnesses", r is not None),
            "core.apply_rule_vec": None,
            "core.substrings_of_length": None,
            "core.apply_cascade": None,
            "core.levenshtein_vec": None,
            "permuter.build_perm_dataset": None,
            "permuter.fb_swap": none_counter("permuter.fb_swap.none"),
            "permuter.count_valid_orders": lambda a, r: self.count(
                "permuter.orders_enumerated", math.factorial(len(a[0].scrambled))),
            "evaluator.extract_pbe_prediction": None,
            "evaluator.normalize_cascade": None,
            "evaluator.evaluate_pbe": None,
            "evaluator.extract_permutation": None,
            "evaluator.evaluate_reorder": None,
            "evaluator.aggregate_pbe": None,
            "evaluator.aggregate_reorder": None,
            "evaluator.breakdown_reports": None,
            "gateway.render_pbe_prompt": None,
            "gateway.render_reorder_prompt": None,
            "gateway.chat_send": None,
            "gateway.solve_dataset": None,
            "gateway.persist_attempts": None,
            "gateway.load_attempts": None,
            "gateway.select_attempt": None,
        }


class GenLite(Workload):
    """``gen --preset lite`` then ``perm`` on its output, via ``cli.dispatch``."""

    name = "gen-lite"

    def setup(self) -> None:
        self.dataset_path = self.path("dataset.json")
        self.perm_path = self.path("perm.json")
        self.gen_argv = ["gen", "--preset", "lite", "--seed", str(self.seed),
                         "--out", self.dataset_path]
        self.perm_argv = ["perm", "--dataset", self.dataset_path, "--out", self.perm_path]

    def round(self) -> dict:
        with self.clock.stage() as gen:
            _dispatch(self.gen_argv)
        perm_s = []
        for _ in range(SECONDARY_REPEATS):
            with self.clock.stage() as perm_stage:
                _dispatch(self.perm_argv)
            perm_s.append(perm_stage.seconds)
        dataset, perm = _load(self.dataset_path), _load(self.perm_path)
        stats = dataset["stats"]
        unique = sum(1 for r in perm["instances"] if r["is_unique"])
        self.layer = {
            "proposer.accept_ratio": stats["acceptances"] / stats["attempts"],
            "permuter.unique_ratio": unique / len(perm["instances"]),
        }
        return {
            "primary": [(stats["attempts"], gen.seconds)],
            "secondary": [(len(perm["instances"]), t) for t in perm_s],
            "attempted": len(dataset["instances"]) + len(perm["instances"]),
            "failed": 0,
            "outputs": (dataset, perm),
        }

    def check_round(self, result: dict, first: bool) -> None:
        digest = _sha256(self.dataset_path) + _sha256(self.perm_path)
        if first:
            dataset, perm = result["outputs"]
            self.errors += reference.check_pbe_dataset(dataset)
            self.errors += reference.check_reorder_dataset(perm, dataset)
            print(f"gen-lite seed {self.seed}: dataset sha256 "
                  f"{_sha256(self.dataset_path)} (information only)", file=sys.stderr)
        self.check(digest, first)


class SolveMock(Workload):
    """PBE and reorder solves through ``gateway.solve_dataset`` against the
    fake backend, then replay of the persisted logs via ``report`` and
    ``eval-reorder``."""

    name = "solve-mock"

    def setup(self) -> None:
        self.dataset_path = self.path("dataset.json")
        full_perm_path = self.path("perm-full.json")
        self.perm_path = self.path("perm.json")
        _dispatch(["gen", "--preset", "lite", "--seed", str(self.seed),
                   "--out", self.dataset_path])
        _dispatch(["perm", "--dataset", self.dataset_path, "--out", full_perm_path])
        dataset = proposer.Dataset.load(self.dataset_path)
        perm = permuter.load_perm_dataset(full_perm_path)[:REORDER_SOLVED]
        permuter.save_perm_dataset(perm, self.perm_path)
        params = dataset.params
        self.spec = (params.s_max, params.L_max, params.alphabet.symbols[0])
        self.pbe = dataset.instances
        self.perm = perm
        self.pbe_table = {
            gateway.render_pbe_prompt(inst, s_max=params.s_max, L_max=params.L_max):
                (inst.id, pos, [(r.source, r.target) for r in inst.cascade])
            for pos, inst in enumerate(self.pbe)
        }
        self.perm_table = {
            gateway.render_reorder_prompt(inst):
                (inst.source_id, pos, (inst.gt_order, len(inst.scrambled)))
            for pos, inst in enumerate(perm)
        }
        if len(perm) != REORDER_SOLVED:
            self.errors.append(f"perm set has {len(perm)} < {REORDER_SOLVED} instances")
        if len(self.pbe_table) != len(self.pbe) or len(self.perm_table) != len(perm):
            self.errors.append("two instances share a prompt; the fake cannot tell them apart")
        self.config = gateway.SolverConfig(
            model_id="fake", sampling_budget=BUDGET, max_in_flight=MAX_IN_FLIGHT,
        )

    def _fake(self, kind: str, table: dict) -> FakeChatBackend:
        fake = FakeChatBackend(kind, table, s_max=self.spec[0])
        if self.tracer is not None:
            fake.send = self.tracer.wrap("gateway.backend", fake.send)
        return fake

    def round(self) -> dict:
        paths = [self.path(n) for n in
                 ("pbe.jsonl", "reorder.jsonl", "report.json", "eval-reorder.json")]
        for p in paths:
            if os.path.exists(p):
                os.remove(p)
        pbe_log, reorder_log, report_path, evr_path = paths
        fake_pbe = self._fake("pbe", self.pbe_table)
        fake_reorder = self._fake("reorder", self.perm_table)
        s_max, L_max, identity = self.spec

        with self.clock.stage() as solve:
            sel_pbe, logs_pbe = gateway.solve_dataset(
                self.pbe, self.config, fake_pbe, "pbe", s_max=s_max, L_max=L_max,
                identity_symbol=identity, sleep=fake_pbe.sleep,
            )
            gateway.persist_attempts(logs_pbe, pbe_log)
            sel_reorder, logs_reorder = gateway.solve_dataset(
                self.perm, self.config, fake_reorder, "reorder", sleep=fake_reorder.sleep,
            )
            gateway.persist_attempts(logs_reorder, reorder_log)
        replay_s = []
        for _ in range(SECONDARY_REPEATS):
            with self.clock.stage() as replay:
                _dispatch(["report", "--dataset", self.dataset_path, "--attempts",
                           pbe_log, "--out", report_path])
                _dispatch(["eval-reorder", "--dataset", self.perm_path, "--attempts",
                           reorder_log, "--out", evr_path])
            replay_s.append(replay.seconds)

        n_logs = len(logs_pbe) + len(logs_reorder)
        failed = sum(
            lg.finish_reason == "transport_error" for lg in logs_pbe + logs_reorder
        )
        sleeps = fake_pbe.sleeps + fake_reorder.sleeps
        self.layer = {
            "gateway.retries": len(sleeps),
            "gateway.backoff_requested_s": sum(sleeps),
            "gateway.attempt_log_bytes": os.path.getsize(pbe_log)
            + os.path.getsize(reorder_log),
        }
        return {
            "primary": [(n_logs, solve.seconds)],
            "secondary": [(n_logs, t) for t in replay_s],
            "attempted": n_logs, "failed": failed,
            "outputs": (fake_pbe, fake_reorder,
                        [s.attempt_index if s else None for s in sel_pbe],
                        [s.attempt_index if s else None for s in sel_reorder]),
        }

    def check_round(self, result: dict, first: bool) -> None:
        fake_pbe, fake_reorder, sel_pbe, sel_reorder = result["outputs"]
        pbe_log, reorder_log, report_path, evr_path = (
            self.path(n) for n in
            ("pbe.jsonl", "reorder.jsonl", "report.json", "eval-reorder.json"))
        digest = "".join(_sha256(p) for p in (pbe_log, reorder_log, report_path, evr_path))
        digest += json.dumps([sel_pbe, sel_reorder])
        if first:
            self._check_first(fake_pbe, fake_reorder, sel_pbe, sel_reorder,
                              pbe_log, reorder_log, report_path, evr_path)
        self.check(digest, first)

    def _check_first(self, fake_pbe, fake_reorder, sel_pbe, sel_reorder,
                     pbe_log, reorder_log, report_path, evr_path) -> None:
        dataset = _load(self.dataset_path)
        perm = _load(self.perm_path)
        for kind, fake, instances, selected, log_path in (
            ("pbe", fake_pbe, dataset["instances"], sel_pbe, pbe_log),
            ("reorder", fake_reorder, perm["instances"], sel_reorder, reorder_log),
        ):
            with open(log_path, encoding="utf-8") as fh:
                logs = [json.loads(line) for line in fh if line.strip()]
            errors, chosen = reference.check_attempts(
                kind, instances, logs, fake.served, fake.rate_limited, selected,
                BUDGET, self.spec)
            self.errors += errors
            if kind == "pbe":
                self.errors += reference.check_metrics(
                    "report", _load(report_path)["metrics"],
                    reference.expected_pbe_metrics(chosen))
            else:
                self.errors += reference.check_metrics(
                    "eval-reorder", _load(evr_path)["metrics"],
                    reference.expected_reorder_metrics(instances, chosen))
        self.errors += reference.check_reorder_dataset(perm, dataset)


class VerifyRelations(Workload):
    """Symbolic ``feeds``/``bleeds`` and the witness oracles over random rule
    pairs drawn like criterion 1's corpus."""

    name = "verify-relations"

    def setup(self) -> None:
        rng = random.Random(self.seed)

        def word(n: int) -> str:
            return "".join(rng.choice(PAIR_ALPHABET) for _ in range(n))

        self.pairs = []
        for ps, pt, qs, qt in itertools.product((1, 2), repeat=4):
            for _ in range(PAIRS_PER_PATTERN):
                p = core.RewriteRule(word(ps), word(pt))
                q = core.RewriteRule(word(qs), word(qt))
                bound = reference.witness_bound((p.source, p.target), (q.source, q.target))
                self.pairs.append((p, q, bound))
        rng.shuffle(self.pairs)

    def round(self) -> dict:
        pairs = self.pairs
        with self.clock.stage() as oracle:
            witnesses = [
                (relations.oracle_feeds(p, q, bound), relations.oracle_bleeds(p, q, bound))
                for p, q, bound in pairs
            ]
        symbolic_s = []
        for _ in range(SECONDARY_REPEATS):
            with self.clock.stage() as stage:
                for _ in range(SYMBOLIC_PASSES):
                    symbolic = [(relations.feeds(p, q), relations.bleeds(p, q))
                                for p, q, _ in pairs]
            symbolic_s.append(stage.seconds)
        disc = dict.fromkeys(("f_unsound", "f_incomplete", "b_unsound", "b_incomplete"), 0)
        for (fw, bw), (f, b) in zip(witnesses, symbolic):
            disc["f_unsound"] += fw is not None and not f
            disc["f_incomplete"] += f and fw is None
            disc["b_unsound"] += bw is not None and not b
            disc["b_incomplete"] += b and bw is None
        self.layer = {f"relations.discrepancy.{k}": v for k, v in disc.items()}
        return {
            "primary": [(len(pairs), oracle.seconds)],
            "secondary": [(SYMBOLIC_PASSES * len(pairs), t) for t in symbolic_s],
            "attempted": len(pairs), "failed": 0,
            "outputs": (witnesses, symbolic),
        }

    def check_round(self, result: dict, first: bool) -> None:
        witnesses, symbolic = result["outputs"]
        if first:
            plain = [((p.source, p.target), (q.source, q.target), fw, bw)
                     for (p, q, _), (fw, bw) in zip(self.pairs, witnesses)]
            self.errors += reference.check_relation_results(plain, ABSENT_SAMPLE)
        self.check(json.dumps([witnesses, symbolic]), first)


WORKLOADS = {w.name: w for w in (GenLite, SolveMock, VerifyRelations)}
