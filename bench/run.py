"""Benchmark for rewritebench: dataset generation, mock solve and replay, and
the relation witness oracles.

    python3 bench/run.py --workload gen-lite --seed 1 --seconds 25 --trace 0

Run from the repository root. The program is imported from ``src/`` of the
same checkout. Set-up is repeated ``SETUP_REPEATS`` times and its median
reported; then whole rounds run for about ``--seconds`` (see
``_run_rounds``). Times are reference seconds of ``clock.HostClock``, which
takes the host's speed drift out of them. With ``--trace 0`` the last stdout
line holds the end-to-end metrics; with ``--trace 1`` the first half of the
time runs untraced rounds, the second half traced ones, and it holds the
per-layer metrics, including the traced to untraced round-time ratio.
Progress, set-up times and the dataset hash go to stderr. See
bench/README.md for the metric map.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import clock

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 3
IMPORT_PROBES = 5
# Calibration loops a fresh interpreter runs after its import, to put the
# import time in reference seconds.
IMPORT_CALIBRATIONS = 20

END_TO_END = {
    "setup_s": "s",
    "primary_per_s": "1/s",
    "secondary_per_s": "1/s",
    "peak_rss_mb": "MB",
}
# Per-layer metrics; every one is printed by every traced run, 0 where the
# workload never reaches the layer. Spans give .calls, .s and .self_s.
SPAN_METRICS = {
    "cli.dispatch": ("calls", "self_s"),
    "proposer.generate_dataset": ("self_s",),
    "proposer.sample_candidate": ("calls", "s"),
    "proposer.sample_rule": ("calls", "s"),
    "relations.classify_bfcc": ("calls", "s"),
    "relations.feeds": ("calls", "s"),
    "relations.bleeds": ("calls",),
    "relations.oracle_feeds": ("calls", "s"),
    "relations.oracle_bleeds": ("calls", "s"),
    "core.apply_rule_vec": ("calls", "s"),
    "core.substrings_of_length": ("calls", "s"),
    "core.apply_cascade": ("calls", "s"),
    "core.levenshtein_vec": ("calls", "s"),
    "permuter.fb_swap": ("calls", "s"),
    "permuter.count_valid_orders": ("calls", "s"),
    "evaluator.extract_pbe_prediction": ("calls", "s"),
    "evaluator.normalize_cascade": ("calls", "s"),
    "evaluator.evaluate_pbe": ("calls", "s"),
    "evaluator.extract_permutation": ("calls", "s"),
    "evaluator.evaluate_reorder": ("calls", "s"),
    "evaluator.aggregate_pbe": ("s",),
    "evaluator.breakdown_reports": ("s",),
    "gateway.render_pbe_prompt": ("s",),
    "gateway.render_reorder_prompt": ("s",),
    "gateway.chat_send": ("calls", "s"),
    "gateway.backend": ("calls", "s"),
    "gateway.persist_attempts": ("s",),
    "gateway.load_attempts": ("s",),
    "gateway.select_attempt": ("s",),
}
OTHER_METRICS = {
    "proposer.sample_candidate.none": "count",
    "proposer.accept_ratio": "ratio",
    "relations.oracle.witnesses": "count",
    "relations.discrepancy.f_unsound": "count",
    "relations.discrepancy.f_incomplete": "count",
    "relations.discrepancy.b_unsound": "count",
    "relations.discrepancy.b_incomplete": "count",
    "core.string_sets.hit_ratio": "ratio",
    "permuter.fb_swap.none": "count",
    "permuter.orders_enumerated": "count",
    "permuter.unique_ratio": "ratio",
    "gateway.retries": "count",
    "gateway.backoff_requested_s": "s",
    "gateway.attempt_log_bytes": "B",
    "trace.spans": "count",
    "trace.overhead_ratio": "ratio",
}


def per_layer_units() -> dict[str, str]:
    units = {f"{name}.{f}": ("count" if f == "calls" else "s")
             for name, fields in SPAN_METRICS.items() for f in fields}
    units.update(OTHER_METRICS)
    return units


def _import_program():
    if not os.path.isfile(os.path.join(SRC, "rewritebench", "__init__.py")):
        sys.exit(f"error: no rewritebench sources under {SRC}")
    sys.path[:0] = [SRC, BENCH_DIR]
    import rewritebench

    if not os.path.abspath(rewritebench.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: imported rewritebench from {rewritebench.__file__}, not {SRC}")


def _import_seconds() -> float:
    """Median import time of the package, in reference seconds, over
    ``IMPORT_PROBES`` fresh interpreters; a single import takes under 0.1 s
    and is noisy. Each interpreter times the calibration loop after its
    import, so the import is scaled by the speed of the same process."""
    probe = "\n".join([
        "import time",
        "t = time.perf_counter()",
        "import rewritebench.cli",
        "d = time.perf_counter() - t",
        f"CAL_LOOP = {clock.CAL_LOOP}",
        f"CAL_WIDTH = {clock.CAL_WIDTH}",
        inspect.getsource(clock._calibration),
        "cal = []",
        f"for _ in range({IMPORT_CALIBRATIONS}):",
        "    t = time.perf_counter()",
        "    _calibration()",
        "    cal.append(time.perf_counter() - t)",
        "print(d, *cal)",
    ])
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for _ in range(IMPORT_PROBES):
        out = subprocess.run(
            [sys.executable, "-c", probe], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=60, check=True,
        )
        wall, *probes = map(float, out.stdout.split())
        times.append(wall * clock.speed(probes))
    return statistics.median(times)


def _run_rounds(workload, stop_at: float, rounds: list, core, host) -> tuple[int, int]:
    """Whole rounds, at least one, while at least half a round's time is
    left before ``stop_at``; returns string_sets cache (hits, misses).

    The cache is emptied before each round: a round stands for fresh
    commands, which start with an empty cache, and the hit ratio then
    repeats exactly from round to round."""
    clear = getattr(core.string_sets, "cache_clear", None)
    info = getattr(core.string_sets, "cache_info", None)
    hits = misses = 0
    while True:
        if clear is not None:
            clear()
        started, first_probe = time.perf_counter(), len(host.samples)
        result = workload.round()
        if info is not None:
            stats = info()
            hits, misses = hits + stats.hits, misses + stats.misses
        workload.check_round(result, first=workload.digest is None)
        del result["outputs"]
        rounds.append(result)
        print(f"round {len(rounds)}: primary "
              + " ".join(f"{s:.3f}s" for _, s in result["primary"]) + ", secondary "
              + " ".join(f"{s:.3f}s" for _, s in result["secondary"])
              + f", host speed {host.speed_since(first_probe):.3f}", file=sys.stderr)
        now = time.perf_counter()
        if stop_at - now < (now - started) / 2:
            return hits, misses


def _timed_s(rounds: list) -> float:
    """Median over rounds of the time inside the timed stages."""
    return statistics.median(
        sum(s for _, s in r["primary"] + r["secondary"]) for r in rounds)


def _median_rate(rounds: list, stage: str) -> float:
    return statistics.median(ops / s for r in rounds for ops, s in r[stage])


def _per_layer(workload, tracer, traced: list, untraced: list, cache) -> dict:
    n = len(traced)
    summary = tracer.summary()
    values = {}
    for name, fields in SPAN_METRICS.items():
        row = summary.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        for field in fields:
            values[f"{name}.{field}"] = row[field] / n
    values.update({key: 0 for key in OTHER_METRICS})
    values.update({key: v / n for key, v in workload.counters.items()})
    values.update(workload.layer)
    hits, misses = cache
    values["core.string_sets.hit_ratio"] = hits / (hits + misses) if hits + misses else 0
    values["trace.spans"] = tracer.span_count() / n
    values["trace.overhead_ratio"] = _timed_s(traced) / _timed_s(untraced)
    return {key: {"value": values[key], "unit": unit}
            for key, unit in per_layer_units().items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    from rewritebench import core
    from tracer import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    host = clock.HostClock()
    host.start()
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir, host)
        setup_times = []
        for _ in range(SETUP_REPEATS):
            import_s = _import_seconds()
            with host.stage() as build:
                workload.setup()
            setup_times.append(import_s + build.seconds)
            print(f"set-up: import {import_s:.3f}s, build {build.seconds:.3f}s "
                  f"(wall {build.wall_s:.3f}s)", file=sys.stderr)

        start = time.perf_counter()
        untraced: list = []
        traced: list = []
        untraced_s = args.seconds / 2 if args.trace else args.seconds
        _run_rounds(workload, start + untraced_s, untraced, core, host)
        if args.trace:
            tracer = Tracer()
            workload.tracer = tracer
            tracer.install(workload.trace_targets())
            try:
                cache = _run_rounds(workload, start + args.seconds, traced, core, host)
            finally:
                tracer.uninstall()
            metrics = _per_layer(workload, tracer, traced, untraced, cache)
            out_dir = os.path.join(ROOT, ".bench_out")
            os.makedirs(out_dir, exist_ok=True)
            tracer.write(os.path.join(out_dir, f"trace-{args.workload}.spans"))
        else:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            values = {
                "setup_s": statistics.median(setup_times),
                "primary_per_s": _median_rate(untraced, "primary"),
                "secondary_per_s": _median_rate(untraced, "secondary"),
                "peak_rss_mb": rss_kb / 1024,
            }
            metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    finally:
        host.stop()
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))

    for error in workload.errors:
        print(f"check failed: {error}", file=sys.stderr)
    correct = not workload.errors
    rounds = untraced + traced
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
