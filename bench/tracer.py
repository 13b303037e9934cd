"""In-memory span recording around the program's public functions.

:meth:`Tracer.install` replaces each named function, in every
``rewritebench`` module that holds it (including names bound by
``from .x import f``), with a wrapper that records one span per call: a
span id, the name, the parent span id, and start and end times. Spans are
kept per thread in flat arrays, with the time same-thread children cover,
and merged when the run ends; nothing is wrapped unless the traced mode
asks for it.

A worker-thread span opened with an empty stack is parented to the span
open on the main thread at that moment (the ``solve_dataset`` call that
started the pool), so self time, the span's duration minus the union of
its children's intervals, stays meaningful for concurrent children.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from array import array
from typing import Callable, Optional

_clock = time.perf_counter_ns


class _ThreadSpans:
    def __init__(self):
        # Open spans as [span id, time covered by same-thread children].
        self.stack: list[list[int]] = []
        self.ids = array("i")
        self.names = array("B")
        self.parents = array("i")
        self.starts = array("q")
        self.ends = array("q")
        self.covered = array("q")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._threads: list[_ThreadSpans] = []
        self._lock = threading.Lock()
        self._main = self._spans()
        self._patched: list[tuple[object, str, object]] = []
        # (parent id, start, end) of spans whose parent runs on another thread.
        self._foreign: list[tuple[int, int, int]] = []

    def _spans(self) -> _ThreadSpans:
        spans = getattr(self._local, "spans", None)
        if spans is None:
            spans = self._local.spans = _ThreadSpans()
            with self._lock:
                self._threads.append(spans)
        return spans

    def name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(
        self, name: str, fn: Callable, on_result: Optional[Callable] = None
    ) -> Callable:
        nid = self.name_id(name)
        ids, main, spans_of, foreign = self._ids, self._main, self._spans, self._foreign

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = spans_of()
            stack = spans.stack
            sid = next(ids)
            if stack:
                parent = stack[-1][0]
            elif spans is not main and main.stack:
                parent = main.stack[-1][0]
            else:
                parent = -1
            frame = [sid, 0]
            stack.append(frame)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                elif parent >= 0:
                    foreign.append((parent, start, end))
                spans.ids.append(sid)
                spans.names.append(nid)
                spans.parents.append(parent)
                spans.starts.append(start)
                spans.ends.append(end)
                spans.covered.append(frame[1])
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def install(self, targets: dict[str, Optional[Callable]]) -> None:
        """Wrap ``module.function`` for each key of ``targets``; the value is
        an optional ``on_result(args, result)`` hook for counters. A name
        the program no longer defines is skipped, and its metrics read 0."""
        modules = [
            m for n, m in list(sys.modules.items())
            if n == "rewritebench" or n.startswith("rewritebench.")
        ]
        for dotted, on_result in targets.items():
            module_name, attr = dotted.rsplit(".", 1)
            original = getattr(sys.modules[f"rewritebench.{module_name}"], attr, None)
            if original is None:
                print(f"trace: rewritebench.{dotted} not found, not traced", file=sys.stderr)
                continue
            wrapped = self.wrap(dotted, original, on_result)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
                        self._patched.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def span_count(self) -> int:
        return sum(len(t.ids) for t in self._threads)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, total time ``s`` and ``self_s``."""
        by_parent: dict[int, list[tuple[int, int]]] = {}
        for parent, start, end in self._foreign:
            by_parent.setdefault(parent, []).append((start, end))
        calls = [0] * len(self.names)
        total = [0] * len(self.names)
        own = [0] * len(self.names)
        for t in self._threads:
            for sid, nid, start, end, covered in zip(
                t.ids, t.names, t.starts, t.ends, t.covered
            ):
                if sid in by_parent:
                    covered += _union_length(by_parent[sid])
                calls[nid] += 1
                total[nid] += end - start
                own[nid] += end - start - covered
        return {
            name: {"calls": calls[i], "s": total[i] / 1e9, "self_s": own[i] / 1e9}
            for i, name in enumerate(self.names)
        }

    def write(self, path: str) -> None:
        """One JSON header line (span names, fields and their array
        typecodes), then each field's array over all threads, in native
        byte order."""
        fields = ("ids", "names", "parents", "starts", "ends")
        merged = {f: array(getattr(self._main, f).typecode) for f in fields}
        for t in self._threads:
            for f in fields:
                merged[f].extend(getattr(t, f))
        header = {
            "names": self.names,
            "fields": {f: merged[f].typecode for f in fields},
            "count": len(merged["ids"]),
            "byteorder": sys.byteorder,
            "time_unit": "ns",
        }
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for f in fields:
                merged[f].tofile(fh)


def _union_length(intervals) -> int:
    total, cur_start, cur_end = 0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total
