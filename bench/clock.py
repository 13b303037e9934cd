"""Stage timing in reference seconds, which cancel the host's speed drift.

The shared host this benchmark runs on changes speed by up to 1.6x over
tens of seconds, and even the fastest of many short samples moves with it,
so wall-clock rates of the same code spread by 30 % between runs. A
:class:`HostClock` therefore times, every ``PROBE_INTERVAL_S`` of wall time,
a fixed pure-Python calibration loop from a ``SIGALRM`` handler. Its two
halves take about equal time: string, dict and sort operations on short
words, and an enumeration of short strings with a rewrite and a count on
each, the kinds of work rewritebench does. The handler runs on the main
thread between bytecodes, so the probes are spread through every stage,
even a single long ``gen`` call. A stage's reference time is its wall
time, minus the time spent in probes, scaled by ``CAL_REF_S`` over the probe
time inside the stage (the mean of its fastest three quarters, which drops
probes that a preemption happened to hit): one reference second is one wall
second on a host where the calibration loop takes ``CAL_REF_S``. On the
development host (2 vCPUs of a 2.1 GHz Xeon), over 180 seconds of
alternating stages, this cut the spread (standard deviation of the log) of
identical oracle stages from 12 % in wall time to 3 %, of symbolic
classifier stages from 13 % to 4.5 %, and of ``gen --preset lite`` from
6.5 % to 1.6 %. The first half alone tracks the oracle worse (4.4 %), the
second alone tracks ``gen`` worse (3.1 %).

The probes take about a tenth of the run's wall time, which is not counted,
and install nothing in the program.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time

PROBE_INTERVAL_S = 0.03
# Sizes of the calibration loop's two halves: words handled, and the length
# of the enumerated strings over three symbols.
CAL_LOOP = 500
CAL_WIDTH = 7
# About the calibration loop's typical time on the development host, so
# that reference seconds are near wall seconds there.
CAL_REF_S = 0.003
# Share of the slowest probes a speed estimate leaves out.
PROBE_TRIM = 0.25
# Probes a stage needs for its speed estimate; a shorter stage is topped up
# with probes taken right after it.
MIN_PROBES = 3


def _calibration(n: int = CAL_LOOP, width: int = CAL_WIDTH) -> int:
    import itertools

    words = ("abcab", "bca", "cabbac", "ab")
    seen: dict[str, int] = {}
    total = 0
    for i in range(n):
        w = words[i & 3] + words[(i >> 2) & 3]
        total += w.replace("ab", "c").count("ca") + ("bc" in w)
        seen[w[i % len(w):]] = i
        total += len(sorted(seen)[:2])
    for chars in itertools.product("abx", repeat=width):
        s = "".join(chars)
        if "ab" in s:
            total += s.replace("ab", "ba").count("bx") > s.count("bx")
    return total


def speed(probes: list[float]) -> float:
    """Reference seconds per wall second, from calibration loop times."""
    probes = sorted(probes)
    kept = probes[:len(probes) - int(len(probes) * PROBE_TRIM)]
    return CAL_REF_S / statistics.fmean(kept)


class Stage:
    wall_s = 0.0
    # Reference seconds per wall second while the stage ran.
    speed = 1.0
    seconds = 0.0


class HostClock:
    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def probe(self, *_signal) -> None:
        start = time.perf_counter()
        _calibration()
        end = time.perf_counter()
        self.samples.append(end - start)
        self.spent += time.perf_counter() - start

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def speed_since(self, first: int) -> float:
        """Reference seconds per wall second over probes ``first`` on."""
        return speed(self.samples[first:])

    @contextlib.contextmanager
    def stage(self):
        """Time the body; the yielded :class:`Stage` gets ``wall_s``,
        ``speed`` and ``seconds`` (reference seconds) when it ends. The
        ``SIGALRM`` probes must be running (:meth:`start`)."""
        stage = Stage()
        first, spent = len(self.samples), self.spent
        start = time.perf_counter()
        yield stage
        stage.wall_s = time.perf_counter() - start - (self.spent - spent)
        while len(self.samples) - first < MIN_PROBES:
            self.probe()
        stage.speed = self.speed_since(first)
        stage.seconds = stage.wall_s * stage.speed
