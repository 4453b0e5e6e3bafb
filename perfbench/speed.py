"""The machine's current speed, measured with fixed reference kernels.

On a shared 2-vCPU virtual machine (Xeon, Python 3.11) the same Python code
ran up to 50% slower for minutes at a time, and process CPU time slowed with
wall time, so neither could be compared between runs as measured.  The
benchmark therefore times three small interpreter-bound kernels of its own
(object and dict work, integer arithmetic, regex and string work) between
operations, and divides each operation's time by the kernels' slowdown
against their reference times below: end-to-end times are in seconds at the
reference speed.  The kernels never touch omlogic, so a change to the
program moves the reported times and a change in the machine's speed does
not.  Raw times stay in each run's report.
"""

from __future__ import annotations

import gc
import math
import re
import statistics
import time

clock = time.perf_counter


class _Table:
    def __init__(self, n: int):
        self.names = [f"e{i}" for i in range(n)]
        self.index_of = {x: i for i, x in enumerate(self.names)}
        self.table = [[i | j for j in range(n)] for i in range(n)]

    def index(self, name: str) -> int:
        try:
            return self.index_of[name]
        except KeyError:
            raise ValueError(name) from None

    def join(self, a: str, b: str) -> str:
        return self.names[self.table[self.index(a)][self.index(b)]]


_TABLE = _Table(32)
_TOKEN = re.compile(r"\s+|[()]|\"[^\"]*\"|[A-Za-z0-9_']+")
_TEXT = '(rule cut (seq "In(a) * R(a) |- In(b)") (rule id (seq "In(a) |- In(a)")))' * 8


def _objects():
    names, seen = _TABLE.names, set()
    for i in range(3000):
        seen.add((_TABLE.join(names[i & 31], names[(i * 7) & 31]), i & 3))


def _arithmetic():
    s = 0
    for i in range(20000):
        s += i * i % 7


def _text():
    for _ in range(15):
        counts: dict[str, int] = {}
        for m in _TOKEN.finditer(_TEXT):
            counts[m.group()] = counts.get(m.group(), 0) + 1


# (kernel, its best-of-three seconds at the reference speed: the median on
# the 2-vCPU Xeon VM, Python 3.11, that the bounds in BENCHMARK.json were set on)
KERNELS = ((_objects, 1.0e-3), (_arithmetic, 1.47e-3), (_text, 1.1e-3))


def slowdown() -> float:
    """Geometric mean over the kernels of best-of-three time / reference time."""
    enabled = gc.isenabled()
    gc.disable()  # the program's heap must not change the kernels' cost
    try:
        logs = []
        for kernel, reference in KERNELS:
            best = math.inf
            for _ in range(3):
                t0 = clock()
                kernel()
                best = min(best, clock() - t0)
            logs.append(math.log(best / reference))
    finally:
        if enabled:
            gc.enable()
    return math.exp(sum(logs) / len(logs))


INTERVAL = 0.25  # seconds between slowdown readings
WINDOW = 5  # readings the median is taken over


class Speedometer:
    """The median of the last ``WINDOW`` slowdown readings, with a new reading
    taken when ``INTERVAL`` seconds have passed since the last one.  The
    machine's speed drifts over minutes, while a single reading is noisy."""

    def __init__(self):
        self.when = -math.inf
        self.readings: list[float] = []

    def __call__(self) -> float:
        if clock() - self.when >= INTERVAL:
            self.readings.append(slowdown())
            self.when = clock()
        return statistics.median(self.readings[-WINDOW:])
