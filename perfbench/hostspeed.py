"""Host speed probes.

The benchmark host is a small shared VM whose speed changes by up to
about 1.7x for tens of seconds at a time, and not always on both vCPUs at
once. Every query is timed between two probes and its latency is rescaled
to a nominal host by the mean of the two. In-process queries use
`probe()`, the best of three runs of a fixed pure-Python loop (tuples,
dicts, small-int arithmetic, the operations the library's engine is made
of). CLI queries are child processes, which a probe in the parent does
not track, so they use `probe_child()`, a fresh interpreter importing a
few standard modules. Neither probe runs any code of the program under
test, so a change to the program moves rescaled times exactly as it moves
raw ones.
"""

from __future__ import annotations

import subprocess
import time

NOMINAL_S = 0.001
NOMINAL_CHILD_S = 0.05
CHILD_IMPORTS = "import argparse, dataclasses, fractions, json, random, re"


def _reference_loop() -> int:
    table: dict = {}
    acc = 0
    for i in range(4000):
        key = (i & 63, i >> 6)
        table[key] = table.get(key, 0) + i
        acc += len(key) + (i ^ (acc & 255))
    return acc


def probe() -> float:
    """Seconds the reference loop takes now: the best of three runs."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        _reference_loop()
        best = min(best, time.perf_counter() - t0)
    return best


def probe_child(python: str) -> float:
    """Seconds a fresh interpreter takes to start and import CHILD_IMPORTS."""
    t0 = time.perf_counter()
    subprocess.run([python, "-c", CHILD_IMPORTS], check=True, capture_output=True, timeout=60)
    return time.perf_counter() - t0


def scale(seconds: float, before: float, after: float, nominal: float) -> float:
    """`seconds` measured between probes `before` and `after`, rescaled to
    the host on which the probe takes `nominal` seconds."""
    return seconds * nominal / ((before + after) / 2)
