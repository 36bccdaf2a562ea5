"""A fixed reference loop that tracks how fast the host runs Python.

A shared host changes speed by up to ~2x for seconds at a time, and a
regime can last a whole invocation.  The benchmark therefore times this
loop right before every unit and every set-up, and reports host times
scaled to a host on which one loop takes :data:`NOMINAL_S`::

    scaled = host_seconds * NOMINAL_S / (median loop time nearby)

The loop is a small discrete-event simulation of the same kind of
interpreter work ``repro`` does: a heap of event tuples, objects with
attribute dicts, dict tallies and string keys.  The cyclic garbage
collector is paused while it runs, so its time does not depend on how
many objects ``repro`` keeps alive.  It is benchmark code: no change to
``repro`` changes it.
"""

from __future__ import annotations

import gc
import heapq
import statistics
import time
from typing import Dict, List, Sequence, Tuple

#: Events per sample (about 1 ms on a 2-vCPU Xeon container).
ROUNDS = 1200
#: Seconds one sample takes by definition: scaled times are host times
#: on a host where the loop takes exactly this long.
NOMINAL_S = 0.001
#: Samples on each side of a unit whose median scales that unit.
WINDOW = 5
#: What :func:`run_loop` returns; a different value means the loop changed.
CHECKSUM = 136976


class _Node:
    def __init__(self, index: int) -> None:
        self.index = index
        self.value = 0
        self.seen: Dict[str, int] = {}


def run_loop(rounds: int = ROUNDS) -> int:
    """The reference work: *rounds* events popped, applied and rescheduled."""
    nodes = [_Node(i) for i in range(32)]
    heap: List[Tuple[float, int, int]] = [(0.0, i, i) for i in range(8)]
    x = 1
    for seq in range(8, rounds + 8):
        when, _, target = heapq.heappop(heap)
        node = nodes[target]
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        node.value += x & 7
        key = f"k{x & 63}"
        node.seen[key] = node.seen.get(key, 0) + 1
        heapq.heappush(heap, (when + (x & 15) * 0.5, seq, (x >> 8) & 31))
    return sum(node.value * (1 + len(node.seen)) for node in nodes)


def sample() -> float:
    """Host seconds one reference loop takes now."""
    paused = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        checksum = run_loop()
        elapsed = time.perf_counter() - start
    finally:
        if paused:
            gc.enable()
    if checksum != CHECKSUM:
        raise AssertionError(f"reference loop checksum {checksum} != {CHECKSUM}")
    return elapsed


def scaled(host_s: Sequence[float], loop_s: Sequence[float]) -> List[float]:
    """Scale each ``host_s[i]`` by the median of the loop samples around ``i``."""
    out = []
    for i, seconds in enumerate(host_s):
        nearby = loop_s[max(0, i - WINDOW):i + WINDOW + 1]
        out.append(seconds * NOMINAL_S / statistics.median(nearby))
    return out
