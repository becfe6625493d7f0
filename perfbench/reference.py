"""A fixed pure-Python workload that measures how fast the machine is right now.

On a shared machine the speed of the host CPU swings by up to 2x within
seconds, which moves host times far more than the changes the benchmark is
meant to judge. The benchmark runs this reference next to each measurement
and scales the measurement to a machine on which the reference takes
NOMINAL_NS. Its mix (a heap-ordered event loop over frozen dataclass
messages, dict state, method calls and 64-bit mixing) resembles the
simulator's, and it imports nothing from the program, so no change to the
program can change it.
"""

from __future__ import annotations

import gc
import heapq
import time
from dataclasses import dataclass

NOMINAL_NS = 10_000_000
MASK64 = (1 << 64) - 1
EVENTS = 1800
NODES = 7


@dataclass(frozen=True)
class _Message:
    frm: int
    to: int
    value: int


class _Node:
    __slots__ = ("id", "seen", "total")

    def __init__(self, node_id: int):
        self.id = node_id
        self.seen: dict[int, int] = {}
        self.total = 0

    def handle(self, msg: _Message) -> bool:
        self.seen[msg.frm] = msg.value
        self.total += msg.value & 0xFF
        return msg.value % 3 == 0


class _Stream:
    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed

    def next(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)


def _simulate() -> int:
    rng = _Stream(12345)
    nodes = {i: _Node(i) for i in range(NODES)}
    queue: list = []
    seq = 0
    for i in range(NODES):
        heapq.heappush(queue, (0, seq, _Message(i, (i + 1) % NODES, rng.next())))
        seq += 1
    handled = 0
    trace_chars = 0
    while queue and handled < EVENTS:
        t, _, msg = heapq.heappop(queue)
        handled += 1
        trace_chars += len(f"{t} {msg.frm} {msg.to} {msg.value}")
        if nodes[msg.to].handle(msg):
            for to in range(NODES):
                if to != msg.to:
                    heapq.heappush(queue, (t + 1 + rng.next() % 3, seq, _Message(msg.to, to, rng.next())))
                    seq += 1
    return trace_chars


def reference_ns() -> int:
    """Host nanoseconds the reference takes now, without garbage collection."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter_ns()
        _simulate()
        return time.perf_counter_ns() - t0
    finally:
        if enabled:
            gc.enable()
