"""Spans around the calls into each layer, recorded from outside the program.

Modules import each other's functions by name, so a function is wrapped in
the namespace of the module that calls it (`routines.execute` is replaced as
`collabtrust.protocol.execute`). `EventQueue` is replaced in
`collabtrust.simnet` by a subclass whose `schedule` and `pop` are wrapped.
SplitMix64 draws and constructions are counted, not timed: they are the most
frequent calls and a span each would swamp the run.

A span is (name, start, end, parent, command). Spans stay in memory until the
run ends. A span's self time is its duration minus the part of its interval
that its children cover, so per command the self times sum to the duration of
the command's root span.
"""

from __future__ import annotations

import importlib
import json
import time
from array import array
from contextlib import contextmanager

# (module whose namespace holds the name, attribute, layer metric name)
CALL_SITES = (
    ("collabtrust.cli", "scenario_from_dict", "scenario.scenario_from_dict"),
    ("collabtrust.cli", "run_simulation", "simnet.run_simulation"),
    ("collabtrust.cli", "build_report", "report.build_report"),
    ("collabtrust.cli", "build_aggregate", "report.build_aggregate"),
    ("collabtrust.cli", "emit_report", "report.emit_report"),
    ("collabtrust.report", "detection_stats", "metrics.detection_stats"),
    ("collabtrust.simnet", "send", "simnet.send"),
    ("collabtrust.simnet", "form_group", "simnet.form_group"),
    ("collabtrust.simnet", "account", "metrics.account"),
    ("collabtrust.simnet", "begin_round", "protocol.begin_round"),
    ("collabtrust.simnet", "on_round_start", "protocol.on_round_start"),
    ("collabtrust.simnet", "handle_check_request", "protocol.handle_check_request"),
    ("collabtrust.simnet", "handle_response", "protocol.handle_response"),
    ("collabtrust.simnet", "handle_report", "protocol.handle_report"),
    ("collabtrust.simnet", "on_timeout", "protocol.on_timeout"),
    ("collabtrust.simnet", "update_suspicion", "verdict.update_suspicion"),
    ("collabtrust.protocol", "account", "metrics.account"),
    ("collabtrust.protocol", "handle_response", "protocol.handle_response"),
    ("collabtrust.protocol", "generate_operands", "routines.generate_operands"),
    ("collabtrust.protocol", "choose_adversarial_operands", "adversary.choose_adversarial_operands"),
    ("collabtrust.protocol", "execute", "routines.execute"),
    ("collabtrust.protocol", "apply_fault", "adversary.apply_fault"),
    ("collabtrust.protocol", "distort_opinion", "adversary.distort_opinion"),
    ("collabtrust.protocol", "compute_verdict", "verdict.compute_verdict"),
)
ROOT_SPAN = "cli.main"
QUEUE_SPANS = ("simnet.EventQueue.schedule", "simnet.EventQueue.pop")
SPAN_NAMES = tuple(dict.fromkeys((ROOT_SPAN,) + QUEUE_SPANS + tuple(c[2] for c in CALL_SITES)))
COUNTS = ("simnet.queue_peak", "rng.next_u64.calls", "rng.streams")


class SpanRecorder:
    """Spans and counters of the traced commands, kept in flat arrays."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.command = array("q")
        self._stack: list[int] = []
        self._command_box = [-1]
        self.counts = {name: 0 for name in COUNTS}

    def begin_command(self, command: int) -> None:
        self._command_box[0] = command

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn):
        """`fn` recording one span per call, parented to the open span."""
        nid = self.name_id(name)
        names, starts, ends = self.name, self.start, self.end
        parents, commands = self.parent, self.command
        stack, box = self._stack, self._command_box
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            commands.append(box[0])
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1

        traced.__wrapped__ = fn
        return traced

    def dump(self, path: str) -> None:
        """Write the spans as int64 columns plus a JSON index beside them."""
        columns = ("name", "start", "end", "parent", "command")
        with open(path + ".bin", "wb") as fh:
            for col in columns:
                getattr(self, col).tofile(fh)
        with open(path + ".json", "w", encoding="utf-8") as fh:
            json.dump(
                {"names": self.names, "count": len(self.start), "columns": columns,
                 "dtype": "int64", "layout": "column after column"},
                fh,
            )


def _timed_queue(base, rec: SpanRecorder):
    timed_schedule = rec.wrap(QUEUE_SPANS[0], base.schedule)

    class TimedEventQueue(base):
        pop = rec.wrap(QUEUE_SPANS[1], base.pop)

        def schedule(self, at, payload):
            seq = timed_schedule(self, at, payload)
            if len(self) > rec.counts["simnet.queue_peak"]:
                rec.counts["simnet.queue_peak"] = len(self)
            return seq

    return TimedEventQueue


def _counting(rec: SpanRecorder, counter: str):
    counts = rec.counts

    def make(fn):
        def counted(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return counted

    return make


@contextmanager
def installed(rec: SpanRecorder):
    """Wrap every call site while the block runs; yields names not found.

    A call site the program no longer has is skipped and its layer reads
    zero, so a refactor that removes a function does not stop the run.
    """
    undo = []
    missing = []

    def patch(owner, attr: str, make) -> None:
        if owner is None or not hasattr(owner, attr):
            missing.append(attr if owner is None else f"{owner.__name__}.{attr}")
            return
        original = getattr(owner, attr)
        undo.append((owner, attr, original))
        setattr(owner, attr, make(original))

    try:
        for module_name, attr, metric in CALL_SITES:
            patch(importlib.import_module(module_name), attr, lambda fn, m=metric: rec.wrap(m, fn))
        simnet = importlib.import_module("collabtrust.simnet")
        patch(simnet, "EventQueue", lambda cls: _timed_queue(cls, rec))
        stream = getattr(importlib.import_module("collabtrust.rng"), "SplitMix64", None)
        patch(stream, "next_u64", _counting(rec, "rng.next_u64.calls"))
        patch(stream, "__init__", _counting(rec, "rng.streams"))
        yield missing
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


def self_times(start, end, parent) -> list[int]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[int]] = {}
    for i, p in enumerate(parent):
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = []
    for i in range(len(start)):
        s, e = start[i], end[i]
        covered = 0
        reach = s
        for c in sorted(children.get(i, ()), key=lambda c: start[c]):
            lo, hi = max(start[c], reach), min(end[c], e)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(e - s - covered)
    return out


def layer_totals(rec: SpanRecorder) -> tuple[dict[str, int], dict[str, int], dict[int, tuple[int, int]]]:
    """Per span name: calls and self time (ns); per command: (root ns, self-time sum ns)."""
    selfs = self_times(rec.start, rec.end, rec.parent)
    calls = {name: 0 for name in SPAN_NAMES}
    self_ns = {name: 0 for name in SPAN_NAMES}
    per_command: dict[int, list[int]] = {}
    for i, nid in enumerate(rec.name):
        name = rec.names[nid]
        calls[name] = calls.get(name, 0) + 1
        self_ns[name] = self_ns.get(name, 0) + selfs[i]
        totals = per_command.setdefault(rec.command[i], [0, 0])
        if rec.parent[i] < 0:
            totals[0] += rec.end[i] - rec.start[i]
        totals[1] += selfs[i]
    return calls, self_ns, {c: (t[0], t[1]) for c, t in per_command.items()}
