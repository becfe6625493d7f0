"""Test-side views of a run: the verdicts it folds, the trace it writes, its report.

A run keeps no verdict log: both execution paths fold each verdict into
`RunResult.stats` through `DetectionStats.fold`, and the tally kernel folds
a group epoch's quiet rounds in bulk through `DetectionStats.fold_quiet`. Tests
that check individual verdicts wrap both methods and read the (issuer,
verdict) pairs back.
A run keeps no trace either: either path writes each round's lines to the
stream it is given, so tests hand it an `io.StringIO`.
A latency-free run takes the tally kernel, traced or not. Tests that mean
the round walk, which they call the engine, say so: `forced_engine` patches `simnet.latency_free` to
read False while it is open, and `run_engine`, `run_logged(engine=True)`
and `run_traced(engine=True)` run inside it. The package itself has no
such switch.
"""

from __future__ import annotations

import io
from collections import Counter
from collections.abc import Iterator
from contextlib import contextmanager, nullcontext

import pytest

import collabtrust.simnet as simnet
from collabtrust.metrics import DetectionStats
from collabtrust.report import Report, emit_report
from collabtrust.simnet import RunResult, run_simulation
from collabtrust.verdict import Outcome, Verdict


@contextmanager
def forced_engine() -> Iterator[None]:
    """While open, every run takes the round walk: `simnet.latency_free` reads False."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simnet, "latency_free", lambda scenario: False)
        yield


def run_engine(scenario, seed=None, trace=None) -> RunResult:
    """`run_simulation` through the round walk, latency-free or not."""
    with forced_engine():
        return run_simulation(scenario, seed=seed, trace=trace)


def run_logged(
    scenario, seed=None, trace=None, engine=False
) -> tuple[RunResult, list[tuple[int, Verdict]]]:
    """`run_simulation` plus every (issuer, verdict) pair the run folded, in fold order.

    The kernel folds a round's verdict once for all members, listed here in
    group order, and a group epoch's quiet rounds in one bulk call, expanded
    here round by round into the TRUSTED verdict of each member in group
    order. The kernel never knows a bulk round's tally, so those verdicts
    carry `tally=None`; traced, the kernel folds every round one by one.
    The engine, which `engine=True` forces, folds each verdict as its
    issuer reaches it.
    """
    log: list[tuple[int, Verdict]] = []
    folded: set[int] = set()  # rounds folded one by one
    fold = DetectionStats.fold
    fold_quiet = DetectionStats.fold_quiet

    def recording(stats, v, issuers, profiles):
        log.extend((issuer, v) for issuer in issuers)
        folded.add(v.round)
        fold(stats, v, issuers, profiles)

    def recording_quiet(stats, members, epoch, loud):
        n = len(members)
        quiet = [r for r in epoch if r not in folded]
        assert len(quiet) == len(epoch) - loud
        for r in quiet:
            v = Verdict(checkee=members[r % n], round=r, outcome=Outcome.TRUSTED, tally=None)
            log.extend((m, v) for m in members)
        fold_quiet(stats, members, epoch, loud)

    with pytest.MonkeyPatch.context() as mp, forced_engine() if engine else nullcontext():
        mp.setattr(DetectionStats, "fold", recording)
        mp.setattr(DetectionStats, "fold_quiet", recording_quiet)
        res = run_simulation(scenario, seed=seed, trace=trace)
    return res, log


def kernel_view(kernel_log, engine_log) -> tuple[Counter, Counter]:
    """The two logs as multisets, compared as far as the kernel's contract goes.

    A verdict the kernel folded one by one must equal the engine's, tally
    included. Of a bulk-folded round, whose tally the kernel never knows,
    only (issuer, round, checkee, outcome) is compared.
    """
    bulk = {v.round for _, v in kernel_log if v.tally is None}

    def view(log):
        return Counter(
            (i, v.round, v.checkee, v.outcome, None if v.round in bulk else v.tally) for i, v in log
        )

    return view(kernel_log), view(engine_log)


def trace_lines(sink: io.StringIO) -> list[str]:
    """The lines a run wrote to `sink`, without their newlines."""
    lines = sink.getvalue().split("\n")
    assert lines.pop() == "", "every trace line ends in a newline"
    return lines


def run_traced(scenario, seed=None, engine=False) -> tuple[RunResult, list[str]]:
    """`run_simulation` with a trace sink, plus its trace lines.

    A latency-free run takes the tally kernel unless `engine` forces the event engine.
    """
    sink = io.StringIO()
    with forced_engine() if engine else nullcontext():
        res = run_simulation(scenario, seed=seed, trace=sink)
    return res, trace_lines(sink)


def folded(scenario, *results: RunResult) -> Report:
    """The report of `results`: each folded in turn into one running total."""
    total = Report(scenario)
    for res in results:
        total.fold(res)
    return total


def emitted(report: Report, format: str) -> bytes:
    """The bytes `emit_report` streams for `report`, joined."""
    return b"".join(emit_report(report, format))
