"""Test-side views of a run: the verdicts it folds, the trace it writes, its report.

A run keeps no verdict log: both execution paths fold each verdict into
`RunResult.stats` through `DetectionStats.fold`, and the tally kernel folds
a group epoch's quiet rounds in bulk through `DetectionStats.fold_quiet`. Tests
that check individual verdicts wrap both methods and read the (issuer,
verdict) pairs back.
A run keeps no trace either: the event engine writes each line to the
stream it is given, so tests hand it an `io.StringIO`.
"""

from __future__ import annotations

import io
from collections import Counter

import pytest

from collabtrust.metrics import DetectionStats
from collabtrust.report import Report
from collabtrust.simnet import RunResult, run_simulation
from collabtrust.verdict import Outcome, Verdict


def run_logged(scenario, seed=None, trace=None) -> tuple[RunResult, list[tuple[int, Verdict]]]:
    """`run_simulation` plus every (issuer, verdict) pair the run folded, in fold order.

    The kernel folds a round's verdict once for all members, listed here in
    group order, and a group epoch's quiet rounds in one bulk call, expanded
    here round by round into the TRUSTED verdict of each member in group
    order. The kernel never knows a bulk round's tally, so those verdicts
    carry `tally=None`. The engine folds each verdict as its issuer reaches
    it.
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

    with pytest.MonkeyPatch.context() as mp:
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


def run_traced(scenario, seed=None) -> tuple[RunResult, list[str]]:
    """`run_simulation` through the event engine, plus its trace lines."""
    sink = io.StringIO()
    res = run_simulation(scenario, seed=seed, trace=sink)
    return res, trace_lines(sink)


def folded(scenario, *results: RunResult) -> Report:
    """The report of `results`: each folded in turn into one running total."""
    total = Report(scenario)
    for res in results:
        total.fold(res)
    return total
