"""Test-side views of a run: the verdicts it folds and the trace it writes.

A run keeps no verdict log: both execution paths fold each verdict into
`RunResult.stats` through `DetectionStats.fold`, and the tally kernel folds
a group's quiet rounds in bulk through `DetectionStats.fold_quiet`. Tests
that check individual verdicts wrap both methods and read the (issuer,
verdict) pairs back.
A run keeps no trace either: the event engine writes each line to the
stream it is given, so tests hand it an `io.StringIO`.
"""

from __future__ import annotations

import io

import pytest

from collabtrust.metrics import DetectionStats
from collabtrust.simnet import RunResult, run_simulation
from collabtrust.verdict import Outcome, Tally, Verdict


def run_logged(scenario, seed=None, trace=None) -> tuple[RunResult, list[tuple[int, Verdict]]]:
    """`run_simulation` plus every (issuer, verdict) pair the run folded, in fold order.

    The kernel folds a round's verdict once for all members, listed here in
    group order, and a group's quiet rounds once per group epoch, expanded
    here round by round into the unanimous TRUSTED verdict of each member in
    group order; the engine folds each verdict as its issuer reaches it.
    """
    log: list[tuple[int, Verdict]] = []
    fold = DetectionStats.fold
    fold_quiet = DetectionStats.fold_quiet

    def recording(stats, v, issuers, profiles):
        log.extend((issuer, v) for issuer in issuers)
        fold(stats, v, issuers, profiles)

    def recording_quiet(stats, members, rounds):
        n = len(members)
        tally = Tally(agree=n - 1, disagree=0, missing=0, n_checkers=n - 1)
        for r in rounds:
            v = Verdict(checkee=members[r % n], round=r, outcome=Outcome.TRUSTED, tally=tally)
            log.extend((m, v) for m in members)
        fold_quiet(stats, members, rounds)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(DetectionStats, "fold", recording)
        mp.setattr(DetectionStats, "fold_quiet", recording_quiet)
        res = run_simulation(scenario, seed=seed, trace=trace)
    return res, log


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
