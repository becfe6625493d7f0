"""Test-side recorder of the verdicts a run folds into its DetectionStats.

A run keeps no verdict log: both execution paths fold each verdict into
`RunResult.stats` through `DetectionStats.fold`. Tests that check individual
verdicts wrap that one method and read the (issuer, verdict) pairs back.
"""

from __future__ import annotations

import pytest

from collabtrust.metrics import DetectionStats
from collabtrust.simnet import RunResult, run_simulation
from collabtrust.verdict import Verdict


def run_logged(scenario, seed=None, collect_trace=True) -> tuple[RunResult, list[tuple[int, Verdict]]]:
    """`run_simulation` plus every (issuer, verdict) pair the run folded, in fold order.

    The kernel folds a round's verdict once for all members, listed here in
    group order; the engine folds each verdict as its issuer reaches it.
    """
    log: list[tuple[int, Verdict]] = []
    fold = DetectionStats.fold

    def recording(stats, v, issuers, profiles):
        log.extend((issuer, v) for issuer in issuers)
        fold(stats, v, issuers, profiles)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(DetectionStats, "fold", recording)
        res = run_simulation(scenario, seed=seed, collect_trace=collect_trace)
    return res, log
