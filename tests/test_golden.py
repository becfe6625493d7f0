"""Golden digests under pytest: one test per case of `tests/golden.py`'s table.

`tests/golden.py` holds the cases, the digest helpers and the table's
story; it runs without pytest (`PYTHONPATH=src python tests/golden.py`).
"""

from __future__ import annotations

import pytest

from collabtrust.scenario import scenario_from_dict
from golden import (
    INLINE_SCENARIOS,
    SEEDS,
    SWEEPS,
    case_id,
    cases,
    digests,
    load_table,
    scenario_paths,
    sweep_digests,
    sweep_id,
    table_ids,
    untraced_digests,
)
from verdict_log import run_traced


def test_table_covers_every_case():
    assert sorted(load_table()) == sorted(table_ids())


@pytest.mark.parametrize("name,seed", cases(), ids=[case_id(n, s) for n, s in cases()])
def test_outputs_match_golden_digests(name, seed, tmp_path):
    scenario = scenario_paths(tmp_path)[name]
    assert digests(scenario, seed, tmp_path) == load_table()[case_id(name, seed)]


@pytest.mark.parametrize("name,seed", cases(), ids=[case_id(n, s) for n, s in cases()])
def test_untraced_reports_match_golden_digests(name, seed, tmp_path):
    golden = load_table()[case_id(name, seed)]
    scenario = scenario_paths(tmp_path)[name]
    assert untraced_digests(scenario, seed, tmp_path) == {"json": golden["json"], "csv": golden["csv"]}


def test_inline_cases_show_their_case():
    """Across the seeds, each lossy inline case has responses that overtake
    their challenge (a receiver's in-time RESPONSE line comes before its
    in-time CHALLENGE line of the round), drops and delivers late, and purges
    queued deliveries, so its digests guard those paths."""
    for name in ("lossy_adversarial", "same_tick_halt"):
        sc = scenario_from_dict(INLINE_SCENARIOS[name])
        overtaken = dropped = late = purged = 0
        for seed in SEEDS:
            res, trace = run_traced(sc, seed=seed)
            c = res.counters
            dropped, late, purged = dropped + c.dropped, late + c.late, purged + c.purged
            challenged = set()  # the round's receivers of an in-time challenge, and its initiator
            for f in map(str.split, trace):
                if f[2] == "ROUND_START":
                    challenged = {dict(x.split("=") for x in f[5:])["initiator"]}
                elif f[2] == "CHALLENGE" and f[-1] != "late=1":
                    challenged.add(f[4])
                elif f[2] == "RESPONSE" and f[-1] != "late=1":
                    overtaken += f[4] not in challenged
        assert overtaken and dropped and late and purged, (name, overtaken, dropped, late, purged)


@pytest.mark.parametrize("param,values", SWEEPS, ids=[sweep_id(p, v) for p, v in SWEEPS])
def test_sweep_outputs_match_golden_digests(param, values, tmp_path):
    assert sweep_digests(param, values, tmp_path) == load_table()[sweep_id(param, values)]
