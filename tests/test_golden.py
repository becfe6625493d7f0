"""Golden digests under pytest: one test per case of `tests/golden.py`'s table.

`tests/golden.py` holds the cases, the digest helpers and the table's
story; it runs without pytest (`PYTHONPATH=src python tests/golden.py`).
"""

from __future__ import annotations

import pytest

import collabtrust.simnet as simnet
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
    """Across the seeds, each lossy inline case parks responses that overtake
    their challenge, drops and delivers late, and purges queued deliveries,
    so its digests guard those paths."""
    handle_response = simnet.handle_response
    parked = 0

    def parking(state, r):
        nonlocal parked
        parked += state.challenge is None
        return handle_response(state, r)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simnet, "handle_response", parking)
        for name in ("lossy_adversarial", "same_tick_halt"):
            sc = scenario_from_dict(INLINE_SCENARIOS[name])
            parked = dropped = late = purged = 0
            for seed in SEEDS:
                c = simnet.run_simulation(sc, seed=seed).counters
                dropped, late, purged = dropped + c.dropped, late + c.late, purged + c.purged
            assert parked and dropped and late and purged, (name, parked, dropped, late, purged)


@pytest.mark.parametrize("param,values", SWEEPS, ids=[sweep_id(p, v) for p, v in SWEEPS])
def test_sweep_outputs_match_golden_digests(param, values, tmp_path):
    assert sweep_digests(param, values, tmp_path) == load_table()[sweep_id(param, values)]
