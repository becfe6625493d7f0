"""Golden digests: traces and reports must stay byte-identical across refactors.

Each case runs `collabtrust run` through `cli.main` for one scenario and seed
and hashes three outputs with SHA-256: the `--trace` file, the JSON report
and the CSV report. The committed table in `golden_digests.json` covers every
shipped `scenarios/*.json` plus inline documents for paths the shipped
scenarios never reach:

- `lossy_adversarial`: N=7 of 9, latency 1..9 ticks, 20% loss, an
  ALWAYS_WRONG device and a SHIELD liar covering it. It produces drops, late
  deliveries, messages still in flight at the end, and a purge of queued
  deliveries once the faulty device is excluded.
- `repetitions_random_evade`: three repetitions with a RANDOM reporter and an
  EVADE initiator, so the aggregate report and the `REP` trace headers are
  covered.
- `same_tick_halt`: zero-latency sends and a deadline of 2 * latency_max, so
  many events share a tick (a round's deadline, the next round's start and
  deliveries all land together), plus two faulty devices whose exclusion
  halts the run with deliveries still in flight.
- `repetitions_mixed_halts`: six lossy repetitions in which the ALWAYS_WRONG
  device is always excluded and the Trojan only in some, so some runs halt
  and others do not: the aggregate's `halted_runs`, `detections` and
  `excluded` counts all differ from the repetition count.
- `sparse_population`: groups of 5 drawn from 60 devices over 12 rounds, so
  most devices never join a group and their report rows are all zero. Its
  ALWAYS_WRONG device is excluded mid-epoch in some seeds and its Trojan in
  another.

The table also holds the JSON and CSV output of `collabtrust sweep` over
`scenarios/five_device_trojan.json` for each entry of `SWEEPS`: one sweep
crosses from a single run to aggregates, the other from the kernel to the
lossy engine.

The JSON and CSV reports are also produced without `--trace` and must hash
the same: untraced lossless runs take the tally-level kernel instead of the
event engine, and its reports are byte-identical.

A digest may change only on purpose, and the change is recorded in
CHANGES.md. The last such change made the per-device reporting-noise streams
independent, which changed what the RANDOM reporter of
`repetitions_random_evade` draws and so its trace digests.

Regenerate the table after an intended output change with
`PYTHONPATH=src python tests/test_golden.py`.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys
import tempfile

import pytest

import collabtrust.cli as cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCENARIO_DIR = ROOT / "scenarios"
TABLE = pathlib.Path(__file__).resolve().parent / "golden_digests.json"
SEEDS = range(5)

INLINE_SCENARIOS = {
    "lossy_adversarial": {
        "population": 9,
        "group_size": 7,
        "rounds": 30,
        "regroup_period": 3,
        "round_deadline": 20,
        "network": {"latency_min": 1, "latency_max": 9, "drop_prob": 0.2},
        "adversaries": [
            {"device": 2, "fault": "ALWAYS_WRONG"},
            {"device": 5, "reporting": "SHIELD", "targets": [2]},
        ],
    },
    "repetitions_random_evade": {
        "population": 6,
        "group_size": 5,
        "rounds": 12,
        "repetitions": 3,
        "adversaries": [
            {"device": 1, "reporting": "RANDOM", "p": 0.3},
            {"device": 3, "initiator_policy": "EVADE", "targets": [4]},
            {
                "device": 4,
                "fault": "TROJAN",
                "trigger": {"index": 0, "mask": 3, "match": 1},
                "payload": {"kind": "XOR", "value": 1},
            },
        ],
    },
    "repetitions_mixed_halts": {
        "population": 6,
        "group_size": 5,
        "rounds": 30,
        "repetitions": 6,
        "network": {"drop_prob": 0.05},
        "adversaries": [
            {
                "device": 1,
                "fault": "TROJAN",
                "trigger": {"index": 0, "mask": 15, "match": 5},
                "payload": {"kind": "XOR", "value": 1},
            },
            {"device": 2, "fault": "ALWAYS_WRONG"},
        ],
    },
    "same_tick_halt": {
        "population": 6,
        "group_size": 5,
        "rounds": 40,
        "round_deadline": 6,
        "flag_threshold": 1,
        "network": {"latency_min": 0, "latency_max": 3, "drop_prob": 0.1},
        "adversaries": [
            {"device": 2, "fault": "ALWAYS_WRONG"},
            {"device": 4, "fault": "ALWAYS_WRONG"},
        ],
    },
    "sparse_population": {
        "population": 60,
        "group_size": 5,
        "rounds": 12,
        "regroup_period": 5,
        "adversaries": [
            {"device": 4, "fault": "ALWAYS_WRONG"},
            {
                "device": 31,
                "fault": "TROJAN",
                "trigger": {"index": 0, "mask": 3, "match": 1},
                "payload": {"kind": "XOR", "value": 1},
            },
        ],
    },
}


# Sweeps over scenarios/five_device_trojan.json: (param, values).
SWEEP_SCENARIO = SCENARIO_DIR / "five_device_trojan.json"
SWEEPS = (("repetitions", "1,4,8"), ("network.drop_prob", "0,0.1,0.3"))


def _scenario_paths(workdir: pathlib.Path) -> dict[str, pathlib.Path]:
    paths = {p.stem: p for p in sorted(SCENARIO_DIR.glob("*.json"))}
    for name, doc in INLINE_SCENARIOS.items():
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        paths[name] = path
    return paths


def _sha256(path: pathlib.Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _digests(scenario: pathlib.Path, seed: int, workdir: pathlib.Path) -> dict[str, str]:
    trace = workdir / "trace.txt"
    out = {}
    for fmt in ("json", "csv"):
        report = workdir / f"report.{fmt}"
        argv = ["run", "--scenario", str(scenario), "--seed", str(seed),
                "--format", fmt, "--out", str(report), "--trace", str(trace)]
        assert cli.main(argv) == 0
        out[fmt] = _sha256(report)
        if fmt == "json":
            out["trace"] = _sha256(trace)
        else:
            assert _sha256(trace) == out["trace"], "trace differs between formats"
    return {"trace": out["trace"], "json": out["json"], "csv": out["csv"]}


def _untraced_digests(scenario: pathlib.Path, seed: int, workdir: pathlib.Path) -> dict[str, str]:
    out = {}
    for fmt in ("json", "csv"):
        report = workdir / f"untraced.{fmt}"
        argv = ["run", "--scenario", str(scenario), "--seed", str(seed),
                "--format", fmt, "--out", str(report)]
        assert cli.main(argv) == 0
        out[fmt] = _sha256(report)
    return out


def _sweep_digests(param: str, values: str, workdir: pathlib.Path) -> dict[str, str]:
    out = {}
    for fmt in ("json", "csv"):
        rows = workdir / f"sweep.{fmt}"
        argv = ["sweep", "--scenario", str(SWEEP_SCENARIO), "--param", param,
                "--values", values, "--format", fmt, "--out", str(rows)]
        assert cli.main(argv) == 0
        out[fmt] = _sha256(rows)
    return out


def _sweep_id(param: str, values: str) -> str:
    return f"sweep/{param}={values}"


def _case_id(name: str, seed: int) -> str:
    return f"{name}/seed={seed}"


def _cases() -> list[tuple[str, int]]:
    names = sorted([p.stem for p in SCENARIO_DIR.glob("*.json")] + list(INLINE_SCENARIOS))
    return [(name, seed) for name in names for seed in SEEDS]


def test_table_covers_every_case():
    table = json.loads(TABLE.read_text(encoding="utf-8"))
    ids = [_case_id(n, s) for n, s in _cases()] + [_sweep_id(p, v) for p, v in SWEEPS]
    assert sorted(table) == sorted(ids)


@pytest.mark.parametrize("name,seed", _cases(), ids=[_case_id(n, s) for n, s in _cases()])
def test_outputs_match_golden_digests(name, seed, tmp_path):
    table = json.loads(TABLE.read_text(encoding="utf-8"))
    scenario = _scenario_paths(tmp_path)[name]
    assert _digests(scenario, seed, tmp_path) == table[_case_id(name, seed)]


@pytest.mark.parametrize("name,seed", _cases(), ids=[_case_id(n, s) for n, s in _cases()])
def test_untraced_reports_match_golden_digests(name, seed, tmp_path):
    golden = json.loads(TABLE.read_text(encoding="utf-8"))[_case_id(name, seed)]
    scenario = _scenario_paths(tmp_path)[name]
    assert _untraced_digests(scenario, seed, tmp_path) == {"json": golden["json"], "csv": golden["csv"]}


@pytest.mark.parametrize("param,values", SWEEPS, ids=[_sweep_id(p, v) for p, v in SWEEPS])
def test_sweep_outputs_match_golden_digests(param, values, tmp_path):
    golden = json.loads(TABLE.read_text(encoding="utf-8"))[_sweep_id(param, values)]
    assert _sweep_digests(param, values, tmp_path) == golden


def _write_table() -> None:
    table = {}
    with tempfile.TemporaryDirectory() as tmp:
        workdir = pathlib.Path(tmp)
        paths = _scenario_paths(workdir)
        for name, seed in _cases():
            table[_case_id(name, seed)] = _digests(paths[name], seed, workdir)
        for param, values in SWEEPS:
            table[_sweep_id(param, values)] = _sweep_digests(param, values, workdir)
    TABLE.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(table)} digests to {TABLE}", file=sys.stderr)


if __name__ == "__main__":
    _write_table()
