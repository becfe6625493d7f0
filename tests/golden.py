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
- `wide_lossy`: groups of 36 drawn from 40 devices with 10% loss and latency
  1..4, so each fan-out of 35 unicasts draws up to 70 network words, across
  passes of the network stream's word iterator, and each group draw 36
  bounded words. A Trojan, an ALWAYS_WRONG device and a FRAME reporter ride
  along.
- `fixed_latency_lossy`: groups of 6 of 8 with 20% loss and a fixed latency
  of 3 ticks (`latency_min == latency_max`), so each unicast draws a drop
  word and no latency word, the send loop's one special case. A Trojan and
  an ALWAYS_WRONG device ride along, and both are detected.

The table also holds the JSON and CSV output of `collabtrust sweep` over
`scenarios/five_device_trojan.json` for each entry of `SWEEPS`: one sweep
crosses from a single run to aggregates, the other from the kernel to the
lossy engine.

The JSON and CSV reports are also produced without `--trace` and must hash
the same. Latency-free runs take the tally-level kernel, traced or not, and
every other run the round walk, so this checks that the kernel's
renderer and the round walk's traced path change no report byte. The traces of
latency-free cases, which the kernel writes, were recorded from the engine.

A digest may change only on purpose, and the change is recorded in
CHANGES.md. The last such change made the per-device reporting-noise streams
independent, which changed what the RANDOM reporter of
`repetitions_random_evade` draws and so its trace digests.

This module needs no pytest, so the table can be checked under any
interpreter that runs the package:

    PYTHONPATH=src python tests/golden.py          # check (the default)
    PYTHONPATH=src python tests/golden.py write    # after an intended change

`check` prints one line per case that differs and exits 1 if any does;
`write` regenerates the table. `tests/test_golden.py` runs the same checks
under pytest, one test per case.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import sys
import tempfile

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
    "wide_lossy": {
        "population": 40,
        "group_size": 36,
        "rounds": 8,
        "regroup_period": 4,
        "network": {"latency_min": 1, "latency_max": 4, "drop_prob": 0.1},
        "adversaries": [
            {
                "device": 1,
                "fault": "TROJAN",
                "trigger": {"index": 0, "mask": 3, "match": 1},
                "payload": {"kind": "XOR", "value": 1},
            },
            {"device": 2, "fault": "ALWAYS_WRONG"},
            {"device": 3, "reporting": "FRAME", "targets": [0]},
        ],
    },
    "fixed_latency_lossy": {
        "population": 8,
        "group_size": 6,
        "rounds": 30,
        "regroup_period": 5,
        "network": {"latency_min": 3, "latency_max": 3, "drop_prob": 0.2},
        "adversaries": [
            {
                "device": 1,
                "fault": "TROJAN",
                "trigger": {"index": 0, "mask": 3, "match": 1},
                "payload": {"kind": "XOR", "value": 1},
            },
            {"device": 2, "fault": "ALWAYS_WRONG"},
        ],
    },
}


# Sweeps over scenarios/five_device_trojan.json: (param, values).
SWEEP_SCENARIO = SCENARIO_DIR / "five_device_trojan.json"
SWEEPS = (("repetitions", "1,4,8"), ("network.drop_prob", "0,0.1,0.3"))


def load_table() -> dict[str, dict[str, str]]:
    return json.loads(TABLE.read_text(encoding="utf-8"))


def scenario_paths(workdir: pathlib.Path) -> dict[str, pathlib.Path]:
    """Every case's scenario file: the shipped ones, and the inline ones written to `workdir`."""
    paths = {p.stem: p for p in sorted(SCENARIO_DIR.glob("*.json"))}
    for name, doc in INLINE_SCENARIOS.items():
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        paths[name] = path
    return paths


def _sha256(path: pathlib.Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _cli(argv: list[str]) -> None:
    if cli.main(argv) != 0:
        raise RuntimeError(f"collabtrust {' '.join(argv)} failed")


def digests(scenario: pathlib.Path, seed: int, workdir: pathlib.Path) -> dict[str, str]:
    """The trace, JSON report and CSV report digests of one traced run."""
    trace = workdir / "trace.txt"
    out = {}
    for fmt in ("json", "csv"):
        report = workdir / f"report.{fmt}"
        _cli(["run", "--scenario", str(scenario), "--seed", str(seed),
              "--format", fmt, "--out", str(report), "--trace", str(trace)])
        out[fmt] = _sha256(report)
        if fmt == "json":
            out["trace"] = _sha256(trace)
        elif _sha256(trace) != out["trace"]:
            raise RuntimeError(f"{scenario.stem}/seed={seed}: trace differs between formats")
    return {"trace": out["trace"], "json": out["json"], "csv": out["csv"]}


def untraced_digests(scenario: pathlib.Path, seed: int, workdir: pathlib.Path) -> dict[str, str]:
    """The JSON and CSV report digests of the same run without a trace."""
    out = {}
    for fmt in ("json", "csv"):
        report = workdir / f"untraced.{fmt}"
        _cli(["run", "--scenario", str(scenario), "--seed", str(seed),
              "--format", fmt, "--out", str(report)])
        out[fmt] = _sha256(report)
    return out


def sweep_digests(param: str, values: str, workdir: pathlib.Path) -> dict[str, str]:
    out = {}
    for fmt in ("json", "csv"):
        rows = workdir / f"sweep.{fmt}"
        _cli(["sweep", "--scenario", str(SWEEP_SCENARIO), "--param", param,
              "--values", values, "--format", fmt, "--out", str(rows)])
        out[fmt] = _sha256(rows)
    return out


def sweep_id(param: str, values: str) -> str:
    return f"sweep/{param}={values}"


def case_id(name: str, seed: int) -> str:
    return f"{name}/seed={seed}"


def cases() -> list[tuple[str, int]]:
    names = sorted([p.stem for p in SCENARIO_DIR.glob("*.json")] + list(INLINE_SCENARIOS))
    return [(name, seed) for name in names for seed in SEEDS]


def table_ids() -> list[str]:
    """The ids the table must hold, one per case and one per sweep."""
    return [case_id(n, s) for n, s in cases()] + [sweep_id(p, v) for p, v in SWEEPS]


def check_table() -> list[str]:
    """One line per difference from the table: its ids, and each case traced, untraced and swept."""
    table = load_table()
    problems = []
    if sorted(table) != sorted(table_ids()):
        problems.append(f"table ids differ: missing {sorted(set(table_ids()) - set(table))},"
                        f" extra {sorted(set(table) - set(table_ids()))}")
    with tempfile.TemporaryDirectory() as tmp:
        workdir = pathlib.Path(tmp)
        paths = scenario_paths(workdir)
        for name, seed in cases():
            cid = case_id(name, seed)
            golden = table.get(cid, {})
            got = digests(paths[name], seed, workdir)
            if got != golden:
                problems.append(f"{cid}: traced run {got} != {golden}")
            untraced = untraced_digests(paths[name], seed, workdir)
            if untraced != {"json": golden.get("json"), "csv": golden.get("csv")}:
                problems.append(f"{cid}: untraced reports {untraced} != {golden}")
        for param, values in SWEEPS:
            sid = sweep_id(param, values)
            got = sweep_digests(param, values, workdir)
            if got != table.get(sid):
                problems.append(f"{sid}: {got} != {table.get(sid)}")
    return problems


def write_table() -> None:
    table = {}
    with tempfile.TemporaryDirectory() as tmp:
        workdir = pathlib.Path(tmp)
        paths = scenario_paths(workdir)
        for name, seed in cases():
            table[case_id(name, seed)] = digests(paths[name], seed, workdir)
        for param, values in SWEEPS:
            table[sweep_id(param, values)] = sweep_digests(param, values, workdir)
    TABLE.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(table)} digests to {TABLE}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Check or regenerate the golden digest table.")
    parser.add_argument("mode", nargs="?", choices=("check", "write"), default="check")
    if parser.parse_args(argv).mode == "write":
        write_table()
        return 0
    problems = check_table()
    for line in problems:
        print(line)
    version = ".".join(map(str, sys.version_info[:3]))
    verdict = f"{len(problems)} differ" if problems else "all match"
    print(f"Python {version}: {len(cases())} cases traced and untraced, {len(SWEEPS)} sweeps: {verdict}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
