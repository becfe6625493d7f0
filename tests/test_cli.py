"""CLI tests: subcommands, exit codes, byte-reproducible outputs."""

from __future__ import annotations

import gc
import json
import os
import pathlib
import subprocess
import sys
import threading
import weakref

import pytest

import collabtrust.cli as cli
import collabtrust.simnet as simnet
from collabtrust.errors import ProtocolViolation
from collabtrust.metrics import EnergyLedger, TrafficCounters
from test_golden import INLINE_SCENARIOS

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCENARIO_DIR = ROOT / "scenarios"
HONEST = str(SCENARIO_DIR / "five_device_honest.json")


def run_cli(*argv):
    return cli.main(list(argv))


def test_run_json_report_round_trips(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run_cli("run", "--scenario", HONEST, "--seed", "7", "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["seed"] == 7
    assert doc["rounds_executed"] == 25
    assert len(doc["devices"]) == 5
    assert doc["global"]["verdicts"] == {"TRUSTED": 125, "FLAGGED": 0, "INCONCLUSIVE": 0}
    assert doc["global"]["messages"]["sent"] == 600


def test_run_twice_byte_identical(tmp_path):
    outs, traces = [], []
    for i in range(2):
        out = tmp_path / f"r{i}.json"
        trace = tmp_path / f"t{i}.txt"
        assert (
            run_cli(
                "run", "--scenario", HONEST, "--seed", "7",
                "--out", str(out), "--trace", str(trace),
            )
            == 0
        )
        outs.append(out.read_bytes())
        traces.append(trace.read_bytes())
    assert outs[0] == outs[1]
    assert traces[0] == traces[1]


def test_python_m_collabtrust_matches_cli_main(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    trace = tmp_path / "module.txt"
    proc = subprocess.run(
        [sys.executable, "-m", "collabtrust", "run", "--scenario", HONEST, "--seed", "7",
         "--out", str(tmp_path / "module.json"), "--trace", str(trace)],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert run_cli("run", "--scenario", HONEST, "--seed", "7",
                   "--out", str(tmp_path / "main.json"), "--trace", str(tmp_path / "main.txt")) == 0
    assert (tmp_path / "module.json").read_bytes() == (tmp_path / "main.json").read_bytes()
    assert trace.read_bytes() == (tmp_path / "main.txt").read_bytes()
    bad = subprocess.run([sys.executable, "-m", "collabtrust", "run", "--scenario", "missing.json"],
                         env=env, capture_output=True, text=True)
    assert bad.returncode == 1 and len(bad.stderr.strip().splitlines()) == 1


def test_changing_seed_changes_trace(tmp_path):
    traces = []
    for seed in ("7", "8"):
        trace = tmp_path / f"t{seed}.txt"
        run_cli("run", "--scenario", HONEST, "--seed", seed, "--trace", str(trace), "--out", str(tmp_path / f"r{seed}.json"))
        traces.append(trace.read_bytes())
    assert traces[0] != traces[1]


def test_run_csv_has_device_rows_plus_global(tmp_path):
    out = tmp_path / "report.csv"
    run_cli("run", "--scenario", HONEST, "--format", "csv", "--out", str(out))
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "id,energy,sent,received,flags,excluded_round,detection_round"
    assert len(lines) == 1 + 6  # header + 5 devices + GLOBAL
    assert lines[-1].startswith("GLOBAL,")
    assert all(line.split(",")[4] == "0" for line in lines[1:6])  # flags column


def test_csv_and_json_agree_numerically(tmp_path):
    j = tmp_path / "r.json"
    c = tmp_path / "r.csv"
    run_cli("run", "--scenario", HONEST, "--seed", "3", "--out", str(j))
    run_cli("run", "--scenario", HONEST, "--seed", "3", "--format", "csv", "--out", str(c))
    doc = json.loads(j.read_text())
    rows = c.read_text().strip().split("\n")[1:]
    for device, row in zip(doc["devices"], rows):
        cells = row.split(",")
        assert int(cells[0]) == device["id"]
        assert int(cells[1]) == device["energy"]
        assert int(cells[2]) == device["sent"]
        assert int(cells[3]) == device["received"]


def test_missing_scenario_file_exits_1(capsys):
    assert run_cli("run", "--scenario", "no-such-file.json") == 1
    assert "scenario error" in capsys.readouterr().err


def test_unwritable_out_exits_1_with_one_line(tmp_path, capsys):
    target = tmp_path / "no-such-dir" / "report.json"
    assert run_cli("run", "--scenario", HONEST, "--out", str(target)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"output error: cannot write {target}: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_unwritable_trace_exits_1_with_one_line(tmp_path, capsys):
    target = tmp_path / "no-such-dir" / "trace.txt"
    code = run_cli(
        "run", "--scenario", HONEST, "--trace", str(target), "--out", str(tmp_path / "r.json")
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"output error: cannot write {target}: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "r.json").exists()


def test_population_over_limit_exits_1_with_one_line(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"population": 100_001, "group_size": 3, "rounds": 1}))
    assert run_cli("run", "--scenario", str(path)) == 1
    err = capsys.readouterr().err
    assert err == "scenario error: population: must be at most 100000, got 100001\n"


def test_invalid_scenario_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"group_size": 10, "population": 5}')
    assert run_cli("run", "--scenario", str(bad)) == 1
    assert "group_size" in capsys.readouterr().err


def test_protocol_violation_exits_2(monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise ProtocolViolation("synthetic fault for the exit-code path")

    monkeypatch.setattr(cli, "run_simulation", boom)
    assert run_cli("run", "--scenario", HONEST) == 2
    assert "protocol violation" in capsys.readouterr().err


def _one_dropped() -> TrafficCounters:
    return TrafficCounters(dropped=1)


def _device_0_sent_once(model) -> EnergyLedger:
    ledger = EnergyLedger(model)
    ledger.usage[0].sent = 1
    return ledger


def _device_0_received_once(model) -> EnergyLedger:
    ledger = EnergyLedger(model)
    ledger.usage[0].received = 1
    return ledger


# The honest scenario is lossless, so it takes the tally kernel untraced and
# the event engine traced; the end-of-run check guards both.
@pytest.mark.parametrize("traced", (False, True), ids=("kernel", "engine"))
@pytest.mark.parametrize(
    "name,factory,message",
    (
        ("TrafficCounters", _one_dropped, "message conservation"),
        ("EnergyLedger", _device_0_sent_once, "energy ledger"),
        ("EnergyLedger", _device_0_received_once, "receive ledger"),
    ),
    ids=("conservation", "ledger", "receptions"),
)
def test_broken_run_identity_exits_2(monkeypatch, tmp_path, capsys, traced, name, factory, message):
    monkeypatch.setattr(simnet, name, factory)
    trace = ("--trace", str(tmp_path / "trace.txt")) if traced else ()
    assert run_cli("run", "--scenario", HONEST, "--out", str(tmp_path / "r.json"), *trace) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"protocol violation: {message}")
    assert err.count("\n") == 1


def test_oracle_verdict_table_rows(capsys):
    assert run_cli("oracle", "verdict-table", "--n", "5") == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "agree,disagree,missing,outcome"
    assert len(lines) - 1 == 15  # compositions of 4 into 3 parts
    triples = {tuple(map(int, line.split(",")[:3])) for line in lines[1:]}
    assert len(triples) == 15
    assert all(sum(t) == 4 for t in triples)


def test_oracle_verdict_table_bad_n(capsys):
    assert run_cli("oracle", "verdict-table", "--n", "2") == 1


def test_oracle_verdict_table_custom_quorum(capsys):
    assert run_cli("oracle", "verdict-table", "--n", "5", "--quorum", "1") == 0
    lines = capsys.readouterr().out.strip().split("\n")
    # with quorum 1 only the all-missing tally is inconclusive
    inconclusive = [line for line in lines[1:] if line.endswith("INCONCLUSIVE")]
    assert inconclusive == ["0,0,4,INCONCLUSIVE"]
    assert run_cli("oracle", "verdict-table", "--n", "5", "--quorum", "9") == 1


def test_sweep_one_row_per_value(tmp_path):
    out = tmp_path / "sweep.csv"
    code = run_cli(
        "sweep", "--scenario", HONEST,
        "--param", "network.drop_prob", "--values", "0,0.1,0.2",
        "--out", str(out),
    )
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 1 + 3
    values = [line.split(",")[1] for line in lines[1:]]
    assert values == ["0", "0.1", "0.2"]


def test_sweep_rows_independent_of_order(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    run_cli("sweep", "--scenario", HONEST, "--param", "network.drop_prob",
            "--values", "0,0.2", "--out", str(a))
    run_cli("sweep", "--scenario", HONEST, "--param", "network.drop_prob",
            "--values", "0.2,0", "--out", str(b))
    rows_a = sorted(a.read_text().strip().split("\n")[1:])
    rows_b = sorted(b.read_text().strip().split("\n")[1:])
    assert rows_a == rows_b


def test_sweep_bad_value_exits_1(capsys):
    assert (
        run_cli("sweep", "--scenario", HONEST, "--param", "network.drop_prob",
                "--values", "0,oops") == 1
    )


@pytest.mark.parametrize(
    "values", ('{"drop_prob":0.1}', "[0.1]", "1" * 5000), ids=("object", "list", "too-many-digits")
)
def test_sweep_value_that_is_no_scalar_exits_1_with_one_line(capsys, values):
    # An object or list would land unquoted in its CSV row and shift every column.
    assert run_cli("sweep", "--scenario", HONEST, "--param", "network", "--values", values) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"scenario error: sweep value {values!r} is not a JSON scalar\n"


def test_non_utf8_scenario_exits_1_with_one_line(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe{}")
    assert run_cli("run", "--scenario", str(path)) == 1
    err = capsys.readouterr().err
    assert err.startswith("scenario error: scenario file is not UTF-8")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv,message",
    (
        (["run", "--scenario", HONEST, "--seed", "abc"], "argument --seed: invalid int value: 'abc'"),
        (["run"], "the following arguments are required: --scenario"),
        (["run", "--scenario", HONEST, "--format", "xml"], "argument --format: invalid choice: 'xml'"),
        (["oracle", "verdict-table", "--n", "x"], "argument --n: invalid int value: 'x'"),
    ),
    ids=("seed-abc", "missing-scenario", "format-xml", "oracle-n-x"),
)
def test_usage_error_exits_1_with_one_line(capsys, argv, message):
    # Exit 2 is reserved for protocol violations, so argparse must not exit with it.
    assert run_cli(*argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage error: {message}")
    assert captured.err.count("\n") == 1


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("run", "--help")
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: collabtrust run")


def test_sweep_seed_override_changes_rows(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for seed, out in (("1", a), ("2", b)):
        run_cli("sweep", "--scenario", HONEST, "--param", "network.drop_prob",
                "--values", "0.3", "--seed", seed, "--out", str(out))
    assert a.read_text() != b.read_text()


def test_repetitions_emit_aggregate(tmp_path):
    doc = {"rounds": 5, "repetitions": 3, "seed": 1}
    path = tmp_path / "reps.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "agg.json"
    assert run_cli("run", "--scenario", str(path), "--out", str(out)) == 0
    agg = json.loads(out.read_text())
    assert agg["repetitions"] == 3
    assert agg["rounds_executed"] == 15
    assert agg["global"]["verdicts"]["TRUSTED"] == 75


def test_repetition_trace_sections_are_separated(tmp_path):
    doc = {"rounds": 2, "repetitions": 2, "seed": 5}
    path = tmp_path / "reps.json"
    path.write_text(json.dumps(doc))
    trace = tmp_path / "trace.txt"
    run_cli("run", "--scenario", str(path), "--out", str(tmp_path / "agg.json"),
            "--trace", str(trace))
    lines = trace.read_text().strip().split("\n")
    seps = [line for line in lines if line.startswith("REP ")]
    assert seps == ["REP 0 seed=5", "REP 1 seed=6"]


def test_negative_seed_prints_masked_in_single_and_aggregate_reports(tmp_path):
    # Run seeds are 64-bit: -1 names the same run as 2**64 - 1, whichever
    # report or trace shows it.
    seeds = []
    for repetitions in (1, 2):
        path = tmp_path / f"reps{repetitions}.json"
        path.write_text(json.dumps({"rounds": 2, "repetitions": repetitions}))
        out = tmp_path / f"r{repetitions}.json"
        trace = tmp_path / f"t{repetitions}.txt"
        assert run_cli("run", "--scenario", str(path), "--seed", "-1",
                       "--out", str(out), "--trace", str(trace)) == 0
        seeds.append(json.loads(out.read_text())["seed"])
    assert seeds == [2**64 - 1, 2**64 - 1]
    assert trace.read_text().startswith(f"REP 0 seed={2**64 - 1}\n")


def test_aggregate_csv_blanks_single_run_columns(tmp_path):
    doc = {"rounds": 5, "repetitions": 2, "seed": 1}
    path = tmp_path / "reps.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "agg.csv"
    run_cli("run", "--scenario", str(path), "--format", "csv", "--out", str(out))
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 1 + 6
    for line in lines[1:6]:
        cells = line.split(",")
        assert cells[5] == "" and cells[6] == ""  # excluded/detection rounds


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_no_run_result_outlives_its_repetition(monkeypatch, tmp_path, command):
    # Each repetition is folded into the running total as soon as it ends:
    # when the next run starts, no earlier RunResult is alive. Each scenario
    # (the run's one, each sweep value's) has exactly one running total,
    # made before its first repetition.
    scenario = tmp_path / "reps.json"
    scenario.write_text(json.dumps({"rounds": 3, "repetitions": 4}))
    results: list[weakref.ref] = []
    totals: list[weakref.ref] = []
    real_run = cli.run_simulation

    class TrackedReport(cli.Report):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            totals.append(weakref.ref(self))

    def tracked_run(*args, **kwargs):
        gc.collect()
        assert [ref() for ref in results] == [None] * len(results)
        call = len(results)
        assert len(totals) == call // 4 + 1, call
        assert totals[-1]().repetitions == call % 4, call
        res = real_run(*args, **kwargs)
        results.append(weakref.ref(res))
        return res

    monkeypatch.setattr(cli, "run_simulation", tracked_run)
    monkeypatch.setattr(cli, "Report", TrackedReport)
    if command == "run":
        argv = ["run", "--scenario", str(scenario), "--trace", str(tmp_path / "t.txt")]
    else:
        argv = ["sweep", "--scenario", str(scenario), "--param", "seed", "--values", "1,2"]
    assert run_cli(*argv, "--out", str(tmp_path / "out")) == 0
    assert len(results) == (4 if command == "run" else 8)
    assert len(totals) == (1 if command == "run" else 2)


def test_trace_streams_each_repetition_as_it_ends(monkeypatch, tmp_path):
    # When repetition k starts, the trace file on disk already holds
    # repetitions 0..k-1, each under its REP header, and nothing more.
    scenario = tmp_path / "reps.json"
    scenario.write_text(json.dumps({"rounds": 3, "repetitions": 4, "seed": 10}))
    trace = tmp_path / "t.txt"
    on_disk: list[bytes] = []
    real_run = cli.run_simulation

    def snapshot(*args, **kwargs):
        on_disk.append(trace.read_bytes())
        return real_run(*args, **kwargs)

    monkeypatch.setattr(cli, "run_simulation", snapshot)
    assert run_cli("run", "--scenario", str(scenario), "--trace", str(trace),
                   "--out", str(tmp_path / "out.json")) == 0
    final = trace.read_bytes()
    assert len(on_disk) == 4
    for k, seen in enumerate(on_disk):
        assert seen == final[: final.index(f"REP {k} seed={10 + k}\n".encode())], k


def test_one_process_serves_run_usage_error_and_oracle_in_turn(tmp_path, capsys):
    # main reuses one parser; no call may leave state behind for the next.
    first, again = tmp_path / "first.json", tmp_path / "again.json"
    assert run_cli("run", "--scenario", HONEST, "--seed", "7", "--out", str(first)) == 0
    assert json.loads(first.read_text())["global"]["messages"]["sent"] == 600
    assert run_cli("run", "--seed", "7") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "usage error: the following arguments are required: --scenario\n"
    )
    assert run_cli("oracle", "verdict-table", "--n", "3") == 0
    assert capsys.readouterr().out == (
        "agree,disagree,missing,outcome\n"
        "2,0,0,TRUSTED\n1,1,0,TRUSTED\n1,0,1,INCONCLUSIVE\n0,2,0,FLAGGED\n0,1,1,INCONCLUSIVE\n"
        "0,0,2,INCONCLUSIVE\n"
    )
    assert run_cli("run", "--scenario", HONEST, "--seed", "7", "--out", str(again)) == 0
    assert again.read_bytes() == first.read_bytes()


_SWEEP_TO_REPORT = {
    "rounds_executed": lambda g: g["rounds_executed"],
    "sent": lambda g: g["global"]["messages"]["sent"],
    "delivered": lambda g: g["global"]["messages"]["delivered"],
    "trusted": lambda g: g["global"]["verdicts"]["TRUSTED"],
    "flagged": lambda g: g["global"]["verdicts"]["FLAGGED"],
    "inconclusive": lambda g: g["global"]["verdicts"]["INCONCLUSIVE"],
    "false_positives": lambda g: g["global"]["false_positives"],
    "detected_devices": lambda g: len(g["global"]["detections"]),
    "total_energy": lambda g: g["global"]["total_energy"],
}


@pytest.mark.parametrize("param, values", [("group_size", [3, 4, 5]), ("quorum", [1, 2, 3])])
def test_each_sweep_row_equals_a_separate_run(tmp_path, param, values):
    # Every sweep value builds its own scenario and run plan; a plan leaking
    # from one value into the next would show as a row that differs from
    # the run of that value alone.
    doc = json.loads((SCENARIO_DIR / "five_device_trojan.json").read_text())
    doc["repetitions"] = 4
    base = tmp_path / "base.json"
    base.write_text(json.dumps(doc))
    out = tmp_path / "sweep.json"
    assert run_cli(
        "sweep", "--scenario", str(base), "--param", param,
        "--values", ",".join(map(str, values)), "--format", "json", "--out", str(out),
    ) == 0
    rows = json.loads(out.read_text())
    assert [row["value"] for row in rows] == values
    for row in rows:
        single = tmp_path / f"{param}{row['value']}.json"
        single.write_text(json.dumps({**doc, param: row["value"]}))
        report = tmp_path / f"report{row['value']}.json"
        assert run_cli("run", "--scenario", str(single), "--out", str(report)) == 0
        got = json.loads(report.read_text())
        assert row["repetitions"] == got["repetitions"] == 4
        for column, read in _SWEEP_TO_REPORT.items():
            assert row[column] == read(got), (param, row["value"], column)


# Untraced event-engine commands of several repetitions fork one worker per
# usable CPU at most; the rest run in-process. Each document below takes the
# engine untraced (it is lossy) and has several repetitions.
FORKED_DOCS = {
    "repetitions_mixed_halts": INLINE_SCENARIOS["repetitions_mixed_halts"],
    "wide_lossy": {**INLINE_SCENARIOS["wide_lossy"], "repetitions": 3},
    # Zero latency, a deadline of 2 * latency_max and a RANDOM reporter.
    "zero_latency": {
        "population": 9, "group_size": 7, "rounds": 20, "regroup_period": 4,
        "flag_threshold": 2, "repetitions": 5, "round_deadline": 6,
        "network": {"latency_min": 0, "latency_max": 3, "drop_prob": 0.1},
        "adversaries": [
            {"device": 1, "fault": "TROJAN", "trigger": {"index": 0, "mask": 3, "match": 1},
             "payload": {"kind": "COMPLEMENT"}},
            {"device": 2, "fault": "ALWAYS_WRONG"},
            {"device": 3, "reporting": "RANDOM", "p": 0.3},
        ],
    },
}

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="workers are forked")


@pytest.fixture
def reaped():
    """Fails the test if it leaves a child process or an open fd behind.

    Request it last, so that the fds other fixtures hold are open on both sides.
    """
    fds = set(os.listdir("/dev/fd"))
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert set(os.listdir("/dev/fd")) == fds


@pytest.fixture
def forks(monkeypatch) -> list[int]:
    """The pid of every worker `os.fork` starts in this process, in order."""
    started: list[int] = []
    real_fork = os.fork

    def counting_fork():
        pid = real_fork()
        if pid:
            started.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return started


def _write_doc(tmp_path, name: str, doc: dict) -> str:
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _outputs(tmp_path, scenario: str) -> list[bytes]:
    """The bytes of `run` in both formats at two seeds, and of a JSON and a CSV sweep."""
    commands = [
        ["run", "--scenario", scenario, "--seed", seed, "--format", fmt]
        for seed in ("1", "7") for fmt in ("json", "csv")
    ]
    commands += [
        ["sweep", "--scenario", scenario, "--param", "network.drop_prob",
         "--values", "0.05,0.3", "--format", fmt]
        for fmt in ("json", "csv")
    ]
    outs = []
    for argv in commands:
        out = tmp_path / "out"
        assert run_cli(*argv, "--out", str(out)) == 0, argv
        outs.append(out.read_bytes())
    return outs


@needs_fork
@pytest.mark.parametrize("name", FORKED_DOCS)
def test_report_bytes_do_not_depend_on_the_worker_count(monkeypatch, tmp_path, forks, name, reaped):
    scenario = _write_doc(tmp_path, name, FORKED_DOCS[name])
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
    serial = _outputs(tmp_path, scenario)
    assert forks == []
    repetitions = FORKED_DOCS[name]["repetitions"]
    for cpus in (2, 3, repetitions + 4):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
        before = len(forks)
        assert _outputs(tmp_path, scenario) == serial, cpus
        # Each of the 4 runs and 4 sweep values forks min(cpus, repetitions) - 1 workers.
        assert len(forks) - before == 8 * (min(cpus, repetitions) - 1), cpus


@needs_fork
def test_kernel_traced_and_single_runs_never_fork(monkeypatch, tmp_path, reaped):
    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 4)
    lossy = _write_doc(tmp_path, "lossy", FORKED_DOCS["zero_latency"])
    kernel = json.loads((SCENARIO_DIR / "five_device_trojan.json").read_text())
    kernel = _write_doc(tmp_path, "kernel", {**kernel, "repetitions": 4})
    single = _write_doc(tmp_path, "single", INLINE_SCENARIOS["wide_lossy"])
    out = ("--out", str(tmp_path / "out"))
    assert run_cli("run", "--scenario", kernel, *out) == 0
    assert run_cli("sweep", "--scenario", kernel, "--param", "rounds", "--values", "5,9", *out) == 0
    assert run_cli("run", "--scenario", lossy, "--trace", str(tmp_path / "t.txt"), *out) == 0
    assert run_cli("run", "--scenario", single, *out) == 0
    # A second thread keeps even an untraced lossy run in this process.
    stop = threading.Event()
    waiter = threading.Thread(target=stop.wait)
    waiter.start()
    try:
        assert run_cli("run", "--scenario", lossy, *out) == 0
    finally:
        stop.set()
        waiter.join()


def _fail_in_workers(monkeypatch, exc: Exception) -> None:
    """Make every run of a forked worker raise `exc`; this process's runs stay real."""
    parent = os.getpid()
    real_run = cli.run_simulation

    def failing(sc, seed, trace=None):
        if os.getpid() != parent:
            raise type(exc)(f"{exc} at seed {seed}")
        return real_run(sc, seed=seed, trace=trace)

    monkeypatch.setattr(cli, "run_simulation", failing)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)


@needs_fork
def test_a_workers_protocol_violation_exits_2_in_one_line(
    monkeypatch, tmp_path, capfd, forks, reaped
):
    # Repetitions 0..4 at seeds 10..14: this process folds 10 and 11, the
    # worker 12..14 and stops at 12. capfd sees the worker's stderr too.
    scenario = _write_doc(tmp_path, "lossy", {**FORKED_DOCS["zero_latency"], "seed": 10})
    _fail_in_workers(monkeypatch, ProtocolViolation("synthetic fault"))
    assert run_cli("run", "--scenario", scenario, "--out", str(tmp_path / "r.json")) == 2
    assert len(forks) == 1
    assert capfd.readouterr().err == "protocol violation: synthetic fault at seed 12\n"
    assert not (tmp_path / "r.json").exists()


@needs_fork
def test_a_workers_other_exception_never_returns_into_the_callers_stack(
    monkeypatch, tmp_path, capfd, forks, reaped
):
    scenario = _write_doc(tmp_path, "lossy", {**FORKED_DOCS["zero_latency"], "seed": 10})
    _fail_in_workers(monkeypatch, ValueError("synthetic crash"))
    parent = os.getpid()
    try:
        with pytest.raises(RuntimeError, match=r"exited with status 1$"):
            run_cli("run", "--scenario", scenario)
    finally:
        if os.getpid() != parent:
            os._exit(70)  # a worker that got here would go on to run the remaining tests
    assert len(forks) == 1
    err = capfd.readouterr().err
    assert "Traceback" in err and err.endswith("ValueError: synthetic crash at seed 12\n")


@needs_fork
@pytest.mark.parametrize("exc", (ProtocolViolation("parent fault"), KeyboardInterrupt()),
                         ids=("violation", "interrupt"))
def test_a_failed_parent_share_stops_and_reaps_every_worker(
    monkeypatch, tmp_path, forks, exc, reaped
):
    scenario = _write_doc(tmp_path, "lossy", FORKED_DOCS["zero_latency"])
    parent = os.getpid()
    real_run = cli.run_simulation

    def failing_here(sc, seed, trace=None):
        if os.getpid() == parent:
            raise exc
        return real_run(sc, seed=seed, trace=trace)

    monkeypatch.setattr(cli, "run_simulation", failing_here)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 3)
    if isinstance(exc, ProtocolViolation):
        assert run_cli("run", "--scenario", scenario) == 2
    else:
        with pytest.raises(KeyboardInterrupt):
            run_cli("run", "--scenario", scenario)
    assert len(forks) == 2
