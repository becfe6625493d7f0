"""Tests of the benchmark itself: output checks, span arithmetic, seeds, verdicts.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import compare  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from workloads import MIN_COMMANDS, TAIL_PERCENTILE, WORKLOADS, check_report, command_seed  # noqa: E402

from collabtrust import cli  # noqa: E402


def _run_command(tmp_path, name: str, workload_seed: int, index: int = 0):
    """One real command's outcome, plus its parsed report and trace line count."""
    wl = WORKLOADS[name]
    client = worker.Client(wl, workload_seed, str(tmp_path))
    outcome = client.command(index, cli.main)
    with open(client.out, "rb") as fh:
        report = json.loads(fh.read())
    lines = worker._file_digest(client.trace)[1] if wl.trace else None
    return wl, outcome, report, lines


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_real_command_passes_its_checks(tmp_path, name):
    _, outcome, _, _ = _run_command(tmp_path, name, 7)
    assert outcome["problems"] == []
    assert outcome["ns"] > 0


def test_check_rejects_sent_off_by_one(tmp_path):
    for name in ("trojan_mc", "lossy_n25"):
        wl, outcome, report, lines = _run_command(tmp_path, name, 3)
        report["global"]["messages"]["sent"] += 1
        problems = check_report(wl, outcome["seed"], report, lines)
        assert any("delivered+dropped+late+in_flight" in p for p in problems), name


def test_check_rejects_one_false_positive(tmp_path):
    wl, outcome, report, lines = _run_command(tmp_path, "lossy_n25", 3)
    report["global"]["false_positives"] = 1
    assert any("false_positives" in p for p in check_report(wl, outcome["seed"], report, lines))


def test_check_rejects_short_trace(tmp_path):
    wl, outcome, report, lines = _run_command(tmp_path, "trace_long", 3)
    assert check_report(wl, outcome["seed"], report, lines) == []
    problems = check_report(wl, outcome["seed"], report, lines - 1)
    assert any("trace has" in p for p in problems)


def test_check_rejects_lossless_closed_form_violation(tmp_path):
    wl, outcome, report, lines = _run_command(tmp_path, "trojan_mc", 3)
    m = report["global"]["messages"]
    m["sent"] += 1
    m["delivered"] += 1  # conserved, but no longer (N-1)(N+1) per round
    problems = check_report(wl, outcome["seed"], report, lines)
    assert any("(N-1)(N+1)" in p for p in problems)


def test_self_times_on_synthetic_tree():
    # root [0,100] has children a [10,40] and b [50,90]; b has child c [60,70];
    # d [20,45] overlaps a, so the root's coverage counts [20,40] once.
    start = [0, 10, 50, 60, 20]
    end = [100, 40, 90, 70, 45]
    parent = [-1, 0, 0, 2, 0]
    selfs = tracing.self_times(start, end, parent)
    # root covered by [10,45] and [50,90] -> 35 + 40 = 75
    assert selfs == [25, 30, 30, 10, 25]


def test_recorder_self_times_sum_to_root_duration():
    rec = tracing.SpanRecorder()

    def leaf(x):
        return sum(range(x))

    wrapped_leaf = rec.wrap("leaf", leaf)

    def middle(x):
        return wrapped_leaf(x) + wrapped_leaf(x + 1)

    wrapped_middle = rec.wrap("middle", middle)
    root = rec.wrap(tracing.ROOT_SPAN, lambda: [wrapped_middle(1000) for _ in range(3)])
    for command in range(2):
        rec.begin_command(command)
        root()
    calls, self_ns, per_command = tracing.layer_totals(rec)
    assert calls["leaf"] == 12 and calls["middle"] == 6 and calls[tracing.ROOT_SPAN] == 2
    assert set(per_command) == {0, 1}
    for root_ns, self_sum in per_command.values():
        assert root_ns == self_sum > 0
    assert sum(self_ns.values()) == sum(r for r, _ in per_command.values())


def test_installed_wraps_and_restores_call_sites():
    import collabtrust.protocol as protocol
    import collabtrust.simnet as simnet

    before = (cli.run_simulation, protocol.execute, simnet.EventQueue, simnet.send)
    rec = tracing.SpanRecorder()
    with tracing.installed(rec) as missing:
        assert missing == []
        assert cli.run_simulation.__wrapped__ is before[0]
        assert issubclass(simnet.EventQueue, before[2])
    assert (cli.run_simulation, protocol.execute, simnet.EventQueue, simnet.send) == before


def test_traced_command_writes_the_same_bytes(tmp_path):
    wl = WORKLOADS["trojan_mc"]
    client = worker.Client(wl, 11, str(tmp_path))
    plain = client.command(0, cli.main)
    traced = worker.traced_run(client, cli.main, 1, str(tmp_path / "spans"))
    assert worker._same_bytes(plain, traced["commands"][0])
    (root_ns, self_sum), = traced["per_command"].values()
    assert root_ns == self_sum
    assert traced["calls"]["simnet.send"] == plain["messages"]["sent"]
    assert traced["calls"]["simnet.run_simulation"] == wl.repetitions


def test_seed_changes_every_command_seed():
    for name in WORKLOADS:
        a = [command_seed(1, name, i) for i in range(200)]
        b = [command_seed(2, name, i) for i in range(200)]
        assert len(set(a + b)) == 400
        assert all(0 <= s < 2**63 for s in a + b)
    assert command_seed(1, "trojan_mc", 0) != command_seed(1, "lossy_n25", 0)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_changes_every_command_digest(tmp_path, name):
    for index in range(2):
        _, one, _, _ = _run_command(tmp_path, name, 1, index)
        _, two, _, _ = _run_command(tmp_path, name, 2, index)
        assert one["seed"] != two["seed"]
        assert one["report_sha256"] != two["report_sha256"]
        if WORKLOADS[name].trace:
            assert one["trace_sha256"] != two["trace_sha256"]


def test_tail_has_ten_values_beyond_it_in_the_shortest_run():
    values = list(range(MIN_COMMANDS, 0, -1))
    value, beyond = run.tail(values)
    assert beyond == sum(1 for v in values if v > value) >= 10
    assert value == MIN_COMMANDS * TAIL_PERCENTILE // 100


def test_benchmark_json_lists_exactly_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_compare_verdicts():
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]
    faster = [v * 0.8 for v in parent]
    assert compare.verdict(parent, faster, "lower", 0.1)[0] == "improved"
    assert compare.verdict(parent, [v * 1.2 for v in parent], "lower", 0.1)[0] == "worse"
    assert compare.verdict(parent, [v * 1.01 for v in parent], "lower", 0.1)[0] == "within bound"
    noisy = [5.0, 15.0, 10.0, 6.0, 14.0, 9.0, 11.0, 7.0, 13.0, 10.0]
    assert compare.verdict(noisy, [v * 1.2 for v in noisy], "lower", 0.1)[0] == "unresolved"
    assert compare.verdict(parent, faster, "higher", 0.1)[0] == "worse"
