"""Memory stays bounded however many rounds a run has, traced or not,
however many repetitions forked workers share, however large a verdict
table the oracle prints, and however many devices a report has a row for.

Peak RSS is read with `getrusage(RUSAGE_CHILDREN)`, whose `ru_maxrss` is
the maximum over all waited-for children. So each measurement runs in a
fresh measuring process that starts exactly one child: the CLI on the
scenario, a latency-free one that takes the tally kernel, either untraced
or with `--trace` (streaming each round's trace to a file as it is
rendered), or `oracle verdict-table`. The
maximum also covers the CLI's own forked workers, which it waits for.

A command also leaves no cyclic garbage: what it builds (the scenario, its
run plan and classified groups, the run results) is freed by reference
counting when it returns, not at the next full garbage collection.
"""

from __future__ import annotations

import gc
import io
import json
import os
import pathlib
import subprocess
import sys
import weakref
from collections import Counter

import pytest

import collabtrust.cli as cli
from collabtrust.scenario import scenario_from_dict
from collabtrust.simnet import run_simulation
from test_lossy import TRACE_LONG

ROOT = pathlib.Path(__file__).resolve().parent.parent

# Measured on a 2-vCPU x86-64 Linux VM, Python 3.11.7: 25 rounds and 20,000
# rounds both peak at ~16.0 MiB (spread ~1 MiB between runs); with a
# per-verdict log kept in the run result 20,000 rounds peaked ~14.8 MiB higher.
# Traced, 25 and 2,000 rounds peak within ~1 MiB of each other; with the
# trace lines held in the run result, 2,000 rounds peaked ~26 MiB higher.
BOUND_MIB = 4.0

MEASURE = """
import resource, subprocess, sys
subprocess.run([sys.executable, "-m", "collabtrust", *sys.argv[1:]],
               stdout=subprocess.DEVNULL, check=True)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


def _cli_peak_mib(*argv: str) -> float:
    """Peak RSS of one `python -m collabtrust *argv` process, in MiB."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", MEASURE, *argv],
        env=env, capture_output=True, text=True, check=True,
    )
    return int(proc.stdout) / 1024  # ru_maxrss is in KiB on Linux


def _peak_mib(tmp_path: pathlib.Path, rounds: int, traced: bool = False) -> float:
    # N=7 of 9 with one Trojan: exclusion regroups the run, it never halts.
    doc = {
        "population": 9,
        "group_size": 7,
        "rounds": rounds,
        "adversaries": [
            {
                "device": 1,
                "fault": "TROJAN",
                "trigger": {"index": 0, "mask": 15, "match": 5},
                "payload": {"kind": "XOR", "value": 1},
            }
        ],
    }
    path = tmp_path / f"rounds{rounds}.json"
    path.write_text(json.dumps(doc))
    trace = ["--trace", str(tmp_path / f"trace{rounds}.txt")] if traced else []
    return _cli_peak_mib("run", "--scenario", str(path), *trace)


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB only on Linux")
def test_peak_rss_does_not_grow_with_rounds(tmp_path):
    short = _peak_mib(tmp_path, 25)
    long = _peak_mib(tmp_path, 20_000)
    assert long - short <= BOUND_MIB, (short, long)


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB only on Linux")
def test_traced_peak_rss_does_not_grow_with_rounds(tmp_path):
    short = _peak_mib(tmp_path, 25, traced=True)
    long = _peak_mib(tmp_path, 2_000, traced=True)
    assert long - short <= BOUND_MIB, (short, long)


# A lossy scenario takes the event engine untraced, and its repetitions are
# split over forked workers, one per usable CPU at most. Measured on the same
# VM with two CPUs: 2 and 32 repetitions both peak at ~17 MiB.
@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB only on Linux")
def test_forked_peak_rss_does_not_grow_with_repetitions(tmp_path):
    peaks = []
    for repetitions in (2, 32):
        doc = {
            "population": 9,
            "group_size": 7,
            "rounds": 10,
            "repetitions": repetitions,
            "network": {"latency_min": 1, "latency_max": 3, "drop_prob": 0.1},
            "adversaries": [{"device": 2, "fault": "ALWAYS_WRONG"}],
        }
        path = tmp_path / f"reps{repetitions}.json"
        path.write_text(json.dumps(doc))
        peaks.append(_cli_peak_mib("run", "--scenario", str(path)))
    few, many = peaks
    assert many - few <= BOUND_MIB, (few, many)


# `oracle verdict-table --n N` prints N(N+1)/2 rows. Measured on the same VM:
# with the rows and lines held in lists, --n 800 peaked at ~80 MiB against
# ~17 MiB for --n 5; written as they are made, both peak at ~17 MiB.
VERDICT_TABLE_BOUND_MIB = 8.0


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB only on Linux")
def test_verdict_table_peak_rss_does_not_grow_with_n():
    small = _cli_peak_mib("oracle", "verdict-table", "--n", "5")
    large = _cli_peak_mib("oracle", "verdict-table", "--n", "800")
    assert large - small <= VERDICT_TABLE_BOUND_MIB, (small, large)


# Population 100,000 in groups of 5: 20 repetitions of 10 rounds touch a few
# dozen devices, and the report's 100,000 rows are streamed out a chunk of
# rows at a time. Measured on the same VM: JSON 16.5 MiB and CSV 16.1 MiB,
# against 15.8 MiB at population 5; with the report built whole before it
# was written, 181.3 MiB and 25.9 MiB.
POPULATION_BOUND_MIB = 8.0


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB only on Linux")
@pytest.mark.parametrize("fmt", ("json", "csv"))
def test_report_peak_rss_does_not_grow_with_population(tmp_path, fmt):
    peaks = []
    for population in (5, 100_000):
        doc = {
            "population": population,
            "group_size": 5,
            "rounds": 10,
            "repetitions": 20,
            "adversaries": [{"device": 3, "fault": "ALWAYS_WRONG"}],
        }
        path = tmp_path / f"population{population}.json"
        path.write_text(json.dumps(doc))
        peaks.append(_cli_peak_mib("run", "--scenario", str(path), "--format", fmt))
    small, large = peaks
    assert large - small <= POPULATION_BOUND_MIB, (small, large)


# A lossy document: it takes the event engine, and untraced its 4
# repetitions are split over forked workers when more than one CPU is usable.
LOSSY = {
    "population": 9,
    "group_size": 7,
    "rounds": 20,
    "regroup_period": 4,
    "flag_threshold": 2,
    "repetitions": 4,
    "network": {"latency_min": 1, "latency_max": 3, "drop_prob": 0.1},
    "adversaries": [{"device": 2, "fault": "ALWAYS_WRONG"}],
}

TROJAN = str(ROOT / "scenarios" / "five_device_trojan.json")


@pytest.mark.parametrize(
    "argv, cpus",
    [
        pytest.param(["run", "--scenario", TROJAN], None, id="kernel_json"),
        pytest.param(["run", "--scenario", TROJAN, "--format", "csv"], None, id="kernel_csv"),
        pytest.param(
            ["run", "--scenario", "{tmp}/trace_long.json", "--trace", "{tmp}/trace.txt"],
            None,
            id="kernel_traced",
        ),
        pytest.param(["run", "--scenario", "{tmp}/lossy.json"], 1, id="engine_serial"),
        pytest.param(["run", "--scenario", "{tmp}/lossy.json"], 2, id="engine_forked"),
        pytest.param(
            ["run", "--scenario", "{tmp}/lossy.json", "--trace", "{tmp}/trace.txt"],
            None,
            id="engine_traced",
        ),
        pytest.param(
            ["sweep", "--scenario", TROJAN, "--param", "group_size", "--values", "3,4,5"],
            None,
            id="sweep",
        ),
    ],
)
def test_a_command_leaves_no_cyclic_garbage(monkeypatch, tmp_path, argv, cpus):
    for name, doc in (("trace_long", TRACE_LONG), ("lossy", LOSSY)):
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    argv = [arg.format(tmp=tmp_path) for arg in argv] + ["--out", str(tmp_path / "out")]
    forks = []
    if cpus is not None:
        if not hasattr(os, "fork"):
            pytest.skip("workers are forked")
        real_fork = os.fork

        def counting_fork():
            pid = real_fork()
            if pid:
                forks.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counting_fork)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
    # The first command fills the module caches (the parser, the operand-key
    # memo, rng's pass plans); the second must leave nothing for gc to find.
    assert cli.main(argv) == 0
    gc.collect()
    flags = gc.get_debug()
    saved = len(gc.garbage)
    gc.disable()
    try:
        assert cli.main(argv) == 0
        gc.set_debug(gc.DEBUG_SAVEALL)
        found = gc.collect()
        garbage = Counter(type(o).__name__ for o in gc.garbage[saved:])
    finally:
        del gc.garbage[saved:]
        gc.set_debug(flags)
        gc.enable()
    assert found == 0, garbage.most_common()
    if cpus is not None:
        assert bool(forks) == (cpus > 1), forks


def test_a_dropped_scenario_frees_its_run_plan():
    # A traced run of the trace_long shape fills the plan's cache of classified groups.
    sc = scenario_from_dict(TRACE_LONG)
    run_simulation(sc, seed=5, trace=io.StringIO())
    assert sc.plan.classify.cache_info().currsize > 0
    scenario, plan = weakref.ref(sc), weakref.ref(sc.plan)
    gc.disable()
    try:
        del sc
        assert scenario() is None
        assert plan() is None
    finally:
        gc.enable()
