"""The collabtrust benchmark: one workload, closed loop, every output checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Set-up time is the median of several
fresh processes that import `collabtrust.cli` and load the workload's
scenario. The commands then run in one fresh worker process (worker.py),
one at a time, each with its own seed derived from --seed. With --trace 0
the last line of standard output is a JSON object carrying the end-to-end
metrics; with --trace 1 it carries the per-layer metrics of a separate
traced run. All times are host time, each scaled by the speed of the
machine while it was taken (see reference.py); the unscaled figures are
printed too. Each run is also appended to .perfbench/results.jsonl, which
compare.py reads.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".perfbench")
sys.path.insert(0, HERE)

import tracing  # noqa: E402
from reference import NOMINAL_NS  # noqa: E402
from workloads import DETECTION_SIGMAS, TAIL_PERCENTILE, WORKLOADS, detection_deviation  # noqa: E402

SETUP_PROBES = 9
BUDGET_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "msg_us_p50": "us",
    "msg_us_tail": "us",
    "round_us_p50": "us",
    "reps_per_s": "1/s",
    "peak_rss_mib": "MiB",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for name in tracing.SPAN_NAMES:
        if name != tracing.ROOT_SPAN:
            units[f"{name}.calls"] = "count"
        units[f"{name}.s"] = "s"
    units.update({name: "count" for name in tracing.COUNTS})
    units.update(
        {
            "report.bytes": "B",
            "simnet.delivered_frac": "ratio",
            "simnet.late_frac": "ratio",
            "simnet.dropped_frac": "ratio",
            "trace.overhead": "ratio",
        }
    )
    return units


def tail(values: list[float]) -> tuple[float, int]:
    """The TAIL_PERCENTILE value (nearest rank) and how many values lie beyond it."""
    ordered = sorted(values)
    rank = max(math.ceil(TAIL_PERCENTILE * len(ordered) / 100), 1)
    return ordered[rank - 1], len(ordered) - rank


def scaled_ns(ns: float, ref_ns: float) -> float:
    """Host time scaled to a machine on which the reference takes NOMINAL_NS."""
    return ns * NOMINAL_NS / ref_ns


def end_to_end(wl, commands: list[dict], setup: list[tuple[int, float]], peak_rss_kib: int) -> tuple[dict, list[str]]:
    ok = [c for c in commands if not c["problems"]]
    ns = [scaled_ns(c["ns"], c["ref_ns"]) for c in ok]
    msg_us = [t / 1e3 / c["messages"]["sent"] for t, c in zip(ns, ok)]
    msg_tail, beyond = tail(msg_us)
    values = {
        "setup_s": statistics.median(scaled_ns(t, ref) for t, ref in setup) / 1e9,
        "msg_us_p50": statistics.median(msg_us),
        "msg_us_tail": msg_tail,
        "round_us_p50": statistics.median(t / 1e3 / c["rounds"] for t, c in zip(ns, ok)),
        "reps_per_s": wl.repetitions / (statistics.median(ns) / 1e9),
        "peak_rss_mib": peak_rss_kib / 1024,
    }
    raw_msg_us = statistics.median(c["ns"] / 1e3 / c["messages"]["sent"] for c in ok)
    notes = [
        f"setup_s is the median of {len(setup)} fresh processes",
        f"msg_us_tail is p{TAIL_PERCENTILE} of {len(ok)} commands, {beyond} beyond it",
        f"{wl.repetitions} repetitions of {wl.rounds} rounds per command",
        f"times are scaled to a {NOMINAL_NS / 1e6:g} ms reference; here it took "
        f"{statistics.median(c['ref_ns'] for c in ok) / 1e6:.2f} ms (median), "
        f"unscaled msg_us_p50 {raw_msg_us:.4g} us",
    ]
    return values, notes


def per_layer(traced: dict, untraced: list[dict]) -> tuple[dict, list[str]]:
    ok = [c for c in traced["commands"] if not c["problems"]]
    scale = scaled_ns(1, statistics.median(c["ref_ns"] for c in traced["commands"]))
    values = {}
    for name in tracing.SPAN_NAMES:
        if name != tracing.ROOT_SPAN:
            values[f"{name}.calls"] = traced["calls"][name]
        values[f"{name}.s"] = traced["self_ns"][name] * scale / 1e9
    sent = sum(c["messages"]["sent"] for c in ok)
    root_ns = [
        scaled_ns(traced["per_command"][str(c["index"])][0], c["ref_ns"]) for c in traced["commands"]
    ]
    untraced_ns = statistics.median(scaled_ns(c["ns"], c["ref_ns"]) for c in untraced if not c["problems"])
    values.update(traced["counts"])
    values.update(
        {
            "report.bytes": sum(c["report_bytes"] for c in ok),
            "simnet.delivered_frac": sum(c["messages"]["delivered"] for c in ok) / sent,
            "simnet.late_frac": sum(c["messages"]["late"] for c in ok) / sent,
            "simnet.dropped_frac": sum(c["messages"]["dropped"] for c in ok) / sent,
            "trace.overhead": statistics.median(root_ns) / untraced_ns,
        }
    )
    notes = [
        f"per-layer totals over {len(traced['commands'])} traced commands",
        f"tracing overhead: traced command time / untraced median = {values['trace.overhead']:.2f}",
    ]
    if traced["missing"]:
        notes.append("call sites not found, reading zero: " + ", ".join(traced["missing"]))
    return values, notes


def run_checks(wl, result: dict) -> tuple[list[str], list[str]]:
    """Run-level checks: (problems, notes)."""
    problems, notes = [], []
    commands = result["commands"]
    first = commands[0]
    notes.append(f"command 0 seed {first['seed']} report sha256 {first.get('report_sha256')}")
    if wl.trace:
        notes.append(f"command 0 trace sha256 {first.get('trace_sha256')}")
    if result["deterministic"]:
        notes.append("determinism: command 0 re-run is byte-identical")
    else:
        problems.append("determinism: command 0 re-run differs or failed")
    if "traced" in result:
        if not result["traced_identical"]:
            problems.append("traced commands wrote different bytes than untraced ones")
        for command, (root_ns, self_sum) in result["traced"]["per_command"].items():
            if root_ns != self_sum:
                problems.append(f"traced command {command}: self times sum to {self_sum} ns, not {root_ns}")
    ok = [c for c in commands if not c["problems"]]
    if wl.manifestation and ok:
        reps = wl.repetitions * len(ok)
        detected = sum(c["detected"] for c in ok)
        sigmas = detection_deviation(detected, reps)
        notes.append(
            f"manifestation: detected {detected}/{reps} = {detected / reps:.4f}, "
            f"{sigmas:+.2f} sigma from 1-(15/16)^11"
        )
        if abs(sigmas) > DETECTION_SIGMAS:
            problems.append(f"detection rate {sigmas:+.2f} sigma from 1-(15/16)^11")
    for c in commands + result.get("traced", {}).get("commands", []):
        for p in c["problems"]:
            problems.append(f"command {c['index']} (seed {c['seed']}): {p}")
    return problems, notes


def _child(argv: list[str], timeout: float) -> str:
    """Run a fresh isolated interpreter; its stdout, or raise on failure."""
    proc = subprocess.run(
        [sys.executable, "-I", *argv], stdout=subprocess.PIPE, timeout=timeout, check=True, text=True
    )
    return proc.stdout


def measure(wl, seed: int, seconds: int, trace: bool) -> tuple[dict, list[tuple[int, float]]]:
    deadline = time.monotonic() + BUDGET_S
    os.makedirs(STATE, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=STATE)
    try:
        scenario = os.path.join(workdir, "probe.json")
        with open(scenario, "w", encoding="utf-8") as fh:
            json.dump(wl.doc, fh)
        probe = [os.path.join(HERE, "probe.py"), SRC, scenario]
        # The first probe fills the bytecode cache; users do not pay that per run.
        _child(probe, 60)
        setup = []
        for _ in range(0 if trace else SETUP_PROBES):
            setup_ns, ref_ns = _child(probe, 60).split()
            setup.append((int(setup_ns), float(ref_ns)))
        result_path = os.path.join(workdir, "result.json")
        worker = [os.path.join(HERE, "worker.py"), ROOT, wl.name, str(seed), str(seconds)]
        worker += ["1" if trace else "0", workdir, result_path]
        _child(worker, deadline - time.monotonic())
        with open(result_path, encoding="utf-8") as fh:
            return json.load(fh), setup
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "collabtrust", "cli.py")):
        print(f"no collabtrust source tree under {SRC}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    try:
        result, setup = measure(wl, args.seed, args.seconds, bool(args.trace))
    except (subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 2
    traced = result.get("traced", {}).get("commands", [])
    problems, notes = run_checks(wl, result)
    measured = [result["commands"], traced] if args.trace else [result["commands"]]
    if any(all(c["problems"] for c in commands) for commands in measured):
        print("no command succeeded, nothing to measure:", *problems[:20], sep="\n", file=sys.stderr)
        return 2
    if args.trace:
        values, more = per_layer(result["traced"], result["commands"])
        units = per_layer_units()
    else:
        values, more = end_to_end(wl, result["commands"], setup, result["peak_rss_kib"])
        units = END_TO_END_UNITS
    attempted = len(result["commands"]) + len(traced)
    failed = sum(1 for c in result["commands"] + traced if c["problems"])
    print(f"workload {wl.name} seed {args.seed} trace {args.trace}: ops_attempted {attempted} ops_failed {failed}")
    for line in notes + more:
        print(line)
    for p in problems[:20]:
        print(f"FAILED {p}")
    for name, unit in units.items():
        print(f"{name:<40} {values[name]:>14.6g} {unit}")
    summary = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    with open(os.path.join(STATE, "results.jsonl"), "a", encoding="utf-8") as fh:
        record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
        fh.write(json.dumps({**record, "result": summary}) + "\n")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
