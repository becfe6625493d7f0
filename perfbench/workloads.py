"""The benchmark's workloads, per-command seed derivation and output checks.

Each workload is one fixed scenario shape. Every command of a run executes
`collabtrust run` on that shape with its own seed, derived from the workload
seed and the command's index, so no two commands share inputs and the same
workload seed always yields the same commands.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

TROJAN_DEVICE = 1
_TROJAN = {
    "device": TROJAN_DEVICE,
    "fault": "TROJAN",
    "trigger": {"index": 0, "mask": 15, "match": 5},
    "payload": {"kind": "XOR", "value": 1},
}

# The Trojan's trigger fires with probability 1/16 per challenge and it is
# the checkee in 11 of the 55 rounds, so an honest group flags it with
# probability 1 - (15/16)^11 (the paper's manifestation rate).
DETECTION_RATE = 1 - (15 / 16) ** 11
DETECTION_SIGMAS = 4.0

# Every run has at least MIN_COMMANDS commands, however slow the machine, so
# the tail percentile has at least ten commands beyond it in every run. The
# percentile is fixed rather than the highest each run supports, so that a
# faster program, which fits more commands into a run, is judged at the same
# percentile as its parent.
MIN_COMMANDS = 50
TAIL_PERCENTILE = 80


@dataclass(frozen=True)
class Workload:
    name: str
    doc: dict  # scenario document handed to the CLI
    trace: bool  # pass --trace, so the run writes the event trace
    lossless: bool  # messages follow the closed form; nothing dropped or late
    manifestation: bool = False  # pooled detection rate must match 1-(15/16)^11

    @property
    def group_size(self) -> int:
        return self.doc["group_size"]

    @property
    def rounds(self) -> int:
        return self.doc["rounds"]

    @property
    def repetitions(self) -> int:
        return self.doc["repetitions"]


WORKLOADS = {
    wl.name: wl
    for wl in (
        # The paper's manifestation Monte-Carlo: the shipped five-device
        # Trojan scenario repeated, trace off, aggregate report. Per-round
        # fixed costs dominate at 24 messages per round.
        Workload(
            name="trojan_mc",
            doc={
                "population": 5,
                "group_size": 5,
                "rounds": 55,
                "repetitions": 30,
                "adversaries": [_TROJAN],
            },
            trace=False,
            lossless=True,
            manifestation=True,
        ),
        # The per-message path: 624 unicasts per lossless round, drops,
        # late deliveries, INCONCLUSIVE verdicts and exclusion with purge.
        Workload(
            name="lossy_n25",
            doc={
                "population": 40,
                "group_size": 25,
                "rounds": 40,
                "regroup_period": 5,
                "flag_threshold": 2,
                "repetitions": 2,
                "network": {"latency_min": 1, "latency_max": 4, "drop_prob": 0.1},
                "adversaries": [
                    _TROJAN,
                    {"device": 2, "fault": "ALWAYS_WRONG"},
                    {"device": 3, "reporting": "FRAME", "targets": [0]},
                    {"device": 4, "reporting": "FRAME", "targets": [0]},
                ],
            },
            trace=False,
            lossless=False,
        ),
        # One long run per command with the event trace written to a file;
        # the flag threshold exceeds the round count, so it never halts.
        Workload(
            name="trace_long",
            doc={
                "population": 8,
                "group_size": 7,
                "rounds": 500,
                "repetitions": 1,
                "flag_threshold": 501,
                "adversaries": [
                    _TROJAN,
                    {"device": 2, "initiator_policy": "EVADE", "targets": [TROJAN_DEVICE]},
                    {"device": 3, "reporting": "RANDOM", "p": 0.2},
                ],
            },
            trace=True,
            lossless=True,
        ),
    )
}


def command_seed(workload_seed: int, workload: str, index: int) -> int:
    """The run seed of command `index`: a 63-bit hash of all three inputs.

    Repetition k of a command runs at seed + k, which stays below 2^64.
    """
    digest = hashlib.sha256(f"{workload}/{workload_seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def command_argv(
    wl: Workload, scenario_path: str, seed: int, out_path: str, trace_path: str
) -> list[str]:
    argv = ["run", "--scenario", scenario_path, "--seed", str(seed), "--out", out_path]
    argv += ["--format", "json"]
    if wl.trace:
        argv += ["--trace", trace_path]
    return argv


def lossless_messages_per_round(n: int) -> int:
    """(n-1) challenges + (n-1) responses + (n-1)^2 reports."""
    return (n - 1) * (n + 1)


def trace_lines_per_round(n: int) -> int:
    """ROUND_START, ROUND_DEADLINE, n VERDICT lines and one line per delivery."""
    return 2 + n + lossless_messages_per_round(n)


def check_report(wl: Workload, seed: int, report: dict, trace_lines: int | None) -> list[str]:
    """Every way one command's report (and trace) is wrong; empty if none."""
    problems = []
    g = report["global"]
    m = g["messages"]
    rounds = report["rounds_executed"]
    if report["seed"] != seed:
        problems.append(f"report seed {report['seed']} != command seed {seed}")
    if report["repetitions"] != wl.repetitions:
        problems.append(f"repetitions {report['repetitions']} != {wl.repetitions}")
    if not 1 <= rounds <= wl.rounds * wl.repetitions:
        problems.append(f"rounds_executed {rounds} outside [1, {wl.rounds * wl.repetitions}]")
    accounted = m["delivered"] + m["dropped"] + m["late"] + m["in_flight"]
    if m["sent"] != accounted:
        problems.append(f"sent {m['sent']} != delivered+dropped+late+in_flight {accounted}")
    if g["false_positives"] != 0:
        problems.append(f"false_positives {g['false_positives']} != 0")
    if wl.lossless:
        expected = lossless_messages_per_round(wl.group_size) * rounds
        if m["sent"] != expected:
            problems.append(f"sent {m['sent']} != (N-1)(N+1) x rounds = {expected}")
        if m["dropped"] or m["late"]:
            problems.append(f"lossless run dropped {m['dropped']}, late {m['late']}")
    if wl.trace:
        expected = wl.rounds * trace_lines_per_round(wl.group_size)
        if trace_lines != expected:
            problems.append(f"trace has {trace_lines} lines, expected {expected}")
    return problems


def detection_deviation(detected: int, repetitions: int) -> float:
    """Pooled detection rate's distance from 1-(15/16)^11, in standard errors."""
    sigma = math.sqrt(DETECTION_RATE * (1 - DETECTION_RATE) / repetitions)
    return (detected / repetitions - DETECTION_RATE) / sigma
