"""Run reports: per-device and global metrics, serialized to JSON or CSV.

A report is one running total: `Report.fold` adds each completed run into
it in place, and the run is not kept. Report bytes are a pure function of
(scenario, seed, format): all values are integers or fixed strings, key
order is fixed, and no locale-dependent formatting is used anywhere.
"""

from __future__ import annotations

import json
from collections.abc import Iterator

from .errors import ContractError
from .scenario import Scenario
from .simnet import RunResult
from .verdict import SuspicionLedger

# A device's report line; the four after `id` are its summed counters.
_COLUMNS = ("id", "energy", "sent", "received", "flags", "excluded_round", "detection_round")
# The counters of a device no run touched.
_BLANK = (0, 0, 0, 0)


def _count(counts: dict[int, int], devices) -> None:
    for d in devices:
        counts[d] = counts.get(d, 0) + 1


class Report:
    """The integer results of a scenario's runs, summed as each run is folded in.

    `devices` holds [energy, sent, received, flags] only for the devices a
    run touched, those that joined a group; every other device of
    `population` has a zero row, made when the report is emitted.
    `detections` and `excluded` count the runs in which a device was
    detected or excluded. The seed shown is the first run's.

    `halt_reason`, `suspicion` and `detection_rounds` are the last folded
    run's halt reason, suspicion ledger and device -> first detection
    round. The emitter reads them only when `repetitions == 1`: a single
    run's report shows its halt reason, each device's excluded and
    detection rounds, and its detection rounds in place of the counts.
    """

    def __init__(self, scenario: Scenario):
        self.population = scenario.population
        self.seed = 0
        self.repetitions = 0
        self.rounds_executed = 0
        self.halted_runs = 0
        self.devices: dict[int, list[int]] = {}
        self.messages = dict.fromkeys(
            ("sent", "delivered", "dropped", "late", "stray", "in_flight"), 0
        )
        self.verdicts = dict.fromkeys(("TRUSTED", "FLAGGED", "INCONCLUSIVE"), 0)
        self.false_positives = 0
        self.detections: dict[int, int] = {}
        self.excluded: dict[int, int] = {}
        self.halt_reason: str | None = None
        self.suspicion = SuspicionLedger()
        self.detection_rounds: dict[int, int] = {}

    def fold(self, result: RunResult) -> None:
        """Add one completed run to the total.

        Every device a verdict flags was a group member and so was charged,
        so the ledger's devices are all the run touched.
        """
        if not self.repetitions:
            self.seed = result.seed
        self.repetitions += 1
        self.rounds_executed += result.rounds_executed
        self.halted_runs += result.halt_reason is not None
        c, stats, suspicion = result.counters, result.stats, result.suspicion
        m = self.messages
        m["sent"] += c.sent
        m["delivered"] += c.delivered
        m["dropped"] += c.dropped
        m["late"] += c.late  # strays are counted as late; "stray" keeps the format stable
        m["in_flight"] += c.in_flight
        v = self.verdicts
        v["TRUSTED"] += stats.trusted
        v["FLAGGED"] += stats.flagged
        v["INCONCLUSIVE"] += stats.inconclusive
        self.false_positives += stats.false_positives
        rows, energy, flags = self.devices, result.energy.energy, suspicion.flags
        for d, u in result.energy.usage.items():
            row = rows.get(d)
            if row is None:
                rows[d] = [energy(d), u.sent, u.received, flags.get(d, 0)]
            else:
                row[0] += energy(d)
                row[1] += u.sent
                row[2] += u.received
                row[3] += flags.get(d, 0)
        _count(self.detections, stats.detections)
        _count(self.excluded, suspicion.excluded_at)
        self.halt_reason = result.halt_reason
        self.suspicion = suspicion
        self.detection_rounds = stats.detections

    def add(self, other: Report) -> None:
        """Add another total, of the repetitions after this one's, in place.

        The result is what folding the other's runs in after this one's
        would have made.
        """
        if not other.repetitions:
            return
        if not self.repetitions:
            self.seed = other.seed
        self.repetitions += other.repetitions
        self.rounds_executed += other.rounds_executed
        self.halted_runs += other.halted_runs
        rows = self.devices
        for d, counters in other.devices.items():
            rows[d] = [a + b for a, b in zip(rows.get(d, _BLANK), counters)]
        self.false_positives += other.false_positives
        for mine, theirs in (
            (self.messages, other.messages),
            (self.verdicts, other.verdicts),
            (self.detections, other.detections),
            (self.excluded, other.excluded),
        ):
            for key, n in theirs.items():
                mine[key] = mine.get(key, 0) + n
        self.halt_reason = other.halt_reason
        self.suspicion = other.suspicion
        self.detection_rounds = other.detection_rounds

    def total_energy(self) -> int:
        return sum(row[0] for row in self.devices.values())


def _rows(report: Report) -> Iterator[tuple[int | None, ...]]:
    """Every device's line in id order, a zero line for each one never touched."""
    devices = report.devices
    ids = range(report.population)
    if report.repetitions != 1:
        return ((d, *devices.get(d, _BLANK), None, None) for d in ids)
    excluded, flagged = report.suspicion.excluded_at, report.suspicion.first_flagged
    return ((d, *devices.get(d, _BLANK), excluded.get(d), flagged.get(d)) for d in ids)


def _by_device(counts: dict[int, int]) -> dict[str, int]:
    return {str(d): n for d, n in sorted(counts.items())}


def _to_json(report: Report) -> bytes:
    obj: dict = {
        "seed": report.seed,
        "repetitions": report.repetitions,
        "rounds_executed": report.rounds_executed,
    }
    single = report.repetitions == 1
    if single:
        obj["halt_reason"] = report.halt_reason
    else:
        obj["halted_runs"] = report.halted_runs
    obj["devices"] = [dict(zip(_COLUMNS, row)) for row in _rows(report)]
    global_obj = {
        "messages": report.messages,
        "verdicts": report.verdicts,
        "false_positives": report.false_positives,
        "detections": _by_device(report.detection_rounds if single else report.detections),
        "total_energy": report.total_energy(),
    }
    if not single:
        global_obj["excluded"] = _by_device(report.excluded)
    obj["global"] = global_obj
    return (json.dumps(obj, indent=2) + "\n").encode("utf-8")


def _csv_cell(value: int | None) -> str:
    return "" if value is None else str(value)


def _to_csv(report: Report) -> bytes:
    lines = [",".join(_COLUMNS)]
    for d, energy, sent, received, flags, excluded, detected in _rows(report):
        lines.append(
            f"{d},{energy},{sent},{received},{flags},{_csv_cell(excluded)},{_csv_cell(detected)}"
        )
    # Each counter summed over the rows; with _BLANK, a report of no rows sums to zeros.
    totals = [sum(column) for column in zip(_BLANK, *report.devices.values())]
    lines.append(f"GLOBAL,{','.join(map(str, totals))},,")
    return ("\n".join(lines) + "\n").encode("utf-8")


def emit_report(report: Report, format: str = "json") -> bytes:
    """Serialize a report. Formats: `json` (stable key order) or `csv`."""
    if format == "json":
        return _to_json(report)
    if format == "csv":
        return _to_csv(report)
    raise ContractError(f"unknown report format {format!r}")
