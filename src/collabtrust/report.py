"""Run reports: per-device and global metrics, serialized to JSON or CSV.

Report bytes are a pure function of (scenario, seed, format): all values are
integers or fixed strings, key order is fixed, and no locale-dependent
formatting is used anywhere.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple

from .errors import ContractError
from .scenario import Scenario
from .simnet import RunResult
from .verdict import Outcome


class DeviceRow(NamedTuple):
    """One device's line of a report; the device id is its key in `Report.devices`."""

    energy: int
    sent: int
    received: int
    flags: int
    excluded_round: int | None = None
    detection_round: int | None = None


# The row of a device no run touched, and what merge adds for a missing one.
_BLANK = DeviceRow(0, 0, 0, 0)


@dataclass(frozen=True)
class Report:
    """Integer results of one run, or sums over repetitions; rates are left to the consumer.

    `devices` holds rows only for the devices a run touched, those that
    joined a group; every other device of `population` has a zero row,
    made when the report is emitted. For a single run `detections` and
    `excluded` map a device to the round it was first detected or excluded
    in. Once merged (repetitions > 1) they count the repetitions in which
    that happened, `halt_reason` is None and the per-device
    `excluded_round`/`detection_round` are blank.
    """

    seed: int
    repetitions: int
    rounds_executed: int
    halt_reason: str | None
    halted_runs: int
    population: int
    devices: dict[int, DeviceRow]
    messages: dict[str, int]
    verdicts: dict[str, int]
    false_positives: int
    detections: dict[int, int]
    excluded: dict[int, int]
    total_energy: int


def build_report(result: RunResult, scenario: Scenario) -> Report:
    """Assemble the report for one completed run (pure post-processing).

    Every device a verdict flags was a group member and so was charged, so
    the ledger's devices are all the run touched.
    """
    stats = result.stats
    suspicion = result.suspicion
    energy = result.energy.energy
    devices = {
        d: DeviceRow(
            energy(d),
            u.sent,
            u.received,
            suspicion.flag_count(d),
            suspicion.excluded_round(d),
            suspicion.first_flagged.get(d),
        )
        for d, u in result.energy.usage.items()
    }
    c = result.counters
    return Report(
        seed=result.seed,
        repetitions=1,
        rounds_executed=result.rounds_executed,
        halt_reason=result.halt_reason,
        halted_runs=0 if result.halt_reason is None else 1,
        population=scenario.population,
        devices=devices,
        messages={
            "sent": c.sent,
            "delivered": c.delivered,
            "dropped": c.dropped,
            "late": c.late,
            "stray": 0,  # strays are counted as late; the key keeps the format stable
            "in_flight": c.in_flight,
        },
        verdicts={
            Outcome.TRUSTED.value: stats.trusted,
            Outcome.FLAGGED.value: stats.flagged,
            Outcome.INCONCLUSIVE.value: stats.inconclusive,
        },
        false_positives=stats.false_positives,
        detections=dict(sorted(stats.detections.items())),
        excluded=dict(sorted(suspicion.excluded_at.items())),
        total_energy=result.energy.total_energy(),
    )


def _per_repetition(counts: dict[int, int], report: Report) -> dict[int, int]:
    """A single run's device -> round map as device -> 1 repetition."""
    return dict.fromkeys(counts, 1) if report.repetitions == 1 else counts


def _sum_by_key(a: dict, b: dict) -> dict:
    return {k: a.get(k, 0) + b.get(k, 0) for k in sorted(a.keys() | b.keys())}


def merge(a: Report, b: Report) -> Report:
    """Sum two reports of the same scenario; the seed shown is `a`'s.

    Every field is a sum, so merging repetitions in any grouping gives the
    same report.
    """
    devices = {}
    for d in a.devices.keys() | b.devices.keys():
        x, y = a.devices.get(d, _BLANK), b.devices.get(d, _BLANK)
        # The counters add up; a merged row's rounds are left blank.
        devices[d] = DeviceRow(
            x.energy + y.energy, x.sent + y.sent, x.received + y.received, x.flags + y.flags
        )
    return Report(
        seed=a.seed,
        repetitions=a.repetitions + b.repetitions,
        rounds_executed=a.rounds_executed + b.rounds_executed,
        halt_reason=None,
        halted_runs=a.halted_runs + b.halted_runs,
        population=a.population,
        devices=devices,
        messages={k: v + b.messages[k] for k, v in a.messages.items()},
        verdicts={k: v + b.verdicts[k] for k, v in a.verdicts.items()},
        false_positives=a.false_positives + b.false_positives,
        detections=_sum_by_key(
            _per_repetition(a.detections, a), _per_repetition(b.detections, b)
        ),
        excluded=_sum_by_key(_per_repetition(a.excluded, a), _per_repetition(b.excluded, b)),
        total_energy=a.total_energy + b.total_energy,
    )


def _rows(report: Report) -> Iterator[tuple[int, DeviceRow]]:
    """Every device's (id, row) in id order, a zero row for each one never touched."""
    return ((d, report.devices.get(d, _BLANK)) for d in range(report.population))


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
    obj["devices"] = [{"id": d, **row._asdict()} for d, row in _rows(report)]
    global_obj = {
        "messages": report.messages,
        "verdicts": report.verdicts,
        "false_positives": report.false_positives,
        "detections": {str(k): v for k, v in report.detections.items()},
        "total_energy": report.total_energy,
    }
    if not single:
        global_obj["excluded"] = {str(k): v for k, v in report.excluded.items()}
    obj["global"] = global_obj
    return (json.dumps(obj, indent=2) + "\n").encode("utf-8")


_CSV_HEADER = "id,energy,sent,received,flags,excluded_round,detection_round"


def _csv_cell(value: int | None) -> str:
    return "" if value is None else str(value)


def _to_csv(report: Report) -> bytes:
    lines = [_CSV_HEADER]
    for d, row in _rows(report):
        lines.append(
            f"{d},{row.energy},{row.sent},{row.received},{row.flags},"
            f"{_csv_cell(row.excluded_round)},{_csv_cell(row.detection_round)}"
        )
    total_sent = sum(row.sent for row in report.devices.values())
    total_received = sum(row.received for row in report.devices.values())
    total_flags = sum(row.flags for row in report.devices.values())
    lines.append(f"GLOBAL,{report.total_energy},{total_sent},{total_received},{total_flags},,")
    return ("\n".join(lines) + "\n").encode("utf-8")


def emit_report(report: Report, format: str = "json") -> bytes:
    """Serialize a report. Formats: `json` (stable key order) or `csv`."""
    if format == "json":
        return _to_json(report)
    if format == "csv":
        return _to_csv(report)
    raise ContractError(f"unknown report format {format!r}")
