"""Run reports: per-device and global metrics, serialized to JSON or CSV.

Report bytes are a pure function of (scenario, seed, format): all values are
integers or fixed strings, key order is fixed, and no locale-dependent
formatting is used anywhere.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import ContractError
from .scenario import Scenario
from .simnet import RunResult
from .verdict import Outcome


@dataclass(frozen=True)
class DeviceReport:
    id: int
    energy: int
    sent: int
    received: int
    flags: int
    excluded_round: int | None
    detection_round: int | None


@dataclass(frozen=True)
class Report:
    """Integer results of one run, or sums over repetitions; rates are left to the consumer.

    For a single run `detections` and `excluded` map a device to the round
    it was first detected or excluded in. Once merged (repetitions > 1) they
    count the repetitions in which that happened, `halt_reason` is None and
    the per-device `excluded_round`/`detection_round` are blank.
    """

    seed: int
    repetitions: int
    rounds_executed: int
    halt_reason: str | None
    halted_runs: int
    devices: tuple[DeviceReport, ...]
    messages: dict[str, int]
    verdicts: dict[str, int]
    false_positives: int
    detections: dict[int, int]
    excluded: dict[int, int]
    total_energy: int


def build_report(result: RunResult, scenario: Scenario) -> Report:
    """Assemble the report for one completed run (pure post-processing)."""
    stats = result.stats
    suspicion = result.suspicion
    devices = []
    for d in range(scenario.population):
        usage = result.energy.usage[d]
        devices.append(
            DeviceReport(
                id=d,
                energy=result.energy.energy(d),
                sent=usage.sent,
                received=usage.received,
                flags=suspicion.flag_count(d),
                excluded_round=suspicion.excluded_round(d),
                detection_round=suspicion.first_flagged.get(d),
            )
        )
    c = result.counters
    return Report(
        seed=result.seed,
        repetitions=1,
        rounds_executed=result.rounds_executed,
        halt_reason=result.halt_reason,
        halted_runs=0 if result.halt_reason is None else 1,
        devices=tuple(devices),
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
    devices = tuple(
        DeviceReport(
            id=x.id,
            energy=x.energy + y.energy,
            sent=x.sent + y.sent,
            received=x.received + y.received,
            flags=x.flags + y.flags,
            excluded_round=None,
            detection_round=None,
        )
        for x, y in zip(a.devices, b.devices)
    )
    return Report(
        seed=a.seed,
        repetitions=a.repetitions + b.repetitions,
        rounds_executed=a.rounds_executed + b.rounds_executed,
        halt_reason=None,
        halted_runs=a.halted_runs + b.halted_runs,
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


def _device_rows(devices: tuple[DeviceReport, ...]) -> list[dict]:
    return [
        {
            "id": d.id,
            "energy": d.energy,
            "sent": d.sent,
            "received": d.received,
            "flags": d.flags,
            "excluded_round": d.excluded_round,
            "detection_round": d.detection_round,
        }
        for d in devices
    ]


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
    obj["devices"] = _device_rows(report.devices)
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
    for d in report.devices:
        lines.append(
            f"{d.id},{d.energy},{d.sent},{d.received},{d.flags},"
            f"{_csv_cell(d.excluded_round)},{_csv_cell(d.detection_round)}"
        )
    total_sent = sum(d.sent for d in report.devices)
    total_received = sum(d.received for d in report.devices)
    total_flags = sum(d.flags for d in report.devices)
    lines.append(f"GLOBAL,{report.total_energy},{total_sent},{total_received},{total_flags},,")
    return ("\n".join(lines) + "\n").encode("utf-8")


def emit_report(report: Report, format: str = "json") -> bytes:
    """Serialize a report. Formats: `json` (stable key order) or `csv`."""
    if format == "json":
        return _to_json(report)
    if format == "csv":
        return _to_csv(report)
    raise ContractError(f"unknown report format {format!r}")
