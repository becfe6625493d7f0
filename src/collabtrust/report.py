"""Run reports: per-device and global metrics, serialized to JSON or CSV.

Report bytes are a pure function of (scenario, seed, format): all values are
integers or fixed strings, key order is fixed, and no locale-dependent
formatting is used anywhere.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import ContractError
from .metrics import DetectionStats, detection_stats
from .scenario import Scenario
from .simnet import RunResult
from .verdict import Outcome

OUTCOME_ORDER = (Outcome.TRUSTED, Outcome.FLAGGED, Outcome.INCONCLUSIVE)


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
class SimReport:
    seed: int
    repetitions: int
    rounds_executed: int
    halt_reason: str | None
    devices: tuple[DeviceReport, ...]
    messages: dict[str, int]
    verdicts: dict[str, int]
    false_positives: int
    detections: dict[int, int]
    total_energy: int


def build_report(result: RunResult, scenario: Scenario) -> SimReport:
    """Assemble the report for one completed run (pure post-processing)."""
    stats: DetectionStats = detection_stats(result.verdicts, scenario.profile_map())
    devices = []
    for d in range(scenario.population):
        usage = result.energy.usage[d]
        devices.append(
            DeviceReport(
                id=d,
                energy=result.energy.energy(d),
                sent=usage.sent,
                received=usage.received,
                flags=result.suspicion.flag_count(d),
                excluded_round=result.suspicion.excluded_round(d),
                detection_round=result.suspicion.first_flagged.get(d),
            )
        )
    c = result.counters
    return SimReport(
        seed=result.seed,
        repetitions=1,
        rounds_executed=result.rounds_executed,
        halt_reason=result.halt_reason,
        devices=tuple(devices),
        messages={
            "sent": c.sent,
            "delivered": c.delivered,
            "dropped": c.dropped,
            "late": c.late,
            "stray": 0,  # strays are counted as late; the key keeps the format stable
            "in_flight": c.in_flight,
        },
        verdicts={o.value: stats.outcome_counts.get(o, 0) for o in OUTCOME_ORDER},
        false_positives=stats.false_positives,
        detections=dict(sorted(stats.detections.items())),
        total_energy=result.energy.total_energy(),
    )


@dataclass(frozen=True)
class AggregateReport:
    """Integer sums over repeated runs; rates are left to the consumer.

    `detections` maps a corrupt device to the number of repetitions in which
    an honest device flagged it; `excluded` counts repetitions ending with
    the device excluded.
    """

    seed: int
    repetitions: int
    rounds_executed: int
    devices: tuple[DeviceReport, ...]
    messages: dict[str, int]
    verdicts: dict[str, int]
    false_positives: int
    detections: dict[int, int]
    excluded: dict[int, int]
    halted_runs: int
    total_energy: int


def build_aggregate(reports: list[SimReport]) -> AggregateReport:
    """Sum repeated runs; the seed shown is the first repetition's."""
    if not reports:
        raise ContractError("aggregate needs at least one report")
    n_devices = len(reports[0].devices)
    energy = [0] * n_devices
    sent = [0] * n_devices
    received = [0] * n_devices
    flags = [0] * n_devices
    detections: dict[int, int] = {}
    excluded: dict[int, int] = {}
    messages: dict[str, int] = {k: 0 for k in reports[0].messages}
    verdicts: dict[str, int] = {o.value: 0 for o in OUTCOME_ORDER}
    false_positives = 0
    rounds = 0
    halted = 0
    for rep in reports:
        rounds += rep.rounds_executed
        false_positives += rep.false_positives
        halted += 1 if rep.halt_reason is not None else 0
        for k, v in rep.messages.items():
            messages[k] += v
        for k, v in rep.verdicts.items():
            verdicts[k] += v
        for device in rep.detections:
            detections[device] = detections.get(device, 0) + 1
        for dev in rep.devices:
            energy[dev.id] += dev.energy
            sent[dev.id] += dev.sent
            received[dev.id] += dev.received
            flags[dev.id] += dev.flags
            if dev.excluded_round is not None:
                excluded[dev.id] = excluded.get(dev.id, 0) + 1
    devices = tuple(
        DeviceReport(
            id=d,
            energy=energy[d],
            sent=sent[d],
            received=received[d],
            flags=flags[d],
            excluded_round=None,
            detection_round=None,
        )
        for d in range(n_devices)
    )
    return AggregateReport(
        seed=reports[0].seed,
        repetitions=len(reports),
        rounds_executed=rounds,
        devices=devices,
        messages=messages,
        verdicts=verdicts,
        false_positives=false_positives,
        detections=dict(sorted(detections.items())),
        excluded=dict(sorted(excluded.items())),
        halted_runs=halted,
        total_energy=sum(energy),
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


def _to_json(report: SimReport | AggregateReport) -> bytes:
    obj: dict = {
        "seed": report.seed,
        "repetitions": report.repetitions,
        "rounds_executed": report.rounds_executed,
    }
    if isinstance(report, SimReport):
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
    if isinstance(report, AggregateReport):
        global_obj["excluded"] = {str(k): v for k, v in report.excluded.items()}
    obj["global"] = global_obj
    return (json.dumps(obj, indent=2) + "\n").encode("utf-8")


_CSV_HEADER = "id,energy,sent,received,flags,excluded_round,detection_round"


def _csv_cell(value: int | None) -> str:
    return "" if value is None else str(value)


def _to_csv(report: SimReport | AggregateReport) -> bytes:
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


def emit_report(report: SimReport | AggregateReport, format: str = "json") -> bytes:
    """Serialize a report. Formats: `json` (stable key order) or `csv`."""
    if format == "json":
        return _to_json(report)
    if format == "csv":
        return _to_csv(report)
    raise ContractError(f"unknown report format {format!r}")
