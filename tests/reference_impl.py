"""Reference implementations that the simulator's faster code is tested against.

None of this runs in the simulator:

- `build_report`, `merge` and `emit`: the report chain that `report.Report`
  replaced. Each run became a frozen `RefReport`, two reports of the same
  scenario merged into a new one, and `emit` wrote JSON and CSV from it.
  Folding runs into a `report.Report` one by one must emit the same bytes.
- `form_group` (with `shuffle_prefix`): a Fisher-Yates prefix over the list
  of eligible devices, which `simnet.draw_group` draws without the list.
- `detection_stats`: the stats of a log of (issuer, verdict) pairs folded
  pair by pair, which a run folds as it goes.
- `next_bits`: one SplitMix64 word masked to its low bits.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple

from collabtrust.adversary import AdversaryProfile
from collabtrust.errors import ContractError, GroupFormationError
from collabtrust.metrics import DetectionStats
from collabtrust.rng import SplitMix64
from collabtrust.scenario import Scenario
from collabtrust.simnet import RunResult
from collabtrust.verdict import Outcome, Verdict


class DeviceRow(NamedTuple):
    """One device's line of a report; the device id is its key in `RefReport.devices`."""

    energy: int
    sent: int
    received: int
    flags: int
    excluded_round: int | None = None
    detection_round: int | None = None


# The row of a device no run touched, and what merge adds for a missing one.
_BLANK = DeviceRow(0, 0, 0, 0)


@dataclass(frozen=True)
class RefReport:
    """Integer results of one run, or sums over repetitions.

    For a single run `detections` and `excluded` map a device to the round
    it was first detected or excluded in. Once merged (repetitions > 1)
    they count the repetitions in which that happened, `halt_reason` is
    None and the per-device `excluded_round`/`detection_round` are blank.
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


def build_report(result: RunResult, scenario: Scenario) -> RefReport:
    """The report of one completed run."""
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
    return RefReport(
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
            "stray": 0,
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


def _per_repetition(counts: dict[int, int], report: RefReport) -> dict[int, int]:
    """A single run's device -> round map as device -> 1 repetition."""
    return dict.fromkeys(counts, 1) if report.repetitions == 1 else counts


def _sum_by_key(a: dict, b: dict) -> dict:
    return {k: a.get(k, 0) + b.get(k, 0) for k in sorted(a.keys() | b.keys())}


def merge(a: RefReport, b: RefReport) -> RefReport:
    """Sum two reports of the same scenario; the seed shown is `a`'s."""
    devices = {}
    for d in a.devices.keys() | b.devices.keys():
        x, y = a.devices.get(d, _BLANK), b.devices.get(d, _BLANK)
        devices[d] = DeviceRow(
            x.energy + y.energy, x.sent + y.sent, x.received + y.received, x.flags + y.flags
        )
    return RefReport(
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


def _rows(report: RefReport) -> Iterator[tuple[int, DeviceRow]]:
    return ((d, report.devices.get(d, _BLANK)) for d in range(report.population))


def _to_json(report: RefReport) -> bytes:
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


def _csv_cell(value: int | None) -> str:
    return "" if value is None else str(value)


def _to_csv(report: RefReport) -> bytes:
    lines = ["id,energy,sent,received,flags,excluded_round,detection_round"]
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


def emit(report: RefReport, format: str) -> bytes:
    """Serialize a reference report as `report.emit_report` serializes a `Report`."""
    if format == "json":
        return _to_json(report)
    if format == "csv":
        return _to_csv(report)
    raise ContractError(f"unknown report format {format!r}")


def next_bits(rng: SplitMix64, width: int) -> int:
    """One draw masked to the low `width` bits."""
    return rng.next_u64() & ((1 << width) - 1)


def shuffle_prefix(rng: SplitMix64, items: list, k: int) -> None:
    """Fisher-Yates the first `k` positions of `items` in place."""
    n = len(items)
    if not 0 <= k <= n:
        raise ValueError(f"prefix length {k} out of range for {n} items")
    for i in range(k):
        j = i + rng.below(n - i)
        items[i], items[j] = items[j], items[i]


def form_group(eligible: list[int], size: int, rng: SplitMix64) -> tuple[int, ...]:
    """Draw an ad-hoc group: a uniform subset via a seeded Fisher-Yates prefix.

    Member order is the shuffled order (it fixes the checkee rotation).
    The caller filters out excluded devices before calling.
    """
    if size > len(eligible):
        raise GroupFormationError(
            f"need {size} devices but only {len(eligible)} are eligible"
        )
    pool = list(eligible)
    shuffle_prefix(rng, pool, size)
    return tuple(pool[:size])


def detection_stats(
    verdicts: list[tuple[int, Verdict]],
    profiles: dict[int, AdversaryProfile],
) -> DetectionStats:
    """Score a log of (issuing device, verdict) pairs against the adversary map, one fold per pair."""
    stats = DetectionStats()
    for issuer, v in verdicts:
        stats.fold(v, (issuer,), profiles)
    return stats
