"""Run reports: per-device and global metrics, streamed out as JSON or CSV.

A report is one running total: `Report.fold` adds each completed run into
it in place, and the run is not kept. Per device it sums the raw counters,
ops, sends and receptions, and energy is priced from them only when the
report is emitted. `emit_report` yields the bytes in chunks of at most
CHUNK_ROWS device rows, so no report is held whole, however large its
population. Report bytes are a pure function of (scenario, seed, format):
all values are integers or fixed strings, key order is fixed, and no
locale-dependent formatting is used anywhere. The JSON is byte for byte
what `json.dumps(obj, indent=2)` writes for the report's object, with a
newline after it: the encoder here writes that fixed shape directly.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from itertools import islice, starmap

from .errors import ContractError
from .scenario import Scenario
from .simnet import RunResult
from .verdict import SuspicionLedger

# A device's report line; `energy` is priced from the counters a row sums.
_COLUMNS = ("id", "energy", "sent", "received", "flags", "excluded_round", "detection_round")
# The counters of a device no run touched: ops, sent, received, flags.
_BLANK = (0, 0, 0, 0)
# Most device rows one emitted chunk holds.
CHUNK_ROWS = 1024

# A device's JSON object and CSV line, by its cells in _COLUMNS order.
_JSON_ROW = "    {{\n" + ",\n".join(f'      "{c}": {{}}' for c in _COLUMNS) + "\n    }}"
_CSV_ROW = ",".join("{}" for _ in _COLUMNS) + "\n"


def _count(counts: dict[int, int], devices) -> None:
    for d in devices:
        counts[d] = counts.get(d, 0) + 1


class Report:
    """The integer results of a scenario's runs, summed as each run is folded in.

    `devices` holds [ops, sent, received, flags] only for the devices a
    run touched, those that joined a group; every other device of
    `population` has a zero row, made when the report is emitted. Energy
    is priced from a row with the scenario's `energy_model` when the row
    is emitted, as `total_energy` prices the rows' sums: energy is linear
    in the counters, so the sum of the prices is the price of the sums.
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
        self.energy_model = scenario.energy
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
        rows, flags = self.devices, suspicion.flags
        for d, u in result.energy.usage.items():
            row = rows.get(d)
            if row is None:
                rows[d] = [u.ops, u.sent, u.received, flags.get(d, 0)]
            else:
                row[0] += u.ops
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

    def totals(self) -> tuple[int, int, int, int]:
        """The summed energy, sends, receptions and flags of every device."""
        ops, sent, received, flags = (sum(c) for c in zip(_BLANK, *self.devices.values()))
        m = self.energy_model
        return m.e_op * ops + m.e_tx * sent + m.e_rx * received, sent, received, flags

    def total_energy(self) -> int:
        return self.totals()[0]


def _rows(report: Report, none: str) -> Iterator[tuple]:
    """Every device's cells in id order, a zero row for each one never touched.

    The cells are those of _COLUMNS. A blank round is `none`; only a
    single run's report has rounds.
    """
    m = report.energy_model
    e_op, e_tx, e_rx = m.e_op, m.e_tx, m.e_rx
    devices = report.devices
    if report.repetitions == 1:
        excluded, flagged = report.suspicion.excluded_at, report.suspicion.first_flagged
    else:
        excluded = flagged = {}
    for d in range(report.population):
        ops, sent, received, flags = devices.get(d, _BLANK)
        energy = e_op * ops + e_tx * sent + e_rx * received
        yield d, energy, sent, received, flags, excluded.get(d, none), flagged.get(d, none)


def _chunks(head: str, rows: Iterator[str], sep: str, tail: str) -> Iterator[bytes]:
    """`head`, the `rows` joined by `sep`, then `tail`, encoded CHUNK_ROWS rows at a time.

    A report has at least one row: a scenario's population is at least 3.
    """
    text = head + sep.join(islice(rows, CHUNK_ROWS))
    while batch := sep.join(islice(rows, CHUNK_ROWS)):
        yield text.encode()
        text = sep + batch
    yield (text + tail).encode()


def _json_object(items, indent: str) -> str:
    """A JSON object of (name, int) pairs, as `json.dumps(indent=2)` writes it at `indent`.

    The names are fixed ASCII names or device ids, which need no escaping.
    """
    if not items:
        return "{}"
    inner = indent + "  "
    return "{\n" + ",\n".join(f'{inner}"{k}": {v}' for k, v in items) + f"\n{indent}}}"


def _to_json(report: Report) -> Iterator[bytes]:
    single = report.repetitions == 1
    if single:
        # A halt reason is any text; json.dumps escapes it as the rest expects.
        outcome = f'"halt_reason": {json.dumps(report.halt_reason)}'
    else:
        outcome = f'"halted_runs": {report.halted_runs}'
    head = (
        f'{{\n  "seed": {report.seed},\n  "repetitions": {report.repetitions},\n'
        f'  "rounds_executed": {report.rounds_executed},\n  {outcome},\n  "devices": [\n'
    )
    ind = "    "
    detections = sorted((report.detection_rounds if single else report.detections).items())
    fields = [
        f'{ind}"messages": {_json_object(report.messages.items(), ind)}',
        f'{ind}"verdicts": {_json_object(report.verdicts.items(), ind)}',
        f'{ind}"false_positives": {report.false_positives}',
        f'{ind}"detections": {_json_object(detections, ind)}',
        f'{ind}"total_energy": {report.total_energy()}',
    ]
    if not single:
        fields.append(f'{ind}"excluded": {_json_object(sorted(report.excluded.items()), ind)}')
    tail = '\n  ],\n  "global": {\n' + ",\n".join(fields) + "\n  }\n}\n"
    yield from _chunks(head, starmap(_JSON_ROW.format, _rows(report, "null")), ",\n", tail)


def _to_csv(report: Report) -> Iterator[bytes]:
    energy, sent, received, flags = report.totals()
    tail = f"GLOBAL,{energy},{sent},{received},{flags},,\n"
    rows = starmap(_CSV_ROW.format, _rows(report, ""))
    yield from _chunks(",".join(_COLUMNS) + "\n", rows, "", tail)


def emit_report(report: Report, format: str = "json") -> Iterator[bytes]:
    """The report's bytes, in chunks. Formats: `json` (stable key order) or `csv`.

    An unknown format raises ContractError at the call, before any chunk.
    """
    if format == "json":
        return _to_json(report)
    if format == "csv":
        return _to_csv(report)
    raise ContractError(f"unknown report format {format!r}")
