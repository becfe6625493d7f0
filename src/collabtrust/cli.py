"""Command-line driver: run scenarios, sweep parameters, print oracle tables.

Exit codes: 0 success, 1 scenario/usage errors, 2 internal protocol
violations (simulator bugs).
"""

from __future__ import annotations

import argparse
import copy
import functools
import json
import sys
from collections.abc import Iterable
from itertools import chain
from typing import TextIO

from .errors import ProtocolViolation, ScenarioError
from .report import Report, build_report, emit_report, merge
from .rng import MASK64
from .scenario import Scenario, read_scenario_doc, scenario_from_dict
from .simnet import run_simulation
from .verdict import decision_table, default_quorum


class OutputError(Exception):
    """An output file (--out or --trace) could not be written."""


class UsageError(Exception):
    """The command line does not parse."""


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as a UsageError instead of exiting 2.

    Subparsers are built with the parent's class, so they inherit this.
    """

    def error(self, message):
        raise UsageError(message)


def _write_output(chunks: Iterable[bytes], out: str | None) -> None:
    """Write each chunk as it comes to the file `out`, or to stdout.

    The file is opened before the first chunk is asked for, so an
    unwritable `out` fails before any output is produced.
    """
    if out is None:
        for chunk in chunks:
            sys.stdout.buffer.write(chunk)
        sys.stdout.buffer.flush()
        return
    try:
        with open(out, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
    except OSError as exc:
        raise OutputError(f"cannot write {out}: {exc.strerror or exc}") from None


def _run_repetitions(scenario: Scenario, base_seed: int, trace: TextIO | None = None) -> Report:
    """Run every repetition (repetition k with seed base+k) into one merged report.

    Each run is reduced to its report and merged as soon as it ends, so
    memory does not grow with `repetitions`. With `trace` given, each run
    writes its trace lines there as its events happen, under a
    `REP k seed=S` header when there are several.
    """
    total: Report | None = None
    for rep in range(scenario.repetitions):
        seed = (base_seed + rep) & MASK64
        if trace is not None and scenario.repetitions > 1:
            trace.write(f"REP {rep} seed={seed}\n")
        res = run_simulation(scenario, seed=seed, trace=trace)
        if trace is not None:
            trace.flush()
        report = build_report(res, scenario)
        total = report if total is None else merge(total, report)
        del res, report  # neither outlives its repetition
    return total


def _cmd_run(args) -> int:
    scenario = scenario_from_dict(read_scenario_doc(args.scenario))
    base_seed = scenario.seed if args.seed is None else args.seed
    path = args.trace
    if path is None:
        report = _run_repetitions(scenario, base_seed)
    else:
        # The trace file is the only I/O here, so an OSError comes from it.
        try:
            with open(path, "w", encoding="utf-8", newline="") as trace:
                report = _run_repetitions(scenario, base_seed, trace)
        except OSError as exc:
            raise OutputError(f"cannot write {path}: {exc.strerror or exc}") from None
    _write_output((emit_report(report, args.format),), args.out)
    return 0


def _set_path(doc: dict, dotted: str, value) -> None:
    keys = dotted.split(".")
    node = doc
    for key in keys[:-1]:
        nxt = node.setdefault(key, {})
        if not isinstance(nxt, dict):
            raise ScenarioError(f"sweep param {dotted!r}: {key} is not an object")
        node = nxt
    node[keys[-1]] = value


def _parse_sweep_value(token: str):
    error = ScenarioError(f"sweep value {token!r} is not a JSON scalar")
    try:
        value = json.loads(token)
    except (ValueError, RecursionError):
        raise error from None
    if isinstance(value, (list, dict)):
        raise error
    return value


# Each sweep column after `param` and `value`, with how it reads the merged report.
_SWEEP_COLUMNS = (
    ("repetitions", lambda agg: agg.repetitions),
    ("rounds_executed", lambda agg: agg.rounds_executed),
    ("sent", lambda agg: agg.messages["sent"]),
    ("delivered", lambda agg: agg.messages["delivered"]),
    ("dropped", lambda agg: agg.messages["dropped"]),
    ("late", lambda agg: agg.messages["late"]),
    ("trusted", lambda agg: agg.verdicts["TRUSTED"]),
    ("flagged", lambda agg: agg.verdicts["FLAGGED"]),
    ("inconclusive", lambda agg: agg.verdicts["INCONCLUSIVE"]),
    ("false_positives", lambda agg: agg.false_positives),
    ("detected_devices", lambda agg: len(agg.detections)),
    ("total_energy", lambda agg: agg.total_energy),
)


def _cmd_sweep(args) -> int:
    base_doc = read_scenario_doc(args.scenario)
    values = [_parse_sweep_value(tok) for tok in args.values.split(",")]
    rows = []
    for value in values:
        doc = copy.deepcopy(base_doc)
        _set_path(doc, args.param, value)
        scenario = scenario_from_dict(doc)
        seed = scenario.seed if args.seed is None else args.seed
        agg = _run_repetitions(scenario, seed)
        row = {"param": args.param, "value": value}
        row.update((name, column(agg)) for name, column in _SWEEP_COLUMNS)
        rows.append(row)
    if args.format == "json":
        payload = (json.dumps(rows, indent=2) + "\n").encode("utf-8")
    else:
        header = ("param", "value", *(name for name, _ in _SWEEP_COLUMNS))
        lines = [",".join(header)]
        lines.extend(",".join(str(cell) for cell in row.values()) for row in rows)
        payload = ("\n".join(lines) + "\n").encode("utf-8")
    _write_output((payload,), args.out)
    return 0


def _cmd_oracle_verdict_table(args) -> int:
    if args.n < 3:
        raise ScenarioError(f"--n: group size must be at least 3, got {args.n}")
    n_checkers = args.n - 1
    quorum = default_quorum(n_checkers) if args.quorum is None else args.quorum
    if not 1 <= quorum <= n_checkers:
        raise ScenarioError(f"--quorum: must be in [1, {n_checkers}], got {quorum}")
    rows = (
        f"{agree},{disagree},{missing},{outcome.value}\n".encode()
        for agree, disagree, missing, outcome in decision_table(n_checkers, quorum)
    )
    _write_output(chain((b"agree,disagree,missing,outcome\n",), rows), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="collabtrust",
        description="Deterministic simulator for collaborative majority-vote device checking.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute one scenario and emit its report")
    run_p.add_argument("--scenario", required=True, help="path to a scenario JSON file")
    run_p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    run_p.add_argument("--out", default=None, help="report file (default: stdout)")
    run_p.add_argument("--format", choices=("json", "csv"), default="json")
    run_p.add_argument("--trace", default=None, help="write the event trace to this file")

    sweep_p = sub.add_parser("sweep", help="re-run a scenario across parameter values")
    sweep_p.add_argument("--scenario", required=True)
    sweep_p.add_argument("--param", required=True, help="dotted key, e.g. network.drop_prob")
    sweep_p.add_argument("--values", required=True, help="comma-separated JSON scalars")
    sweep_p.add_argument("--seed", type=int, default=None)
    sweep_p.add_argument("--out", default=None)
    sweep_p.add_argument("--format", choices=("json", "csv"), default="csv")

    oracle_p = sub.add_parser("oracle", help="print audit tables used as test oracles")
    oracle_sub = oracle_p.add_subparsers(dest="oracle_command", required=True)
    vt = oracle_sub.add_parser(
        "verdict-table", help="exhaustive verdict outcomes for a group size"
    )
    vt.add_argument("--n", type=int, required=True, help="group size")
    vt.add_argument("--quorum", type=int, default=None)
    vt.add_argument("--out", default=None)

    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser, built on first use and reused by every later call of main."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        return _cmd_oracle_verdict_table(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 1
    except OutputError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 1
    except ProtocolViolation as exc:
        print(f"protocol violation: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
