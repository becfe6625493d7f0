"""Command-line driver: run scenarios, sweep parameters, print oracle tables.

Exit codes: 0 success, 1 scenario/usage errors, 2 internal protocol
violations (simulator bugs).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from collections.abc import Iterable
from itertools import chain

from .errors import ProtocolViolation, ScenarioError
from .report import Report, emit_report
from .rng import MASK64
from .scenario import MAX_POPULATION, Scenario, read_scenario_doc, scenario_from_dict
from .simnet import latency_free, run_simulation
from .verdict import decision_table, default_quorum

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import BinaryIO, NoReturn, TextIO


class OutputError(Exception):
    """An output file (--out or --trace) could not be written."""


class UsageError(Exception):
    """The command line does not parse, or its options conflict."""


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as a UsageError instead of exiting 2.

    Subparsers are built with the parent's class, so they inherit this.
    """

    def error(self, message):
        raise UsageError(message)


class _Once(argparse.Action):
    """Stores an option's value, and raises a UsageError when the option is given again."""

    def __call__(self, parser, namespace, values, option_string=None):
        if getattr(namespace, self.dest) is not None:
            raise UsageError(f"{option_string} given more than once")
        setattr(namespace, self.dest, values)


def _write_output(chunks: Iterable[bytes], out: str | None) -> None:
    """Write each chunk as it comes to the file `out`, or to stdout.

    The file is opened before the first chunk is asked for, so an
    unwritable `out` fails before any output is produced.
    """
    if out is None:
        try:
            for chunk in chunks:
                sys.stdout.buffer.write(chunk)
            sys.stdout.buffer.flush()
        except OSError as exc:
            # The interpreter flushes stdout again at exit; pointing it at
            # devnull keeps that flush from failing a second time.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            raise OutputError(f"cannot write stdout: {exc.strerror or exc}") from None
        return
    try:
        with open(out, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
    except OSError as exc:
        raise OutputError(f"cannot write {out}: {exc.strerror or exc}") from None


def _fold_runs(
    scenario: Scenario, base_seed: int, reps: range, trace: TextIO | None = None
) -> Report:
    """Run repetitions `reps` (repetition k with seed base+k) into one running total.

    Each run is folded in as soon as it ends and then dropped, so memory
    does not grow with `repetitions`. With `trace` given, each run writes
    its trace lines there round by round, under a `REP k seed=S` header
    when the scenario has several.
    """
    total = Report(scenario)
    for rep in reps:
        seed = (base_seed + rep) & MASK64
        if trace is not None and scenario.repetitions > 1:
            trace.write(f"REP {rep} seed={seed}\n")
        total.fold(run_simulation(scenario, seed=seed, trace=trace))
        if trace is not None:
            trace.flush()
    return total


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_repetitions(scenario: Scenario, base_seed: int, trace: TextIO | None = None) -> Report:
    """Run every repetition of the scenario into one running total.

    An untraced round-walk run of several repetitions splits them into
    contiguous shares, one per usable CPU at most, each folded by its own
    forked worker (see `_fold_forked`). Everything else runs in this
    process: traced runs, single runs, tally-kernel runs (a kernel
    repetition costs far less than a fork), and a process without `fork`
    or with more than one thread. The report's bytes do not depend on
    which.
    """
    reps = scenario.repetitions
    workers = 1
    if trace is None and reps > 1 and not latency_free(scenario) and hasattr(os, "fork"):
        import threading  # imported here, so that a kernel run never loads it

        if threading.active_count() == 1:
            workers = min(_usable_cpus(), reps)
    if workers == 1:
        return _fold_runs(scenario, base_seed, range(reps), trace)
    return _fold_forked(scenario, base_seed, workers)


def _worker(scenario: Scenario, base_seed: int, reps: range, fd: int) -> NoReturn:
    """A forked worker: fold `reps`, write the result to pipe `fd`, exit.

    It writes its pickled total and exits 0, or a protocol violation's
    message and exits 2. Any other exception prints its traceback and exits
    1. Every path ends in `os._exit`, so nothing of the parent's stack runs
    on here.
    """
    import pickle  # already imported by the parent, which forked this worker

    code = 1
    try:
        try:
            part = _fold_runs(scenario, base_seed, reps)
            payload, status = pickle.dumps(part, pickle.HIGHEST_PROTOCOL), 0
        except ProtocolViolation as exc:
            payload, status = str(exc).encode("utf-8"), 2
        with open(fd, "wb") as pipe:
            pipe.write(payload)
        code = status
    except Exception:
        import traceback

        traceback.print_exc()
        sys.stderr.flush()
    finally:
        os._exit(code)


def _fold_forked(scenario: Scenario, base_seed: int, workers: int) -> Report:
    """Fold the repetitions in `workers` contiguous shares, side by side.

    A forked worker folds each share after the first into its own total
    and sends it back pickled over a pipe; this process folds the first
    share itself, so the report's seed is repetition 0's, then adds the
    partials in repetition order. Every worker is reaped on every path.
    """
    import pickle  # imported here, so that a command that forks no worker never loads it

    reps = scenario.repetitions
    bounds = [reps * w // workers for w in range(workers + 1)]
    children: dict[int, BinaryIO] = {}  # pid -> read end of its pipe, in share order
    try:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                _worker(scenario, base_seed, range(lo, hi), write)
            os.close(write)
            children[pid] = open(read, "rb")
        total = _fold_runs(scenario, base_seed, range(bounds[1]))
        for pid in list(children):
            with children[pid] as pipe:
                data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            del children[pid]
            code = os.waitstatus_to_exitcode(status)
            if code == 2:
                raise ProtocolViolation(data.decode("utf-8"))
            if code:
                raise RuntimeError(f"repetition worker {pid} exited with status {code}")
            total.add(pickle.loads(data))
        return total
    except BaseException:
        import signal  # imported here, as only a failed fold stops its workers early

        for pid, pipe in children.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        raise


def _check_distinct_files(args, *options: str) -> None:
    """Raise a UsageError when two of these path options name the same file.

    Each output would overwrite the scenario or the other output, so the
    command is refused before it reads or writes anything. Paths that exist
    are compared by device and inode, which also sees hard links; the rest
    by their real path.
    """
    seen: dict[tuple, str] = {}
    for option in options:
        path = getattr(args, option)
        if path is None:
            continue
        try:
            st = os.stat(path)
        except OSError:
            key: tuple = (os.path.realpath(path),)
        else:
            key = (st.st_dev, st.st_ino)
        first = seen.setdefault(key, option)
        if first != option:
            raise UsageError(f"--{first} and --{option} name the same file: {path}")


def _cmd_run(args) -> int:
    _check_distinct_files(args, "scenario", "out", "trace")
    path = args.trace
    scenario = scenario_from_dict(read_scenario_doc(args.scenario))
    base_seed = scenario.seed if args.seed is None else args.seed
    if path is None:
        report = _run_repetitions(scenario, base_seed)
    else:
        # The trace file is the only I/O here, so an OSError comes from it.
        try:
            with open(path, "w", encoding="utf-8", newline="") as trace:
                report = _run_repetitions(scenario, base_seed, trace)
        except OSError as exc:
            raise OutputError(f"cannot write {path}: {exc.strerror or exc}") from None
    _write_output(emit_report(report, args.format), args.out)
    return 0


def _set_path(doc: dict, dotted: str, value) -> None:
    """Set the key at the dotted path `dotted` of `doc` to `value`, making objects on the way.

    A path with an empty key is a UsageError, raised before any value is run.
    """
    keys = dotted.split(".")
    if "" in keys:
        raise UsageError(f"--param {dotted!r}: empty key in the dotted path")
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


# Each sweep column after `param` and `value`, with how it reads the running total.
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
    ("total_energy", Report.total_energy),
)


def _cmd_sweep(args) -> int:
    import copy  # imported here, as only a sweep copies a document

    _check_distinct_files(args, "scenario", "out")
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
    if not 3 <= args.n <= MAX_POPULATION:  # rows grow as n^2 / 2; no scenario holds a larger group
        raise ScenarioError(f"--n: group size must be in [3, {MAX_POPULATION}], got {args.n}")
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
    # A second --param or --values would replace the first.
    once = {"required": True, "action": _Once}
    sweep_p.add_argument("--param", **once, help="dotted key, e.g. network.drop_prob")
    sweep_p.add_argument("--values", **once, help="comma-separated JSON scalars")
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
