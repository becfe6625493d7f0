"""One workload run in a fresh process, driven closed-loop by one client.

Each command calls `collabtrust.cli.main` in this process and starts only
after the previous one returned. Its host time is taken around that call
alone; reading and checking its output happens outside the timed region.

    python3 worker.py ROOT WORKLOAD SEED SECONDS TRACE WORKDIR RESULT

runs untraced commands for SECONDS (half of it when TRACE is 1, followed by
TRACED_COMMANDS commands under tracing), runs the reference workload after
each command, re-runs command 0 to check determinism and writes everything
it measured to RESULT as JSON.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracing  # noqa: E402
from reference import reference_ns  # noqa: E402
from workloads import (  # noqa: E402
    MIN_COMMANDS,
    TROJAN_DEVICE,
    WORKLOADS,
    check_report,
    command_argv,
    command_seed,
)

# Commands the traced run executes under tracing, with the first seeds.
TRACED_COMMANDS = 4


def _file_digest(path: str) -> tuple[str, int]:
    """SHA-256 and line count of a file, read in chunks."""
    h = hashlib.sha256()
    lines = 0
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            h.update(chunk)
            lines += chunk.count(b"\n")
    return h.hexdigest(), lines


class Client:
    def __init__(self, wl, workload_seed: int, workdir: str):
        self.wl = wl
        self.workload_seed = workload_seed
        self.scenario = os.path.join(workdir, "scenario.json")
        self.out = os.path.join(workdir, "report.json")
        self.trace = os.path.join(workdir, "trace.txt")
        with open(self.scenario, "w", encoding="utf-8") as fh:
            json.dump(wl.doc, fh)
        self.ref_ns = reference_ns()

    def command(self, index: int, main) -> dict:
        """Run command `index` through `main` and check what it wrote.

        The reference runs right after the command; with the one before it,
        it gives the machine's speed while the command ran.
        """
        seed = command_seed(self.workload_seed, self.wl.name, index)
        argv = command_argv(self.wl, self.scenario, seed, self.out, self.trace)
        for path in (self.out, self.trace):
            if os.path.exists(path):
                os.remove(path)
        outcome = {"index": index, "seed": seed, "problems": []}
        t0 = time.perf_counter_ns()
        try:
            rc = main(argv)
        except (Exception, SystemExit) as exc:
            rc = exc
        outcome["ns"] = time.perf_counter_ns() - t0
        after = reference_ns()
        outcome["ref_ns"] = (self.ref_ns + after) / 2
        self.ref_ns = after
        if rc != 0:
            failure = f"raised {rc!r}" if isinstance(rc, BaseException) else f"exit code {rc}"
            outcome["problems"].append(failure)
            return outcome
        try:
            with open(self.out, "rb") as fh:
                data = fh.read()
            report = json.loads(data)
            trace_lines = None
            if self.wl.trace:
                outcome["trace_sha256"], trace_lines = _file_digest(self.trace)
            outcome["problems"] += check_report(self.wl, seed, report, trace_lines)
            g = report["global"]
            outcome.update(
                report_sha256=hashlib.sha256(data).hexdigest(),
                report_bytes=len(data),
                messages=g["messages"],
                rounds=report["rounds_executed"],
                detected=g["detections"].get(str(TROJAN_DEVICE), 0),
            )
        except (OSError, ValueError, KeyError, TypeError) as exc:
            outcome["problems"].append(f"unreadable output: {exc!r}")
        return outcome

    def loop(self, main, seconds: float) -> list[dict]:
        """Closed loop: commands back to back until `seconds` have passed."""
        done = []
        stop = time.perf_counter() + seconds
        while len(done) < MIN_COMMANDS or time.perf_counter() < stop:
            done.append(self.command(len(done), main))
        return done


def _same_bytes(a: dict, b: dict) -> bool:
    keys = ("report_sha256", "trace_sha256")
    return not a["problems"] and not b["problems"] and all(a.get(k) == b.get(k) for k in keys)


def traced_run(client: Client, main, count: int, spans_path: str) -> dict:
    rec = tracing.SpanRecorder()
    root = rec.wrap(tracing.ROOT_SPAN, main)
    commands = []
    with tracing.installed(rec) as missing:
        for i in range(count):
            rec.begin_command(i)
            commands.append(client.command(i, root))
    rec.dump(spans_path)
    calls, self_ns, per_command = tracing.layer_totals(rec)
    return {
        "commands": commands,
        "calls": calls,
        "self_ns": self_ns,
        "per_command": {str(c): list(v) for c, v in per_command.items()},
        "counts": rec.counts,
        "missing": missing,
    }


def main(argv: list[str]) -> int:
    root, name, seed, seconds, trace, workdir, result_path = argv
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    from collabtrust import cli

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"collabtrust imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2
    wl = WORKLOADS[name]
    client = Client(wl, int(seed), workdir)
    traced = trace == "1"
    seconds = float(seconds) / 2 if traced else float(seconds)
    result = {"commands": client.loop(cli.main, seconds)}
    if traced:
        spans = os.path.join(os.path.dirname(workdir), f"spans-{name}")
        result["traced"] = traced_run(client, cli.main, TRACED_COMMANDS, spans)
    rerun = client.command(0, cli.main)
    result["deterministic"] = _same_bytes(result["commands"][0], rerun)
    if traced:
        result["traced_identical"] = all(
            _same_bytes(t, result["commands"][t["index"]]) for t in result["traced"]["commands"]
        )
    result["peak_rss_kib"] = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
