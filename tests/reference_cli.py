"""`python -m collabtrust` with every lossy run taken by the reference engine.

`tests/event_engine.py` keeps the event engine that lossy runs took before
the round walk. This script makes `collabtrust.simnet.run_simulation` run it
in place of the round walk and then runs the CLI, so the round walk's
reports and traces can be compared with the reference's byte for byte:

    PYTHONPATH=src python tests/reference_cli.py run --scenario S --trace T > reference.json

It takes the same arguments as `python -m collabtrust`. Latency-free runs
still take the tally kernel. Its name does not start with `test_`, so pytest
does not collect it.
"""

from __future__ import annotations

import sys

import collabtrust.cli as cli
import collabtrust.simnet as simnet
from event_engine import run_events


def main(argv: list[str] | None = None) -> int:
    simnet._run_rounds = run_events
    return cli.main(argv)


if __name__ == "__main__":
    sys.exit(main())
