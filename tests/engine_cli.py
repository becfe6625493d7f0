"""`python -m collabtrust` with every run forced through the round walk.

A latency-free run takes the tally kernel, traced or not, and the package has
no switch to send it elsewhere. This driver patches
`collabtrust.simnet.latency_free` to read False and then runs the CLI, so the
kernel's reports and traces can be compared with the round walk's byte for byte:

    PYTHONPATH=src python tests/engine_cli.py run --scenario S --trace T > engine.json

It takes the same arguments as `python -m collabtrust`. Its name does not
start with `test_`, so pytest does not collect it.
"""

from __future__ import annotations

import sys

import collabtrust.cli as cli
import collabtrust.simnet as simnet


def main(argv: list[str] | None = None) -> int:
    simnet.latency_free = lambda scenario: False
    return cli.main(argv)


if __name__ == "__main__":
    sys.exit(main())
