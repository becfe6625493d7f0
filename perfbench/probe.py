"""Set-up time of one fresh process: import the CLI and load the scenario.

    python3 probe.py SRC_DIR SCENARIO

prints the nanoseconds from before `import collabtrust.cli` until the
scenario file is read, parsed and validated (interpreter start-up is not
included), then the median of three runs of the reference workload after
one run that warms it up.
"""

import os
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from reference import reference_ns  # noqa: E402

t0 = time.perf_counter_ns()
sys.path.insert(0, sys.argv[1])
import collabtrust.cli  # noqa: E402,F401
from collabtrust.scenario import load_scenario  # noqa: E402

load_scenario(sys.argv[2])
setup_ns = time.perf_counter_ns() - t0
reference_ns()
print(setup_ns, statistics.median(reference_ns() for _ in range(3)))
