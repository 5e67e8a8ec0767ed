"""One set-up sample in a fresh interpreter: import xishift, then parse and
validate a workload's shift configs.  Prints the elapsed seconds.

    python3 perfbench/setup_probe.py WORKDIR
"""

import sys
import time

T0 = time.perf_counter()

from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (imports numpy and xishift)

workloads.load_configs(Path(sys.argv[1]))
print(repr(time.perf_counter() - T0))
