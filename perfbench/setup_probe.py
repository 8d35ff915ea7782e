"""Set-up probe: a fresh process that stops at the first engine call.

    python3 perfbench/setup_probe.py <workload> <seed>

starts the interpreter, imports numpy and mmwsim, builds the workload's
base config and expands its sweep (everything a sweep does before it calls
``run_simulation``), then prints ``time.monotonic()``. ``run.py`` subtracts
the moment it started the process to get ``setup_s``.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import use_checkout_sources  # noqa: E402

if __name__ == "__main__":
    if not use_checkout_sources():
        sys.exit("setup_probe: no mmwsim sources under src/")
    from perfbench.workloads import WORKLOADS
    WORKLOADS[sys.argv[1]].expand(int(sys.argv[2]))
    print(repr(time.monotonic()))
