"""Benchmark for mmwsim: closed-loop sweep workloads, KPI checks and tracing.

Run ``python3 perfbench/run.py --workload <name>`` from the repository root;
see ``perfbench/README.md``.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def use_checkout_sources():
    """Put this checkout's ``src`` first on the import path.

    Returns False when the checkout holds no mmwsim sources, so callers can
    refuse to run rather than benchmark some other installed copy.
    """
    if not (SRC / "mmwsim" / "__init__.py").is_file():
        return False
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return True
