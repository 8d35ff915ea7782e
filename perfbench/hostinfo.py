"""What a result was measured on, and peak memory across worker processes."""

import os
import platform
import threading
from pathlib import Path

# thread-count variables that BLAS and OpenMP runtimes read at start-up
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def nproc():
    """CPUs this process may run on (what ``nproc`` prints)."""
    return len(os.sched_getaffinity(0))


def git_sha(root):
    """Commit of the checkout, read from ``.git`` without running git.

    Returns "unknown" for an exported tree that has no ``.git``.
    """
    git = Path(root) / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_library():
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


def environment(root):
    import numpy as np
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_library(),
        "thread_vars": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_sha": git_sha(root),
        "machine": platform.machine(),
    }


def _status_kb(pid, key):
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith(key):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return None


def _children(pid):
    """Direct child pids, from the per-thread ``children`` lists."""
    kids = set()
    for tid in os.listdir(f"/proc/{pid}/task"):
        try:
            with open(f"/proc/{pid}/task/{tid}/children",
                      encoding="ascii") as fh:
                kids.update(int(p) for p in fh.read().split())
        except OSError:   # the thread has exited
            pass
    return kids


class PeakMemory:
    """Peak resident memory of this process plus its workers, in MiB.

    A background thread reads every child's ``VmHWM`` (the kernel's own
    high-water mark) while the block runs; the peak is this process's
    ``VmHWM`` plus the sum of the children's. Forked workers count the
    pages they share with this process too, so for a pool this is an upper
    bound on the memory the machine needed.
    """

    INTERVAL_S = 0.05

    def __init__(self):
        self._child_hwm = {}
        self._stop = threading.Event()
        self._thread = None
        self.peak_mb = None

    def _sample(self):
        for pid in _children(os.getpid()):
            kb = _status_kb(pid, "VmHWM:")
            if kb is not None:
                self._child_hwm[pid] = max(kb, self._child_hwm.get(pid, 0))

    def _loop(self):
        while not self._stop.wait(self.INTERVAL_S):
            self._sample()

    def __enter__(self):
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        own = _status_kb(os.getpid(), "VmHWM:") or 0
        self.peak_mb = (own + sum(self._child_hwm.values())) / 1024.0
        return False
