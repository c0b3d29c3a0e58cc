"""Machine-info block recorded in every results file."""

from __future__ import annotations

import os
import platform
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cpu_count():
    """CPUs this process may run on (what `nproc` prints)."""
    return len(os.sched_getaffinity(0))


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas():
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{deps.get('name', '?')} {deps.get('version', '?')}"
    except (TypeError, KeyError):
        return "unknown"


def git_commit(root):
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = Path(root) / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_info(root):
    import numpy as np
    import scipy

    return {
        "nproc": cpu_count(),
        "cpu_model": _cpu_model(),
        "ram_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "git_commit": git_commit(root),
    }
