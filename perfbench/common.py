"""Helpers shared by run.py and its passes.

Nothing here imports the program under test at module level: run.py
must be able to start (and fail cleanly) in a directory that holds only
the benchmark.
"""

from __future__ import annotations

import json
import math
import os
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Scratch space for the processes the benchmark starts (the cluster CLI
# saves its recognizer through ``tempfile``); kept inside the checkout.
TMP = ROOT / ".perfbench_tmp"


def use_src() -> None:
    """Make the program under test importable from this checkout."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    """Environment for every process the benchmark starts."""
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + existing if existing else "")
    env["TMPDIR"] = str(TMP)
    env["PYTHONUNBUFFERED"] = "1"
    return env


def emit(obj: dict) -> None:
    """Print one JSON result line and flush it."""
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def vm_hwm_mb(pid="self") -> float:
    """Peak resident set size (``VmHWM``) of a process, in MiB."""
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def calib_us() -> float:
    """Time a fixed pure-Python plus numpy loop, in microseconds.

    Run just before each timed pass: when the host's cores slow down or
    speed up, this number moves with the figures it skews.
    """
    import numpy as np

    a = np.arange(4096, dtype=np.float64).reshape(64, 64) / 4096.0
    start = time.perf_counter()
    acc = 0
    for i in range(20000):
        acc += i * i % 7
    for _ in range(200):
        a = np.tanh(a @ a.T)
    elapsed = time.perf_counter() - start
    if acc < 0 or not np.isfinite(a).all():  # keep the work observable
        raise RuntimeError("calibration loop misbehaved")
    return elapsed * 1e6


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile ``q`` in [0, 1] of ``values``."""
    xs = sorted(values)
    if not xs:
        raise ValueError("quantile of no samples")
    pos = (len(xs) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return quantile(values, 0.5)


def tail_label(n: int) -> str:
    """The highest of p99.9 / p99 / p90 / p50 with ten samples beyond it."""
    for label, q in (("p99.9", 0.999), ("p99", 0.99), ("p90", 0.9)):
        if n * (1.0 - q) >= 10:
            return label
    return "p50"


def fingerprint() -> dict:
    """What the figures were measured on."""
    model = platform.processor() or ""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": _commit(),
    }


def _commit() -> str | None:
    """The checkout's commit, read from ``.git`` without running git
    (a checkout that is not a repository has none)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            path = git / ref
            if path.exists():
                return path.read_text().strip()[:12]
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0][:12]
            return None
        return head[:12]
    except OSError:
        return None
