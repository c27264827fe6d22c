"""Paths, statistics, process handling and environment capture shared by the
benchmark's parent and child processes.

Every process the benchmark starts imports ``cubescore`` from the checkout's
own ``src/`` directory, never from an installed copy, so each commit measures
its own code.
"""

from __future__ import annotations

import os
import platform
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "cubescore"
SCHEMA = PACKAGE / "schemas" / "command_result.schema.json"
HERE = Path(__file__).resolve().parent

#: Longest any single child process may run before it is killed and counted
#: as failed; well inside the 180 s a whole run may take.
CHILD_TIMEOUT_S = 60.0


def checkout_ok() -> bool:
    return (PACKAGE / "__init__.py").is_file()


def use_checkout_src() -> None:
    """Put the checkout's ``src/`` first on ``sys.path`` and refuse any other copy."""
    sys.path.insert(0, str(SRC))
    import cubescore

    found = Path(cubescore.__file__).resolve().parent
    if found != PACKAGE.resolve():
        raise RuntimeError(f"imported cubescore from {found}, expected {PACKAGE}")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_process(argv: list[str], timeout: float = CHILD_TIMEOUT_S, cwd: Path = ROOT):
    """Run one child to completion; returns ``(returncode, stdout, stderr)``.

    On timeout the child is killed and reaped, and the return code is -9.
    """
    try:
        proc = subprocess.run(
            argv, cwd=cwd, env=child_env(), capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as e:
        out = e.stdout.decode() if isinstance(e.stdout, bytes) else (e.stdout or "")
        return -9, out, f"timed out after {timeout} s"
    return proc.returncode, proc.stdout, proc.stderr


def cpu_ticks(pid: int) -> int | None:
    """User plus system CPU time of every thread of ``pid``, in clock ticks,
    or ``None`` where ``/proc`` cannot tell."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            fields = fh.read().rsplit(b")", 1)[1].split()
        return int(fields[11]) + int(fields[12])
    except (OSError, IndexError, ValueError):
        return None


def wait_idle(pid: int, settle: float = 0.02, timeout: float = 1.0) -> None:
    """Return once process ``pid`` has used no CPU for ``settle`` seconds.

    After a call returns, OpenBLAS worker threads keep spinning for up to
    about 0.1 s before they sleep.  A child measured right after another
    child's matrix products otherwise shares the two cores with those
    spinning threads, which made Monte Carlo calls 1.5 to 2x slower
    depending only on which operation ran before them.
    """
    deadline = time.monotonic() + timeout
    last = cpu_ticks(pid)
    if last is None:
        time.sleep(0.2)
        return
    while time.monotonic() < deadline:
        time.sleep(settle)
        now = cpu_ticks(pid)
        if now is None or now == last:
            return
        last = now


def median(xs) -> float:
    return float(statistics.median(xs))


def percentile(xs, pct: int) -> float:
    """Inclusive-method percentile, as ``statistics.quantiles`` computes it."""
    if len(xs) == 1:
        return float(xs[0])
    return float(statistics.quantiles(xs, n=100, method="inclusive")[pct - 1])


def environment() -> dict:
    """What the numbers depend on besides the code: recorded next to every result."""
    import numpy as np

    info = {
        "git_sha": None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": None,
        "blas": None,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_env": {k: v for k, v in sorted(os.environ.items()) if k.startswith(("OPENBLAS_", "OMP_"))},
        "thp": None,
    }
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            info["git_sha"] = out.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    try:
        info["scipy"] = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):  # numpy builds without this layout
        pass
    try:
        info["thp"] = Path("/sys/kernel/mm/transparent_hugepage/enabled").read_text().strip()
    except OSError:
        pass
    return info


def sum_of_medians(samples_by_unit: dict) -> dict:
    """Per-layer totals for one pass: for each unit of work (an operation or an
    invocation) the median over its traced calls of every key, summed over
    units.  A key a call did not record counts as 0 for that call."""
    total: dict = defaultdict(float)
    for samples in samples_by_unit.values():
        keys = set().union(*samples)
        for k in keys:
            total[k] += median([s.get(k, 0.0) for s in samples])
    return dict(total)
