"""Checkout location, thread pinning and provenance.

Import this before numpy: :func:`prepare` pins the BLAS/OpenMP pools to
one thread and puts the checkout's ``src/`` first on ``sys.path``, so the
benchmark always measures the rews next to it and never an installed one.
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, "perfbench", "out")   # spans and temporary files
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class MissingSource(RuntimeError):
    """The checkout has no rews sources to measure."""


def child_env() -> dict:
    """Environment for child processes: pinned threads, checkout first."""
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


def prepare() -> None:
    """Pin threads and import rews from this checkout, or raise MissingSource."""
    if not os.path.isfile(os.path.join(SRC, "rews", "__init__.py")):
        raise MissingSource(f"no rews sources under {SRC}")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    import rews
    if not os.path.abspath(rews.__file__).startswith(SRC + os.sep):
        raise MissingSource(f"rews imported from {rews.__file__}, not {SRC}")


def source_sha256() -> str:
    """Hash of every file under src/rews, in path order."""
    digest = hashlib.sha256()
    base = os.path.join(SRC, "rews")
    for dirpath, dirnames, filenames in os.walk(base):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, base).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def git_commit():
    """HEAD of the checkout, or None where the checkout is not a git repository."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance(seed, loadavg) -> dict:
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "source_sha256": source_sha256(),
        "seed": seed,
        "loadavg_at_start": list(loadavg),
    }
