"""Locating the program under test, and stamping results with provenance."""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def use_checkout_source() -> None:
    """Import msgate from this checkout's ``src``, never from an installed copy.

    Exits with code 2 when the checkout holds no msgate source, so the
    benchmark fails loudly instead of measuring some other build.
    """
    if not (SRC / "msgate" / "__init__.py").is_file():
        print(f"perfbench: no msgate source under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))


def _openblas() -> tuple[str, int | None]:
    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs", "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
            config = lib.scipy_openblas_get_config64_
            threads = lib.scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        config.restype = ctypes.c_char_p
        threads.restype = ctypes.c_int
        return config().decode(), int(threads())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas.get('name')} {blas.get('version')}", None


def _git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest() -> str:
    """sha256 over msgate's source files (the checkout may not be a git repo)."""
    h = hashlib.sha256()
    for path in sorted((SRC / "msgate").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(seed: int | None) -> dict:
    import numpy as np
    import scipy

    blas, threads = _openblas()
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": blas,
        "blas_threads": threads,
        "git_commit": _git_commit(),
        "source_sha256": source_digest(),
        "workload_seed": seed,
    }
