"""The environment a result was measured in.

The OpenBLAS thread count is read from each loaded OpenBLAS library through
its own entry point (numpy and scipy each bundle one), since threadpoolctl
is not a dependency.
"""

from __future__ import annotations

import ctypes
import os
import platform

import numpy as np
import scipy

_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)
_CONFIG_SYMBOLS = (
    "scipy_openblas_get_config64_",
    "scipy_openblas_get_config",
    "openblas_get_config64_",
    "openblas_get_config",
)


def _loaded_openblas():
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    return sorted(p for p in paths if p.startswith("/"))


def _first_symbol(lib, names):
    for name in names:
        if hasattr(lib, name):
            return getattr(lib, name)
    return None


def openblas_info():
    """[{library, threads, config}] for every OpenBLAS mapped into the process."""
    out = []
    for path in _loaded_openblas():
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path), "threads": None, "config": None}
        get_threads = _first_symbol(lib, _THREAD_SYMBOLS)
        if get_threads is not None:
            get_threads.restype = ctypes.c_int
            get_threads.argtypes = []
            entry["threads"] = int(get_threads())
        get_config = _first_symbol(lib, _CONFIG_SYMBOLS)
        if get_config is not None:
            get_config.restype = ctypes.c_char_p
            get_config.argtypes = []
            entry["config"] = get_config().decode(errors="replace")
        out.append(entry)
    return out


def record():
    """Core count, BLAS threads, thread-count variables and versions."""
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "openblas": openblas_info(),
        "thread_env": {
            k: v
            for k, v in sorted(os.environ.items())
            if k == "GAPSHRINK_THREADS" or k.endswith("_NUM_THREADS")
        },
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }
