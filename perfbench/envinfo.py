"""The numerical environment a result was measured in.

Reads, and never sets, the thread counts of both OpenBLAS copies that the
numpy and scipy wheels bundle: each has its own thread pool, so a thread
policy has to reach both.  threadpoolctl is not assumed to be installed;
the libraries are opened through ctypes by the path the wheels ship them
at, which returns the copy the process already loaded.
"""

import ctypes
import glob
import os
import platform

import numpy as np
import scipy

# symbol names differ between the 64-bit-integer (numpy) and 32-bit (scipy)
# builds and between wheel generations; the first one found is used
_THREAD_SYMBOLS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                   "openblas_get_num_threads64_", "openblas_get_num_threads")
_CONFIG_SYMBOLS = ("scipy_openblas_get_config64_", "scipy_openblas_get_config",
                   "openblas_get_config64_", "openblas_get_config")
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def _first_symbol(lib, names):
    for name in names:
        try:
            return name, getattr(lib, name)
        except AttributeError:
            continue
    return None, None


def _openblas(package):
    """Config string and live thread count of the OpenBLAS a package bundles."""
    libdir = os.path.join(os.path.dirname(os.path.dirname(package.__file__)),
                          package.__name__ + ".libs")
    paths = sorted(glob.glob(os.path.join(libdir, "*openblas*.so*")))
    if not paths:
        return {"library": None}
    lib = ctypes.CDLL(paths[0])
    out = {"library": os.path.basename(paths[0])}
    name, fn = _first_symbol(lib, _THREAD_SYMBOLS)
    if fn is not None:
        fn.argtypes = []
        fn.restype = ctypes.c_int
        out["threads"] = int(fn())
        out["threads_symbol"] = name
    name, fn = _first_symbol(lib, _CONFIG_SYMBOLS)
    if fn is not None:
        fn.argtypes = []
        fn.restype = ctypes.c_char_p
        out["config"] = fn().decode(errors="replace").strip()
    return out


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment():
    """One JSON-ready record of versions, BLAS threads and the machine."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": _openblas(np),
        "openblas_scipy": _openblas(scipy),
        "thread_env": {k: os.environ.get(k) for k in _THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
    }
