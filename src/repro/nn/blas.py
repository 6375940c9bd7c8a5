"""One process-wide cap on numpy's OpenBLAS thread pool.

Every expert of a local team runs in one process, and each GEMM would
otherwise fan out over OpenBLAS's own pool: K experts times the pool
size oversubscribe the cores, and the team answers slower than its
forwards run back to back.  A running :class:`ExpertWorker` therefore
holds a cap of one BLAS thread.  The first holder records the library's
count and sets 1; the last holder to release restores the recorded count.

The library is found once, through ``ctypes``: numpy's bundled OpenBLAS
under ``numpy.libs`` (or any OpenBLAS already mapped into the process),
trying the symbol names of numpy >= 2.0 wheels, numpy 1.26 wheels and a
plain system OpenBLAS in that order.  Without one, the cap warns once and
does nothing.  The thread count changes no answer: OpenBLAS splits a GEMM
over threads by blocks of the output, so each output element is summed
in the same order whatever the count.  ``tests/nn/test_executor_
differential.py`` pins this byte for byte on the served model shapes.
"""

from __future__ import annotations

import ctypes
import glob
import os
import threading
import warnings

__all__ = ["get_num_threads", "acquire", "release"]

#: (set, get) symbol pairs, most specific first.
_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)

_lock = threading.Lock()
_api = None          # (set, get) ctypes functions, or False if not found
_holders = 0
_saved: int | None = None


def _candidate_paths() -> list[str]:
    import numpy
    site = os.path.dirname(os.path.dirname(numpy.__file__))
    paths = sorted(glob.glob(os.path.join(site, "numpy.libs", "*openblas*")))
    try:
        with open("/proc/self/maps") as maps:
            paths += [line.split()[-1] for line in maps
                      if "openblas" in line and "/" in line]
    except OSError:
        pass
    return list(dict.fromkeys(paths))


def _lookup():
    """``(set, get)`` for the process's OpenBLAS, or None."""
    for path in _candidate_paths():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for set_name, get_name in _SYMBOLS:
            setter = getattr(lib, set_name, None)
            getter = getattr(lib, get_name, None)
            if setter is not None and getter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                return setter, getter
    return None


def _resolve():
    """The cached lookup; warns the one time it comes back empty.
    Call with ``_lock`` held."""
    global _api
    if _api is None:
        _api = _lookup() or False
        if not _api:
            warnings.warn("no OpenBLAS thread control found; co-located "
                          "experts keep the library's default thread count",
                          RuntimeWarning, stacklevel=3)
    return _api


def get_num_threads() -> int | None:
    """The OpenBLAS thread count, or None without thread control."""
    with _lock:
        api = _resolve()
    return api[1]() if api else None


def acquire() -> None:
    """Take one hold on the one-thread cap (sets 1 on the first hold)."""
    global _holders, _saved
    with _lock:
        api = _resolve()
        if _holders == 0 and api:
            _saved = api[1]()
            api[0](1)
        _holders += 1


def release() -> None:
    """Drop one hold; the last one restores the count the first saw."""
    global _holders, _saved
    with _lock:
        if _holders == 0:
            raise RuntimeError("blas.release() without a matching acquire()")
        _holders -= 1
        if _holders == 0 and _saved is not None:
            _api[0](_saved)
            _saved = None
