"""numpy's bundled OpenBLAS: its thread count, read back and pinned to one, and
the CPU kernel it runs. Every OpenBLAS query of the package is here.

The hop products of a scale are (rows, p) x (p, p) with small p, too small to
split: threaded, a p = 32, N = 100k curve took about 1.9x as long on 2 cores.
So mvdeg_curve, the command line and the timing sweep run inside
_one_blas_thread().
"""

from __future__ import annotations

import ctypes
import threading
from contextlib import contextmanager
from functools import cache
from pathlib import Path

import numpy as np

# The thread count is one per process, so the bookkeeping of the blocks that
# pin it is too.
_pin_lock = threading.Lock()
_pin_depth = 0  # blocks open in any thread
_pin_restore: int | None = None  # the count the last block out restores, if it pinned


@cache
def _openblas() -> ctypes.CDLL | None:
    """numpy's bundled OpenBLAS, loaded once; None where it is not found."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so*")):
        lib = ctypes.CDLL(str(path))
        lib.scipy_openblas_get_num_threads64_.argtypes = []
        lib.scipy_openblas_get_num_threads64_.restype = ctypes.c_int
        lib.scipy_openblas_set_num_threads64_.argtypes = [ctypes.c_int]
        lib.scipy_openblas_set_num_threads64_.restype = None
        lib.scipy_openblas_get_corename64_.argtypes = []
        lib.scipy_openblas_get_corename64_.restype = ctypes.c_char_p
        return lib
    return None


def _blas_threads() -> int | None:
    """Threads numpy's bundled OpenBLAS runs with; None where it is not found."""
    lib = _openblas()
    return None if lib is None else lib.scipy_openblas_get_num_threads64_()


def _blas_core() -> str | None:
    """The CPU kernel numpy's bundled OpenBLAS runs, such as "Haswell"; None where
    it is not found. Its products can round differently under another kernel."""
    lib = _openblas()
    return None if lib is None else lib.scipy_openblas_get_corename64_().decode()


@contextmanager
def _one_blas_thread():
    """Run the block with numpy's bundled OpenBLAS on one thread.

    Re-entrant and safe for concurrent callers: the count is process-wide, so
    the first block to open, in any thread, saves it and pins it to 1 (unless
    it is 1 already), and the last block to close restores it.
    """
    global _pin_depth, _pin_restore
    lib = _openblas()
    if lib is None:
        yield
        return
    with _pin_lock:
        if _pin_depth == 0:
            before = lib.scipy_openblas_get_num_threads64_()
            if before != 1:
                lib.scipy_openblas_set_num_threads64_(1)
                _pin_restore = before
        _pin_depth += 1
    try:
        yield
    finally:
        with _pin_lock:
            _pin_depth -= 1
            if _pin_depth == 0 and _pin_restore is not None:
                lib.scipy_openblas_set_num_threads64_(_pin_restore)
                _pin_restore = None
