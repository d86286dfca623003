"""gdal_ray: Ray-Data-native spatial-join + tiling engine.

Allocator policy, in two steps.  On this engine's hosts, faulting fresh
pages costs far more than reusing warm ones, and glibc malloc hands pages
back to the kernel eagerly, so a vectorized op re-faults its temporaries on
every batch unless told otherwise.

1. At import (:func:`_tune_allocator`), ``M_MMAP_THRESHOLD`` goes to 1 GiB,
   so large numpy temporaries come from the heap's free lists instead of
   fresh ``mmap`` regions that ``free`` unmaps.  It runs at import so both
   the driver and every Ray worker (which imports this package when it
   deserializes a stage callable) get it.
2. Once a stage's per-process state is built, the stage calls
   :func:`keep_heap_warm`: ``malloc_trim(0)`` returns the state build's
   garbage to the OS, then ``M_TRIM_THRESHOLD`` goes to 1 GiB, so a freed
   batch temporary at the heap top stays resident for the next batch.  It
   waits for the state to be built because from then on nothing freed is
   handed back: switched on at import, every process would keep its peak
   heap (the driver's input generation, a decode's scratch) for good.
"""

from __future__ import annotations

import os

_HEAP_KEEP = 1 << 30  # bytes: mmap and trim thresholds
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _glibc():
    """glibc's allocator controls through ctypes, or None on another
    platform."""
    try:
        import ctypes

        libc = ctypes.CDLL("libc.so.6", use_errno=True)
        libc.mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
        libc.malloc_trim.argtypes = [ctypes.c_size_t]
        libc.mallopt.restype = libc.malloc_trim.restype = ctypes.c_int
    except (OSError, AttributeError):
        return None
    return libc


_LIBC = _glibc()


def _tune_allocator() -> None:
    os.environ.setdefault("MALLOC_MMAP_THRESHOLD_", str(_HEAP_KEEP))
    if _LIBC is not None:  # else the env var above still helps children
        _LIBC.mallopt(_M_MMAP_THRESHOLD, _HEAP_KEEP)


def keep_heap_warm() -> None:
    """Return freed heap to the OS once, then keep what is freed from now
    on (step 2 of the module docstring).  Call it as the last step of a
    worker-cached operator's ``__init__``."""
    if _LIBC is not None:
        _LIBC.malloc_trim(0)
        _LIBC.mallopt(_M_TRIM_THRESHOLD, _HEAP_KEEP)


_tune_allocator()
