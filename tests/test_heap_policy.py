"""The allocator policy of ``gdal_ray`` (its module docstring): after import a
freed large numpy temporary goes back to the OS; after ``keep_heap_warm`` it
stays on the heap, and building a ``BroadcastPointJoin`` switches to that.

glibc's ``mallinfo2().keepcost`` is the free space at the top of the heap,
the part ``free`` would trim.  Each check runs in a fresh interpreter, since
the policy is process-wide and the order of tests must not change it.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

_PRELUDE = """
import ctypes
import numpy as np

class MallInfo2(ctypes.Structure):
    _fields_ = [(n, ctypes.c_size_t) for n in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks",
        "fsmblks", "uordblks", "fordblks", "keepcost")]

libc = ctypes.CDLL("libc.so.6")
libc.mallinfo2.restype = MallInfo2

def kept_mib():
    tmp = np.ones(64 << 20, np.uint8)  # a 64 MiB batch temporary
    del tmp
    return libc.mallinfo2().keepcost >> 20

import gdal_ray
"""


def _run(body: str) -> list:
    out = subprocess.run([sys.executable, "-c", _PRELUDE + body], cwd=ROOT, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    return [int(x) for x in out.split()]


def _has_mallinfo2() -> bool:
    try:
        import ctypes

        return hasattr(ctypes.CDLL("libc.so.6"), "mallinfo2")
    except OSError:
        return False


pytestmark = pytest.mark.skipif(not _has_mallinfo2(), reason="needs glibc >= 2.33")


def test_keep_heap_warm_keeps_freed_temporaries():
    before, after = _run("print(kept_mib()); gdal_ray.keep_heap_warm(); print(kept_mib())")
    assert before < 1  # trimmed: handed back to the OS
    assert after >= 63  # kept at the heap top for the next batch


def test_broadcast_join_construction_keeps_heap_warm():
    before, after = _run(
        "from gdal_ray.sources import synthetic\n"
        "from gdal_ray.stages.join import BroadcastPointJoin\n"
        "print(kept_mib())\n"
        "BroadcastPointJoin(synthetic.make_rect_zones(np.arange(50, dtype=np.int64)),\n"
        "                   zonal_reduce_col='v')\n"
        "print(kept_mib())\n"
    )
    assert before < 1 and after >= 63
