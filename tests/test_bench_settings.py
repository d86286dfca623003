"""bench.py sizes its Ray session from the host (``bench.ray_settings``,
its logical CPU count); checked without starting a session."""

import os
import subprocess
import sys

import bench

GIB = 1024**3
REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_object_store_is_a_fraction_of_memtotal():
    for mem in (15 * GIB, 64 * GIB, 512 * GIB):
        store = bench.ray_settings(4, mem)["object_store_memory"]
        assert store == int(mem * bench.OBJECT_STORE_FRACTION) and 0 < store < mem


def test_logical_cpus_default_to_the_affinity_mask():
    env = {k: v for k, v in os.environ.items() if k != "RAY_GRAFT_CPUS"}
    out = subprocess.run([sys.executable, "-c", "import bench; print(bench.NUM_CPUS)"],
                         cwd=REPO, env=env, capture_output=True, text=True, timeout=60,
                         check=True)
    assert int(out.stdout) == len(os.sched_getaffinity(0))
