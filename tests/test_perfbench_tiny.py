"""The benchmark's two join workloads, run tiny: the benchmark drives the
join operator's internals (``_ZoneIndex._candidates``, ``csr_off``,
``csr_val``, ``always``), so a change to them must still run, check and
trace here.

Each workload runs one pass over its input pool untraced, and two traced
(every input both ways), through ``perfbench/run.py``'s own loop; the grid
replica the traced run checks is also checked directly on the rectangle
zones, whose zonal reduce no longer calls the traced ``probe_points``.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")


@pytest.fixture(scope="module")
def perfbench():
    """perfbench's ``run`` and ``workloads`` modules, importable while the
    tests of this module run (the run imports its helpers by name)."""
    sys.path.insert(0, PERFBENCH)
    try:
        import run

        workloads, _ = run.load_engine()
        yield run, workloads
    finally:
        sys.path.remove(PERFBENCH)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", ["zonal_rect", "pairs_polygon"])
def test_tiny_run_is_correct(perfbench, name, trace, tmp_path):
    run, workloads = perfbench
    batches = workloads.POOL * (2 if trace else 1)
    metrics, header, correct, attempted, failed = run.run_workload(
        name, 3, 0, trace, tiny=True, max_batches=batches, workdir=str(tmp_path),
        import_samples=3)
    assert correct and failed == 0 and header["batches"] == batches
    assert set(metrics) == set(run.PER_LAYER if trace else run.END_TO_END)
    if trace:
        assert metrics["join.index_build_s"] > 0
        assert metrics["zonal.reduce_ms" if name == "zonal_rect" else "join.probe_ms"] > 0
    else:
        assert metrics["ok_frac"] == 1.0 and metrics["items_per_s"] > 0


@pytest.mark.parametrize("name", ["zonal_rect", "pairs_polygon"])
def test_grid_replica_mirrors_the_index(perfbench, name, tmp_path):
    _, workloads = perfbench
    w = workloads.WORKLOADS[name](3, True, str(tmp_path))
    op = w.setup()
    interior = int((op.index.csr_mid - op.index.csr_off[:-1]).sum())
    assert interior > 0
    for i in range(workloads.POOL):
        b = workloads.tiles.derive_geometry_batch(w.pool[i])
        px, py = b["lon"].to_numpy(), b["lat"].to_numpy()
        matches = op.index.probe_points(px, py, "intersects")[0].size
        assert matches > 0
        workloads.check_grid_replica(op.index, px, py, matches)
        # the raw fetch counts every entry of the points' cells
        cell = op.index._cells(px, py)
        raw = np.diff(op.index.csr_off)[cell].sum() + px.size * op.index.always.size
        assert workloads.grid_candidates(op.index, px, py) == raw
