"""Progress-reporting surface (SURVEY §2.13): the GDALProgressFunc analogue.

Reference surface: port/cpl_progress.cpp (GDALTermProgress's dotted decade
line, GDALCreateScaledProgress's sub-range wrapping) and the pfnProgress
plumbing every GDAL utility threads through its driver calls.  Ray-Data-first
re-expression: progress of a streaming Dataset cannot be observed from the
driver thread (blocks execute remotely, out of order), so the counting side
is a zero-CPU named actor that passthrough ``map_batches`` stages increment
per batch, and the reporting side is any
``callback(complete, message) -> bool`` (GDAL's exact callback signature; returning False requests cancellation —
honored at the next partition boundary in ``write_partitioned``, since a
streaming Ray Data execution cannot be safely interrupted mid-block).
"""

from __future__ import annotations

import sys

import pyarrow as pa


class TermProgress:
    """GDAL's terminal progress line: decade digits with three dots between
    (one symbol per 2.5% step), '- done.' at completion —
    port/cpl_progress.cpp:GDALTermProgress, independently re-implemented
    from its documented output format.

    >>> p = TermProgress(stream)
    >>> for f in (0.0, 0.3, 0.77, 1.0): p(f)
    0...10...20...30...40...50...60...70...80...90...100 - done.
    """

    def __init__(self, stream=None):
        self.stream = stream if stream is not None else sys.stderr
        self._tick = -1  # last printed 2.5% tick (0..40)
        self._done = False

    def __call__(self, complete: float, message: str = "") -> bool:
        complete = min(max(float(complete), 0.0), 1.0)
        tick = int(complete * 40)
        while self._tick < tick:
            self._tick += 1
            if self._tick % 4 == 0:
                self.stream.write(str(self._tick // 4 * 10))
            else:
                self.stream.write(".")
        if complete >= 1.0 and not self._done:
            self.stream.write(f" - {message or 'done'}.\n")
            self._done = True
        try:
            self.stream.flush()
        except Exception:
            pass
        return True


def scaled_progress(lo: float, hi: float, inner):
    """Sub-range wrapper (GDALCreateScaledProgress): a stage that spans
    [lo, hi] of the whole job reports its local 0..1 through ``inner``."""
    if not 0.0 <= lo <= hi <= 1.0:
        raise ValueError(f"bad progress range [{lo}, {hi}]")

    def cb(complete: float, message: str = "") -> bool:
        return inner(lo + (hi - lo) * min(max(float(complete), 0.0), 1.0),
                     message)

    return cb


def make_progress_actor():
    """Zero-CPU counter actor: stages add row counts, the driver polls
    snapshots.  num_cpus=0 so it never competes with worker slots."""
    import ray

    @ray.remote(num_cpus=0)
    class ProgressActor:
        def __init__(self):
            self._counts: dict[str, int] = {}
            self._totals: dict[str, int] = {}

        def set_total(self, stage: str, total: int) -> None:
            self._totals[stage] = int(total)

        def add(self, stage: str, n: int) -> None:
            self._counts[stage] = self._counts.get(stage, 0) + int(n)

        def snapshot(self) -> dict:
            return {"counts": dict(self._counts),
                    "totals": dict(self._totals)}

    return ProgressActor.remote()


def track_progress(ds, stage: str, actor):
    """Insert a zero-copy passthrough stage that reports each batch's row
    count to the progress actor (fire-and-forget — never blocks the
    stream).  The batch itself is returned untouched."""

    def count(t: pa.Table) -> pa.Table:
        actor.add.remote(stage, t.num_rows)
        return t

    return ds.map_batches(count, batch_format="pyarrow")
