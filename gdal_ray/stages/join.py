"""Spatial joins (intersects / within / contains) — the engine's core target.

Re-answers OGR layer algebra (Intersection/Clip/... nested-loop join with
envelope reject + prepared-geometry pretest, reference ``ogrlayer.cpp:5385``,
``5466-5543``) Ray-Data-first, in two physical plans:

1. **Broadcast join** (small polygon side — the common GDAL case): the zone
   table is ``ray.put`` once; each worker process builds a
   :class:`_ZoneIndex` (CSR grid with cells of a quarter of the median zone
   side, ~1.56x expected over-fetch and ~25 CSR entries per median zone, +
   flat polygon edge CSR) on its first batch, keeps it for later batches and
   queries (:func:`gdal_ray.state.session.map_cached`) and streams point
   batches through it with zero shuffle.  This is the 100 TB-friendly plan
   whenever the polygon side fits worker memory (millions of zones).  With
   ``zonal_reduce_col`` the operator folds each batch's matches into
   per-zone count/sum/min/max accumulators by scatter ufuncs, as GDAL's
   zonal pass does (``alg/zonal.cpp:201-208``), and ships four fixed-length
   vectors instead of the pairs.  Once its state is built the worker keeps
   its freed heap pages (:func:`gdal_ray.keep_heap_warm`), so a batch's
   temporaries reuse the previous batch's warm pages instead of faulting in
   fresh ones.

2. **Partitioned join** (both sides large): both sides are flat-mapped to
   grid-cell keys (zones duplicated over their bbox cover, points to their
   single containing cell), co-partitioned by one ``relational.cogroup`` on
   the salted cell, and probed per cell with a per-cell zone index.  A point
   lives in exactly one cell, so point x polygon pairs are emitted exactly
   once — no dedup shuffle needed (polygon x polygon joins would need the
   (l,r) first-dedup, §2.7).

Predicate semantics (GEOS/OGC, ``ogr/ogrgeometry.cpp:6009-6362``):
  - ``intersects``: boundary inclusive.  Exact for axis-aligned-rectangle
    zones via envelope test; general polygons use even-odd crossing number
    over all candidate pairs at once (``pip.points_in_edges``; boundary
    resolution = half-open rule; autotest-style off-boundary fixtures are
    used for exact assertions).
  - ``within``: point strictly in interior (rect fast path: exclusive bounds).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .. import keep_heap_warm
from ..functions import geo, pip, wkb
from ..state.session import fetch, map_cached


class _ZoneIndex:
    """CSR grid-bucket index + flat polygon edge CSR, built once per
    worker process/group.

    The probe index is a uniform lon/lat grid: each zone is registered in
    every grid cell its bbox covers (CSR layout: cell -> zone ids).  A point
    probe is then cell lookup + vectorized candidate gather + exact test —
    O(candidates), no tree descent.  This beats an R-tree here because zone
    envelopes are large relative to the domain (node MBRs stop pruning), the
    precise regime GDAL's own spatial filter handles with envelope prefilter
    + prepared geometry (ogrlayer.cpp:3887-3922).

    The cell side is the median zone width (height) / ``CELL_DIVISOR``.  A
    zone of side w with uniform phase against cells of side c meets
    w/c + 1 cells per axis on average, so it is fetched over an area of
    (w + c)(h + c) and matched over w*h: an expected over-fetch of
    (1 + c/w)(1 + c/h), i.e. (1 + 1/4)^2 ~ 1.56x the matches for a median
    zone (4x at c = w), at (4 + 1)^2 = 25 CSR entries per median zone.  Each
    axis is capped at 4,096 cells (``csr_off`` <= 16.7M cells).  Zones whose
    cover exceeds ``MAX_COVER_CELLS * CELL_DIVISOR**2`` cells (the same zones,
    in median-zone units, at any divisor: near-global geometries) go to a
    small always-checked list.
    The build makes no per-zone Python object: :func:`wkb.read_rings` reads
    the rings of the whole WKB column into flat arrays, and the rectangle
    test (:meth:`_rect_like`), the boxes (when the ``minx..maxy`` columns are
    absent) and the edges of the non-rectangle zones that the exact test runs
    over (:func:`pip.edge_csr`) all come from those arrays.
    """

    MAX_COVER_CELLS = 4096  # in median-zone cells
    CELL_DIVISOR = 4  # grid cells per median zone side

    def __init__(self, zones: pa.Table):
        # one string array: emission gathers it with ``take(zidx)``
        self.zone_id = zones["zone_id"].combine_chunks().cast(pa.string())
        if "zone_key" in zones.column_names:
            self.zone_key = zones["zone_key"].to_numpy(zero_copy_only=False)
        else:
            self.zone_key = np.arange(zones.num_rows, dtype=np.int64)
        rings = wkb.read_rings(zones["wkb"])
        names = ("minx", "miny", "maxx", "maxy")
        if set(names) <= set(zones.column_names):
            cols = [zones[c].to_numpy(zero_copy_only=False) for c in names]
        else:
            cols = wkb.bboxes(zones["wkb"]).T
        # (N, 4) boxes over four contiguous columns: the probe gathers each
        # column by zone index, far cheaper than gathering (N, 4) rows
        cols = np.array(cols, dtype=np.float64)
        self.minx, self.miny, self.maxx, self.maxy = cols
        self.boxes = cols.T
        self.is_rect = self._rect_like(rings, self.boxes)
        # rectangles are decided by the envelope test and carry no edges
        self.edges = pip.edge_csr(rings.only(~self.is_rect))
        self._build_grid()

    def _build_grid(self):
        b = self.boxes
        n = len(b)
        if n == 0:
            self.nx = self.ny = 1
            self.csr_off = np.zeros(2, dtype=np.int64)
            self.csr_val = np.empty(0, dtype=np.int64)
            self.always = np.empty(0, dtype=np.int64)
            self.x0 = self.y0 = 0.0
            self.inv_dx = self.inv_dy = 1.0
            return
        self.x0, self.y0 = float(b[:, 0].min()), float(b[:, 1].min())
        x1, y1 = float(b[:, 2].max()), float(b[:, 3].max())
        # cell side = median box side / CELL_DIVISOR (see the class docstring)
        w = (np.median(b[:, 2] - b[:, 0]) or 1.0) / self.CELL_DIVISOR
        h = (np.median(b[:, 3] - b[:, 1]) or 1.0) / self.CELL_DIVISOR
        self.nx = int(np.clip((x1 - self.x0) / max(w, 1e-9), 1, 4096))
        self.ny = int(np.clip((y1 - self.y0) / max(h, 1e-9), 1, 4096))
        self.inv_dx = self.nx / max(x1 - self.x0, 1e-9)
        self.inv_dy = self.ny / max(y1 - self.y0, 1e-9)
        cx0 = np.clip(((b[:, 0] - self.x0) * self.inv_dx).astype(np.int64), 0, self.nx - 1)
        cx1 = np.clip(((b[:, 2] - self.x0) * self.inv_dx).astype(np.int64), 0, self.nx - 1)
        cy0 = np.clip(((b[:, 1] - self.y0) * self.inv_dy).astype(np.int64), 0, self.ny - 1)
        cy1 = np.clip(((b[:, 3] - self.y0) * self.inv_dy).astype(np.int64), 0, self.ny - 1)
        counts = (cx1 - cx0 + 1) * (cy1 - cy0 + 1)
        big = counts > self.MAX_COVER_CELLS * self.CELL_DIVISOR**2
        self.always = np.nonzero(big)[0].astype(np.int64)
        counts = np.where(big, 0, counts)
        total = int(counts.sum())
        zrep = np.repeat(np.arange(n, dtype=np.int64), counts)
        starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        local = np.arange(total, dtype=np.int64) - np.repeat(starts, counts)
        ncx = np.repeat(cx1 - cx0 + 1, counts)
        gx = np.repeat(cx0, counts) + local % ncx
        gy = np.repeat(cy0, counts) + local // ncx
        # one sort of the unique (cell, zone) key: cell-major, zones ascending
        key = np.sort((gy * self.nx + gx) * n + zrep)
        cell, self.csr_val = np.divmod(key, n)
        self.csr_off = np.zeros(self.nx * self.ny + 1, dtype=np.int64)
        np.cumsum(np.bincount(cell, minlength=self.nx * self.ny), out=self.csr_off[1:])

    def _candidates(self, px: np.ndarray, py: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(point_row, zone_index) candidate pairs from the grid (env-tested)."""
        n = px.size
        if n == 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        gx = np.clip(((px - self.x0) * self.inv_dx).astype(np.int64), 0, self.nx - 1)
        gy = np.clip(((py - self.y0) * self.inv_dy).astype(np.int64), 0, self.ny - 1)
        cell = gy * self.nx + gx
        rows, pos = pip.csr_expand(self.csr_off, cell)
        zidx = self.csr_val[pos]
        if self.always.size:
            rows = np.concatenate([rows, np.repeat(np.arange(n, dtype=np.int64), self.always.size)])
            zidx = np.concatenate([zidx, np.tile(self.always, n)])
        qx, qy = px[rows], py[rows]
        hit = np.flatnonzero(
            (qx >= self.minx[zidx]) & (qx <= self.maxx[zidx])
            & (qy >= self.miny[zidx]) & (qy <= self.maxy[zidx])
        )
        return rows[hit], zidx[hit]

    @staticmethod
    def _rect_like(rings: "wkb.Rings", boxes: np.ndarray) -> np.ndarray:
        """Rows that are one-ring Polygons of 5 vertices: the four distinct
        corners of their box in ring order, then the first one again."""
        out = np.zeros(rings.kind.size, dtype=bool)
        nr = np.diff(rings.row_roff)
        row = np.flatnonzero((rings.kind == wkb.POLYGON) & (nr == 1))
        v0 = rings.ring_voff[rings.row_roff[row]]
        five = rings.ring_voff[rings.row_roff[row] + 1] - v0 == 5
        row, vi = row[five], v0[five, None] + np.arange(5)
        x, y, box = rings.x[vi], rings.y[vi], boxes[row]
        hi_x, hi_y = x == box[:, 2:3], y == box[:, 3:4]
        on_box = (hi_x | (x == box[:, 0:1])) & (hi_y | (y == box[:, 1:2]))
        corner = 2 * hi_x + hi_y  # 0..3, one per box corner
        # consecutive corners differ in one coordinate: never a diagonal step
        step = corner[:, :4] ^ corner[:, 1:]
        out[row] = (on_box.all(axis=1) & (corner[:, 4] == corner[:, 0])
                    & (np.bitwise_or.reduce(1 << corner[:, :4], axis=1) == 15)
                    & (step != 3).all(axis=1))
        return out

    def probe_points(
        self, px: np.ndarray, py: np.ndarray, predicate: str
    ) -> tuple[np.ndarray, np.ndarray]:
        """(point_row, zone_index) matching pairs under the predicate."""
        rows, zidx = self._candidates(px, py)
        if predicate == "within":
            # strict interior: envelope candidates on the boundary drop out
            qx, qy = px[rows], py[rows]
            keep = (
                (qx > self.minx[zidx]) & (qx < self.maxx[zidx])
                & (qy > self.miny[zidx]) & (qy < self.maxy[zidx])
            )
        elif self.is_rect.all():
            # the envelope test has decided every pair
            return rows, zidx
        else:
            keep = np.ones(rows.size, dtype=bool)
        # general polygons: one crossing-number pass over all their pairs
        gen = np.nonzero(keep & ~self.is_rect[zidx])[0]
        if gen.size:
            keep[gen] = pip.points_in_edges(px[rows[gen]], py[rows[gen]], zidx[gen], self.edges)
        return rows[keep], zidx[keep]


class BroadcastPointJoin:
    """Stream point batches against a broadcast zone index.

    State (zone table fetch + columnar ring read + grid and edge CSR build)
    happens ONCE per worker process in ``__init__`` (the PROJ-TLS-context
    pattern, ``ogr/ogr_proj_p.cpp:268``), which ends by switching the process to
    keep its freed heap (:func:`gdal_ray.keep_heap_warm`); ``__call__`` is
    pure vectorized probing.
    """

    def __init__(
        self,
        zones_ref,
        predicate: str = "intersects",
        id_col: str = "doc_id",
        lon_col: str = "lon",
        lat_col: str = "lat",
        emit_cols: tuple = (),
        emit_zone_index: bool = False,
        zonal_reduce_col: str | None = None,
        anti: bool = False,
    ):
        # anti=True: emit points matching NO zone (spatial NOT EXISTS — the
        # point-layer Erase analogue, ogrlayer.cpp:6770 Identity/Erase family)
        self.anti = anti
        self.emit_zone_index = emit_zone_index
        # aggregate pushdown (GDAL zonal RASTER_SEQUENTIAL analogue,
        # alg/zonal.cpp:201-208): when set, __call__ reduces each batch's
        # matches to fixed-length per-zone count/sum/min/max vectors instead
        # of materializing O(pairs) rows through the object store
        self.zonal_reduce_col = zonal_reduce_col
        self.index = _ZoneIndex(fetch(zones_ref))
        self.predicate = predicate
        self.id_col = id_col
        self.lon_col = lon_col
        self.lat_col = lat_col
        self.emit_cols = emit_cols
        keep_heap_warm()

    def __call__(self, batch: pa.Table) -> pa.Table:
        px = batch[self.lon_col].to_numpy(zero_copy_only=False)
        py = batch[self.lat_col].to_numpy(zero_copy_only=False)
        rows, zidx = self.index.probe_points(px, py, self.predicate)
        if self.anti:
            mask = np.ones(batch.num_rows, dtype=bool)
            mask[rows] = False
            out = {self.id_col: batch[self.id_col].filter(pa.array(mask))}
            for c in self.emit_cols:
                out[c] = batch[c].filter(pa.array(mask))
            return pa.table(out)
        if self.zonal_reduce_col is not None:
            return self._zonal_reduce(batch, rows, zidx)
        out = {self.id_col: batch[self.id_col].take(pa.array(rows))}
        if self.emit_zone_index:
            # int index instead of string id: cheaper across downstream
            # shuffles; resolve to zone_id at the consumer
            out["zone_idx"] = pa.array(zidx.astype(np.int32))
        else:
            out["zone_id"] = self.index.zone_id.take(zidx)
        for c in self.emit_cols:
            out[c] = batch[c].take(pa.array(rows))
        return pa.table(out)

    def _zonal_reduce(self, batch: pa.Table, rows: np.ndarray, zidx: np.ndarray) -> pa.Table:
        """Per-zone count/sum/min/max of the batch's matches, scattered in
        one pass into flat per-zone accumulators (GDAL's zonal pass,
        alg/zonal.cpp:201-208; Raptor's per-polygon accumulators): no sort
        of the (zone, row) pairs.  Sums are integer-exact int64 and wrap on
        overflow, as ``np.add.at`` does; float64 weights would lose
        exactness above 2^53.  ``ufunc.at`` has a fast path from numpy
        1.25.  Unhit zones keep count 0 and the int64 max/min sentinels."""
        n_zones = len(self.index.zone_id)
        cnt = np.bincount(zidx, minlength=n_zones).astype(np.int64, copy=False)
        sm = np.zeros(n_zones, dtype=np.int64)
        mn = np.full(n_zones, np.iinfo(np.int64).max, dtype=np.int64)
        mx = np.full(n_zones, np.iinfo(np.int64).min, dtype=np.int64)
        if zidx.size:
            col = batch[self.zonal_reduce_col].to_numpy(zero_copy_only=False)
            v = col[rows].astype(np.int64)
            np.add.at(sm, zidx, v)
            np.minimum.at(mn, zidx, v)
            np.maximum.at(mx, zidx, v)
        return pa.table(
            {
                "cnt": pa.array([cnt.tobytes()], pa.binary()),
                "sm": pa.array([sm.tobytes()], pa.binary()),
                "mn": pa.array([mn.tobytes()], pa.binary()),
                "mx": pa.array([mx.tobytes()], pa.binary()),
            }
        )


def broadcast_spatial_join(
    points_ds,
    zones: pa.Table,
    predicate: str = "intersects",
    id_col: str = "doc_id",
    batch_size: int = 65536,
    emit_cols: tuple = (),
    emit_zone_index: bool = False,
    zonal_reduce_col: str | None = None,
    anti: bool = False,
):
    """Plan 1: broadcast the zone table, stream the points.  Zero shuffle."""
    import ray

    return map_cached(
        points_ds, BroadcastPointJoin, ray.put(zones), predicate, id_col, "lon", "lat",
        emit_cols, emit_zone_index, zonal_reduce_col, anti,
        batch_format="pyarrow", batch_size=batch_size)


# ---------------------------------------------------------------------------
# Plan 2: partitioned join (both sides large)
# ---------------------------------------------------------------------------


def _zone_cell_expansion(batch: pa.Table, res: int, salts: dict | None) -> pa.Table:
    """flat_map zones over their bbox cell cover (x salt replicas for hot cells)."""
    minx = batch["minx"].to_numpy(zero_copy_only=False)
    miny = batch["miny"].to_numpy(zero_copy_only=False)
    maxx = batch["maxx"].to_numpy(zero_copy_only=False)
    maxy = batch["maxy"].to_numpy(zero_copy_only=False)
    rows, cells = geo.bbox_cover_cells(minx, miny, maxx, maxy, res)
    take = pa.array(rows)
    base = {
        "cell": cells,
        "salt": np.zeros(len(cells), dtype=np.int32),
        "zone_id": batch["zone_id"].take(take),
        "wkb": batch["wkb"].take(take),
        "minx": batch["minx"].take(take),
        "miny": batch["miny"].take(take),
        "maxx": batch["maxx"].take(take),
        "maxy": batch["maxy"].take(take),
    }
    tables = [pa.table(base)]
    if salts:
        # replicate zone rows into every salt bucket of hot cells
        salt_counts = np.array([salts.get(int(c), 1) for c in cells], dtype=np.int32)
        hot = np.nonzero(salt_counts > 1)[0]
        if hot.size:
            reps = salt_counts[hot] - 1
            ridx = np.repeat(hot, reps)
            starts = np.concatenate(([0], np.cumsum(reps)[:-1]))
            extra = {k: v[ridx] if isinstance(v, np.ndarray) else v.take(pa.array(ridx))
                     for k, v in base.items()}
            extra["salt"] = (np.arange(reps.sum()) - np.repeat(starts, reps) + 1).astype(np.int32)
            tables.append(pa.table(extra))
    return pa.concat_tables(tables)


def _point_cell_tag(batch: pa.Table, res: int, salts: dict | None, id_col: str) -> pa.Table:
    lon = batch["lon"].to_numpy(zero_copy_only=False)
    lat = batch["lat"].to_numpy(zero_copy_only=False)
    cells = geo.point_cells(lon, lat, res)
    if salts:
        salt_counts = np.array([salts.get(int(c), 1) for c in cells], dtype=np.int64)
        from ..sources.synthetic import doc_id_to_key

        try:
            keys = doc_id_to_key(batch[id_col])
        except Exception:
            keys = np.arange(len(cells), dtype=np.int64)
        salt = (keys % salt_counts).astype(np.int32)
    else:
        salt = np.zeros(len(cells), dtype=np.int32)
    return pa.table(
        {
            "cell": cells,
            "salt": salt,
            "doc_id": batch[id_col],
            "lon": batch["lon"],
            "lat": batch["lat"],
        }
    )


def compute_hot_cells(
    points_ds, res: int, hot_threshold: int = 200_000, max_salt: int = 32
) -> dict:
    """Pre-pass count sketch: cells whose point count exceeds the threshold get
    a salt factor (SURVEY §4 skew row).  The result is tiny (only hot cells)
    and is broadcast to both flat_map stages."""

    def cell_counts(batch: pa.Table) -> pa.Table:
        lon = batch["lon"].to_numpy(zero_copy_only=False)
        lat = batch["lat"].to_numpy(zero_copy_only=False)
        cells, counts = np.unique(geo.point_cells(lon, lat, res), return_counts=True)
        return pa.table({"cell": cells, "n": counts})

    partials = points_ds.map_batches(cell_counts, batch_format="pyarrow")
    totals = partials.groupby("cell").sum("n").to_pandas()
    hot = totals[totals["sum(n)"] > hot_threshold]
    return {
        int(c): int(min(max_salt, max(2, n // hot_threshold + 1)))
        for c, n in zip(hot["cell"], hot["sum(n)"])
    }


def partitioned_spatial_join(
    points_ds,
    zones_ds,
    res: int = 6,
    predicate: str = "intersects",
    id_col: str = "doc_id",
    salts: dict | None = None,
):
    """Plan 2: cell-cover co-partitioned join, one ``cogroup`` on (cell, salt)."""
    from .relational import cogroup

    key = [("cell", pa.int64()), ("salt", pa.int32())]
    box = [(c, pa.float64()) for c in ("minx", "miny", "maxx", "maxy")]
    zone_side = pa.schema(key + [("zone_id", pa.string()), ("wkb", pa.binary())] + box)
    doc_id = points_ds.schema().base_schema.field(id_col).type
    point_side = pa.schema(key + [("doc_id", doc_id), ("lon", pa.float64()),
                                  ("lat", pa.float64())])

    def join_group(zones: pa.Table, pts: pa.Table) -> pa.Table:
        if zones.num_rows == 0 or pts.num_rows == 0:
            return pa.table({"doc_id": pa.array([], pa.string()), "zone_id": pa.array([], pa.string())})
        index = _ZoneIndex(zones)
        px = pts["lon"].to_numpy(zero_copy_only=False)
        py = pts["lat"].to_numpy(zero_copy_only=False)
        rows, zidx = index.probe_points(px, py, predicate)
        return pa.table(
            {
                "doc_id": pts["doc_id"].take(pa.array(rows)),
                "zone_id": index.zone_id.take(zidx),
            }
        )

    zones_tagged = zones_ds.map_batches(
        lambda b: _zone_cell_expansion(b, res, salts), batch_format="pyarrow"
    )
    points_tagged = points_ds.map_batches(
        lambda b: _point_cell_tag(b, res, salts, id_col), batch_format="pyarrow"
    )
    return cogroup([(zones_tagged, zone_side), (points_tagged, point_side)],
                   ["cell", "salt"], join_group)
