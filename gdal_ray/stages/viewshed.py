"""Viewshed (line-of-sight visibility from an observer).

Reference: ``alg/viewshed/*`` (~2.5 kLoC).  Round-1 scope: the observer's
tile neighborhood is assembled per task (the observer and its visibility
radius must fit one worker's window — the common interactive case); the
fully-distributed ray-partitioned variant is future work (STATUS.md).

Algorithm: exact per-pixel line-of-sight — for every target pixel, elevations
are sampled along the ray to the observer (vectorized over all pixels x ray
steps) and the target is visible iff its elevation angle exceeds every
intermediate sample's angle.  This is the R3 "exact" formulation the
reference's R2/XDraw variants approximate.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..functions.tilerow import pixels
from ..state.session import fetch, map_cached


def viewshed_array(dem: np.ndarray, ox: int, oy: int, observer_height: float = 0.0,
                   n_steps: int | None = None, mode: str = "normal") -> np.ndarray:
    """Visibility of every cell from observer at (col=ox, row=oy).

    Vectorized R3: elevations along each target's ray are sampled at
    ~unit-pixel spacing with bilinear interpolation; a cell is visible iff
    its sight-line clears all interior samples.

    ``mode`` re-answers gdal_viewshed's output modes
    (alg/viewshed/viewshed_executor.cpp:228 setOutputNormal):
      - "normal": boolean visibility mask
      - "dem":    minimum elevation the cell must have to be visible
                  (max(cell, required sight-line height))
      - "ground": extra height above ground needed (max(0, required - cell))
    """
    h, w = dem.shape
    gy, gx = np.mgrid[0:h, 0:w]
    dx = gx - ox
    dy = gy - oy
    dist = np.hypot(dx, dy)
    obs_z = dem[oy, ox] + observer_height
    n = n_steps or int(np.ceil(dist.max())) + 1
    if n < 2:
        if mode == "normal":
            return np.ones((h, w), dtype=bool)
        return dem.astype(np.float64) if mode == "dem" else np.zeros((h, w))
    with np.errstate(divide="ignore", invalid="ignore"):
        tgt_slope = (dem - obs_z) / np.where(dist == 0, 1.0, dist)
    # iterate over ray steps with an O(H x W) running max-slope accumulator —
    # never materializing the (n_steps, H, W) stack (which for a 512x512
    # window would be tens of GB)
    max_slope = np.full((h, w), -np.inf)
    for step in range(1, n):
        t = step / n
        sx = ox + t * dx
        sy = oy + t * dy
        # bilinear sample of the DEM at (sx, sy)
        x0 = np.clip(np.floor(sx).astype(np.int64), 0, w - 2)
        y0 = np.clip(np.floor(sy).astype(np.int64), 0, h - 2)
        fx = np.clip(sx - x0, 0.0, 1.0)
        fy = np.clip(sy - y0, 0.0, 1.0)
        z = (
            dem[y0, x0] * (1 - fx) * (1 - fy)
            + dem[y0, x0 + 1] * fx * (1 - fy)
            + dem[y0 + 1, x0] * (1 - fx) * fy
            + dem[y0 + 1, x0 + 1] * fx * fy
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            samp_slope = (z - obs_z) / (t * dist + 1e-300)
        # only samples strictly interior to the sight line count
        np.maximum(max_slope, np.where(t * dist < dist - 1e-9, samp_slope, -np.inf),
                   out=max_slope)
    if mode == "normal":
        # a sample exactly ON the target's own sight line has equal slope; a
        # tiny tolerance keeps the target from occluding itself
        vis = ~(max_slope > tgt_slope + 1e-12)
        vis[oy, ox] = True
        return vis
    # required sight-line height at the cell (cells with no interior sample —
    # the observer and its 8 neighbors — need nothing)
    with np.errstate(invalid="ignore"):
        req = np.where(max_slope > -np.inf, obs_z + max_slope * dist, -np.inf)
    if mode == "dem":
        return np.maximum(dem.astype(np.float64), req)
    if mode == "ground":
        return np.maximum(0.0, req - dem)
    raise ValueError(mode)


def viewshed_radius(tiles_ds, observer_x: int, observer_y: int,
                    radius: int, observer_height: float = 0.0,
                    tile_size: int = 64, nodata: float = 0.0):
    """Multi-tile viewshed: every tile intersecting the observer's radius
    window ships to ONE group, the window mosaic is assembled there, and the
    O(H x W)-memory LOS sweep runs over it (closes the round-1 single-tile
    scope).  Partitioning assumption (documented): the (2R)^2 window fits a
    worker — the same bound the reference's per-analysis raster holds; a
    truly window-exceeding viewshed would partition rays by angular sector.

    Returns one row: global window origin + visibility mask + n_visible."""
    x_lo, x_hi = observer_x - radius, observer_x + radius + 1
    y_lo, y_hi = observer_y - radius, observer_y + radius + 1

    def pick(batch: pa.Table) -> pa.Table:
        rows = []
        for i in range(batch.num_rows):
            w = batch["width"][i].as_py()
            h = batch["height"][i].as_py()
            gx0 = batch["x"][i].as_py() * tile_size
            gy0 = batch["y"][i].as_py() * tile_size
            if gx0 + w <= x_lo or gx0 >= x_hi or gy0 + h <= y_lo or gy0 >= y_hi:
                continue
            rows.append({"grp": 0, **{c: batch[c][i].as_py() for c in batch.column_names}})
        return pa.Table.from_pylist(rows) if rows else pa.table(
            {"grp": pa.array([], pa.int64())}
        )

    picked = tiles_ds.map_batches(pick, batch_format="pyarrow")

    def run(group: pa.Table) -> pa.Table:
        W = x_hi - x_lo
        H = y_hi - y_lo
        dem = np.full((H, W), nodata, dtype=np.float64)
        for i in range(group.num_rows):
            w = group["width"][i].as_py()
            h = group["height"][i].as_py()
            gx0 = group["x"][i].as_py() * tile_size
            gy0 = group["y"][i].as_py() * tile_size
            arr = pixels(group, i)
            sx0, sy0 = max(x_lo, gx0), max(y_lo, gy0)
            sx1, sy1 = min(x_hi, gx0 + w), min(y_hi, gy0 + h)
            dem[sy0 - y_lo : sy1 - y_lo, sx0 - x_lo : sx1 - x_lo] = (
                arr[sy0 - gy0 : sy1 - gy0, sx0 - gx0 : sx1 - gx0]
            )
        vis = viewshed_array(dem, observer_x - x_lo, observer_y - y_lo, observer_height)
        return pa.table(
            {"x0": pa.array([x_lo], pa.int64()), "y0": pa.array([y_lo], pa.int64()),
             "width": pa.array([W], pa.int32()), "height": pa.array([H], pa.int32()),
             "n_visible": pa.array([int(vis.sum())], pa.int64()),
             "data": pa.array([vis.astype(np.uint8).tobytes()], pa.binary())}
        )

    return picked.groupby("grp").map_groups(run, batch_format="pyarrow")


def viewshed(tiles_ds, observer_x: int, observer_y: int, observer_height: float = 0.0,
             tile_size: int | None = None, mode: str = "normal"):
    """Per-tile viewshed: each tile whose pixel grid contains the observer
    computes visibility inside itself (observer given in GLOBAL pixel
    coordinates; round-1 scope: observer inside the tile).

    ``tile_size``: the nominal (grid-pitch) tile size — REQUIRED for mosaics
    with partial edge tiles, where a tile's own width/height is not the global
    pitch; defaults to each tile's own size (single-tile / uniform case).

    ``mode``: gdal_viewshed output mode — "normal" (visibility mask; n_visible
    = visible cells), "dem" (minimum visible elevation; n_visible = cells that
    must be RAISED to see the observer) or "ground" (extra height above
    ground; n_visible = cells needing any extra height).  ``sum_x1000`` is the
    half-up-rounded integer sum of the output raster (the conformance golden
    for the float modes)."""

    def per_tile(batch: pa.Table) -> pa.Table:
        rows = []
        for i in range(batch.num_rows):
            h = batch["height"][i].as_py()
            w = batch["width"][i].as_py()
            tx = batch["x"][i].as_py()
            ty = batch["y"][i].as_py()
            lx = observer_x - tx * (tile_size or w)
            ly = observer_y - ty * (tile_size or h)
            if not (0 <= lx < w and 0 <= ly < h):
                continue
            dem = pixels(batch, i).astype(np.float64)
            res = viewshed_array(dem, lx, ly, observer_height, mode=mode)
            if mode == "normal":
                n_stat = int(res.sum())
                data = res.astype(np.uint8).tobytes()
                valf = res.astype(np.float64)
            else:
                n_stat = int((res > dem).sum()) if mode == "dem" else int((res > 0).sum())
                data = res.tobytes()
                valf = res
            rows.append(
                {"x": tx, "y": ty, "width": w, "height": h,
                 "n_visible": n_stat,
                 "sum_x1000": int(np.floor(valf * 1000.0 + 0.5).sum()),
                 "data": data}
            )
        return pa.Table.from_pylist(rows) if rows else pa.table(
            {"x": pa.array([], pa.int32()), "y": pa.array([], pa.int32()),
             "width": pa.array([], pa.int32()), "height": pa.array([], pa.int32()),
             "n_visible": pa.array([], pa.int64()),
             "sum_x1000": pa.array([], pa.int64()), "data": pa.array([], pa.binary())}
        )

    return tiles_ds.map_batches(per_tile, batch_format="pyarrow")


def _sector_bbox(ox: int, oy: int, radius: int, a0: float, a1: float):
    """Integer bbox of the wedge {angle in [a0,a1], dist <= radius} from the
    observer, +1 px margin for the bilinear stencil."""
    pts_x = [0.0, radius * np.cos(a0), radius * np.cos(a1)]
    pts_y = [0.0, radius * np.sin(a0), radius * np.sin(a1)]
    for axis_a, px, py in ((0.0, radius, 0), (np.pi / 2, 0, radius),
                           (np.pi, -radius, 0), (3 * np.pi / 2, 0, -radius)):
        if a0 <= axis_a <= a1:
            pts_x.append(float(px))
            pts_y.append(float(py))
    x_lo = int(np.floor(min(pts_x))) - 1 + ox
    x_hi = int(np.ceil(max(pts_x))) + 1 + ox
    y_lo = int(np.floor(min(pts_y))) - 1 + oy
    y_hi = int(np.ceil(max(pts_y))) + 1 + oy
    return x_lo, x_hi, y_lo, y_hi


def viewshed_sectors(tiles_ds, observer_x: int, observer_y: int, radius: int,
                     n_sectors: int = 8, observer_height: float = 0.0,
                     tile_size: int = 64, nodata: float = 0.0):
    """Ray-partitioned viewshed (the fully-distributed variant beyond
    viewshed_radius's one-window scope): every target cell of the radius disc
    is assigned to ONE angular sector by atan2; each sector worker assembles
    only the wedge's bounding-box sub-DEM (+1 px bilinear margin) and runs
    the same R3 max-slope sweep with the GLOBAL step count, so per-cell
    results equal the monolithic window run exactly (rays from the observer
    stay inside their convex wedge, and every bilinear stencil read is
    interior to the margin-expanded bbox).

    Partitioning assumption (documented): one wedge bbox — about (R+1)^2/2
    cells at n_sectors=8, vs (2R)^2 for the full window — fits a worker;
    tiles replicate only to the sectors whose bbox they intersect.

    Returns per sector: (sector, x0, y0, width, height, n_cells, n_visible,
    data) where data is the uint8 visibility mask of the bbox with cells
    OUTSIDE the sector's disc wedge zeroed (so sector masks OR together into
    the disc's visibility)."""
    S = n_sectors
    if S < 4:
        raise ValueError("n_sectors must be >= 4 (wedges must stay convex)")
    wsec = 2 * np.pi / S
    win_lo_x, win_hi_x = observer_x - radius, observer_x + radius
    win_lo_y, win_hi_y = observer_y - radius, observer_y + radius
    n_global = int(np.ceil(np.hypot(radius, radius))) + 1
    boxes = []
    for k in range(S):
        x0, x1, y0, y1 = _sector_bbox(observer_x, observer_y, radius,
                                      k * wsec, (k + 1) * wsec)
        boxes.append((max(x0, win_lo_x), min(x1, win_hi_x),
                      max(y0, win_lo_y), min(y1, win_hi_y)))

    def ship(batch: pa.Table) -> pa.Table:
        rows = []
        for i in range(batch.num_rows):
            w = batch["width"][i].as_py()
            h = batch["height"][i].as_py()
            gx0 = batch["x"][i].as_py() * tile_size
            gy0 = batch["y"][i].as_py() * tile_size
            for k, (x0, x1, y0, y1) in enumerate(boxes):
                if gx0 + w <= x0 or gx0 > x1 or gy0 + h <= y0 or gy0 > y1:
                    continue
                rows.append({"sector": k,
                             **{c: batch[c][i].as_py() for c in batch.column_names}})
        return pa.Table.from_pylist(rows) if rows else pa.table(
            {"sector": pa.array([], pa.int64())})

    shipped = tiles_ds.map_batches(ship, batch_format="pyarrow")

    def run(group: pa.Table) -> pa.Table:
        k = group["sector"][0].as_py()
        x0, x1, y0, y1 = boxes[k]
        W = x1 - x0 + 1
        H = y1 - y0 + 1
        dem = np.full((H, W), nodata, dtype=np.float64)
        for i in range(group.num_rows):
            w = group["width"][i].as_py()
            h = group["height"][i].as_py()
            gx0 = group["x"][i].as_py() * tile_size
            gy0 = group["y"][i].as_py() * tile_size
            arr = pixels(group, i)
            sx0, sy0 = max(x0, gx0), max(y0, gy0)
            sx1, sy1 = min(x1 + 1, gx0 + w), min(y1 + 1, gy0 + h)
            if sx1 <= sx0 or sy1 <= sy0:
                continue
            dem[sy0 - y0:sy1 - y0, sx0 - x0:sx1 - x0] = (
                arr[sy0 - gy0:sy1 - gy0, sx0 - gx0:sx1 - gx0])
        vis = viewshed_array(dem, observer_x - x0, observer_y - y0,
                             observer_height, n_steps=n_global)
        gy, gx = np.mgrid[y0:y1 + 1, x0:x1 + 1]
        dx = (gx - observer_x).astype(np.float64)
        dy = (gy - observer_y).astype(np.float64)
        dist = np.sqrt(dx * dx + dy * dy)
        theta = np.arctan2(dy, dx)
        theta = np.where(theta < 0, theta + 2 * np.pi, theta)
        sec = np.clip(np.floor(theta / wsec).astype(np.int64), 0, S - 1)
        mine = (dist <= radius) & (sec == k)
        out = vis & mine
        return pa.table(
            {"sector": pa.array([k], pa.int64()),
             "x0": pa.array([x0], pa.int64()), "y0": pa.array([y0], pa.int64()),
             "width": pa.array([W], pa.int32()), "height": pa.array([H], pa.int32()),
             "n_cells": pa.array([int(mine.sum())], pa.int64()),
             "n_visible": pa.array([int(out.sum())], pa.int64()),
             "data": pa.array([out.astype(np.uint8).tobytes()], pa.binary())}
        )

    return shipped.groupby("sector").map_groups(run, batch_format="pyarrow")


class _CumulativeExecutor:
    """Holds the (broadcast) DEM once per worker process; each call scores
    a BATCH of observers and returns ONE partial count raster — the
    reference's executor/combiner split (alg/viewshed/cumulative.cpp:36-90
    observer queue -> normal-mode executors with visibleVal=1 -> summing
    combiners) re-expressed as a map_batches with per-batch partials."""

    def __init__(self, dem_ref, observer_height: float = 0.0):
        self.dem = fetch(dem_ref)
        self.oh = float(observer_height)

    def __call__(self, batch: pa.Table) -> pa.Table:
        acc = np.zeros(self.dem.shape, dtype=np.int64)
        ox = batch["ox"].to_numpy(zero_copy_only=False)
        oy = batch["oy"].to_numpy(zero_copy_only=False)
        for i in range(len(ox)):
            acc += viewshed_array(self.dem, int(ox[i]), int(oy[i]), self.oh)
        h, w = acc.shape
        return pa.table({"n_observers": pa.array([len(ox)], pa.int64()),
                         "height": pa.array([h], pa.int32()),
                         "width": pa.array([w], pa.int32()),
                         "counts": pa.array([acc.tobytes()], pa.binary())})


def viewshed_cumulative(dem: np.ndarray, spacing: int,
                        observer_height: float = 0.0,
                        batch_size: int = 4):
    """Cumulative viewshed (gdal_viewshed -mode cumulative,
    alg/viewshed/cumulative.cpp): observers on a ``spacing`` grid each run
    a normal-mode viewshed and the visibility masks SUM into an
    observability heat map.

    Ray shape: the observer grid is a Dataset fanned over tasks that hold
    the broadcast DEM once per worker process; each batch returns one partial count raster
    and the driver folds O(n_batches) partials (bounded by ceil(observers /
    batch_size)).  At continental scale the DEM tiles and each observer's
    disc is radius-bounded, so partials become tile-keyed rows through a
    groupby instead — this whole-raster fold is the single-DEM path.

    Returns the int64 heat map (count of observers seeing each cell)."""
    import ray
    import ray.data as rd

    h, w = dem.shape
    oys, oxs = np.mgrid[0:h:spacing, 0:w:spacing]
    obs = pa.table({"ox": pa.array(oxs.ravel().astype(np.int64)),
                    "oy": pa.array(oys.ravel().astype(np.int64))})
    parts = map_cached(
        rd.from_arrow(obs).repartition(target_num_rows_per_block=batch_size),
        _CumulativeExecutor, ray.put(np.ascontiguousarray(dem)), observer_height,
        batch_size=batch_size, batch_format="pyarrow")
    heat = np.zeros((h, w), dtype=np.int64)
    # streaming fold: driver holds the heat raster + ONE partial at a time
    # (iter_rows, not take_all — O(h*w) driver memory regardless of batches)
    for row in parts.iter_rows():
        heat += np.frombuffer(row["counts"], np.int64).reshape(
            row["height"], row["width"])
    return heat


class _CumulativeTileExecutor:
    """Per-observer viewshed split into tile-keyed partial fragments —
    the object store carries O(observers x tiles-touched) tile rows, never
    a whole-raster partial (the 100 TB shape of cumulative.cpp)."""

    def __init__(self, dem_ref, observer_height: float, tile: int,
                 radius: int | None):
        self.dem = fetch(dem_ref)
        self.oh = float(observer_height)
        self.tile = int(tile)
        self.radius = radius

    def __call__(self, batch: pa.Table) -> pa.Table:
        h, w = self.dem.shape
        ts = self.tile
        ox = batch["ox"].to_numpy(zero_copy_only=False)
        oy = batch["oy"].to_numpy(zero_copy_only=False)
        # accumulate across the batch per tile before emitting (combiner)
        acc: dict[tuple[int, int], np.ndarray] = {}
        for i in range(len(ox)):
            x0, y0 = int(ox[i]), int(oy[i])
            if self.radius is None:
                wy0, wy1, wx0, wx1 = 0, h, 0, w
            else:
                r = int(self.radius)
                wy0, wy1 = max(0, y0 - r), min(h, y0 + r + 1)
                wx0, wx1 = max(0, x0 - r), min(w, x0 + r + 1)
            vs = viewshed_array(self.dem[wy0:wy1, wx0:wx1],
                                x0 - wx0, y0 - wy0, self.oh)
            ty0, ty1 = wy0 // ts, (wy1 - 1) // ts
            tx0, tx1 = wx0 // ts, (wx1 - 1) // ts
            for ty in range(ty0, ty1 + 1):
                for tx in range(tx0, tx1 + 1):
                    gy0, gy1 = max(wy0, ty * ts), min(wy1, (ty + 1) * ts)
                    gx0, gx1 = max(wx0, tx * ts), min(wx1, (tx + 1) * ts)
                    frag = vs[gy0 - wy0:gy1 - wy0, gx0 - wx0:gx1 - wx0]
                    if not frag.any():
                        continue
                    th = min(ts, h - ty * ts)
                    tw = min(ts, w - tx * ts)
                    a = acc.setdefault((tx, ty),
                                       np.zeros((th, tw), np.int64))
                    a[gy0 - ty * ts:gy1 - ty * ts,
                      gx0 - tx * ts:gx1 - tx * ts] += frag
        rows = [{"tx": tx, "ty": ty, "height": a.shape[0],
                 "width": a.shape[1], "counts": a.tobytes()}
                for (tx, ty), a in acc.items()]
        if not rows:
            return pa.table({"tx": pa.array([], pa.int64()),
                             "ty": pa.array([], pa.int64()),
                             "height": pa.array([], pa.int32()),
                             "width": pa.array([], pa.int32()),
                             "counts": pa.array([], pa.binary())})
        return pa.Table.from_pylist(rows)


def viewshed_cumulative_tiles(dem: np.ndarray, spacing: int,
                              observer_height: float = 0.0,
                              radius: int | None = None, tile: int = 128,
                              batch_size: int = 4):
    """Cumulative viewshed as a TILE Dataset (the default scale path,
    replacing the whole-raster driver fold): observers fan over tasks, each
    batch emits per-tile count fragments (radius-bounded when
    ``radius`` is set), and a (tx, ty) groupby sums fragments into final
    heat tiles.  The driver never materializes the raster; rows are
    O(tiles)."""
    import ray
    import ray.data as rd

    h, w = dem.shape
    oys, oxs = np.mgrid[0:h:spacing, 0:w:spacing]
    obs = pa.table({"ox": pa.array(oxs.ravel().astype(np.int64)),
                    "oy": pa.array(oys.ravel().astype(np.int64))})
    frags = map_cached(
        rd.from_arrow(obs).repartition(target_num_rows_per_block=batch_size),
        _CumulativeTileExecutor, ray.put(np.ascontiguousarray(dem)), observer_height,
        tile, radius, batch_size=batch_size, batch_format="pyarrow")

    def fold(group: pa.Table) -> pa.Table:
        th = int(group["height"][0].as_py())
        tw = int(group["width"][0].as_py())
        a = np.zeros((th, tw), np.int64)
        for i in range(group.num_rows):
            a += np.frombuffer(group["counts"][i].as_py(),
                               np.int64).reshape(th, tw)
        return pa.table({"tx": pa.array([group["tx"][0].as_py()],
                                        pa.int64()),
                         "ty": pa.array([group["ty"][0].as_py()],
                                        pa.int64()),
                         "height": pa.array([th], pa.int32()),
                         "width": pa.array([tw], pa.int32()),
                         "counts": pa.array([a.tobytes()], pa.binary())})

    return frags.groupby(["tx", "ty"]).map_groups(
        fold, batch_format="pyarrow")


# above this many cells the whole-raster-partial fold is replaced by the
# tile-keyed plan (each partial there is O(h*w); a 10k x 10k DEM partial
# is 800 MB — the driver fold becomes the bottleneck long before that)
CUMULATIVE_TILED_THRESHOLD = 1 << 22


def viewshed_cumulative_auto(dem: np.ndarray, spacing: int,
                             observer_height: float = 0.0,
                             radius: int | None = None,
                             tile: int = 128):
    """Cumulative viewshed with automatic plan selection: small DEMs use
    the single-raster fold; above CUMULATIVE_TILED_THRESHOLD cells the
    tile-keyed groupby plan is the default and the result is assembled
    from O(tiles) rows.  Returns the int64 heat map either way."""
    h, w = dem.shape
    if h * w <= CUMULATIVE_TILED_THRESHOLD and radius is None:
        return viewshed_cumulative(dem, spacing, observer_height)
    tiles_ds = viewshed_cumulative_tiles(
        dem, spacing, observer_height, radius=radius, tile=tile)
    heat = np.zeros((h, w), dtype=np.int64)
    for row in tiles_ds.iter_rows():
        ty, tx = row["ty"], row["tx"]
        heat[ty * tile:ty * tile + row["height"],
             tx * tile:tx * tile + row["width"]] = \
            np.frombuffer(row["counts"], np.int64).reshape(
                row["height"], row["width"])
    return heat
