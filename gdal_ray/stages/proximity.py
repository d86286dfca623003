"""Proximity (Euclidean distance transform) — distributed and EXACT.

Reference: ``alg/gdalproximity.cpp`` (two-pass scanline proximity).  The
engine instead uses the separable exact EDT (Felzenszwalb & Huttenlocher,
"Distance Transforms of Sampled Functions", 2004 — public algorithm): a 1-D
vertical pass then a 1-D horizontal lower-envelope pass, which decomposes
perfectly over a tile grid as TWO keyed shuffles:

  1. ``groupby(tile_x)``: each group holds one tile COLUMN; compute per-pixel
     vertical distance to the nearest target in that full column (vectorized
     up/down sweeps).
  2. ``groupby(tile_y)``: each group holds one tile ROW of the stage-1
     output; run the parabola lower-envelope over each full pixel row.

Result is the exact Euclidean distance (in pixels) to the nearest target
pixel anywhere in the mosaic.  Each group materializes one row/column strip
(O(extent x tile) pixels) — the partitioning assumption to document: strips
must fit a worker, which holds for mosaics up to ~100k pixels on a side.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..functions.tilerow import pixels

INF = 1e18


def _vertical_pass(col_stack: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """col_stack: (H, w) values; targets boolean.  Returns vertical distance
    (in rows) to nearest target in the same pixel column, INF if none."""
    H, w = col_stack.shape
    d = np.full((H, w), INF)
    d[targets] = 0.0
    for r in range(1, H):
        d[r] = np.minimum(d[r], d[r - 1] + 1.0)
    for r in range(H - 2, -1, -1):
        d[r] = np.minimum(d[r], d[r + 1] + 1.0)
    return d


def _envelope_pass_row(f: np.ndarray) -> np.ndarray:
    """Exact 1-D squared-EDT of sampled function f (length n): D(x) =
    min_x' ((x - x')^2 + f(x')).  Felzenszwalb lower envelope, run over the
    finite support points only (columns with no target stay INF until here)."""
    n = len(f)
    pts = np.nonzero(f < INF)[0]
    if pts.size == 0:
        return np.full(n, INF)
    vals = f[pts]
    m = pts.size
    v = np.zeros(m, dtype=np.int64)
    z = np.empty(m + 1)
    z[0], z[1] = -INF, INF
    k = 0

    def sep(qi: int, pi: int) -> float:
        q, p = pts[qi], pts[pi]
        return ((vals[qi] + q * q) - (vals[pi] + p * p)) / (2.0 * q - 2.0 * p)

    for qi in range(1, m):
        s = sep(qi, v[k])
        while k > 0 and s <= z[k]:
            k -= 1
            s = sep(qi, v[k])
        k += 1
        v[k] = qi
        z[k] = s
        z[k + 1] = INF
    d = np.empty(n)
    k = 0
    for x in range(n):
        while z[k + 1] < x:
            k += 1
        p = pts[v[k]]
        d[x] = (x - p) * (x - p) + vals[v[k]]
    return d


def proximity(tiles_ds, target_value: float | None = None, nodata: float = 0.0):
    """Distance (pixels) to the nearest target pixel.  Targets are pixels
    == target_value (or != nodata when target_value is None)."""

    def tag_col(batch: pa.Table) -> pa.Table:
        return batch.append_column("col_key", batch["x"])

    cols = tiles_ds.map_batches(tag_col, batch_format="pyarrow")

    def column_pass(group: pa.Table) -> pa.Table:
        order = np.argsort(group["y"].to_numpy(zero_copy_only=False), kind="stable")
        arrs = [pixels(group, int(i)) for i in order]
        ys = [group["y"][int(i)].as_py() for i in order]
        x = group["x"][0].as_py()
        # the vstack below treats tiles as vertically adjacent: a sparse mosaic
        # (missing tile in this column) or ragged heights would silently
        # compute distances across the gap — fail loudly instead
        if ys != list(range(ys[0], ys[0] + len(ys))):
            raise ValueError(f"proximity: non-contiguous tile column x={x}: ys={ys}")
        if any(a.shape != arrs[0].shape for a in arrs):
            raise ValueError(f"proximity: ragged tile shapes in column x={x}")
        stack = np.vstack(arrs).astype(np.float64)
        targets = stack == target_value if target_value is not None else stack != nodata
        d = _vertical_pass(stack, targets)
        d2 = np.where(d >= INF, INF, d * d)
        rows = []
        h = arrs[0].shape[0]
        for j, y in enumerate(ys):
            rows.append(
                {"x": x, "y": y, "height": h, "width": arrs[0].shape[1],
                 "g2": d2[j * h : (j + 1) * h].tobytes()}
            )
        return pa.Table.from_pylist(rows)

    stage1 = cols.groupby("col_key").map_groups(column_pass, batch_format="pyarrow")

    def tag_row(batch: pa.Table) -> pa.Table:
        return batch.append_column("row_key", batch["y"])

    rows_ds = stage1.map_batches(tag_row, batch_format="pyarrow")

    def row_pass(group: pa.Table) -> pa.Table:
        order = np.argsort(group["x"].to_numpy(zero_copy_only=False), kind="stable")
        xs = [group["x"][int(i)].as_py() for i in order]
        y = group["y"][0].as_py()
        h = group["height"][0].as_py()
        w = group["width"][0].as_py()
        if xs != list(range(xs[0], xs[0] + len(xs))):
            raise ValueError(f"proximity: non-contiguous tile row y={y}: xs={xs}")
        strip = np.hstack(
            [np.frombuffer(group["g2"][int(i)].as_py(), dtype=np.float64).reshape(h, w)
             for i in order]
        )
        out = np.empty_like(strip)
        for r in range(h):
            out[r] = _envelope_pass_row(strip[r])
        dist = np.sqrt(np.where(out >= INF, np.nan, out))
        rows = []
        for j, x in enumerate(xs):
            rows.append(
                {"x": x, "y": y, "width": w, "height": h,
                 "data": np.ascontiguousarray(dist[:, j * w : (j + 1) * w]).tobytes()}
            )
        return pa.Table.from_pylist(rows)

    return rows_ds.groupby("row_key").map_groups(row_pass, batch_format="pyarrow")
