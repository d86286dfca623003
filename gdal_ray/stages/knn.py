"""kNN join (points -> k nearest targets).

GDAL core has no kNN join (nearest-neighbor appears only inside gridding,
``alg/gdalgrid.cpp:905``); the north star mandates one.  Two physical plans:

1. **Broadcast brute-force** (default; targets fit memory): the target
   centroid matrix is ``ray.put`` once; each task computes a chunked squared
   euclidean distance matrix per batch (numpy broadcast) and takes top-k with
   ``argpartition``.  Exact, vectorized, zero shuffle — right up to millions
   of targets.

2. **Cell-partitioned candidate pruning** (``tree=True``): the scale path the
   survey promised (SURVEY §7.4).  Once per worker process, a coarse grid
   over the target extent precomputes, per cell, the exact candidate set
   that can contain ANY point-in-cell's k nearest (targets within
   d_k(cell center) + cell diagonal — a triangle-inequality bound).  Per
   batch, points are bucketed by cell and each bucket runs one vectorized
   distance matrix against its (small) candidate set.  Same results as brute, but per-point
   work is O(|candidates|) instead of O(|targets|).

Ties are broken by target key ascending (deterministic, SQL-mirrorable via
``row_number() over (order by dist2, zone_key)``).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..state.session import broadcast_ref, fetch, map_cached


class BroadcastKNN:
    def __init__(
        self,
        targets_ref,
        k: int = 3,
        id_col: str = "doc_id",
        tree: bool = False,
        chunk: int = 256,
    ):
        t = fetch(targets_ref)
        self.tid = t["zone_id"].to_pylist()
        self.tkey = t["zone_key"].to_numpy(zero_copy_only=False).astype(np.int64)
        self.cx = t["cx"].to_numpy(zero_copy_only=False)
        self.cy = t["cy"].to_numpy(zero_copy_only=False)
        # pre-sort targets by key so np.argpartition tie-handling can be fixed
        # deterministically by a lexsort on (dist2, key)
        self.k = k
        self.id_col = id_col
        self.chunk = chunk
        self.cells = None
        if tree:
            self._build_cell_index()
        # preallocated scratch (touched once here): in-place kernels below keep
        # steady-state batches free of fresh-page allocation cost
        m = self.cx.size
        self._d2 = np.empty((chunk, m))
        self._tmp = np.empty((chunk, m))
        self._d2.fill(0.0)
        self._tmp.fill(0.0)

    def _topk_brute(self, px: np.ndarray, py: np.ndarray):
        n = px.size
        k = min(self.k, self.cx.size)
        out_idx = np.empty((n, k), dtype=np.int64)
        out_d = np.empty((n, k))
        for s in range(0, n, self.chunk):
            e = min(n, s + self.chunk)
            c = e - s
            d2 = self._d2[:c]
            tmp = self._tmp[:c]
            np.subtract(px[s:e, None], self.cx[None, :], out=d2)
            np.multiply(d2, d2, out=d2)
            np.subtract(py[s:e, None], self.cy[None, :], out=tmp)
            np.multiply(tmp, tmp, out=tmp)
            np.add(d2, tmp, out=d2)
            m = self.cx.size
            kk = min(k + 8, m - 1)
            if m > 4 * k + 8:
                part = np.argpartition(d2, kk, axis=1)[:, : kk + 1]
                pd = np.take_along_axis(d2, part, axis=1)
                pk = self.tkey[part]
                order = np.lexsort((pk, pd), axis=1)[:, :k]
                out_idx[s:e] = np.take_along_axis(part, order, axis=1)
                out_d[s:e] = np.take_along_axis(pd, order, axis=1)
                # tie spill past the candidate window: resolve those rows fully
                spill = out_d[s:e, -1] >= pd.max(axis=1)
                if spill.any():
                    for r in np.nonzero(spill)[0]:
                        full = np.lexsort((self.tkey, d2[r]))[:k]
                        out_idx[s + r] = full
                        out_d[s + r] = d2[r][full]
            else:
                order = np.lexsort((np.broadcast_to(self.tkey, d2.shape), d2), axis=1)[:, :k]
                out_idx[s:e] = order
                out_d[s:e] = np.take_along_axis(d2, order, axis=1)
        return out_idx, out_d

    GRID_NX, GRID_NY = 96, 48

    def _build_cell_index(self):
        """Per-cell exact candidate sets: any point p inside cell c has its
        true k nearest targets within r(c) = d_k(center(c)) + diag(c)
        (triangle inequality; + FP margin).  Built ONCE per worker process."""
        k = min(self.k, self.cx.size)
        pad = 1e-9
        self.gx0 = float(self.cx.min()) - pad
        self.gy0 = float(self.cy.min()) - pad
        gx1 = float(self.cx.max()) + pad
        gy1 = float(self.cy.max()) + pad
        self.gdx = (gx1 - self.gx0) / self.GRID_NX
        self.gdy = (gy1 - self.gy0) / self.GRID_NY
        ccx = self.gx0 + (np.arange(self.GRID_NX) + 0.5) * self.gdx
        ccy = self.gy0 + (np.arange(self.GRID_NY) + 0.5) * self.gdy
        mx, my = np.meshgrid(ccx, ccy)  # (ny, nx)
        centers_x, centers_y = mx.ravel(), my.ravel()
        diag = float(np.hypot(self.gdx, self.gdy))
        ncells = centers_x.size
        self.cells = [None] * ncells
        # chunked distance matrix cell-centers x targets; in-place kernels on
        # ONE preallocated scratch pair (fresh numpy temporaries fault pages —
        # see BASELINE.md sandbox calibration — so steady-state reuse matters)
        m = self.cx.size
        step = max(1, (1 << 21) // max(1, m))
        d2 = np.empty((min(step, ncells), m))
        tmp = np.empty_like(d2)
        wb = np.empty(d2.shape, dtype=bool)
        for s in range(0, ncells, step):
            e = min(ncells, s + step)
            c = e - s
            np.subtract(centers_x[s:e, None], self.cx[None, :], out=d2[:c])
            np.multiply(d2[:c], d2[:c], out=d2[:c])
            np.subtract(centers_y[s:e, None], self.cy[None, :], out=tmp[:c])
            np.multiply(tmp[:c], tmp[:c], out=tmp[:c])
            np.add(d2[:c], tmp[:c], out=d2[:c])
            kth = np.partition(d2[:c], k - 1, axis=1)[:, k - 1]
            r = np.sqrt(kth) + diag
            np.less_equal(d2[:c], (r[:, None] + 1e-9) ** 2, out=wb[:c])
            for ci in range(c):
                self.cells[s + ci] = np.flatnonzero(wb[ci])

    def _topk_tree(self, px: np.ndarray, py: np.ndarray):
        """Exact kNN via the per-cell candidate sets; points outside the
        target extent fall back to the brute path (bound doesn't apply)."""
        k = min(self.k, self.cx.size)
        n = px.size
        out_idx = np.empty((n, k), dtype=np.int64)
        out_d = np.empty((n, k))
        ix = np.floor((px - self.gx0) / self.gdx).astype(np.int64)
        iy = np.floor((py - self.gy0) / self.gdy).astype(np.int64)
        inside = (ix >= 0) & (ix < self.GRID_NX) & (iy >= 0) & (iy < self.GRID_NY)
        if (~inside).any():
            rows = np.flatnonzero(~inside)
            bi, bd = self._topk_brute(px[rows], py[rows])
            out_idx[rows], out_d[rows] = bi, bd
        cell = np.where(inside, iy * self.GRID_NX + ix, -1)
        for c in np.unique(cell[inside]):
            rows = np.flatnonzero(cell == c)
            cand = self.cells[int(c)]
            d2 = (px[rows, None] - self.cx[cand][None, :]) ** 2 + (
                py[rows, None] - self.cy[cand][None, :]
            ) ** 2
            order = np.lexsort(
                (np.broadcast_to(self.tkey[cand], d2.shape), d2), axis=1
            )[:, :k]
            out_idx[rows] = cand[order]
            out_d[rows] = np.take_along_axis(d2, order, axis=1)
        return out_idx, out_d

    def __call__(self, batch: pa.Table) -> pa.Table:
        px = batch["lon"].to_numpy(zero_copy_only=False)
        py = batch["lat"].to_numpy(zero_copy_only=False)
        if self.cells is not None:
            idx, d2 = self._topk_tree(px, py)
        else:
            idx, d2 = self._topk_brute(px, py)
        n, k = idx.shape
        rep = pa.array(np.repeat(np.arange(n), k))
        return pa.table(
            {
                self.id_col: batch[self.id_col].take(rep),
                "zone_id": pa.array([self.tid[i] for i in idx.ravel()], type=pa.string()),
                "rank": pa.array(np.tile(np.arange(1, k + 1, dtype=np.int64), n)),
                "dist2": pa.array(d2.ravel()),
            }
        )


def knn_join(
    points_ds,
    targets: pa.Table,
    k: int = 3,
    id_col: str = "doc_id",
    tree: bool = False,
    batch_size: int = 32768,
):
    """targets: table with (zone_id, zone_key, cx, cy)."""
    return map_cached(points_ds, BroadcastKNN, broadcast_ref(targets), k, id_col, tree,
                      batch_format="pyarrow", batch_size=batch_size)


class BroadcastDWithin:
    """ST_DWithin-style radius join (OGR spatial-filter + distance predicate
    surface, reference ogr/ogrgeometry.cpp Distance): emit every
    (point, target) pair with planar distance <= radius.

    Broadcast stage: targets ship once via ray.put; per batch a chunked
    (points x targets) distance matrix — same in-place kernels as
    BroadcastKNN — filters pairs vectorized.  Every worker process holds all
    targets and a (chunk x targets) scratch matrix, so the target set must
    fit one worker's memory; no partitioned radius join exists
    (``join.partitioned_spatial_join`` takes no radius and does not expand
    a cover by one).
    """

    def __init__(self, targets_ref, radius: float, id_col: str = "doc_id",
                 chunk: int = 256):
        t = fetch(targets_ref)
        self.tkey = t["zone_key"].to_numpy(zero_copy_only=False).astype(np.int64)
        self.cx = t["cx"].to_numpy(zero_copy_only=False)
        self.cy = t["cy"].to_numpy(zero_copy_only=False)
        self.r2 = float(radius) * float(radius)
        self.id_col = id_col
        self.chunk = chunk
        m = self.cx.size
        self._d2 = np.empty((chunk, m))
        self._tmp = np.empty((chunk, m))
        self._d2.fill(0.0)
        self._tmp.fill(0.0)

    def __call__(self, batch: pa.Table) -> pa.Table:
        px = batch["lon"].to_numpy(zero_copy_only=False)
        py = batch["lat"].to_numpy(zero_copy_only=False)
        ids = batch[self.id_col].to_numpy(zero_copy_only=False)
        out_ids, out_keys, out_d2 = [], [], []
        for s in range(0, px.size, self.chunk):
            e = min(px.size, s + self.chunk)
            c = e - s
            d2 = self._d2[:c]
            tmp = self._tmp[:c]
            np.subtract(px[s:e, None], self.cx[None, :], out=d2)
            np.multiply(d2, d2, out=d2)
            np.subtract(py[s:e, None], self.cy[None, :], out=tmp)
            np.multiply(tmp, tmp, out=tmp)
            np.add(d2, tmp, out=d2)
            r, ci = np.nonzero(d2 <= self.r2)
            out_ids.append(ids[s:e][r])
            out_keys.append(self.tkey[ci])
            out_d2.append(d2[r, ci])
        ids_a = np.concatenate(out_ids) if out_ids else np.empty(0, ids.dtype)
        keys_a = np.concatenate(out_keys) if out_keys else np.empty(0, np.int64)
        d2_a = np.concatenate(out_d2) if out_d2 else np.empty(0)
        dist_x1m = np.floor(np.sqrt(d2_a) * 1e6 + 0.5).astype(np.int64)
        return pa.table({
            self.id_col: pa.array(ids_a),
            "zone_key": pa.array(keys_a),
            "dist_x1m": pa.array(dist_x1m),
        })


def dwithin_join(points_ds, targets: pa.Table, radius: float,
                 id_col: str = "doc_id", batch_size: int = 32768):
    """targets: table with (zone_key, cx, cy)."""
    return map_cached(points_ds, BroadcastDWithin, broadcast_ref(targets), radius, id_col,
                      batch_format="pyarrow", batch_size=batch_size)
