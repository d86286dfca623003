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

   Interior cells (Raptor's interior/boundary split of raster cells against
   each polygon): each grid cell lists the zones that wholly contain it
   (its *interior* entries) before the zones it only meets (its *boundary*
   entries), and a cell that lies wholly outside a polygon is not listed
   for it at all.  Every point in an interior cell lies strictly inside the
   zone, so those pairs need no test at all: the zonal reduce folds a
   batch's count/sum/min/max once per occupied cell into the cell's
   interior zones, and runs the envelope and edge tests, pair by pair, only
   on boundary entries and the always-checked list.  Pair emission skips
   the tests for interior pairs and keeps its (row, zone) order.

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
from ..state.session import broadcast_ref, fetch, map_cached

# (point, zone) pairs the zonal reduce expands at once: a 20k-zone batch of
# 32,768 points is one chunk, a 1M-zone batch is folded ~1M pairs at a time
PAIR_CHUNK = 1 << 20
# grid entries per block of zones whose cells the build classifies at once
CLASSIFY_CHUNK = 1 << 16


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

    Cell ``c`` lists its zones in ``csr_val[csr_off[c]:csr_off[c + 1]]``:
    first its *interior* entries, up to ``csr_mid[c]``, then its *boundary*
    entries, each part in ascending zone order.  Interior cells lie strictly
    inside the zone's cell cover, ``cx0 < gx < cx1`` and ``cy0 < gy < cy1``,
    which needs no epsilon: the point -> cell map (subtract, multiply by a
    positive constant, truncate, clip) is monotone, so ``cell(px) >
    cell(minx)`` implies ``px > minx``; every point of such a cell passes
    both the closed and the open (``within``) envelope test, and the clipped
    grid-border cells, where NaN and out-of-extent points land, are never
    interior.  For a rectangle that is the whole rule: (4 - 1)^2 = 9 of a
    median rectangle's ~25 entries are interior.

    A general polygon of one closed ring (:meth:`_one_ring`) is classified
    by one scan of its edges, cell row by cell row (:meth:`_classify`):

    - an edge yields one *piece* per cover row it meets (rows by the same
      monotone map); the piece's x-extent is the crossing test's own
      expression ``x0 + (y - y0) * slope`` at both ends of the edge's
      y-range within the row, padded by 2^-46 of the largest |x| (the far
      vertex's rounding, so two edges that meet in a row overlap there),
      and every cover cell whose columns it reaches is *touched*;
    - an untouched cell takes the even-odd parity of the pieces that cross
      its row's mid-line to its left: odd cells strictly inside the cover
      are interior entries, even cells are dropped from the grid, and odd
      cells on the cover's border stay boundary entries.

    Why that is exact: the crossing test's x is monotone in y, so it lies
    within the piece for every y of the row (the row bounds are padded by
    the map's rounding), and a point of an untouched cell sits strictly left
    or right of each piece.  Its crossing count is then the number of pieces
    right of it that straddle its y, and that parity does not change over
    the row: the pieces right of the cell form chains of consecutive edges
    whose ends lie outside the row (an end inside the row would be a vertex
    shared with a piece on the other side, which both pieces contain).  At
    the mid-line a closed ring crosses an even number of times, so the count
    right of the cell and the count left of it agree in parity.  Points
    beyond the grid or NaN cross no piece, matching even parity.  Zones of
    several rings (holes, MultiPolygons) and rings that are not closed or
    not finite stay boundary-only.  On 20k octagons 135,640 of the 498,917
    cover cells are interior and 44,424 are dropped.

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
        general = self._one_ring(rings)
        del rings
        self._build_grid(general)

    def _one_ring(self, rings: "wkb.Rings") -> np.ndarray:
        """The non-rectangle zones whose cells the build classifies: one
        closed ring of four or more vertices, every edge finite."""
        out = np.zeros(rings.kind.size, dtype=bool)
        z = np.flatnonzero(~self.is_rect & (np.diff(rings.row_roff) == 1))
        v0 = rings.ring_voff[rings.row_roff[z]]
        v1 = rings.ring_voff[rings.row_roff[z] + 1] - 1
        four = v1 - v0 >= 3
        z, v0, v1 = z[four], v0[four], v1[four]
        out[z[(rings.x[v0] == rings.x[v1]) & (rings.y[v0] == rings.y[v1])]] = True
        # a NaN or infinite vertex, or a slope that overflowed
        e = self.edges
        bad = np.flatnonzero(~(np.isfinite(e.slope) & np.isfinite(e.y0) & np.isfinite(e.y1)))
        out[np.searchsorted(e.ring_eoff[e.z_roff], bad, "right") - 1] = False
        return out

    def _build_grid(self, general: np.ndarray):
        b = self.boxes
        n = len(b)
        if n == 0:
            self.nx = self.ny = 1
            self.csr_off = np.zeros(2, dtype=np.int64)
            self.csr_mid = np.zeros(1, dtype=np.int64)
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
        cx0, cy0 = self._cell_xy(b[:, 0], b[:, 1])
        cx1, cy1 = self._cell_xy(b[:, 2], b[:, 3])
        ncx, ncy = cx1 - cx0 + 1, cy1 - cy0 + 1
        big = ncx * ncy > self.MAX_COVER_CELLS * self.CELL_DIVISOR**2
        self.always = np.flatnonzero(big).astype(np.int64)
        general = general & ~big
        rows = self._row_bounds() if general.any() else None
        if rows is None:
            general[:] = False
        # one run of cells per (zone, cell row) of each cover, in zone order
        nrun = np.where(big, 0, ncy)
        zone, gy = pip.csr_ranges(cy0, nrun)
        run = ncx[zone]
        stop = np.cumsum(run)
        start = stop - run
        # one byte per entry: the cells strictly inside the cover of a
        # rectangle or of a classified zone, of which the classification
        # keeps the interior ones and flags the exterior ones to drop
        inner = np.repeat((self.is_rect | general)[zone] & (gy > cy0[zone]) & (gy < cy1[zone]), run)
        inner[start] = False
        inner[stop - 1] = False
        drop = None
        if general.any():
            cover = (cx0, cx1, cy0, wkb.offsets(nrun))
            drop = self._classify(general, rows, cover, zone, run, start, inner)
        # the unique (cell, boundary, zone) key of each entry, built in place:
        # key = (cell * 2 + boundary) * n + zone, so one sort orders the
        # entries cell-major, interior first, zones ascending in each part;
        # a dropped entry's key lies past every cell's and sorts last
        key = np.repeat(2 * n * (gy * self.nx + cx0[zone] - start) + zone, run)
        del zone, gy, run, start, stop
        step = np.arange(key.size, dtype=np.int64)
        step *= 2 * n
        key += step
        del step
        np.add(key, n, out=key, where=~inner)
        del inner
        kept = key.size
        if drop is not None:
            np.copyto(key, 2 * n * self.nx * self.ny, where=drop)
            kept -= int(np.count_nonzero(drop))
            del drop
        if 2 * n * self.nx * self.ny < 2**31:
            key = key.astype(np.int32)  # sorts in about half the time
        key.sort()
        key = key[:kept]
        self.csr_val = (key % n).astype(np.int64, copy=False)
        key //= n  # 2 * cell + boundary
        per_part = np.bincount(key, minlength=2 * self.nx * self.ny).reshape(-1, 2)
        del key
        self.csr_off = np.zeros(self.nx * self.ny + 1, dtype=np.int64)
        np.cumsum(per_part.sum(axis=1), out=self.csr_off[1:])
        self.csr_mid = self.csr_off[:-1] + per_part[:, 0]

    def _mono_cell(self, v: np.ndarray, x: bool) -> np.ndarray:
        """``_cell_xy``'s column (``x``) or row of each value, clipped before
        the integer cast so that it is monotone for every value; it equals
        ``_cell_xy`` wherever that does not overflow the cast."""
        t = (v - self.x0) * self.inv_dx if x else (v - self.y0) * self.inv_dy
        np.maximum(t, 0, out=t)
        np.minimum(t, (self.nx if x else self.ny) - 1, out=t)
        return t.astype(np.int32)

    def _row_bounds(self):
        """(lo, hi, mid): for each cell row r, every y the point -> row map
        takes to r lies in ``[lo[r], hi[r]]`` (a rounding pad of 2^-40 of the
        grid's y-magnitude either side; the border rows open to -inf and
        +inf), and ``mid[r]`` is a y it takes to r; None if some row has no
        such mid-line (cells narrower than the rounding)."""
        ny = self.ny
        line = self.y0 + np.arange(ny + 1) / self.inv_dy
        mid = self.y0 + (np.arange(ny) + 0.5) / self.inv_dy
        if not np.array_equal(self._mono_cell(mid, False), np.arange(ny)):
            return None
        pad = (abs(self.y0) + ny / self.inv_dy) * 2.0**-40
        lo, hi = line[:-1] - pad, line[1:] + pad
        lo[0], hi[-1] = -np.inf, np.inf
        return lo, hi, mid

    def _classify(self, general, rows, cover, zone, run, start, inner) -> np.ndarray:
        """Classify the cover cells of the ``general`` zones by one scan of
        their edges, cell row by cell row (see the class docstring): clear
        ``inner`` where a cell is not interior and return the one-byte flags
        of the exterior cells, which the grid drops.  Zones go in blocks of
        about ``CLASSIFY_CHUNK`` entries, so the per-edge arrays stay small.

        An edge's piece in a row is the part of it the row's y-range cuts
        out, and its columns are the cells it touches there.  An edge within
        one row or one column has the same columns in each of its rows:
        those of the whole edge.  Only an edge over several rows and columns
        needs the x-extent of each piece."""
        cx0, cx1, cy0, zrun = cover
        e = self.edges
        z_eoff = e.ring_eoff[e.z_roff]
        row_lo, row_hi, mid = rows
        width = cx1 - cx0 + 1
        zent = np.append(start, inner.size)[zrun]  # zone -> its first entry
        # entry of cell (gx, gy) of zone z's cover: zbase[z] + gy * width[z] + gx
        zbase = zent[:-1] - cy0 * width - cx0
        cy1 = cy0 + np.diff(zrun) - 1
        drop = np.zeros(inner.size, dtype=bool)
        for za, zb in pip.chunk_bounds(np.diff(zent), CLASSIFY_CHUNK):
            zs = za + np.flatnonzero(general[za:zb])
            if zs.size == 0:
                continue
            e0, n_e = zent[za], zent[zb] - zent[za]
            z, ed = pip.csr_ranges(z_eoff[zs], z_eoff[zs + 1] - z_eoff[zs])
            z = zs[z]
            x0, y0, y1, sl = e.x0[ed], e.y0[ed], e.y1[ed], e.slope[ed]
            del ed
            # the crossing test's own expression at the far end; it is
            # monotone in y, so a piece's ends bound every crossing the test
            # computes in it (a horizontal edge: x0 + (x1 - x0))
            x1 = y1 - y0
            x1 *= sl
            x1 += x0
            np.add(x1, sl, out=x1, where=y0 == y1)
            # the pad covers the far end's rounding, so two edges that meet
            # in a row overlap there
            pad = np.abs(x0).max() * 2.0**-46 + 2.0**-1000
            c0 = self._mono_cell(np.minimum(x0, x1) - pad, True)
            c1 = self._mono_cell(np.maximum(x0, x1) + pad, True)
            ymin, ymax = np.minimum(y0, y1), np.maximum(y0, y1)
            bottom, top = cy0[z], cy1[z]
            r0, r1 = self._mono_cell(ymin, False), self._mono_cell(ymax, False)
            # the rows whose mid-line the edge crosses, ymin <= mid < ymax
            # (half-open, as the test): each row's mid-line lies in the row
            k0 = np.maximum(r0 + (ymin > mid[r0]), bottom)
            k1 = np.minimum(r1 + (ymax > mid[r1]), top + 1)
            np.maximum(r0, bottom, out=r0)
            np.minimum(r1, top, out=r1)
            left, right, base, wid = cx0[z], cx1[z], zbase[z] - e0, width[z]
            del z, bottom, top
            span = r1 - r0  # < 0: the edge meets no row of the cover
            several = (span > 0) & (c1 > c0)
            at = base + r0 * wid  # the entry of column 0 of the edge's first row
            k0 -= r0  # the rows whose mid-line it crosses, from its first row
            k1 -= r0
            # touched cells, then room for the marks of what misses the cover
            out = n_e + self.nx
            tch = np.zeros(2 * out, dtype=bool)
            flips = []
            # the edges within one row or one column: the whole edge's
            # columns in each of their rows, row by row (row j of every edge
            # of span >= j is a prefix: the tallest come first)
            ed, levels = _tallest_first(np.flatnonzero(~several & (span >= 0)), span)
            lo, hi = np.maximum(c0[ed], left[ed]), np.minimum(c1[ed], right[ed])
            miss = lo > hi
            lo[miss] = hi[miss] = out
            fc = np.minimum(np.maximum(c1[ed] + 1, left[ed]), right[ed] + 1)
            pos, w, d0, d1 = at[ed], wid[ed], k0[ed], k1[ed]
            for j, n in enumerate(levels):
                p = pos[:n] + j * w[:n] if j else pos
                tch[p + lo[:n]] = True
                tch[p + hi[:n]] = True
                flips.append(np.where((d0[:n] <= j) & (j < d1[:n]), p + fc[:n], n_e))
            far = np.flatnonzero(hi - lo >= 2)  # rows of one-row edges
            tch[pip.csr_ranges(pos[far] + lo[far] + 1, hi[far] - lo[far] - 1)[1]] = True
            # the edges over several rows and columns, piece by piece: the
            # columns of the piece's own x-extent, from both ends of its
            # y-range within the row
            ed, levels = _tallest_first(np.flatnonzero(several), span)
            pos, w, d0, d1, pl, pr = at[ed], wid[ed], k0[ed], k1[ed], left[ed], right[ed]
            row0, ey0, esl, ex0, emin, emax = r0[ed], y0[ed], sl[ed], x0[ed], ymin[ed], ymax[ed]
            for j, n in enumerate(levels):
                row = row0[:n] + j
                xa = np.maximum(row_lo[row], emin[:n])
                xa -= ey0[:n]
                xa *= esl[:n]
                xa += ex0[:n]
                xb = np.minimum(row_hi[row], emax[:n])
                xb -= ey0[:n]
                xb *= esl[:n]
                xb += ex0[:n]
                xl = np.minimum(xa, xb)
                xl -= pad
                xh = np.maximum(xa, xb, out=xa)
                xh += pad
                hi = self._mono_cell(xh, True)
                p = pos[:n] + j * w[:n]
                a = np.maximum(self._mono_cell(xl, True), pl[:n])
                b = np.minimum(hi, pr[:n])
                meet = a <= b
                a, b = np.where(meet, p + a, out), np.where(meet, p + b, out)
                tch[a] = True
                tch[b] = True
                far = np.flatnonzero(b - a >= 2)
                tch[pip.csr_ranges(a[far] + 1, b[far] - a[far] - 1)[1]] = True
                flips.append(np.where((d0[:n] <= j) & (j < d1[:n]),
                                      p + np.minimum(np.maximum(hi + 1, pl[:n]), pr[:n] + 1), n_e))
            odd = np.bincount(np.concatenate(flips), minlength=n_e + 1)[:n_e] & 1
            odd = np.logical_xor.accumulate(odd.astype(bool))
            free = ~tch[:n_e]
            gone = free & ~odd
            free &= odd
            if zs.size < zb - za:  # other zones' entries in the block keep their flags
                mine = np.repeat(general[zone[zrun[za]:zrun[zb]]], run[zrun[za]:zrun[zb]])
                free |= ~mine
                gone &= mine
            inner[e0:e0 + n_e] &= free
            drop[e0:e0 + n_e] = gone
        return drop

    def _cell_xy(self, px: np.ndarray, py: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Grid column and row of each point, in float64, clipped to the grid."""
        px, py = np.asarray(px, dtype=np.float64), np.asarray(py, dtype=np.float64)
        # NaN and +-inf cast to an out-of-range int that the clip takes to an
        # edge cell; numpy warns on that cast for every batch holding one
        with np.errstate(invalid="ignore"):
            gx = np.clip(((px - self.x0) * self.inv_dx).astype(np.int64), 0, self.nx - 1)
            gy = np.clip(((py - self.y0) * self.inv_dy).astype(np.int64), 0, self.ny - 1)
        return gx, gy

    def _cells(self, px: np.ndarray, py: np.ndarray) -> np.ndarray:
        gx, gy = self._cell_xy(px, py)
        gy *= self.nx
        gy += gx
        return gy

    def _entries(self, start: np.ndarray, stop: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(i, zone index) for every CSR entry in ``start[i]:stop[i]``."""
        i, pos = pip.csr_ranges(start, stop - start)
        return i, self.csr_val[pos]

    def _gather(self, px, py, start, stop, strict: bool, always: bool):
        """(point_row, zone_index) pairs of each point's CSR entries
        ``start[i]:stop[i]``, and of the always-checked list when ``always``,
        that pass the envelope test: closed, or open when ``strict``
        (``within``).  Only the passing pairs outlive the call."""
        rows, zidx = self._entries(start, stop)
        if always and self.always.size:
            n = start.size
            rows = np.concatenate([rows, np.repeat(np.arange(n), self.always.size)])
            zidx = np.concatenate([zidx, np.tile(self.always, n)])
        qx, qy = px[rows], py[rows]
        if strict:
            hit = ((qx > self.minx[zidx]) & (qx < self.maxx[zidx])
                   & (qy > self.miny[zidx]) & (qy < self.maxy[zidx]))
        else:
            hit = ((qx >= self.minx[zidx]) & (qx <= self.maxx[zidx])
                   & (qy >= self.miny[zidx]) & (qy <= self.maxy[zidx]))
        del qx, qy
        hit = np.flatnonzero(hit)
        return rows[hit], zidx[hit]

    def _candidates(self, px: np.ndarray, py: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(point_row, zone_index) pairs of the points' full cell lists and
        the always-checked list that pass the closed envelope test."""
        cell = self._cells(px, py)
        return self._gather(px, py, self.csr_off[cell], self.csr_off[cell + 1], False, True)

    def _exact(self, px, py, rows, zidx) -> tuple[np.ndarray, np.ndarray]:
        """Envelope-passed pairs kept by one crossing-number pass over the
        pairs of general polygons (rectangles pass as they are)."""
        if self.is_rect.all():
            return rows, zidx
        keep = np.ones(rows.size, dtype=bool)
        gen = np.flatnonzero(~self.is_rect[zidx])
        if gen.size:
            keep[gen] = pip.points_in_edges(px[rows[gen]], py[rows[gen]], zidx[gen], self.edges)
        return rows[keep], zidx[keep]

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
        """(point_row, zone_index) matching pairs under the predicate: the
        grid pairs by row, then zone, then the always-checked pairs."""
        strict = predicate == "within"
        cell = self._cells(px, py)
        lo, mid, hi = self.csr_off[cell], self.csr_mid[cell], self.csr_off[cell + 1]
        rows, zidx = self._exact(px, py, *self._gather(px, py, mid, hi, strict, False))
        r_in, z_in = self._entries(lo, mid)  # interior: no test
        if r_in.size:
            # both runs are (row, zone)-sorted: their (row, zone) keys, made
            # in place, merge in one stable sort (timsort finds the two runs)
            n = len(self.boxes)
            r_in *= n
            r_in += z_in
            rows *= n
            rows += zidx
            del z_in, zidx
            key = np.concatenate([r_in, rows])
            del r_in, rows
            key.sort(kind="stable")
            zidx = key % n
            key //= n
            rows = key
        if self.always.size:
            # no grid entries (hi:hi), the always-checked pairs alone
            r_a, z_a = self._exact(px, py, *self._gather(px, py, hi, hi, strict, True))
            rows, zidx = np.concatenate([rows, r_a]), np.concatenate([zidx, z_a])
        return rows, zidx


def _tallest_first(idx: np.ndarray, span: np.ndarray):
    """``idx`` ordered by ``span`` descending, and for each j >= 0 the number
    of them with span >= j: row j of a row-by-row walk over their rows is
    then a prefix of the order."""
    s = span[idx]
    order = np.argsort(-s.astype(np.int16), kind="stable")  # a radix sort
    levels = np.cumsum(np.bincount(s)[::-1])[::-1] if s.size else s
    return idx[order], levels.tolist()


def _scatter(acc: list, zidx: np.ndarray, cnt, sm, mn, mx):
    """Fold per-entry (count, sum, min, max) into the per-zone accumulators
    ``acc`` at ``zidx``.  Sums are integer-exact int64 and wrap on overflow,
    as ``np.add.at`` does, so any grouping of the same values folds to the
    same bits; float64 weights would lose exactness above 2^53.
    ``ufunc.at`` has a fast path from numpy 1.25."""
    np.add.at(acc[0], zidx, cnt)
    np.add.at(acc[1], zidx, sm)
    np.minimum.at(acc[2], zidx, mn)
    np.maximum.at(acc[3], zidx, mx)


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
        if self.zonal_reduce_col is not None and not self.anti:
            return self._zonal_reduce(batch, px, py)
        rows, zidx = self.index.probe_points(px, py, self.predicate)
        if self.anti:
            mask = np.ones(batch.num_rows, dtype=bool)
            mask[rows] = False
            out = {self.id_col: batch[self.id_col].filter(pa.array(mask))}
            for c in self.emit_cols:
                out[c] = batch[c].filter(pa.array(mask))
            return pa.table(out)
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

    def _zonal_reduce(self, batch: pa.Table, px: np.ndarray, py: np.ndarray) -> pa.Table:
        """Per-zone count/sum/min/max of the batch's matches, scattered into
        flat per-zone accumulators (GDAL's zonal pass, alg/zonal.cpp:201-208;
        Raptor's per-polygon accumulators), in two parts:

        - interior entries: the points of each occupied cell are reduced
          once, and the cell's four figures go to every zone the cell lies
          inside, untested;
        - boundary entries and the always-checked list: each (point, zone)
          pair is tested and folded on its own, ``PAIR_CHUNK`` pairs at a
          time, so a batch against a million zones never holds all its pairs.

        Unhit zones keep count 0 and the int64 max/min sentinels."""
        ix = self.index
        n_zones = len(ix.zone_id)
        acc = [np.zeros(n_zones, dtype=np.int64), np.zeros(n_zones, dtype=np.int64),
               np.full(n_zones, np.iinfo(np.int64).max, dtype=np.int64),
               np.full(n_zones, np.iinfo(np.int64).min, dtype=np.int64)]
        v = batch[self.zonal_reduce_col].to_numpy(zero_copy_only=False).astype(np.int64)
        strict = self.predicate == "within"
        # points in cell order: one run per occupied cell, and neighbouring
        # points read neighbouring CSR entries
        cell = ix._cells(px, py)
        order = np.argsort(cell)
        cell, v, px, py = cell[order], v[order], px[order], py[order]
        lo, mid, hi = ix.csr_off[cell], ix.csr_mid[cell], ix.csr_off[cell + 1]
        if cell.size:
            first = np.flatnonzero(np.r_[True, cell[1:] != cell[:-1]])
            stats = [np.diff(np.r_[first, cell.size]), np.add.reduceat(v, first),
                     np.minimum.reduceat(v, first), np.maximum.reduceat(v, first)]
            # the occupied cells with interior entries fold their four figures
            inner = mid[first] > lo[first]
            start, stop, stats = lo[first][inner], mid[first][inner], [s[inner] for s in stats]
            for a, b in pip.chunk_bounds(stop - start, PAIR_CHUNK):
                k, zidx = ix._entries(start[a:b], stop[a:b])
                _scatter(acc, zidx, *(s[a:b][k] for s in stats))
        for a, b in pip.chunk_bounds(hi - mid + ix.always.size, PAIR_CHUNK):
            pxs, pys = px[a:b], py[a:b]
            rows, zidx = ix._exact(pxs, pys, *ix._gather(pxs, pys, mid[a:b], hi[a:b], strict, True))
            vr = v[a:b][rows]
            _scatter(acc, zidx, 1, vr, vr, vr)
        return pa.table({name: pa.array([a.tobytes()], pa.binary())
                         for name, a in zip(("cnt", "sm", "mn", "mx"), acc)})


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
    return map_cached(
        points_ds, BroadcastPointJoin, broadcast_ref(zones), predicate, id_col, "lon", "lat",
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
