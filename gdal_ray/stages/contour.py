"""Contour (marching squares) + sieve filter.

Contour re-answers ``gdal_contour`` (reference: ``alg/contour.cpp`` +
``alg/marching_squares/*.h`` contour_generator / segment_merger): per tile,
marching squares over the pixel-corner grid emits level-line segments; a
``groupby(level)`` merge chains touching segments into polylines across tile
borders (tiles own the cells whose top-left pixel they hold; right/bottom
neighbors contribute a 1-pixel halo so border cells are computed exactly
once).

Sieve re-answers ``gdal_sieve`` (``alg/gdalsievefilter.cpp``) with a
documented round-1 scope: components smaller than the threshold that lie
strictly inside one tile are merged into their dominant neighbor value;
border-touching components are conservatively kept (exact cross-tile sieve
needs the polygonize merge graph, SURVEY §7).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..functions.tilerow import pixels, tile_row
from ..functions.wkb import decode, encode_linestring, encode_polygon
from .focal import _assemble_padded, _halo_exchange
from .polygonize import label_tile

_EPS = 1e-9


def marching_squares_cells(arr: np.ndarray, level: float, ox: float = 0.0, oy: float = 0.0,
                           max_row: int | None = None, max_col: int | None = None):
    """Segments of the iso-line ``level`` over cells of ``arr`` (corners =
    pixel values).  Cell (r, c) uses corners arr[r:r+2, c:c+2]; only cells
    with r < max_row and c < max_col are emitted.  Returns (N, 4) array of
    (x0, y0, x1, y1) in pixel coordinates offset by (ox, oy)."""
    h, w = arr.shape
    mr = (h - 1) if max_row is None else min(max_row, h - 1)
    mc = (w - 1) if max_col is None else min(max_col, w - 1)
    if mr <= 0 or mc <= 0:
        return np.empty((0, 4))
    tl = arr[:mr, :mc]
    tr = arr[:mr, 1 : mc + 1]
    bl = arr[1 : mr + 1, :mc]
    br = arr[1 : mr + 1, 1 : mc + 1]
    case = (
        (tl >= level).astype(np.int8)
        | ((tr >= level).astype(np.int8) << 1)
        | ((br >= level).astype(np.int8) << 2)
        | ((bl >= level).astype(np.int8) << 3)
    )
    rows, cols = np.nonzero((case != 0) & (case != 15))
    if rows.size == 0:
        return np.empty((0, 4))

    def interp(v0, v1):
        d = v1 - v0
        d = np.where(d == 0, 1.0, d)
        return np.clip((level - v0) / d, 0.0, 1.0)

    segs = []
    a, b, c, d = tl[rows, cols], tr[rows, cols], br[rows, cols], bl[rows, cols]
    # edge points: top (between tl-tr), right (tr-br), bottom (bl-br), left (tl-bl)
    top = np.stack([cols + interp(a, b), rows + 0.0], axis=1)
    right = np.stack([cols + 1.0, rows + interp(b, c)], axis=1)
    bottom = np.stack([cols + interp(d, c), rows + 1.0], axis=1)
    left = np.stack([cols + 0.0, rows + interp(a, d)], axis=1)
    cs = case[rows, cols]
    # segment table (asymmetric cases); saddles (5, 10) resolved by center mean
    table = {
        1: [("left", "top")], 2: [("top", "right")], 3: [("left", "right")],
        4: [("right", "bottom")], 6: [("top", "bottom")], 7: [("left", "bottom")],
        8: [("bottom", "left")], 9: [("bottom", "top")], 11: [("bottom", "right")],
        12: [("right", "left")], 13: [("right", "top")], 14: [("top", "left")],
    }
    pts = {"top": top, "right": right, "bottom": bottom, "left": left}
    out = []
    center = (a + b + c + d) / 4.0
    for code in np.unique(cs):
        sel = cs == code
        if code in (5, 10):
            # standard disambiguation (alg/marching_squares/square.h): when
            # the corner mean is >= level, the two HIGH corners connect
            # through the center (cut_low pairing); otherwise they are
            # isolated (cut_high pairing).
            hi_center = center[sel] >= level
            cut_high = [("left", "top"), ("right", "bottom")] if code == 5 else [("top", "right"), ("bottom", "left")]
            cut_low = [("left", "bottom"), ("right", "top")] if code == 5 else [("top", "left"), ("bottom", "right")]
            idx = np.nonzero(sel)[0]
            for connected, i in zip(hi_center, idx):
                for e0, e1 in (cut_low if connected else cut_high):
                    out.append(np.concatenate([pts[e0][i], pts[e1][i]]))
            continue
        for e0, e1 in table[int(code)]:
            out.append(np.column_stack([pts[e0][sel], pts[e1][sel]]))
    segs = np.vstack([o if o.ndim == 2 else o[None, :] for o in out])
    segs[:, [0, 2]] += ox
    segs[:, [1, 3]] += oy
    return segs


def contour(tiles_ds, levels, nx: int, ny: int, tile_size: int = 64):
    """Distributed contour: per-tile marching squares (halo-exact at borders)
    -> groupby(level) polyline chaining.  Returns (level, n_polylines,
    n_segments, total_len_x1e6: int64)."""
    grouped = _halo_exchange(tiles_ds)

    def per_tile(group: pa.Table) -> pa.Table:
        pad, xy, wh = _assemble_padded(group)
        if pad is None:
            return pa.table({"level": pa.array([], pa.float64()), "seg": pa.array([], pa.binary())})
        x, y = xy
        w, h = wh
        # arr2 = body plus right/bottom halo row/col
        arr2 = pad[1:, 1:]
        own_cols = w if x < nx - 1 else w - 1
        own_rows = h if y < ny - 1 else h - 1
        lvls, blobs = [], []
        for level in levels:
            segs = marching_squares_cells(
                arr2, level, ox=x * tile_size, oy=y * tile_size,
                max_row=own_rows, max_col=own_cols,
            )
            if len(segs):
                lvls.append(float(level))
                blobs.append(segs.tobytes())
        return pa.table({"level": pa.array(lvls, pa.float64()), "seg": pa.array(blobs, pa.binary())})

    segs_ds = grouped.map_groups(per_tile, batch_format="pyarrow")

    def chain(group: pa.Table) -> pa.Table:
        level = group["level"][0].as_py()
        segs = np.vstack(
            [np.frombuffer(b, dtype=np.float64).reshape(-1, 4) for b in group["seg"].to_pylist()]
        )
        # chain segments by shared endpoints (grid-rounded)
        def key(p):
            return (round(p[0] / _EPS), round(p[1] / _EPS))

        adj: dict = {}
        for i, s in enumerate(segs):
            adj.setdefault(key(s[:2]), []).append((i, 0))
            adj.setdefault(key(s[2:]), []).append((i, 1))
        used = np.zeros(len(segs), dtype=bool)
        n_lines = 0
        for i in range(len(segs)):
            if used[i]:
                continue
            n_lines += 1
            # walk both directions
            for start_end in (0, 1):
                cur, end = i, start_end
                used[i] = True
                while True:
                    p = segs[cur][2:] if end == 1 else segs[cur][:2]
                    nxt = [t for t in adj.get(key(p), []) if not used[t[0]]]
                    if not nxt:
                        break
                    cur, came = nxt[0]
                    used[cur] = True
                    end = 1 - came
        lens = np.hypot(segs[:, 2] - segs[:, 0], segs[:, 3] - segs[:, 1])
        return pa.table(
            {
                "level": pa.array([level]),
                "n_polylines": pa.array([n_lines], pa.int64()),
                "n_segments": pa.array([len(segs)], pa.int64()),
                "total_len_x1e6": pa.array([int(round(lens.sum() * 1e6))], pa.int64()),
            }
        )

    return segs_ds.groupby("level").map_groups(chain, batch_format="pyarrow")


def suplevel_area_cells(arr: np.ndarray, level: float,
                        max_row: int | None = None, max_col: int | None = None) -> np.ndarray:
    """Per-cell area of the region ``{v >= level}`` under the same
    straight-segment (linear edge interpolation) model and saddle rule as
    ``marching_squares_cells`` — the fragments whose boundaries that function
    emits.  Returns an (mr, mc) float array of areas in [0, 1] per cell.

    Re-answers the polygon side of marching squares
    (``alg/marching_squares/polygon_ring_appender.h``): GDAL assembles the
    fragment rings; the exact region measure is the ring-free reduction."""
    h, w = arr.shape
    mr = (h - 1) if max_row is None else min(max_row, h - 1)
    mc = (w - 1) if max_col is None else min(max_col, w - 1)
    if mr <= 0 or mc <= 0:
        return np.empty((0, 0))
    a = arr[:mr, :mc]
    b = arr[:mr, 1 : mc + 1]
    c = arr[1 : mr + 1, 1 : mc + 1]
    d = arr[1 : mr + 1, :mc]
    case = (
        (a >= level).astype(np.int8)
        | ((b >= level).astype(np.int8) << 1)
        | ((c >= level).astype(np.int8) << 2)
        | ((d >= level).astype(np.int8) << 3)
    )

    def interp(v0, v1):
        dd = v1 - v0
        dd = np.where(dd == 0, 1.0, dd)
        return np.clip((level - v0) / dd, 0.0, 1.0)

    t = interp(a, b)      # crossing fraction on the top edge (a -> b)
    r = interp(b, c)      # right edge (b -> c)
    bm = interp(d, c)     # bottom edge (d -> c)
    l = interp(a, d)      # left edge (a -> d)
    center = (a + b + c + d) / 4.0
    # corner triangles cut off by a single crossing-to-crossing segment
    tri_a = t * l / 2.0
    tri_b = (1.0 - t) * r / 2.0
    tri_c = (1.0 - r) * (1.0 - bm) / 2.0
    tri_d = (1.0 - l) * bm / 2.0
    conn = center >= level
    return np.select(
        [case == 1, case == 2, case == 4, case == 8,
         case == 3, case == 6, case == 12, case == 9,
         case == 7, case == 11, case == 13, case == 14,
         (case == 5) & conn, case == 5,
         (case == 10) & conn, case == 10,
         case == 15],
        [tri_a, tri_b, tri_c, tri_d,
         (l + r) / 2.0, ((1.0 - t) + (1.0 - bm)) / 2.0,
         ((1.0 - l) + (1.0 - r)) / 2.0, (t + bm) / 2.0,
         1.0 - tri_d, 1.0 - tri_c, 1.0 - tri_b, 1.0 - tri_a,
         1.0 - (tri_b + tri_d), tri_a + tri_c,
         1.0 - (tri_a + tri_c), tri_b + tri_d,
         np.ones_like(t)],
        default=0.0,
    )


def contour_band_areas(tiles_ds, levels, nx: int, ny: int, tile_size: int = 64):
    """``gdal_contour -p`` with INTERPOLATED level crossings, reduced to exact
    per-band region areas: each cell's band fragments are the straight-segment
    marching-squares polygons (``alg/marching_squares/polygon_ring_appender.h``
    semantics — vertices at linear level crossings, not pixel edges), and each
    tile sums fragment areas over its own cells (right/bottom halo) so the
    distributed total equals the monolithic trace.  Per-cell fixed-point x1e6
    keeps the cross-tile reduction integer-exact under any order.

    Returns (band, area_x1e6): band 0 = below levels[0], band i =
    [levels[i-1], levels[i]), band len(levels) = above the last level."""
    grouped = _halo_exchange(tiles_ds)
    lv = [float(v) for v in levels]

    def per_tile(group: pa.Table) -> pa.Table:
        empty = pa.table({"band": pa.array([], pa.int64()),
                          "area_x1e6": pa.array([], pa.int64())})
        pad, xy, wh = _assemble_padded(group)
        if pad is None:
            return empty
        x, y = xy
        w, h = wh
        arr2 = pad[1:, 1:]
        own_cols = w if x < nx - 1 else w - 1
        own_rows = h if y < ny - 1 else h - 1
        if own_rows <= 0 or own_cols <= 0:
            return empty
        sup = [suplevel_area_cells(arr2, L, max_row=own_rows, max_col=own_cols)
               for L in lv]
        bands, partials = [], []
        for i in range(len(lv) + 1):
            if i == 0:
                cell = 1.0 - sup[0]
            elif i == len(lv):
                cell = sup[-1]
            else:
                cell = sup[i - 1] - sup[i]
            bands.append(i)
            # floor(x+0.5) (not np.round): half-even vs SQL half-away diverge
            # on exact .5 ties — same convention as the grid-shift oracles
            partials.append(int(np.floor(cell * 1e6 + 0.5).astype(np.int64).sum()))
        return pa.table({"band": pa.array(bands, pa.int64()),
                         "area_x1e6": pa.array(partials, pa.int64())})

    parts = grouped.map_groups(per_tile, batch_format="pyarrow")

    def reduce_band(g: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table(
            {
                "band": pa.array([g["band"][0].as_py()], pa.int64()),
                "area_x1e6": pa.array([pc.sum(g["area_x1e6"]).as_py()], pa.int64()),
            }
        )

    return parts.groupby("band").map_groups(reduce_band, batch_format="pyarrow")


def _perimeter_s(x: np.ndarray, y: np.ndarray, max_x: float, max_y: float,
                 eps: float) -> np.ndarray:
    """Perimeter coordinate of border points along the directed border cycle
    that keeps the domain interior on the marching-squares high side:
    top edge walked -x, left edge +y, bottom edge +x, right edge -y
    (start at (max_x, 0)).  Points not on the border get -1."""
    s = np.full(len(x), -1.0)
    on_top = np.abs(y) <= eps
    on_left = np.abs(x) <= eps
    on_bottom = np.abs(y - max_y) <= eps
    on_right = np.abs(x - max_x) <= eps
    # corners are assigned by FIRST matching edge in walk order (top before
    # left etc.) — any consistent choice works since s is only compared
    s[on_right] = max_x + max_y + max_x + (max_y - y[on_right])
    s[on_bottom] = max_x + max_y + x[on_bottom]
    s[on_left] = max_x + y[on_left]
    s[on_top] = max_x - x[on_top]
    return s


def _close_chains_on_border(chains, max_x: float, max_y: float, eps: float):
    """Stitch open marching-squares chains into closed rings by walking the
    directed border cycle between chain endpoints, inserting domain corners
    (the reference's polygon output closes level sets against the raster
    edge, ``alg/marching_squares/polygon_ring_appender.h``).  Orientation
    invariant: every segment keeps {v >= level} on its (dy, -dx) side, so
    the border arc following a chain END (in cycle direction) is inside the
    region and ends at the next chain START."""
    P = 2.0 * (max_x + max_y)
    corners = [  # (s, x, y) along the cycle
        (max_x, 0.0, 0.0),
        (max_x + max_y, 0.0, max_y),
        (max_x + max_y + max_x, max_x, max_y),
        (P, max_x, 0.0),
    ]
    opens = []
    for pts in chains:
        se = _perimeter_s(np.array([pts[0][0], pts[-1][0]]),
                          np.array([pts[0][1], pts[-1][1]]), max_x, max_y, eps)
        if se[0] < 0 or se[1] < 0:
            return None  # unexpected interior endpoint: keep chains open
        opens.append({"pts": pts, "s_start": se[0], "s_end": se[1]})
    starts = sorted(range(len(opens)), key=lambda i: opens[i]["s_start"])
    used = [False] * len(opens)
    rings = []
    for i0 in range(len(opens)):
        if used[i0]:
            continue
        ring = [opens[i0]["pts"]]
        used[i0] = True
        cur = i0
        while True:
            s_from = opens[cur]["s_end"]
            # next chain start strictly after s_from on the cycle
            nxt = None
            best = None
            for j in starts:
                ds = (opens[j]["s_start"] - s_from) % P
                if ds == 0.0 and j == cur and len(ring) == 1:
                    ds = P  # a single chain may close around the full border
                if (not used[j] or j == i0) and (best is None or ds < best):
                    best, nxt = ds, j
            if nxt is None:
                return None
            # border corners passed while walking from s_from by `best`
            walk = []
            for cs, cx, cy in corners:
                dc = (cs - s_from) % P
                if 0.0 < dc < best or (dc == 0.0 and best == P):
                    walk.append((dc, cx, cy))
            walk.sort()
            for _, cx, cy in walk:
                ring.append(np.array([[cx, cy]]))
            if nxt == i0:
                break
            used[nxt] = True
            ring.append(opens[nxt]["pts"])
            cur = nxt
        pts = np.vstack(ring)
        pts = np.vstack([pts, pts[:1]])  # exact closure
        rings.append(pts)
    return rings


def contour_rings(tiles_ds, levels, nx: int, ny: int, tile_size: int = 64,
                  close_border: bool = False):
    """Interpolated contour RINGS: per-tile marching-squares segments (vertex
    coordinates at linear level crossings — the reference's smooth-ring
    geometry, ``alg/marching_squares/polygon_ring_appender.h``) chained
    cross-tile into closed ordered vertex loops.

    Closes the round-2 gap where traced ring WKB was pixel-edge: here the
    ring vertices ARE the interpolated crossings.  With
    ``close_border=False``, iso-lines touching the raster border stay open
    (closed=false); with ``close_border=True`` they are closed by walking the
    domain border between endpoints (polygon-output semantics — the suplevel
    region boundary including raster-edge arcs and corners).

    Returns per (level, ring): ring_id (minx/miny-ordered), n_vertices,
    closed, area_x100 (shoelace), length_x100, wkb (LINESTRING ring)."""
    max_x = float(nx * tile_size - 1)
    max_y = float(ny * tile_size - 1)

    grouped = _halo_exchange(tiles_ds)

    def per_tile(group: pa.Table) -> pa.Table:
        pad, xy, wh = _assemble_padded(group)
        if pad is None:
            return pa.table({"level": pa.array([], pa.float64()),
                             "seg": pa.array([], pa.binary())})
        x, y = xy
        w, h = wh
        arr2 = pad[1:, 1:]
        own_cols = w if x < nx - 1 else w - 1
        own_rows = h if y < ny - 1 else h - 1
        lvls, blobs = [], []
        for level in levels:
            segs = marching_squares_cells(
                arr2, level, ox=x * tile_size, oy=y * tile_size,
                max_row=own_rows, max_col=own_cols,
            )
            if len(segs):
                lvls.append(float(level))
                blobs.append(segs.tobytes())
        return pa.table({"level": pa.array(lvls, pa.float64()),
                         "seg": pa.array(blobs, pa.binary())})

    segs_ds = grouped.map_groups(per_tile, batch_format="pyarrow")

    def assemble(group: pa.Table) -> pa.Table:
        level = group["level"][0].as_py()
        segs = np.vstack(
            [np.frombuffer(b, dtype=np.float64).reshape(-1, 4)
             for b in group["seg"].to_pylist()]
        )

        def key(p):
            return (round(p[0] / _EPS), round(p[1] / _EPS))

        adj: dict = {}
        for i, s in enumerate(segs):
            adj.setdefault(key(s[:2]), []).append((i, 0))
            adj.setdefault(key(s[2:]), []).append((i, 1))
        used = np.zeros(len(segs), dtype=bool)
        rings = []
        for i in range(len(segs)):
            if used[i]:
                continue
            # walk forward from segment i's end; if we return to its start the
            # chain is a closed ring, else walk the other direction too and
            # report the open polyline
            pts = [segs[i][:2].copy(), segs[i][2:].copy()]
            used[i] = True
            closed = False
            while True:
                nxt = [t for t in adj.get(key(pts[-1]), []) if not used[t[0]]]
                if not nxt:
                    break
                cur, came = nxt[0]
                used[cur] = True
                pts.append(segs[cur][2:].copy() if came == 0 else segs[cur][:2].copy())
                if key(pts[-1]) == key(pts[0]):
                    closed = True
                    break
            if not closed:
                while True:  # extend backwards for open chains
                    nxt = [t for t in adj.get(key(pts[0]), []) if not used[t[0]]]
                    if not nxt:
                        break
                    cur, came = nxt[0]
                    used[cur] = True
                    pts.insert(0, segs[cur][2:].copy() if came == 0 else segs[cur][:2].copy())
            arrp = np.asarray(pts)
            if closed:
                arrp[-1] = arrp[0]  # snap the closure exactly
            rings.append((arrp, closed))
        if close_border:
            opens = [arrp for arrp, c in rings if not c]
            rings = [(arrp, True) for arrp, c in rings if c]
            if opens:
                stitched = _close_chains_on_border(opens, max_x, max_y, _EPS)
                if stitched is None:  # interior endpoint anomaly: keep open
                    rings += [(arrp, False) for arrp in opens]
                else:
                    rings += [(arrp, True) for arrp in stitched]
        out_rings = []
        for arrp, closed in rings:
            xs, ys = arrp[:, 0], arrp[:, 1]
            area = 0.0
            if closed:
                area = abs(np.sum(xs[:-1] * ys[1:] - xs[1:] * ys[:-1])) / 2.0
            length = float(np.hypot(np.diff(xs), np.diff(ys)).sum())
            wkb = encode_linestring(arrp)
            out_rings.append((float(xs.min()), float(ys.min()),
                              len(arrp) - (1 if closed else 0),
                              closed, area, length, wkb))
        rings = sorted(out_rings, key=lambda r: (r[0], r[1]))
        return pa.table(
            {
                "level": pa.array([level] * len(rings), pa.float64()),
                "ring_id": pa.array(np.arange(len(rings), dtype=np.int64)),
                "n_vertices": pa.array([r[2] for r in rings], pa.int64()),
                "closed": pa.array([r[3] for r in rings], pa.bool_()),
                "area_x100": pa.array([int(round(r[4] * 100)) for r in rings], pa.int64()),
                "length_x100": pa.array([int(round(r[5] * 100)) for r in rings], pa.int64()),
                "wkb": pa.array([r[6] for r in rings], pa.binary()),
            }
        )

    return segs_ds.groupby("level").map_groups(assemble, batch_format="pyarrow")


def contour_polygons_interp(tiles_ds, levels, nx: int, ny: int,
                            tile_size: int = 64):
    """gdal_contour -p with INTERPOLATED vertices: each level's suplevel
    region boundary ({v >= level}, border-closed) assembled into WKB
    POLYGONs with holes (reference alg/marching_squares/
    polygon_ring_appender.h emits smooth band rings; band i's region is
    suplevel(level_i) minus suplevel(level_{i+1}), the identity
    contour_band_areas verifies).

    Plan: ``contour_rings(close_border=True)`` (distributed chaining) ->
    per-level nesting of the closed rings by containment parity.  The
    domain exterior is below-level by construction, so rings at even
    containment depth are shells and odd-depth rings are holes of their
    immediate (depth-1, smallest-area) parent.  Per-level ring sets are
    the natural partition grain — a polygon cannot split below ring
    granularity.

    Returns per (level, poly): poly_id ((minx,miny)-ordered), n_holes,
    n_vertices (total incl. holes), area_x100 (shell minus holes), wkb
    (POLYGON, shell CCW / holes CW)."""
    max_x = float(nx * tile_size - 1)
    max_y = float(ny * tile_size - 1)
    rings_ds = contour_rings(tiles_ds, levels, nx, ny, tile_size,
                             close_border=True)
    # corner sample: decides whether the DOMAIN RECTANGLE is an implicit
    # shell (border entirely above-level with no iso-chain touching it —
    # e.g. a below-level basin in an above-level plain).  One tiny filtered
    # read; the level loop below handles per-level parity.
    def corner(t: pa.Table) -> pa.Table:
        m = pa.compute.and_(pa.compute.equal(t["x"], 0),
                            pa.compute.equal(t["y"], 0))
        f = t.filter(m)
        vals = [float(pixels(f, i)[0, 0]) for i in range(f.num_rows)]
        return pa.table({"v": pa.array(vals, pa.float64())})

    cv = tiles_ds.map_batches(corner, batch_format="pyarrow").take_all()
    corner_v = cv[0]["v"] if cv else -np.inf
    rect = np.array([[0.0, 0.0], [max_x, 0.0], [max_x, max_y],
                     [0.0, max_y], [0.0, 0.0]])
    _EPS_B = 1e-9

    def _pip(pt: np.ndarray, ring: np.ndarray) -> bool:
        """Crossing-number point-in-polygon (ring closed, first==last)."""
        x, y = pt
        x0, y0 = ring[:-1, 0], ring[:-1, 1]
        x1, y1 = ring[1:, 0], ring[1:, 1]
        cond = (y0 > y) != (y1 > y)
        with np.errstate(divide="ignore", invalid="ignore"):
            xs = x0 + (y - y0) * (x1 - x0) / (y1 - y0)
        return bool(np.count_nonzero(cond & (x < xs)) & 1)

    def per_level(g: pa.Table) -> pa.Table:
        level = g["level"][0].as_py()
        rings = []
        border_touch = False
        for i in range(g.num_rows):
            if not g["closed"][i].as_py():
                continue  # open anomaly: not part of any polygon
            pts = decode(g["wkb"][i].as_py()).parts[0]  # the closed LINESTRING
            if ((pts[:, 0] < _EPS_B) | (pts[:, 0] > max_x - _EPS_B)
                    | (pts[:, 1] < _EPS_B) | (pts[:, 1] > max_y - _EPS_B)).any():
                border_touch = True
            rings.append(pts)
        if corner_v >= level and not border_touch:
            rings.append(rect)
        n = len(rings)
        depth = np.zeros(n, dtype=np.int64)
        areas = np.empty(n, dtype=np.float64)
        signed = np.empty(n, dtype=np.float64)
        for i, r in enumerate(rings):
            xs, ys = r[:, 0], r[:, 1]
            signed[i] = np.sum(xs[:-1] * ys[1:] - xs[1:] * ys[:-1]) / 2.0
            areas[i] = abs(signed[i])
        for i, r in enumerate(rings):
            probe = (r[0] + r[1]) / 2.0  # edge midpoint: off other rings
            depth[i] = sum(_pip(probe, rings[j]) for j in range(n) if j != i)
        shells = [i for i in range(n) if depth[i] % 2 == 0]
        holes_of: dict = {i: [] for i in shells}
        for i in range(n):
            if depth[i] % 2 == 0:
                continue
            parents = [j for j in shells if depth[j] == depth[i] - 1
                       and areas[j] > areas[i]
                       and _pip((rings[i][0] + rings[i][1]) / 2.0, rings[j])]
            if parents:
                holes_of[min(parents, key=lambda j: areas[j])].append(i)
        out = []
        for si in shells:
            shell = rings[si] if signed[si] > 0 else rings[si][::-1]
            hole_ids = holes_of[si]
            parts = [shell] + [
                rings[h] if signed[h] < 0 else rings[h][::-1]
                for h in hole_ids]
            wkb = encode_polygon(parts)
            nverts = sum(len(p) - 1 for p in parts)
            area = areas[si] - sum(areas[h] for h in hole_ids)
            out.append((float(rings[si][:, 0].min()),
                        float(rings[si][:, 1].min()),
                        len(hole_ids), nverts, area, wkb))
        out.sort(key=lambda r: (r[0], r[1]))
        return pa.table({
            "level": pa.array([level] * len(out), pa.float64()),
            "poly_id": pa.array(np.arange(len(out), dtype=np.int64)),
            "n_holes": pa.array([r[2] for r in out], pa.int64()),
            "n_vertices": pa.array([r[3] for r in out], pa.int64()),
            "area_x100": pa.array([int(round(r[4] * 100)) for r in out],
                                  pa.int64()),
            "wkb": pa.array([r[5] for r in out], pa.binary()),
        })

    return rings_ds.groupby("level").map_groups(per_level,
                                                batch_format="pyarrow")


def contour_polygons(tiles_ds, levels, tile_size: int = 64):
    """gdal_contour -p analogue: POLYGON output between level bands
    (reference: alg/marching_squares/polygon_ring_appender.h).  Pixels are
    classified into bands (band i = values in [levels[i-1], levels[i]), band 0
    below the first level) and the band raster is polygonized with exact
    cross-tile ring assembly incl. interior rings.  Ring vertices lie on pixel
    edges (classification resolution) rather than interpolated level
    crossings — the documented difference from the reference's smooth rings.

    Returns (component, value=band_index, n_pixels, n_holes, hole_pixels,
    wkb)."""
    from .polygonize import polygonize_rings

    lv = np.asarray(levels, dtype=np.float64)

    def band(batch: pa.Table) -> pa.Table:
        rows = []
        for i in range(batch.num_rows):
            arr = pixels(batch, i).astype(np.float64)
            b = np.searchsorted(lv, arr, side="right").astype(np.uint8)
            rows.append(tile_row(batch, i, b))
        return pa.Table.from_pylist(rows)

    banded = tiles_ds.map_batches(band, batch_format="pyarrow")
    # 255 is unreachable as a band index (len(levels) < 255) => no nodata
    return polygonize_rings(banded, nodata=255.0, tile_size=tile_size)


def sieve(tiles_ds, threshold: int, nodata: float = 0.0, connect8: bool = False):
    """Per-tile sieve (documented conservative scope — see module docstring)."""

    def per_tile(batch: pa.Table) -> pa.Table:
        rows = []
        for i in range(batch.num_rows):
            arr = pixels(batch, i).copy()
            labels, n = label_tile(arr, nodata, connect8)
            if n:
                counts = np.bincount(labels[labels >= 0], minlength=n)
                border = np.unique(
                    np.concatenate([labels[0], labels[-1], labels[:, 0], labels[:, -1]])
                )
                border = set(border[border >= 0].tolist())
                for lbl in np.nonzero(counts < threshold)[0]:
                    if lbl in border:
                        continue
                    m = labels == lbl
                    # dominant neighboring value
                    dil = np.zeros_like(m)
                    dil[:-1] |= m[1:]; dil[1:] |= m[:-1]
                    dil[:, :-1] |= m[:, 1:]; dil[:, 1:] |= m[:, :-1]
                    # merge into the dominant VALID neighbor only — nodata
                    # neighbors must not absorb the component (GDAL sieve
                    # merges into the largest real neighbor)
                    ring = dil & ~m & (labels >= 0)
                    if not ring.any():
                        continue
                    vals, vc = np.unique(arr[ring], return_counts=True)
                    if len(vals):
                        arr[m] = vals[np.argmax(vc)]
            rows.append(tile_row(batch, i, arr))
        return pa.Table.from_pylist(rows)

    return tiles_ds.map_batches(per_tile, batch_format="pyarrow")
