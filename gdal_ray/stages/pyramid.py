"""Warp (reprojection) + XYZ tile pyramid.

Re-answers ``gdalwarp`` / ``gdal raster tile`` (reference: transformer chain
``alg/gdaltransformer.cpp:2236`` GDALCreateGenImgProjTransformer2, kernel
``alg/gdalwarpkernel.cpp:170-198``, tiling ``apps/gdalalg_raster_tile.cpp:435,
686-688``, overview reduction :2499-2510 and gdal2tiles' per-zoom pools
``gdal2tiles.py:4531-4560``) Ray-Data-first:

  dst tile list (z, x, y) as a Dataset
    -> map_batches(TileWarper): each worker process builds once the composed
       dst-pixel -> dst CRS -> src CRS -> src-pixel transform and holds the
       broadcast source raster; per tile: inverse-transform the pixel-center
       grid, sample nearest/bilinear, checksum
    -> overview zooms: groupby(parent tile) -> map_groups 2x2 average
       reduction, repeated per zoom (each zoom has 4x fewer tiles; this is
       gdal2tiles' per-zoom barrier)

GDAL's memory-limit chunking (``CollectChunkList``) and the 2-thread I/O
overlap disappear: Ray's streaming executor + tile-sized tasks provide both.
The broadcast-source variant covers sources that fit the object store; the
tile-join variant (src tiles shuffled to dst tiles by transformed-bbox cover)
is the 100 TB path and shares the same per-tile kernel.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..functions import checksum as cks
from ..functions import geo
from ..functions.tilerow import paste, pixels
from ..state.session import fetch, map_cached


def _mode_reduce(stack: np.ndarray) -> np.ndarray:
    """Per-pixel mode of a (k, h, w) stack with NaN = absent; ties break to
    the SMALLEST value (deterministic; GDAL's mode tie behavior is
    implementation-defined — ours is documented).  Vectorized: sort along the
    stack axis, count equal-runs, pick the longest (first on ties)."""
    s = np.sort(stack, axis=0)  # NaNs sort to the end
    k = s.shape[0]
    best = s[0].copy()
    best_run = np.ones(s.shape[1:], dtype=np.int64)
    run = np.ones(s.shape[1:], dtype=np.int64)
    for i in range(1, k):
        same = s[i] == s[i - 1]
        run = np.where(same, run + 1, 1)
        better = (~np.isnan(s[i])) & (run > best_run)
        best = np.where(better, s[i], best)
        best_run = np.where(better, run, best_run)
    return best


def _grid_sample(a: np.ndarray, px: np.ndarray, py: np.ndarray, resample: str,
                 nodata: float, valid: np.ndarray | None = None) -> np.ndarray:
    """Shared nearest/bilinear tap math for BOTH warp plans (broadcast
    TileWarper and the tile-join canvas) — one copy keeps the two plans
    bit-identical.  Out-of-bounds taps (or taps on unpopulated canvas cells
    when ``valid`` is given) yield ``nodata``, as do NaN and ±inf
    coordinates.  Every pixel gathers its taps at its flat index, clipped
    where it falls outside, with no compaction: ``ok`` picks the result."""
    if resample not in ("nearest", "bilinear"):
        raise ValueError(resample)
    h, w = a.shape
    if min(h, w) < (1 if resample == "nearest" else 2):  # no pixel has its taps
        return np.full(px.shape, float(nodata))
    flat = a.ravel()
    vf = None if valid is None else valid.ravel()
    # NaN/±inf floor to a garbage int64 that ``ok`` rejects; viewed as
    # uint64, a negative index is too large, so one compare bounds it
    with np.errstate(invalid="ignore"):
        if resample == "nearest":
            cx = np.floor(px).astype(np.int64)
            cy = np.floor(py).astype(np.int64)
            ok = (cx.view(np.uint64) < w) & (cy.view(np.uint64) < h)
            i = cy * w + cx
            if vf is not None:
                ok &= vf.take(i, mode="clip")
            return np.where(ok, flat.take(i, mode="clip"), nodata)
        fx = px - 0.5
        fy = py - 0.5
        flx = np.floor(fx)
        fly = np.floor(fy)
        x0 = flx.astype(np.int64)
        y0 = fly.astype(np.int64)
        tx = fx - flx  # == fx - x0 wherever ok holds
        ty = fy - fly
        ok = (x0.view(np.uint64) < w - 1) & (y0.view(np.uint64) < h - 1)
        i = y0 * w + x0
        # the four taps: flat[i], flat[i + 1], flat[i + w], flat[i + w + 1]
        shifts = (0, 1, w, w + 1)
        if vf is not None:
            for s in shifts:
                ok &= vf[s:].take(i, mode="clip")
        v00, v01, v10, v11 = (flat[s:].take(i, mode="clip") for s in shifts)
        ux = 1 - tx
        uy = 1 - ty
        v = v00 * ux * uy + v01 * tx * uy + v10 * ux * ty + v11 * tx * ty
        return np.where(ok, v, nodata)


class SourceRaster:
    """A single georeferenced source array (EPSG:4326 grid for tests)."""

    def __init__(self, arr: np.ndarray, gt, crs: str = "EPSG:4326", nodata: float = 0.0):
        self.arr = np.asarray(arr, dtype=np.float64)
        self.gt = tuple(gt)
        self.crs = crs
        self.nodata = nodata


class TileWarper:
    """Warp one XYZ (EPSG:3857) tile per call batch row.

    State built once per worker process: the source raster (fetched from the
    object store) and the inverse geotransform — the PROJ-TLS-context pattern
    (ogr/ogr_proj_p.cpp:268)."""

    def __init__(self, src_ref, tile_px: int = 256, resample: str = "nearest",
                 cutline_wkb: bytes | None = None, dst_alpha: bool = False,
                 cache_blocks: int = 64, geoloc=None):
        src = fetch(src_ref)
        self.src = src
        # a block-sharded source gets a per-actor LRU (gdalrasterblock.cpp
        # Touch/FlushBlock role) instead of holding the whole raster: each
        # warped tile reads only its source window through the cache
        from ..state.blockcache import BlockCache, RasterBlockStore

        self.cache = (BlockCache(src, capacity=cache_blocks)
                      if isinstance(src, RasterBlockStore) else None)
        if self.cache is not None and resample not in ("nearest", "bilinear"):
            raise ValueError(
                "block-cached source supports nearest/bilinear point "
                "kernels; pass a SourceRaster for area/cubic warps")
        self.inv_gt = geo.inv_geotransform(src.gt)
        self.tile_px = tile_px
        self.resample = resample
        # cutline masking (alg/gdalwarper.cpp cutline / gdalcutline.cpp): dst
        # pixels whose CENTER falls outside the cutline polygon (src CRS
        # coords) become nodata; dst_alpha additionally emits the validity
        # mask as an 'alpha' band column
        from ..functions import wkb as _wkb

        self.cutline = _wkb.decode(cutline_wkb) if cutline_wkb else None
        self.dst_alpha = dst_alpha
        # geolocation-array georeferencing (gdalwarp -geoloc,
        # alg/gdalgeoloc.cpp): pixel lookup goes through the exact inverse
        # bilinear instead of the affine inverse geotransform.  The
        # transformer (with its CSR quad index) is per-actor state.
        self.geoloc = geoloc
        if geoloc is not None and resample in self._AREA_KERNELS:
            raise ValueError("geoloc georeferencing supports point kernels "
                             "(nearest/bilinear/cubic/...); area kernels "
                             "need an affine source grid")

    def _src_pixels(self, lon: np.ndarray, lat: np.ndarray):
        if self.geoloc is not None:
            px, py = self.geoloc.inverse(*np.broadcast_arrays(lon, lat))
            # outside-every-quad points -> far-out-of-bounds taps (nodata);
            # a finite sentinel keeps block-cache window math NaN-free
            bad = ~(np.isfinite(px) & np.isfinite(py))
            px[bad] = -1e9
            py[bad] = -1e9
            return px, py
        return geo.apply_geotransform(self.inv_gt, lon, lat)

    def _sample(self, lon: np.ndarray, lat: np.ndarray) -> np.ndarray:
        px, py = self._src_pixels(lon, lat)
        if self.cache is not None:
            if self.resample not in ("nearest", "bilinear"):
                raise ValueError(
                    "block-cached source supports nearest/bilinear point "
                    "kernels; pass a SourceRaster for area/cubic warps")
            W, ox, oy = self.cache.window_for(px, py, margin=2)
            if W.size == 0:
                return np.full(px.shape, self.src.nodata)
            return _grid_sample(W, px - ox, py - oy, self.resample,
                                self.src.nodata)
        if self.resample in ("nearest", "bilinear"):
            # GDAL GRA_NearestNeighbour / GRA_Bilinear on pixel centers —
            # shared tap math with the tile-join plan (_grid_sample)
            return _grid_sample(self.src.arr, px, py, self.resample, self.src.nodata)
        if self.resample in ("cubic", "cubicspline", "lanczos"):
            return self._sample_kernel(px, py)
        raise ValueError(f"unknown point-resample kernel {self.resample!r}; "
                         "area kernels (average/mode/...) use _sample_area")

    @staticmethod
    def _cubic_weights(t: np.ndarray):
        """Catmull-Rom (GDAL GRA_Cubic, a=-0.5) weights for offsets -1..2."""
        return (
            ((-0.5 * t + 1.0) * t - 0.5) * t,
            ((1.5 * t - 2.5) * t) * t + 1.0,
            ((-1.5 * t + 2.0) * t + 0.5) * t,
            ((0.5 * t - 0.5) * t) * t,
        )

    @staticmethod
    def _bspline_weights(t: np.ndarray):
        """Cubic B-spline (GRA_CubicSpline) weights for offsets -1..2."""
        t2, t3 = t * t, t * t * t
        return (
            (1.0 - 3.0 * t + 3.0 * t2 - t3) / 6.0,
            (3.0 * t3 - 6.0 * t2 + 4.0) / 6.0,
            (-3.0 * t3 + 3.0 * t2 + 3.0 * t + 1.0) / 6.0,
            t3 / 6.0,
        )

    @staticmethod
    def _lanczos_weights(t: np.ndarray):
        """Lanczos a=3 (GRA_Lanczos) weights for offsets -2..3, normalized."""
        ws = []
        for off in range(-2, 4):
            d = t - off
            x = np.pi * d
            with np.errstate(divide="ignore", invalid="ignore"):
                v = np.where(
                    d == 0, 1.0,
                    3.0 * np.sin(x) * np.sin(x / 3.0) / (x * x)
                )
            ws.append(v)
        s = sum(ws)
        return [v / s for v in ws]

    def _sample_kernel(self, px: np.ndarray, py: np.ndarray) -> np.ndarray:
        """4x4 (cubic/cubicspline) or 6x6 (lanczos) separable convolution on
        pixel centers; taps clamp at the source edge (gdalwarpkernel.cpp
        GWKCubicResample family; edge policy simplified to clamping)."""
        h, w = self.src.arr.shape
        a = self.src.arr
        fx = px - 0.5
        fy = py - 0.5
        x0 = np.floor(fx).astype(np.int64)
        y0 = np.floor(fy).astype(np.int64)
        tx = fx - x0
        ty = fy - y0
        if self.resample == "cubic":
            wx, wy = self._cubic_weights(tx), self._cubic_weights(ty)
            offs = range(-1, 3)
        elif self.resample == "cubicspline":
            wx, wy = self._bspline_weights(tx), self._bspline_weights(ty)
            offs = range(-1, 3)
        else:
            wx, wy = self._lanczos_weights(tx), self._lanczos_weights(ty)
            offs = range(-2, 4)
        out = np.zeros(px.shape)
        for mi, m in enumerate(offs):
            cy = np.clip(y0 + m, 0, h - 1)
            for ni, n in enumerate(offs):
                cx = np.clip(x0 + n, 0, w - 1)
                out = out + wy[mi] * wx[ni] * a[cy, cx]
        ok = (np.floor(px) >= 0) & (np.floor(px) < w) & (np.floor(py) >= 0) & (np.floor(py) < h)
        return np.where(ok, out, self.src.nodata)

    _AREA_KERNELS = ("average", "sum", "min", "max", "rms", "mode", "med", "q1", "q3")

    def _sample_area(self, corner_px: np.ndarray, corner_py: np.ndarray) -> np.ndarray:
        """Area kernels (GRA_Average/Sum/Min/Max/RMS/Mode/Med/Q1/Q3): each dst
        pixel aggregates the source pixels whose CENTERS fall inside its
        source-space footprint rectangle (corner grids are (t+1, t+1)).
        Falls back to nearest when the footprint covers no center."""
        t = corner_px.shape[0] - 1
        h, w = self.src.arr.shape
        a = self.src.arr
        pxmin = np.minimum.reduce([corner_px[:-1, :-1], corner_px[:-1, 1:],
                                   corner_px[1:, :-1], corner_px[1:, 1:]])
        pxmax = np.maximum.reduce([corner_px[:-1, :-1], corner_px[:-1, 1:],
                                   corner_px[1:, :-1], corner_px[1:, 1:]])
        pymin = np.minimum.reduce([corner_py[:-1, :-1], corner_py[:-1, 1:],
                                   corner_py[1:, :-1], corner_py[1:, 1:]])
        pymax = np.maximum.reduce([corner_py[:-1, :-1], corner_py[:-1, 1:],
                                   corner_py[1:, :-1], corner_py[1:, 1:]])
        # covered centers: c + 0.5 in [pmin, pmax)  <=>  c in [ceil(pmin-0.5),
        # ceil(pmax-0.5) - 1]
        xs = np.ceil(pxmin - 0.5).astype(np.int64)
        xe = np.ceil(pxmax - 0.5).astype(np.int64)  # exclusive
        ys = np.ceil(pymin - 0.5).astype(np.int64)
        ye = np.ceil(pymax - 0.5).astype(np.int64)
        kx = max(1, int((xe - xs).max()))
        ky = max(1, int((ye - ys).max()))
        need_stack = self.resample in ("mode", "med", "q1", "q3")
        layers = [] if need_stack else None
        cnt = np.zeros((t, t))
        acc = np.zeros((t, t))
        amin = np.full((t, t), np.inf)
        amax = np.full((t, t), -np.inf)
        for dy in range(ky):
            cy = ys + dy
            vy = (cy < ye) & (cy >= 0) & (cy < h)
            cyc = np.clip(cy, 0, h - 1)
            for dx in range(kx):
                cx = xs + dx
                v = vy & (cx < xe) & (cx >= 0) & (cx < w)
                cxc = np.clip(cx, 0, w - 1)
                val = a[cyc, cxc]
                if need_stack:
                    layers.append(np.where(v, val, np.nan))
                cnt += v
                if self.resample == "rms":
                    acc += np.where(v, val * val, 0.0)
                else:
                    acc += np.where(v, val, 0.0)
                amin = np.where(v & (val < amin), val, amin)
                amax = np.where(v & (val > amax), val, amax)
        empty = cnt == 0
        if self.resample == "average":
            out = acc / np.maximum(cnt, 1)
        elif self.resample == "sum":
            out = acc
        elif self.resample == "rms":
            out = np.sqrt(acc / np.maximum(cnt, 1))
        elif self.resample == "min":
            out = amin
        elif self.resample == "max":
            out = amax
        else:
            stack = np.stack(layers)
            if self.resample == "mode":
                out = _mode_reduce(stack)
            else:
                q = {"med": 50.0, "q1": 25.0, "q3": 75.0}[self.resample]
                with np.errstate(all="ignore"):
                    out = np.nanpercentile(stack, q, axis=0)
        if empty.any():
            # nearest fallback at the footprint centers
            cpx = (pxmin + pxmax) / 2.0
            cpy = (pymin + pymax) / 2.0
            cx = np.clip(np.floor(cpx).astype(np.int64), 0, w - 1)
            cy = np.clip(np.floor(cpy).astype(np.int64), 0, h - 1)
            inb = (np.floor(cpx) >= 0) & (np.floor(cpx) < w) & \
                  (np.floor(cpy) >= 0) & (np.floor(cpy) < h)
            out = np.where(empty, np.where(inb, a[cy, cx], self.src.nodata), out)
        return out

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        zs = batch["z"].to_numpy(zero_copy_only=False)
        xs = batch["x"].to_numpy(zero_copy_only=False)
        ys = batch["y"].to_numpy(zero_copy_only=False)
        datas, sums, blanks, alphas = [], [], [], []
        t = self.tile_px
        for i in range(n):
            z, x, y = int(zs[i]), int(xs[i]), int(ys[i])
            minx, miny, maxx, maxy = geo.tile_bounds_mercator(
                z, np.array([x]), np.array([y])
            )
            res = (maxx[0] - minx[0]) / t
            # pixel centres: a row of columns against a column of rows
            mx = minx[0] + (np.arange(t) + 0.5) * res
            my = maxy[0] - (np.arange(t) + 0.5) * res
            lon, lat = geo.mercator_to_lonlat(mx[None, :], my[:, None])
            if self.resample in self._AREA_KERNELS:
                # corner grid (t+1 x t+1) -> per-pixel source footprints
                cmx = minx[0] + np.arange(t + 1) * res
                cmy = maxy[0] - np.arange(t + 1) * res
                clon, clat = geo.mercator_to_lonlat(cmx[None, :], cmy[:, None])
                cpx, cpy = geo.apply_geotransform(self.inv_gt, clon, clat)
                arr = self._sample_area(cpx, cpy)
            else:
                arr = self._sample(lon, lat)
            if self.cutline is not None or self.dst_alpha:
                from ..functions import pip as _pip

                valid = arr != self.src.nodata
                if self.cutline is not None:
                    inside = _pip.points_in_geom(
                        *(g.ravel() for g in np.broadcast_arrays(lon, lat)),
                        self.cutline).reshape(t, t)
                    arr = np.where(inside, arr, self.src.nodata)
                    valid &= inside
                if self.dst_alpha:
                    alphas.append((valid.astype(np.uint8) * 255).tobytes())
            blank = bool(np.all(arr == self.src.nodata))
            datas.append(arr.tobytes())
            sums.append(cks.tile_checksum(arr))
            blanks.append(blank)
        return pa.table(
            {
                "z": batch["z"],
                "x": batch["x"],
                "y": batch["y"],
                # full tile contract (FIXTURES F3) so warp output chains into
                # the rastermap/focal operators directly
                "band": pa.array([1] * n, pa.int8()),
                "width": pa.array([t] * n, pa.int32()),
                "height": pa.array([t] * n, pa.int32()),
                "crs": pa.array(["EPSG:3857"] * n),
                "nodata": pa.array([self.src.nodata] * n, pa.float64()),
                "dtype": pa.array(["float64"] * n),
                "data": pa.array(datas, pa.binary()),
                "checksum": pa.array(sums, pa.int64()),
                "blank": pa.array(blanks, pa.bool_()),
                **({"alpha": pa.array(alphas, pa.binary())} if self.dst_alpha else {}),
            }
        )


def enumerate_tiles(z: int, lon_min, lat_min, lon_max, lat_max) -> pa.Table:
    """Dst tile list covering a lon/lat bbox at zoom z
    (GetTileIndices, apps/gdalalg_raster_tile.cpp:435)."""
    x0, y1 = geo.lonlat_to_tile(np.array([lon_min]), np.array([lat_min]), z)
    x1, y0 = geo.lonlat_to_tile(np.array([lon_max]), np.array([lat_max]), z)
    xs = np.arange(int(x0[0]), int(x1[0]) + 1)
    ys = np.arange(int(y0[0]), int(y1[0]) + 1)
    gx, gy = np.meshgrid(xs, ys)
    nn = gx.size
    return pa.table(
        {
            "z": pa.array(np.full(nn, z, dtype=np.int16)),
            "x": pa.array(gx.ravel().astype(np.int32)),
            "y": pa.array(gy.ravel().astype(np.int32)),
        }
    )


def warp_to_tiles(
    src: SourceRaster,
    z: int,
    bbox,
    tile_px: int = 256,
    resample: str = "nearest",
    skip_blank: bool = True,
    cutline_wkb: bytes | None = None,
    dst_alpha: bool = False,
    geoloc=None,
):
    """Base-zoom warp: dst tile Dataset -> cached warp kernel.
    ``geoloc``: GeolocTransformer for geolocation-array-referenced sources
    (gdalwarp -geoloc, alg/gdalgeoloc.cpp) — ships to the workers with the
    source."""
    import ray
    import ray.data as rd

    tiles = rd.from_arrow(enumerate_tiles(z, *bbox))
    out = map_cached(tiles, TileWarper, ray.put(src), tile_px, resample, cutline_wkb,
                     dst_alpha, 64, geoloc, batch_format="pyarrow")
    if skip_blank:
        out = out.map_batches(
            lambda t: t.filter(pa.compute.equal(t["blank"], False)), batch_format="pyarrow"
        )
    return out


def _overview_reduce(arr: np.ndarray, kernel: str) -> np.ndarray:
    """2x2 block reduction kernels (gcore/overview.cpp family: average,
    nearest, mode, min, max, sum, rms).  Mode ties break to the smallest
    value (see _mode_reduce)."""
    t = arr.shape[0]
    blocks = arr.reshape(t // 2, 2, t // 2, 2)
    if kernel == "average":
        return blocks.mean(axis=(1, 3))
    if kernel == "nearest":
        return arr[::2, ::2]
    if kernel == "min":
        return blocks.min(axis=(1, 3))
    if kernel == "max":
        return blocks.max(axis=(1, 3))
    if kernel == "sum":
        return blocks.sum(axis=(1, 3))
    if kernel == "rms":
        return np.sqrt((blocks * blocks).sum(axis=(1, 3)) / 4.0)
    if kernel == "mode":
        stack = np.stack([blocks[:, a, :, b] for a in range(2) for b in range(2)])
        return _mode_reduce(stack)
    raise ValueError(f"unknown overview kernel {kernel!r}")


def _reduce_quads(group: pa.Table, nodata: float, reduce) -> tuple:
    """(z, x, y, pixels) of the parent of ``group``'s child tiles (rows
    keyed by ``parent``, the packed parent x, y): a float64 tile as wide as
    the first child, each child ``reduce``d 2x2 into its quadrant, and the
    quadrants with no child tile holding ``nodata``, not fabricated zeros."""
    parent = int(group["parent"][0].as_py())
    t = int(group["width"][0].as_py())
    out = np.full((t, t), nodata, dtype=np.float64)
    for i in range(group.num_rows):
        paste(out, reduce(pixels(group, i)), (group["x"][i].as_py() % 2) * (t // 2),
              (group["y"][i].as_py() % 2) * (t // 2))
    return int(group["z"][0].as_py()) - 1, parent >> 32, parent & 0xFFFFFFFF, out


def warp_tiles_join(
    src_tiles_ds,
    src_gt,
    z: int,
    tile_px: int = 256,
    resample: str = "nearest",
    src_tile_size: int = 256,
    nodata: float = 0.0,
):
    """The 100 TB warp plan: the source is a TILE DATASET, not a broadcast
    array.  Each src tile flat_maps to the dst (z, x, y) tiles its
    transformed bbox covers; ``groupby(dst tile)`` assembles the needed
    source window from the shuffled tiles and runs the same sampling kernels
    as ``TileWarper`` (SURVEY §2.9 "tile-join variant"; reference chunking
    role: alg/gdalwarpoperation.cpp ComputeSourceWindow).

    Src tiles: rows (x, y, width, height, dtype, data) on the ``src_gt``
    EPSG:4326 grid (global pixel (0,0) at gt origin).  Supports nearest and
    bilinear.  Emits the same schema as TileWarper incl. checksums."""
    if resample not in ("nearest", "bilinear"):
        raise ValueError("warp_tiles_join supports nearest|bilinear")
    inv_gt = geo.inv_geotransform(src_gt)

    def expand(batch: pa.Table) -> pa.Table:
        rows = []
        for i in range(batch.num_rows):
            sx = batch["x"][i].as_py()
            sy = batch["y"][i].as_py()
            w = batch["width"][i].as_py()
            h = batch["height"][i].as_py()
            px0, py0 = sx * src_tile_size, sy * src_tile_size
            # src tile corner coords in src CRS (lon/lat)
            cx = np.array([px0, px0 + w, px0, px0 + w], dtype=np.float64)
            cy = np.array([py0, py0, py0 + h, py0 + h], dtype=np.float64)
            lon, lat = geo.apply_geotransform(src_gt, cx, cy)
            lat = np.clip(lat, -geo.MAX_MERC_LAT, geo.MAX_MERC_LAT)
            tx, ty = geo.lonlat_to_tile(lon, lat, z)
            # bilinear taps can reach just outside the bbox; nearest cannot —
            # no pad there (the pad multiplies shuffled bytes up to 9x)
            pad = 1 if resample == "bilinear" else 0
            for dty in range(int(ty.min()) - pad, int(ty.max()) + pad + 1):
                for dtx in range(int(tx.min()) - pad, int(tx.max()) + pad + 1):
                    if not (0 <= dtx < (1 << z) and 0 <= dty < (1 << z)):
                        continue
                    rows.append(
                        {"dst": (dtx << 32) | dty, "sx": sx, "sy": sy,
                         "width": w, "height": h, "dtype": batch["dtype"][i].as_py(),
                         "data": batch["data"][i].as_py()}
                    )
        return pa.Table.from_pylist(rows) if rows else pa.Table.from_pylist(
            [{"dst": -1, "sx": 0, "sy": 0, "width": 0, "height": 0, "dtype": "uint8",
              "data": b""}]
        )

    _EMPTY = pa.table(
        {"z": pa.array([], pa.int16()), "x": pa.array([], pa.int32()),
         "y": pa.array([], pa.int32()), "band": pa.array([], pa.int8()),
         "width": pa.array([], pa.int32()), "height": pa.array([], pa.int32()),
         "crs": pa.array([], pa.string()), "nodata": pa.array([], pa.float64()),
         "dtype": pa.array([], pa.string()), "data": pa.array([], pa.binary()),
         "checksum": pa.array([], pa.int64()), "blank": pa.array([], pa.bool_())}
    )

    def warp_group(group: pa.Table) -> pa.Table:
        dst = int(group["dst"][0].as_py())
        if dst < 0:
            return _EMPTY  # placeholder group — same schema as real tiles
        dtx, dty = dst >> 32, dst & 0xFFFFFFFF
        t = tile_px
        minx, miny, maxx, maxy = geo.tile_bounds_mercator(
            z, np.array([dtx]), np.array([dty])
        )
        res = (maxx[0] - minx[0]) / t
        mx = minx[0] + (np.arange(t) + 0.5) * res
        my = maxy[0] - (np.arange(t) + 0.5) * res
        gmx, gmy = np.meshgrid(mx, my)
        lon, lat = geo.mercator_to_lonlat(gmx, gmy)
        px, py = geo.apply_geotransform(inv_gt, lon, lat)
        # assemble the source window canvas covering the sample taps
        x_lo = int(np.floor(px.min())) - 2
        x_hi = int(np.floor(px.max())) + 3
        y_lo = int(np.floor(py.min())) - 2
        y_hi = int(np.floor(py.max())) + 3
        canvas = np.full((y_hi - y_lo, x_hi - x_lo), nodata, dtype=np.float64)
        covered = np.zeros(canvas.shape, dtype=bool)
        for i in range(group.num_rows):
            paste(canvas, pixels(group, i), group["sx"][i].as_py() * src_tile_size - x_lo,
                  group["sy"][i].as_py() * src_tile_size - y_lo, covered)
        # SAME kernel math as TileWarper via the shared _grid_sample, shifted
        # into canvas coords (x_lo/y_lo are integers, so floor/frac are
        # bit-identical); 'covered' marks populated canvas cells
        arr_out = _grid_sample(canvas, px - x_lo, py - y_lo, resample, nodata,
                               valid=covered)
        return pa.table(
            {
                "z": pa.array([z], pa.int16()),
                "x": pa.array([dtx], pa.int32()),
                "y": pa.array([dty], pa.int32()),
                "band": pa.array([1], pa.int8()),
                "width": pa.array([t], pa.int32()),
                "height": pa.array([t], pa.int32()),
                "crs": pa.array(["EPSG:3857"]),
                "nodata": pa.array([nodata], pa.float64()),
                "dtype": pa.array(["float64"]),
                "data": pa.array([arr_out.tobytes()], pa.binary()),
                "checksum": pa.array([cks.tile_checksum(arr_out)], pa.int64()),
                "blank": pa.array([bool(np.all(arr_out == nodata))]),
            }
        )

    expanded = src_tiles_ds.map_batches(expand, batch_format="pyarrow")
    return expanded.groupby("dst").map_groups(warp_group, batch_format="pyarrow")


def build_overview(tiles_ds, tile_px: int = 256, kernel: str = "average"):
    """One pyramid step: children (z, x, y) -> parents (z-1, x//2, y//2) by
    2x2 block reduction (gdal2tiles' per-zoom reduction, :4548-4560;
    kernels per gcore/overview.cpp: average | nearest | mode | min | max |
    sum | rms)."""

    def tag_parent(batch: pa.Table) -> pa.Table:
        x = batch["x"].to_numpy(zero_copy_only=False)
        y = batch["y"].to_numpy(zero_copy_only=False)
        return batch.append_column(
            "parent", pa.array((x // 2).astype(np.int64) << 32 | (y // 2).astype(np.int64))
        )

    tagged = tiles_ds.map_batches(tag_parent, batch_format="pyarrow")

    def reduce_parent(group: pa.Table) -> pa.Table:
        nodata = float(group["nodata"][0].as_py()) if "nodata" in group.column_names else 0.0
        z, px_, py_, out = _reduce_quads(group, nodata,
                                         lambda a: _overview_reduce(a, kernel))
        t = out.shape[0]
        return pa.table(
            {
                "z": pa.array([z], pa.int16()),
                "x": pa.array([px_], pa.int32()),
                "y": pa.array([py_], pa.int32()),
                "band": pa.array([1], pa.int8()),
                "width": pa.array([t], pa.int32()),
                "height": pa.array([t], pa.int32()),
                "crs": pa.array(["EPSG:3857"]),
                "nodata": pa.array([nodata], pa.float64()),
                "dtype": pa.array(["float64"]),
                "data": pa.array([out.tobytes()], pa.binary()),
                "checksum": pa.array([cks.tile_checksum(out)], pa.int64()),
                "blank": pa.array([bool(np.all(out == nodata))]),
            }
        )

    # group by (child z, parent) so mixed-zoom datasets never merge levels
    return tagged.groupby(["z", "parent"]).map_groups(reduce_parent, batch_format="pyarrow")


def tile_pyramid(src: SourceRaster, z_max: int, z_min: int, bbox,
                 overview_kernel: str = "average", **kwargs):
    """Full pyramid: warp base zoom, then reduce per zoom (each zoom is a
    groupby barrier over 4x fewer tiles).  Returns dict z -> Dataset."""
    out = {z_max: warp_to_tiles(src, z_max, bbox, skip_blank=False, **kwargs)}
    for z in range(z_max - 1, z_min - 1, -1):
        out[z] = build_overview(out[z + 1], kernel=overview_kernel)
    return out


class AffineWarper:
    """Warp dst tiles of an ARBITRARY affine target grid
    (gdalwarp -te/-tr/-ts surface, apps/gdalwarp_lib.cpp) — generalizes
    TileWarper from XYZ mercator tiles to any destination geotransform.
    ``dst_crs`` 'EPSG:3857' converts dst coords to the source's EPSG:4326
    before the inverse geotransform; None means dst grid is in src CRS."""

    def __init__(self, src_ref, dst_gt, resample: str = "bilinear",
                 dst_crs: str | None = None):
        src = fetch(src_ref)
        self.src = src
        self.inv_gt = geo.inv_geotransform(src.gt)
        self.dst_gt = tuple(dst_gt)
        self.resample = resample
        self.dst_crs = dst_crs

    def __call__(self, batch: pa.Table) -> pa.Table:
        rows = []
        g = self.dst_gt
        for i in range(batch.num_rows):
            x0 = batch["px0"][i].as_py()
            y0 = batch["py0"][i].as_py()
            w = batch["w"][i].as_py()
            h = batch["h"][i].as_py()
            cols, rws = np.meshgrid(x0 + np.arange(w) + 0.5,
                                    y0 + np.arange(h) + 0.5)
            dx = g[0] + cols * g[1] + rws * g[2]
            dy = g[3] + cols * g[4] + rws * g[5]
            if self.dst_crs and self.dst_crs != self.src.crs:
                # round 5: ANY routed CRS pair — dispatches through
                # geo.reproject_points (closed forms for the legacy
                # 3857<->4326 pair, so existing oracles stay bit-identical;
                # arbitrary registry codes incl. datum shifts otherwise)
                dx, dy = geo.reproject_points(dx, dy, self.dst_crs,
                                              self.src.crs)
            px, py = geo.apply_geotransform(self.inv_gt, dx, dy)
            arr = _grid_sample(self.src.arr, px, py, self.resample,
                               self.src.nodata)
            rows.append({
                "z": 0, "x": batch["tx"][i].as_py(), "y": batch["ty"][i].as_py(),
                "band": 1,
                "width": w, "height": h, "crs": self.dst_crs or self.src.crs,
                "nodata": float(self.src.nodata), "dtype": "float64",
                "data": arr.tobytes(),
                "checksum": cks.tile_checksum(arr),
                "blank": bool(np.all(arr == self.src.nodata)),
            })
        return pa.Table.from_pylist(rows)


def warp_affine(src: SourceRaster, dst_gt, width: int, height: int,
                resample: str = "bilinear", tile: int = 64,
                dst_crs: str | None = None):
    """Warp to an arbitrary affine destination grid: the dst raster tiles
    into ``tile``-sized pieces (distributed; edge tiles clip), each warped
    by a worker holding the broadcast source."""
    import ray
    import ray.data as rd

    rows = [
        {"px0": tx * tile, "py0": ty * tile, "tx": tx, "ty": ty,
         "w": min(tile, width - tx * tile), "h": min(tile, height - ty * tile)}
        for ty in range((height + tile - 1) // tile)
        for tx in range((width + tile - 1) // tile)
    ]
    return map_cached(rd.from_arrow(pa.Table.from_pylist(rows)), AffineWarper,
                      ray.put(src), dst_gt, resample, dst_crs, batch_format="pyarrow")


def refresh_overviews(tiles_ds, dirty_xy, kernel: str = "average"):
    """Refresh overview tiles whose base quad changed (``gdal raster
    overview refresh`` / ``gdaladdo --refresh``, reference
    ``apps/gdalalg_raster_overview_refresh.cpp``): only parents of DIRTY
    base tiles recompute; clean children still feed their quad, so the
    filter keeps every child of an affected parent.

    ``dirty_xy``: iterable of (x, y) base-tile indices — the update
    footprint (O(updated region), metadata-sized, shipped by closure).
    Accepts any tile dtype (the general tile schema, unlike
    ``build_overview``'s float64 pyramid rows); output parents are
    float64 with the same (z-1, x//2, y//2) keying."""
    parents = {(int(x) // 2, int(y) // 2) for x, y in dirty_xy}
    if not parents:
        raise ValueError("refresh_overviews: empty dirty set")

    def pick(batch: pa.Table) -> pa.Table:
        x = batch["x"].to_numpy(zero_copy_only=False)
        y = batch["y"].to_numpy(zero_copy_only=False)
        keep = np.array([(int(a) // 2, int(b) // 2) in parents
                         for a, b in zip(x, y)], dtype=bool)
        out = batch.filter(pa.array(keep))
        px = out["x"].to_numpy(zero_copy_only=False) // 2
        py = out["y"].to_numpy(zero_copy_only=False) // 2
        return out.append_column(
            "parent", pa.array((px.astype(np.int64) << 32)
                               | py.astype(np.int64)))

    tagged = tiles_ds.map_batches(pick, batch_format="pyarrow")

    def reduce_parent(group: pa.Table) -> pa.Table:
        nod = group["nodata"][0].as_py()
        nod = 0.0 if nod is None else float(nod)
        z, px_, py_, out = _reduce_quads(
            group, nod, lambda a: _overview_reduce(a.astype(np.float64), kernel))
        t = out.shape[0]
        return pa.table({
            "z": pa.array([z], pa.int64()),
            "x": pa.array([px_], pa.int64()),
            "y": pa.array([py_], pa.int64()),
            "band": pa.array([1], pa.int64()),
            "width": pa.array([t], pa.int64()),
            "height": pa.array([t], pa.int64()),
            "crs": pa.array([group["crs"][0].as_py()]),
            "nodata": pa.array([nod], pa.float64()),
            "dtype": pa.array(["float64"]),
            "data": pa.array([out.tobytes()], pa.binary()),
        })

    return tagged.groupby("parent").map_groups(reduce_parent,
                                               batch_format="pyarrow")
