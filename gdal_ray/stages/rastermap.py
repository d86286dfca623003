"""Per-tile raster map ops: reclassify, calc (band algebra), scale, cast,
histogram, band statistics, mosaic composition, sieve-lite.

Reference: ``raster reclassify`` (``apps/gdalalg_raster_reclassify.h:27``,
grammar ``frmts/vrt/vrtreclassifier.cpp``), ``raster calc`` (muparser exprs,
``apps/gdalalg_raster_calc.h:29``), scale/set-type (``apps/gdalalg_raster_*``),
band stats ``ComputeStatistics`` (``gcore/gdal_rasterband.h:543-548``,
approx via subsampling when bApproxOK), histogram ``GetHistogram``
(:585), mosaic ``gdalbuildvrt`` / ``raster mosaic`` last-non-nodata compose
(``apps/gdalbuildvrt_lib.cpp``).

All stateless vectorized ``map_batches`` except the final stat merges, which
are exact partial+final reductions (Welford-free: integer-safe n/sum/sumsq).
Tiles are read and written through ``functions.tilerow`` (FIXTURES.md F3).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..functions import checksum as cks
from ..functions.tilerow import bands, dtype_of, paste, pixels, tile_row
from .relational import cogroup


def _tile_sides(layers: list) -> list:
    """``cogroup`` sides of tile Datasets, each in its own schema (narrow
    or wide, FIXTURES.md F3)."""
    return [(ds, ds.schema().base_schema) for ds in layers]


def _tile_rows(tables) -> list:
    """(table, row) of every tile at one key, side by side in list order."""
    return [(t, i) for t in tables for i in range(t.num_rows)]


def _tile_map(fn):
    """Wrap an array->array fn as a per-tile map_batches body."""

    def body(batch: pa.Table) -> pa.Table:
        return pa.Table.from_pylist(
            [tile_row(batch, i, fn(pixels(batch, i))) for i in range(batch.num_rows)])

    return body


def reclassify(tiles_ds, mapping: dict, default=None):
    """Value -> value remap (vrtreclassifier semantics: unmatched values keep
    their value unless default is given)."""
    keys = np.array(sorted(mapping), dtype=np.float64)
    vals = np.array([mapping[k] for k in sorted(mapping)], dtype=np.float64)

    def fn(arr: np.ndarray) -> np.ndarray:
        a = arr.astype(np.float64)
        out = a.copy() if default is None else np.full_like(a, default)
        pos = np.searchsorted(keys, a)
        pos_c = np.clip(pos, 0, len(keys) - 1)
        hit = keys[pos_c] == a
        out[hit] = vals[pos_c[hit]]
        return out.astype(np.float32)

    return tiles_ds.map_batches(_tile_map(fn), batch_format="pyarrow")


_CALC_NS = {
    "abs": np.abs, "sqrt": np.sqrt, "exp": np.exp, "log": np.log,
    "log10": np.log10, "sin": np.sin, "cos": np.cos, "tan": np.tan,
    "minimum": np.minimum, "maximum": np.maximum, "where": np.where,
    "clip": np.clip, "floor": np.floor, "ceil": np.ceil, "round": np.round,
    "pi": np.pi, "e": np.e,
}


def _validate_calc_expr(expr: str, extra_names: set):
    """Shared gdal_calc expression validation: token blacklist + co_names
    whitelist against the numpy namespace and the allowed band variables."""
    if any(tok in expr for tok in ("__", "import", "lambda", ";", "exec", "eval")):
        raise ValueError(f"disallowed token in calc expression: {expr!r}")
    code = compile(expr, "<calc>", "eval")
    for name in code.co_names:
        if name not in _CALC_NS and name not in extra_names:
            raise ValueError(f"unknown name {name!r} in calc expression")
    return code


def compile_calc_expr(expr: str):
    """VRT pixel-function / gdal_calc string expression -> vectorized callable
    (reference surface: VRTDerivedRasterBand pixel functions + gdal_calc's
    expression strings).  The band variable is ``A``; namespace is a fixed
    whitelist of numpy ufuncs — no builtins, no attribute access."""
    code = _validate_calc_expr(expr, {"A"})

    def fn(arr):
        return eval(code, {"__builtins__": {}}, {**_CALC_NS, "A": arr})

    return fn


def calc_multi(stacked_ds, expr: str):
    """gdal_calc with MULTIPLE inputs (-A ... -B ... --calc "A + B"): band
    variables bind by ALPHABET POSITION — A is always band 1, B band 2, ...
    (the gdal_calc -A/-B flag contract), so "C - A" on a 3-band stack reads
    bands 3 and 1.  A letter beyond the stack's band count raises."""
    letters = {chr(ord("A") + i) for i in range(26)}
    code = _validate_calc_expr(expr, letters)
    used = sorted(n for n in code.co_names if n in letters)

    def fn(batch: pa.Table) -> pa.Table:
        rows = []
        for i in range(batch.num_rows):
            arrs = bands(batch, i)
            env = dict(_CALC_NS)
            for letter in used:
                bi = ord(letter) - ord("A")
                if bi >= len(arrs):
                    raise ValueError(
                        f"band variable {letter} needs band {bi + 1}, "
                        f"stack has {len(arrs)}")
                env[letter] = arrs[bi].astype(np.float64)
            out = np.asarray(eval(code, {"__builtins__": {}}, env), dtype=np.float64)
            h, w = arrs[0].shape
            rows.append({
                "z": batch["z"][i].as_py(), "x": batch["x"][i].as_py(),
                "y": batch["y"][i].as_py(), "width": w, "height": h,
                "dtype": "float64", "data": out.tobytes(),
                "checksum": cks.tile_checksum(out),
            })
        return pa.Table.from_pylist(rows)

    return stacked_ds.map_batches(fn, batch_format="pyarrow")


def calc(tiles_ds, expr):
    """Band algebra: expr is a python callable over the tile array OR a
    gdal_calc-style string (e.g. ``"A * 2 + 1"``, ``"where(A > 10, A, 0)"``)
    compiled against a whitelisted numpy namespace."""
    if isinstance(expr, str):
        expr = compile_calc_expr(expr)

    def fn(arr, _e=expr):
        return np.asarray(_e(arr.astype(np.float64)), dtype=np.float32)

    return tiles_ds.map_batches(_tile_map(fn), batch_format="pyarrow")


def scale(tiles_ds, src_min, src_max, dst_min, dst_max):
    k = (dst_max - dst_min) / (src_max - src_min)

    def fn(arr):
        return ((arr.astype(np.float64) - src_min) * k + dst_min).astype(np.float32)

    return tiles_ds.map_batches(_tile_map(fn), batch_format="pyarrow")


def set_type(tiles_ds, dtype_name: str):
    np_dt = dtype_of(dtype_name)

    def fn(arr):
        return arr.astype(np_dt)

    return tiles_ds.map_batches(_tile_map(fn), batch_format="pyarrow")


def band_stats(tiles_ds, sample_fraction: float = 1.0, seed: int = 42) -> dict:
    """Exact (or bApproxOK-style subsampled) band statistics via integer-safe
    partials: (n, sum, sumsq, min, max) per tile -> driver-side merge."""

    def partial(batch: pa.Table) -> pa.Table:
        rows = []
        for i in range(batch.num_rows):
            arr = pixels(batch, i).astype(np.float64).ravel()
            if sample_fraction < 1.0:
                rng = np.random.default_rng(seed + batch["x"][i].as_py() * 7 + batch["y"][i].as_py())
                arr = arr[rng.random(arr.size) < sample_fraction]
            if arr.size == 0:
                continue
            rows.append(
                {
                    "n": int(arr.size),
                    "s": float(arr.sum()),
                    "ss": float((arr * arr).sum()),
                    "mn": float(arr.min()),
                    "mx": float(arr.max()),
                }
            )
        if not rows:
            return pa.table({"n": pa.array([], pa.int64()), "s": pa.array([], pa.float64()),
                             "ss": pa.array([], pa.float64()), "mn": pa.array([], pa.float64()),
                             "mx": pa.array([], pa.float64())})
        return pa.Table.from_pylist(rows)

    parts = tiles_ds.map_batches(partial, batch_format="pyarrow").take_all()
    n = sum(r["n"] for r in parts)
    if n == 0:  # empty dataset or subsample selected nothing
        return {"count": 0, "min": None, "max": None, "mean": None, "std": None}
    s = sum(r["s"] for r in parts)
    ss = sum(r["ss"] for r in parts)
    mean = s / n
    var = max(0.0, ss / n - mean * mean)
    return {
        "count": n,
        "min": min(r["mn"] for r in parts),
        "max": max(r["mx"] for r in parts),
        "mean": mean,
        "std": var ** 0.5,
    }


def histogram(tiles_ds, bins: int, lo: float, hi: float) -> np.ndarray:
    """Distributed GetHistogram: per-tile np.histogram partials -> vector sum."""

    def partial(batch: pa.Table) -> pa.Table:
        acc = np.zeros(bins, dtype=np.int64)
        for i in range(batch.num_rows):
            h, _ = np.histogram(pixels(batch, i).astype(np.float64), bins=bins, range=(lo, hi))
            acc += h
        return pa.table({"hist": pa.array([acc.tobytes()], pa.binary())})

    parts = tiles_ds.map_batches(partial, batch_format="pyarrow").take_all()
    out = np.zeros(bins, dtype=np.int64)
    for r in parts:
        out += np.frombuffer(r["hist"], dtype=np.int64)
    return out


def resize(tiles_ds, out_w: int, out_h: int, resample: str = "nearest"):
    """gdal_translate -outsize per tile: resample each tile to (out_w, out_h)
    with the shared warp tap kernel (nearest | bilinear); pixel centers map
    proportionally (GDAL's overview-style center alignment)."""
    from .pyramid import _grid_sample

    def fn(batch: pa.Table) -> pa.Table:
        rows = []
        for i in range(batch.num_rows):
            arr = pixels(batch, i).astype(np.float64)
            h, w = arr.shape
            px = (np.arange(out_w) + 0.5) * (w / out_w)
            py = (np.arange(out_h) + 0.5) * (h / out_h)
            gpx, gpy = np.meshgrid(px, py)
            nodata = float(batch["nodata"][i].as_py()) if "nodata" in batch.column_names else 0.0
            out = _grid_sample(arr, gpx, gpy, resample, nodata)
            row = {c: batch[c][i].as_py() for c in batch.column_names
                   if c not in ("data", "dtype", "width", "height")}
            row.update({"width": out_w, "height": out_h, "dtype": "float64",
                        "data": out.tobytes(),
                        "checksum": cks.tile_checksum(out)})
            rows.append(row)
        return pa.Table.from_pylist(rows)

    return tiles_ds.map_batches(fn, batch_format="pyarrow")


def clip_window(tiles_ds, x0: int, y0: int, x1: int, y1: int, tile_size: int = 64):
    """gdal_translate -srcwin over the tiled mosaic: keep only the pixels in
    the GLOBAL half-open window [x0,x1) x [y0,y1); tiles fully outside are
    dropped, border tiles are cropped (their x/y stay, width/height shrink,
    plus win_ox/win_oy give the crop's offset within the original tile)."""

    def fn(batch: pa.Table) -> pa.Table:
        rows = []
        for i in range(batch.num_rows):
            arr = pixels(batch, i)
            h, w = arr.shape
            tx = batch["x"][i].as_py()
            ty = batch["y"][i].as_py()
            gx0, gy0 = tx * tile_size, ty * tile_size
            cx0 = max(x0, gx0) - gx0
            cy0 = max(y0, gy0) - gy0
            cx1 = min(x1, gx0 + w) - gx0
            cy1 = min(y1, gy0 + h) - gy0
            if cx1 <= cx0 or cy1 <= cy0:
                continue
            sub = np.ascontiguousarray(arr[cy0:cy1, cx0:cx1])
            row = {c: batch[c][i].as_py() for c in batch.column_names
                   if c not in ("data", "width", "height")}
            row.update({"width": int(cx1 - cx0), "height": int(cy1 - cy0),
                        "win_ox": int(cx0), "win_oy": int(cy0),
                        "data": sub.tobytes(),
                        "checksum": cks.tile_checksum(sub)})
            rows.append(row)
        return pa.Table.from_pylist(rows) if rows else pa.table(
            {"x": pa.array([], pa.int32()), "y": pa.array([], pa.int32()),
             "width": pa.array([], pa.int32()), "height": pa.array([], pa.int32()),
             "win_ox": pa.array([], pa.int64()), "win_oy": pa.array([], pa.int64()),
             "data": pa.array([], pa.binary()), "checksum": pa.array([], pa.int64())}
        )

    return tiles_ds.map_batches(fn, batch_format="pyarrow")


def retile(tiles_ds, tile_size: int, out_size: int, overlap: int,
           nx: int, ny: int):
    """gdal_retile.py with ``-overlap``: re-cut the tiled mosaic into NEW
    tiles of ``out_size`` px whose origins advance by (out_size - overlap),
    so neighboring output tiles share ``overlap`` columns/rows.  Edge tiles
    clip to the mosaic extent (GDAL behavior).

    Ray-Data shape: each input tile flat-maps its pixel block to every
    output tile it intersects (bounded fan-out of ~(1 + out/src)^2 pieces);
    one (i, j)-keyed groupby assembles output tiles — the same
    shuffle-to-owner pattern as the halo exchange, no broadcast."""
    step = out_size - overlap
    if step <= 0:
        raise ValueError("overlap must be smaller than out_size")
    W, H = nx * tile_size, ny * tile_size
    n_out_x = (W - overlap + step - 1) // step
    n_out_y = (H - overlap + step - 1) // step

    def scatter(batch: pa.Table) -> pa.Table:
        rows = []
        for r in range(batch.num_rows):
            arr = pixels(batch, r)
            h, w = arr.shape
            gx0 = batch["x"][r].as_py() * tile_size
            gy0 = batch["y"][r].as_py() * tile_size
            i_min = max(0, (gx0 - out_size) // step + 1)
            i_max = min(n_out_x - 1, (gx0 + w - 1) // step)
            j_min = max(0, (gy0 - out_size) // step + 1)
            j_max = min(n_out_y - 1, (gy0 + h - 1) // step)
            for j in range(j_min, j_max + 1):
                for i in range(i_min, i_max + 1):
                    ox0, oy0 = i * step, j * step
                    ow = min(out_size, W - ox0)
                    oh = min(out_size, H - oy0)
                    sx0 = max(gx0, ox0); sy0 = max(gy0, oy0)
                    sx1 = min(gx0 + w, ox0 + ow); sy1 = min(gy0 + h, oy0 + oh)
                    if sx1 <= sx0 or sy1 <= sy0:
                        continue
                    piece = np.ascontiguousarray(
                        arr[sy0 - gy0:sy1 - gy0, sx0 - gx0:sx1 - gx0])
                    rows.append({
                        "dest": (i << 32) | j, "i": i, "j": j,
                        "ow": ow, "oh": oh,
                        "px": sx0 - ox0, "py": sy0 - oy0,
                        "width": sx1 - sx0, "height": sy1 - sy0,
                        "dtype": piece.dtype.name,
                        "data": piece.tobytes(),
                    })
        return pa.Table.from_pylist(rows) if rows else pa.table(
            {"dest": pa.array([], pa.int64())})

    def assemble(group: pa.Table) -> pa.Table:
        ow = group["ow"][0].as_py()
        oh = group["oh"][0].as_py()
        out = np.zeros((oh, ow), dtype=np.float64)
        for r in range(group.num_rows):
            paste(out, pixels(group, r), group["px"][r].as_py(), group["py"][r].as_py())
        return pa.Table.from_pylist([{
            "x": group["i"][0].as_py(), "y": group["j"][0].as_py(),
            "width": ow, "height": oh, "dtype": "float64",
            "data": out.tobytes(), "checksum": cks.tile_checksum(out),
        }])

    return (tiles_ds.map_batches(scatter, batch_format="pyarrow")
            .groupby("dest").map_groups(assemble, batch_format="pyarrow"))


def as_features(tiles_ds, nodata: float | None = None, tile_size: int = 64):
    """gdal raster as-features (apps/gdalalg_raster_as_features.h:28): one
    row per (valid) pixel with GLOBAL pixel coordinates + value — a pure
    vectorized flat_map, the raster -> tabular bridge."""

    def fn(batch: pa.Table) -> pa.Table:
        gxs, gys, vals = [], [], []
        for i in range(batch.num_rows):
            arr = pixels(batch, i).astype(np.float64)
            h, w = arr.shape
            x = batch["x"][i].as_py()
            y = batch["y"][i].as_py()
            gy, gx = np.mgrid[0:h, 0:w]
            m = np.ones(arr.shape, dtype=bool) if nodata is None else arr != nodata
            gxs.append((gx[m] + x * tile_size).astype(np.int64))
            gys.append((gy[m] + y * tile_size).astype(np.int64))
            vals.append(arr[m])
        if not gxs:
            return pa.table({"gx": pa.array([], pa.int64()), "gy": pa.array([], pa.int64()),
                             "value": pa.array([], pa.float64())})
        return pa.table(
            {"gx": pa.array(np.concatenate(gxs)), "gy": pa.array(np.concatenate(gys)),
             "value": pa.array(np.concatenate(vals))}
        )

    return tiles_ds.map_batches(fn, batch_format="pyarrow")


def color_relief(tiles_ds, stops):
    """gdaldem color-relief (apps/gdaldem_lib.cpp): piecewise-linear color
    ramp over integer-valued rasters.  stops = [(value, r, g, b)] ascending;
    interpolation uses exact integer floor arithmetic
    c = (c0*(v1-v) + c1*(v-v0)) // (v1-v0) — SQL-mirrorable (GDAL rounds;
    the floor convention is documented).  Values below/above the ramp clamp
    to the end colors.  Emits per-tile interleaved RGB + per-band checksums."""
    sv = np.array([s[0] for s in stops], dtype=np.int64)
    sc = np.array([[s[1], s[2], s[3]] for s in stops], dtype=np.int64)

    def fn(batch: pa.Table) -> pa.Table:
        rows = []
        for i in range(batch.num_rows):
            arr = pixels(batch, i)
            v = arr.astype(np.int64)
            h, w = v.shape
            vc = np.clip(v, sv[0], sv[-1])
            seg = np.clip(np.searchsorted(sv, vc, side="right") - 1, 0, len(sv) - 2)
            v0, v1 = sv[seg], sv[seg + 1]
            span = v1 - v0
            rgb = np.empty((h, w, 3), dtype=np.uint8)
            for ch in range(3):
                c0 = sc[seg, ch]
                c1 = sc[seg + 1, ch]
                rgb[:, :, ch] = ((c0 * (v1 - vc) + c1 * (vc - v0)) // span).astype(np.uint8)
            out = tile_row(batch, i, rgb)
            for ch, name in enumerate("rgb"):
                out[f"checksum_{name}"] = cks.tile_checksum(rgb[:, :, ch])
            rows.append(out)
        return pa.Table.from_pylist(rows)

    return tiles_ds.map_batches(fn, batch_format="pyarrow")


def stack_bands(layers: list):
    """gdal_merge -separate / ``gdal raster stack``: one MULTIBAND tile per
    (z, x, y) from N single-band tile datasets, band order = layer-list order
    (apps/gdalalg_raster_stack.h role).  Shuffle key = (z, x, y); per-band
    payloads are concatenated and a band-weighted checksum
    sum((i+1) * cks_i) % 65536 pins both content AND band ordering."""

    def stack(*tables) -> pa.Table:
        rows = _tile_rows(tables)
        wsum = sum((bi + 1) * cks.tile_checksum(pixels(t, i))
                   for bi, (t, i) in enumerate(rows))
        t0 = rows[0][0]
        return pa.Table.from_pylist([{
            "z": t0["z"][0].as_py(), "x": t0["x"][0].as_py(),
            "y": t0["y"][0].as_py(),
            "width": t0["width"][0].as_py(),
            "height": t0["height"][0].as_py(),
            "n_bands": len(rows),
            "dtypes": ",".join(t["dtype"][i].as_py() for t, i in rows),
            "data": b"".join(t["data"][i].as_py() for t, i in rows),
            "checksum": wsum % 65536,
        }])

    return cogroup(_tile_sides(layers), ["z", "x", "y"], stack)


def select_band(stacked_ds, band: int):
    """gdal_translate -b N over stack_bands output: slice one band back out
    of the multiband payload (band is 1-based, GDAL convention)."""
    def fn(batch: pa.Table) -> pa.Table:
        rows = []
        for i in range(batch.num_rows):
            arrs = bands(batch, i)
            if not (1 <= band <= len(arrs)):
                raise ValueError(f"band {band} out of range 1..{len(arrs)}")
            arr = arrs[band - 1]
            rows.append({
                "z": batch["z"][i].as_py(), "x": batch["x"][i].as_py(),
                "y": batch["y"][i].as_py(), "band": band,
                "width": arr.shape[1], "height": arr.shape[0],
                "dtype": arr.dtype.name,
                "data": arr.tobytes(), "checksum": cks.tile_checksum(arr),
            })
        return pa.Table.from_pylist(rows)

    return stacked_ds.map_batches(fn, batch_format="pyarrow")


def mosaic(layers: list, nodata: float = 0.0):
    """Compose N tile datasets: last non-nodata wins per pixel, in layer-list
    order (gdalbuildvrt overlay resolution).  Shuffle key = (z, band, x, y)."""

    def compose(*tables) -> pa.Table:
        (t0, i0), *rest = _tile_rows(tables)
        base = pixels(t0, i0).astype(np.float64)
        for t, i in rest:
            arr = pixels(t, i).astype(np.float64)
            m = arr != nodata
            base[m] = arr[m]
        out = tile_row(t0, i0, base.astype(np.float32))
        out["checksum"] = cks.tile_checksum(base)
        return pa.Table.from_pylist([out])

    # shuffle key = full tile address incl. band (multi-band layers compose
    # per band; no bit-packing so large z/x/y never collide)
    return cogroup(_tile_sides(layers), ["z", "band", "x", "y"], compose)


def mosaic_blend(layers: list, feather: int = 16, nodata: float = 0.0):
    """Density/feather-blended mosaic of overlapping sources — the
    ``alg/gdalwarper.cpp`` density-mask blend (GDALWarpSrcDensityMasker /
    dfDensity weighting) for multi-source compositing, on top of the same
    (z,band,x,y)-keyed shuffle as ``mosaic``.

    ``layers`` = [(tiles_ds, footprint)] with footprint the source's
    half-open global-pixel rect (x0, y0, x1, y1).  Per pixel each source
    gets an INTEGER density d = clamp(min(dist to each footprint edge),
    0, feather) (1 at the edge row, ``feather`` in the interior — GDAL's
    linear alpha ramp quantized to whole pixels), zeroed where the source
    pixel is nodata; the blended value is the density-weighted mean,
    rounded half-up with exact integer arithmetic:

        v = (2 * sum(d_i * v_i) + sum(d_i)) // (2 * sum(d_i))

    so the result is bit-stable and SQL-mirrorable.  Pixels with total
    density 0 become nodata.  Integer sources only (the float path would
    not be order-exact); output int32 + per-tile checksum.
    """
    rects = [tuple(int(v) for v in r) for _, r in layers]
    F = int(feather)

    def blend(*tables) -> pa.Table:
        t0 = next(t for t in tables if t.num_rows)
        h = t0["height"][0].as_py()
        w = t0["width"][0].as_py()
        gy, gx = np.mgrid[0:h, 0:w]
        gx = gx + t0["x"][0].as_py() * w
        gy = gy + t0["y"][0].as_py() * h
        num = np.zeros((h, w), dtype=np.int64)
        den = np.zeros((h, w), dtype=np.int64)
        for (x0, y0, x1, y1), t in zip(rects, tables):
            for i in range(t.num_rows):
                arr = pixels(t, i)
                if arr.dtype.kind not in "iu":
                    raise ValueError("mosaic_blend requires integer sources")
                v = arr.astype(np.int64)
                d = np.minimum.reduce([gx - x0 + 1, x1 - gx, gy - y0 + 1, y1 - gy])
                d = np.clip(d, 0, F)
                d[v == int(nodata)] = 0
                num += d * v
                den += d
        safe = np.maximum(den, 1)
        out = np.where(den > 0, (2 * num + den) // (2 * safe), np.int64(nodata))
        row = tile_row(t0, 0, out.astype(np.int32))
        row["checksum"] = cks.tile_checksum(out)
        return pa.Table.from_pylist([row])

    return cogroup(_tile_sides([ds for ds, _ in layers]),
                   ["z", "band", "x", "y"], blend)


def band_stats_lazy(tiles_ds, stride: int = 1):
    """gdalinfo -stats as a LAZY pipeline (no driver-side merge): exact
    per-tile integer partials (n, sum, sumsq, min, max) -> one tiny keyed
    combine -> scaled-integer stats row.  Requires an integer-valued raster
    so the partials (and hence the mean/std quantization) are bit-stable
    under any reduction order.  Output: (band, n, mn, mx, mean_e6, std_e6).

    ``stride > 1`` = APPROXIMATE statistics by decimated sampling (the
    bApproxOK path of GDALRasterBand::ComputeStatistics,
    gcore/gdal_rasterband.h:543-548 — approximate via overview/subsampling):
    every stride-th pixel per axis, exact over the sample.  Tile sizes must
    be stride-aligned so per-tile slicing equals global-stride sampling."""
    from .relational import partial_aggregate

    def partial(batch: pa.Table) -> pa.Table:
        rows = []
        for i in range(batch.num_rows):
            arr = pixels(batch, i).astype(np.int64)[::stride, ::stride].ravel()
            rows.append({"band": int(batch["band"][i].as_py()),
                         "n": int(arr.size), "s": int(arr.sum()),
                         "ss": int((arr * arr).sum()),
                         "mn": int(arr.min()), "mx": int(arr.max())})
        if not rows:
            return pa.table({c: pa.array([], pa.int64())
                             for c in ("band", "n", "s", "ss", "mn", "mx")})
        return pa.Table.from_pylist(rows)

    agg = partial_aggregate(tiles_ds.map_batches(partial, batch_format="pyarrow"),
                            ["band"], sums=["n", "s", "ss"],
                            mins=["mn"], maxs=["mx"])

    def final(t: pa.Table) -> pa.Table:
        n = t["n_sum"].to_numpy(zero_copy_only=False).astype(np.float64)
        s = t["s_sum"].to_numpy(zero_copy_only=False).astype(np.float64)
        ss = t["ss_sum"].to_numpy(zero_copy_only=False).astype(np.float64)
        mean = s / n
        var = np.maximum(ss / n - mean * mean, 0.0)
        std = np.sqrt(var)
        return pa.table({"band": t["band"],
                         "n": t["n_sum"],
                         "mn": t["mn_min"], "mx": t["mx_max"],
                         "mean_e6": pa.array(np.floor(mean * 1e6 + 0.5).astype(np.int64)),
                         "std_e6": pa.array(np.floor(std * 1e6 + 0.5).astype(np.int64))})

    return agg.map_batches(final, batch_format="pyarrow")


def tile_index(tiles_ds, tile_size: int = 64, global_width: int = 0):
    """gdaltindex / gdalbuildvrt catalog: one footprint row per tile with its
    pixel-space extent and the composable position-weighted checksum (global
    weights when global_width > 0, so the index doubles as a mosaic-integrity
    manifest: per-tile checksums sum mod 65536 to the mosaic checksum)."""

    def fn(batch: pa.Table) -> pa.Table:
        rows = []
        for i in range(batch.num_rows):
            arr = pixels(batch, i)
            h, w = arr.shape
            tx = batch["x"][i].as_py()
            ty = batch["y"][i].as_py()
            rows.append({"x": tx, "y": ty,
                         "minx": tx * tile_size, "miny": ty * tile_size,
                         "maxx": tx * tile_size + w, "maxy": ty * tile_size + h,
                         "checksum": cks.tile_checksum(
                             arr, tx * tile_size, ty * tile_size, global_width)})
        if not rows:
            return pa.table({c: pa.array([], pa.int64())
                             for c in ("x", "y", "minx", "miny", "maxx", "maxy",
                                       "checksum")})
        return pa.Table.from_pylist(rows)

    return tiles_ds.map_batches(fn, batch_format="pyarrow")


def compare(tiles_a, tiles_b, scale_x100: bool = True):
    """gdalcompare-style raster diff (reference ``swig/python/gdal-utils/
    osgeo_utils/gdalcompare.py`` surface): per aligned tile and band
    (``z``, ``x``, ``y``, ``band``), the number of differing pixels, the max
    |delta| (x100 fixed point), and the signed checksum delta.  Tiles pair by a keyed (z, x, y, band) shuffle — neither
    raster is broadcast, so both sides stream at 100 TB.
    """

    def diff(a: pa.Table, b: pa.Table) -> pa.Table:
        if a.num_rows != 1 or b.num_rows != 1:  # unmatched tile: report full difference
            t = a if a.num_rows else b
            return pa.table({
                "z": t["z"][:1], "x": t["x"][:1], "y": t["y"][:1], "band": t["band"][:1],
                "n_diff": pa.array([pixels(t, 0).size], pa.int64()),
                "max_abs_x100": pa.array([-1], pa.int64()),
                "checksum_delta": pa.array([0], pa.int64()),
            })
        av = pixels(a, 0).astype(np.float64)
        bv = pixels(b, 0).astype(np.float64)
        d = bv - av
        n_diff = int(np.count_nonzero(d))
        mx = float(np.abs(d).max()) if d.size else 0.0
        ca, cb = cks.tile_checksum(av), cks.tile_checksum(bv)
        return pa.table({
            "z": a["z"][:1], "x": a["x"][:1], "y": a["y"][:1], "band": a["band"][:1],
            "n_diff": pa.array([n_diff], pa.int64()),
            "max_abs_x100": pa.array(
                [int(np.floor(mx * 100.0 + 0.5)) if scale_x100 else int(mx)],
                pa.int64()),
            "checksum_delta": pa.array([(cb - ca) % 65536], pa.int64()),
        })

    import ray.data as rd

    a = rd.from_arrow(tiles_a) if isinstance(tiles_a, pa.Table) else tiles_a
    b = rd.from_arrow(tiles_b) if isinstance(tiles_b, pa.Table) else tiles_b
    return cogroup(_tile_sides([a, b]), ["z", "x", "y", "band"], diff)


def equalize(tiles_ds, levels: int = 256):
    """Histogram equalization: two-phase global transfer curve
    (the data-driven contrast stretch; gdal_translate -scale analogue with a
    CDF curve, cf. gdal_contrast_stretch of the gdal-utils family).

    Phase 1 streams per-batch value counts (integer rasters) into one tiny
    keyed fold; the CDF lookup table broadcasts to a stateless per-tile remap
    with out = (cdf(v) - cdf_min) * (levels-1) // (n - cdf_min) — pure
    integer floor arithmetic, so the remap is bit-stable.  Emits per-tile
    (x, y, checksum)."""
    from ..functions import checksum as cks

    def partial(batch: pa.Table) -> pa.Table:
        vals_all, cnts_all = [], []
        for i in range(batch.num_rows):
            v, c = np.unique(pixels(batch, i).astype(np.int64), return_counts=True)
            vals_all.append(v)
            cnts_all.append(c)
        if not vals_all:
            return pa.table({"v": pa.array([], pa.int64()),
                             "c": pa.array([], pa.int64())})
        v = np.concatenate(vals_all)
        c = np.concatenate(cnts_all)
        g = pa.table({"v": pa.array(v), "c": pa.array(c)}).group_by("v") \
            .aggregate([("c", "sum")])
        return pa.table({"v": g["v"], "c": g["c_sum"]})

    rows = tiles_ds.map_batches(partial, batch_format="pyarrow") \
                   .groupby("v").sum("c").take_all()
    rows.sort(key=lambda r: r["v"])
    vals = np.array([r["v"] for r in rows], dtype=np.int64)
    cnts = np.array([r["sum(c)"] for r in rows], dtype=np.int64)
    cdf = np.cumsum(cnts)
    n = int(cdf[-1])
    cdfmin = int(cdf[0])
    out_lut = (cdf - cdfmin) * (levels - 1) // max(n - cdfmin, 1)

    def remap(batch: pa.Table) -> pa.Table:
        out_rows = []
        for i in range(batch.num_rows):
            arr = pixels(batch, i).astype(np.int64)
            idx = np.searchsorted(vals, arr)
            out = out_lut[idx]
            out_rows.append({
                "x": int(batch["x"][i].as_py()), "y": int(batch["y"][i].as_py()),
                "checksum": cks.tile_checksum(out),
            })
        return pa.Table.from_pylist(out_rows)

    return tiles_ds.map_batches(remap, batch_format="pyarrow")


def compare_rasters(tiles_a, tiles_b):
    """gdalcompare-style raster diff (reference:
    swig/python/gdal-utils/osgeo_utils/gdalcompare.py compare_image_pixels):
    join the two tile sets on (z, x, y, band), count differing pixels and
    fold max/sum absolute difference — one tile-keyed shuffle, O(1)-row
    result (a per-tile partial per group, whole-table aggregate fold).
    Raises if a tile exists on only one side or shapes mismatch (the
    reference errors on size mismatch before comparing pixels)."""
    from ray.data.aggregate import Max as _Max, Sum as _Sum

    def per_tile(a: pa.Table, b: pa.Table) -> pa.Table:
        if a.num_rows != 1 or b.num_rows != 1:
            t = a if a.num_rows else b
            raise ValueError(
                f"compare_rasters: tile ({t['x'][0].as_py()}, "
                f"{t['y'][0].as_py()}) present on one side only")
        av, bv = pixels(a, 0), pixels(b, 0)
        if av.shape != bv.shape:
            raise ValueError(f"compare_rasters: shape mismatch {av.shape} "
                             f"vs {bv.shape}")
        d = np.abs(av.astype(np.float64) - bv.astype(np.float64))
        return pa.table({
            "n_pixels": pa.array([int(d.size)], pa.int64()),
            "n_diff": pa.array([int((d != 0).sum())], pa.int64()),
            "max_diff": pa.array([float(d.max())], pa.float64()),
            "sum_diff": pa.array([float(d.sum())], pa.float64()),
        })

    parts = cogroup(_tile_sides([tiles_a, tiles_b]), ["z", "x", "y", "band"],
                    per_tile)
    return parts.aggregate(
        _Sum("n_pixels", alias_name="n_pixels"),
        _Sum("n_diff", alias_name="n_diff"),
        _Max("max_diff", alias_name="max_diff"),
        _Sum("sum_diff", alias_name="sum_diff"))


def composite_reduce(layers: list, method: str = "median",
                     nodata: float | None = None):
    """Per-pixel composite across N co-registered single-band layers
    (the gdal_calc multi-input reduce, e.g.
    ``gdal_calc -A a.tif -B b.tif ... --calc "numpy.median(...)"`` — the
    standard EO time-stack composite).  ``method``: median | mean | min |
    max | count_valid; ``nodata`` pixels are excluded per-pixel (a pixel
    with no valid observation emits nodata / count 0).  One (z, x, y)
    keyed shuffle; the reduce is a vectorized (N, h, w) numpy kernel per
    tile; output dtype float64."""
    if method not in ("median", "mean", "min", "max", "count_valid"):
        raise ValueError(method)

    def reduce_tile(*tables) -> pa.Table:
        rows = _tile_rows(tables)
        stack = np.stack([pixels(t, i).astype(np.float64) for t, i in rows])
        h, w = stack.shape[1:]
        if nodata is not None:
            valid = stack != nodata
            nv = valid.sum(axis=0)
            stack = np.where(valid, stack, np.nan)
        else:
            nv = np.full((h, w), len(rows), dtype=np.int64)
        with np.errstate(invalid="ignore"):
            if method == "median":
                out = np.nanmedian(stack, axis=0) if nodata is not None \
                    else np.median(stack, axis=0)
            elif method == "mean":
                out = np.nanmean(stack, axis=0) if nodata is not None \
                    else np.mean(stack, axis=0)
            elif method == "min":
                out = np.nanmin(stack, axis=0) if nodata is not None \
                    else np.min(stack, axis=0)
            elif method == "max":
                out = np.nanmax(stack, axis=0) if nodata is not None \
                    else np.max(stack, axis=0)
            else:
                out = nv.astype(np.float64)
        if nodata is not None and method != "count_valid":
            out = np.where(nv > 0, out, nodata)
        t0 = rows[0][0]
        return pa.Table.from_pylist([{
            "z": t0["z"][0].as_py(), "x": t0["x"][0].as_py(),
            "y": t0["y"][0].as_py(), "width": w, "height": h,
            "dtype": "float64", "data": out.tobytes(),
        }])

    return cogroup(_tile_sides(layers), ["z", "x", "y"], reduce_tile)


def raster_update(dst_tiles, src_tiles, src_nodata: float | None = None):
    """``gdal raster update`` (reference
    ``apps/gdalalg_raster_update.cpp``: warp a source INTO an existing
    raster in place; pixels where the source is nodata leave the
    destination untouched, and the update is clamped to the destination
    extent).  Tile-model form: one (z, x, y, band)-keyed join; destination
    tiles without a source tile pass through untouched, source tiles
    outside the destination grid are dropped, overlapping tiles take source
    pixels wherever they are valid.  Output dtype follows the destination
    (the in-place contract)."""

    def per_tile(dst: pa.Table, src: pa.Table) -> pa.Table:
        if dst.num_rows + src.num_rows == 1:
            return dst  # untouched, or no rows for a source tile outside dst
        if dst.num_rows != 1 or src.num_rows != 1:
            raise ValueError(
                f"raster_update: tile ({dst['x'][0].as_py()}, "
                f"{dst['y'][0].as_py()}) has {dst.num_rows + src.num_rows} "
                "rows; expected one per side")
        d, s = pixels(dst, 0), pixels(src, 0)
        if d.shape != s.shape:
            raise ValueError(f"raster_update: shape mismatch {d.shape} vs "
                             f"{s.shape}")
        nod = (src["nodata"][0].as_py() if src_nodata is None
               else float(src_nodata))
        valid = (s != np.asarray(nod, dtype=s.dtype)) if nod is not None \
            else np.ones(s.shape, bool)
        out = np.where(valid, s.astype(d.dtype), d)
        return dst.set_column(
            dst.schema.get_field_index("data"), "data",
            pa.array([np.ascontiguousarray(out).tobytes()], pa.binary()))

    return cogroup(_tile_sides([dst_tiles, src_tiles]),
                   ["z", "x", "y", "band"], per_tile)


def nodata_to_alpha(tiles_ds, nodata: float | None = None,
                    alpha_band: int = 2):
    """``gdal raster nodata-to-alpha`` (reference
    ``apps/gdalalg_raster_nodata_to_alpha.cpp``): emit an ALPHA band
    alongside each data tile — 0 where the pixel equals nodata, 255
    elsewhere — and clear the data band's nodata marker (the mask now
    carries validity).  Tiles with no nodata value pass through unchanged
    (the reference's all-valid-mask short-circuit)."""
    def per_batch(t: pa.Table) -> pa.Table:
        rows = []
        for i in range(t.num_rows):
            nod = nodata if nodata is not None else t["nodata"][i].as_py()
            row = {c: t[c][i].as_py() for c in t.column_names}
            if nod is None:
                rows.append(row)
                continue
            a = pixels(t, i)
            alpha = np.where(a == np.asarray(nod, dtype=a.dtype),
                             np.uint8(0), np.uint8(255))
            rows.append({**row, "nodata": None})
            rows.append({**tile_row(t, i, alpha), "band": alpha_band, "nodata": None})
        return pa.table(
            {c: pa.array([r[c] for r in rows], t.schema.field(c).type)
             for c in t.column_names})

    return tiles_ds.map_batches(per_batch, batch_format="pyarrow")


def raster_attribute_table(tiles_ds, pixel_area: float = 1.0,
                           area_scale: int = 1):
    """Raster attribute table from a classified raster (reference
    ``gcore/gdal_rat.cpp`` GDALRasterAttributeTable with the usual
    VALUE/COUNT(/AREA) columns — the table ``gdalinfo`` reports for
    thematic rasters and ``gdaldem color-relief`` consumes).

    Per-tile ``np.unique`` partials + ONE keyed fold — O(distinct values)
    rows move, never pixels.  ``pixel_area``: world area per pixel;
    emitted as an exact scaled int64 (``area_scale``) so the fold is
    order-independent."""
    from .relational import partial_aggregate

    def partial(t: pa.Table) -> pa.Table:
        vals, cnts = [], []
        for i in range(t.num_rows):
            v, c = np.unique(pixels(t, i), return_counts=True)
            vals.append(v.astype(np.int64))
            cnts.append(c.astype(np.int64))
        if not vals:
            return pa.table({"value": pa.array([], pa.int64()),
                             "count": pa.array([], pa.int64())})
        return pa.table({"value": pa.array(np.concatenate(vals)),
                         "count": pa.array(np.concatenate(cnts))})

    agg = partial_aggregate(tiles_ds.map_batches(partial,
                                                 batch_format="pyarrow"),
                            ["value"], sums=["count"])

    def finish(t: pa.Table) -> pa.Table:
        c = t["count_sum"].to_numpy(zero_copy_only=False)
        area = np.round(c * pixel_area * area_scale).astype(np.int64)
        return pa.table({"value": t["value"],
                         "count": pa.array(c.astype(np.int64)),
                         "area": pa.array(area)})

    return agg.map_batches(finish, batch_format="pyarrow")
