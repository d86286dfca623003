"""Fill-nodata interpolation + median-cut palette learning + dithering.

- ``fill_nodata``: inverse-distance fill of nodata pixels from valid pixels
  within a window (reference: ``alg/rasterfill.cpp`` — IDW + smoothing).
  Distributed through the one halo exchange, ``focal._halo_exchange``, at
  width K = max_dist; the halo of a missing neighbor holds ``nodata``.
- ``learn_palette`` / ``apply_palette``: median-cut color quantization
  (reference: ``alg/gdalmediancut.cpp``) as the two-phase pattern of SURVEY
  §2.3: a global color-histogram aggregate (shuffle on bucketed colors) ->
  driver-side cut -> palette broadcast to a stateless remap ``map_batches``
  (+ optional Floyd-Steinberg-free ordered dithering, ``alg/gdaldither.cpp``
  analogue).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..functions.tilerow import pixels
from .focal import _assemble_padded, _halo_exchange


def fill_nodata(tiles_ds, nodata: float = 0.0, max_dist: int = 8):
    """IDW fill of nodata pixels from valid pixels within max_dist (chebyshev
    window).  Halo = max_dist pixels through ``focal._halo_exchange``; where
    a neighbor tile is missing the halo holds ``nodata``.  max_dist may not
    exceed a neighbor tile's width or height (raises ValueError)."""
    K = max_dist

    def fill_group(group: pa.Table) -> pa.Table:
        pad, xy, wh = _assemble_padded(group, K, fill=nodata)
        if pad is None:
            # schema-pinned empty (a zero-COLUMN table makes Ray log
            # RefBundle schema-mismatch warnings and would break if enforced)
            return pa.table(
                {"z": pa.array([], pa.int64()), "x": pa.array([], pa.int64()),
                 "y": pa.array([], pa.int64()), "band": pa.array([], pa.int64()),
                 "width": pa.array([], pa.int64()),
                 "height": pa.array([], pa.int64()),
                 "crs": pa.array([], pa.string()),
                 "nodata": pa.array([], pa.float64()),
                 "dtype": pa.array([], pa.string()),
                 "data": pa.array([], pa.binary())}
            )
        (x, y), (w, h) = xy, wh
        body = pad[K : K + h, K : K + w]
        out = body.copy()
        holes = np.argwhere(body == nodata)
        if holes.size:
            dy, dx = np.mgrid[-K : K + 1, -K : K + 1]
            d2 = (dx * dx + dy * dy).astype(np.float64).ravel()
            wgt = np.where(d2 > 0, 1.0 / d2, 0.0)
            for r, c in holes:
                win = pad[r : r + 2 * K + 1, c : c + 2 * K + 1].ravel()
                valid = win != nodata
                ws = wgt[valid].sum()
                if ws > 0:
                    out[r, c] = (win[valid] * wgt[valid]).sum() / ws
        # full tile contract so the output chains into other tile stages
        return pa.Table.from_pylist(
            [{"z": 0, "x": x, "y": y, "band": 1, "width": w, "height": h,
              "crs": "EPSG:3857", "nodata": nodata, "dtype": "float64",
              "data": out.tobytes()}]
        )

    return _halo_exchange(tiles_ds, K).map_groups(fill_group, batch_format="pyarrow")


def pansharpen(ms_tiles_ds, pan_scale: int = 2, weights=(1 / 3, 1 / 3, 1 / 3)):
    """Weighted-Brovey pansharpening (reference: ``alg/gdalpansharpen.cpp``):
    out_band = ms_band * pan / pseudo_pan, where pseudo_pan is the weighted
    band sum upsampled to pan resolution.  Input tiles carry interleaved RGB
    uint8 in ``data`` plus a ``pan`` binary column (w*scale x h*scale float64)
    — co-registered per tile, so the op is a stateless per-tile map."""
    w0, w1, w2 = weights

    def fn(batch: pa.Table) -> pa.Table:
        rows = []
        for i in range(batch.num_rows):
            h = batch["height"][i].as_py()
            w = batch["width"][i].as_py()
            rgb = np.frombuffer(batch["data"][i].as_py(), dtype=np.uint8).reshape(h, w, 3)
            pan = np.frombuffer(batch["pan"][i].as_py(), dtype=np.float64).reshape(
                h * pan_scale, w * pan_scale
            )
            up = rgb.astype(np.float64).repeat(pan_scale, axis=0).repeat(pan_scale, axis=1)
            pseudo = up[:, :, 0] * w0 + up[:, :, 1] * w1 + up[:, :, 2] * w2
            ratio = np.where(pseudo > 0, pan / np.where(pseudo == 0, 1, pseudo), 0.0)
            out = np.clip(up * ratio[:, :, None], 0, 255).astype(np.uint8)
            rows.append(
                {"x": batch["x"][i].as_py(), "y": batch["y"][i].as_py(),
                 "width": w * pan_scale, "height": h * pan_scale,
                 "data": out.tobytes()}
            )
        return pa.Table.from_pylist(rows)

    return ms_tiles_ds.map_batches(fn, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Median-cut palette
# ---------------------------------------------------------------------------


def color_histogram(tiles_ds, bits: int = 5):
    """Global (r, g, b)-bucket histogram: per-tile partial bincount vectors ->
    driver merge.  Tiles must carry 3 bands as interleaved uint8 triples in
    ``data`` (w*h*3 bytes)."""
    nb = 1 << bits
    size = nb ** 3

    def partial(batch: pa.Table) -> pa.Table:
        acc = np.zeros(size, dtype=np.int64)
        for i in range(batch.num_rows):
            h = batch["height"][i].as_py()
            w = batch["width"][i].as_py()
            rgb = np.frombuffer(batch["data"][i].as_py(), dtype=np.uint8).reshape(h * w, 3)
            q = (rgb >> (8 - bits)).astype(np.int64)
            code = (q[:, 0] << (2 * bits)) | (q[:, 1] << bits) | q[:, 2]
            acc += np.bincount(code, minlength=size)
        return pa.table({"hist": pa.array([acc.tobytes()], pa.binary())})

    parts = tiles_ds.map_batches(partial, batch_format="pyarrow").take_all()
    out = np.zeros(size, dtype=np.int64)
    for r in parts:
        out += np.frombuffer(r["hist"], dtype=np.int64)
    return out


def median_cut(hist: np.ndarray, n_colors: int = 16, bits: int = 5) -> np.ndarray:
    """Driver-side median cut over the bucket histogram -> (n, 3) uint8
    palette (gdalmediancut.cpp role)."""
    nb = 1 << bits
    codes = np.nonzero(hist)[0]
    counts = hist[codes]
    pts = np.column_stack([codes >> (2 * bits), (codes >> bits) & (nb - 1), codes & (nb - 1)])
    boxes = [(pts, counts)]
    while len(boxes) < n_colors:
        # split the box with the largest population along its widest axis
        pops = [c.sum() for _, c in boxes]
        spreads = [p.max(axis=0) - p.min(axis=0) if len(p) > 1 else np.zeros(3) for p, _ in boxes]
        cand = [i for i in range(len(boxes)) if len(boxes[i][0]) > 1]
        if not cand:
            break
        bi = max(cand, key=lambda i: pops[i] * (max(spreads[i]) + 1))
        p, c = boxes.pop(bi)
        ax = int(np.argmax(p.max(axis=0) - p.min(axis=0)))
        order = np.argsort(p[:, ax], kind="stable")
        p, c = p[order], c[order]
        cum = np.cumsum(c)
        half = int(np.searchsorted(cum, cum[-1] / 2)) + 1
        half = min(max(half, 1), len(p) - 1)
        boxes.append((p[:half], c[:half]))
        boxes.append((p[half:], c[half:]))
    pal = []
    scale = 256 // nb
    for p, c in boxes:
        avg = (p * c[:, None]).sum(axis=0) / c.sum()
        pal.append(np.clip(avg * scale + scale / 2, 0, 255))
    return np.array(pal, dtype=np.uint8)


def expand_palette(tiles_ds, palette: np.ndarray):
    """pct2rgb: palette-index tiles -> RGB tiles via a palette lookup (the
    inverse of apply_palette; re-answers the reference's pct2rgb /
    color-table expansion, swig/python/gdal-utils pct2rgb).  The palette is
    at most 256 entries, so it ships inside each task."""
    pal = np.asarray(palette, dtype=np.uint8)

    def expand(batch: pa.Table) -> pa.Table:
        rows = []
        for i in range(batch.num_rows):
            h = batch["height"][i].as_py()
            w = batch["width"][i].as_py()
            idx = np.frombuffer(batch["data"][i].as_py(), dtype=np.uint8)
            rgb = pal[idx]  # (h*w, 3) fancy-index expansion
            rows.append(
                {"x": batch["x"][i].as_py(), "y": batch["y"][i].as_py(),
                 "width": w, "height": h, "data": rgb.tobytes()}
            )
        return pa.Table.from_pylist(rows)

    return tiles_ds.map_batches(expand, batch_format="pyarrow")


def apply_palette(tiles_ds, palette: np.ndarray):
    """Palette -> nearest-color remap per tile (stateless map; the palette
    ships inside each task); emits single-band palette-index tiles."""
    pal = np.asarray(palette, dtype=np.float64)

    def remap(batch: pa.Table) -> pa.Table:
        rows = []
        for i in range(batch.num_rows):
            h = batch["height"][i].as_py()
            w = batch["width"][i].as_py()
            rgb = np.frombuffer(batch["data"][i].as_py(), dtype=np.uint8).reshape(h * w, 3)
            d2 = ((rgb[:, None, :].astype(np.float64) - pal[None, :, :]) ** 2).sum(axis=2)
            idx = np.argmin(d2, axis=1).astype(np.uint8)
            rows.append(
                {"x": batch["x"][i].as_py(), "y": batch["y"][i].as_py(),
                 "width": w, "height": h, "data": idx.tobytes()}
            )
        return pa.Table.from_pylist(rows)

    return tiles_ds.map_batches(remap, batch_format="pyarrow")


# -- ordered dithering (rgb2pct -dither analogue) -----------------------------

# standard recursive Bayer construction: B2 = [[0,2],[3,1]], B_{2n} = 4*Bn (+)
BAYER8 = np.array(
    [[0, 32, 8, 40, 2, 34, 10, 42],
     [48, 16, 56, 24, 50, 18, 58, 26],
     [12, 44, 4, 36, 14, 46, 6, 38],
     [60, 28, 52, 20, 62, 30, 54, 22],
     [3, 35, 11, 43, 1, 33, 9, 41],
     [51, 19, 59, 27, 49, 17, 57, 25],
     [15, 47, 7, 39, 13, 45, 5, 37],
     [63, 31, 55, 23, 61, 29, 53, 21]], dtype=np.int64)


def dither_ordered(tiles_ds, palette, spread: int = 24,
                   tile_w: int | None = None, tile_h: int | None = None):
    """Ordered (Bayer 8x8) dithering to a fixed gray palette.

    The reference dithers with Floyd-Steinberg error diffusion
    (``alg/gdaldither.cpp:5-24``, error split 2/6 right + 1/6+rem+1/6 next
    line), whose scanline error carry is inherently sequential whole-image —
    the reference itself runs it single-threaded.  The tile-parallel
    equivalent is the ordered threshold matrix: per-pixel deterministic, so
    tiling cannot change any output pixel.  Integer-exact:

        adj64 = 64*v + (2*B(gx%8, gy%8) - 63) * spread
        out   = argmin_p |adj64 - 64*palette[p]|   (ties -> smallest index)

    Emits per-tile palette-index histograms (x, y, idx, n) — the exact,
    order-invariant golden.  Requires uniform tile sizes (global pixel
    coordinate = tile_index * width + col): pass ``tile_w``/``tile_h`` to
    pin the expected shape, else the first tile seen per batch pins it; a
    ragged mosaic fails loudly instead of producing a wrong Bayer phase.
    """
    pal = np.asarray(palette, dtype=np.int64)

    def fn(batch: pa.Table) -> pa.Table:
        exp_w, exp_h = tile_w, tile_h
        rows = []
        for i in range(batch.num_rows):
            h = batch["height"][i].as_py()
            w = batch["width"][i].as_py()
            if exp_w is None:
                exp_w, exp_h = w, h
            elif (w, h) != (exp_w, exp_h):
                raise ValueError(
                    f"dither_ordered requires uniform tile sizes: tile "
                    f"({batch['x'][i].as_py()},{batch['y'][i].as_py()}) is "
                    f"{w}x{h}, expected {exp_w}x{exp_h} — the Bayer phase "
                    f"gy+ty*h would be wrong on a ragged mosaic"
                )
            v = pixels(batch, i).astype(np.int64)
            tx = batch["x"][i].as_py()
            ty = batch["y"][i].as_py()
            gy, gx = np.mgrid[0:h, 0:w]
            b = BAYER8[(gy + ty * h) % 8, (gx + tx * w) % 8]
            adj = 64 * v + (2 * b - 63) * spread
            d = np.abs(adj[:, :, None] - 64 * pal[None, None, :])
            idx = np.argmin(d, axis=2)  # argmin takes FIRST min = smallest idx
            n = np.bincount(idx.ravel(), minlength=pal.size)
            nz = np.flatnonzero(n)
            for j in nz:
                rows.append({"x": tx, "y": ty, "idx": int(j), "n": int(n[j])})
        return pa.Table.from_pylist(rows)

    return tiles_ds.map_batches(fn, batch_format="pyarrow")


# -- Floyd-Steinberg error diffusion (rgb2pct default; round-4) ---------------


def _fs_rows(band: np.ndarray, pal: np.ndarray, err_in: np.ndarray):
    """Sequential FS over one row band (exact alg/gdaldither.cpp:584-596
    single-band analog): returns (palette-index array, bottom error vector).

    Per pixel: v = clamp(pixel + carry_below + carry_right); idx = nearest
    palette entry (ties -> smallest index); e = v - pal[idx]; sixth = e / 6
    with C TRUNCATION toward zero; right += 2*sixth, below-left += sixth,
    below += e - 5*sixth, below-right = sixth (assigned, not accumulated —
    the reference writes panError[i*3+6] = nSixth)."""
    h, w = band.shape
    idx_out = np.empty((h, w), np.int64)
    err = err_in.astype(np.int64).copy()  # w+2, offset by 1
    for y in range(h):
        nxt = np.zeros(w + 2, np.int64)
        last = 0
        row = band[y]
        for x in range(w):
            v = int(row[x]) + int(err[x + 1])
            v = 0 if v < 0 else (255 if v > 255 else v)
            v += last
            v = 0 if v < 0 else (255 if v > 255 else v)
            j = int(np.argmin(np.abs(pal - v)))
            idx_out[y, x] = j
            e = v - int(pal[j])
            # exact C truncation toward zero (e / 6 in the reference)
            sixth = -((-e) // 6) if e < 0 else e // 6
            nxt[x] += sixth          # below-left
            nxt[x + 2] = sixth       # below-right (assigned)
            nxt[x + 1] += e - 5 * sixth  # below (+ remainder)
            last = 2 * sixth         # right
        err = nxt
    return idx_out, err


def dither_floyd_steinberg(tiles_ds, palette, nx: int, ny: int,
                           tile_size: int = 64):
    """Floyd-Steinberg error diffusion to a gray palette — EXACT
    ``alg/gdaldither.cpp`` semantics (error split right 2*(e/6), below-left
    e/6, below e-5*(e/6), below-right e/6, C truncation, clamped carries),
    which the ordered-Bayer ``dither_ordered`` documents as its known gap.

    Distributed shape: FS's scanline error carry is inherently sequential
    (the reference runs it single-threaded), so the mosaic runs as a
    ROW-BAND PIPELINE of raw Ray tasks — the one place the Dataset API
    can't express the dependency: band k is one task that assembles its
    tile row, diffuses its rows, and ships ONLY the (W+2)-int bottom error
    vector to band k+1.  Pixels never transit the driver; driver state is
    O(W) + the per-tile histograms.  Parallelism comes from pipelining
    successive MOSAICS/bands' assembly against diffusion, not within one
    raster — exactly the reference's own constraint.

    Output: per-tile palette-index histograms (x, y, idx, n), the same
    golden shape as ``dither_ordered``."""
    import ray

    pal = np.asarray(palette, dtype=np.int64)

    def assemble(g: pa.Table) -> pa.Table:
        ty = int(g["y"][0].as_py())
        xs = g["x"].to_numpy(zero_copy_only=False)
        order = np.argsort(xs)
        h = int(g["height"][0].as_py())
        w_total = int(sum(g["width"][i].as_py() for i in range(g.num_rows)))
        band = np.zeros((h, w_total), np.int64)
        x0 = 0
        widths = []
        for i in order:
            w_ = int(g["width"][int(i)].as_py())
            band[:, x0:x0 + w_] = pixels(g, int(i))
            x0 += w_
            widths.append(w_)
        return pa.table({
            "y": pa.array([ty], pa.int64()),
            "height": pa.array([h], pa.int64()),
            "widths": pa.array([np.asarray(widths, np.int64).tobytes()],
                               pa.binary()),
            "band": pa.array([band.astype(np.int16).tobytes()], pa.binary()),
        })

    bands = tiles_ds.groupby("y").map_groups(
        assemble, batch_format="pyarrow").materialize()
    blocks = bands.to_arrow_refs()

    @ray.remote
    def block_meta(tbl: pa.Table):
        return [(int(tbl["y"][i].as_py()), i) for i in range(tbl.num_rows)]

    @ray.remote
    def pick_band(tbl: pa.Table, row: int):
        return (int(tbl["y"][row].as_py()), int(tbl["height"][row].as_py()),
                np.frombuffer(tbl["widths"][row].as_py(), np.int64),
                tbl["band"][row].as_py())

    @ray.remote(num_returns=2)
    def fs_band(band_tuple, err_vec, pal_):
        ty, h, widths, raw = band_tuple
        w_total = int(widths.sum())
        band = np.frombuffer(raw, np.int16).reshape(h, w_total).astype(np.int64)
        idx, err_out = _fs_rows(band, pal_, err_vec)
        # per-tile histograms
        out = []
        x0 = 0
        for tx, w_ in enumerate(widths):
            sub = idx[:, x0:x0 + int(w_)]
            n = np.bincount(sub.ravel(), minlength=len(pal_))
            for j in np.flatnonzero(n):
                out.append((tx, ty, int(j), int(n[j])))
            x0 += int(w_)
        return out, err_out

    meta = []
    for bi, blk in enumerate(blocks):
        for ty, row in ray.get(block_meta.remote(blk)):
            meta.append((ty, bi, row))
    meta.sort()
    if not meta:
        return pa.table({"x": pa.array([], pa.int64()),
                         "y": pa.array([], pa.int64()),
                         "idx": pa.array([], pa.int64()),
                         "n": pa.array([], pa.int64())})
    first_w = None
    hist_refs = []
    err = None
    for ty, bi, row in meta:
        band_ref = pick_band.remote(blocks[bi], row)
        if err is None:
            # width from the first band (cheap metadata fetch)
            _ty, _h, widths, _ = ray.get(band_ref)
            first_w = int(widths.sum())
            err = ray.put(np.zeros(first_w + 2, np.int64))
            band_ref = pick_band.remote(blocks[bi], row)
        hist, err = fs_band.remote(band_ref, err, pal)
        hist_refs.append(hist)
    rows = [r for h in ray.get(hist_refs) for r in h]
    return pa.table({
        "x": pa.array([r[0] for r in rows], pa.int64()),
        "y": pa.array([r[1] for r in rows], pa.int64()),
        "idx": pa.array([r[2] for r in rows], pa.int64()),
        "n": pa.array([r[3] for r in rows], pa.int64()),
    })
