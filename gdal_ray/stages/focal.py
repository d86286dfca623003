"""Focal (neighborhood) raster ops: hillshade, slope, aspect, TRI, TPI,
roughness — the gdaldem family.

Reference: generic 3x3 engine ``GDALGeneric3x3Processing``
``apps/gdaldem_lib.cpp:321`` with Horn kernels (hillshade :812, slope,
aspect); ``raster neighbors`` ``apps/gdalalg_raster_neighbors.h:29``.

Ray-Data shape (SURVEY §2.10): tiles need a 1-pixel halo.  The one halo
exchange of width k, ``_halo_exchange``, flat_maps each tile to its body
plus up to 8 border pieces, each a tile row in the tile's own dtype keyed
by the neighbor that needs it and tagged with the sender's offset (dx, dy);
``groupby(tile).map_groups`` assembles the padded array
(``_assemble_padded``, every piece placed by ``tilerow.paste``) and runs
the numpy stencil.  Edge pixels of the mosaic use edge-replication (GDAL's
``-compute_edges`` behavior).  contour and ``fillpalette.fill_nodata``
(k = max_dist, nodata-filled) use the same exchange.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..functions import checksum as cks
from ..functions import tilerow


_HALO_ROWS = pa.schema([("dest", pa.int64()), ("dx", pa.int8()), ("dy", pa.int8()),
                        ("data", pa.binary()), ("dtype", pa.string()),
                        ("width", pa.int32()), ("height", pa.int32())])


def _halo_exchange(tiles_ds, k: int = 1):
    """The one halo exchange: every tile ships its body to itself and, to
    each of its 8 neighbours, the k-pixel border piece that neighbour's
    padded window needs, as F3 pixel rows (``data``, ``dtype``, ``height``,
    ``width``) in the tile's own dtype.  A row is keyed by ``dest``, the
    packed (x, y) of the tile that receives it, and tagged with the offset
    (``dx``, ``dy``) of the sending tile from the receiving one.  Returns
    the rows grouped by ``dest``."""
    # the part of a sender at offset d (-1, 0, 1) along an axis that the
    # receiver needs: its last k, all, or its first k rows / columns
    cut = (slice(-k, None), slice(None), slice(None, k))

    def expand(batch: pa.Table) -> pa.Table:
        rows = []
        for i in range(batch.num_rows):
            x = batch["x"][i].as_py()
            y = batch["y"][i].as_py()
            arr = tilerow.pixels(batch, i)
            for dy in (-1, 0, 1):
                for dx in (-1, 0, 1):
                    if x - dx < 0 or y - dy < 0:
                        continue  # no tile there; avoids dest-key collapse at -1
                    part = arr[cut[dy + 1], cut[dx + 1]]
                    rows.append({"dest": (x - dx) << 32 | (y - dy), "dx": dx, "dy": dy,
                                 "data": part.tobytes(), "dtype": arr.dtype.name,
                                 "width": part.shape[1], "height": part.shape[0]})
        return pa.Table.from_pylist(rows, schema=_HALO_ROWS)

    return tiles_ds.map_batches(expand, batch_format="pyarrow").groupby("dest")


def _band(d: int, k: int, n: int) -> slice:
    """The rows (or columns) of a padded window before (d = -1), along
    (0) or after (1) a body n long, with a k-pixel halo."""
    return (slice(0, k), slice(k, k + n), slice(k + n, 2 * k + n))[d + 1]


def _assemble_padded(group: pa.Table, k: int = 1, fill: float | None = None):
    """(pad, (x, y), (w, h)): the float64 (h + 2k, w + 2k) window of one
    ``_halo_exchange`` group, each piece pasted where its offset puts it.
    Where a neighbour is missing the halo holds ``fill``, or with
    ``fill=None`` replicates the edge, as ``np.pad(mosaic, mode="edge")``
    does at the mosaic's edge.  (None, None, None) when the group has no
    body (pieces sent to a tile that does not exist).  Raises when a
    neighbour tile is narrower than k along its offset."""
    offsets = list(zip(group["dx"].to_pylist(), group["dy"].to_pylist()))
    if (0, 0) not in offsets:
        return None, None, None
    body = tilerow.pixels(group, offsets.index((0, 0))).astype(np.float64)
    h, w = body.shape
    if fill is None:
        pad = np.pad(body, k, mode="edge")
    else:
        pad = np.pad(body, k, constant_values=fill)
    for j, (dx, dy) in enumerate(offsets):
        part = tilerow.pixels(group, j)
        if (dx and part.shape[1] < k) or (dy and part.shape[0] < k):
            # no tile beyond the 8 neighbours is shipped, so the window
            # would miss the pixels of a tile two away
            raise ValueError(f"a {k}-pixel halo is wider than the "
                             f"{part.shape[1]}x{part.shape[0]} neighbour tile")
        tilerow.paste(pad, part, k + (-part.shape[1], 0, w)[dx + 1],
                      k + (-part.shape[0], 0, h)[dy + 1])
    # edge mode, missing diagonal neighbour: replicate the side piece that
    # arrived, left/right first, else keep np.pad's copy of the body corner
    for dy, dx in ((-1, -1), (-1, 1), (1, -1), (1, 1)) if fill is None else ():
        if (dx, dy) in offsets:
            continue
        rows, cols = _band(dy, k, h), _band(dx, k, w)
        if (dx, 0) in offsets:
            pad[rows, cols] = pad[k if dy < 0 else k + h - 1, cols]
        elif (0, dy) in offsets:
            pad[rows, cols] = pad[rows, k if dx < 0 else k + w - 1][:, None]
    x, y = divmod(group["dest"][0].as_py(), 1 << 32)
    return pad, (x, y), (w, h)


def _horn_gradients(pad: np.ndarray, res: float):
    """Horn 3x3 gradient (the gdaldem kernel)."""
    a = pad[:-2, :-2]; b = pad[:-2, 1:-1]; c = pad[:-2, 2:]
    d = pad[1:-1, :-2]; f = pad[1:-1, 2:]
    g = pad[2:, :-2]; h = pad[2:, 1:-1]; i = pad[2:, 2:]
    dzdx = ((c + 2 * f + i) - (a + 2 * d + g)) / (8 * res)
    dzdy = ((g + 2 * h + i) - (a + 2 * b + c)) / (8 * res)
    return dzdx, dzdy


def _zt_gradients(pad: np.ndarray, res: float):
    """Zevenbergen-Thorne central-difference gradient (gdaldem ``-alg
    ZevenbergenThorne``, apps/gdaldem_lib.cpp:1390,1482: dx from the E/W
    middle pair, dy from the N/S middle pair, z-factor 1/2 vs Horn's 1/8)."""
    b = pad[:-2, 1:-1]; d = pad[1:-1, :-2]
    f = pad[1:-1, 2:]; h = pad[2:, 1:-1]
    dzdx = (f - d) / (2 * res)
    dzdy = (h - b) / (2 * res)
    return dzdx, dzdy


def _apply_alg(pad: np.ndarray, alg: str, res: float, z_factor: float,
               azimuth: float, altitude: float) -> np.ndarray:
    center = pad[1:-1, 1:-1]
    if alg in ("slope_pct", "slope_pct_zt"):
        # gdaldem slope -p: percent slope = 100 * tan = 100 * |grad|
        # (np.sqrt of the exact squared sum so the SQL sqrt mirror is
        # bit-identical; np.hypot may differ in the last ulp)
        grad_fn = _zt_gradients if alg.endswith("_zt") else _horn_gradients
        dzdx, dzdy = grad_fn(pad, res)
        return 100.0 * np.sqrt(dzdx * dzdx + dzdy * dzdy)
    base, _, grad = alg.partition("_")
    zt = grad == "zt"
    grad_fn = _zt_gradients if zt else _horn_gradients
    if base in ("hillshade", "slope", "aspect"):
        dzdx, dzdy = grad_fn(pad * z_factor if base == "hillshade" else pad, res)
        if base == "slope":
            return np.degrees(np.arctan(np.hypot(dzdx, dzdy)))
        if base == "aspect":
            asp = np.degrees(np.arctan2(dzdy, -dzdx))
            asp = np.where(asp < 0, 90.0 - asp, np.where(asp > 90.0, 360.0 - asp + 90.0, 90.0 - asp))
            return asp
        slope_r = np.arctan(np.hypot(dzdx, dzdy))
        az = np.radians(360.0 - azimuth + 90.0)
        alt = np.radians(altitude)
        asp_r = np.arctan2(dzdy, -dzdx)
        shade = np.sin(alt) * np.cos(slope_r) + np.cos(alt) * np.sin(slope_r) * np.cos(az - asp_r)
        return np.clip(shade * 254.0 + 1.0, 1.0, 255.0)
    if base in ("combined", "multidirectional", "igor"):
        return _apply_shading_variant(pad, base, grad_fn, res, z_factor, azimuth, altitude)
    # windowed stats on the 3x3 neighborhood
    stack = np.stack([pad[dy : dy + pad.shape[0] - 2, dx : dx + pad.shape[1] - 2]
                      for dy in range(3) for dx in range(3)])
    if alg == "tri":  # mean abs diff from center (Wilson)
        return np.abs(stack - center).sum(axis=0) / 8.0
    if alg == "tri_riley":  # sqrt of sum of squared diffs (Riley et al. 1999,
        # the reference's default TRI alg, apps/gdaldem_lib.cpp GDALTriAlg)
        return np.sqrt(((stack - center) ** 2).sum(axis=0))
    if alg == "tpi":  # center minus neighbor mean
        return center - (stack.sum(axis=0) - center) / 8.0
    if alg == "roughness":
        return stack.max(axis=0) - stack.min(axis=0)
    raise ValueError(alg)


def _apply_shading_variant(pad: np.ndarray, mode: str, grad_fn, res: float,
                           z_factor: float, azimuth: float, altitude: float) -> np.ndarray:
    """gdaldem hillshade ``-combined`` / ``-multidirectional`` / ``-igor``
    (apps/gdaldem_lib.cpp:1151, :1010 (USGS OF 92-422 weights), :947).

    Works in the classic x = -dzdx, y = -dzdy convention (z folded into the
    gradients), which is algebraically identical to the reference's
    normalized-numerator form: numerator/sqrt(1+m^2) with
    numerator = sin(alt) + cos(alt)*(x*sin(az_math) + y*cos? ...) — verified
    term-by-term against the az=225/270/315/360 specializations."""
    dzdx, dzdy = grad_fn(pad * z_factor, res)
    x = -dzdx
    y = -dzdy
    m2 = x * x + y * y
    alt = np.radians(altitude)
    sin_alt = np.sin(alt)
    cos_alt = np.cos(alt)
    inv_len = 1.0 / np.sqrt(1.0 + m2)
    if mode == "combined":
        # cang = 1 - acos(shade_norm) * slope_rad / (pi/2)^2 (gdaldem_lib.cpp:1172)
        az_math = np.radians(360.0 - azimuth + 90.0)
        asp = np.arctan2(dzdy, -dzdx)
        shade = (sin_alt + cos_alt * np.sqrt(m2) * np.cos(az_math - asp)) * inv_len
        cang = 1.0 - np.arccos(np.clip(shade, -1.0, 1.0)) * np.arctan(np.sqrt(m2)) \
            * (4.0 / (np.pi * np.pi))
        return np.where(cang <= 0.0, 1.0, 1.0 + 254.0 * cang)
    if mode == "multidirectional":
        # weights sin^2(aspect - az) for az in {225, 270, 315, 360}, each
        # directional shade clamped at 0 before weighting
        c225 = np.cos(np.radians(225.0))
        v225 = np.maximum(sin_alt + cos_alt * (x - y) * c225, 0.0)
        v270 = np.maximum(sin_alt - cos_alt * x, 0.0)
        v315 = np.maximum(sin_alt + cos_alt * (x + y) * c225, 0.0)
        v360 = np.maximum(sin_alt - cos_alt * y, 0.0)
        w225 = 0.5 * m2 - x * y
        w270 = x * x
        w315 = 0.5 * m2 + x * y
        w360 = y * y
        num = w225 * v225 + w270 * v270 + w315 * v315 + w360 * v360
        with np.errstate(invalid="ignore", divide="ignore"):
            shade = np.where(m2 == 0.0, sin_alt, 0.5 * num / np.where(m2 == 0.0, 1.0, m2) * inv_len)
        return 1.0 + 254.0 * shade
    if mode == "igor":
        slope_strength = np.degrees(np.arctan(np.sqrt(m2))) / 90.0
        asp = np.arctan2(dzdy, -dzdx)
        target = 1.5 * np.pi - np.radians(azimuth)
        two_pi = 2.0 * np.pi
        diff = np.abs(np.mod(asp, two_pi) - np.mod(target, two_pi))
        diff = np.where(diff > np.pi, two_pi - diff, diff)
        aspect_strength = 1.0 - diff / np.pi
        return 255.0 * (1.0 - slope_strength * aspect_strength)
    raise ValueError(mode)


def focal(
    tiles_ds,
    alg: str = "hillshade",
    res: float = 1.0,
    z_factor: float = 1.0,
    azimuth: float = 315.0,
    altitude: float = 45.0,
):
    """Distributed gdaldem-style focal op.  Returns tile rows (x, y, data
    float64 bytes, checksum)."""
    grouped = _halo_exchange(tiles_ds)

    def run(group: pa.Table) -> pa.Table:
        pad, xy, wh = _assemble_padded(group)
        if pad is None:  # halo strips sent to a tile that doesn't exist
            return pa.table({"x": pa.array([], pa.int32()), "y": pa.array([], pa.int32()),
                             "width": pa.array([], pa.int32()), "height": pa.array([], pa.int32()),
                             "data": pa.array([], pa.binary()), "checksum": pa.array([], pa.int64())})
        out = _apply_alg(pad, alg, res, z_factor, azimuth, altitude)
        return pa.table(
            {
                "x": pa.array([xy[0]], pa.int32()),
                "y": pa.array([xy[1]], pa.int32()),
                "width": pa.array([wh[0]], pa.int32()),
                "height": pa.array([wh[1]], pa.int32()),
                "data": pa.array([out.tobytes()], pa.binary()),
                "checksum": pa.array([cks.tile_checksum(out)], pa.int64()),
            }
        )

    return grouped.map_groups(run, batch_format="pyarrow")


# -- gdal raster neighbors (generic focal statistics) -------------------------

NEIGHBOR_KERNELS = {
    # apps/gdalalg_raster_neighbors.cpp:48-77 (oMapKernelNameToMatrix)
    "equal": [[1, 1, 1], [1, 1, 1], [1, 1, 1]],
    "u": [[0, 0, 0], [-1, 0, 1], [0, 0, 0]],
    "v": [[0, -1, 0], [0, 0, 0], [0, 1, 0]],
    "edge1": [[0, -1, 0], [-1, 4, -1], [0, -1, 0]],
    "edge2": [[-1, -1, -1], [-1, 8, -1], [-1, -1, -1]],
    "sharpen": [[0, -1, 0], [-1, 5, -1], [0, -1, 0]],
    "gaussian": [[1, 2, 1], [2, 4, 2], [1, 2, 1]],
}

NEIGHBOR_METHODS = ("sum", "min", "max", "median", "mode", "stddev")


def _neighbors_apply(pad: np.ndarray, method: str, coef: np.ndarray) -> np.ndarray:
    """Integer-exact 3x3 focal statistic on a padded int64 array.

    Order statistics follow ``gdal raster neighbors`` methods
    (apps/gdalalg_raster_neighbors.cpp:207 SetChoices); exactness policy:
    ``stddev`` emits the variance NUMERATOR 9*sum(v^2)-sum(v)^2 (population
    variance x81), ``mode`` ties resolve to the smallest value, ``median`` is
    the 5th smallest of the 9 (odd window, exact)."""
    h, w = pad.shape[0] - 2, pad.shape[1] - 2
    stack = np.stack(
        [pad[dy : dy + h, dx : dx + w] for dy in range(3) for dx in range(3)]
    ).astype(np.int64)
    if method == "sum":
        return np.tensordot(coef.reshape(9), stack, axes=(0, 0))
    if method == "min":
        return stack.min(axis=0)
    if method == "max":
        return stack.max(axis=0)
    if method == "median":
        return np.sort(stack, axis=0)[4]
    if method == "mode":
        s = np.sort(stack, axis=0)
        # count of each sorted layer via 81 equality sums; argmax returns the
        # FIRST maximal index = smallest value among the modes (sorted asc)
        counts = (s[:, None, :, :] == s[None, :, :, :]).sum(axis=1)
        pick = counts.argmax(axis=0)
        return np.take_along_axis(s, pick[None], axis=0)[0]
    if method == "stddev":
        sv = stack.sum(axis=0)
        sv2 = (stack * stack).sum(axis=0)
        return 9 * sv2 - sv * sv
    raise ValueError(method)


def neighbors(tiles_ds, method: str = "sum", kernel: str = "equal"):
    """``gdal raster neighbors`` (apps/gdalalg_raster_neighbors.h:29): generic
    3x3 focal statistics over the halo-exchanged tile mosaic.  Integer tiles
    only; emits per-tile exact integer aggregates (x, y, vsum, vmin, vmax)
    of the focal output so any reduction order hash-matches the SQL mirror.

    ``method='sum'`` applies the weighted convolution kernel
    (VRTKernelFilteredSource SetNormalized(false) path,
    gdalalg_raster_neighbors.cpp:110-114); order-statistic methods use the
    plain 3x3 window (kernel must be 'equal')."""
    if method not in NEIGHBOR_METHODS:
        raise ValueError(f"method {method!r}; known: {NEIGHBOR_METHODS}")
    if method != "sum" and kernel != "equal":
        raise ValueError("order-statistic methods take kernel='equal'")
    coef = np.asarray(NEIGHBOR_KERNELS[kernel], dtype=np.int64)
    grouped = _halo_exchange(tiles_ds)

    def run(group: pa.Table) -> pa.Table:
        pad, xy, _wh = _assemble_padded(group)
        empty = {
            "x": pa.array([], pa.int32()), "y": pa.array([], pa.int32()),
            "vsum": pa.array([], pa.int64()), "vmin": pa.array([], pa.int64()),
            "vmax": pa.array([], pa.int64()),
        }
        if pad is None:
            return pa.table(empty)
        out = _neighbors_apply(pad.astype(np.int64), method, coef)
        return pa.table(
            {
                "x": pa.array([xy[0]], pa.int32()),
                "y": pa.array([xy[1]], pa.int32()),
                "vsum": pa.array([int(out.sum())], pa.int64()),
                "vmin": pa.array([int(out.min())], pa.int64()),
                "vmax": pa.array([int(out.max())], pa.int64()),
            }
        )

    return grouped.map_groups(run, batch_format="pyarrow")
