"""GDALOpen-style raster opener and the one window-tile builder.

Re-answers the reference's driver-identify loop (``gcore/gdaldataset.cpp``
GDALOpenEx -> per-driver Identify/Open probes, each driver sniffing its own
magic; ``frmts/*/...dataset.cpp`` Identify methods) with one table.
``_DRIVERS`` holds one ``(name, claims, opener)`` entry per raster driver:
``claims(head, basename, path)`` looks at the file's first 16 bytes, its
lower-cased basename or a sidecar, and ``opener(path, tile_size, z, band,
var)`` returns the driver's tile Dataset.  ``identify`` and
``open_raster_tiles`` walk the table in order and take the first claim; a
driver is added by adding an entry.

Probe order mirrors the reference's registration order idea: unambiguous
magics first, then the headerless/sidecar formats (HGT by filename, ENVI by
.hdr sidecar, TGA by extension — TGA has no magic, same caveat as
frmts/tga).

``window_tiles`` is the reference's IReadBlock mapped onto Ray Data (SURVEY
§1.1), shared by every file driver: the driver process builds only the
``(ty, tx)`` window manifest, and ``map_batches`` workers read the windows
and emit the engine's standard tile rows.  Random-access drivers pass a
windowed file read; whole-stream codecs (GIF, TGA, AAIGrid, PNG, JPEG)
decode in the driver and pass a slice of the decoded array.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa

from . import aaigrid, bmp, dted, envi, gif, gtiff, hgt, jpeg, netcdf3, png
from . import pnm, tga


def window_tiles(h: int, w: int, read_window, *, tile_size: int, z: int,
                 band: int, crs: str, nodata: float):
    """An ``h`` x ``w`` raster -> the engine's standard tile-row Dataset.

    One row per ``tile_size`` window, row-major from the north-west corner,
    edge tiles clipped.  ``read_window(y0, y1, x0, x1)`` returns the window
    as a (rows, cols) array, or (rows, cols, bands), from which ``band``
    picks one plane; it runs in ``map_batches`` workers, so the driver holds
    only the manifest.
    """
    import ray.data as rd

    ny, nx = -(-h // tile_size), -(-w // tile_size)
    ty, tx = np.divmod(np.arange(ny * nx, dtype=np.int64), nx)
    man = pa.table({"ty": ty, "tx": tx})

    def fetch(t: pa.Table) -> pa.Table:
        rows = []
        for y, x in zip(t["ty"].to_pylist(), t["tx"].to_pylist()):
            y0, x0 = y * tile_size, x * tile_size
            sub = read_window(y0, min(y0 + tile_size, h),
                              x0, min(x0 + tile_size, w))
            if sub.ndim == 3:
                sub = sub[:, :, band - 1]
            rows.append({
                "z": z, "x": x, "y": y, "band": band,
                "width": sub.shape[1], "height": sub.shape[0],
                "crs": crs, "nodata": float(nodata),
                "dtype": str(sub.dtype), "data": sub.tobytes(),
            })
        return pa.Table.from_pylist(rows)

    return rd.from_arrow(man).map_batches(fetch, batch_format="pyarrow")


def _codec_tiles(decode, path: str, tile_size: int, z: int):
    """PNG / JPEG: decode the whole stream in the driver; RGB folds to its
    band mean."""
    with open(path, "rb") as f:
        arr = decode(f.read())
    if arr.ndim == 3:
        arr = arr.mean(axis=2).astype(arr.dtype)
    return window_tiles(*arr.shape, lambda y0, y1, x0, x1: arr[y0:y1, x0:x1],
                        tile_size=tile_size, z=z, band=1, crs="EPSG:3857",
                        nodata=0.0)


# (name, claims(head, basename, path), opener(path, tile_size, z, band, var))
_DRIVERS = [
    ("BMP", lambda h, n, p: h[:2] == b"BM",
     lambda p, ts, z, b, v: bmp.read_bmp_tiles(p, ts, z, b)),
    ("GIF", lambda h, n, p: h[:6] in (b"GIF87a", b"GIF89a"),
     lambda p, ts, z, b, v: gif.read_gif_tiles(p, ts, z)),
    ("PNM", lambda h, n, p: h[:2] in (b"P5", b"P6"),
     lambda p, ts, z, b, v: pnm.read_pnm_tiles(p, ts, z, b)),
    ("PNG", lambda h, n, p: h[:8] == b"\x89PNG\r\n\x1a\n",
     lambda p, ts, z, b, v: _codec_tiles(png.decode_png, p, ts, z)),
    ("JPEG", lambda h, n, p: h[:2] == b"\xff\xd8",
     lambda p, ts, z, b, v: _codec_tiles(jpeg.decode_baseline, p, ts, z)),
    # classic TIFF (42) or BigTIFF (43), either byte order
    ("GTiff", lambda h, n, p: h[:4] in (b"II*\x00", b"MM\x00*", b"II+\x00",
                                        b"MM\x00+"),
     lambda p, ts, z, b, v: gtiff.read_gtiff_tiles(p, z, b)),
    ("DTED", lambda h, n, p: h[:3] == b"UHL",
     lambda p, ts, z, b, v: dted.read_dted_tiles(p, ts, z)),
    ("netCDF", lambda h, n, p: h[:3] == b"CDF",
     lambda p, ts, z, b, v: netcdf3.read_netcdf3_tiles(p, v, ts, z)),
    ("AAIGrid", lambda h, n, p: h[:5].lower() == b"ncols" or n.endswith(".asc"),
     lambda p, ts, z, b, v: aaigrid.read_asc_tiles(p, ts, z)),
    ("SRTMHGT", lambda h, n, p: n.endswith(".hgt"),
     lambda p, ts, z, b, v: hgt.read_hgt_tiles(p, ts, z)),
    ("TGA", lambda h, n, p: n.endswith((".tga", ".tpic")),
     lambda p, ts, z, b, v: tga.read_tga_tiles(p, ts, z, b)),
    ("ENVI", lambda h, n, p: os.path.exists(os.path.splitext(p)[0] + ".hdr")
     or os.path.exists(p + ".hdr"),
     lambda p, ts, z, b, v: envi.read_envi_tiles(p, ts, z, b)),
]


def _driver(path: str):
    with open(path, "rb") as f:
        head = f.read(16)
    name = os.path.basename(path).lower()
    for entry in _DRIVERS:
        if entry[1](head, name, path):
            return entry
    raise ValueError(
        f"no driver claims {path!r} (probed, in order: "
        f"{'/'.join(e[0] for e in _DRIVERS)} — the GDALOpenEx identify "
        "loop, gcore/gdaldataset.cpp)")


def identify(path: str) -> str:
    """Driver short-name for a raster path (GDALIdentifyDriver role).
    Raises ValueError when no driver claims the file."""
    return _driver(path)[0]


def open_raster_tiles(path: str, tile_size: int = 64, z: int = 4,
                      band: int = 1, var: str | None = None):
    """Open any supported raster as the engine's standard tile Dataset —
    the GDALOpen entry point.  ``var``: NetCDF variable (defaults to the
    first 2-D one); ``band`` routes through multi-band drivers.
    /vsizip//vsigzip//vsitar/ container paths resolve first (cpl_vsil_*)."""
    from .vsi import vsi_resolve

    path = vsi_resolve(path)
    return _driver(path)[2](path, tile_size, z, band, var)
