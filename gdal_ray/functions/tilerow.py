"""The raster tile row of FIXTURES.md F3: its one reader and one writer.

A tile row carries its pixels as C-order numpy bytes in ``data``, the
numpy dtype name in ``dtype`` and the shape in ``height`` / ``width``; the
address (``z``, ``x``, ``y``, ``band``), ``crs``, ``nodata`` and any
stage-specific columns ride along.  GDAL reads every block through one
typed ``IReadBlock`` keyed by ``GDALDataType`` (gcore/gdal_rasterband.h,
gcore/gdal.h:49-66); here every stage and query reads a tile through
``pixels`` and writes one through ``tile_row``, under one dtype table.
Every stage that rebuilds a larger window from tiles (the halo exchange,
retile, the tile-join warp, the overview builders, the multidim warp and
the block cache) puts each piece into it through ``paste``, as GDAL's
windowed ``RasterIO`` copies the overlap of each block it visits
(gcore/rasterio.cpp).

Imports numpy and pyarrow only, so kernels and drivers can use it without
Ray.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .checksum import tile_checksum

# the GDT_* pixel types of gcore/gdal.h:49-66 that have a numpy twin:
# Byte, Int8, UInt16, Int16, UInt32, Int32, UInt64, Int64, Float32, Float64
# (64-bit ints are also the natural dtype of exact multidim axis sums)
_DTYPES = {name: np.dtype(name) for name in (
    "uint8", "int8", "uint16", "int16", "uint32", "int32", "uint64", "int64",
    "float32", "float64")}


def dtype_of(name: str) -> np.dtype:
    """The numpy dtype of a tile's ``dtype`` name; raises on any other."""
    if name not in _DTYPES:
        raise ValueError(f"unsupported tile dtype {name!r}; known: {sorted(_DTYPES)}")
    return _DTYPES[name]


def decode(data: bytes, name: str, shape) -> np.ndarray:
    """Read-only array of the C-order ``data`` bytes as dtype ``name``."""
    return np.frombuffer(data, dtype=dtype_of(name)).reshape(shape)


def pixels(batch: pa.Table, i: int) -> np.ndarray:
    """Read-only (height, width) pixel array of tile row ``i``."""
    return decode(batch["data"][i].as_py(), batch["dtype"][i].as_py(),
                  (batch["height"][i].as_py(), batch["width"][i].as_py()))


def bands(batch: pa.Table, i: int) -> list:
    """Read-only (height, width) arrays of the bands of multiband row ``i``
    (``rastermap.stack_bands``: the band payloads back to back in ``data``,
    their dtype names comma-separated in ``dtypes``)."""
    shape = (batch["height"][i].as_py(), batch["width"][i].as_py())
    data = batch["data"][i].as_py()
    out, off = [], 0
    for name in batch["dtypes"][i].as_py().split(","):
        n = dtype_of(name).itemsize * shape[0] * shape[1]
        out.append(decode(data[off:off + n], name, shape))
        off += n
    return out


def tile_row(batch: pa.Table, i: int, arr: np.ndarray) -> dict:
    """Tile row ``i`` as a dict holding ``arr`` as its pixels: ``data``,
    ``dtype``, ``height`` and ``width`` come from ``arr`` (a ``(height,
    width)`` array, or ``(height, width, bands)`` interleaved); a
    ``checksum`` column is recomputed from a 2-D ``arr``, so a stage that
    rewrites pixels never carries a stale one; every other column is carried
    over in place."""
    row = {c: batch[c][i].as_py() for c in batch.column_names}
    row["height"], row["width"] = arr.shape[0], arr.shape[1]
    row["dtype"] = arr.dtype.name
    row["data"] = arr.tobytes()
    if "checksum" in row and arr.ndim == 2:
        row["checksum"] = tile_checksum(arr)
    return row


def paste(canvas: np.ndarray, arr: np.ndarray, x: int, y: int,
          covered: np.ndarray | None = None) -> None:
    """Put ``arr`` into ``canvas`` with its (0, 0) pixel at column ``x``,
    row ``y``, cast to the canvas dtype and clipped to the canvas (``x`` and
    ``y`` may be negative, and ``arr`` may run past either edge); mark the
    pasted cells True in ``covered``, a boolean array shaped like
    ``canvas``, when one is given."""
    h, w = arr.shape[:2]
    x0, y0 = max(x, 0), max(y, 0)
    x1, y1 = min(x + w, canvas.shape[1]), min(y + h, canvas.shape[0])
    if x1 <= x0 or y1 <= y0:
        return
    canvas[y0:y1, x0:x1] = arr[y0 - y:y1 - y, x0 - x:x1 - x]
    if covered is not None:
        covered[y0:y1, x0:x1] = True
