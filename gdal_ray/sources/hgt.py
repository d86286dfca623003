"""SRTM HGT raster format — the headerless big-endian int16 DEM tiles.

Re-answers the reference's SRTMHGT driver
(``frmts/srtmhgt/srtmhgtdataset.cpp:332-336`` size sniffing, ``:440-455``
dimension table, ``:589-591`` create-size validation, nodata constant at
``:29``): a .hgt file has NO header — its dimensions come from the file
size (1201x1201 int16 for SRTM-3, 3601x3601 int16 for SRTM-1, 1801x3601
for the half-degree products) and its georeference from the FILENAME
(``N27E086.hgt`` = SW corner lat 27, lon 86; the grid spans exactly 1
degree with one row/col of overlap).  Samples are big-endian int16, row 0
= NORTH edge, nodata -32768.

Ray-Data shape: windowed memmap reads (a byteswapped view faults in only
the touched pages), standard tile rows out.
"""

from __future__ import annotations

import os
import re

import numpy as np

NODATA = -32768
_SIZES = {1201 * 1201 * 2: (1201, 1201), 3601 * 3601 * 2: (3601, 3601),
          1801 * 3601 * 2: (3601, 1801)}  # bytes -> (rows, cols)
_NAME_RE = re.compile(r"^([NS])(\d{1,2})([EW])(\d{1,3})", re.IGNORECASE)


def parse_hgt_name(path: str):
    """``N27E086.hgt`` -> (lat, lon) of the SW corner (reference
    srtmhgtdataset.cpp parses the same 7-char stem)."""
    stem = os.path.basename(path)
    m = _NAME_RE.match(stem)
    if not m:
        raise ValueError(f"HGT filename {stem!r} must start NddEddd/SddWddd")
    lat = int(m.group(2)) * (1 if m.group(1).upper() == "N" else -1)
    lon = int(m.group(4)) * (1 if m.group(3).upper() == "E" else -1)
    return lat, lon


def hgt_shape(path: str):
    size = os.path.getsize(path)
    if size not in _SIZES:
        raise ValueError(
            f"HGT file is {size} bytes; valid sizes are "
            f"{sorted(_SIZES)} (1201^2 / 3601^2 / 1801x3601 int16 — the "
            "reference rejects others the same way, "
            "srtmhgtdataset.cpp:332)")
    return _SIZES[size]


def write_hgt(path: str, arr: np.ndarray) -> None:
    a = np.asarray(arr)
    if a.dtype != np.int16:
        raise ValueError(f"HGT writer takes int16, got {a.dtype}")
    if a.shape not in ((1201, 1201), (3601, 3601), (3601, 1801)):
        raise ValueError(f"HGT shape must be 1201x1201, 3601x3601 or "
                         f"3601x1801, got {a.shape} "
                         "(srtmhgtdataset.cpp:589)")
    with open(path, "wb") as f:
        f.write(a.astype(">i2").tobytes())


def read_hgt(path: str) -> np.ndarray:
    h, w = hgt_shape(path)
    return read_hgt_window(path, 0, h, 0, w)


def read_hgt_window(path: str, y0: int, y1: int, x0: int, x1: int) -> np.ndarray:
    """Windowed read returning native-endian int16; row 0 = north."""
    h, w = hgt_shape(path)
    if not (0 <= y0 <= y1 <= h and 0 <= x0 <= x1 <= w):
        raise ValueError(f"window [{y0}:{y1},{x0}:{x1}] outside {h}x{w}")
    mm = np.memmap(path, dtype=">i2", mode="r", shape=(h, w))
    return mm[y0:y1, x0:x1].astype(np.int16)


def geotransform(path: str):
    """GDAL-style 6-coefficient geotransform: the grid spans one degree,
    pixel centers on the integer graticule (reference applies the same
    half-pixel shift)."""
    lat, lon = parse_hgt_name(path)
    h, w = hgt_shape(path)
    resx, resy = 1.0 / (w - 1), 1.0 / (h - 1)
    return (lon - resx / 2, resx, 0.0, lat + 1 + resy / 2, 0.0, -resy)


def read_hgt_tiles(path: str, tile_size: int = 64, z: int = 4):
    from .openraster import window_tiles

    return window_tiles(
        *hgt_shape(path),
        lambda y0, y1, x0, x1: read_hgt_window(path, y0, y1, x0, x1),
        tile_size=tile_size, z=z, band=1, crs="EPSG:4326", nodata=NODATA)
