"""ESRI ASCII Grid (.asc) raster format — reader + writer.

Re-answers the reference's AAIGrid driver (``frmts/aaigrid/aaigriddataset.cpp``)
from the public format spec: a 5/6-line header (ncols, nrows, xllcorner,
yllcorner, cellsize, optional NODATA_value) followed by nrows lines of ncols
whitespace-separated values, row 0 = NORTH (top) row.

Ray-Data shape: ``read_asc_tiles`` parses one .asc file driver-side (headers
are tiny; the value block parses via one ``np.loadtxt``-style fromstring) and
emits the engine's standard tile rows, so every downstream stage
(focal/warp/contour/...) runs unchanged on .asc inputs.  ``write_asc``
assembles a tile Dataset into one grid (bounded by the mosaic size — use the
parquet tile sink for unbounded rasters) and serializes it deterministically.
"""

from __future__ import annotations

import numpy as np


def write_asc(path: str, arr: np.ndarray, xll: float = 0.0, yll: float = 0.0,
              cellsize: float = 1.0, nodata: float | None = -9999.0) -> None:
    h, w = arr.shape
    lines = [f"ncols {w}", f"nrows {h}", f"xllcorner {xll!r}",
             f"yllcorner {yll!r}", f"cellsize {cellsize!r}"]
    if nodata is not None:
        lines.append(f"NODATA_value {nodata!r}")
    body = "\n".join(" ".join(repr(float(v)) for v in row) for row in arr)
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n" + body + "\n")


def read_asc(path: str):
    """Parse a .asc file -> (array float64, header dict)."""
    hdr = {}
    with open(path) as f:
        pos = f.tell()
        while True:
            pos = f.tell()
            line = f.readline()
            parts = line.split()
            if len(parts) == 2 and parts[0].lower() in (
                    "ncols", "nrows", "xllcorner", "yllcorner", "xllcenter",
                    "yllcenter", "cellsize", "nodata_value"):
                key = parts[0].lower()
                hdr[key] = int(parts[1]) if key in ("ncols", "nrows") else float(parts[1])
            else:
                f.seek(pos)
                break
        if "ncols" not in hdr or "nrows" not in hdr:
            raise ValueError("not an ESRI ASCII grid: missing ncols/nrows header")
        vals = np.array(f.read().split(), dtype=np.float64)
    n = hdr["nrows"] * hdr["ncols"]
    if vals.size != n:
        raise ValueError(f"AAIGrid value count {vals.size} != nrows*ncols {n}")
    return vals.reshape(hdr["nrows"], hdr["ncols"]), hdr


def read_asc_tiles(path: str, tile_size: int = 64, z: int = 4):
    """.asc file -> the engine's standard tile-row Dataset (float32 payload,
    edge tiles clipped; global pixel (0,0) = the grid's NW corner, matching
    the engine's row-south-positive image convention)."""
    from .openraster import window_tiles

    arr, hdr = read_asc(path)
    arr = arr.astype(np.float32)
    return window_tiles(*arr.shape, lambda y0, y1, x0, x1: arr[y0:y1, x0:x1],
                        tile_size=tile_size, z=z, band=1, crs="EPSG:3857",
                        nodata=hdr.get("nodata_value", 0.0))


def write_xyz(path: str, arr: np.ndarray, x0: float = 0.0, y0: float = 0.0,
              cellsize: float = 1.0) -> None:
    """GDAL XYZ driver format (frmts/xyz): one 'x y z' line per pixel,
    row-major, pixel-center coordinates, constant spacing.  Array row 0 is
    the NORTH row (largest y) — the same convention as write_asc / the
    engine's tiles, and the orientation the reference's XYZ writer emits."""
    h, w = arr.shape
    with open(path, "w") as f:
        for r in range(h):
            ys = y0 + (h - 1 - r) * cellsize
            f.write("\n".join(
                f"{x0 + c * cellsize!r} {ys!r} {float(arr[r, c])!r}"
                for c in range(w)) + "\n")


def read_xyz(path: str):
    """Parse an XYZ raster (regular grid required, like the reference's
    driver) -> (array float64, (x0, y0, cs_x, cs_y)).  Array row 0 is the
    NORTH row; (x0, y0) is the SW pixel center; anisotropic spacing is
    preserved (cs_x, cs_y separately)."""
    vals = np.loadtxt(path, dtype=np.float64)
    if vals.ndim != 2 or vals.shape[1] != 3:
        raise ValueError("XYZ file must have three columns")
    xs = np.unique(vals[:, 0])
    ys = np.unique(vals[:, 1])
    w, h = len(xs), len(ys)
    if w * h != len(vals):
        raise ValueError("XYZ points do not form a complete grid")
    dx = np.diff(xs)
    dy = np.diff(ys)
    if w > 1 and not np.allclose(dx, dx[0]):
        raise ValueError("XYZ grid spacing is irregular in x")
    if h > 1 and not np.allclose(dy, dy[0]):
        raise ValueError("XYZ grid spacing is irregular in y")
    arr = np.full((h, w), np.nan)
    ci = np.searchsorted(xs, vals[:, 0])
    ri = (h - 1) - np.searchsorted(ys, vals[:, 1])  # row 0 = north
    arr[ri, ci] = vals[:, 2]
    if np.isnan(arr).any():
        raise ValueError("XYZ grid has duplicate/missing cells")
    return arr, (float(xs[0]), float(ys[0]),
                 float(dx[0]) if w > 1 else 1.0,
                 float(dy[0]) if h > 1 else 1.0)
