"""ENVI raster format — flat binary + text .hdr sidecar, reader + writer.

Re-answers the reference's ENVI driver (``frmts/raw/envidataset.cpp``) from
the public header-file spec: a ``<base>.dat`` raw pixel file described by a
``<base>.hdr`` key = value header (samples / lines / bands / data type /
interleave / byte order / header offset).  Data types map to numpy per the
published table (1=u8, 2=i16, 3=i32, 4=f32, 5=f64, 12=u16, 13=u32); all
three interleaves (BSQ band-sequential, BIL line-interleaved, BIP
pixel-interleaved) and both byte orders round-trip.

Ray-Data shape mirrors the AAIGrid driver: the header is driver-side
metadata; ``read_envi_tiles`` memory-maps the flat pixel block and emits the
engine's standard tile rows, so every downstream stage (focal / warp /
contour / ...) runs unchanged on ENVI inputs.
"""

from __future__ import annotations

import os

import numpy as np

_DTYPES = {1: np.uint8, 2: np.int16, 3: np.int32, 4: np.float32,
           5: np.float64, 12: np.uint16, 13: np.uint32}
_CODES = {np.dtype(v).name: k for k, v in _DTYPES.items()}


def write_envi(base: str, arr: np.ndarray, interleave: str = "bsq",
               byte_order: int = 0) -> tuple[str, str]:
    """(bands, h, w) or (h, w) array -> <base>.dat + <base>.hdr.
    Returns (dat_path, hdr_path)."""
    a = np.asarray(arr)
    if a.ndim == 2:
        a = a[None, :, :]
    if a.ndim != 3:
        raise ValueError(f"expected (bands, h, w) or (h, w), got {a.shape}")
    code = _CODES.get(a.dtype.name)
    if code is None:
        raise ValueError(f"unsupported ENVI dtype {a.dtype} "
                         f"(supported: {sorted(_CODES)})")
    interleave = interleave.lower()
    if interleave == "bsq":
        ordered = a                          # (bands, lines, samples)
    elif interleave == "bil":
        ordered = a.transpose(1, 0, 2)       # (lines, bands, samples)
    elif interleave == "bip":
        ordered = a.transpose(1, 2, 0)       # (lines, samples, bands)
    else:
        raise ValueError(f"unknown interleave {interleave!r}")
    dat = np.ascontiguousarray(ordered).astype(
        a.dtype.newbyteorder("<" if byte_order == 0 else ">"))
    b, h, w = a.shape
    hdr = "\n".join([
        "ENVI",
        f"samples = {w}",
        f"lines = {h}",
        f"bands = {b}",
        "header offset = 0",
        "file type = ENVI Standard",
        f"data type = {code}",
        f"interleave = {interleave}",
        f"byte order = {byte_order}",
    ]) + "\n"
    dat_path, hdr_path = f"{base}.dat", f"{base}.hdr"
    with open(dat_path, "wb") as f:
        f.write(dat.tobytes())
    with open(hdr_path, "w") as f:
        f.write(hdr)
    return dat_path, hdr_path


def _parse_hdr(path: str) -> dict:
    with open(path) as f:
        text = f.read()
    if not text.lstrip().startswith("ENVI"):
        raise ValueError("not an ENVI header (missing ENVI magic)")
    hdr: dict = {}
    key = None
    buf = ""
    for line in text.splitlines()[1:]:
        if "=" in line and key is None:
            k, v = line.split("=", 1)
            k, v = k.strip().lower(), v.strip()
            if v.startswith("{") and not v.endswith("}"):
                key, buf = k, v  # multi-line brace value
            else:
                hdr[k] = v.strip("{}").strip()
        elif key is not None:
            buf += " " + line.strip()
            if line.strip().endswith("}"):
                hdr[key] = buf.strip("{}").strip()
                key, buf = None, ""
    return hdr


def read_envi(base_or_hdr: str) -> tuple[np.ndarray, dict]:
    """ENVI dataset -> ((bands, h, w) array in native dtype, header dict).
    Accepts the .hdr path, the .dat path, or the bare base path."""
    base = base_or_hdr
    for ext in (".hdr", ".dat"):
        if base.endswith(ext):
            base = base[: -len(ext)]
    hdr_path = f"{base}.hdr"
    dat_path = f"{base}.dat"
    if not os.path.exists(hdr_path):
        raise FileNotFoundError(hdr_path)
    hdr = _parse_hdr(hdr_path)
    try:
        w = int(hdr["samples"])
        h = int(hdr["lines"])
        b = int(hdr.get("bands", "1"))
        code = int(hdr["data type"])
    except KeyError as e:
        raise ValueError(f"ENVI header missing {e}") from None
    if code not in _DTYPES:
        raise ValueError(f"unsupported ENVI data type {code}")
    offset = int(hdr.get("header offset", "0"))
    interleave = hdr.get("interleave", "bsq").lower()
    order = "<" if int(hdr.get("byte order", "0")) == 0 else ">"
    dt = np.dtype(_DTYPES[code]).newbyteorder(order)
    n = b * h * w
    raw = np.fromfile(dat_path, dtype=dt, count=n, offset=offset)
    if raw.size != n:
        raise ValueError(f"ENVI data file holds {raw.size} values, "
                         f"expected {n} (bands*lines*samples)")
    if interleave == "bsq":
        a = raw.reshape(b, h, w)
    elif interleave == "bil":
        a = raw.reshape(h, b, w).transpose(1, 0, 2)
    elif interleave == "bip":
        a = raw.reshape(h, w, b).transpose(2, 0, 1)
    else:
        raise ValueError(f"unknown interleave {interleave!r}")
    return np.ascontiguousarray(a).astype(a.dtype.newbyteorder("=")), hdr


def read_envi_window(base: str, band: int, y0: int, y1: int,
                     x0: int, x1: int) -> np.ndarray:
    """Windowed read via memory map — only the window's pages fault in, so
    tile readers never materialize the whole raster (the GDALRasterBand
    RasterIO window contract).  BSQ windows are 2-D strided views; BIL/BIP
    slice the band axis."""
    for ext in (".hdr", ".dat"):
        if base.endswith(ext):
            base = base[: -len(ext)]
    hdr = _parse_hdr(f"{base}.hdr")
    w = int(hdr["samples"])
    h = int(hdr["lines"])
    b = int(hdr.get("bands", "1"))
    code = int(hdr["data type"])
    order = "<" if int(hdr.get("byte order", "0")) == 0 else ">"
    dt = np.dtype(_DTYPES[code]).newbyteorder(order)
    offset = int(hdr.get("header offset", "0"))
    interleave = hdr.get("interleave", "bsq").lower()
    mm = np.memmap(f"{base}.dat", dtype=dt, mode="r", offset=offset)
    if interleave == "bsq":
        view = mm.reshape(b, h, w)[band - 1, y0:y1, x0:x1]
    elif interleave == "bil":
        view = mm.reshape(h, b, w)[y0:y1, band - 1, x0:x1]
    elif interleave == "bip":
        view = mm.reshape(h, w, b)[y0:y1, x0:x1, band - 1]
    else:
        raise ValueError(f"unknown interleave {interleave!r}")
    return np.ascontiguousarray(view).astype(dt.newbyteorder("="))


def read_envi_tiles(base: str, tile_size: int = 64, z: int = 4,
                    band: int = 1):
    """ENVI dataset -> the engine's standard tile-row Dataset (one band,
    dtype preserved; edge tiles clipped; pixel (0,0) = NW corner).
    Tiles are cut with windowed memmap reads (read_envi_window) in the
    workers, so the whole-raster array never materializes."""
    from .openraster import window_tiles

    for ext in (".hdr", ".dat"):
        if base.endswith(ext):
            base = base[: -len(ext)]
    hdr = _parse_hdr(f"{base}.hdr")
    return window_tiles(
        int(hdr["lines"]), int(hdr["samples"]),
        lambda y0, y1, x0, x1: read_envi_window(base, band, y0, y1, x0, x1),
        tile_size=tile_size, z=z, band=band, crs="EPSG:3857", nodata=0.0)
