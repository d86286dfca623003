"""PNM (portable anymap) raster format — binary PGM (P5) and PPM (P6).

Re-answers the reference's PNM driver (``frmts/raw/pnmdataset.cpp`` — it too
restricts to the binary forms and 8/16-bit maxval) from the published netpbm
spec: ASCII magic + whitespace-separated width/height/maxval header with
``#`` comments, then raw sample bytes; maxval <= 255 -> one byte per sample,
otherwise two bytes big-endian.

Ray-Data shape mirrors the other raw drivers: ``read_pnm_tiles`` cuts the
engine's standard tile rows with windowed reads (samples are row-major at a
fixed offset, so a window touches only its own pages via memmap).
"""

from __future__ import annotations

import numpy as np


def write_pnm(path: str, arr: np.ndarray, maxval: int | None = None) -> None:
    """(h, w) -> P5 grayscale; (h, w, 3) -> P6 RGB.  dtype uint8 or uint16
    (uint16 stored big-endian per the spec)."""
    a = np.asarray(arr)
    if a.dtype not in (np.uint8, np.uint16):
        raise ValueError(f"PNM writer takes uint8/uint16, got {a.dtype}")
    if a.ndim == 2:
        magic = b"P5"
    elif a.ndim == 3 and a.shape[2] == 3:
        magic = b"P6"
    else:
        raise ValueError(f"PNM writer takes (h,w) or (h,w,3), got {a.shape}")
    if maxval is None:
        maxval = 255 if a.dtype == np.uint8 else 65535
    if not (0 < maxval < 65536):
        raise ValueError(f"maxval {maxval} out of range")
    if (maxval <= 255) != (a.dtype == np.uint8):
        raise ValueError(f"maxval {maxval} inconsistent with dtype {a.dtype}")
    body = a.astype(">u2").tobytes() if a.dtype == np.uint16 else a.tobytes()
    with open(path, "wb") as f:
        f.write(magic + b"\n%d %d\n%d\n" % (a.shape[1], a.shape[0], maxval))
        f.write(body)


def _parse_header(path: str):
    with open(path, "rb") as f:
        head = f.read(256)
    if head[:2] not in (b"P5", b"P6"):
        raise ValueError("not a binary PNM: magic must be P5 or P6 "
                         "(ASCII P2/P3 are out of scope, like the "
                         "reference's frmts/raw/pnmdataset.cpp)")
    # tokenize: whitespace-separated ints, '#' comments to end of line
    vals, i, n = [], 2, len(head)
    while len(vals) < 3 and i < n:
        c = head[i:i + 1]
        if c == b"#":
            while i < n and head[i:i + 1] not in (b"\n", b"\r"):
                i += 1
        elif c.isspace():
            i += 1
        elif c.isdigit():
            j = i
            while j < n and head[j:j + 1].isdigit():
                j += 1
            vals.append(int(head[i:j]))
            i = j
        else:
            raise ValueError(f"bad PNM header byte {c!r}")
    if len(vals) < 3 or i >= n:
        raise ValueError("truncated PNM header")
    w, h, maxval = vals
    data_off = i + 1  # exactly one whitespace byte after maxval, per spec
    return {"width": w, "height": h, "maxval": maxval,
            "channels": 3 if head[:2] == b"P6" else 1,
            "dtype": np.dtype(">u2") if maxval > 255 else np.dtype(np.uint8),
            "data_off": data_off}


def read_pnm(path: str):
    """Parse a PNM -> (array, header).  P5 -> (h, w); P6 -> (h, w, 3).
    16-bit samples are returned native-endian uint16."""
    hdr = _parse_header(path)
    arr = read_pnm_window(path, 0, hdr["height"], 0, hdr["width"], hdr)
    return arr, hdr


def read_pnm_window(path: str, y0: int, y1: int, x0: int, x1: int,
                    hdr: dict | None = None) -> np.ndarray:
    if hdr is None:
        hdr = _parse_header(path)
    h, w, ch = hdr["height"], hdr["width"], hdr["channels"]
    if not (0 <= y0 <= y1 <= h and 0 <= x0 <= x1 <= w):
        raise ValueError(f"window [{y0}:{y1},{x0}:{x1}] outside {h}x{w}")
    item = hdr["dtype"].itemsize
    mm = np.memmap(path, dtype=np.uint8, mode="r",
                   offset=hdr["data_off"])
    row_bytes = w * ch * item
    need = h * row_bytes
    if mm.size < need:
        raise ValueError(f"PNM body {mm.size} bytes < expected {need}")
    block = mm[y0 * row_bytes: y1 * row_bytes]
    rows = np.frombuffer(block, dtype=hdr["dtype"]).reshape(y1 - y0, w, ch)
    out = rows[:, x0:x1]
    if ch == 1:
        out = out[:, :, 0]
    if hdr["dtype"] != np.uint8:
        out = out.astype(np.uint16)  # big-endian file -> native
    return np.ascontiguousarray(out)


def read_pnm_tiles(path: str, tile_size: int = 64, z: int = 4,
                   band: int = 1):
    """PNM -> the engine's standard tile-row Dataset (P6 ``band`` selects
    R=1/G=2/B=3)."""
    from .openraster import window_tiles

    hdr = _parse_header(path)
    return window_tiles(
        hdr["height"], hdr["width"],
        lambda y0, y1, x0, x1: read_pnm_window(path, y0, y1, x0, x1, hdr),
        tile_size=tile_size, z=z, band=band, crs="EPSG:3857", nodata=0.0)
