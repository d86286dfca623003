"""TGA (Targa) raster format — reader + writer, uncompressed and RLE.

Re-answers the reference's TGA driver (``frmts/tga/tgadataset.cpp`` — a
read-only driver there; this one also writes so round trips are testable)
from the published Truevision TGA spec: 18-byte header (id length, color-map
type, image type, color-map spec, origin/size, pixel depth, descriptor),
image types 2/3 (truecolor BGR / grayscale) and 10/11 (their RLE forms),
bottom-to-top or top-to-bottom row order via descriptor bit 5.

RLE packets: high bit set = run packet (low 7 bits + 1 copies of ONE pixel),
clear = raw packet (that many literal pixels); packets never cross scanline
byte order but may cross rows (decoded against the full pixel stream, like
the reference).
"""

from __future__ import annotations

import struct

import numpy as np


def write_tga(path: str, arr: np.ndarray, rle: bool = False,
              top_down: bool = True) -> None:
    """(h, w) uint8 -> grayscale (type 3/11); (h, w, 3) uint8 RGB ->
    truecolor stored BGR (type 2/10)."""
    a = np.asarray(arr)
    if a.dtype != np.uint8:
        raise ValueError(f"TGA writer takes uint8, got {a.dtype}")
    if a.ndim == 2:
        itype, depth, px = 3, 8, a[:, :, None]
    elif a.ndim == 3 and a.shape[2] == 3:
        itype, depth, px = 2, 24, a[:, :, ::-1]  # RGB -> BGR
    else:
        raise ValueError(f"TGA writer takes (h,w) or (h,w,3), got {a.shape}")
    h, w = a.shape[0], a.shape[1]
    if rle:
        itype += 8
    desc = 0x20 if top_down else 0x00
    hdr = struct.pack("<BBBHHBHHHHBB", 0, 0, itype, 0, 0, 0, 0, 0,
                      w, h, depth, desc)
    rows = px if top_down else px[::-1]
    flat = rows.reshape(-1, px.shape[2])  # pixel stream
    if not rle:
        body = flat.tobytes()
    else:
        body = bytearray()
        n = flat.shape[0]
        same = np.r_[False, (flat[1:] == flat[:-1]).all(axis=1)]
        i = 0
        while i < n:
            j = i + 1
            if j < n and same[j]:  # run packet
                while j < n and same[j] and j - i < 128:
                    j += 1
                body += bytes([0x80 | (j - i - 1)]) + flat[i].tobytes()
            else:  # raw packet: until next run starts or 128 pixels
                while j < n and not (j + 1 < n and same[j + 1]) \
                        and j - i < 128:
                    j += 1
                body += bytes([j - i - 1]) + flat[i:j].tobytes()
            i = j
    with open(path, "wb") as f:
        f.write(hdr + bytes(body))


def _parse_header(path: str):
    with open(path, "rb") as f:
        head = f.read(18)
    if len(head) < 18:
        raise ValueError("truncated TGA header")
    (idlen, cmap_type, itype, _cf, _cl, _ce, _xo, _yo,
     w, h, depth, desc) = struct.unpack("<BBBHHBHHHHBB", head)
    if itype not in (2, 3, 10, 11):
        raise ValueError(f"unsupported TGA image type {itype} (truecolor/"
                         "grayscale, raw or RLE — the color-mapped types "
                         "are out of scope like frmts/tga's palette note)")
    if cmap_type != 0:
        raise ValueError("color-mapped TGA not supported")
    if (itype in (3, 11) and depth != 8) or (itype in (2, 10) and depth != 24):
        raise ValueError(f"unsupported TGA depth {depth} for type {itype}")
    return {"width": w, "height": h, "channels": 1 if itype in (3, 11) else 3,
            "rle": itype >= 10, "top_down": bool(desc & 0x20),
            "data_off": 18 + idlen}


def read_tga(path: str):
    """Parse a TGA -> (array, header).  Grayscale -> (h, w); truecolor ->
    (h, w, 3) RGB (file stores BGR)."""
    hdr = _parse_header(path)
    h, w, ch = hdr["height"], hdr["width"], hdr["channels"]
    with open(path, "rb") as f:
        f.seek(hdr["data_off"])
        data = f.read()
    npx = h * w
    if not hdr["rle"]:
        need = npx * ch
        if len(data) < need:
            raise ValueError(f"TGA body {len(data)} bytes < {need}")
        flat = np.frombuffer(data, np.uint8, need).reshape(npx, ch)
    else:
        flat = np.empty((npx, ch), np.uint8)
        i = done = 0
        n = len(data)
        while done < npx:
            if i >= n:
                raise ValueError("truncated TGA RLE stream")
            head = data[i]
            cnt = (head & 0x7F) + 1
            i += 1
            if head & 0x80:  # run packet
                flat[done: done + cnt] = np.frombuffer(
                    data[i: i + ch], np.uint8)
                i += ch
            else:  # raw packet
                flat[done: done + cnt] = np.frombuffer(
                    data[i: i + cnt * ch], np.uint8).reshape(cnt, ch)
                i += cnt * ch
            done += cnt
        if done != npx:
            raise ValueError("TGA RLE pixel overrun")
    img = flat.reshape(h, w, ch)
    if not hdr["top_down"]:
        img = img[::-1]
    if ch == 1:
        return np.ascontiguousarray(img[:, :, 0]), hdr
    return np.ascontiguousarray(img[:, :, ::-1]), hdr  # BGR -> RGB


def read_tga_tiles(path: str, tile_size: int = 64, z: int = 4,
                   band: int = 1):
    from .openraster import window_tiles

    arr, _hdr = read_tga(path)
    return window_tiles(arr.shape[0], arr.shape[1],
                        lambda y0, y1, x0, x1: arr[y0:y1, x0:x1],
                        tile_size=tile_size, z=z, band=band, crs="EPSG:3857",
                        nodata=0.0)
