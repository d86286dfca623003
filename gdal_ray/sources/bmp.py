"""Windows BMP raster format — reader + writer (8-bit palettized, 24-bit BGR).

Re-answers the reference's BMP driver (``frmts/bmp/bmpdataset.cpp``: header
structs BMPFileHeader/BMPInfoHeader at the top of the file, bottom-up row
order, 4-byte scanline padding, BMPC_RGB uncompressed only) from the public
format spec.  Scope mirrors the reference's common path: BITMAPINFOHEADER
(biSize=40), biCompression=0 (BI_RGB), 8 bpp with a BGRX color table or
24 bpp BGR; 1/4 bpp and RLE are rejected loudly (same spirit as the
reference's unsupported-compression errors).

Ray-Data shape: ``read_bmp_tiles`` emits the engine's standard tile rows,
cut with windowed reads (``read_bmp_window`` seeks each scanline — rows are
independently addressable at ``data_off + row*stride``), so a huge BMP never
materializes driver-side.
"""

from __future__ import annotations

import struct

import numpy as np


def _stride(width: int, bpp: int) -> int:
    return ((width * bpp + 31) // 32) * 4


def write_bmp(path: str, arr: np.ndarray,
              palette: np.ndarray | None = None) -> None:
    """Write a BMP.  ``arr`` (h, w) uint8 -> 8-bit palettized (default
    palette = grayscale identity); ``arr`` (h, w, 3) uint8 RGB -> 24-bit
    (stored BGR per the spec).  Rows are stored bottom-up (positive
    biHeight), scanlines padded to 4 bytes."""
    a = np.asarray(arr)
    if a.dtype != np.uint8:
        raise ValueError(f"BMP writer takes uint8, got {a.dtype}")
    if a.ndim == 2:
        bpp, (h, w) = 8, a.shape
        if palette is None:
            g = np.arange(256, dtype=np.uint8)
            palette = np.stack([g, g, g], axis=1)
        pal = np.asarray(palette, dtype=np.uint8)
        if pal.shape != (256, 3):
            raise ValueError(f"palette must be (256, 3) RGB, got {pal.shape}")
        # color table entries are BGRX
        table = np.zeros((256, 4), np.uint8)
        table[:, 0], table[:, 1], table[:, 2] = pal[:, 2], pal[:, 1], pal[:, 0]
        table_bytes = table.tobytes()
        rows = a
    elif a.ndim == 3 and a.shape[2] == 3:
        bpp, (h, w, _) = 24, a.shape
        table_bytes = b""
        rows = a[:, :, ::-1].reshape(h, w * 3)  # RGB -> BGR interleaved
    else:
        raise ValueError(f"BMP writer takes (h,w) or (h,w,3), got {a.shape}")
    stride = _stride(w, bpp)
    body = np.zeros((h, stride), np.uint8)
    body[:, : rows.shape[1]] = rows[::-1]  # bottom-up
    data_off = 14 + 40 + len(table_bytes)
    file_size = data_off + h * stride
    hdr = struct.pack("<2sIHHI", b"BM", file_size, 0, 0, data_off)
    info = struct.pack("<IiiHHIIiiII", 40, w, h, 1, bpp, 0, h * stride,
                       2835, 2835, 256 if bpp == 8 else 0, 0)
    with open(path, "wb") as f:
        f.write(hdr + info + table_bytes + body.tobytes())


def write_bmp_rle8(path: str, arr: np.ndarray,
                   palette: np.ndarray | None = None) -> None:
    """Write an 8-bit RLE-compressed BMP (BI_RLE8, biCompression=1 — the
    reference's BMPC_RLE8 read path, frmts/bmp/bmpdataset.cpp): per row,
    [count, value] runs, 00 00 end-of-line, 00 01 end-of-bitmap."""
    a = np.asarray(arr)
    if a.dtype != np.uint8 or a.ndim != 2:
        raise ValueError(f"RLE8 writer takes (h, w) uint8, got "
                         f"{a.shape} {a.dtype}")
    h, w = a.shape
    if palette is None:
        g = np.arange(256, dtype=np.uint8)
        palette = np.stack([g, g, g], axis=1)
    pal = np.asarray(palette, dtype=np.uint8)
    table = np.zeros((256, 4), np.uint8)
    table[:, 0], table[:, 1], table[:, 2] = pal[:, 2], pal[:, 1], pal[:, 0]
    body = bytearray()
    for row in a[::-1]:  # bottom-up storage order
        edges = np.nonzero(np.r_[True, row[1:] != row[:-1]])[0]
        lens = np.diff(np.r_[edges, w])
        for start, ln in zip(edges, lens):
            v = int(row[start])
            while ln > 255:
                body += bytes((255, v))
                ln -= 255
            body += bytes((ln, v))
        body += b"\x00\x00"  # end of line
    body += b"\x00\x01"  # end of bitmap
    data_off = 14 + 40 + table.nbytes
    hdr = struct.pack("<2sIHHI", b"BM", data_off + len(body), 0, 0, data_off)
    info = struct.pack("<IiiHHIIiiII", 40, w, h, 1, 8, 1, len(body),
                       2835, 2835, 256, 0)
    with open(path, "wb") as f:
        f.write(hdr + info + table.tobytes() + bytes(body))


def _decode_rle8(data: bytes, w: int, h: int) -> np.ndarray:
    """BI_RLE8 decode (bottom-up): encoded runs, 00 00 EOL, 00 01 EOB,
    00 02 dx dy delta, 00 n>=3 absolute run (word-padded)."""
    out = np.zeros((h, w), np.uint8)
    x = y = i = 0
    n = len(data)
    while i + 1 < n:
        c, v = data[i], data[i + 1]
        i += 2
        if c > 0:  # encoded run
            out[y, x: min(x + c, w)] = v
            x += c
        elif v == 0:  # end of line
            x, y = 0, y + 1
            if y >= h:
                break
        elif v == 1:  # end of bitmap
            break
        elif v == 2:  # delta
            if i + 1 >= n:
                raise ValueError("truncated RLE8 delta")
            x += data[i]
            y += data[i + 1]
            i += 2
        else:  # absolute mode: v literal bytes, padded to 16-bit boundary
            if i + v > n:
                raise ValueError("truncated RLE8 absolute run")
            lit = np.frombuffer(data[i: i + v], np.uint8)
            end = min(x + v, w)
            out[y, x:end] = lit[: end - x]
            x += v
            i += v + (v & 1)
    return out[::-1]  # storage is bottom-up


def _parse_header(path: str):
    with open(path, "rb") as f:
        head = f.read(14 + 40)
    if head[:2] != b"BM" or len(head) < 54:
        raise ValueError("not a BMP: missing BM magic")
    data_off = struct.unpack_from("<I", head, 10)[0]
    (bi_size, w, h, planes, bpp, comp) = struct.unpack_from("<IiiHHI", head, 14)
    if bi_size < 40:
        raise ValueError(f"unsupported BMP header size {bi_size} (need "
                         "BITMAPINFOHEADER or later)")
    if comp not in (0, 1) or (comp == 1 and bpp != 8):
        raise ValueError(f"unsupported BMP compression {comp} at {bpp} bpp "
                         "(BI_RGB, or BI_RLE8 at 8 bpp — the reference's "
                         "BMPC_RLE8 surface, frmts/bmp/bmpdataset.cpp)")
    if bpp not in (8, 24):
        raise ValueError(f"unsupported BMP bit depth {bpp} (8 or 24)")
    bottom_up = h > 0
    h = abs(h)
    palette = None
    if bpp == 8:
        with open(path, "rb") as f:
            f.seek(14 + bi_size)
            table = np.frombuffer(f.read(256 * 4), np.uint8).reshape(-1, 4)
        palette = table[:, [2, 1, 0]].copy()  # BGRX -> RGB
    return {"width": w, "height": h, "bpp": bpp, "data_off": data_off,
            "stride": _stride(w, bpp), "bottom_up": bottom_up,
            "palette": palette, "comp": comp}


def read_bmp(path: str):
    """Parse a BMP -> (array, header dict).  8-bit -> (h, w) uint8 index
    array (palette in the header); 24-bit -> (h, w, 3) uint8 RGB."""
    hdr = _parse_header(path)
    arr = read_bmp_window(path, 0, hdr["height"], 0, hdr["width"], hdr)
    return arr, hdr


def read_bmp_window(path: str, y0: int, y1: int, x0: int, x1: int,
                    hdr: dict | None = None) -> np.ndarray:
    """Windowed read: only the touched scanlines load (rows live at
    independent offsets; the reference's IReadBlock is likewise
    scanline-addressed).  y is top-down image space regardless of the
    file's storage order.  RLE8 streams are inherently sequential — they
    decode whole then slice (the reference does the same)."""
    if hdr is None:
        hdr = _parse_header(path)
    if hdr.get("comp") == 1:
        with open(path, "rb") as f:
            f.seek(hdr["data_off"])
            full = _decode_rle8(f.read(), hdr["width"], hdr["height"])
        if not (0 <= y0 <= y1 <= hdr["height"]
                and 0 <= x0 <= x1 <= hdr["width"]):
            raise ValueError(f"window [{y0}:{y1},{x0}:{x1}] outside "
                             f"{hdr['height']}x{hdr['width']}")
        return full[y0:y1, x0:x1].copy()
    h, w, bpp = hdr["height"], hdr["width"], hdr["bpp"]
    if not (0 <= y0 <= y1 <= h and 0 <= x0 <= x1 <= w):
        raise ValueError(f"window [{y0}:{y1},{x0}:{x1}] outside {h}x{w}")
    stride, off = hdr["stride"], hdr["data_off"]
    nrows = y1 - y0
    mm = np.memmap(path, dtype=np.uint8, mode="r")
    if hdr["bottom_up"]:
        # image row y lives at file row (h-1-y); rows y0..y1-1 are the
        # contiguous file rows (h-y1)..(h-y0-1) reversed
        block = mm[off + (h - y1) * stride: off + (h - y0) * stride]
        rows = block.reshape(nrows, stride)[::-1]
    else:
        block = mm[off + y0 * stride: off + y1 * stride]
        rows = block.reshape(nrows, stride)
    if bpp == 8:
        return np.array(rows[:, x0:x1])
    px = rows[:, x0 * 3: x1 * 3].reshape(nrows, x1 - x0, 3)
    return np.array(px[:, :, ::-1])  # BGR -> RGB


def read_bmp_tiles(path: str, tile_size: int = 64, z: int = 4,
                   band: int = 1):
    """BMP -> the engine's standard tile-row Dataset.  8-bit: one uint8
    band of palette indices (the reference likewise exposes the index band
    plus a color table).  24-bit: ``band`` selects R=1/G=2/B=3."""
    from .openraster import window_tiles

    hdr = _parse_header(path)
    if hdr.get("comp") == 1:
        # an RLE8 stream is sequential: decode it once, then slice windows
        arr = read_bmp_window(path, 0, hdr["height"], 0, hdr["width"], hdr)

        def read(y0, y1, x0, x1):
            return arr[y0:y1, x0:x1]
    else:
        def read(y0, y1, x0, x1):
            return read_bmp_window(path, y0, y1, x0, x1, hdr)
    return window_tiles(hdr["height"], hdr["width"], read, tile_size=tile_size,
                        z=z, band=band, crs="EPSG:3857", nodata=0.0)
