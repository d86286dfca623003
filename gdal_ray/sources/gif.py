"""GIF raster format — reader + writer with a from-spec LZW codec.

Re-answers the reference's GIF driver (``frmts/gif/gifdataset.cpp``, which
delegates to giflib) from the published GIF89a specification: logical screen
descriptor, global color table, image descriptor (with interlace
deinterleaving on read), and the GIF variant of LZW — LSB-first variable
width codes (min+1 .. 12 bits), CLEAR/EOI codes, early code-width change
(width bumps when the next free code reaches 1<<width, matching giflib's
``RunningCode >= MaxCode1`` rule), table reset at 4096 entries, and
255-byte data sub-blocks.

Scope: single-image 8-bit palettized GIFs (the raster case the reference
exposes — one index band plus a color table); animation extension blocks
are skipped on read.  The LZW loops are scalar Python — fixture-scale
codecs, same policy as the in-repo PNG/JPEG coders.
"""

from __future__ import annotations

import struct

import numpy as np


# -- LZW ----------------------------------------------------------------------


def _lzw_encode(indices: np.ndarray, mcs: int) -> bytes:
    clear, eoi = 1 << mcs, (1 << mcs) + 1
    out = bytearray()
    acc = nbits = 0

    def emit(code: int, width: int):
        nonlocal acc, nbits
        acc |= code << nbits
        nbits += width
        while nbits >= 8:
            out.append(acc & 0xFF)
            acc >>= 8
            nbits -= 8

    width = mcs + 1
    table: dict = {}
    next_code = eoi + 1
    emit(clear, width)
    px = indices.ravel().tolist()
    w = px[0]
    for k in px[1:]:
        wk = (w, k)
        if wk in table:
            w = table[wk]
            continue
        emit(w, width)
        if next_code == 4096:
            emit(clear, width)
            table.clear()
            next_code = eoi + 1
            width = mcs + 1
        else:
            table[wk] = next_code
            next_code += 1
            if next_code == (1 << width) and width < 12:
                width += 1
        w = k
    emit(w, width)
    emit(eoi, width)
    if nbits:
        out.append(acc & 0xFF)
    return bytes(out)


def _lzw_decode(data: bytes, mcs: int, npix: int) -> np.ndarray:
    clear, eoi = 1 << mcs, (1 << mcs) + 1
    out = bytearray()
    entries = [bytes([i]) for i in range(1 << mcs)] + [b"", b""]
    width = mcs + 1
    next_code = eoi + 1
    prev = None
    acc = nbits = pos = 0
    n = len(data)
    while len(out) < npix:
        while nbits < width:
            if pos >= n:
                raise ValueError("truncated GIF LZW stream")
            acc |= data[pos] << nbits
            pos += 1
            nbits += 8
        code = acc & ((1 << width) - 1)
        acc >>= width
        nbits -= width
        if code == clear:
            entries = entries[: eoi + 1]
            width = mcs + 1
            next_code = eoi + 1
            prev = None
            continue
        if code == eoi:
            break
        if code < len(entries) and code < next_code:
            entry = entries[code]
        elif code == next_code and prev is not None:
            entry = entries[prev] + entries[prev][:1]
        else:
            raise ValueError(f"bad GIF LZW code {code} (next={next_code})")
        out += entry
        if prev is not None and next_code < 4096:
            entries.append(entries[prev] + entry[:1])
            next_code += 1
            # early change, one entry ahead of the encoder's bump: the
            # decoder's add runs one code BEHIND the encoder's (it needs the
            # next code's first byte), so at read time its table is one
            # entry short — bump at (1<<width)-1 to read the same stream
            # position at the same width (giflib pairs the counters the
            # same way via a pre-incremented RunningCode)
            if next_code == (1 << width) - 1 and width < 12:
                width += 1
        prev = code
    if len(out) != npix:
        raise ValueError(f"GIF LZW decoded {len(out)} pixels, expected {npix}")
    return np.frombuffer(bytes(out), np.uint8)


def _interlace_order(h: int) -> np.ndarray:
    """Row storage order of an interlaced image (GIF89a appendix E):
    passes start at rows 0/4/2/1 with steps 8/8/4/2."""
    return np.concatenate([np.arange(start, h, step) for start, step in
                           ((0, 8), (4, 8), (2, 4), (1, 2))])


# -- container ----------------------------------------------------------------


def write_gif(path: str, arr: np.ndarray,
              palette: np.ndarray | None = None,
              interlace: bool = False) -> None:
    """Write a single-image GIF89a.  ``arr`` (h, w) uint8 palette indices;
    default palette = grayscale identity.  ``interlace`` stores rows in
    four-pass order (the reference's INTERLACE creation option,
    frmts/gif/gifdataset.cpp)."""
    a = np.asarray(arr)
    if a.dtype != np.uint8 or a.ndim != 2:
        raise ValueError(f"GIF writer takes (h, w) uint8, got "
                         f"{a.shape} {a.dtype}")
    if palette is None:
        g = np.arange(256, dtype=np.uint8)
        palette = np.stack([g, g, g], axis=1)
    pal = np.asarray(palette, dtype=np.uint8)
    if pal.shape != (256, 3):
        raise ValueError(f"palette must be (256, 3) RGB, got {pal.shape}")
    h, w = a.shape
    if interlace:
        a = a[_interlace_order(h)]
    mcs = 8  # 256-entry table -> min code size 8
    lzw = _lzw_encode(a, mcs)
    with open(path, "wb") as f:
        f.write(b"GIF89a")
        # logical screen: GCT present, 8 bits color resolution, size 2^8
        f.write(struct.pack("<HHBBB", w, h, 0x80 | (7 << 4) | 7, 0, 0))
        f.write(pal.tobytes())
        f.write(b"\x2C" + struct.pack(
            "<HHHHB", 0, 0, w, h, 0x40 if interlace else 0))  # no LCT
        f.write(bytes([mcs]))
        for i in range(0, len(lzw), 255):
            chunk = lzw[i: i + 255]
            f.write(bytes([len(chunk)]) + chunk)
        f.write(b"\x00\x3B")


def read_gif(path: str):
    """Parse a GIF -> (index array (h, w) uint8, header dict with the
    active palette).  Extensions are skipped; the first image block is
    returned (the reference's multi-image handling maps extra images to
    subdatasets — out of scope here)."""
    with open(path, "rb") as f:
        buf = f.read()
    if buf[:6] not in (b"GIF87a", b"GIF89a"):
        raise ValueError("not a GIF: bad magic")
    sw, sh, packed, _bg, _aspect = struct.unpack_from("<HHBBB", buf, 6)
    pos = 13
    gct = None
    if packed & 0x80:
        n = 2 << (packed & 0x07)
        gct = np.frombuffer(buf, np.uint8, n * 3, pos).reshape(n, 3)
        pos += n * 3
    while pos < len(buf):
        block = buf[pos]
        pos += 1
        if block == 0x3B:  # trailer
            break
        if block == 0x21:  # extension: label + sub-blocks
            pos += 1
            while buf[pos]:
                pos += 1 + buf[pos]
            pos += 1
            continue
        if block != 0x2C:
            raise ValueError(f"unexpected GIF block 0x{block:02x}")
        _left, _top, w, h, ipacked = struct.unpack_from("<HHHHB", buf, pos)
        pos += 9
        pal = gct
        if ipacked & 0x80:  # local color table
            n = 2 << (ipacked & 0x07)
            pal = np.frombuffer(buf, np.uint8, n * 3, pos).reshape(n, 3)
            pos += n * 3
        mcs = buf[pos]
        pos += 1
        data = bytearray()
        while buf[pos]:
            ln = buf[pos]
            data += buf[pos + 1: pos + 1 + ln]
            pos += 1 + ln
        pos += 1
        px = _lzw_decode(bytes(data), mcs, w * h).reshape(h, w)
        if ipacked & 0x40:  # interlaced: rows are stored in pass order
            out = np.empty_like(px)
            out[_interlace_order(h)] = px
            px = out
        if pal is None:
            raise ValueError("GIF image has no color table")
        return px.copy(), {"width": w, "height": h, "palette": pal.copy(),
                           "screen": (sw, sh),
                           "interlaced": bool(ipacked & 0x40)}
    raise ValueError("GIF contains no image block")


def read_gif_tiles(path: str, tile_size: int = 64, z: int = 4):
    """GIF -> the engine's standard tile-row Dataset (the uint8 index band;
    palette travels in the header like the reference's color table)."""
    from .openraster import window_tiles

    arr, _hdr = read_gif(path)
    return window_tiles(*arr.shape, lambda y0, y1, x0, x1: arr[y0:y1, x0:x1],
                        tile_size=tile_size, z=z, band=1, crs="EPSG:3857",
                        nodata=0.0)
