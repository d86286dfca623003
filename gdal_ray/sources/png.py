"""Minimal PNG codec + z/x/y.png tile-directory sink.

Re-answers the reference's tile-output path (``apps/gdalalg_raster_tile.cpp``
/ gdal2tiles: PNG tiles in a z/x/y directory tree) with a dependency-free
encoder: PNG signature + IHDR/IDAT/IEND chunks, zlib (stdlib) compression,
filter type 0 on every scanline, grayscale (1 band) or RGB (3 band) 8-bit.
The matching decoder handles exactly what the encoder emits (filter 0 only)
so round trips are testable without an image library.

Determinism: zlib.compress(level=6) is deterministic for a given input, so
tile files are byte-stable across runs (the resume manifest can trust file
existence, matching the reference's tile-skip behavior,
apps/gdalalg_raster_tile.cpp:676-682).
"""

from __future__ import annotations

import os
import struct
import zlib

import numpy as np
import pyarrow as pa

from ..functions.tilerow import pixels

_SIG = b"\x89PNG\r\n\x1a\n"


def _chunk(tag: bytes, payload: bytes) -> bytes:
    return (struct.pack(">I", len(payload)) + tag + payload
            + struct.pack(">I", zlib.crc32(tag + payload) & 0xFFFFFFFF))


def _paeth(a, b, c):
    """Paeth predictor (PNG spec 9.4), elementwise over int arrays."""
    p = a + b - c
    pa_, pb, pcc = np.abs(p - a), np.abs(p - b), np.abs(p - c)
    return np.where((pa_ <= pb) & (pa_ <= pcc), a, np.where(pb <= pcc, b, c))


def encode_png(arr: np.ndarray, filter_type: int = 0) -> bytes:
    """(h, w) grayscale or (h, w, 3) RGB uint8 -> PNG bytes.
    ``filter_type`` (0=None, 1=Sub, 2=Up, 3=Average, 4=Paeth) is applied to
    every scanline; default None keeps tile bytes stable across runs."""
    a = np.asarray(arr, dtype=np.uint8)
    if a.ndim == 2:
        color_type, channels = 0, 1
    elif a.ndim == 3 and a.shape[2] == 3:
        color_type, channels = 2, 3
    else:
        raise ValueError("encode_png expects (h,w) gray or (h,w,3) RGB uint8")
    if filter_type not in (0, 1, 2, 3, 4):
        raise ValueError(f"unknown PNG filter type {filter_type}")
    h, w = a.shape[0], a.shape[1]
    ihdr = struct.pack(">IIBBBBB", w, h, 8, color_type, 0, 0, 0)
    px = a.reshape(h, w * channels).astype(np.int64)
    bpp = channels
    left = np.zeros_like(px)
    left[:, bpp:] = px[:, :-bpp]
    up = np.zeros_like(px)
    up[1:] = px[:-1]
    upleft = np.zeros_like(px)
    upleft[1:, bpp:] = px[:-1, :-bpp]
    if filter_type == 0:
        filt = px
    elif filter_type == 1:
        filt = px - left
    elif filter_type == 2:
        filt = px - up
    elif filter_type == 3:
        filt = px - (left + up) // 2
    else:
        filt = px - _paeth(left, up, upleft)
    raw = np.empty((h, 1 + w * channels), dtype=np.uint8)
    raw[:, 0] = filter_type
    raw[:, 1:] = (filt % 256).astype(np.uint8)
    idat = zlib.compress(raw.tobytes(), 6)
    return _SIG + _chunk(b"IHDR", ihdr) + _chunk(b"IDAT", idat) + _chunk(b"IEND", b"")


def decode_png(data: bytes) -> np.ndarray:
    """Parse PNGs produced by encode_png (8-bit gray/RGB, filter 0)."""
    if data[:8] != _SIG:
        raise ValueError("not a PNG")
    pos = 8
    ihdr = None
    plte = None
    idat = b""
    while pos < len(data):
        if pos + 8 > len(data):
            raise ValueError("truncated PNG (chunk header past end of data)")
        (ln,) = struct.unpack_from(">I", data, pos)
        if pos + 12 + ln > len(data):
            raise ValueError("truncated PNG (chunk body past end of data)")
        tag = data[pos + 4:pos + 8]
        payload = data[pos + 8:pos + 8 + ln]
        if struct.unpack_from(">I", data, pos + 8 + ln)[0] != (
                zlib.crc32(tag + payload) & 0xFFFFFFFF):
            raise ValueError(f"PNG chunk {tag!r} CRC mismatch")
        if tag == b"IHDR":
            ihdr = struct.unpack(">IIBBBBB", payload)
        elif tag == b"PLTE":
            plte = payload
        elif tag == b"IDAT":
            idat += payload
        elif tag == b"IEND":
            break
        pos += 12 + ln
    if ihdr is None:
        raise ValueError("PNG missing IHDR")
    w, h, depth, color_type, comp, filt, interlace = ihdr
    if depth not in (8, 16) or color_type not in (0, 2, 3, 4, 6) \
            or interlace != 0:
        raise ValueError(
            "decode_png supports 8/16-bit gray/RGB/palette/gray+alpha/"
            "RGBA non-interlaced only")
    channels = {0: 1, 2: 3, 3: 1, 4: 2, 6: 4}[color_type]
    bytes_per_sample = depth // 8
    raw = np.frombuffer(zlib.decompress(idat), dtype=np.uint8)
    raw = raw.reshape(h, 1 + w * channels * bytes_per_sample)
    ftypes = raw[:, 0]
    if (ftypes > 4).any():
        raise ValueError(f"unknown PNG filter type {int(ftypes.max())}")
    bpp = channels * bytes_per_sample
    n = w * channels * bytes_per_sample
    if (ftypes == 0).all():
        px = raw[:, 1:]  # fast path: our own tiles
        return _png_samples(px, w, h, channels, depth, color_type, plte)
    # full spec unfiltering (PNG spec 9.4): rows reconstruct sequentially
    # (Up/Average/Paeth read the previous RECONSTRUCTED row); Sub/Average/
    # Paeth have an in-row left dependency — Sub vectorizes as a per-channel
    # modular cumsum, Average/Paeth walk pixels
    out = np.zeros((h, n), dtype=np.int64)
    prev = np.zeros(n, dtype=np.int64)
    for y in range(h):
        ft = int(ftypes[y])
        row = raw[y, 1:].astype(np.int64)
        if ft == 0:
            rec = row
        elif ft == 1:
            rec = row.reshape(-1, bpp).cumsum(axis=0).reshape(n) % 256
        elif ft == 2:
            rec = (row + prev) % 256
        else:
            rec = np.zeros(n, dtype=np.int64)
            for x in range(n):
                left = rec[x - bpp] if x >= bpp else 0
                upleft = prev[x - bpp] if x >= bpp else 0
                pred = ((left + prev[x]) // 2 if ft == 3
                        else int(_paeth(np.int64(left), prev[x],
                                        np.int64(upleft))))
                rec[x] = (row[x] + pred) % 256
        out[y] = rec
        prev = rec
    px = out.astype(np.uint8)
    return _png_samples(px, w, h, channels, depth, color_type, plte)


def _png_samples(px: np.ndarray, w: int, h: int, channels: int,
                 depth: int, color_type: int, plte: bytes | None):
    """Reconstructed filter-stripped rows -> sample array (gray (h, w),
    else (h, w, channels)); 16-bit samples are big-endian per spec;
    palette rows expand through PLTE to (h, w, 3)."""
    if depth == 16:
        a = np.frombuffer(np.ascontiguousarray(px).tobytes(),
                          dtype=">u2").astype(np.uint16)
        a = a.reshape(h, w, channels)
        return a[:, :, 0] if channels == 1 else a
    a = np.ascontiguousarray(px).reshape(h, w, channels)
    if color_type == 3:
        if plte is None:
            raise ValueError("palette PNG without PLTE chunk")
        pal = np.frombuffer(plte, np.uint8).reshape(-1, 3)
        return pal[a[:, :, 0]]
    return a[:, :, 0] if channels == 1 else a


def write_png_tiles(tiles_ds, root: str, resume: bool = True):
    """z/x/y.png tile sink — see write_image_tiles."""
    return write_image_tiles(tiles_ds, root, codec="png", resume=resume)


def write_image_tiles(tiles_ds, root: str, codec: str = "png",
                      quality: int = 90, resume: bool = True):
    """Tile rows -> <root>/<z>/<x>/<y>.{png|jpg} (+ a resumable manifest).

    Ray-Data shape: a streaming map_batches writes each tile from the worker
    (shared filesystem / object-store mount assumption — the same contract
    as the reference's tile output directory); with ``resume``, tiles whose
    file already exists are skipped (reference behavior,
    apps/gdalalg_raster_tile.cpp:676-682).  ``codec='jpeg'`` writes baseline
    JFIF tiles (sources/jpeg.py) at ``quality`` — the reference's
    --tile-format choice.  Returns a Dataset of
    (z, x, y, path, n_bytes, skipped) receipts — consume it to execute."""
    if codec not in ("png", "jpeg"):
        raise ValueError(f"unknown tile codec {codec!r}")
    ext = ".png" if codec == "png" else ".jpg"
    os.makedirs(root, exist_ok=True)

    def write_batch(batch: pa.Table) -> pa.Table:
        if codec == "jpeg":
            from .jpeg import encode_baseline
        out = {"z": [], "x": [], "y": [], "path": [], "n_bytes": [], "skipped": []}
        for i in range(batch.num_rows):
            z = batch["z"][i].as_py()
            x = batch["x"][i].as_py()
            y = batch["y"][i].as_py()
            path = os.path.join(root, str(z), str(x), f"{y}{ext}")
            skipped = resume and os.path.exists(path)
            n_bytes = 0
            if not skipped:
                u8 = np.clip(pixels(batch, i), 0, 255).astype(np.uint8)
                png = (encode_png(u8) if codec == "png"
                       else encode_baseline(u8, quality=quality))
                os.makedirs(os.path.dirname(path), exist_ok=True)
                tmp = path + ".tmp"
                with open(tmp, "wb") as f:
                    f.write(png)
                os.replace(tmp, path)  # atomic publish (resume-safe)
                n_bytes = len(png)
            out["z"].append(z); out["x"].append(x); out["y"].append(y)
            out["path"].append(path); out["n_bytes"].append(n_bytes)
            out["skipped"].append(bool(skipped))
        return pa.table({
            "z": pa.array(out["z"], pa.int64()), "x": pa.array(out["x"], pa.int64()),
            "y": pa.array(out["y"], pa.int64()), "path": pa.array(out["path"]),
            "n_bytes": pa.array(out["n_bytes"], pa.int64()),
            "skipped": pa.array(out["skipped"], pa.bool_()),
        })

    return tiles_ds.map_batches(write_batch, batch_format="pyarrow")
