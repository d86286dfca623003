"""DTED (Digital Terrain Elevation Data) raster format — reader + writer.

Re-answers the reference's DTED driver (``frmts/dted/dted_api.c``: UHL/DSI/ACC
header records of 80/648/2700 bytes, per-longitude-column data records with a
0252 sentinel, block/longitude/latitude counts, SIGNED-MAGNITUDE big-endian
samples stored south-to-north, and a 32-bit byte-sum checksum per record —
decode loop at ``dted_api.c:640-666``, checksum at ``:684-703``;
``dted_create.c`` writes the same layout) from the published MIL-PRF-89020B
layout.

Levels: DTED0 = 121x121, DTED1 = 1201x1201, DTED2 = 3601x3601 (the writer
accepts any square/rectangular grid and stamps the standard level intervals
when they match).  Nodata is -32767 (``dted_api.h:83``).

Ray-Data shape: data records are fixed-length, so the whole data section
views as a (ncols, record_len) matrix — windowed reads slice columns and the
south-to-north sample range directly off a memmap without touching other
pages.
"""

from __future__ import annotations

import numpy as np

UHL_SIZE, DSI_SIZE, ACC_SIZE = 80, 648, 2700
NODATA = -32767


def write_dted(path: str, arr: np.ndarray, lon0: int = 0, lat0: int = 0,
               interval_tenths: int = 30) -> None:
    """Write a DTED file.  ``arr`` (nrows, ncols) int16, row 0 = NORTH;
    (lon0, lat0) = SW corner in whole degrees; ``interval_tenths`` = grid
    spacing in tenths of arc-seconds (30 = DTED level 1)."""
    a = np.asarray(arr)
    if a.dtype != np.int16 or a.ndim != 2:
        raise ValueError(f"DTED writer takes (h, w) int16, got "
                         f"{a.shape} {a.dtype}")
    if np.any((a < -32767) | (a > 32767)):
        raise ValueError("DTED samples must fit signed magnitude 15 bits")
    h, w = a.shape
    uhl = bytearray(b" " * UHL_SIZE)
    uhl[0:4] = b"UHL1"
    uhl[4:12] = b"%07d%s" % (abs(lon0) * 10000, b"W" if lon0 < 0 else b"E")
    uhl[12:20] = b"%07d%s" % (abs(lat0) * 10000, b"S" if lat0 < 0 else b"N")
    uhl[20:24] = b"%04d" % interval_tenths
    uhl[24:28] = b"%04d" % interval_tenths
    uhl[28:32] = b"NA  "
    uhl[32:35] = b"U  "
    uhl[35:47] = b"GDALRAY     "
    uhl[47:51] = b"%04d" % w
    uhl[51:55] = b"%04d" % h
    uhl[55:56] = b"0"
    dsi = bytearray(b" " * DSI_SIZE)
    dsi[0:3] = b"DSI"
    dsi[3:4] = b"U"
    # grid dims mirrored in the DSI (dted_api.c:241-243 reads 559+4 / 563+4)
    dsi[559:563] = b"%04d" % h
    dsi[563:567] = b"%04d" % w
    acc = bytearray(b" " * ACC_SIZE)
    acc[0:3] = b"ACC"
    # sign-magnitude encode, south-to-north within each column
    flipped = a[::-1].astype(np.int64)  # row 0 -> south
    mag = np.abs(flipped).astype(np.uint16)
    sm = np.where(flipped < 0, mag | 0x8000, mag).astype(">u2")
    rec_len = 8 + 2 * h + 4
    recs = np.zeros((w, rec_len), np.uint8)
    recs[:, 0] = 0o252
    blocks = np.arange(w, dtype=np.uint32)
    recs[:, 1] = (blocks >> 16).astype(np.uint8)
    recs[:, 2] = ((blocks >> 8) & 0xFF).astype(np.uint8)
    recs[:, 3] = (blocks & 0xFF).astype(np.uint8)
    recs[:, 4] = (blocks >> 8).astype(np.uint8)
    recs[:, 5] = (blocks & 0xFF).astype(np.uint8)
    # bytes 6-7: latitude count (0 at the full-cell origin)
    body = sm.T.copy().view(np.uint8)  # (w, 2h): column-major samples
    recs[:, 8:8 + 2 * h] = body.reshape(w, 2 * h)
    sums = recs[:, :8 + 2 * h].astype(np.uint32).sum(axis=1)
    recs[:, -4] = (sums >> 24).astype(np.uint8)
    recs[:, -3] = ((sums >> 16) & 0xFF).astype(np.uint8)
    recs[:, -2] = ((sums >> 8) & 0xFF).astype(np.uint8)
    recs[:, -1] = (sums & 0xFF).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(bytes(uhl) + bytes(dsi) + bytes(acc) + recs.tobytes())


def _parse_header(path: str):
    with open(path, "rb") as f:
        head = f.read(UHL_SIZE + DSI_SIZE + ACC_SIZE)
    if not head.startswith(b"UHL"):
        raise ValueError("not a DTED file: missing UHL record "
                         "(dted_api.c:155)")
    if head[UHL_SIZE:UHL_SIZE + 3] != b"DSI" or \
            head[UHL_SIZE + DSI_SIZE:UHL_SIZE + DSI_SIZE + 3] != b"ACC":
        raise ValueError("DSI or ACC record missing (dted_api.c:202)")

    def dms_field(b: bytes) -> float:
        v = int(b[:3]) + int(b[3:5]) / 60.0 + int(b[5:7]) / 3600.0
        return -v if b[7:8] in (b"W", b"S") else v

    lon0 = dms_field(head[4:12])
    lat0 = dms_field(head[12:20])
    w = int(head[47:51])
    h = int(head[51:55])
    return {"width": w, "height": h, "lon0": lon0, "lat0": lat0,
            "interval_tenths": int(head[20:24]),
            "data_off": UHL_SIZE + DSI_SIZE + ACC_SIZE,
            "rec_len": 8 + 2 * h + 4}


def read_dted(path: str, verify_checksum: bool = True):
    hdr = _parse_header(path)
    arr = read_dted_window(path, 0, hdr["height"], 0, hdr["width"], hdr,
                           verify_checksum=verify_checksum)
    return arr, hdr


def read_dted_window(path: str, y0: int, y1: int, x0: int, x1: int,
                     hdr: dict | None = None,
                     verify_checksum: bool = False) -> np.ndarray:
    """Windowed read (row 0 = north).  Data records are fixed length, so
    the window touches only its own columns' pages; ``verify_checksum``
    additionally folds each touched record's 32-bit byte sum
    (dted_api.c:684-703)."""
    if hdr is None:
        hdr = _parse_header(path)
    h, w = hdr["height"], hdr["width"]
    if not (0 <= y0 <= y1 <= h and 0 <= x0 <= x1 <= w):
        raise ValueError(f"window [{y0}:{y1},{x0}:{x1}] outside {h}x{w}")
    rl = hdr["rec_len"]
    mm = np.memmap(path, dtype=np.uint8, mode="r", offset=hdr["data_off"])
    if mm.size < w * rl:
        raise ValueError(f"DTED data section {mm.size} bytes < {w * rl}")
    recs = mm[x0 * rl: x1 * rl].reshape(x1 - x0, rl)
    if np.any(recs[:, 0] != 0o252):
        raise ValueError("data record sentinel 0252 missing "
                         "(dted_api.c:352)")
    if verify_checksum:
        sums = recs[:, :8 + 2 * h].astype(np.uint32).sum(axis=1)
        stored = ((recs[:, -4].astype(np.uint32) << 24)
                  | (recs[:, -3].astype(np.uint32) << 16)
                  | (recs[:, -2].astype(np.uint32) << 8)
                  | recs[:, -1])
        bad = np.nonzero(sums != stored)[0]
        if bad.size:
            raise ValueError(f"DTED checksum mismatch in column(s) "
                             f"{(bad + x0).tolist()[:5]}")
    # samples are south-to-north: row y (north-indexed) = sample h-1-y
    s0, s1 = h - y1, h - y0
    body = recs[:, 8:8 + 2 * h].reshape(x1 - x0, h, 2)[:, s0:s1][:, ::-1]
    hi = body[:, :, 0].astype(np.int32)
    lo = body[:, :, 1].astype(np.int32)
    mag = ((hi & 0x7F) << 8) | lo
    vals = np.where(hi & 0x80, -mag, mag)
    # improperly two-complemented negatives (dted_api.c:655-661)
    twos = (vals < -16000) & (vals != NODATA)
    if np.any(twos):
        raw = ((hi << 8) | lo).astype(np.int16).astype(np.int32)
        vals = np.where(twos, raw, vals)
    return vals.T.astype(np.int16)  # (rows, cols), row 0 = north


def read_dted_tiles(path: str, tile_size: int = 64, z: int = 4):
    from .openraster import window_tiles

    hdr = _parse_header(path)
    return window_tiles(
        hdr["height"], hdr["width"],
        lambda y0, y1, x0, x1: read_dted_window(path, y0, y1, x0, x1, hdr),
        tile_size=tile_size, z=z, band=1, crs="EPSG:4326", nodata=NODATA)
