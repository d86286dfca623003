"""Baseline JPEG codec (JFIF, SOF0) — dependency-free, from the public spec.

Closes the round-3 missing item "compressed media codecs": the container has
no Pillow/libjpeg, so DecodeBackend("real") previously covered only the
in-repo PNG/WAV/AVI formats while real corpora are JPEG-heavy.  This module
implements the ITU-T T.81 baseline process from the published spec (Annex K
default quantization/Huffman tables, zigzag order, byte stuffing, YCbCr
per JFIF 1.02):

- ``encode_baseline(arr, quality, subsampling, restart_interval)``: grayscale
  (H,W) or RGB (H,W,3) uint8 -> JFIF bytes.  ``subsampling='444'`` (every
  component shares the MCU grid) or ``'420'`` (2x2 luma blocks + one Cb + one
  Cr per 16x16 MCU, chroma box-downsampled — the layout virtually every real
  camera/web JPEG uses).  ``restart_interval=n`` emits a DRI segment and
  byte-aligned RSTn markers every n MCUs with DC-predictor resets.
- ``decode_baseline(buf)``: SOF0 JFIF bytes -> (H,W) or (H,W,3) uint8.
  General sampling factors (4:4:4, 4:2:0, 4:2:2, 4:1:1, ...) with
  replicated chroma upsampling; DRI/RSTn restart intervals honored.

Reference surface: frmts/jpeg/jpgdataset.cpp (GDAL's JPEG driver, which
delegates to libjpeg); this is an independent implementation of the same
published format.  The DCT is an exact float64 matrix DCT-II; per-blob
Huffman decode is necessarily sequential, so corpus-scale decode
parallelism comes from the ``map_batches`` decode stage over blobs
(stages/media.py), not from inside one blob.

Exactness note for oracles: an image whose every aligned 8x8 block is a
CONSTANT value round-trips EXACTLY at quality >= 75 (DC quant step <= 8) (only the DC coefficient
is non-zero and the IDCT of a pure-DC block is constant), which gives the
driver queries a bit-stable SQL mirror through the full entropy pipeline.
"""

from __future__ import annotations

import struct

import numpy as np

# -- Annex K tables ----------------------------------------------------------

ZIGZAG = np.array([
    0, 1, 8, 16, 9, 2, 3, 10, 17, 24, 32, 25, 18, 11, 4, 5,
    12, 19, 26, 33, 40, 48, 41, 34, 27, 20, 13, 6, 7, 14, 21, 28,
    35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51,
    58, 59, 52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63,
], dtype=np.int64)
UNZIGZAG = np.argsort(ZIGZAG)

# Annex K.1 luminance / K.2 chrominance quantization tables (zigzag order
# NOT applied; these are in natural row-major order)
QT_LUMA = np.array([
    16, 11, 10, 16, 24, 40, 51, 61,
    12, 12, 14, 19, 26, 58, 60, 55,
    14, 13, 16, 24, 40, 57, 69, 56,
    14, 17, 22, 29, 51, 87, 80, 62,
    18, 22, 37, 56, 68, 109, 103, 77,
    24, 35, 55, 64, 81, 104, 113, 92,
    49, 64, 78, 87, 103, 121, 120, 101,
    72, 92, 95, 98, 112, 100, 103, 99,
], dtype=np.int64).reshape(8, 8)
QT_CHROMA = np.array([
    17, 18, 24, 47, 99, 99, 99, 99,
    18, 21, 26, 66, 99, 99, 99, 99,
    24, 26, 56, 99, 99, 99, 99, 99,
    47, 66, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
], dtype=np.int64).reshape(8, 8)

# Annex K.3 typical Huffman tables: (bits[1..16], huffval)
DC_LUMA_BITS = [0, 1, 5, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0]
DC_LUMA_VALS = list(range(12))
DC_CHROMA_BITS = [0, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0]
DC_CHROMA_VALS = list(range(12))
AC_LUMA_BITS = [0, 2, 1, 3, 3, 2, 4, 3, 5, 5, 4, 4, 0, 0, 1, 0x7D]
AC_LUMA_VALS = [
    0x01, 0x02, 0x03, 0x00, 0x04, 0x11, 0x05, 0x12, 0x21, 0x31, 0x41, 0x06,
    0x13, 0x51, 0x61, 0x07, 0x22, 0x71, 0x14, 0x32, 0x81, 0x91, 0xA1, 0x08,
    0x23, 0x42, 0xB1, 0xC1, 0x15, 0x52, 0xD1, 0xF0, 0x24, 0x33, 0x62, 0x72,
    0x82, 0x09, 0x0A, 0x16, 0x17, 0x18, 0x19, 0x1A, 0x25, 0x26, 0x27, 0x28,
    0x29, 0x2A, 0x34, 0x35, 0x36, 0x37, 0x38, 0x39, 0x3A, 0x43, 0x44, 0x45,
    0x46, 0x47, 0x48, 0x49, 0x4A, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58, 0x59,
    0x5A, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68, 0x69, 0x6A, 0x73, 0x74, 0x75,
    0x76, 0x77, 0x78, 0x79, 0x7A, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89,
    0x8A, 0x92, 0x93, 0x94, 0x95, 0x96, 0x97, 0x98, 0x99, 0x9A, 0xA2, 0xA3,
    0xA4, 0xA5, 0xA6, 0xA7, 0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4, 0xB5, 0xB6,
    0xB7, 0xB8, 0xB9, 0xBA, 0xC2, 0xC3, 0xC4, 0xC5, 0xC6, 0xC7, 0xC8, 0xC9,
    0xCA, 0xD2, 0xD3, 0xD4, 0xD5, 0xD6, 0xD7, 0xD8, 0xD9, 0xDA, 0xE1, 0xE2,
    0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9, 0xEA, 0xF1, 0xF2, 0xF3, 0xF4,
    0xF5, 0xF6, 0xF7, 0xF8, 0xF9, 0xFA,
]
AC_CHROMA_BITS = [0, 2, 1, 2, 4, 4, 3, 4, 7, 5, 4, 4, 0, 1, 2, 0x77]
AC_CHROMA_VALS = [
    0x00, 0x01, 0x02, 0x03, 0x11, 0x04, 0x05, 0x21, 0x31, 0x06, 0x12, 0x41,
    0x51, 0x07, 0x61, 0x71, 0x13, 0x22, 0x32, 0x81, 0x08, 0x14, 0x42, 0x91,
    0xA1, 0xB1, 0xC1, 0x09, 0x23, 0x33, 0x52, 0xF0, 0x15, 0x62, 0x72, 0xD1,
    0x0A, 0x16, 0x24, 0x34, 0xE1, 0x25, 0xF1, 0x17, 0x18, 0x19, 0x1A, 0x26,
    0x27, 0x28, 0x29, 0x2A, 0x35, 0x36, 0x37, 0x38, 0x39, 0x3A, 0x43, 0x44,
    0x45, 0x46, 0x47, 0x48, 0x49, 0x4A, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58,
    0x59, 0x5A, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68, 0x69, 0x6A, 0x73, 0x74,
    0x75, 0x76, 0x77, 0x78, 0x79, 0x7A, 0x82, 0x83, 0x84, 0x85, 0x86, 0x87,
    0x88, 0x89, 0x8A, 0x92, 0x93, 0x94, 0x95, 0x96, 0x97, 0x98, 0x99, 0x9A,
    0xA2, 0xA3, 0xA4, 0xA5, 0xA6, 0xA7, 0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4,
    0xB5, 0xB6, 0xB7, 0xB8, 0xB9, 0xBA, 0xC2, 0xC3, 0xC4, 0xC5, 0xC6, 0xC7,
    0xC8, 0xC9, 0xCA, 0xD2, 0xD3, 0xD4, 0xD5, 0xD6, 0xD7, 0xD8, 0xD9, 0xDA,
    0xE2, 0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9, 0xEA, 0xF2, 0xF3, 0xF4,
    0xF5, 0xF6, 0xF7, 0xF8, 0xF9, 0xFA,
]

_DCT_M = None


def _dct_matrix() -> np.ndarray:
    global _DCT_M
    if _DCT_M is None:
        k = np.arange(8)[:, None]
        n = np.arange(8)[None, :]
        m = np.cos((2 * n + 1) * k * np.pi / 16.0) * 0.5
        m[0, :] *= 1.0 / np.sqrt(2.0)
        _DCT_M = m
    return _DCT_M


def _scale_qt(qt: np.ndarray, quality: int) -> np.ndarray:
    """libjpeg's quality scaling (public formula): 1..100 -> table scale."""
    quality = max(1, min(100, int(quality)))
    s = 5000 // quality if quality < 50 else 200 - quality * 2
    out = (qt * s + 50) // 100
    return np.clip(out, 1, 255).astype(np.int64)


def _build_huffman(bits, vals):
    """(code, size) per symbol value, canonical order (spec C.2)."""
    sizes = []
    for l, n in enumerate(bits, start=1):
        sizes += [l] * n
    codes = {}
    code = 0
    k = 0
    for l in range(1, 17):
        for _ in range(bits[l - 1]):
            codes[vals[k]] = (code, l)
            code += 1
            k += 1
        code <<= 1
    return codes


class _BitWriter:
    def __init__(self):
        self.out = bytearray()
        self.acc = 0
        self.nbits = 0

    def write(self, code: int, size: int):
        self.acc = (self.acc << size) | (code & ((1 << size) - 1))
        self.nbits += size
        while self.nbits >= 8:
            b = (self.acc >> (self.nbits - 8)) & 0xFF
            self.out.append(b)
            if b == 0xFF:
                self.out.append(0x00)  # byte stuffing
            self.nbits -= 8
        self.acc &= (1 << self.nbits) - 1

    def flush(self):
        if self.nbits:
            pad = 8 - self.nbits
            self.write((1 << pad) - 1, pad)  # pad with 1s per spec


def _magnitude(v: int) -> tuple[int, int]:
    """(size, amplitude bits) for a DC diff / AC coefficient (spec F.1.2)."""
    if v == 0:
        return 0, 0
    a = abs(v)
    size = a.bit_length()
    bits = v if v > 0 else v + (1 << size) - 1
    return size, bits


def _encode_component_blocks(blocks_q: np.ndarray, dc_codes, ac_codes,
                             bw: _BitWriter, pred: int) -> int:
    """Entropy-encode quantized (N, 8, 8) blocks of one component
    interleaved call-by-call; returns the updated DC predictor."""
    for b in blocks_q:
        zz = b.ravel()[ZIGZAG]
        diff = int(zz[0]) - pred
        pred = int(zz[0])
        size, bits = _magnitude(diff)
        c, l = dc_codes[size]
        bw.write(c, l)
        if size:
            bw.write(bits, size)
        nz = np.flatnonzero(zz[1:]) + 1
        last = 0
        for idx in nz:
            run = idx - last - 1
            while run >= 16:
                c, l = ac_codes[0xF0]  # ZRL
                bw.write(c, l)
                run -= 16
            size, bits = _magnitude(int(zz[idx]))
            c, l = ac_codes[(run << 4) | size]
            bw.write(c, l)
            bw.write(bits, size)
            last = idx
        if last != 63:
            c, l = ac_codes[0x00]  # EOB
            bw.write(c, l)
    return pred


def _pad_edge(plane: np.ndarray, H: int, W: int) -> np.ndarray:
    """Edge-replicate ``plane`` up to (H, W)."""
    h, w = plane.shape
    if (H, W) == (h, w):
        return plane
    p = np.empty((H, W), plane.dtype)
    p[:h, :w] = plane
    p[h:, :w] = plane[h - 1:h, :]
    p[:h, w:] = plane[:, w - 1:w]
    p[h:, w:] = plane[h - 1, w - 1]
    return p


def _rgb_to_ycbcr(arr: np.ndarray):
    r = arr[:, :, 0].astype(np.float64)
    g = arr[:, :, 1].astype(np.float64)
    b = arr[:, :, 2].astype(np.float64)
    y = 0.299 * r + 0.587 * g + 0.114 * b
    cb = -0.168736 * r - 0.331264 * g + 0.5 * b + 128.0
    cr = 0.5 * r - 0.418688 * g - 0.081312 * b + 128.0
    return [y, cb, cr]


def _prepare_blocks(arr: np.ndarray, quality: int, subsampling: str):
    """Shared encode front half: color transform, optional 4:2:0 box
    downsample, blockwise DCT + quantization.

    Returns (gray, h, w, samp, qts, comp_q, mcux, mcuy) where ``comp_q[ci]``
    is the (bh, bw, 8, 8) int64 quantized block grid of component ci sized
    to the full interleaved MCU extent."""
    arr = np.asarray(arr)
    if arr.dtype != np.uint8:
        raise ValueError("uint8 input required")
    gray = arr.ndim == 2
    if not gray and (arr.ndim != 3 or arr.shape[2] != 3):
        raise ValueError("expected (H,W) or (H,W,3)")
    if subsampling not in ("444", "420"):
        raise ValueError("subsampling must be '444' or '420'")
    h, w = arr.shape[:2]
    planes = [arr.astype(np.float64)] if gray else _rgb_to_ycbcr(arr)
    sub420 = subsampling == "420" and not gray
    if sub420:
        # pad to the 16x16 MCU grid first so the 2x2 box downsample and the
        # luma block grid see the same edge-replicated extent
        H16, W16 = -(-h // 16) * 16, -(-w // 16) * 16
        planes = [_pad_edge(p, H16, W16) for p in planes]
        for ci in (1, 2):
            p = planes[ci]
            planes[ci] = p.reshape(H16 // 2, 2, W16 // 2, 2).mean(axis=(1, 3))
        samp = [(2, 2), (1, 1), (1, 1)]
        mcux, mcuy = W16 // 16, H16 // 16
    else:
        samp = [(1, 1)] * len(planes)
        mcux, mcuy = -(-w // 8), -(-h // 8)
    qts = [_scale_qt(QT_LUMA, quality)]
    if not gray:
        qts.append(_scale_qt(QT_CHROMA, quality))
    D = _dct_matrix()
    comp_q = []      # per comp: (bh, bw, 8, 8) quantized blocks
    for ci, plane in enumerate(planes):
        hi, vi = samp[ci]
        bh, bw_ = mcuy * vi, mcux * hi
        padded = _pad_edge(plane, bh * 8, bw_ * 8)
        blocks = (padded.reshape(bh, 8, bw_, 8).transpose(0, 2, 1, 3)
                  .astype(np.float64) - 128.0)
        coef = np.einsum("ij,xyjk,lk->xyil", D, blocks, D)
        qt = qts[min(ci, len(qts) - 1)].astype(np.float64)
        comp_q.append(np.round(coef / qt).astype(np.int64))
    return gray, h, w, samp, qts, comp_q, mcux, mcuy


def _write_preamble(out: bytearray, h: int, w: int, samp, qts,
                    sof_marker: bytes, restart_interval: int):
    """SOI / APP0 / DQT / DRI / SOFn headers shared by both encoders."""
    out += b"\xff\xd8"  # SOI
    out += b"\xff\xe0" + struct.pack(">H", 16) + b"JFIF\x00\x01\x02\x00" \
        + struct.pack(">HH", 1, 1) + b"\x00\x00"
    for i, qt in enumerate(qts):
        z = qt.ravel()[ZIGZAG].astype(np.uint8).tobytes()
        out += b"\xff\xdb" + struct.pack(">HB", 67, i) + z
    if restart_interval:
        out += b"\xff\xdd" + struct.pack(">HH", 4, restart_interval)
    ncomp = len(samp)
    out += sof_marker + struct.pack(">HBHHB", 8 + 3 * ncomp, 8, h, w, ncomp)
    for ci in range(ncomp):
        hi, vi = samp[ci]
        out += struct.pack("BBB", ci + 1, (hi << 4) | vi,
                           0 if ci == 0 else 1)


def encode_baseline(arr: np.ndarray, quality: int = 85,
                    subsampling: str = "444",
                    restart_interval: int = 0) -> bytes:
    """uint8 grayscale (H,W) or RGB (H,W,3) -> baseline JFIF bytes.

    ``subsampling='420'`` (3-component only): Y at full resolution with 2x2
    sampling factors, Cb/Cr box-downsampled by 2 in each axis — the MCU is
    16x16 px carrying blocks Y00 Y01 Y10 Y11 Cb Cr (spec A.2.3 interleave
    order).  ``restart_interval=n`` emits DRI + RSTn every n MCUs.
    """
    (gray, h, w, samp, qts, comp_q,
     mcux, mcuy) = _prepare_blocks(arr, quality, subsampling)
    ncomp = len(samp)
    out = bytearray()
    _write_preamble(out, h, w, samp, qts, b"\xff\xc0", restart_interval)
    tables = [(0x00, DC_LUMA_BITS, DC_LUMA_VALS),
              (0x10, AC_LUMA_BITS, AC_LUMA_VALS)]
    if not gray:
        tables += [(0x01, DC_CHROMA_BITS, DC_CHROMA_VALS),
                   (0x11, AC_CHROMA_BITS, AC_CHROMA_VALS)]
    for tc, bits, vals in tables:
        out += b"\xff\xc4" + struct.pack(">HB", 3 + 16 + len(vals), tc)
        out += bytes(bits) + bytes(vals)
    out += b"\xff\xda" + struct.pack(">HB", 6 + 2 * ncomp, ncomp)
    for ci in range(ncomp):
        out += struct.pack("BB", ci + 1, 0x00 if ci == 0 else 0x11)
    out += b"\x00\x3f\x00"

    dc_l = _build_huffman(DC_LUMA_BITS, DC_LUMA_VALS)
    ac_l = _build_huffman(AC_LUMA_BITS, AC_LUMA_VALS)
    if not gray:
        dc_c = _build_huffman(DC_CHROMA_BITS, DC_CHROMA_VALS)
        ac_c = _build_huffman(AC_CHROMA_BITS, AC_CHROMA_VALS)
    bw = _BitWriter()
    preds = [0] * ncomp
    rst = 0
    for mi in range(mcux * mcuy):
        if restart_interval and mi and mi % restart_interval == 0:
            bw.flush()
            bw.out += bytes([0xFF, 0xD0 + (rst & 7)])
            rst += 1
            preds = [0] * ncomp
        my, mx = divmod(mi, mcux)
        for ci in range(ncomp):
            dc = dc_l if ci == 0 else dc_c
            ac = ac_l if ci == 0 else ac_c
            hi, vi = samp[ci]
            for v in range(vi):
                for hh in range(hi):
                    blk = comp_q[ci][my * vi + v, mx * hi + hh]
                    preds[ci] = _encode_component_blocks(
                        blk[None], dc, ac, bw, preds[ci])
    bw.flush()
    out += bw.out
    out += b"\xff\xd9"  # EOI
    return bytes(out)


# -- decoder -----------------------------------------------------------------


class _BitReader:
    """MSB-first reader over the entropy-coded segment (0xFF00 unstuffed)."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0
        self.acc = 0
        self.nbits = 0

    def _fill(self, need: int):
        while self.nbits < need:
            if self.pos >= len(self.data):
                self.acc = (self.acc << 8) | 0
                self.nbits += 8
                continue
            b = self.data[self.pos]
            self.pos += 1
            if b == 0xFF:
                nxt = self.data[self.pos] if self.pos < len(self.data) else 0
                if nxt == 0x00:
                    self.pos += 1
                else:  # marker: treat as end (pad zeros)
                    self.pos = len(self.data)
                    self.acc = (self.acc << 8)
                    self.nbits += 8
                    continue
            self.acc = (self.acc << 8) | b
            self.nbits += 8

    def read(self, n: int) -> int:
        if n == 0:
            return 0
        self._fill(n)
        v = (self.acc >> (self.nbits - n)) & ((1 << n) - 1)
        self.nbits -= n
        self.acc &= (1 << self.nbits) - 1
        return v


def _decode_table(bits, vals):
    """(maxcode/mincode/valptr per length) fast lookup per spec F.2.2.3."""
    codes = _build_huffman(bits, vals)
    # invert: length -> {code: symbol}
    by_len: dict = {}
    for sym, (code, l) in codes.items():
        by_len.setdefault(l, {})[code] = sym
    return by_len


def _read_symbol(br: _BitReader, by_len) -> int:
    code = 0
    for l in range(1, 17):
        code = (code << 1) | br.read(1)
        d = by_len.get(l)
        if d is not None and code in d:
            return d[code]
    raise ValueError("bad Huffman code")


def _extend(v: int, size: int) -> int:
    if size == 0:
        return 0
    return v if v >= (1 << (size - 1)) else v - (1 << size) + 1


def _split_restarts(data: bytes) -> list[bytes]:
    """Split an entropy-coded segment on RSTn markers (0xFF 0xD0-0xD7).
    0xFF 0x00 stuffing is left intact for the bit reader."""
    segs = []
    start = 0
    i = 0
    n = len(data)
    while i < n - 1:
        if data[i] == 0xFF and 0xD0 <= data[i + 1] <= 0xD7:
            segs.append(data[start:i])
            i += 2
            start = i
        else:
            i += 1
    segs.append(data[start:])
    return segs


def decode_baseline(buf: bytes) -> np.ndarray:
    """Baseline JFIF bytes -> uint8 (H,W) or (H,W,3).

    General sampling factors (4:4:4, 4:2:0, 4:2:2, ...): each component's
    block grid is mcux*hi x mcuy*vi; subsampled chroma is upsampled by
    pixel replication after the IDCT.  DRI/RSTn restart intervals reset the
    DC predictors and byte-align (spec E.2.4)."""
    if buf[:2] != b"\xff\xd8":
        raise ValueError("not a JPEG (missing SOI)")
    pos = 2
    qts: dict = {}
    huff_dc: dict = {}
    huff_ac: dict = {}
    h = w = None
    comps = []
    scan = None
    dri = 0
    while pos < len(buf):
        if buf[pos] != 0xFF:
            pos += 1
            continue
        marker = buf[pos + 1]
        pos += 2
        if marker in (0xD8, 0x01) or 0xD0 <= marker <= 0xD7:
            continue
        if marker == 0xD9:
            break
        (seglen,) = struct.unpack_from(">H", buf, pos)
        seg = buf[pos + 2:pos + seglen]
        if marker == 0xDB:
            p = 0
            while p < len(seg):
                pq, tq = seg[p] >> 4, seg[p] & 0xF
                if pq != 0:
                    raise ValueError("16-bit quant tables unsupported")
                z = np.frombuffer(seg[p + 1:p + 65], np.uint8).astype(np.int64)
                qts[tq] = z[UNZIGZAG].reshape(8, 8)
                p += 65
        elif marker == 0xDD:
            (dri,) = struct.unpack_from(">H", seg, 0)
        elif marker == 0xC0:
            prec, h, w, nc = struct.unpack_from(">BHHB", seg, 0)
            if prec != 8:
                raise ValueError("8-bit baseline only")
            for ci in range(nc):
                cid, samp, tq = struct.unpack_from("BBB", seg, 6 + 3 * ci)
                comps.append({"id": cid, "tq": tq,
                              "h": samp >> 4, "v": samp & 0xF})
        elif marker in (0xC1, 0xC3, 0xC5, 0xC6, 0xC7,
                        0xC9, 0xCA, 0xCB, 0xCD, 0xCE, 0xCF):
            raise ValueError("baseline SOF0 / progressive SOF2 only")
        elif marker == 0xC2:
            raise ValueError(
                "progressive stream: use decode_progressive / decode()")
        elif marker == 0xC4:
            p = 0
            while p < len(seg):
                tc, th = seg[p] >> 4, seg[p] & 0xF
                bits = list(seg[p + 1:p + 17])
                n = sum(bits)
                vals = list(seg[p + 17:p + 17 + n])
                (huff_dc if tc == 0 else huff_ac)[th] = _decode_table(bits, vals)
                p += 17 + n
        elif marker == 0xDA:
            ns = seg[0]
            sel = []
            for ci in range(ns):
                cid, tt = struct.unpack_from("BB", seg, 1 + 2 * ci)
                sel.append({"id": cid, "dc": tt >> 4, "ac": tt & 0xF})
            scan = sel
            pos = pos + seglen
            break
        pos += seglen
    if scan is None or h is None:
        raise ValueError("missing SOS/SOF0")
    comp_by_id = {c["id"]: c for c in comps}
    ncomp = len(scan)
    hmax = max(c["h"] for c in comps)
    vmax = max(c["v"] for c in comps)
    if ncomp == 1:
        # non-interleaved single-component scan traverses that component's
        # own ceil(cw/8) x ceil(ch/8) grid (spec A.2.2)
        c = comp_by_id[scan[0]["id"]]
        cw = -(-w * c["h"] // hmax)
        ch = -(-h * c["v"] // vmax)
        mcux, mcuy = -(-cw // 8), -(-ch // 8)
        factors = [(1, 1)]
    else:
        mcux = -(-w // (8 * hmax))
        mcuy = -(-h // (8 * vmax))
        factors = [(comp_by_id[sc["id"]]["h"], comp_by_id[sc["id"]]["v"])
                   for sc in scan]
    grids = [(mcuy * v, mcux * hh) for hh, v in factors]
    coefs = [np.zeros((bh * bw_, 64), np.int64) for bh, bw_ in grids]
    segs = _split_restarts(buf[pos:])
    br = _BitReader(segs[0])
    seg_i = 0
    preds = [0] * ncomp
    for mi in range(mcux * mcuy):
        if dri and mi and mi % dri == 0:
            seg_i += 1
            if seg_i >= len(segs):
                raise ValueError("missing restart segment")
            br = _BitReader(segs[seg_i])
            preds = [0] * ncomp
        my, mx = divmod(mi, mcux)
        for ci, sc in enumerate(scan):
            dc_tbl = huff_dc[sc["dc"]]
            ac_tbl = huff_ac[sc["ac"]]
            hi, vi = factors[ci]
            bw_ = grids[ci][1]
            for v in range(vi):
                for hh in range(hi):
                    zz = coefs[ci][(my * vi + v) * bw_ + (mx * hi + hh)]
                    size = _read_symbol(br, dc_tbl)
                    diff = _extend(br.read(size), size)
                    preds[ci] += diff
                    zz[0] = preds[ci]
                    k = 1
                    while k < 64:
                        rs = _read_symbol(br, ac_tbl)
                        r, s = rs >> 4, rs & 0xF
                        if rs == 0x00:  # EOB
                            break
                        if rs == 0xF0:  # ZRL
                            k += 16
                            continue
                        k += r
                        if k > 63:
                            raise ValueError("AC index overflow")
                        zz[k] = _extend(br.read(s), s)
                        k += 1
    D = _dct_matrix()
    planes = []
    for ci, sc in enumerate(scan):
        c = comp_by_id[sc["id"]]
        qt = qts[c["tq"]].astype(np.float64)
        blocks = (coefs[ci][:, UNZIGZAG].reshape(-1, 8, 8).astype(np.float64)
                  * qt)
        pix = np.einsum("ji,njk,kl->nil", D, blocks, D) + 128.0
        bh, bw_ = grids[ci]
        full = (pix.reshape(bh, bw_, 8, 8).transpose(0, 2, 1, 3)
                .reshape(bh * 8, bw_ * 8))
        if ncomp == 1:
            planes.append(full[:h, :w])
            continue
        cw = -(-w * c["h"] // hmax)
        ch = -(-h * c["v"] // vmax)
        full = full[:ch, :cw]
        ry, rx = vmax // c["v"], hmax // c["h"]
        if (ry, rx) != (1, 1):
            full = np.repeat(np.repeat(full, ry, axis=0), rx, axis=1)
        planes.append(full[:h, :w])
    if ncomp == 1:
        return np.clip(np.round(planes[0]), 0, 255).astype(np.uint8)
    y, cb, cr = planes
    r = y + 1.402 * (cr - 128.0)
    g = y - 0.344136 * (cb - 128.0) - 0.714136 * (cr - 128.0)
    b = y + 1.772 * (cb - 128.0)
    out = np.stack([r, g, b], axis=-1)
    return np.clip(np.round(out), 0, 255).astype(np.uint8)


# -- progressive (SOF2) -------------------------------------------------------
#
# Spectral selection + successive approximation per ITU-T T.81 Annex G
# (G.1.2 encode, G.2 decode).  Web corpora are full of progressive JPEGs
# (most "optimized" exports), so the real decode backend must accept them.
# The encoder exists so the decoder can be exercised end-to-end without any
# third-party libjpeg in the container: scripts cover DC first/refine and
# per-band AC first/refine scans, EOB runs, and restart intervals.


class _SymbolSink:
    """Two-pass scan emission: pass 1 records the symbol alphabet (so a
    per-scan Huffman table can be built), pass 2 writes real bits."""

    def __init__(self, codes=None, bw: _BitWriter | None = None):
        self.codes = codes
        self.bw = bw
        self.symbols: list[int] = []

    def sym(self, s: int):
        if self.codes is None:
            self.symbols.append(s)
        else:
            c, l = self.codes[s]
            self.bw.write(c, l)

    def bits(self, v: int, n: int):
        if n and self.codes is not None:
            self.bw.write(v, n)

    def restart(self, idx: int):
        """Byte-align + RSTn (no-op in the recording pass — only the marker
        bytes differ; the symbol stream is identical across passes)."""
        if self.codes is not None:
            self.bw.flush()
            self.bw.out += bytes([0xFF, 0xD0 + (idx & 7)])


def _fixed_table(symbols):
    """Canonical fixed-length Huffman table covering exactly ``symbols``
    (all codes the same length; the all-ones code stays unused per spec
    C.2).  Returns (bits, vals)."""
    syms = sorted(set(symbols))
    if not syms:
        syms = [0x00]
    L = 1
    while (1 << L) <= len(syms):
        L += 1
    bits = [0] * 16
    bits[L - 1] = len(syms)
    return bits, syms


class _ProgEncState:
    """Per-scan EOB-run + buffered-correction-bit state (G.1.2.2/3)."""

    def __init__(self, sink: _SymbolSink):
        self.sink = sink
        self.eobrun = 0
        self.bbuf: list[int] = []

    def flush_eob(self):
        if self.eobrun:
            nb = self.eobrun.bit_length() - 1
            self.sink.sym(nb << 4)
            if nb:
                self.sink.bits(self.eobrun - (1 << nb), nb)
            self.eobrun = 0
        for b in self.bbuf:
            self.sink.bits(b, 1)
        self.bbuf = []


def _enc_ac_first_block(st: _ProgEncState, zz, Ss, Se, Al):
    vals = []
    for k in range(Ss, Se + 1):
        c = int(zz[k])
        t = abs(c) >> Al
        vals.append(t if c >= 0 else -t)
    if not any(vals):
        st.eobrun += 1
        if st.eobrun == 0x7FFF:
            st.flush_eob()
        return
    st.flush_eob()
    r = 0
    last_nz = max(i for i, v in enumerate(vals) if v)
    for i, v in enumerate(vals):
        if i > last_nz:
            st.eobrun += 1
            return
        if v == 0:
            r += 1
            continue
        while r > 15:
            st.sink.sym(0xF0)
            r -= 16
        size, bits = _magnitude(v)
        st.sink.sym((r << 4) | size)
        st.sink.bits(bits, size)
        r = 0


def _enc_ac_refine_block(st: _ProgEncState, zz, Ss, Se, Al):
    t = []
    for k in range(Ss, Se + 1):
        t.append(abs(int(zz[k])) >> Al)
    eob = -1
    for i, v in enumerate(t):
        if v == 1:
            eob = i
    r = 0
    br: list[int] = []
    for i, v in enumerate(t):
        if v == 0:
            r += 1
            continue
        # emit any required ZRLs at ANY nonzero (history included) unless
        # they can fold into this block's EOB — the decoder's ZRL advance
        # consumes correction bits of history coefficients inside the
        # 16-zero span, so emission order must be [ZRL][buffered bits]
        while r > 15 and i <= eob:
            st.flush_eob()
            st.sink.sym(0xF0)
            r -= 16
            for b in br:
                st.sink.bits(b, 1)
            br = []
        if v > 1:  # history coefficient: one correction bit rides along
            br.append(v & 1)
            continue
        # v == 1: newly nonzero this scan (i <= eob by construction)
        st.flush_eob()
        st.sink.sym((r << 4) | 1)
        st.sink.bits(1 if int(zz[Ss + i]) >= 0 else 0, 1)
        for b in br:
            st.sink.bits(b, 1)
        br = []
        r = 0
    if r > 0 or br:
        st.eobrun += 1
        st.bbuf.extend(br)
        if st.eobrun == 0x7FFF:
            st.flush_eob()


def _comp_grid(c, h, w, hmax, vmax):
    """Non-interleaved block grid (nbh, nbw) of one component (A.2.2)."""
    cw = -(-(w * c["h"]) // hmax)
    ch = -(-(h * c["v"]) // vmax)
    return -(-ch // 8), -(-cw // 8)


def encode_progressive(arr: np.ndarray, quality: int = 85,
                       subsampling: str = "444",
                       restart_interval: int = 0) -> bytes:
    """uint8 grayscale (H,W) or RGB (H,W,3) -> progressive (SOF2) JFIF.

    Scan script (exercises every progressive scan kind): interleaved DC
    first (Al=1), DC refinement, per-component AC first scans with the luma
    band split 1-5 / 6-63 (Al=1), then the matching AC refinement scans.
    ``restart_interval`` applies to the DC scans (MCU units)."""
    (gray, h, w, samp, qts, comp_q,
     mcux, mcuy) = _prepare_blocks(arr, quality, subsampling)
    ncomp = len(samp)
    hmax = max(s[0] for s in samp)
    vmax = max(s[1] for s in samp)
    comps = [{"h": samp[ci][0], "v": samp[ci][1]} for ci in range(ncomp)]
    out = bytearray()
    _write_preamble(out, h, w, samp, qts, b"\xff\xc2", restart_interval)
    # DC tables (Annex K) cover every size symbol; AC tables are per-scan
    dc_tables = [(0x00, DC_LUMA_BITS, DC_LUMA_VALS)]
    if not gray:
        dc_tables.append((0x01, DC_CHROMA_BITS, DC_CHROMA_VALS))
    for tc, bits, vals in dc_tables:
        out += b"\xff\xc4" + struct.pack(">HB", 3 + 16 + len(vals), tc)
        out += bytes(bits) + bytes(vals)
    dc_codes = [_build_huffman(DC_LUMA_BITS, DC_LUMA_VALS)]
    if not gray:
        dc_codes.append(_build_huffman(DC_CHROMA_BITS, DC_CHROMA_VALS))

    def sos_header(comp_ids, tds, Ss, Se, Ah, Al) -> bytes:
        ns = len(comp_ids)
        seg = bytearray()
        seg += b"\xff\xda" + struct.pack(">HB", 6 + 2 * ns, ns)
        for cid, td in zip(comp_ids, tds):
            seg += struct.pack("BB", cid, td)
        seg += struct.pack("BBB", Ss, Se, (Ah << 4) | Al)
        return bytes(seg)

    def dc_scan(Ah, Al):
        bw = _BitWriter()
        preds = [0] * ncomp
        rst = 0
        for mi in range(mcux * mcuy):
            if restart_interval and mi and mi % restart_interval == 0:
                bw.flush()
                bw.out += bytes([0xFF, 0xD0 + (rst & 7)])
                rst += 1
                preds = [0] * ncomp
            my, mx = divmod(mi, mcux)
            for ci in range(ncomp):
                hi, vi = samp[ci]
                for v in range(vi):
                    for hh in range(hi):
                        dc = int(comp_q[ci][my * vi + v, mx * hi + hh, 0, 0])
                        if Ah == 0:
                            val = dc >> Al
                            diff = val - preds[ci]
                            preds[ci] = val
                            size, bits = _magnitude(diff)
                            c, l = dc_codes[min(ci, len(dc_codes) - 1)][size]
                            bw.write(c, l)
                            if size:
                                bw.write(bits, size)
                        else:
                            bw.write((dc >> Al) & 1, 1)
            # (refinement scans ignore predictors)
        bw.flush()
        return bytes(bw.out)

    def ac_scan(ci, Ss, Se, Ah, Al):
        hi, vi = samp[ci]
        nbh, nbw = _comp_grid(comps[ci], h, w, hmax, vmax)
        blk = comp_q[ci].reshape(mcuy * vi, mcux * hi, 64)

        def run(sink: _SymbolSink):
            st = _ProgEncState(sink)
            rst = 0
            for mi in range(nbh * nbw):
                if restart_interval and mi and mi % restart_interval == 0:
                    st.flush_eob()
                    sink.restart(rst)
                    rst += 1
                by, bx = divmod(mi, nbw)
                zz = blk[by, bx][ZIGZAG]
                if Ah == 0:
                    _enc_ac_first_block(st, zz, Ss, Se, Al)
                else:
                    _enc_ac_refine_block(st, zz, Ss, Se, Al)
            st.flush_eob()

        rec = _SymbolSink()
        run(rec)
        bits, vals = _fixed_table(rec.symbols)
        codes = _build_huffman(bits, vals)
        bw = _BitWriter()
        run(_SymbolSink(codes, bw))
        bw.flush()
        dht = b"\xff\xc4" + struct.pack(">HB", 3 + 16 + len(vals), 0x10) \
            + bytes(bits) + bytes(vals)
        return dht, bytes(bw.out)

    # scan script
    all_ids = list(range(1, ncomp + 1))
    all_tds = [(min(ci, len(dc_codes) - 1) << 4) for ci in range(ncomp)]
    out += sos_header(all_ids, all_tds, 0, 0, 0, 1)
    out += dc_scan(0, 1)
    out += sos_header(all_ids, all_tds, 0, 0, 1, 0)
    out += dc_scan(1, 0)
    bands = {0: [(1, 5), (6, 63)]}
    for Ah, Al in ((0, 1), (1, 0)):
        for ci in range(ncomp):
            for Ss, Se in bands.get(ci, [(1, 63)]):
                dht, data = ac_scan(ci, Ss, Se, Ah, Al)
                out += dht
                out += sos_header([ci + 1], [0x00], Ss, Se, Ah, Al)
                out += data
    out += b"\xff\xd9"
    return bytes(out)


def _dec_ac_first_block(br: _BitReader, zz, Ss, Se, Al, ac_tbl,
                        eobrun: int) -> int:
    if eobrun > 0:
        return eobrun - 1
    k = Ss
    while k <= Se:
        rs = _read_symbol(br, ac_tbl)
        r, s = rs >> 4, rs & 0xF
        if s == 0:
            if r != 15:
                eobrun = (1 << r) - 1
                if r:
                    eobrun += br.read(r)
                return eobrun
            k += 16
            continue
        k += r
        if k > Se:
            raise ValueError("AC index overflow")
        zz[k] = _extend(br.read(s), s) << Al
        k += 1
    return 0


def _dec_ac_refine_block(br: _BitReader, zz, Ss, Se, Al, ac_tbl,
                         eobrun: int) -> int:
    p1 = 1 << Al
    m1 = -p1
    k = Ss
    if eobrun == 0:
        while k <= Se:
            rs = _read_symbol(br, ac_tbl)
            r, s = rs >> 4, rs & 0xF
            newval = 0
            if s == 0:
                if r != 15:
                    eobrun = 1 << r
                    if r:
                        eobrun += br.read(r)
                    break
                # ZRL: skip 16 zero-history positions
            else:
                if s != 1:
                    raise ValueError("bad refinement symbol")
                newval = p1 if br.read(1) else m1
            while k <= Se:
                c = int(zz[k])
                if c != 0:
                    if br.read(1) and (c & p1) == 0:
                        zz[k] = c + (p1 if c >= 0 else m1)
                else:
                    if r == 0:
                        break
                    r -= 1
                k += 1
            if newval and k <= Se:
                zz[k] = newval
            k += 1
    if eobrun > 0:
        while k <= Se:
            c = int(zz[k])
            if c != 0:
                if br.read(1) and (c & p1) == 0:
                    zz[k] = c + (p1 if c >= 0 else m1)
            k += 1
        eobrun -= 1
    return eobrun


def decode_progressive(buf: bytes) -> np.ndarray:
    """Progressive (SOF2) JFIF bytes -> uint8 (H,W) or (H,W,3)."""
    if buf[:2] != b"\xff\xd8":
        raise ValueError("not a JPEG (missing SOI)")
    pos = 2
    qts: dict = {}
    huff_dc: dict = {}
    huff_ac: dict = {}
    h = w = None
    comps: list = []
    dri = 0
    coefs: dict = {}
    hmax = vmax = 1
    mcux = mcuy = 0
    comp_by_id: dict = {}

    def entropy_extent(p: int) -> int:
        n = len(buf)
        i = p
        while i < n - 1:
            if buf[i] == 0xFF and buf[i + 1] != 0x00 \
                    and not (0xD0 <= buf[i + 1] <= 0xD7):
                return i
            i += 1
        return n

    while pos < len(buf) - 1:
        if buf[pos] != 0xFF:
            pos += 1
            continue
        marker = buf[pos + 1]
        pos += 2
        if marker in (0xD8, 0x01) or 0xD0 <= marker <= 0xD7:
            continue
        if marker == 0xD9:
            break
        (seglen,) = struct.unpack_from(">H", buf, pos)
        seg = buf[pos + 2:pos + seglen]
        if marker == 0xDB:
            p = 0
            while p < len(seg):
                pq, tq = seg[p] >> 4, seg[p] & 0xF
                if pq != 0:
                    raise ValueError("16-bit quant tables unsupported")
                z = np.frombuffer(seg[p + 1:p + 65], np.uint8).astype(np.int64)
                qts[tq] = z[UNZIGZAG].reshape(8, 8)
                p += 65
        elif marker == 0xDD:
            (dri,) = struct.unpack_from(">H", seg, 0)
        elif marker == 0xC2:
            prec, h, w, nc = struct.unpack_from(">BHHB", seg, 0)
            if prec != 8:
                raise ValueError("8-bit only")
            for ci in range(nc):
                cid, samp, tq = struct.unpack_from("BBB", seg, 6 + 3 * ci)
                comps.append({"id": cid, "tq": tq,
                              "h": samp >> 4, "v": samp & 0xF})
            hmax = max(c["h"] for c in comps)
            vmax = max(c["v"] for c in comps)
            mcux = -(-w // (8 * hmax))
            mcuy = -(-h // (8 * vmax))
            comp_by_id = {c["id"]: c for c in comps}
            for c in comps:
                coefs[c["id"]] = np.zeros(
                    (mcuy * c["v"], mcux * c["h"], 64), np.int64)
        elif marker == 0xC0:
            raise ValueError("baseline stream: use decode_baseline")
        elif marker == 0xC4:
            p = 0
            while p < len(seg):
                tc, th = seg[p] >> 4, seg[p] & 0xF
                bits = list(seg[p + 1:p + 17])
                n = sum(bits)
                vals = list(seg[p + 17:p + 17 + n])
                tbl = _decode_table(bits, vals)
                (huff_dc if tc == 0 else huff_ac)[th] = tbl
                p += 17 + n
        elif marker == 0xDA:
            ns = seg[0]
            sel = []
            for ci in range(ns):
                cid, tt = struct.unpack_from("BB", seg, 1 + 2 * ci)
                sel.append({"id": cid, "dc": tt >> 4, "ac": tt & 0xF})
            Ss, Se, AhAl = struct.unpack_from("BBB", seg, 1 + 2 * ns)
            Ah, Al = AhAl >> 4, AhAl & 0xF
            data_start = pos + seglen
            data_end = entropy_extent(data_start)
            segs = _split_restarts(buf[data_start:data_end])
            br = _BitReader(segs[0])
            seg_i = 0
            if Ss == 0:  # DC scan
                if Se != 0:
                    raise ValueError("DC scan must have Se == 0")
                preds = {sc["id"]: 0 for sc in sel}
                if len(sel) > 1 or len(comps) == 1:
                    nunits = mcux * mcuy
                else:
                    c = comp_by_id[sel[0]["id"]]
                    nbh, nbw = _comp_grid(c, h, w, hmax, vmax)
                    nunits = nbh * nbw
                for mi in range(nunits):
                    if dri and mi and mi % dri == 0:
                        seg_i += 1
                        br = _BitReader(segs[seg_i])
                        preds = {sc["id"]: 0 for sc in sel}
                    for sc in sel:
                        c = comp_by_id[sc["id"]]
                        arr = coefs[sc["id"]]
                        if len(sel) > 1:
                            my, mx = divmod(mi, mcux)
                            blocks = [(my * c["v"] + v, mx * c["h"] + hh)
                                      for v in range(c["v"])
                                      for hh in range(c["h"])]
                        else:
                            nbh, nbw = _comp_grid(c, h, w, hmax, vmax)
                            blocks = [divmod(mi, nbw)]
                        for by, bx in blocks:
                            if Ah == 0:
                                tbl = huff_dc[sc["dc"]]
                                size = _read_symbol(br, tbl)
                                diff = _extend(br.read(size), size)
                                preds[sc["id"]] += diff
                                arr[by, bx, 0] = preds[sc["id"]] << Al
                            else:
                                if br.read(1):
                                    arr[by, bx, 0] = int(arr[by, bx, 0]) \
                                        | (1 << Al)
            else:  # AC scan: single component (spec G.1.1.1.1)
                if len(sel) != 1:
                    raise ValueError("AC scans must be non-interleaved")
                sc = sel[0]
                c = comp_by_id[sc["id"]]
                arr = coefs[sc["id"]]
                nbh, nbw = _comp_grid(c, h, w, hmax, vmax)
                ac_tbl = huff_ac[sc["ac"]]
                eobrun = 0
                for mi in range(nbh * nbw):
                    if dri and mi and mi % dri == 0:
                        seg_i += 1
                        br = _BitReader(segs[seg_i])
                        eobrun = 0
                    by, bx = divmod(mi, nbw)
                    zz = arr[by, bx]
                    if Ah == 0:
                        eobrun = _dec_ac_first_block(
                            br, zz, Ss, Se, Al, ac_tbl, eobrun)
                    else:
                        eobrun = _dec_ac_refine_block(
                            br, zz, Ss, Se, Al, ac_tbl, eobrun)
            pos = data_end
            continue
        pos += seglen
    if h is None or not coefs:
        raise ValueError("missing SOF2/SOS")
    D = _dct_matrix()
    planes = []
    for c in comps:
        qt = qts[c["tq"]].astype(np.float64)
        arr = coefs[c["id"]]
        bh, bw_ = arr.shape[:2]
        blocks = (arr.reshape(-1, 64)[:, UNZIGZAG].reshape(-1, 8, 8)
                  .astype(np.float64) * qt)
        pix = np.einsum("ji,njk,kl->nil", D, blocks, D) + 128.0
        full = (pix.reshape(bh, bw_, 8, 8).transpose(0, 2, 1, 3)
                .reshape(bh * 8, bw_ * 8))
        if len(comps) == 1:
            planes.append(full[:h, :w])
            continue
        cw = -(-(w * c["h"]) // hmax)
        ch = -(-(h * c["v"]) // vmax)
        full = full[:ch, :cw]
        ry, rx = vmax // c["v"], hmax // c["h"]
        if (ry, rx) != (1, 1):
            full = np.repeat(np.repeat(full, ry, axis=0), rx, axis=1)
        planes.append(full[:h, :w])
    if len(comps) == 1:
        return np.clip(np.round(planes[0]), 0, 255).astype(np.uint8)
    y, cb, cr = planes
    r = y + 1.402 * (cr - 128.0)
    g = y - 0.344136 * (cb - 128.0) - 0.714136 * (cr - 128.0)
    b = y + 1.772 * (cb - 128.0)
    out = np.stack([r, g, b], axis=-1)
    return np.clip(np.round(out), 0, 255).astype(np.uint8)


def decode(buf: bytes) -> np.ndarray:
    """GDALOpen-style JPEG decode: dispatch baseline (SOF0) vs progressive
    (SOF2) on the frame marker (frmts/jpeg/jpgdataset.cpp reads both via
    libjpeg's own dispatch)."""
    pos = 2
    while pos < len(buf) - 3:
        if buf[pos] != 0xFF:
            pos += 1
            continue
        marker = buf[pos + 1]
        if marker == 0xC0:
            return decode_baseline(buf)
        if marker == 0xC2:
            return decode_progressive(buf)
        pos += 2
        if marker in (0x01,) or 0xD0 <= marker <= 0xD9:
            continue
        (seglen,) = struct.unpack_from(">H", buf, pos)
        pos += seglen
    raise ValueError("no SOF0/SOF2 frame found")
