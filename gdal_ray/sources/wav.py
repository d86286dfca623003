"""WAV (RIFF) audio codec — dependency-free reader + writer.

Role model: the audio ingest step of a multimodal pipeline (the reference's
driver-decode analogue: any frmts/ codec).  Independent implementation from
the public RIFF/WAVE spec: RIFF/WAVE container, 'fmt ' chunk, 'data' chunk;
unknown chunks are skipped per spec.  Full header validation so corrupted
payloads fail loudly in the decode pool rather than producing garbage
features.

Two formats:
- PCM (wFormatTag 1): mono 8-bit unsigned or 16-bit signed little-endian.
- IMA ADPCM (wFormatTag 0x0011, a.k.a. DVI ADPCM): the standard 4-bit
  compressed format from the public IMA/Microsoft spec — per-block header
  (int16 predictor = the block's first sample verbatim, uint8 step index),
  then 4-bit nibbles (low nibble first), the 89-entry step table and the
  {-1,-1,-1,-1,2,4,6,8} index-adaptation table.  The per-sample recurrence
  is sequential WITHIN a block; corpus-scale parallelism comes from the
  ``map_batches`` decode stage across payload blobs (stages/media.py),
  the same stance as the JPEG codec.

Exactness note for oracles: a signal that is CONSTANT within each block
round-trips EXACTLY — the predictor stores the first sample verbatim, a
zero delta encodes as nibble 0, and nibble-0 reconstruction adds step>>3
which is 0 while the step index sits at table start (step 7), where it
stays because nibble 0 adapts the index by -1 (clamped at 0).
"""

from __future__ import annotations

import struct

import numpy as np

# IMA ADPCM tables (public IMA ADPCM / DVI spec)
_IMA_INDEX = np.array([-1, -1, -1, -1, 2, 4, 6, 8], dtype=np.int64)
_IMA_STEPS = np.array([
    7, 8, 9, 10, 11, 12, 13, 14, 16, 17, 19, 21, 23, 25, 28, 31, 34, 37,
    41, 45, 50, 55, 60, 66, 73, 80, 88, 97, 107, 118, 130, 143, 157, 173,
    190, 209, 230, 253, 279, 307, 337, 371, 408, 449, 494, 544, 598, 658,
    724, 796, 876, 963, 1060, 1166, 1282, 1411, 1552, 1707, 1878, 2066,
    2272, 2499, 2749, 3024, 3327, 3660, 4026, 4428, 4871, 5358, 5894,
    6484, 7132, 7845, 8630, 9493, 10442, 11487, 12635, 13899, 15289,
    16818, 18500, 20350, 22385, 24623, 27086, 29794, 32767,
], dtype=np.int64)


def encode_wav(samples: np.ndarray, rate: int = 8000) -> bytes:
    """Serialize mono PCM samples: uint8 -> 8-bit unsigned WAV, int16 ->
    16-bit signed little-endian WAV."""
    a = np.asarray(samples).ravel()
    if a.dtype == np.uint8:
        bits, data = 8, a.tobytes()
    elif a.dtype == np.int16:
        bits, data = 16, a.astype("<i2").tobytes()
    else:
        raise ValueError(f"unsupported sample dtype {a.dtype} (uint8/int16)")
    block = bits // 8
    fmt = struct.pack("<HHIIHH", 1, 1, rate, rate * block, block, bits)
    chunks = (b"WAVE"
              + b"fmt " + struct.pack("<I", len(fmt)) + fmt
              + b"data" + struct.pack("<I", len(data)) + data
              + (b"\x00" if len(data) % 2 else b""))
    return b"RIFF" + struct.pack("<I", len(chunks)) + chunks


def _ima_encode_block(samples: np.ndarray, index: int) -> tuple[bytes, int]:
    """One IMA block: samples[0] goes into the header verbatim; the rest
    become 4-bit nibbles.  len(samples) must be odd (even nibble count)."""
    pred = int(samples[0])
    header = struct.pack("<hBB", pred, index, 0)
    nibbles = []
    for s in samples[1:]:
        delta = int(s) - pred
        sign = 8 if delta < 0 else 0
        delta = -delta if sign else delta
        step = int(_IMA_STEPS[index])
        n = 0
        diff = step >> 3
        if delta >= step:
            n |= 4
            delta -= step
            diff += step
        if delta >= step >> 1:
            n |= 2
            delta -= step >> 1
            diff += step >> 1
        if delta >= step >> 2:
            n |= 1
            diff += step >> 2
        pred = pred - diff if sign else pred + diff
        pred = max(-32768, min(32767, pred))
        index = max(0, min(88, index + int(_IMA_INDEX[n])))
        nibbles.append(sign | n)
    packed = bytes(nibbles[i] | (nibbles[i + 1] << 4)
                   for i in range(0, len(nibbles), 2))
    return header + packed, index


def _ima_decode_block(header: bytes, nib: np.ndarray) -> np.ndarray:
    """Inverse of _ima_encode_block: header + nibble array -> int16 samples."""
    pred, index, _rsv = struct.unpack("<hBB", header)
    if index > 88:
        raise ValueError(f"ADPCM step index {index} out of range")
    out = np.empty(1 + len(nib), dtype=np.int16)
    out[0] = pred
    pred = int(pred)
    for i, n in enumerate(nib):
        n = int(n)
        step = int(_IMA_STEPS[index])
        diff = step >> 3
        if n & 1:
            diff += step >> 2
        if n & 2:
            diff += step >> 1
        if n & 4:
            diff += step
        pred = pred - diff if n & 8 else pred + diff
        pred = max(-32768, min(32767, pred))
        index = max(0, min(88, index + int(_IMA_INDEX[n & 7])))
        out[1 + i] = pred
    return out


def encode_wav_adpcm(samples: np.ndarray, rate: int = 8000,
                     samples_per_block: int = 505) -> bytes:
    """Mono int16 samples -> IMA ADPCM WAV (wFormatTag 0x0011).

    ``samples_per_block`` must be odd (1 header sample + an even nibble
    count); total length must divide into whole blocks.  A 'fact' chunk
    records the true sample count, as the spec requires for compressed
    formats."""
    a = np.asarray(samples).ravel()
    if a.dtype != np.int16:
        raise ValueError(f"ADPCM input must be int16 (got {a.dtype})")
    spb = int(samples_per_block)
    if spb < 3 or spb % 2 == 0:
        raise ValueError(f"samples_per_block must be odd >= 3 (got {spb})")
    if len(a) == 0 or len(a) % spb:
        raise ValueError(f"{len(a)} samples do not divide into {spb}-sample blocks")
    block_align = 4 + (spb - 1) // 2
    index = 0
    blocks = []
    for s in range(0, len(a), spb):
        blk, index = _ima_encode_block(a[s:s + spb], index)
        blocks.append(blk)
    data = b"".join(blocks)
    byte_rate = (rate * block_align + spb - 1) // spb
    fmt = struct.pack("<HHIIHHHH", 0x11, 1, rate, byte_rate, block_align, 4,
                      2, spb)
    fact = struct.pack("<I", len(a))
    chunks = (b"WAVE"
              + b"fmt " + struct.pack("<I", len(fmt)) + fmt
              + b"fact" + struct.pack("<I", len(fact)) + fact
              + b"data" + struct.pack("<I", len(data)) + data
              + (b"\x00" if len(data) % 2 else b""))
    return b"RIFF" + struct.pack("<I", len(chunks)) + chunks


def _decode_adpcm_data(data: bytes, block_align: int, spb: int,
                       n_samples: int | None) -> np.ndarray:
    """Blocks are independent (each header restates predictor + index), so
    the decode vectorizes ACROSS blocks: one numpy step per nibble POSITION
    (spb-1 iterations) instead of a Python step per nibble — the in-file
    counterpart of the across-blobs task parallelism."""
    if block_align < 5 or spb != (block_align - 4) * 2 + 1:
        raise ValueError(
            f"inconsistent ADPCM framing: block_align={block_align}, "
            f"samples_per_block={spb}")
    if len(data) % block_align:
        raise ValueError("ADPCM data is not whole blocks")
    raw = np.frombuffer(data, dtype=np.uint8).reshape(-1, block_align)
    nblk = len(raw)
    if nblk == 0:
        return np.empty(0, np.int16)
    pred = raw[:, 0:2].copy().view("<i2").ravel().astype(np.int64)
    index = raw[:, 2].astype(np.int64)
    if (index > 88).any():
        raise ValueError("ADPCM step index out of range")
    nib_bytes = raw[:, 4:]
    nib = np.empty((nblk, 2 * nib_bytes.shape[1]), dtype=np.uint8)
    nib[:, 0::2] = nib_bytes & 0x0F
    nib[:, 1::2] = nib_bytes >> 4
    out = np.empty((nblk, spb), dtype=np.int16)
    out[:, 0] = pred
    for j in range(spb - 1):
        n = nib[:, j].astype(np.int64)
        step = _IMA_STEPS[index]
        diff = (step >> 3) + np.where(n & 1, step >> 2, 0) \
            + np.where(n & 2, step >> 1, 0) + np.where(n & 4, step, 0)
        pred = np.clip(np.where(n & 8, pred - diff, pred + diff),
                       -32768, 32767)
        index = np.clip(index + _IMA_INDEX[n & 7], 0, 88)
        out[:, j + 1] = pred
    samples = out.ravel()
    if n_samples is not None:
        if n_samples > len(samples):
            raise ValueError("fact chunk claims more samples than decoded")
        samples = samples[:n_samples]
    return samples


def decode_wav(buf: bytes) -> tuple[np.ndarray, int]:
    """Parse a mono PCM WAV -> (samples, rate).  8-bit -> uint8, 16-bit ->
    int16.  Validates the RIFF/WAVE magic, chunk sizes, PCM format code,
    channel count, and data-chunk bounds."""
    if len(buf) < 12 or buf[:4] != b"RIFF" or buf[8:12] != b"WAVE":
        raise ValueError("not a RIFF/WAVE stream")
    (riff_size,) = struct.unpack_from("<I", buf, 4)
    if riff_size + 8 > len(buf) + 1:  # +1: tolerate the odd-pad byte
        raise ValueError("RIFF size exceeds payload")
    pos = 12
    fmt = None
    fmt_body = None
    data = None
    n_samples = None
    while pos + 8 <= len(buf):
        cid = buf[pos:pos + 4]
        (sz,) = struct.unpack_from("<I", buf, pos + 4)
        body = buf[pos + 8:pos + 8 + sz]
        if len(body) < sz:
            raise ValueError(f"truncated chunk {cid!r}")
        if cid == b"fmt ":
            if sz < 16:
                raise ValueError("fmt chunk too short")
            fmt = struct.unpack_from("<HHIIHH", body, 0)
            fmt_body = body
        elif cid == b"fact":
            (n_samples,) = struct.unpack_from("<I", body, 0)
        elif cid == b"data":
            data = body
        pos += 8 + sz + (sz % 2)  # chunks are word-aligned
    if fmt is None or data is None:
        raise ValueError("missing fmt / data chunk")
    audio_fmt, channels, rate, _byte_rate, block_align, bits = fmt
    if channels != 1:
        raise ValueError(f"only mono supported (got {channels} channels)")
    if audio_fmt == 0x11:  # IMA ADPCM
        if bits != 4:
            raise ValueError(f"IMA ADPCM must be 4-bit (got {bits})")
        if len(fmt_body) < 20:
            raise ValueError("ADPCM fmt chunk missing samples-per-block")
        (spb,) = struct.unpack_from("<H", fmt_body, 18)
        return _decode_adpcm_data(data, block_align, spb, n_samples), rate
    if audio_fmt == 7:  # G.711 mu-law
        return mulaw_decode(np.frombuffer(data, np.uint8)), rate
    if audio_fmt == 6:  # G.711 A-law
        return alaw_decode(np.frombuffer(data, np.uint8)), rate
    if audio_fmt != 1:
        raise ValueError(f"unsupported format {audio_fmt} "
                         "(PCM, IMA ADPCM, G.711 mu-law/A-law)")
    if bits == 8:
        return np.frombuffer(data, dtype=np.uint8), rate
    if bits == 16:
        if len(data) % 2:
            raise ValueError("odd 16-bit data length")
        return np.frombuffer(data, dtype="<i2").astype(np.int16), rate
    raise ValueError(f"unsupported bit depth {bits}")


# -- G.711 companding (wFormatTag 7 = mu-law, 6 = A-law) ----------------------

_MU_BOUNDS = np.array([0x100 << k for k in range(7)], dtype=np.int32)
_A_BOUNDS = np.array([0x1F, 0x3F, 0x7F, 0xFF, 0x1FF, 0x3FF, 0x7FF, 0xFFF],
                     dtype=np.int32)


def mulaw_encode(samples: np.ndarray) -> np.ndarray:
    """int16 -> G.711 mu-law bytes (ITU-T G.711 / the public-domain g711.c
    algorithm, vectorized: bias 0x84, 8 segments, complemented output)."""
    s = np.asarray(samples, dtype=np.int32)
    sign = np.where(s < 0, 0x80, 0)
    mag = np.minimum(np.abs(s), 32635) + 0x84
    exp = np.searchsorted(_MU_BOUNDS, mag, side="right").astype(np.int32)
    mant = (mag >> (exp + 3)) & 0x0F
    return (~(sign | (exp << 4) | mant) & 0xFF).astype(np.uint8)


def mulaw_decode(data: np.ndarray) -> np.ndarray:
    u = ~np.asarray(data, dtype=np.int32) & 0xFF
    exp = (u >> 4) & 0x07
    mant = u & 0x0F
    mag = (((mant << 3) + 0x84) << exp) - 0x84
    return np.where(u & 0x80, -mag, mag).astype(np.int16)


def alaw_encode(samples: np.ndarray) -> np.ndarray:
    """int16 -> G.711 A-law bytes (13-bit input, 0x55 toggle mask)."""
    s13 = np.asarray(samples, dtype=np.int32) >> 3
    mask = np.where(s13 >= 0, 0xD5, 0x55)
    p = np.where(s13 < 0, ~s13, s13)
    seg = np.searchsorted(_A_BOUNDS, p, side="left").astype(np.int32)
    low = np.where(seg < 2, (p >> 1) & 0x0F,
                   (p >> np.minimum(seg, 7)) & 0x0F)
    aval = (seg << 4) | low
    out = np.where(seg >= 8, 0x7F ^ mask, aval ^ mask)
    return (out & 0xFF).astype(np.uint8)


def alaw_decode(data: np.ndarray) -> np.ndarray:
    a = (np.asarray(data, dtype=np.int32) ^ 0x55) & 0xFF
    t = (a & 0x0F) << 4
    seg = (a & 0x70) >> 4
    t = np.where(seg == 0, t + 8,
                 (t + 0x108) << np.maximum(seg - 1, 0))
    return np.where(a & 0x80, t, -t).astype(np.int16)


def encode_wav_g711(samples: np.ndarray, rate: int = 8000,
                    law: str = "mulaw") -> bytes:
    """Mono int16 -> G.711 companded WAV (wFormatTag 7 mu-law / 6 A-law,
    8 bits per sample, block_align 1, fact chunk with the sample count —
    the telephony formats the RIFF spec registers alongside PCM)."""
    s = np.asarray(samples, dtype=np.int16)
    if law == "mulaw":
        tag, body = 7, mulaw_encode(s)
    elif law == "alaw":
        tag, body = 6, alaw_encode(s)
    else:
        raise ValueError(f"unknown G.711 law {law!r} (mulaw or alaw)")
    data = body.tobytes()
    fmt = struct.pack("<HHIIHH", tag, 1, rate, rate, 1, 8)
    fact = struct.pack("<I", len(s))
    chunks = (b"fmt " + struct.pack("<I", len(fmt)) + fmt
              + b"fact" + struct.pack("<I", len(fact)) + fact
              + b"data" + struct.pack("<I", len(data)) + data
              + (b"\x00" if len(data) % 2 else b""))
    return b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks
