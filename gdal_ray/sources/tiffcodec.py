"""TIFF chunk codecs: LZW (Compression=5), PackBits (32773), Predictor=2.

From-scratch implementations of the public TIFF 6.0 spec algorithms
(§13 LZW with the early-change convention libtiff/GDAL use, §9 PackBits,
§14 horizontal differencing predictor) — the decode path that unlocks
reading most real-world GeoTIFFs (reference surface:
``frmts/gtiff/geotiff.cpp`` COMPRESS=LZW/PACKBITS + TIFFTAG_PREDICTOR).

Chunks are tile- or strip-sized (tens of KiB): these run inside
``map_batches`` workers per chunk, so LZW throughput parallelizes across
the workers; the wide path for new data remains deflate.  LZW keeps one
Python step per input byte (encode) or per code (decode) and does all bit
packing in numpy: on the 64 KiB uint8 tiles of perfbench's ``raster_cog``
it encodes at 4.9 MB/s and decodes at 7.2 MB/s (one Xeon core, scaled to
perfbench's reference speed).
"""
from __future__ import annotations

import numpy as np

_CLEAR, _EOI = 256, 257
# Early change fixes each code's width by its place in its CLEAR segment:
# the k-th code after a CLEAR is read while the decoder's table holds
# 258 + k entries, at that count's bit length capped at 12.  _WIDTH[n] is
# the width of a code sent at table size n, _END[n] the bits up to and
# including it.  The stream's leading CLEAR goes at size 257 (9 bits), a
# mid-stream one at 4094 (12 bits); sizes past 4096 only occur in streams
# that never CLEAR.
# (frexp's binary exponent of an integer n is n.bit_length())
_WIDTH = np.minimum(12, np.frexp(np.arange(258 + 8192))[1].astype(np.int64))
_END = np.cumsum(_WIDTH)
_ROOTS = [bytes([i]) for i in range(256)] + [b"", b""]


def _pack(codes: list[int], size: int, carry: int, nbits: int):
    """Bit-pack one CLEAR segment MSB-first: its first code goes at table
    size ``size`` and after the ``nbits`` high bits of the ``carry`` byte.
    Returns the whole bytes, then the last partial byte and its bit count.

    Each code lands in the 3-byte window at its start byte; codes hold
    disjoint bits, so summing the windows' bytes per output byte ORs them."""
    widths = _WIDTH[size:size + len(codes)]
    ends = nbits + np.cumsum(widths)
    starts = ends - widths
    i = starts >> 3
    v = np.array(codes) << (24 - (starts & 7) - widths)
    total = int(ends[-1])
    acc = np.bincount(np.concatenate([[0], i, i + 1, i + 2]),
                      np.concatenate([[carry], v >> 16, (v >> 8) & 255, v & 255]))
    acc = acc[:(total + 7) >> 3].astype(np.uint8)
    whole = total >> 3
    return acc[:whole].tobytes(), int(acc[whole]) if total & 7 else 0, total & 7


def lzw_encode(data: bytes) -> bytes:
    """TIFF LZW encode (early-change, table reset at 4094).

    The string table is keyed on ``(prefix_code << 8) | byte``, libtiff's
    prefix-code hash, so the byte loop only appends codes; each CLEAR
    segment is then bit-packed in one numpy pass."""
    out = bytearray()
    carry = nbits = 0
    segment = [_CLEAR]
    size = 257
    table: dict[int, int] = {}
    next_code = 258
    it = iter(data)
    w = next(it, None)
    for b in it:
        key = (w << 8) | b
        if key in table:
            w = table[key]
            continue
        segment.append(w)
        if next_code == 4093:  # this entry would fill the table: CLEAR
            segment.append(_CLEAR)
            packed, carry, nbits = _pack(segment, size, carry, nbits)
            out += packed
            segment, size = [], 258
            table = {}
            next_code = 258
        else:
            table[key] = next_code
            next_code += 1
        w = b
    if w is not None:
        segment.append(w)
    # EOI goes at the next size too: the decoder has added the flush
    # code's entry and may have widened (libtiff's LZWPostEncode)
    segment.append(_EOI)
    packed, carry, nbits = _pack(segment, size, carry, nbits)
    out += packed
    if nbits:
        out.append(carry)
    return bytes(out)


def _read_codes(win: np.ndarray, nbits: int, pos: int, k: int, n: int):
    """Read up to ``n`` codes at segment places ``k``.. from bit ``pos``;
    ``win[i]`` is the big-endian 32-bit window at byte ``i``.

    Returns the codes before the first CLEAR/EOI, the code that stopped the
    read (CLEAR or EOI; None when all ``n`` were read) and the bit position
    after it.  Running out of data stops the read like an EOI."""
    size = 258 + min(k, 4096)
    widths = _WIDTH[size:size + n]
    ends = _END[size:size + n] + (pos - int(_END[size - 1]))
    m = int(np.searchsorted(ends, nbits, "right"))  # codes that fit
    widths, ends = widths[:m], ends[:m]
    starts = ends - widths
    codes = (win[starts >> 3] >> (32 - (starts & 7) - widths)) & ((1 << widths) - 1)
    hit = np.flatnonzero((codes >> 1) == _CLEAR >> 1)
    if hit.size:
        t = hit[0]
        return codes[:t].tolist(), int(codes[t]), int(ends[t])
    return codes.tolist(), None if m == n else _EOI, int(ends[-1]) if m else pos


def _decode_segment(win: np.ndarray, nbits: int, pos: int,
                    budget: int | None, n: int):
    """Decode the CLEAR segment that starts at bit ``pos``, reading ``n``
    codes first.  Returns its entries, the code that ended it, the bit
    position after that code and the number of codes it took.  Stops (as
    at an EOI) once ``budget`` bytes are out."""
    table = _ROOTS.copy()
    grow = table.append
    out: list[bytes] = []
    emit = out.append
    prev = None
    done = 0
    k = 0
    while True:
        codes, stop, pos = _read_codes(win, nbits, pos, k, n)
        start = len(out)
        it = iter(codes)
        if prev is None and codes:
            first = next(it)
            if first > 255:
                raise ValueError(f"corrupt LZW stream: code {first} "
                                 "opens a segment")
            prev = table[first]
            emit(prev)
        nxt = len(table)
        for code in it:
            if code < nxt:
                entry = table[code]
                grow(prev + entry[:1])
            elif code == nxt:  # KwKwK: the entry being defined
                entry = prev + prev[:1]
                grow(entry)
            elif budget is not None and done + sum(map(len, out[start:])) >= budget:
                return out, _EOI, pos, k + n
            else:
                raise ValueError(f"corrupt LZW stream: code {code} "
                                 f"> next {nxt}")
            nxt += 1
            emit(entry)
            prev = entry
        if stop is not None:
            return out, stop, pos, k + len(codes) + 1
        if budget is not None:
            done += sum(map(len, out[start:]))
            if done >= budget:
                return out, _EOI, pos, k + n
        k += n
        n = min(4 * k, 4096)


def lzw_decode(data: bytes, max_out: int | None = None) -> bytes:
    """TIFF LZW decode (MSB-first bit order, 9->12 bit codes, early
    change: the code width bumps one entry BEFORE the table fills).

    Each CLEAR segment's codes come out in numpy batches; one Python step
    per code then builds the entries, joined once per segment.  The first
    batch is as long as the last segment (libtiff CLEARs every 3836 codes),
    later ones grow fourfold.  With ``max_out``, decoding stops once that
    many bytes are out, and codes past that point are not checked."""
    buf = bytes(data) + bytes(3)
    # win[i] = bytes i..i+3 as a big-endian uint32: a byte-strided view
    win = np.ndarray((len(data),), ">u4", buf, 0, (1,))
    # bytes still wanted; even max_out=0 reads the first code (and raises
    # if it is corrupt), as a per-code check after each output would
    budget = None if max_out is None else max(max_out, 1)
    segments: list[bytes] = []
    pos, n, stop = 0, 16, _CLEAR
    while stop == _CLEAR and (budget is None or budget > 0):
        out, stop, pos, n = _decode_segment(win, 8 * len(data), pos, budget, max(n, 16))
        if out:  # (the leading CLEAR opens an empty one)
            segments.append(b"".join(out))
            if budget is not None:
                budget -= len(segments[-1])
    result = b"".join(segments)  # one segment comes back as is, uncopied
    return result if max_out is None else result[:max_out]


def packbits_decode(data: bytes, max_out: int | None = None) -> bytes:
    """TIFF PackBits (Apple RLE, TIFF 6.0 §9)."""
    out = bytearray()
    i, n = 0, len(data)
    while i < n:
        h = data[i]
        i += 1
        if h < 128:          # literal run of h+1 bytes
            out += data[i:i + h + 1]
            i += h + 1
        elif h > 128:        # repeat next byte 257-h times
            out += data[i:i + 1] * (257 - h)
            i += 1
        # h == 128: no-op
        if max_out is not None and len(out) >= max_out:
            return bytes(out[:max_out])
    return bytes(out)


def packbits_encode(data: bytes) -> bytes:
    """Greedy PackBits encoder (runs >= 3 become repeats)."""
    out = bytearray()
    i, n = 0, len(data)
    while i < n:
        # find run length at i
        j = i + 1
        while j < n and j - i < 128 and data[j] == data[i]:
            j += 1
        if j - i >= 3:
            out.append(257 - (j - i))
            out.append(data[i])
            i = j
            continue
        # literal: until the next >=3 run or 128 bytes
        k = i
        while k < n and k - i < 128:
            if k + 2 < n and data[k] == data[k + 1] == data[k + 2]:
                break
            k += 1
        out.append(k - i - 1)
        out += data[i:k]
        i = k
    return bytes(out)


def predictor2_decode(raw: bytes, width: int, height: int,
                      dtype: np.dtype, en: str = "<",
                      samples: int = 1) -> bytes:
    """Undo horizontal differencing (Predictor=2): cumulative sum along
    rows with wraparound integer arithmetic.  ``width`` counts SAMPLES
    per row (pixels * samples for chunky multi-band); the delta is
    between corresponding samples of adjacent pixels (TIFF 6.0 §14)."""
    dt = np.dtype(dtype).newbyteorder(en)
    a = np.frombuffer(raw, dtype=dt).reshape(height, width).copy()
    if samples == 1:
        np.cumsum(a.view(a.dtype), axis=1, out=a,
                  dtype=a.dtype)  # modular wrap matches per-pixel adds
    else:
        b = a.reshape(height, width // samples, samples)
        np.cumsum(b, axis=1, out=b, dtype=b.dtype)
    return a.astype(np.dtype(dtype).newbyteorder(en), copy=False).tobytes()


def predictor2_encode(raw: bytes, width: int, height: int,
                      dtype: np.dtype, en: str = "<",
                      samples: int = 1) -> bytes:
    """Apply horizontal differencing (Predictor=2)."""
    dt = np.dtype(dtype).newbyteorder(en)
    a = np.frombuffer(raw, dtype=dt).reshape(height, width).copy()
    if samples == 1:
        a[:, 1:] = a[:, 1:] - a[:, :-1]
    else:
        b = a.reshape(height, width // samples, samples)
        b[:, 1:] = b[:, 1:] - b[:, :-1]
    return a.tobytes()
