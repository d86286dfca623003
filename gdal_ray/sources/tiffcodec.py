"""TIFF chunk codecs: LZW (Compression=5), PackBits (32773), Predictor=2.

From-scratch implementations of the public TIFF 6.0 spec algorithms
(§13 LZW with the early-change convention libtiff/GDAL use, §9 PackBits,
§14 horizontal differencing predictor) — the decode path that unlocks
reading most real-world GeoTIFFs (reference surface:
``frmts/gtiff/geotiff.cpp`` COMPRESS=LZW/PACKBITS + TIFFTAG_PREDICTOR).

Chunks are tile- or strip-sized (tens of KiB): these run inside
``map_batches`` workers per chunk, so LZW throughput parallelizes across
the workers; the wide path for new data remains deflate.  LZW encoding
keeps one Python step per input byte (LZW parsing is P-complete, so it
stays sequential) and packs bits in numpy.  Decoding takes no Python step
per code: each code is an earlier code's string plus one byte, so a tile
resolves in a few numpy passes by pointer doubling, and only long runs
(over ``LONG`` bytes per code) join ``bytes`` entries code by code.  On
the 64 KiB uint8 tiles of perfbench's ``raster_cog`` LZW encodes at
5.0 MB/s and decodes at about 22 MB/s, up from 7.5-8 MB/s with one Python
step per code (one Xeon core, scaled to perfbench's reference speed).
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
_SHIFT = 32 - _WIDTH  # a code's shift in the 32-bit window at its byte
_MASK = (1 << _WIDTH) - 1
_ROOTS = [bytes([i]) for i in range(256)] + [b"", b""]
# Codes decoded together: whole CLEAR segments (<= 3,838 codes from this
# encoder or libtiff) until the group holds this many.
_GROUP = 1 << 15
# Bytes per code above which a group joins ``bytes`` entries per code:
# pointer doubling makes log2(longest string) passes over every output
# byte, the join one Python step per code.  The two cost the same at about
# 10 bytes per code on 64 KiB of runs or of repeated random words.
LONG = 10


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
    ends = _END[size:size + n] + (pos - int(_END[size - 1]))
    m = int(np.searchsorted(ends, nbits, "right"))  # codes that fit
    ends = ends[:m]
    starts = ends - _WIDTH[size:size + m]
    codes = (win[starts >> 3] >> (_SHIFT[size:size + m] - (starts & 7))) & _MASK[size:size + m]
    hit = np.flatnonzero((codes >> 1) == _CLEAR >> 1)
    if hit.size:
        t = hit[0]
        return codes[:t], int(codes[t]), int(ends[t])
    return codes, None if m == n else _EOI, int(ends[-1]) if m else pos


def _read_segment(win: np.ndarray, nbits: int, pos: int, n: int,
                  want: int | None):
    """The codes of the CLEAR segment that starts at bit ``pos``, read
    ``n`` first and then fourfold batches, the code that ended it (None
    once ``want`` codes were read: each code is at least one byte) and
    the bit position after it."""
    batches = []
    k = 0
    while True:
        codes, stop, pos = _read_codes(win, nbits, pos, k, n)
        batches.append(codes)
        k += codes.size
        if stop is not None or (want is not None and k >= want):
            return np.concatenate(batches) if len(batches) > 1 else codes, stop, pos
        n = min(4 * k, 4096)


def _first_bad(codes: np.ndarray) -> int:
    """The place of a segment's first corrupt code, or its length: the k-th
    code may name a root or one of the k - 1 entries defined so far, or the
    one being defined (no CLEAR or EOI is among ``codes``)."""
    bad = codes > np.arange(257, 257 + codes.size)
    hit = np.flatnonzero(bad)
    return int(hit[0]) if hit.size else codes.size


def _corrupt(codes: np.ndarray, k: int) -> ValueError:
    if k == 0:
        return ValueError(f"corrupt LZW stream: code {codes[0]} opens a segment")
    return ValueError(f"corrupt LZW stream: code {codes[k]} > next {257 + k}")


def _join_entries(codes: np.ndarray, heads: list[int]) -> bytes:
    """One Python step per code: each CLEAR segment (``heads`` are their
    first steps) grows a table of ``bytes`` entries, joined once."""
    out: list[bytes] = []
    emit = out.append
    bounds = heads + [codes.size]
    for a, b in zip(bounds, bounds[1:]):
        it = iter(codes[a:b].tolist())
        table = _ROOTS.copy()
        grow = table.append
        prev = table[next(it)]
        emit(prev)
        nxt = 258
        for code in it:
            if code < nxt:
                entry = table[code]
                grow(prev + entry[:1])
            else:  # KwKwK: the entry being defined
                entry = prev + prev[:1]
                grow(entry)
            nxt += 1
            emit(entry)
            prev = entry
    return b"".join(out)


def _resolve(codes: np.ndarray, par: np.ndarray, lens: np.ndarray,
             end: np.ndarray, first: np.ndarray) -> bytes:
    """Bytes of checked steps whose strings are ``lens`` long and end at
    offsets ``end``: byte i of step k is byte i of step ``par[k]``, but for
    its last byte, which is the first byte of step ``par[k] + 1``
    (``first`` holds every step's; a root code's one byte is the code).
    Pointer doubling follows every other byte back to a last byte, in
    log2(longest string) passes."""
    off = end - lens
    total = int(end[-1])
    idx = np.int32 if total < 1 << 31 else np.int64
    last = np.where(codes < 256, codes, first.take(par + 1, mode="clip"))
    ptr = np.repeat((off[par] - off).astype(idx), lens)
    ptr += np.arange(total, dtype=idx)
    ptr[end - 1] = end - 1
    lit = np.empty(total, np.uint8)
    lit[end - 1] = last
    # a byte is at most (longest string - 1) links from its last byte
    for _ in range(max(int(lens.max()) - 2, 0).bit_length()):
        ptr = ptr.take(ptr)
    return lit.take(ptr).tobytes()


def _decode_group(codes: np.ndarray, heads: list[int], want: int | None) -> bytes:
    """Decode the checked codes of whole CLEAR segments (``heads`` are the
    steps that open them), at least ``want`` bytes of them if that is set.

    A code ``c >= 258`` at step k names the string of step j = ``c - 258``
    of its segment plus one byte, so list ranking over the ``par`` links
    gives each step's string length and its root step.  A group past
    ``LONG`` bytes per code stops ranking early, at lower bounds, and
    joins ``bytes`` entries instead."""
    n = codes.size
    root = codes < 256
    seg = np.repeat(heads, np.diff(heads + [n])) if len(heads) > 1 else heads[0]
    par = np.where(root, np.arange(n), codes - 258 + seg)
    d = (~root).astype(np.int64)  # links from each step to step p
    p = par
    links = int(d.sum())
    long = False
    while True:
        dp = d[p]
        more = int(dp.sum())
        if not more:  # every p is a root
            break
        d += dp
        p = p[p]
        links += more
        if n + links > LONG * n:  # lower bounds of the string lengths
            long = True
            break
    lens = d + 1
    end = None  # string ends, needed by max_out's cut and by doubling
    if want is not None:  # steps past the one that fills max_out
        end = np.cumsum(lens)
        cut = int(np.searchsorted(end, want)) + 1
        codes, par, p, lens, end = codes[:cut], par[:cut], p[:cut], lens[:cut], end[:cut]
        heads = [h for h in heads if h < cut]
    if long:
        return _join_entries(codes, heads)
    return _resolve(codes, par, lens, np.cumsum(lens) if end is None else end, codes[p])


def lzw_decode(data: bytes, max_out: int | None = None) -> bytes:
    """TIFF LZW decode (MSB-first bit order, 9->12 bit codes, early
    change: the code width bumps one entry BEFORE the table fills).

    Every code past a CLEAR segment's first names an earlier step's string
    plus one byte, so segments decode in a few numpy passes with no Python
    step per code (``_decode_group``), in groups of about ``_GROUP`` codes
    to bound the temporaries: no string crosses a CLEAR.  With
    ``max_out``, decoding stops once that many bytes are out, and codes
    past that point are not checked."""
    buf = bytes(data) + bytes(3)
    # win[i] = bytes i..i+3 as a big-endian uint32: a byte-strided view
    win = np.ndarray((len(data),), ">u4", buf, 0, (1,))
    nbits = 8 * len(data)
    # bytes still wanted; even max_out=0 reads the first code (and raises
    # if it is corrupt), as a per-code check after each output would
    want = None if max_out is None else max(max_out, 1)
    parts: list[bytes] = []
    # the first read of a segment is as long as the last segment
    # (libtiff CLEARs every 3836 codes)
    pos, stop, size = 0, _CLEAR, 512
    while stop == _CLEAR and (want is None or want > 0):
        group, heads, bad = [], [], None
        n = 0
        while stop == _CLEAR and n < _GROUP and (want is None or n < want):
            codes, stop, pos = _read_segment(win, nbits, pos, size,
                                             None if want is None else want - n)
            if not codes.size:  # (the leading CLEAR opens an empty one)
                continue
            size = min(codes.size + 1, 4096)
            k = _first_bad(codes)
            if k < codes.size:
                bad, codes, stop = _corrupt(codes, k), codes[:k], None
            if codes.size:
                group.append(codes)
                heads.append(n)
                n += codes.size
        if n:
            out = _decode_group(np.concatenate(group) if len(group) > 1 else group[0],
                                heads, want)
            parts.append(out)
            if want is not None:
                want -= len(out)
        if bad is not None and (want is None or want > 0):
            raise bad
    result = b"".join(parts) if len(parts) != 1 else parts[0]
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
