"""GeoTIFF raster format — dependency-free reader + writer.

Re-answers the reference's GTiff driver surface (``frmts/gtiff/geotiff.cpp``,
GeoTIFF keys per ``frmts/gtiff/gt_wkt_srs.cpp``) from the public TIFF 6.0,
BigTIFF and GeoTIFF 1.1 specs — an independent implementation, not a port:
classic (32-bit) and BigTIFF (64-bit offsets), little- or big-endian, tiled
(TileWidth/TileLength/TileOffsets/TileByteCounts) and stripped layouts,
single-band or chunky multi-band, dtypes via BitsPerSample + SampleFormat,
uncompressed / DEFLATE / LZW / PackBits with Predictor 2 (JPEG on read),
georeferencing via ModelPixelScaleTag + ModelTiepointTag +
GeoKeyDirectoryTag (GTModelType / GTRasterType / ProjectedCSType), nodata
via the GDAL_NODATA ASCII tag (42113), internal overviews as chained
reduced-resolution IFDs, and Cloud-Optimized GeoTIFF layout.

One writer: every image (``write_gtiff``, ``append_gtiff_images``, the
streaming sink's header, each ``write_cog`` level) gets its tags from
``_image_tags``, its pixel chunks from ``_encode_chunks`` (pad, predict,
compress) and its IFD from ``_pack_ifd`` (classic or BigTIFF); an IFD's
size follows from its tags (``_ifd_size``), so a layout is known before a
byte is packed.  One reader: ``_parse_ifd`` reads an IFD through
``read(offset, n)`` — a buffer slice or a file seek — and returns its tags,
the next IFD's offset and where that pointer sits; ``_read_ifds`` walks the
chain for ``read_gtiff``, ``read_gtiff_manifest``, ``append_gtiff_images``
and ``validate_cog``.

Ray-Data shape: ``read_gtiff_tiles`` parses ONLY the IFD driver-side (a few
hundred bytes) and emits a tile MANIFEST Dataset (one row per TIFF tile with
its byte range); the pixel payload is then range-read inside ``map_batches``
workers — the 100 TB plan, where a 4 GiB BigTIFF-sized mosaic never passes
through the driver.  Edge-tile padding (TIFF pads tiles to full tile size) is
trimmed in the worker so downstream stages see the engine's standard
clipped-edge tile rows.
"""
from __future__ import annotations

import struct
import zlib

import numpy as np
import pyarrow as pa

from ..functions.tilerow import pixels

# (BitsPerSample, SampleFormat) <-> numpy dtype.  SampleFormat: 1=unsigned
# int, 2=signed int, 3=IEEE float (TIFF 6.0 §19 + TIFF/EP).
_FMT_TO_DTYPE = {
    (8, 1): "uint8", (16, 1): "uint16", (32, 1): "uint32",
    (8, 2): "int8", (16, 2): "int16", (32, 2): "int32",
    (32, 3): "float32", (64, 3): "float64",
    # SampleFormat 6 = complex IEEE float (GDAL CFloat32/CFloat64)
    (64, 6): "complex64", (128, 6): "complex128",
}
# SampleFormat 5 = complex int (GDAL CInt16/CInt32): stored as re/im int
# pairs, surfaced as complex64/complex128 like the reference's rasterio
# interop; (bits, 5) -> (pair dtype, out dtype)
_COMPLEX_INT = {32: ("int16", "complex64"), 64: ("int32", "complex128")}
_DTYPE_TO_FMT = {v: k for k, v in _FMT_TO_DTYPE.items()}

_TYPE_SIZE = {1: 1, 2: 1, 3: 2, 4: 4, 11: 4, 12: 8, 16: 8, 17: 8, 18: 8}
_TYPE_FMT = {1: "B", 3: "H", 4: "I", 11: "f", 12: "d", 16: "Q", 17: "q",
             18: "Q"}  # 16-18: BigTIFF LONG8/SLONG8/IFD8

TAG_SUBFILE_TYPE = 254  # NewSubfileType: 1 = reduced-resolution (overview)
TAG_WIDTH, TAG_HEIGHT = 256, 257
TAG_BITS, TAG_COMPRESSION, TAG_PHOTOMETRIC = 258, 259, 262
TAG_STRIP_OFFSETS, TAG_SAMPLES_PER_PIXEL = 273, 277
TAG_ROWS_PER_STRIP, TAG_STRIP_COUNTS = 278, 279
TAG_PLANAR = 284
TAG_TILE_W, TAG_TILE_H, TAG_TILE_OFFSETS, TAG_TILE_COUNTS = 322, 323, 324, 325
TAG_EXTRA_SAMPLES, TAG_SAMPLE_FORMAT = 338, 339
TAG_PREDICTOR = 317
_COMPRESS_TAG = {None: 1, "deflate": 8, "lzw": 5, "packbits": 32773}
TAG_PIXEL_SCALE, TAG_TIEPOINT = 33550, 33922
TAG_GEO_KEYS = 34735
TAG_GDAL_NODATA = 42113

_KEY_MODEL_TYPE, _KEY_RASTER_TYPE = 1024, 1025
_KEY_GEOGRAPHIC_CS, _KEY_PROJECTED_CS = 2048, 3072

# (entry-count format, offset format) per layout: an entry is tag (u16),
# type (u16), count and a value slot, the last two in the offset format
_IFD_FORMATS = {False: ("H", "I"), True: ("Q", "Q")}  # classic, BigTIFF


def _sample_format(dtype) -> tuple[int, int]:
    """(BitsPerSample, SampleFormat) of a dtype the writers support."""
    if str(dtype) not in _DTYPE_TO_FMT:
        raise ValueError(f"unsupported dtype {dtype}")
    return _DTYPE_TO_FMT[str(dtype)]


def _image_tags(shape, dtype, *, counts, tile_size: int | None = None,
                rows_per_strip: int = 64, origin=(0.0, 0.0),
                pixel_size=(1.0, 1.0), epsg: int = 3857,
                nodata: float | None = None, subfile_type: int | None = None,
                compress: str | None = None, predictor: int = 1) -> dict:
    """{tag: (type, values)} of one image whose pixel chunks hold
    ``counts`` bytes each; the chunk offsets stay zero until the caller
    knows where the chunks go.  ``shape`` is (h, w) or chunky
    (h, w, samples); ``subfile_type=1`` marks a reduced-resolution
    overview (gdaladdo's internal-overview convention)."""
    bits, sfmt = _sample_format(dtype)
    h, w = shape[:2]
    ns = shape[2] if len(shape) == 3 else 1
    projected = 3000 <= epsg
    tags = {
        TAG_WIDTH: (4, [w]), TAG_HEIGHT: (4, [h]),
        TAG_BITS: (3, [bits] * ns),
        TAG_COMPRESSION: (3, [_COMPRESS_TAG.get(compress, 1)]),
        TAG_PHOTOMETRIC: (3, [2 if ns >= 3 and str(dtype) == "uint8" else 1]),
        TAG_SAMPLES_PER_PIXEL: (3, [ns]),
        TAG_PLANAR: (3, [1]),
        TAG_SAMPLE_FORMAT: (3, [sfmt] * ns),
        TAG_PIXEL_SCALE: (12, [float(pixel_size[0]), float(pixel_size[1]),
                               0.0]),
        TAG_TIEPOINT: (12, [0.0, 0.0, 0.0, float(origin[0]),
                            float(origin[1]), 0.0]),
        TAG_GEO_KEYS: (3, [1, 1, 0, 3,
                           _KEY_MODEL_TYPE, 0, 1, 1 if projected else 2,
                           _KEY_RASTER_TYPE, 0, 1, 1,
                           _KEY_PROJECTED_CS if projected
                           else _KEY_GEOGRAPHIC_CS, 0, 1, epsg]),
    }
    if ns == 4:
        tags[TAG_EXTRA_SAMPLES] = (3, [2])  # unassociated alpha
    if nodata is not None:
        tags[TAG_GDAL_NODATA] = (2, repr(float(nodata)))
    if subfile_type is not None:
        tags[TAG_SUBFILE_TYPE] = (4, [subfile_type])
    if predictor != 1:
        tags[TAG_PREDICTOR] = (3, [predictor])
    if tile_size:
        tags[TAG_TILE_W] = tags[TAG_TILE_H] = (3, [tile_size])
        tags[TAG_TILE_COUNTS] = (4, list(counts))
        tags[TAG_TILE_OFFSETS] = (4, [0] * len(counts))
    else:
        tags[TAG_ROWS_PER_STRIP] = (4, [rows_per_strip])
        tags[TAG_STRIP_COUNTS] = (4, list(counts))
        tags[TAG_STRIP_OFFSETS] = (4, [0] * len(counts))
    return tags


def _set_offsets(tags: dict, offsets, typ: int = 4) -> None:
    """Fill in the chunk offsets (``typ`` 16 = BigTIFF LONG8)."""
    key = TAG_TILE_OFFSETS if TAG_TILE_OFFSETS in tags else TAG_STRIP_OFFSETS
    tags[key] = (typ, [int(o) for o in offsets])


def _nbytes(typ: int, values) -> int:
    """Payload size of one entry (ASCII values carry a NUL terminator)."""
    if typ == 2:
        return len(values.encode()) + 1
    return len(values) * _TYPE_SIZE[typ]


def _ifd_head(n: int, big: bool = False) -> int:
    """Bytes of an IFD's entry count, ``n`` entries and next pointer."""
    nfmt, ofmt = _IFD_FORMATS[big]
    slot = struct.calcsize(ofmt)
    return struct.calcsize(nfmt) + (4 + 2 * slot) * n + slot


def _ifd_size(tags: dict, big: bool = False) -> int:
    """Bytes of the IFD that packs ``tags``, out-of-line payloads included;
    it follows from the entry list alone, so a layout needs no packing."""
    slot = struct.calcsize(_IFD_FORMATS[big][1])
    size = _ifd_head(len(tags), big)
    for typ, values in tags.values():
        n = _nbytes(typ, values)
        if n > slot:
            size += n + n % 2
    return size


def _pack_ifd(tags: dict, *, ifd_off: int, next_ifd: int = 0,
              en: str = "<", big: bool = False) -> bytes:
    """The IFD of ``tags`` at file offset ``ifd_off``: entries in tag order,
    ``next_ifd`` in the next-IFD pointer, then every payload longer than a
    value slot, in tag order, each padded to an even length (TIFF 6.0
    word alignment).  Classic TIFF has a u16 entry count, 12-byte entries
    and a u32 pointer; BigTIFF a u64 count, 20-byte entries and a u64
    pointer."""
    nfmt, ofmt = _IFD_FORMATS[big]
    slot = struct.calcsize(ofmt)
    ext = ifd_off + _ifd_head(len(tags), big)
    head, tail = [struct.pack(en + nfmt, len(tags))], []
    for tag in sorted(tags):
        typ, values = tags[tag]
        if typ == 2:
            payload = values.encode() + b"\x00"
        else:
            payload = struct.pack(en + "%d%s" % (len(values), _TYPE_FMT[typ]),
                                  *values)
        count = len(payload) // _TYPE_SIZE[typ]
        if len(payload) > slot:
            head.append(struct.pack(en + "HH" + ofmt * 2, tag, typ, count, ext))
            tail.append(payload + b"\x00" * (len(payload) % 2))
            ext += len(tail[-1])
        else:
            head.append(struct.pack(en + "HH" + ofmt, tag, typ, count)
                        + payload.ljust(slot, b"\x00"))
    head.append(struct.pack(en + ofmt, next_ifd))
    return b"".join(head + tail)


def _file_header(en: str, ifd_off: int, big: bool = False) -> bytes:
    """The 8-byte classic (version 42) or 16-byte BigTIFF (version 43)
    header pointing at the first IFD."""
    if en not in ("<", ">"):
        raise ValueError("endian must be '<' (II) or '>' (MM)")
    mark = b"II" if en == "<" else b"MM"
    if big:  # u16 offset size 8, u16 zero, u64 first IFD
        return struct.pack(en + "2sHHHQ", mark, 43, 8, 0, ifd_off)
    return struct.pack(en + "2sHI", mark, 42, ifd_off)


def _encode_chunks(arr: np.ndarray, *, tile_size: int | None = None,
                   rows_per_strip: int = 64, compress: str | None = None,
                   predictor: int = 1, en: str = "<") -> list[bytes]:
    """The pixel chunks of one image in file order, in byte order ``en``:
    row-major tiles zero-padded to the full tile size (per spec), or strips
    of ``rows_per_strip`` rows (the last one short, unpadded); each is
    differenced (``predictor=2``) and compressed — 'deflate'
    (Compression=8, one zlib stream per chunk so workers still range-read
    and decode chunks independently), 'lzw' (5, TIFF 6.0 §13 early-change)
    or 'packbits' (32773)."""
    from . import tiffcodec as _tc

    if predictor == 2 and _sample_format(arr.dtype)[1] == 3:
        raise ValueError("Predictor=2 is integer-only (TIFF 6.0 §14)")
    if compress not in _COMPRESS_TAG:
        raise ValueError(f"unsupported compression {compress!r} "
                         "(supported: deflate, lzw, packbits)")
    le = arr.astype(arr.dtype.newbyteorder(en), copy=False)
    h, w = arr.shape[:2]
    ns = arr.shape[2] if arr.ndim == 3 else 1
    if tile_size:
        ts = int(tile_size)
        pieces = []
        for y0 in range(0, h, ts):
            for x0 in range(0, w, ts):
                pad = np.zeros((ts, ts) + le.shape[2:], dtype=le.dtype)
                sub = le[y0:y0 + ts, x0:x0 + ts]
                pad[: sub.shape[0], : sub.shape[1]] = sub
                pieces.append(pad)
    else:
        pieces = [le[y0:y0 + rows_per_strip]
                  for y0 in range(0, h, rows_per_strip)]
    chunks = []
    for p in pieces:
        raw = p.tobytes()
        if predictor == 2:
            raw = _tc.predictor2_encode(raw, p.shape[1] * ns, p.shape[0],
                                        le.dtype, en, samples=ns)
        if compress == "deflate":
            raw = zlib.compress(raw, 6)
        elif compress == "lzw":
            raw = _tc.lzw_encode(raw)
        elif compress == "packbits":
            raw = _tc.packbits_encode(raw)
        chunks.append(raw)
    return chunks


def _serialize_image(arr: np.ndarray, *, ifd_off: int, en: str = "<",
                     tile_size: int | None = None, rows_per_strip: int = 64,
                     compress: str | None = None, predictor: int = 1,
                     **geo) -> bytes:
    """One complete image unit laid out from file offset ``ifd_off``: the
    IFD (its next pointer 0), its out-of-line payloads, then its pixel
    chunks.  ``geo``: ``_image_tags``' origin / pixel_size / epsg /
    nodata / subfile_type."""
    arr = np.ascontiguousarray(arr)
    if arr.ndim not in (2, 3):
        raise ValueError("expected a 2-D (single-band) or "
                         "(h, w, samples) 3-D array")
    chunks = _encode_chunks(arr, tile_size=tile_size,
                            rows_per_strip=rows_per_strip, compress=compress,
                            predictor=predictor, en=en)
    counts = [len(c) for c in chunks]
    tags = _image_tags(arr.shape, arr.dtype, counts=counts,
                       tile_size=tile_size, rows_per_strip=rows_per_strip,
                       compress=compress, predictor=predictor, **geo)
    # the chunks follow the IFD and its payloads back to back
    _set_offsets(tags, np.cumsum([ifd_off + _ifd_size(tags)] + counts)[:-1])
    return _pack_ifd(tags, ifd_off=ifd_off, en=en) + b"".join(chunks)


def write_gtiff(path: str, arr: np.ndarray, *, tile_size: int | None = None,
                rows_per_strip: int = 64, origin=(0.0, 0.0),
                pixel_size=(1.0, 1.0), epsg: int = 3857,
                nodata: float | None = None, endian: str = "<",
                compress: str | None = None, predictor: int = 1) -> None:
    """Serialize a 2-D array as a single-band GeoTIFF (uncompressed, or
    ``compress=`` 'deflate' (Compression=8) / 'lzw' (5, TIFF 6.0 §13
    early-change) / 'packbits' (32773); ``predictor=2`` adds horizontal
    differencing for integer dtypes).

    ``tile_size`` -> tiled layout (TIFF tiles pad to the full tile size with
    zeros, per spec); None -> strips of ``rows_per_strip`` rows (the final
    strip is short, unpadded).  ``origin`` is the outer corner of pixel (0,0)
    (PixelIsArea); north-up files have positive ``pixel_size[1]`` stored as a
    positive ModelPixelScale y (the reader re-applies the north-up sign).
    """
    head = _file_header(endian, 8)
    body = _serialize_image(
        arr, ifd_off=8, en=endian, tile_size=tile_size,
        rows_per_strip=rows_per_strip, compress=compress, predictor=predictor,
        origin=origin, pixel_size=pixel_size, epsg=epsg, nodata=nodata)
    with open(path, "wb") as f:
        f.write(head)
        f.write(body)


def _tiled_header(*, width: int, height: int, tile_size: int, dtype: str,
                  origin=(0.0, 0.0), pixel_size=(1.0, 1.0), epsg: int = 3857,
                  nodata: float | None = None, endian: str = "<",
                  bigtiff="auto"):
    """Header + IFD bytes for an UNCOMPRESSED tiled single-band GeoTIFF
    whose pixel chunks will be written LATER at preallocated offsets
    (every uncompressed tile chunk has the fixed size ts*ts*itemsize, so
    the whole layout is known without touching a pixel).

    Returns (header_bytes, data_start, ntx, nty, chunk_bytes)."""
    ts = int(tile_size)
    ntx, nty = (width + ts - 1) // ts, (height + ts - 1) // ts
    n_chunks = ntx * nty
    chunk = ts * ts * _sample_format(dtype)[0] // 8
    tags = _image_tags((height, width), dtype, counts=[chunk] * n_chunks,
                       tile_size=ts, origin=origin, pixel_size=pixel_size,
                       epsg=epsg, nodata=nodata)
    if bigtiff == "auto":
        # BigTIFF when the preallocated layout cannot fit 32-bit offsets
        # (classic TIFF caps at 4 GiB — a 100 GB COG needs version 43)
        approx = 4096 + sum(_nbytes(*tv) for tv in tags.values()) \
            + 16 * n_chunks + chunk * n_chunks
        bigtiff = approx >= (1 << 32) - (1 << 16)
    # BigTIFF tile OFFSETS need LONG8 (they can exceed 2^32); byte COUNTS
    # stay LONG (one uncompressed chunk is far below 4 GiB)
    typ = 16 if bigtiff else 4
    _set_offsets(tags, [0] * n_chunks, typ)
    ifd_off = 16 if bigtiff else 8
    data_start = ifd_off + _ifd_size(tags, bigtiff)
    _set_offsets(tags, range(data_start, data_start + chunk * n_chunks,
                             chunk), typ)
    header = _file_header(endian, ifd_off, bigtiff) + _pack_ifd(
        tags, ifd_off=ifd_off, en=endian, big=bigtiff)
    return header, data_start, ntx, nty, chunk


def write_gtiff_tiles_streaming(tiles_ds, path: str, *, width: int,
                                height: int, tile_size: int,
                                dtype: str = "uint8", origin=(0.0, 0.0),
                                pixel_size=(1.0, 1.0), epsg: int = 3857,
                                nodata: float | None = None,
                                bigtiff="auto") -> int:
    """STREAMING single-file tiled GeoTIFF sink: the driver writes only the
    header/IFD (O(#tiles) metadata) and preallocates the fixed-size chunk
    region; worker tasks os.pwrite their tiles at arithmetic offsets —
    pixel bytes never transit the driver (round-4 replacement for the
    driver-side assembly; reference streams blocks through
    gcore/gdalrasterblock.cpp).  Uncompressed tiles only (fixed chunk size
    is what makes offsets preallocatable; deflate needs the existing
    two-pass driver path).  Disjoint-offset pwrite is safe from concurrent
    local workers; multi-node needs the file on a shared filesystem (else
    write per-partition objects + compose).

    tiles_ds rows: (x, y, width, height, dtype, data) on a ``tile_size``
    grid.  Returns the number of tiles written."""
    header, data_start, ntx, nty, chunk = _tiled_header(
        width=width, height=height, tile_size=tile_size, dtype=dtype,
        origin=origin, pixel_size=pixel_size, epsg=epsg, nodata=nodata,
        bigtiff=bigtiff)
    with open(path, "wb") as f:
        f.write(header)
        f.truncate(data_start + chunk * ntx * nty)
    ts = int(tile_size)

    def put(t: pa.Table) -> pa.Table:
        import os as _os

        fd = _os.open(path, _os.O_WRONLY)
        n = 0
        try:
            for i in range(t.num_rows):
                tx = t["x"][i].as_py()
                ty = t["y"][i].as_py()
                arr = pixels(t, i)
                h_, w_ = arr.shape
                if not (0 <= tx < ntx and 0 <= ty < nty):
                    raise ValueError(f"tile ({tx},{ty}) outside {ntx}x{nty}")
                pad = np.zeros((ts, ts), dtype=np.dtype(dtype).newbyteorder("<"))
                pad[:h_, :w_] = arr
                _os.pwrite(fd, pad.tobytes(),
                           data_start + (ty * ntx + tx) * chunk)
                n += 1
        finally:
            _os.close(fd)
        return pa.table({"written": pa.array([n], pa.int64())})

    total = tiles_ds.map_batches(put, batch_format="pyarrow").sum("written")
    return int(total or 0)


def _tiff_header(head: bytes):
    """-> (endian, first IFD offset, bigtiff) from a file's first 16 bytes."""
    if head[:2] == b"II":
        en = "<"
    elif head[:2] == b"MM":
        en = ">"
    else:
        raise ValueError("not a TIFF: bad byte-order mark")
    (magic,) = struct.unpack(en + "H", head[2:4])
    if magic == 42:
        (ifd_off,) = struct.unpack(en + "I", head[4:8])
        return en, ifd_off, False
    if magic == 43:  # BigTIFF: u16 offsetsize=8, u16 zero, u64 first IFD
        osize, zero, ifd_off = struct.unpack(en + "HHQ", head[4:16])
        if osize != 8 or zero != 0:
            raise ValueError("malformed BigTIFF header")
        return en, ifd_off, True
    raise ValueError(f"not a TIFF (magic {magic})")


def _parse_ifd(read, en: str, ifd_off: int, big: bool = False):
    """-> ({tag: values}, next IFD offset, offset of the next-IFD pointer)
    for the IFD at ``ifd_off``, through ``read(offset, n)``: only the IFD
    and its out-of-line payloads are read (a few hundred bytes), never
    pixel data.  ``big``: BigTIFF layout (u64 entry count, 20-byte
    entries, 8-byte value slot, u64 next pointer)."""
    nfmt, ofmt = _IFD_FORMATS[big]
    nsz, slot = struct.calcsize(nfmt), struct.calcsize(ofmt)
    esz = 4 + 2 * slot
    (n,) = struct.unpack(en + nfmt, read(ifd_off, nsz))
    body = read(ifd_off + nsz, esz * n + slot)
    tags = {}
    for i in range(n):
        tag, typ, count = struct.unpack_from(en + "HH" + ofmt, body, esz * i)
        size = _TYPE_SIZE.get(typ, 1) * count
        raw = body[esz * i + esz - slot:esz * (i + 1)]
        if size > slot:
            raw = read(struct.unpack(en + ofmt, raw)[0], size)
        if typ == 2:
            tags[tag] = raw[:count].split(b"\x00")[0].decode("latin1")
        elif typ == 7:   # UNDEFINED: raw bytes (JPEGTables etc.)
            tags[tag] = bytes(raw[:count])
        elif typ in _TYPE_FMT:
            tags[tag] = list(struct.unpack_from(
                en + "%d%s" % (count, _TYPE_FMT[typ]), raw, 0))
        # unknown types are skipped, per the TIFF readers-ignore rule
    (nxt,) = struct.unpack_from(en + ofmt, body, esz * n)
    return tags, nxt, ifd_off + nsz + esz * n


def _read_ifds(read):
    """-> (endian, bigtiff, [(tags, next-pointer offset), ...]) for the IFD
    chain read through ``read(offset, n)``: image 0 is the full raster,
    the rest are reduced-resolution overviews in chain order (gdaladdo
    layout)."""
    en, off, big = _tiff_header(read(0, 16))
    ifds = []
    while off:
        tags, off, ptr = _parse_ifd(read, en, off, big)
        ifds.append((tags, ptr))
        if len(ifds) > 64:
            raise ValueError("IFD chain too long / cyclic")
    return en, big, ifds


def _file_reader(f):
    """``read(offset, n)`` over a seekable binary file."""
    def read(off: int, n: int) -> bytes:
        f.seek(off)
        return f.read(n)
    return read


def append_gtiff_images(path: str, arrs, *, tile_size: int | None = None,
                        rows_per_strip: int = 64, origin=(0.0, 0.0),
                        pixel_size=(1.0, 1.0), epsg: int = 3857,
                        nodata: float | None = None,
                        subfile_type: int = 1,
                        compress: str | None = None) -> None:
    """Append reduced-resolution images to an existing GeoTIFF IN PLACE —
    gdaladdo's internal-overview behavior (apps/gdaladdo.cpp surface, layout
    per the frmts/gtiff internal-overview convention): each new image gets
    its own IFD chained off the last one, tagged NewSubfileType=1.  Only the
    4-byte next-IFD pointer of the existing file is rewritten; existing
    bytes are never moved (so finished byte ranges in any tile manifest
    stay valid — the resume property)."""
    with open(path, "r+b") as f:
        read = _file_reader(f)
        en, big, ifds = _read_ifds(read)
        if big:
            raise ValueError(
                "append_gtiff_images: BigTIFF overview append not "
                "implemented (write overviews in the initial pass)")
        ptr_off = ifds[-1][1]
        for i, arr in enumerate(arrs):
            end = f.seek(0, 2)
            if end % 2:  # keep word alignment, per spec
                f.write(b"\x00")
                end += 1
            # per-image pixel size (overviews have coarser ground pitch)
            ps = pixel_size[i] if isinstance(pixel_size, list) else pixel_size
            f.write(_serialize_image(
                arr, ifd_off=end, en=en, tile_size=tile_size,
                rows_per_strip=rows_per_strip, compress=compress,
                origin=origin, pixel_size=ps, epsg=epsg, nodata=nodata,
                subfile_type=subfile_type))
            f.seek(ptr_off)
            f.write(struct.pack(en + "I", end))
            ptr_off = _parse_ifd(read, en, end)[2]


def _chunk_layout(tags, en):
    """-> dict describing the pixel chunks (shared by eager + manifest paths)."""
    w, h = tags[TAG_WIDTH][0], tags[TAG_HEIGHT][0]
    compression = tags.get(TAG_COMPRESSION, [1])[0]
    if compression == 32946:
        compression = 8  # legacy DEFLATE code, identical zlib streams
    if compression not in (1, 5, 7, 8, 32773):
        raise ValueError(
            "only uncompressed (1), LZW (5), JPEG (7), DEFLATE (8/32946) "
            f"or PackBits (32773) TIFFs supported, got "
            f"Compression={compression}")
    predictor = tags.get(TAG_PREDICTOR, [1])[0]
    if predictor not in (1, 2):
        raise ValueError(f"unsupported Predictor={predictor} "
                         "(1=none, 2=horizontal differencing)")
    samples = tags.get(TAG_SAMPLES_PER_PIXEL, [1])[0]
    planar = tags.get(TAG_PLANAR, [1])[0]
    if planar not in (1, 2):
        raise ValueError(f"unsupported PlanarConfiguration={planar}")
    bits = tags.get(TAG_BITS, [1])[0]  # TIFF 6.0 default: 1 bit
    sfmt = tags.get(TAG_SAMPLE_FORMAT, [1])[0]
    if bits == 1 and sfmt == 1:
        dname = "uint8"  # bilevel: unpacked to 0/1 bytes at decode
    elif sfmt == 5 and bits in _COMPLEX_INT:
        dname = _COMPLEX_INT[bits][1]
    else:
        dname = _FMT_TO_DTYPE.get((bits, sfmt))
    if dname is None:
        raise ValueError(f"unsupported sample layout bits={bits} format={sfmt}")
    geo = {"origin": (0.0, 0.0), "pixel_size": (1.0, 1.0), "epsg": None,
           "nodata": None}
    if TAG_PIXEL_SCALE in tags:
        sx, sy = tags[TAG_PIXEL_SCALE][0], tags[TAG_PIXEL_SCALE][1]
        geo["pixel_size"] = (sx, sy)
    if TAG_TIEPOINT in tags:
        tp = tags[TAG_TIEPOINT]
        geo["origin"] = (tp[3] - tp[0] * geo["pixel_size"][0],
                         tp[4] + tp[1] * geo["pixel_size"][1])
    if TAG_GEO_KEYS in tags:
        gk = tags[TAG_GEO_KEYS]
        for i in range(4, len(gk), 4):
            if gk[i] in (_KEY_PROJECTED_CS, _KEY_GEOGRAPHIC_CS) and gk[i + 1] == 0:
                geo["epsg"] = gk[i + 3]
    if TAG_GDAL_NODATA in tags:
        nd_s = str(tags[TAG_GDAL_NODATA]).strip()
        if nd_s and nd_s.lower() != "nan":
            geo["nodata"] = float(nd_s)
    if TAG_TILE_OFFSETS in tags:
        ts_w, ts_h = tags[TAG_TILE_W][0], tags[TAG_TILE_H][0]
        ntx = (w + ts_w - 1) // ts_w
        nty = (h + ts_h - 1) // ts_h
        npb = ntx * nty  # chunks per band (planar=2 wraps via modulo)
        chunks = [
            {"tx": (i % npb) % ntx, "ty": (i % npb) // ntx,
             "offset": off, "nbytes": cnt,
             "chunk_w": ts_w, "chunk_h": ts_h,
             "clip_w": min(ts_w, w - ((i % npb) % ntx) * ts_w),
             "clip_h": min(ts_h, h - ((i % npb) // ntx) * ts_h)}
            for i, (off, cnt) in enumerate(
                zip(tags[TAG_TILE_OFFSETS], tags[TAG_TILE_COUNTS]))
        ]
    else:
        rps = tags.get(TAG_ROWS_PER_STRIP, [h])[0]
        spb = (h + rps - 1) // rps  # strips per band
        if TAG_STRIP_COUNTS not in tags and compression == 1:
            # missing StripByteCounts: infer from the uncompressed layout
            # (gtiff's one-strip-no-bytecount tolerance)
            bps = max(bits, 8) // 8
            tags = dict(tags)
            tags[TAG_STRIP_COUNTS] = [
                w * min(rps, h - i * rps) * samples * bps
                if bits != 1 else ((w * samples + 7) // 8)
                * min(rps, h - i * rps)
                for i in range(len(tags[TAG_STRIP_OFFSETS]))]
        chunks = [
            {"tx": 0, "ty": i % spb, "offset": off, "nbytes": cnt,
             "chunk_w": w, "chunk_h": min(rps, h - (i % spb) * rps),
             "clip_w": w, "clip_h": min(rps, h - (i % spb) * rps)}
            for i, (off, cnt) in enumerate(
                zip(tags[TAG_STRIP_OFFSETS], tags[TAG_STRIP_COUNTS]))
        ]
    if planar == 2 and samples > 1:
        # band-major chunk list: entries [band0 chunks..., band1 chunks...]
        per_band = len(chunks) // samples
        for i, c in enumerate(chunks):
            c["band"] = i // per_band + 1
            base = chunks[i % per_band]
            c["tx"], c["ty"] = base["tx"], base["ty"]
            c["chunk_w"], c["chunk_h"] = base["chunk_w"], base["chunk_h"]
            c["clip_w"], c["clip_h"] = base["clip_w"], base["clip_h"]
    else:
        for c in chunks:
            c["band"] = 0  # chunky: all samples interleaved in the chunk
    return {"width": w, "height": h, "dtype": dname, "endian": en,
            "layout": "tiles" if TAG_TILE_OFFSETS in tags else "strips",
            "compression": compression, "predictor": predictor,
            "samples": samples, "planar": planar, "bits": bits,
            "photometric": tags.get(TAG_PHOTOMETRIC, [1])[0],
            "complex_int": (_COMPLEX_INT[bits][0]
                            if sfmt == 5 and bits in _COMPLEX_INT
                            else None),
            "jpeg_tables": tags.get(347), "chunks": chunks, **geo}


def _decode_chunk(raw: bytes, lay: dict, chunk_w: int, chunk_h: int
                  ) -> np.ndarray:
    """Compressed chunk bytes -> (chunk_h, chunk_w) or
    (chunk_h, chunk_w, samples) array in file byte order, decoding
    Compression + undoing Predictor=2 (the per-worker decode path)."""
    comp = lay["compression"]
    en = lay["endian"]
    # chunky multi-band chunks interleave all samples; planar chunks and
    # single-band chunks hold one sample per pixel
    ns = lay.get("samples", 1) if lay.get("planar", 1) == 1 else 1
    dt = np.dtype(lay["dtype"]).newbyteorder(en)
    n_out = chunk_w * chunk_h * ns * dt.itemsize
    if lay.get("complex_int"):
        # on-disk: re/im integer pairs at half the surfaced complex width
        n_out = chunk_w * chunk_h * ns * 2 * np.dtype(
            lay["complex_int"]).itemsize
    if comp == 7:
        # JPEG-in-TIFF (new-style, Technote 2): abbreviated per-chunk
        # streams share the DQT/DHT segments from the JPEGTables tag —
        # splice them after the chunk's SOI, then the in-repo decoder
        # (baseline + progressive, sources/jpeg.py) does the rest
        from . import jpeg as _jpeg

        tb = lay.get("jpeg_tables")
        if tb and len(tb) > 4 and raw[:2] == b"\xff\xd8":
            stream = b"\xff\xd8" + bytes(tb)[2:-2] + raw[2:]
        else:
            stream = raw
        a = _jpeg.decode(stream)
        if a.ndim == 2:
            a = a[:, :, None]
        # trim / zero-pad MCU rounding to the chunk dims
        out = np.zeros((chunk_h, chunk_w, a.shape[2]), dtype=np.uint8)
        hh, ww = min(chunk_h, a.shape[0]), min(chunk_w, a.shape[1])
        out[:hh, :ww] = a[:hh, :ww]
        if ns == 1 and out.shape[2] == 1:
            return out[:, :, 0]
        return out if out.shape[2] == ns else out[:, :, :ns]
    if comp == 8:
        import zlib

        raw = zlib.decompress(raw)
    elif comp == 5:
        from . import tiffcodec as _tc

        raw = _tc.lzw_decode(raw, max_out=n_out)
    elif comp == 32773:
        from . import tiffcodec as _tc

        raw = _tc.packbits_decode(raw, max_out=n_out)
    if lay.get("predictor", 1) == 2:
        from . import tiffcodec as _tc

        raw = _tc.predictor2_decode(raw[:n_out], chunk_w * ns, chunk_h,
                                    np.dtype(lay["dtype"]), en, samples=ns)
    if len(raw) < n_out and comp != 1:
        # some writers omit the final tile-padding rows; the reference
        # zero-fills short blocks (gtiff ReadBlock tolerance)
        raw = raw + b"\x00" * (n_out - len(raw))
    if lay.get("bits", 8) == 1:
        # bilevel rows are bit-packed MSB-first, rows padded to bytes
        row_bytes = (chunk_w * ns + 7) // 8
        bits = np.unpackbits(
            np.frombuffer(raw, dtype=np.uint8,
                          count=row_bytes * chunk_h).reshape(chunk_h,
                                                             row_bytes),
            axis=1)[:, :chunk_w * ns]
        if lay.get("photometric", 1) == 0:  # WhiteIsZero: invert
            bits = 1 - bits
        a = bits.astype(np.uint8)
        return (a.reshape(chunk_h, chunk_w) if ns == 1
                else a.reshape(chunk_h, chunk_w, ns))
    ci = lay.get("complex_int")
    if ci is not None:
        pairs = np.frombuffer(raw, dtype=np.dtype(ci).newbyteorder(en),
                              count=chunk_w * chunk_h * ns * 2)
        pairs = pairs.reshape(-1, 2).astype(np.float64)
        a = (pairs[:, 0] + 1j * pairs[:, 1]).astype(dt)
        return (a.reshape(chunk_h, chunk_w) if ns == 1
                else a.reshape(chunk_h, chunk_w, ns))
    a = np.frombuffer(raw, dtype=dt, count=chunk_w * chunk_h * ns)
    if ns == 1:
        return a.reshape(chunk_h, chunk_w)
    return a.reshape(chunk_h, chunk_w, ns)


def read_gtiff(path: str, image: int = 0):
    """Eager parse -> (2-D array in native byte order, meta dict).
    ``image`` indexes the IFD chain: 0 = full raster, 1.. = overviews."""
    with open(path, "rb") as f:
        buf = f.read()
    en, _, ifds = _read_ifds(lambda off, n: buf[off:off + n])
    lay = _chunk_layout(ifds[image][0], en)
    lay["n_images"] = len(ifds)
    dt = np.dtype(lay["dtype"]).newbyteorder(en)
    ns = lay.get("samples", 1)
    planar = lay.get("planar", 1)
    shape = ((lay["height"], lay["width"]) if ns == 1
             else (lay["height"], lay["width"], ns))
    out = np.zeros(shape, dtype=lay["dtype"])
    chunky = planar == 1
    for c in lay["chunks"]:
        npx = c["chunk_w"] * c["chunk_h"] * (ns if chunky else 1)
        if c["nbytes"] == 0 or c["offset"] == 0 \
                or c["offset"] + c["nbytes"] > len(buf):
            continue  # sparse/unwritten block: stays at the zero fill
        if (lay["compression"] != 1 or lay.get("predictor", 1) == 2
                or lay.get("bits", 8) == 1
                or lay.get("complex_int") is not None):
            a = _decode_chunk(buf[c["offset"]:c["offset"] + c["nbytes"]],
                              lay, c["chunk_w"], c["chunk_h"])
        else:
            a = np.frombuffer(buf, dtype=dt, count=npx,
                              offset=c["offset"])
            a = (a.reshape(c["chunk_h"], c["chunk_w"], ns)
                 if (chunky and ns > 1)
                 else a.reshape(c["chunk_h"], c["chunk_w"]))
        # grid pitch: tiles advance by the tile size, strips by rows-per-strip
        # (both equal the FIRST chunk's extent; later chunks may be clipped)
        ts_h = lay["chunks"][0]["chunk_h"]
        ts_w = lay["chunks"][0]["chunk_w"]
        y0 = c["ty"] * ts_h
        x0 = c["tx"] * ts_w
        sub = a[: c["clip_h"], : c["clip_w"]].astype(lay["dtype"])
        if ns == 1:
            out[y0:y0 + c["clip_h"], x0:x0 + c["clip_w"]] = sub
        elif chunky:
            out[y0:y0 + c["clip_h"], x0:x0 + c["clip_w"], :] = sub
        else:
            out[y0:y0 + c["clip_h"], x0:x0 + c["clip_w"],
                c["band"] - 1] = sub
    meta = {k: lay[k] for k in ("origin", "pixel_size", "epsg", "nodata",
                                "width", "height", "dtype", "n_images")}
    meta["samples"] = ns
    return out, meta


def read_gtiff_manifest(path: str, image: int = 0) -> dict:
    """Parse only the IFD chain (seek-based, a few hundred bytes per IFD) ->
    layout dict with chunk ranges for image ``image`` (0 = full raster,
    1.. = overviews).  At 100 TB this is the ONLY driver-side read; pixels
    stay on workers."""
    with open(path, "rb") as f:
        en, _, ifds = _read_ifds(_file_reader(f))
    lay = _chunk_layout(ifds[image][0], en)
    lay["n_images"] = len(ifds)
    return lay


def read_gtiff_tiles(path: str, z: int = 4, band: int = 1, image: int = 0):
    """GeoTIFF -> the engine's standard tile-row Dataset.

    Driver parses the IFD only; each worker range-reads its chunks' bytes
    (``map_batches`` over the manifest) and trims TIFF edge-tile padding to
    the engine's clipped-edge convention.  ``image`` selects an overview.
    """
    import ray.data as rd

    lay = read_gtiff_manifest(path, image=image)
    man = pa.Table.from_pylist([
        {"tx": c["tx"], "ty": c["ty"], "offset": c["offset"],
         "nbytes": c["nbytes"], "chunk_w": c["chunk_w"], "chunk_h": c["chunk_h"],
         "clip_w": c["clip_w"], "clip_h": c["clip_h"]}
        for c in lay["chunks"]
    ])
    dname, en = lay["dtype"], lay["endian"]
    nodata = lay["nodata"] if lay["nodata"] is not None else 0.0
    out_dtype = "float32" if dname in ("float32", "float64") else dname

    def fetch(t: pa.Table) -> pa.Table:
        dt = np.dtype(dname).newbyteorder(en)
        rows = []
        with open(path, "rb") as f:
            for i in range(t.num_rows):
                f.seek(t["offset"][i].as_py())
                raw = f.read(t["nbytes"][i].as_py())
                ch, cw = t["chunk_h"][i].as_py(), t["chunk_w"][i].as_py()
                clh, clw = t["clip_h"][i].as_py(), t["clip_w"][i].as_py()
                a = _decode_chunk(raw, lay, cw, ch)
                sub = a[:clh, :clw].astype(out_dtype)
                rows.append({
                    "z": z, "x": t["tx"][i].as_py(), "y": t["ty"][i].as_py(),
                    "band": band, "width": clw, "height": clh,
                    "crs": f"EPSG:{lay['epsg'] or 3857}",
                    "nodata": float(nodata), "dtype": out_dtype,
                    "data": sub.tobytes(),
                })
        return pa.Table.from_pylist(rows)

    return rd.from_arrow(man).map_batches(fetch, batch_format="pyarrow")


def _decimate_int(arr: np.ndarray, L: int, kernel: str) -> np.ndarray:
    """One L x L block reduction with exact integer arithmetic: 'average' is
    round-half-up over the pixels actually present (edge blocks may be
    partial), 'nearest' takes the top-left sample — gcore/overview.cpp
    semantics for integer bands."""
    h, w = arr.shape
    if kernel == "nearest":
        return np.ascontiguousarray(arr[::L, ::L])
    if kernel != "average":
        raise ValueError(f"unsupported overview kernel {kernel!r}")
    H, W = -(-h // L), -(-w // L)
    a = np.zeros((H * L, W * L), dtype=np.int64)
    a[:h, :w] = arr
    m = np.zeros((H * L, W * L), dtype=np.int64)
    m[:h, :w] = 1
    s = a.reshape(H, L, W, L).sum(axis=(1, 3))
    n = m.reshape(H, L, W, L).sum(axis=(1, 3))
    return ((2 * s + n) // (2 * n)).astype(arr.dtype)


def gtiff_build_overviews(path: str, levels=(2, 4), kernel: str = "average"):
    """gdaladdo (apps/gdaladdo.cpp surface): build internal overviews for an
    existing GeoTIFF and append them as chained reduced-resolution IFDs.

    Distributed shape: decimation runs per SOURCE tile inside map_batches
    (the tile pitch must be divisible by every level, so L x L blocks never
    straddle tiles — asserted); only the decimated fragments (1/L^2 of the
    base, per level) return to the driver for assembly + append.  Appending
    to one file is inherently a single-writer step; at 100 TB the overview
    LEVELS themselves would be separate tiled objects (the engine's pyramid
    stage) — this driver path mirrors gdaladdo's in-place file semantics.
    """
    lay = read_gtiff_manifest(path)
    if lay["layout"] != "tiles":
        raise ValueError("tiled layout required for overview build")
    ts = lay["chunks"][0]["chunk_w"]
    if lay["chunks"][0]["chunk_h"] != ts:
        raise ValueError("square tiles required for overview build")
    for L in levels:
        if ts % L:
            raise ValueError(f"tile size {ts} not divisible by level {L}")
    dname = lay["dtype"]
    levels = list(levels)
    tiles = read_gtiff_tiles(path)

    def frags(t: pa.Table) -> pa.Table:
        rows = []
        for i in range(t.num_rows):
            a = pixels(t, i)
            tx, ty = t["x"][i].as_py(), t["y"][i].as_py()
            for L in levels:
                d = _decimate_int(a, L, kernel)
                rows.append({"level": L, "fx": tx * ts // L, "fy": ty * ts // L,
                             "fh": d.shape[0], "fw": d.shape[1],
                             "data": d.tobytes()})
        return pa.Table.from_pylist(rows)

    frag_rows = tiles.map_batches(frags, batch_format="pyarrow").take_all()
    arrs, sizes = [], []
    for L in levels:
        H, W = -(-lay["height"] // L), -(-lay["width"] // L)
        out = np.zeros((H, W), dtype=dname)
        for r in frag_rows:
            if r["level"] != L:
                continue
            d = np.frombuffer(r["data"], dtype=dname).reshape(r["fh"], r["fw"])
            out[r["fy"]:r["fy"] + r["fh"], r["fx"]:r["fx"] + r["fw"]] = d
        arrs.append(out)
        sizes.append((lay["pixel_size"][0] * L, lay["pixel_size"][1] * L))
    append_gtiff_images(path, arrs, tile_size=ts, origin=lay["origin"],
                        pixel_size=sizes, epsg=lay["epsg"] or 3857,
                        nodata=lay["nodata"])
    return [a.shape for a in arrs]


# ---------------------------------------------------------------------------
# Cloud-Optimized GeoTIFF layout (reference: frmts/gtiff/cogdriver.cpp and
# the public COG spec): all IFDs at the head of the file (ghost structural-
# metadata area first), tile data after — overviews smallest-first, then the
# full-resolution image, row-major, each tile preceded by a 4-byte size
# leader and followed by a last-4-bytes-repeated trailer.
# ---------------------------------------------------------------------------

_COG_GHOST_ITEMS = ("LAYOUT=IFDS_BEFORE_DATA\n"
                    "BLOCK_ORDER=ROW_MAJOR\n"
                    "BLOCK_LEADER=SIZE_AS_UINT4\n"
                    "BLOCK_TRAILER=LAST_4_BYTES_REPEATED\n"
                    "KNOWN_INCOMPATIBLE_EDITION=NO\n ")


def _cog_ghost() -> bytes:
    body = _COG_GHOST_ITEMS.encode()
    head = b"GDAL_STRUCTURAL_METADATA_SIZE=%06d bytes\n" % len(body)
    return head + body

def write_cog(path: str, arr: np.ndarray, *, tile_size: int = 256,
              origin=(0.0, 0.0), pixel_size=(1.0, 1.0), epsg: int = 3857,
              nodata: float | None = None, compress: str | None = "deflate",
              predictor: int = 1, kernel: str = "average",
              min_overview_size: int | None = None) -> dict:
    """Write a Cloud-Optimized GeoTIFF: full-res image + average-decimated
    internal overviews until max(w, h) <= tile_size (cogdriver.cpp's
    stopping rule), IFDs-before-data layout with the GDAL structural-
    metadata ghost area, tile data overviews-smallest-first with size
    leaders + repeated trailers.  Returns a layout summary dict."""
    en = "<"
    if arr.ndim != 2:
        raise ValueError("expected a single-band 2-D array")
    stop = min_overview_size or tile_size
    # overview pyramid: /2 per level until it fits one tile
    images = [arr]
    while max(images[-1].shape) > stop:
        prev = images[-1]
        if np.issubdtype(prev.dtype, np.integer):
            images.append(_decimate_int(prev, 2, kernel))
        else:
            h2, w2 = (prev.shape[0] + 1) // 2, (prev.shape[1] + 1) // 2
            pad = np.full((h2 * 2, w2 * 2), np.nan, dtype=np.float64)
            pad[: prev.shape[0], : prev.shape[1]] = prev
            with np.errstate(invalid="ignore"):
                dec = np.nanmean(
                    pad.reshape(h2, 2, w2, 2).transpose(0, 2, 1, 3)
                    .reshape(h2, w2, 4), axis=2)
            images.append(dec.astype(prev.dtype))
    n_img = len(images)

    chunks = [_encode_chunks(im, tile_size=tile_size, compress=compress,
                             predictor=predictor, en=en) for im in images]
    tags = [_image_tags(
        im.shape, arr.dtype, counts=[len(c) for c in chunks[i]],
        tile_size=tile_size, origin=origin,
        pixel_size=(pixel_size[0] * (2 ** i), pixel_size[1] * (2 ** i)),
        epsg=epsg, nodata=nodata, subfile_type=(1 if i else None),
        compress=compress, predictor=predictor)
        for i, im in enumerate(images)]

    # IFD area after the ghost; each IFD's size follows from its tags
    ghost = _cog_ghost()
    ifd_offs = []
    pos = 8 + len(ghost)
    for t in tags:
        pos += pos % 2
        ifd_offs.append(pos)
        pos += _ifd_size(t)

    # data area: overviews smallest-first, then full res; leader + trailer
    data_start = pos
    order = list(range(n_img - 1, -1, -1))  # smallest overview ... main
    for i in order:
        offsets = []
        for chunk in chunks[i]:
            offsets.append(pos + 4)       # BLOCK_LEADER=SIZE_AS_UINT4
            pos += 4 + len(chunk) + 4     # leader, payload, repeated trailer
        _set_offsets(tags[i], offsets)

    with open(path, "wb") as f:
        f.write(_file_header(en, ifd_offs[0]))
        f.write(ghost)
        for i in range(n_img):
            f.seek(ifd_offs[i])
            f.write(_pack_ifd(tags[i], ifd_off=ifd_offs[i], en=en,
                              next_ifd=ifd_offs[i + 1] if i + 1 < n_img
                              else 0))
        for i in order:
            for chunk in chunks[i]:
                f.write(struct.pack(en + "I", len(chunk)))
                f.write(chunk)
                f.write(chunk[-4:] if len(chunk) >= 4
                        else chunk.ljust(4, b"\x00"))
    return {"n_images": n_img, "data_start": data_start,
            "shapes": [im.shape for im in images],
            "file_size": pos}


def validate_cog(path: str) -> dict:
    """COG layout validation (the checks GDAL's public
    validate_cloud_optimized_geotiff.py script performs): structural-
    metadata ghost area present, every IFD before all tile data, tile
    offsets consistent with smallest-overview-first block order, leaders
    matching tile sizes.  Returns {'valid': bool, 'errors': [...]}."""
    errors = []
    with open(path, "rb") as f:
        buf = f.read()
    en, big, ifds = _read_ifds(lambda off, n: buf[off:off + n])
    if not buf[8:].startswith(b"GDAL_STRUCTURAL_METADATA_SIZE="):
        errors.append("no GDAL structural metadata ghost area")
    lays = [_chunk_layout(tags, en) for tags, _ in ifds]
    # IFDs (header area) must all precede the first tile byte
    min_data = min(c["offset"] for lay in lays for c in lay["chunks"])
    last_ifd_end = max(ptr for _, ptr in ifds) + (8 if big else 4)
    if last_ifd_end > min_data:
        errors.append(f"IFD at {last_ifd_end} after first tile {min_data}")
    # block order: each overview's tiles precede the next-larger image's
    starts = [min(c["offset"] for c in lay["chunks"]) for lay in lays]
    if starts != sorted(starts, reverse=True):
        errors.append("tile data not smallest-overview-first")
    # leaders
    for lay in lays:
        for c in lay["chunks"]:
            leader = struct.unpack(
                en + "I", buf[c["offset"] - 4:c["offset"]])[0]
            if leader != c["nbytes"]:
                errors.append(
                    f"leader {leader} != nbytes {c['nbytes']} "
                    f"at {c['offset']}")
                break
    return {"valid": not errors, "errors": errors,
            "n_images": len(ifds)}
