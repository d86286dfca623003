"""NetCDF classic (CDF-1/CDF-2) — dependency-free reader + writer.

Re-answers the reference's netCDF driver surface (``frmts/netcdf/``, which
delegates to libnetcdf) for the CLASSIC file format, implemented from the
published NetCDF Classic Format Specification: ``CDF\\x01``/``CDF\\x02``
magic, big-endian header (dim_list / gatt_list / var_list with 4-byte-padded
names and values), fixed-size variables laid out at absolute ``begin``
offsets.  Types per the spec table: 1=NC_BYTE, 2=NC_CHAR, 3=NC_SHORT,
4=NC_INT, 5=NC_FLOAT, 6=NC_DOUBLE — all big-endian on disk.

Scope: fixed-size variables (the raster-grid case) AND record variables
over one UNLIMITED dimension per the spec's record layout: the record dim
is written with header length 0 and its true count in ``numrecs``; all
record variables interleave per record (each record var's per-record slab
padded to 4 bytes, except the sole-record-variable special case, which is
unpadded) — the layout real CF time-series files use.  Record variables
read through the same windowed paths via a per-record byte STRIDE.

Ray-Data shape mirrors the other raster drivers: header parse is
driver-side metadata, ``read_netcdf3_tiles`` slices a variable into the
engine's standard tile rows.
"""

from __future__ import annotations

import struct

import numpy as np

NC_BYTE, NC_CHAR, NC_SHORT, NC_INT, NC_FLOAT, NC_DOUBLE = 1, 2, 3, 4, 5, 6
_NP_OF = {NC_BYTE: np.int8, NC_CHAR: np.uint8, NC_SHORT: np.int16,
          NC_INT: np.int32, NC_FLOAT: np.float32, NC_DOUBLE: np.float64}
_NC_OF = {np.dtype(np.int8): NC_BYTE, np.dtype(np.int16): NC_SHORT,
          np.dtype(np.int32): NC_INT, np.dtype(np.float32): NC_FLOAT,
          np.dtype(np.float64): NC_DOUBLE}
_SIZE = {NC_BYTE: 1, NC_CHAR: 1, NC_SHORT: 2, NC_INT: 4, NC_FLOAT: 4,
         NC_DOUBLE: 8}
_ABSENT = b"\x00" * 8


def _pad4(n: int) -> int:
    return (4 - n % 4) % 4


def _name(s: str) -> bytes:
    b = s.encode()
    return struct.pack(">I", len(b)) + b + b"\x00" * _pad4(len(b))


def _values(nc_type: int, arr: np.ndarray) -> bytes:
    raw = arr.astype(np.dtype(_NP_OF[nc_type]).newbyteorder(">")).tobytes()
    return raw + b"\x00" * _pad4(len(raw))


def _att_block(attrs: dict) -> bytes:
    if not attrs:
        return _ABSENT
    out = [struct.pack(">II", 0x0C, len(attrs))]
    for k, v in attrs.items():
        if isinstance(v, str):
            b = v.encode()
            out.append(_name(k) + struct.pack(">II", NC_CHAR, len(b))
                       + b + b"\x00" * _pad4(len(b)))
        else:
            a = np.atleast_1d(np.asarray(v))
            t = _NC_OF[a.dtype]
            out.append(_name(k) + struct.pack(">II", t, a.size)
                       + _values(t, a))
    return b"".join(out)


def write_netcdf3(path: str, variables: dict, dims: dict | None = None,
                  global_attrs: dict | None = None,
                  var_attrs: dict | None = None, version: int = 1,
                  record_dim: str | None = None) -> None:
    """``variables``: {name: (dim_names tuple, numpy array)}.  ``dims`` may
    add extra named dimensions; dimensions used by variables are derived
    from the array shapes and must be consistent.  ``version=2`` writes
    CDF-2 (64-bit begin offsets) for datasets past the 2 GiB CDF-1 limit.
    ``record_dim`` names the UNLIMITED dimension: it is written with header
    length 0 + true count in numrecs, and every variable whose FIRST dim is
    it becomes a record variable stored in the spec's interleaved record
    layout (per-record slabs padded to 4, unpadded when it is the sole
    record variable)."""
    dim_order: list[str] = []
    dim_len: dict[str, int] = dict(dims or {})
    for vname, (vdims, arr) in variables.items():
        arr = np.asarray(arr)
        if len(vdims) != arr.ndim:
            raise ValueError(f"{vname}: {len(vdims)} dims vs shape {arr.shape}")
        if record_dim is not None and record_dim in vdims[1:]:
            raise ValueError(f"{vname}: record dim {record_dim!r} must be "
                             "the first (slowest) dimension")
        for d, n in zip(vdims, arr.shape):
            if dim_len.setdefault(d, n) != n:
                raise ValueError(f"dimension {d!r} inconsistent: "
                                 f"{dim_len[d]} vs {n}")
    for d in dim_len:
        dim_order.append(d)
    dim_id = {d: i for i, d in enumerate(dim_order)}
    numrecs = 0
    if record_dim is not None:
        if record_dim not in dim_len:
            raise ValueError(f"record dim {record_dim!r} unused by any "
                             "variable and absent from dims")
        numrecs = dim_len[record_dim]

    if version not in (1, 2):
        raise ValueError(f"CDF version must be 1 or 2 (got {version})")
    begin_fmt = ">I" if version == 1 else ">Q"
    begin_size = 4 if version == 1 else 8
    # header: magic + numrecs + dim_list + gatt_list + var_list
    head = [b"CDF" + bytes([version]), struct.pack(">I", numrecs)]
    if dim_order:
        head.append(struct.pack(">II", 0x0A, len(dim_order)))
        for d in dim_order:
            n = 0 if d == record_dim else dim_len[d]
            head.append(_name(d) + struct.pack(">I", n))
    else:
        head.append(_ABSENT)
    head.append(_att_block(global_attrs or {}))

    # variable entries need begin offsets: build entries with a placeholder
    # to measure the header, then fill real offsets.  vsize per spec: whole
    # padded array for fixed vars, padded PER-RECORD slab for record vars.
    entries = []
    for vname, (vdims, arr) in variables.items():
        arr = np.asarray(arr)
        t = _NC_OF.get(arr.dtype)
        if t is None:
            raise ValueError(f"unsupported netcdf dtype {arr.dtype}")
        is_rec = record_dim is not None and len(vdims) > 0 and vdims[0] == record_dim
        unit = (arr.size // max(arr.shape[0], 1) if is_rec else arr.size)
        n_bytes = unit * _SIZE[t]
        vsize = n_bytes + _pad4(n_bytes)
        ent = (_name(vname)
               + struct.pack(">I", len(vdims))
               + b"".join(struct.pack(">I", dim_id[d]) for d in vdims)
               + _att_block((var_attrs or {}).get(vname, {}))
               + struct.pack(">II", t, vsize))
        entries.append((ent, t, arr, vsize, is_rec))
    var_head = [struct.pack(">II", 0x0B, len(entries))] if entries else [_ABSENT]
    header_len = (sum(len(h) for h in head)
                  + sum(len(h) for h in var_head)
                  + sum(len(e[0]) + begin_size for e in entries))
    begin = header_len
    blobs = []
    # fixed variables first (spec: non-record data precedes the record block)
    rec_entries = []
    for ent, t, arr, vsize, is_rec in entries:
        if is_rec:
            rec_entries.append((ent, t, arr, vsize))
            continue
        var_head.append(ent + struct.pack(begin_fmt, begin))
        blobs.append(_values(t, arr.ravel()))
        begin += vsize
    if rec_entries:
        sole = len(rec_entries) == 1
        off = begin
        slabs = []  # (per-record raw bytes, pad) per record var
        for ent, t, arr, vsize in rec_entries:
            var_head.append(ent + struct.pack(begin_fmt, off))
            raw = arr.size // max(arr.shape[0], 1) * _SIZE[t]
            pad = 0 if sole else _pad4(raw)
            slabs.append((t, arr, raw, pad))
            off += raw + pad
        for r in range(numrecs):
            for t, arr, raw, pad in slabs:
                be = np.dtype(_NP_OF[t]).newbyteorder(">")
                blobs.append(np.asarray(arr[r]).astype(be).tobytes()
                             + b"\x00" * pad)
    with open(path, "wb") as f:
        f.write(b"".join(head) + b"".join(var_head) + b"".join(blobs))


class _R:
    def __init__(self, buf: bytes):
        self.b = buf
        self.i = 0

    def u32(self) -> int:
        (v,) = struct.unpack_from(">I", self.b, self.i)
        self.i += 4
        return v

    def u64(self) -> int:
        (v,) = struct.unpack_from(">Q", self.b, self.i)
        self.i += 8
        return v

    def name(self) -> str:
        n = self.u32()
        s = self.b[self.i:self.i + n].decode()
        self.i += n + _pad4(n)
        return s

    def values(self, t: int, n: int):
        size = _SIZE[t] * n
        raw = self.b[self.i:self.i + size]
        self.i += size + _pad4(size)
        if t == NC_CHAR:
            return raw.decode()
        return np.frombuffer(
            raw, dtype=np.dtype(_NP_OF[t]).newbyteorder(">")
        ).astype(np.dtype(_NP_OF[t]).newbyteorder("="))

    def att_block(self) -> dict:
        tag = self.u32()
        n = self.u32()
        if tag == 0:  # ABSENT
            return {}
        if tag != 0x0C:
            raise ValueError(f"bad attribute tag {tag:#x}")
        out = {}
        for _ in range(n):
            k = self.name()
            t = self.u32()
            cnt = self.u32()
            out[k] = self.values(t, cnt)
        return out


def _parse_meta(buf: bytes):
    """Header-only parse -> (dims dict, var meta dict, global attrs) with
    var meta = {name: (dim_names, shape, nc_type, begin, attrs, stride)}.
    ``stride`` is None for fixed variables; for record variables it is the
    RECORD byte stride (the sum of every record variable's padded
    per-record slab — unpadded when there is exactly one record variable),
    and ``shape[0]`` is numrecs.  Dims report their true lengths (the
    record dim's header 0 is resolved to numrecs)."""
    if buf[:3] != b"CDF" or buf[3] not in (1, 2):
        raise ValueError("not a NetCDF classic (CDF-1/CDF-2) file")
    cdf2 = buf[3] == 2
    r = _R(buf)
    r.i = 4
    numrecs = r.u32()
    tag = r.u32()
    n = r.u32()
    dims: list[tuple[str, int]] = []
    rec_name = None
    if tag == 0x0A:
        for _ in range(n):
            dname, dlen = r.name(), r.u32()
            if dlen == 0:
                if rec_name is not None:
                    raise ValueError("multiple record dimensions")
                rec_name = dname
                dlen = numrecs
            dims.append((dname, dlen))
    elif tag != 0:
        raise ValueError(f"bad dimension tag {tag:#x}")
    gatts = r.att_block()
    tag = r.u32()
    n = r.u32()
    meta = {}
    rec_vars = []
    if tag == 0x0B:
        for _ in range(n):
            vname = r.name()
            nd = r.u32()
            vdims = tuple(dims[r.u32()][0] for _ in range(nd))
            vatts = r.att_block()
            t = r.u32()
            vsize = r.u32()
            begin = r.u64() if cdf2 else r.u32()
            shape = tuple(dict(dims)[d] for d in vdims)
            is_rec = rec_name is not None and nd > 0 and vdims[0] == rec_name
            if rec_name is not None and rec_name in vdims[1:]:
                raise ValueError(f"{vname}: record dim {rec_name!r} not "
                                 "the first dimension")
            meta[vname] = [vdims, shape, t, begin, vatts, None]
            if is_rec:
                rec_vars.append((vname, vsize, shape, t))
    elif tag != 0:
        raise ValueError(f"bad variable tag {tag:#x}")
    if rec_vars:
        if len(rec_vars) == 1:
            vname, _vsize, shape, t = rec_vars[0]
            per = int(np.prod(shape[1:])) * _SIZE[t] if len(shape) > 1 else _SIZE[t]
            recsize = per
        else:
            recsize = sum(v for _n, v, _s, _t in rec_vars)
        for vname, _v, _s, _t in rec_vars:
            meta[vname][5] = recsize
    return dict(dims), {k: tuple(v) for k, v in meta.items()}, gatts


def read_header(path: str):
    """Parse only the header (incrementally read — a 100 GB data block is
    never touched): (dims, var meta, global attrs)."""
    size = 1 << 20
    while True:
        with open(path, "rb") as f:
            buf = f.read(size)
        try:
            return _parse_meta(buf)
        except (struct.error, IndexError):
            pass  # header crosses the read boundary: grow and retry
        except ValueError as e:
            # numpy's short-buffer errors mean the same thing; genuine
            # format errors (bad magic/tags) propagate untouched
            if "buffer" not in str(e):
                raise
        if len(buf) < size:
            raise ValueError("truncated NetCDF header")
        size *= 4


def _strided_view(buf, shape, t: int, begin: int, stride: int | None):
    """Big-endian ndarray view over ``buf`` honoring the record stride
    (no copy; callers slice then copy/convert)."""
    dt = np.dtype(_NP_OF[t]).newbyteorder(">")
    shape = tuple(int(s) for s in shape)
    if not shape:
        return np.ndarray((), dtype=dt, buffer=buf, offset=begin)
    if stride is None:
        return np.ndarray(shape, dtype=dt, buffer=buf, offset=begin)
    inner = shape[1:]
    strides = [dt.itemsize]
    for s in reversed(inner[1:] if inner else ()):
        strides.append(strides[-1] * s)
    istrides = tuple(reversed(strides))[:len(inner)]
    return np.ndarray(shape, dtype=dt, buffer=buf, offset=begin,
                      strides=(stride, *istrides))


def read_netcdf3(path: str):
    """CDF-1/CDF-2 classic file -> (dims, variables, global_attrs) with
    variables = {name: (dim_names, array, attrs)}.  Record variables are
    gathered from the interleaved record block via a strided view."""
    with open(path, "rb") as f:
        buf = f.read()
    dims, meta, gatts = _parse_meta(buf)
    variables = {}
    for vname, (vdims, shape, t, begin, vatts, stride) in meta.items():
        v = _strided_view(buf, shape, t, begin, stride)
        arr = np.ascontiguousarray(v).astype(
            np.dtype(_NP_OF[t]).newbyteorder("="), copy=False)
        variables[vname] = (vdims, arr, vatts)
    return dims, variables, gatts


def _mmap_slab(path: str, shape, t: int, begin: int, stride: int | None,
               sel: tuple) -> np.ndarray:
    """Memory-mapped windowed read: strided big-endian view over the file,
    slice, copy out, convert to native order.  Only the slab's pages fault."""
    import mmap as _mmap

    with open(path, "rb") as f:
        mm = _mmap.mmap(f.fileno(), 0, access=_mmap.ACCESS_READ)
    try:
        v = _strided_view(mm, shape, t, begin, stride)
        out = np.ascontiguousarray(v[sel]).astype(
            np.dtype(_NP_OF[t]).newbyteorder("="), copy=True)
    finally:
        del v
        mm.close()
    return out


def read_netcdf3_window(path: str, var: str, y0: int, y1: int,
                        x0: int, x1: int) -> np.ndarray:
    """Windowed read of a 2-D variable via memory map — only the window's
    pages fault in (the RasterIO window contract at netCDF scale)."""
    _dims, meta, _g = read_header(path)
    if var not in meta:
        raise KeyError(f"variable {var!r} not in {sorted(meta)}")
    _vd, shape, t, begin, _va, stride = meta[var]
    if len(shape) != 2:
        raise ValueError(f"{var!r} is {len(shape)}-D; windows need 2-D")
    return _mmap_slab(path, shape, t, begin, stride,
                      (slice(y0, y1), slice(x0, x1)))


def read_netcdf3_hyperslab(path: str, var: str, starts, counts) -> np.ndarray:
    """N-D hyperslab read via memory map (the nc_get_vara contract —
    reference netCDF driver surface for multidim arrays, and the access
    primitive ``gdalmdimtranslate`` subsetting is built on).  Only pages the
    slab's rows touch fault in; the variable never loads whole."""
    _dims, meta, _g = read_header(path)
    if var not in meta:
        raise KeyError(f"variable {var!r} not in {sorted(meta)}")
    _vd, shape, t, begin, _va, stride = meta[var]
    if len(starts) != len(shape) or len(counts) != len(shape):
        raise ValueError(f"{var!r} is {len(shape)}-D; got "
                         f"{len(starts)} starts / {len(counts)} counts")
    for s, c, n in zip(starts, counts, shape):
        if s < 0 or c < 0 or s + c > n:
            raise ValueError(f"hyperslab [{s}:{s + c}] outside dim size {n}")
    sel = tuple(slice(s, s + c) for s, c in zip(starts, counts))
    return _mmap_slab(path, shape, t, begin, stride, sel)


def read_netcdf3_tiles(path: str, var: str | None = None,
                       tile_size: int = 64, z: int = 4):
    """A 2-D variable (default: the first 2-D one) -> the engine's standard
    tile-row Dataset.  Tiles are cut with windowed memmap reads
    (``_mmap_slab`` over the header parsed once here) in the workers: only
    touched pages load; the whole variable never materializes driver-side."""
    from .openraster import window_tiles

    _dims, meta, _g = read_header(path)
    if var is None:
        two_d = [n for n, (_dn, shape, *_r) in meta.items() if len(shape) == 2]
        if not two_d:
            raise ValueError(f"{path!r} has no 2-D variable")
        var = two_d[0]
    if var not in meta:
        raise KeyError(f"variable {var!r} not in {sorted(meta)}")
    _vd, shape, t, begin, _va, stride = meta[var]
    if len(shape) != 2:
        raise ValueError(f"{var!r} is {len(shape)}-D; tiles need 2-D")
    return window_tiles(
        *shape,
        lambda y0, y1, x0, x1: _mmap_slab(path, shape, t, begin, stride,
                                          (slice(y0, y1), slice(x0, x1))),
        tile_size=tile_size, z=z, band=1, crs="EPSG:3857", nodata=0.0)
