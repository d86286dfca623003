"""HDF5 / netCDF4 container — dependency-free reader (+ minimal writer).

From-scratch implementation of the public HDF5 File Format Specification
(v1.8/1.10 subset) — the container behind netCDF4, feeding the engine's
existing mdim surface (reference driver role: ``frmts/hdf5/hdf5dataset.cpp``
+ ``frmts/netcdf`` netCDF-4 paths; test parity target:
``autotest/gdrivers/hdf5.py`` / ``netcdf.py`` fixtures).

Supported on read:
- superblock v0/v1 and v2/v3, 8-byte offsets/lengths
- object headers v1 (with continuations) and v2 ('OHDR', inline messages)
- old-style groups (symbol-table message -> v1 B-tree + local heap +
  SNOD) and new-style compact groups (inline link messages); dense
  (fractal-heap) groups raise a clear NotImplementedError
- dataspace v1/v2; datatype classes: fixed-point, float (IEEE 32/64),
  string (fixed), reference, vlen (for DIMENSION_LIST attributes)
- data layout v3: compact, contiguous, chunked (v1 B-tree chunk index)
- filter pipeline v1/v2: deflate, shuffle, fletcher32 (checksum stripped)
- attributes v1/v2/v3 incl. vlen-of-object-reference (DIMENSION_LIST) via
  the global heap — the netCDF4 dimension model

Ray-Data shape mirrors ``netcdf3``: the driver parses metadata only;
``read_hyperslab`` reads just the chunks intersecting the request, so
``stages.mdim.read_mdarray_chunks`` workers fault in only their bytes.
"""
from __future__ import annotations

import mmap
import os
import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

MAGIC = b"\x89HDF\r\n\x1a\n"
UNDEF = 0xFFFFFFFFFFFFFFFF


def _fill_value(fill: bytes | None, dt) -> "np.generic | int":
    import numpy as _np

    if not fill or len(fill) < dt.itemsize:
        try:
            return _np.zeros((), dt)[()]
        except Exception:
            return 0
    return _np.frombuffer(fill[:dt.itemsize], dtype=dt)[0]


def _u(buf: bytes, off: int, n: int) -> int:
    return int.from_bytes(buf[off:off + n], "little")


# --- datatype message -------------------------------------------------------


@dataclass
class DType:
    cls: int
    size: int
    signed: bool = True
    big_endian: bool = False
    base: "DType | None" = None  # vlen/array base

    def numpy(self) -> np.dtype:
        en = ">" if self.big_endian else "<"
        if self.cls == 0:   # fixed-point
            kind = "i" if self.signed else "u"
            return np.dtype(f"{en}{kind}{self.size}")
        if self.cls == 1:   # float
            return np.dtype(f"{en}f{self.size}")
        if self.cls == 3:   # fixed string
            return np.dtype(f"S{self.size}")
        if self.cls == 7:   # reference
            return np.dtype(f"{en}u8")
        raise NotImplementedError(f"datatype class {self.cls}")


def _parse_datatype(buf: bytes, off: int) -> tuple[DType, int]:
    b0 = buf[off]
    version, cls = b0 >> 4, b0 & 0x0F
    bits0 = buf[off + 1]
    size = _u(buf, off + 4, 4)
    pos = off + 8
    if cls == 0:     # fixed-point: props = bit offset(2) + precision(2)
        return DType(cls, size, signed=bool(bits0 & 0x08),
                     big_endian=bool(bits0 & 0x01)), pos + 4
    if cls == 1:     # float: 12 bytes of properties
        return DType(cls, size, big_endian=bool(bits0 & 0x01)), pos + 12
    if cls == 3:     # string: no properties
        return DType(cls, size), pos
    if cls == 7:     # reference
        return DType(cls, size), pos
    if cls == 9:     # vlen: base type follows
        base, pos2 = _parse_datatype(buf, pos)
        return DType(cls, size, base=base), pos2
    if cls == 6:     # compound — not needed for the raster/mdim surface
        raise NotImplementedError("HDF5 compound datatype")
    raise NotImplementedError(f"HDF5 datatype class {cls}")


def _parse_dataspace(buf: bytes, off: int) -> list[int]:
    ver = buf[off]
    if ver == 1:
        rank, flags = buf[off + 1], buf[off + 2]
        pos = off + 8
    elif ver == 2:
        rank, flags = buf[off + 1], buf[off + 2]
        pos = off + 4
    else:
        raise NotImplementedError(f"dataspace v{ver}")
    return [_u(buf, pos + 8 * i, 8) for i in range(rank)]


# --- messages ---------------------------------------------------------------


@dataclass
class Dataset:
    name: str
    shape: list[int]
    dtype: DType
    layout: str = "contiguous"          # compact | contiguous | chunked
    data_addr: int = UNDEF
    data_size: int = 0
    compact: bytes = b""
    chunk_shape: list[int] = field(default_factory=list)
    btree_addr: int = UNDEF
    filters: list[tuple[int, tuple]] = field(default_factory=list)
    attrs: dict = field(default_factory=dict)
    dim_refs: list[int] = field(default_factory=list)   # object hdr addrs
    header_addr: int = UNDEF
    fill: bytes | None = None


class H5File:
    def __init__(self, path: str):
        # read-only map: only the pages the header walk and the requested
        # data touch are read (mmap cannot map an empty file)
        with open(path, "rb") as f:
            self.buf = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ) \
                if os.fstat(f.fileno()).st_size else b""
        b = self.buf
        if b[:8] != MAGIC:
            raise ValueError("not an HDF5 file")
        ver = b[8]
        if ver in (0, 1):
            so, sl = b[13], b[14]
            if (so, sl) != (8, 8):
                raise NotImplementedError("only 8-byte offsets/lengths")
            # v0: magic(8) + 8 version/size bytes + leaf/internal k(4) +
            # flags(4) + 4 addresses(32) = 56 -> root symbol-table entry;
            # v1 inserts indexed-storage k(2) + reserved(2)
            ste = 56 if ver == 0 else 60
            root_hdr = _u(b, ste + 8, 8)
        elif ver in (2, 3):
            so, sl = b[9], b[10]
            if (so, sl) != (8, 8):
                raise NotImplementedError("only 8-byte offsets/lengths")
            root_hdr = _u(b, 12 + 3 * 8, 8)
        else:
            raise NotImplementedError(f"superblock v{ver}")
        self.datasets: dict[str, Dataset] = {}
        self.skipped: dict[str, str] = {}
        self._by_addr: dict[int, str] = {}
        self._walk_group(root_hdr, "")

    def close(self) -> None:
        if isinstance(self.buf, mmap.mmap):
            self.buf.close()

    def __enter__(self) -> "H5File":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- object headers --

    def _messages(self, hdr_addr: int):
        """Yield (msg_type, payload_offset, payload_size) for one object
        header, following continuations (v1) or chunk blocks (v2)."""
        b = self.buf
        if b[hdr_addr:hdr_addr + 4] == b"OHDR":
            yield from self._messages_v2(hdr_addr)
            return
        nmsg = _u(b, hdr_addr + 2, 2)
        hsize = _u(b, hdr_addr + 8, 4)
        blocks = [(hdr_addr + 16, hsize)]
        got = 0
        while blocks and got < nmsg:
            pos, remaining = blocks.pop(0)
            while remaining >= 8 and got < nmsg:
                mtype = _u(b, pos, 2)
                msize = _u(b, pos + 2, 2)
                body = pos + 8
                if mtype == 0x0010:  # continuation
                    blocks.append((_u(b, body, 8), _u(b, body + 8, 8)))
                else:
                    yield mtype, body, msize
                got += 1
                adv = 8 + msize
                pos += adv
                remaining -= adv

    def _messages_v2(self, hdr_addr: int):
        b = self.buf
        flags = b[hdr_addr + 5]
        pos = hdr_addr + 6
        if flags & 0x20:
            pos += 16  # times
        if flags & 0x10:
            pos += 4   # max compact/dense
        size_len = 1 << (flags & 0x03)
        chunk_size = _u(b, pos, size_len)
        pos += size_len
        track_order = bool(flags & 0x04)
        blocks = [(pos, chunk_size)]
        while blocks:
            p, sz = blocks.pop(0)
            end = p + sz - 4  # gap+checksum live at the tail
            while p + 4 <= end:
                mtype = b[p]
                msize = _u(b, p + 1, 2)
                mflags = b[p + 3]
                p += 4
                if track_order:
                    p += 2
                if mtype == 0x10:  # continuation -> OCHK block
                    addr = _u(b, p, 8)
                    length = _u(b, p + 8, 8)
                    blocks.append((addr + 4, length - 4))  # skip 'OCHK'
                elif mtype != 0:
                    yield mtype, p, msize
                p += msize

    # -- group traversal --

    def _walk_group(self, hdr_addr: int, prefix: str):
        b = self.buf
        links: list[tuple[str, int]] = []
        for mtype, off, size in self._messages(hdr_addr):
            if mtype == 0x0011:          # symbol table (old groups)
                btree = _u(b, off, 8)
                heap = _u(b, off + 8, 8)
                links.extend(self._symbol_links(btree, heap))
            elif mtype == 0x0006:        # link message (compact new groups)
                links.append(self._parse_link(off))
            elif mtype == 0x0002:        # link info: dense groups
                base = off + 2 + (8 if b[off + 1] & 0x01 else 0)
                fheap = _u(b, base, 8)
                name_btree = _u(b, base + 8, 8)
                if fheap != UNDEF:
                    links.extend(self._dense_links(fheap, name_btree))
        for name, addr in links:
            if addr == UNDEF or addr in self._by_addr:
                continue
            full = f"{prefix}/{name}" if prefix else name
            self._by_addr[addr] = full
            kinds = {m for m, _o, _s in self._messages(addr)}
            if 0x0011 in kinds or 0x0002 in kinds:
                self._walk_group(addr, full)
            elif 0x0008 in kinds:
                try:
                    self.datasets[full] = self._parse_dataset(full, addr)
                except NotImplementedError as ex:
                    self.skipped[full] = str(ex)
            else:  # empty group
                self._walk_group(addr, full)

    # -- dense (fractal-heap) group link storage --

    def _fractal_heap(self, addr: int):
        """Parse a fractal heap header -> resolver from managed heap-space
        offsets to file offsets (direct blocks mapped in doubling-table
        order)."""
        b = self.buf
        if b[addr:addr + 4] != b"FRHP":
            raise ValueError("bad fractal heap header")
        heap_id_len = _u(b, addr + 5, 2)
        filt_len = _u(b, addr + 7, 2)
        flags = b[addr + 9]
        # 12 length/address fields between max-managed-size and width:
        # next huge id, huge btree, free space, fs mgr, managed space,
        # alloc managed, iterator, n managed, huge/tiny sizes + counts
        pos = addr + 10 + 4 + 12 * 8
        width = _u(b, pos, 2)
        start_bs = _u(b, pos + 2, 8)
        max_bs = _u(b, pos + 10, 8)
        max_heap_bits = _u(b, pos + 18, 2)
        pos += 20 + 2   # + starting # rows
        root_addr = _u(b, pos, 8)
        cur_rows = _u(b, pos + 8, 2)
        off_len = (max_heap_bits + 7) // 8
        len_len = max(1, (max(max_bs.bit_length() - 1, 1) + 7) // 8) \
            if max_bs else 1
        # spec: length field size = min bytes for "max direct block size"
        len_len = (max_bs.bit_length() + 7) // 8

        checksummed = bool(flags & 0x02)
        dblock_hdr = 4 + 1 + 8 + off_len + (4 if checksummed else 0)

        blocks: list[tuple[int, int, int]] = []  # (space_off, size, faddr)

        def row_size(r: int) -> int:
            return start_bs if r < 2 else start_bs << (r - 1)

        def add_direct(faddr: int, space_off: int, size: int):
            if faddr != UNDEF:
                blocks.append((space_off, size, faddr))

        if cur_rows == 0:
            # root IS a direct block; its size = amount such that...
            # starting block size covers it (single block heap)
            add_direct(root_addr, 0, start_bs)
        else:
            if b[root_addr:root_addr + 4] != b"FHIB":
                raise ValueError("bad fractal heap indirect block")
            p = root_addr + 4 + 1 + 8 + off_len
            space = 0
            for r in range(cur_rows):
                sz = row_size(r)
                for _c in range(width):
                    if sz > max_bs:
                        raise NotImplementedError(
                            "nested indirect fractal heap blocks")
                    faddr = _u(b, p, 8)
                    p += 8
                    if filt_len:
                        p += 8 + 4  # filtered size + mask
                    add_direct(faddr, space, sz)
                    space += sz

        def resolve(space_off: int) -> int:
            for so, sz, fa in blocks:
                if so <= space_off < so + sz:
                    return fa + (space_off - so)
            raise KeyError(f"heap offset {space_off} unmapped")

        return heap_id_len, off_len, len_len, resolve

    def _dense_links(self, fheap_addr: int, btree_addr: int):
        """Link records from the name-index v2 B-tree, resolved through
        the fractal heap (new-style dense group storage)."""
        b = self.buf
        heap_id_len, off_len, len_len, resolve = \
            self._fractal_heap(fheap_addr)
        if b[btree_addr:btree_addr + 4] != b"BTHD":
            raise ValueError("bad v2 B-tree header")
        rec_size = _u(b, btree_addr + 10, 2)
        depth = _u(b, btree_addr + 12, 2)
        root = _u(b, btree_addr + 16, 8)
        root_nrec = _u(b, btree_addr + 24, 2)
        if depth != 0:
            raise NotImplementedError(
                "multi-level v2 B-tree for dense group links")
        if b[root:root + 4] != b"BTLF":
            raise ValueError("bad v2 B-tree leaf")
        out = []
        pos = root + 6
        for _ in range(root_nrec):
            # record type 5: name hash (4) + fractal heap ID
            hid = pos + 4
            # managed heap id: flags(1) + offset(off_len) + length(len_len)
            space_off = _u(b, hid + 1, off_len)
            out.append(self._parse_link(resolve(space_off)))
            pos += rec_size
        return out

    def _symbol_links(self, btree_addr: int, heap_addr: int):
        b = self.buf
        if b[heap_addr:heap_addr + 4] != b"HEAP":
            raise ValueError("bad local heap")
        heap_data = _u(b, heap_addr + 24, 8)

        def walk(addr):
            if b[addr:addr + 4] != b"TREE":
                raise ValueError("bad group B-tree")
            level = b[addr + 5]
            n = _u(b, addr + 6, 2)
            pos = addr + 24
            out = []
            # keys are heap offsets (L), children are addresses (O)
            children = []
            pos += 8  # key 0
            for _ in range(n):
                children.append(_u(b, pos, 8))
                pos += 16  # child + next key
            for c in children:
                if level > 0:
                    out.extend(walk(c))
                else:
                    if b[c:c + 4] != b"SNOD":
                        raise ValueError("bad SNOD")
                    ns = _u(b, c + 6, 2)
                    p = c + 8
                    for _ in range(ns):
                        name_off = _u(b, p, 8)
                        ohdr = _u(b, p + 8, 8)
                        s = heap_data + name_off
                        e = b.find(b"\x00", s)
                        if e < 0:
                            raise ValueError("unterminated link name")
                        out.append((b[s:e].decode(), ohdr))
                        p += 40
            return out

        return walk(btree_addr)

    def _parse_link(self, off: int) -> tuple[str, int]:
        b = self.buf
        ver, flags = b[off], b[off + 1]
        pos = off + 2
        ltype = 0
        if flags & 0x08:
            ltype = b[pos]; pos += 1
        if flags & 0x04:
            pos += 8  # creation order
        if flags & 0x10:
            pos += 1  # charset
        nlen = _u(b, pos, 1 << (flags & 0x03))
        pos += 1 << (flags & 0x03)
        name = b[pos:pos + nlen].decode()
        pos += nlen
        if ltype != 0:
            return name, UNDEF  # soft/external link: skipped by caller
        return name, _u(b, pos, 8)

    # -- dataset parse --

    def _parse_dataset(self, name: str, hdr_addr: int) -> Dataset:
        b = self.buf
        ds = Dataset(name=name, shape=[], dtype=DType(0, 1),
                     header_addr=hdr_addr)
        for mtype, off, size in self._messages(hdr_addr):
            if mtype == 0x0001:
                ds.shape = _parse_dataspace(b, off)
            elif mtype == 0x0003:
                ds.dtype, _ = _parse_datatype(b, off)
            elif mtype == 0x0005:
                ds.fill = self._parse_fill(off)
            elif mtype == 0x0008:
                self._parse_layout(ds, off)
            elif mtype == 0x000B:
                ds.filters = self._parse_filters(off)
            elif mtype == 0x000C:
                k, v = self._parse_attribute(off)
                if k == "DIMENSION_LIST":
                    ds.dim_refs = v
                else:
                    ds.attrs[k] = v
        return ds

    def _parse_fill(self, off: int):
        b = self.buf
        ver = b[off]
        if ver in (1, 2):
            defined = b[off + 3]
            if ver == 1 or defined:
                sz = _u(b, off + 4, 4)
                return b[off + 8:off + 8 + sz]
            return None
        if ver == 3:
            flags = b[off + 1]
            if flags & 0x20:
                sz = _u(b, off + 2, 4)
                return b[off + 6:off + 6 + sz]
            return None
        return None

    def _parse_layout(self, ds: Dataset, off: int):
        b = self.buf
        ver = b[off]
        if ver in (1, 2):
            rank = b[off + 1]
            cls = b[off + 2]
            pos = off + 8
            if cls != 0:
                addr = _u(b, pos, 8)
                pos += 8
            dims = [_u(b, pos + 4 * i, 4) for i in range(rank)]
            pos += 4 * rank
            if cls == 0:
                ds.layout = "compact"
                sz = _u(b, pos, 4)
                ds.compact = b[pos + 4:pos + 4 + sz]
            elif cls == 1:
                ds.layout = "contiguous"
                ds.data_addr = addr
                ds.data_size = 0
            else:
                ds.layout = "chunked"
                ds.btree_addr = addr
                ds.chunk_shape = dims[:-1]  # last dim = element size
            return
        if ver != 3:
            raise NotImplementedError(f"data layout v{ver} (v1-v3 only)")
        cls = b[off + 1]
        if cls == 0:
            sz = _u(b, off + 2, 2)
            ds.layout = "compact"
            ds.compact = b[off + 4:off + 4 + sz]
        elif cls == 1:
            ds.layout = "contiguous"
            ds.data_addr = _u(b, off + 2, 8)
            ds.data_size = _u(b, off + 10, 8)
        elif cls == 2:
            ds.layout = "chunked"
            rank = b[off + 2]            # dataset rank + 1
            ds.btree_addr = _u(b, off + 3, 8)
            ds.chunk_shape = [
                _u(b, off + 11 + 4 * i, 4) for i in range(rank - 1)]
        else:
            raise NotImplementedError(f"layout class {cls}")

    def _parse_filters(self, off: int):
        b = self.buf
        ver = b[off]
        nf = b[off + 1]
        pos = off + (8 if ver == 1 else 2)
        out = []
        for _ in range(nf):
            fid = _u(b, pos, 2)
            if ver == 1 or fid >= 256:
                # name-length field present only in v1, or v2 for
                # user-defined filters (id >= 256)
                nlen = _u(b, pos + 2, 2)
                flags = _u(b, pos + 4, 2)
                ncd = _u(b, pos + 6, 2)
                pos += 8
            else:
                nlen = 0
                flags = _u(b, pos + 2, 2)
                ncd = _u(b, pos + 4, 2)
                pos += 6
            if nlen:
                pos += (nlen + 7) // 8 * 8 if ver == 1 else nlen
            cd = tuple(_u(b, pos + 4 * i, 4) for i in range(ncd))
            pos += 4 * ncd
            if ver == 1 and ncd % 2:
                pos += 4
            out.append((fid, cd))
        return out

    def _parse_attribute(self, off: int):
        b = self.buf
        ver = b[off]
        if ver == 1:
            nsz = _u(b, off + 2, 2)
            dtsz = _u(b, off + 4, 2)
            dssz = _u(b, off + 6, 2)
            pos = off + 8
            name = b[pos:pos + nsz].split(b"\x00")[0].decode()
            pos += (nsz + 7) // 8 * 8
            dt, _ = _parse_datatype(b, pos)
            dt_end = pos + (dtsz + 7) // 8 * 8
            shape = _parse_dataspace(b, dt_end)
            pos = dt_end + (dssz + 7) // 8 * 8
        elif ver in (2, 3):
            nsz = _u(b, off + 2, 2)
            dtsz = _u(b, off + 4, 2)
            dssz = _u(b, off + 6, 2)
            pos = off + 8 + (1 if ver == 3 else 0)
            name = b[pos:pos + nsz].split(b"\x00")[0].decode()
            pos += nsz
            dt, _ = _parse_datatype(b, pos)
            pos += dtsz
            shape = _parse_dataspace(b, pos)
            pos += dssz
        else:
            raise NotImplementedError(f"attribute v{ver}")
        n = int(np.prod(shape)) if shape else 1
        if dt.cls == 9 and dt.base is not None and dt.base.cls == 7:
            # vlen of object references (DIMENSION_LIST): each element is
            # count(4) + global heap collection addr(8) + object index(4)
            refs = []
            for i in range(n):
                p = pos + 16 * i
                cnt = _u(b, p, 4)
                gaddr = _u(b, p + 4, 8)
                gidx = _u(b, p + 12, 4)
                if cnt == 0 or gaddr in (0, UNDEF):
                    continue  # null vlen element (e.g. unused dim slot)
                data = self._global_heap_object(gaddr, gidx)
                refs.extend(int.from_bytes(data[8 * j:8 * j + 8], "little")
                            for j in range(cnt))
            return name, refs
        if dt.cls == 9:
            # vlen of strings/scalars — return raw bytes list
            vals = []
            for i in range(n):
                p = pos + 16 * i
                gaddr = _u(b, p + 4, 8)
                gidx = _u(b, p + 12, 4)
                vals.append(b"" if gaddr in (0, UNDEF)
                            else self._global_heap_object(gaddr, gidx))
            return name, vals
        if dt.cls == 3:
            if n == 1:
                return name, b[pos:pos + dt.size].split(b"\x00")[0].decode(
                    "latin-1")
            return name, [b[pos + i * dt.size:pos + (i + 1) * dt.size]
                          .split(b"\x00")[0].decode("latin-1")
                          for i in range(n)]
        arr = np.frombuffer(b, dtype=dt.numpy(), count=n, offset=pos)
        return name, (arr[0].item() if n == 1 else arr.copy())

    def _global_heap_object(self, gaddr: int, gidx: int) -> bytes:
        b = self.buf
        if b[gaddr:gaddr + 4] != b"GCOL":
            raise ValueError("bad global heap collection")
        size = _u(b, gaddr + 8, 8)
        pos = gaddr + 16
        end = gaddr + size
        while pos < end:
            idx = _u(b, pos, 2)
            osz = _u(b, pos + 8, 8)
            if idx == gidx:
                return b[pos + 16:pos + 16 + osz]
            if idx == 0:
                break
            pos += 16 + (osz + 7) // 8 * 8
        raise KeyError(f"global heap object {gidx} not found")

    # -- chunk index --

    def chunk_entries(self, ds: Dataset):
        """All (chunk_offset_coords, file_addr, nbytes, filter_mask) from
        the v1 B-tree chunk index."""
        b = self.buf
        rank = len(ds.chunk_shape)
        out = []

        def walk(addr):
            if addr == UNDEF:
                return
            if b[addr:addr + 4] != b"TREE":
                raise ValueError("bad chunk B-tree")
            level = b[addr + 5]
            n = _u(b, addr + 6, 2)
            key_sz = 8 + 8 * (rank + 1)
            pos = addr + 24
            for i in range(n):
                key = pos + i * (key_sz + 8)
                child = key + key_sz
                nbytes = _u(b, key, 4)
                fmask = _u(b, key + 4, 4)
                coords = tuple(_u(b, key + 8 + 8 * j, 8)
                               for j in range(rank))
                caddr = _u(b, child, 8)
                if level > 0:
                    walk(caddr)
                else:
                    out.append((coords, caddr, nbytes, fmask))
            return

        walk(ds.btree_addr)
        return out

    # -- data read --

    def _decode_chunk(self, ds: Dataset, raw: bytes, fmask: int) -> bytes:
        for i, (fid, cd) in enumerate(reversed(ds.filters)):
            if fmask & (1 << (len(ds.filters) - 1 - i)):
                continue
            if fid == 1:
                raw = zlib.decompress(raw)
            elif fid == 2:  # shuffle
                esize = cd[0] if cd else ds.dtype.size
                a = np.frombuffer(raw, dtype=np.uint8)
                n = len(a) // esize
                raw = a[: n * esize].reshape(esize, n).T.tobytes() \
                    + raw[n * esize:]
            elif fid == 3:  # fletcher32: 4-byte checksum suffix
                raw = raw[:-4]
            else:
                raise NotImplementedError(f"HDF5 filter id {fid}")
        return raw

    def _view(self, ds: Dataset) -> np.ndarray:
        """A compact or contiguous dataset as a read-only array view (over
        the file map, so slicing it reads only the touched pages)."""
        dt = ds.dtype.numpy()
        shape = tuple(ds.shape)
        if ds.layout == "compact":
            return np.frombuffer(ds.compact, dtype=dt).reshape(shape)
        if ds.data_addr == UNDEF:
            return np.broadcast_to(np.asarray(_fill_value(ds.fill, dt), dt),
                                   shape)
        return np.frombuffer(self.buf, dtype=dt, count=int(np.prod(shape)),
                             offset=ds.data_addr).reshape(shape)

    def read(self, name: str) -> np.ndarray:
        ds = self.datasets[name]
        if ds.layout != "chunked":
            return self._view(ds).copy()
        dt = ds.dtype.numpy()
        shape = tuple(ds.shape)
        out = np.full(shape, _fill_value(ds.fill, dt), dtype=dt)
        cs = ds.chunk_shape
        for coords, addr, nbytes, fmask in self.chunk_entries(ds):
            raw = self._decode_chunk(
                ds, self.buf[addr:addr + nbytes], fmask)
            a = np.frombuffer(raw, dtype=dt,
                              count=int(np.prod(cs))).reshape(cs)
            sl_out, sl_in = [], []
            skip = False
            for d in range(len(shape)):
                lo = coords[d]
                if lo >= shape[d]:
                    skip = True
                    break
                hi = min(lo + cs[d], shape[d])
                sl_out.append(slice(lo, hi))
                sl_in.append(slice(0, hi - lo))
            if not skip:
                out[tuple(sl_out)] = a[tuple(sl_in)]
        return out

    def read_hyperslab(self, name: str, starts, counts) -> np.ndarray:
        """nc_get_vara semantics: only chunks intersecting the request are
        read/decoded (the per-worker path for stages.mdim)."""
        ds = self.datasets[name]
        dt = ds.dtype.numpy()
        starts = [int(s) for s in starts]
        counts = [int(c) for c in counts]
        if ds.layout != "chunked":
            sl = tuple(slice(s, s + c) for s, c in zip(starts, counts))
            return self._view(ds)[sl].copy()
        out = np.full(counts, _fill_value(ds.fill, dt), dtype=dt)
        cs = ds.chunk_shape
        for coords, addr, nbytes, fmask in self.chunk_entries(ds):
            inter_out, inter_in = [], []
            hit = True
            for d in range(len(counts)):
                lo = max(coords[d], starts[d])
                hi = min(coords[d] + cs[d], starts[d] + counts[d],
                         ds.shape[d])
                if lo >= hi:
                    hit = False
                    break
                inter_out.append(slice(lo - starts[d], hi - starts[d]))
                inter_in.append(slice(lo - coords[d], hi - coords[d]))
            if not hit:
                continue
            raw = self._decode_chunk(
                ds, self.buf[addr:addr + nbytes], fmask)
            a = np.frombuffer(raw, dtype=dt,
                              count=int(np.prod(cs))).reshape(cs)
            out[tuple(inter_out)] = a[tuple(inter_in)]
        return out

    # -- netCDF4 dimension model --

    def dimensions(self) -> dict[str, int]:
        """Dimension-scale datasets (CLASS='DIMENSION_SCALE') -> size."""
        dims = {}
        for name, ds in self.datasets.items():
            if ds.attrs.get("CLASS") == "DIMENSION_SCALE" and ds.shape:
                dims[name.split("/")[-1]] = ds.shape[0]
        return dims

    def var_dims(self, name: str) -> list[str]:
        """Variable's dimension names via DIMENSION_LIST object refs,
        falling back to size-matched scales, else phony names."""
        ds = self.datasets[name]
        if ds.dim_refs:
            out = []
            for addr in ds.dim_refs:
                ref_name = self._by_addr.get(addr)
                out.append(ref_name.split("/")[-1] if ref_name
                           else f"phony_dim_{len(out)}")
            return out
        ad = ds.attrs.get("_ARRAY_DIMENSIONS")
        if ad is not None:
            if isinstance(ad, str):
                return [ad]
            return [x.decode().rstrip("\x00") if isinstance(x, bytes)
                    else str(x) for x in np.atleast_1d(ad)]
        dims = self.dimensions()
        out = []
        for i, s in enumerate(ds.shape):
            match = [d for d, n in dims.items() if n == s]
            out.append(match[0] if len(match) == 1 else f"phony_dim_{i}")
        return out


# --- netcdf3-compatible facade for stages.mdim ------------------------------


def is_hdf5(path: str) -> bool:
    with open(path, "rb") as f:
        return f.read(8) == MAGIC


def read_header(path: str):
    """(dims, meta, global_attrs) in the shape stages.mdim expects from
    netcdf3.read_header: meta[var] = (dim_names, shape, np_dtype_name,
    None, attrs, None)."""
    with H5File(path) as h5:
        dims = h5.dimensions()
        meta = {}
        for name, ds in h5.datasets.items():
            if ds.attrs.get("CLASS") == "DIMENSION_SCALE" and \
                    ds.attrs.get("NAME", "").startswith("This is a netCDF dim"):
                continue  # pure dimension, not a variable
            try:
                dtname = ds.dtype.numpy().name
            except NotImplementedError:
                continue
            meta[name] = (h5.var_dims(name), list(ds.shape), dtname, None,
                          dict(ds.attrs), None)
            for dn, sz in zip(h5.var_dims(name), ds.shape):
                dims.setdefault(dn, sz)
    return dims, meta, {}


def read_hyperslab(path: str, var: str, starts, counts) -> np.ndarray:
    with H5File(path) as h5:
        a = h5.read_hyperslab(var, starts, counts)
    # native byte order for downstream arrow/numpy kernels
    return a.astype(a.dtype.newbyteorder("="), copy=False)


# --- minimal writer ---------------------------------------------------------
# Enough of the format (superblock v0, v1 object headers, old-style
# symbol-table root group, contiguous or chunked+deflate datasets) to
# produce files this reader and any HDF5 1.8+ implementation can open.
# Dimension model written: netCDF4-style DIMENSION_SCALE datasets plus the
# public _ARRAY_DIMENSIONS string-array attribute (the xarray convention)
# on each variable — the reader honors DIMENSION_LIST, _ARRAY_DIMENSIONS,
# then size matching, in that order.


def _w_datatype(dtype: np.dtype) -> bytes:
    dtype = np.dtype(dtype)
    if dtype.kind in "iu":
        b0 = (1 << 4) | 0
        bits = 0x08 if dtype.kind == "i" else 0
        return struct.pack("<BBBBI", b0, bits, 0, 0, dtype.itemsize) + \
            struct.pack("<HH", 0, dtype.itemsize * 8)
    if dtype.kind == "f":
        b0 = (1 << 4) | 1
        if dtype.itemsize == 4:
            props = struct.pack("<HHBBBBI", 0, 32, 31, 8, 0, 23, 127)
        else:
            props = struct.pack("<HHBBBBI", 0, 64, 62, 11, 0, 52, 1023)
        return struct.pack("<BBBBI", b0, 0x20, 0x3F, 0, dtype.itemsize) \
            + props
    if dtype.kind == "S":
        b0 = (1 << 4) | 3
        return struct.pack("<BBBBI", b0, 0, 0, 0, dtype.itemsize)
    raise NotImplementedError(f"write dtype {dtype}")


def _w_dataspace(shape) -> bytes:
    return struct.pack("<BBBBI", 1, len(shape), 0, 0, 0) + b"".join(
        struct.pack("<Q", int(s)) for s in shape)


def _w_attr(name: str, value) -> bytes:
    """Attribute message v1 body."""
    if isinstance(value, str):
        data = value.encode() + b"\x00"
        dt = _w_datatype(np.dtype(f"S{len(data)}"))
        sp = _w_dataspace(())
    elif isinstance(value, (list, tuple)) and value and \
            isinstance(value[0], str):
        width = max(len(v.encode()) + 1 for v in value)
        data = b"".join(v.encode().ljust(width, b"\x00") for v in value)
        dt = _w_datatype(np.dtype(f"S{width}"))
        sp = _w_dataspace((len(value),))
    else:
        arr = np.atleast_1d(np.asarray(value))
        data = arr.tobytes()
        dt = _w_datatype(arr.dtype)
        sp = _w_dataspace(arr.shape if arr.size > 1 else ())
    nm = name.encode() + b"\x00"

    def pad8(x: bytes) -> bytes:
        return x + b"\x00" * (-len(x) % 8)

    head = struct.pack("<BBHHH", 1, 0, len(nm), len(dt), len(sp))
    return head + pad8(nm) + pad8(dt) + pad8(sp) + data


def _w_messages(msgs: list[tuple[int, bytes]]) -> bytes:
    out = []
    for mtype, body in msgs:
        body = body + b"\x00" * (-len(body) % 8)
        out.append(struct.pack("<HHI", mtype, len(body), 0) + body)
    return b"".join(out)


def _w_object_header(msgs: list[tuple[int, bytes]]) -> bytes:
    body = _w_messages(msgs)
    return struct.pack("<BBHII", 1, 0, len(msgs), 1, len(body)) \
        + b"\x00" * 4 + body


def write_hdf5(path: str, variables: dict, dims: dict | None = None,
               chunks: dict | None = None, compress: str | None = None,
               attrs: dict | None = None) -> None:
    """variables: name -> (dim_names, np.ndarray); dims inferred when None.
    ``chunks``: name -> chunk shape tuple (enables chunked layout;
    ``compress='deflate'`` adds the deflate filter).  netCDF4-style
    dimension-scale datasets are emitted for every named dimension."""
    if dims is None:
        dims = {}
        for _n, (dnames, arr) in variables.items():
            for d, s in zip(dnames, np.asarray(arr).shape):
                if dims.setdefault(d, s) != s:
                    raise ValueError(f"dim {d} size conflict")
    chunks = chunks or {}

    objects: list[tuple[str, list[tuple[int, bytes]], bytes]] = []
    # (name, messages (layout filled later), raw data)

    def dataset_msgs(arr: np.ndarray, extra_attrs: list[tuple[str, object]],
                     chunk_shape=None):
        msgs = [(0x0001, _w_dataspace(arr.shape)),
                (0x0003, _w_datatype(arr.dtype)),
                (0x0005, struct.pack("<BBBB", 2, 2, 0, 0))]
        for k, v in extra_attrs:
            msgs.append((0x000C, _w_attr(k, v)))
        return msgs

    for d, size in dims.items():
        arr = np.zeros(size, dtype=np.float32)
        objects.append((d, dataset_msgs(
            arr, [("CLASS", "DIMENSION_SCALE"),
                  ("NAME", f"This is a netCDF dimension but not a netCDF "
                           f"variable.{size:>10}")]), arr.tobytes()))
    for name, (dnames, arr) in variables.items():
        arr = np.ascontiguousarray(arr)
        objects.append((name, dataset_msgs(
            arr, [("_ARRAY_DIMENSIONS", list(dnames))]
            + list((attrs or {}).get(name, {}).items()),
            chunks.get(name)), arr.tobytes()))

    # --- layout pass: header 96 B, then heap, btree, snod, obj headers,
    # then data ---
    names = [o[0] for o in objects]
    order = sorted(range(len(names)), key=lambda i: names[i])
    heap_strings = b"\x00" * 8  # offset 0 reserved (empty string)
    name_off = {}
    for i in order:
        name_off[names[i]] = len(heap_strings)
        nm = names[i].encode() + b"\x00"
        heap_strings += nm + b"\x00" * (-len(nm) % 8)

    pos = 96
    heap_hdr = pos
    heap_data = heap_hdr + 32
    pos = heap_data + len(heap_strings)
    btree = pos
    btree_size = 24 + 8 + len(objects) * 16
    pos += btree_size
    snod = pos
    pos += 8 + 40 * len(objects)

    # object headers: place sequentially; remember layout-message slot
    hdr_addrs = {}
    bodies = {}
    data_specs = {}  # name -> (chunked?, chunk_shape, raw chunks | bytes)
    for name, msgs, raw in objects:
        arr_shape = None
        cs = chunks.get(name)
        # rebuild messages with layout placeholder
        if cs:
            rank = len(cs)
            layout = struct.pack("<BBB", 3, 2, rank + 1) + \
                struct.pack("<Q", 0) + b"".join(
                    struct.pack("<I", int(c)) for c in cs) + \
                struct.pack("<I", 0)  # elem size patched later
            msgs = msgs + [(0x0008, layout)]
            if compress == "deflate":
                filt = struct.pack("<BBHI", 1, 1, 0, 0) + struct.pack(
                    "<HHHH", 1, 8, 1, 1) + b"deflate\x00" + \
                    struct.pack("<II", 6, 0)
                msgs = msgs + [(0x000B, filt)]
        else:
            layout = struct.pack("<BB", 3, 1) + struct.pack(
                "<QQ", 0, len(raw))
            msgs = msgs + [(0x0008, layout)]
        body = _w_object_header(msgs)
        if pos % 8:
            pos += 8 - pos % 8
        hdr_addrs[name] = pos
        bodies[name] = (msgs, body)
        pos += len(body)

    # data area
    data_addr = {}
    chunk_tables = {}
    out_tail = []
    for name, msgs, raw in objects:
        cs = chunks.get(name)
        arr = None
        if cs:
            # split into chunks, compress, lay out + v1 chunk B-tree
            dnames, arr0 = variables[name]
            arr = np.ascontiguousarray(arr0)
            rank = arr.ndim
            grid = [range(0, arr.shape[d], cs[d]) for d in range(rank)]
            import itertools

            entries = []
            for coords in itertools.product(*grid):
                sl = tuple(slice(c, min(c + cs[d], arr.shape[d]))
                           for d, c in enumerate(coords))
                pad = np.zeros(cs, dtype=arr.dtype)
                pad[tuple(slice(0, s.stop - s.start) for s in sl)] = arr[sl]
                data = pad.tobytes()
                if compress == "deflate":
                    data = zlib.compress(data, 6)
                entries.append((coords, data))
            addrs = []
            for coords, data in entries:
                addrs.append((coords, pos, len(data)))
                out_tail.append((pos, data))
                pos += len(data)
            # chunk B-tree: single level-0 node
            bt = pos
            key_sz = 8 + 8 * (rank + 1)
            node = bytearray()
            node += b"TREE" + struct.pack("<BBH", 1, 0, len(addrs))
            node += struct.pack("<QQ", UNDEF, UNDEF)
            for (coords, a, nb) in addrs:
                node += struct.pack("<II", nb, 0)
                node += b"".join(struct.pack("<Q", c) for c in coords)
                node += struct.pack("<Q", 0)      # elem-offset key slot
                node += struct.pack("<Q", a)
            # final key
            node += struct.pack("<II", 0, 0)
            node += b"".join(struct.pack("<Q", s) for s in arr.shape)
            node += struct.pack("<Q", 0)
            out_tail.append((bt, bytes(node)))
            chunk_tables[name] = (bt, arr.dtype.itemsize)
            pos += len(node)
        else:
            data_addr[name] = pos
            out_tail.append((pos, raw))
            pos += len(raw)

    eof = pos
    with open(path, "wb") as f:
        # superblock v0
        f.write(MAGIC)
        f.write(struct.pack("<BBBBBBBB", 0, 0, 0, 0, 0, 8, 8, 0))
        f.write(struct.pack("<HHI", 4, 16, 0))
        f.write(struct.pack("<QQQQ", 0, UNDEF, eof, UNDEF))
        # root symbol table entry: name off 0, header addr, cached stab
        root_hdr_addr = None
        # root group object header with symbol table message
        stab = struct.pack("<QQ", btree, heap_hdr)
        root_body = _w_object_header([(0x0011, stab)])
        # place the root header right after the fixed area? reuse space
        # before heap: header area is 96 bytes: 24 fixed + 8 + ...
        # simpler: root header lives at eof
        root_hdr_addr = eof
        f.write(struct.pack("<QQII", 0, root_hdr_addr, 1, 0))
        f.write(struct.pack("<QQ", btree, heap_hdr))
        assert f.tell() == 96, f.tell()
        # local heap
        f.write(b"HEAP" + struct.pack("<BBBB", 0, 0, 0, 0))
        f.write(struct.pack("<QQQ", len(heap_strings), len(heap_strings),
                            heap_data))
        f.write(heap_strings)
        # group B-tree: one leaf with N children? B-tree v1 group nodes
        # point at SNODs; single SNOD holds all (sorted) entries
        f.write(b"TREE" + struct.pack("<BBH", 0, 0, 1))
        f.write(struct.pack("<QQ", UNDEF, UNDEF))
        f.write(struct.pack("<Q", 0))              # key 0: first name
        f.write(struct.pack("<Q", snod))
        f.write(struct.pack("<Q", name_off[names[order[-1]]]))
        f.write(b"\x00" * (btree_size - (f.tell() - btree)))
        # SNOD
        f.write(b"SNOD" + struct.pack("<BBH", 1, 0, len(objects)))
        for i in order:
            name = names[i]
            f.write(struct.pack("<QQII", name_off[name], hdr_addrs[name],
                                0, 0))
            f.write(b"\x00" * 16)
        # object headers with patched layout messages
        for name, msgs, raw in objects:
            f.seek(hdr_addrs[name])
            cs = chunks.get(name)
            patched = []
            for mtype, body in msgs:
                patched.append((mtype, body))
            if cs:
                bt, isz = chunk_tables[name]
                rank = len(cs)
                layout = struct.pack("<BBB", 3, 2, rank + 1) + \
                    struct.pack("<Q", bt) + b"".join(
                        struct.pack("<I", int(c)) for c in cs) + \
                    struct.pack("<I", isz)
                patched.append((0x0008, layout))
                if compress == "deflate":
                    filt = struct.pack("<BBHI", 1, 1, 0, 0) + struct.pack(
                        "<HHHH", 1, 8, 1, 1) + b"deflate\x00" + \
                        struct.pack("<II", 6, 0)
                    patched.append((0x000B, filt))
            else:
                layout = struct.pack("<BB", 3, 1) + struct.pack(
                    "<QQ", data_addr[name], len(raw))
                patched.append((0x0008, layout))
            f.write(_w_object_header(patched))
        for a, data in out_tail:
            f.seek(a)
            f.write(data)
        # root object header at eof
        f.seek(root_hdr_addr)
        f.write(root_body)
