"""ESRI Shapefile vector format — dependency-free reader + writer.

Re-answers the reference's Shapefile driver surface
(``ogr/ogrsf_frmts/shape/``) from the public ESRI Shapefile Technical
Description (July 1998) and the dBASE III header layout — an independent
implementation, not a port.  Covers the .shp geometry file (shape types
Null=0, Point=1, PolyLine=3, Polygon=5, MultiPoint=8), the .shx offset
index, and .dbf attributes (C character and N numeric fields).

Geometry bridges to the engine's WKB column: shapefile polygon records hold
all rings flat with clockwise outer / counter-clockwise hole winding; the
reader regroups them (a CW ring opens a new polygon, subsequent CCW rings are
its holes — the convention every mainstream writer emits) into WKB
Polygon/MultiPolygon, and the writer re-derives the winding from WKB ring
roles, so round trips are exact.

Ray-Data shape: ``read_shapefile_dataset`` reads ONLY the .shx index
driver-side (8 bytes per record) and ships record byte-ranges to
``map_batches`` workers that range-read .shp and the fixed-stride .dbf —
at 10^9 features the driver never touches feature payloads.
"""

from __future__ import annotations

import struct

import numpy as np
import pyarrow as pa

from ..functions import wkb as wkb_f

SHP_NULL, SHP_POINT, SHP_POLYLINE, SHP_POLYGON, SHP_MULTIPOINT = 0, 1, 3, 5, 8


def _close(r: np.ndarray) -> np.ndarray:
    if len(r) == 0 or (r[0] == r[-1]).all():
        return r
    return np.vstack([r, r[:1]])


def _shp_record_from_wkb(wkb: bytes) -> tuple[int, bytes]:
    """WKB geometry -> (shape_type, shp record content without the type word)."""
    g = wkb_f.decode(wkb)
    if g.kind == wkb_f.POINT:
        p = g.parts[0][0]
        return SHP_POINT, struct.pack("<2d", float(p[0]), float(p[1]))
    if g.kind in (wkb_f.LINESTRING, wkb_f.MULTILINESTRING):
        parts = g.parts if g.kind == wkb_f.MULTILINESTRING else [g.parts[0]]
        return SHP_POLYLINE, _pack_parts(parts)
    if g.kind in (wkb_f.POLYGON, wkb_f.MULTIPOLYGON):
        rings = []
        for poly in g.shells_and_holes():
            for j, r in enumerate(poly):
                r = _close(np.asarray(r, dtype=np.float64))
                a = wkb_f.ring_area(r)
                # shapefile: outer ring CW (negative shoelace), holes CCW
                want_cw = j == 0
                if (a < 0) != want_cw and a != 0:
                    r = r[::-1]
                rings.append(r)
        return SHP_POLYGON, _pack_parts(rings)
    if g.kind == wkb_f.MULTIPOINT:
        pts = np.vstack([p[0] for p in g.parts]) if g.parts else np.empty((0, 2))
        bbox = _bbox_of(pts)
        return SHP_MULTIPOINT, struct.pack("<4di", *bbox, len(pts)) + \
            pts.astype("<f8").tobytes()
    raise ValueError(f"unsupported WKB kind {g.kind} for shapefile")


def _bbox_of(pts: np.ndarray):
    if len(pts) == 0:
        return (0.0, 0.0, 0.0, 0.0)
    return (float(pts[:, 0].min()), float(pts[:, 1].min()),
            float(pts[:, 0].max()), float(pts[:, 1].max()))


def _pack_parts(parts) -> bytes:
    parts = [np.asarray(p, dtype=np.float64) for p in parts]
    all_pts = np.vstack(parts) if parts else np.empty((0, 2))
    starts, n = [], 0
    for p in parts:
        starts.append(n)
        n += len(p)
    return (struct.pack("<4d2i", *_bbox_of(all_pts), len(parts), n)
            + struct.pack("<%di" % len(starts), *starts)
            + all_pts.astype("<f8").tobytes())


def _wkb_from_shp_record(content: bytes) -> bytes | None:
    (stype,) = struct.unpack_from("<i", content, 0)
    if stype == SHP_NULL:
        return None
    if stype == SHP_POINT:
        x, y = struct.unpack_from("<2d", content, 4)
        return wkb_f.encode_points(np.array([x]), np.array([y]))[0]
    if stype in (SHP_POLYLINE, SHP_POLYGON, SHP_MULTIPOINT):
        if stype == SHP_MULTIPOINT:
            (npts,) = struct.unpack_from("<i", content, 36)
            pts = np.frombuffer(content, dtype="<f8", count=npts * 2,
                                offset=40).reshape(npts, 2)
            return wkb_f.encode_multipoint(pts)
        nparts, npts = struct.unpack_from("<2i", content, 36)
        starts = list(struct.unpack_from("<%di" % nparts, content, 44))
        pts = np.frombuffer(content, dtype="<f8", count=npts * 2,
                            offset=44 + 4 * nparts).reshape(npts, 2)
        bounds = starts + [npts]
        parts = [pts[bounds[i]:bounds[i + 1]].copy() for i in range(nparts)]
        if stype == SHP_POLYLINE:
            if len(parts) == 1:
                return wkb_f.encode_linestring(parts[0])
            return wkb_f.encode_multilinestring(parts)
        polys: list[list[np.ndarray]] = []
        for r in parts:
            cw = wkb_f.ring_area(r) < 0
            if cw or not polys:  # CW opens a polygon; orphan CCW starts one too
                polys.append([r])
            else:
                polys[-1].append(r)
        if len(polys) == 1:
            return wkb_f.encode_polygon(polys[0])
        return wkb_f.encode_multipolygon(polys)
    raise ValueError(f"unsupported shapefile shape type {stype}")


# ---------------------------------------------------------------- .dbf

def _dbf_field_specs(table: pa.Table):
    specs = []
    for name, col in zip(table.column_names, table.columns):
        t = col.type
        if pa.types.is_integer(t):
            specs.append((name[:10], "N", 18, 0))
        elif pa.types.is_floating(t):
            specs.append((name[:10], "N", 24, 10))
        else:
            width = 1
            for v in col.to_pylist():
                if v is not None:
                    width = max(width, len(str(v).encode("latin1")))
            specs.append((name[:10], "C", min(width, 254), 0))
    return specs


def _write_dbf(path: str, table: pa.Table) -> None:
    specs = _dbf_field_specs(table)
    nrec = table.num_rows
    hdr_size = 32 + 32 * len(specs) + 1
    rec_size = 1 + sum(s[2] for s in specs)
    with open(path, "wb") as f:
        f.write(struct.pack("<B3BIHH20x", 0x03, 126, 1, 1, nrec, hdr_size, rec_size))
        for name, ftype, flen, fdec in specs:
            f.write(struct.pack("<11s c 4x BB 14x".replace(" ", ""),
                                name.encode("latin1"), ftype.encode(), flen, fdec))
        f.write(b"\x0d")
        cols = [c.to_pylist() for c in table.columns]
        for i in range(nrec):
            f.write(b" ")
            for (name, ftype, flen, fdec), col in zip(specs, cols):
                v = col[i]
                if ftype == "N":
                    s = "" if v is None else (
                        f"%.{fdec}f" % float(v) if fdec else str(int(v)))
                    f.write(s.rjust(flen).encode("latin1")[-flen:])
                else:
                    s = "" if v is None else str(v)
                    f.write(s.ljust(flen).encode("latin1")[:flen])
        f.write(b"\x1a")


def _read_dbf_header(path: str):
    with open(path, "rb") as f:
        head = f.read(32)
        version, nrec, hdr_size, rec_size = struct.unpack_from("<B3xIHH", head, 0)
        fields = []
        raw = f.read(hdr_size - 32)
        off = 0
        while raw[off] != 0x0D:
            name = raw[off:off + 11].split(b"\x00")[0].decode("latin1")
            ftype = chr(raw[off + 11])
            flen, fdec = raw[off + 16], raw[off + 17]
            fields.append((name, ftype, flen, fdec))
            off += 32
    return nrec, hdr_size, rec_size, fields


def _decode_dbf_records(raw: bytes, rec_size: int, fields, n: int) -> dict:
    cols: dict[str, list] = {name: [] for name, *_ in fields}
    for i in range(n):
        rec = raw[i * rec_size:(i + 1) * rec_size]
        off = 1  # deletion flag
        for name, ftype, flen, fdec in fields:
            cell = rec[off:off + flen]
            off += flen
            if ftype == "N":
                s = cell.strip()
                if not s:
                    cols[name].append(None)
                elif fdec:
                    cols[name].append(float(s))
                else:
                    cols[name].append(int(s))
            else:
                cols[name].append(cell.decode("latin1").rstrip())
    return cols


# ---------------------------------------------------------------- .shp/.shx

def write_shapefile(base: str, wkbs, attrs: pa.Table | None = None) -> None:
    """Write ``base``.shp/.shx/.dbf from a WKB list (+ optional attributes)."""
    records = []
    all_bbox = None
    stype_file = SHP_NULL
    for w in wkbs:
        if w is None:
            records.append((SHP_NULL, b""))
            continue
        st, content = _shp_record_from_wkb(w)
        stype_file = st  # spec: one shape type per file (plus nulls)
        records.append((st, content))
        g = wkb_f.decode(w)
        b = g.bbox()
        if all_bbox is None:
            all_bbox = list(b)
        else:
            all_bbox = [min(all_bbox[0], b[0]), min(all_bbox[1], b[1]),
                        max(all_bbox[2], b[2]), max(all_bbox[3], b[3])]
    if all_bbox is None:
        all_bbox = [0.0, 0.0, 0.0, 0.0]

    shp_parts, shx_parts, off_words = [], [], 50  # header = 100 bytes = 50 words
    for i, (st, content) in enumerate(records):
        body = struct.pack("<i", st) + content
        nwords = len(body) // 2
        shp_parts.append(struct.pack(">2i", i + 1, nwords) + body)
        shx_parts.append(struct.pack(">2i", off_words, nwords))
        off_words += 4 + nwords
    total_words = off_words

    def header(length_words: int) -> bytes:
        return (struct.pack(">i5i", 9994, 0, 0, 0, 0, 0)
                + struct.pack(">i", length_words)
                + struct.pack("<2i", 1000, stype_file)
                + struct.pack("<4d", *all_bbox)
                + struct.pack("<4d", 0.0, 0.0, 0.0, 0.0))

    with open(base + ".shp", "wb") as f:
        f.write(header(total_words))
        for p in shp_parts:
            f.write(p)
    with open(base + ".shx", "wb") as f:
        f.write(header(50 + 4 * len(records)))
        for p in shx_parts:
            f.write(p)
    if attrs is None:
        attrs = pa.table({"FID": pa.array(range(len(records)), pa.int64())})
    _write_dbf(base + ".dbf", attrs)


def read_shx(base: str) -> list[tuple[int, int]]:
    """-> [(byte_offset, content_bytes)] per record from the tiny .shx."""
    with open(base + ".shx", "rb") as f:
        buf = f.read()
    (code,) = struct.unpack_from(">i", buf, 0)
    if code != 9994:
        raise ValueError("not a shapefile index: bad file code")
    out = []
    for off in range(100, len(buf), 8):
        o, n = struct.unpack_from(">2i", buf, off)
        out.append((o * 2, n * 2))
    return out


def read_shapefile(base: str) -> pa.Table:
    """Eager read -> pa.Table (fid, wkb, attr columns)."""
    idx = read_shx(base)
    with open(base + ".shp", "rb") as f:
        shp = f.read()
    wkbs = []
    for o, n in idx:
        wkbs.append(_wkb_from_shp_record(shp[o + 8:o + 8 + n]))
    nrec, hdr_size, rec_size, fields = _read_dbf_header(base + ".dbf")
    with open(base + ".dbf", "rb") as f:
        f.seek(hdr_size)
        raw = f.read(rec_size * nrec)
    cols = _decode_dbf_records(raw, rec_size, fields, min(nrec, len(idx)))
    data = {"fid": pa.array(range(len(idx)), pa.int64()),
            "wkb": pa.array(wkbs, pa.binary())}
    for name, vals in cols.items():
        data[name] = pa.array(vals)
    return pa.table(data)


def read_shapefile_dataset(base: str, records_per_block: int = 4096):
    """Shapefile -> Ray Dataset of (fid, wkb, attrs).

    Driver reads only .shx (8 B/record) + the .dbf header; feature payloads
    are range-read inside ``map_batches`` workers in ``records_per_block``
    chunks — the layout that lets a multi-GB .shp stream through workers.
    """
    import ray.data as rd

    idx = read_shx(base)
    nrec, hdr_size, rec_size, fields = _read_dbf_header(base + ".dbf")
    man_rows = [
        {"fid0": i, "shp_off": idx[i][0],
         "shp_len": sum(8 + n for _, n in idx[i:i + records_per_block]),
         "count": len(idx[i:i + records_per_block])}
        for i in range(0, len(idx), records_per_block)
    ]

    def fetch(t: pa.Table) -> pa.Table:
        out = []
        with open(base + ".shp", "rb") as fshp, open(base + ".dbf", "rb") as fdbf:
            for i in range(t.num_rows):
                fid0 = t["fid0"][i].as_py()
                count = t["count"][i].as_py()
                fshp.seek(t["shp_off"][i].as_py())
                raw = fshp.read(t["shp_len"][i].as_py())
                fdbf.seek(hdr_size + rec_size * fid0)
                attrs = _decode_dbf_records(
                    fdbf.read(rec_size * count), rec_size, fields, count)
                pos = 0
                for j in range(count):
                    (nwords,) = struct.unpack_from(">i", raw, pos + 4)
                    content = raw[pos + 8:pos + 8 + nwords * 2]
                    pos += 8 + nwords * 2
                    row = {"fid": fid0 + j, "wkb": _wkb_from_shp_record(content)}
                    for name in attrs:
                        row[name] = attrs[name][j]
                    out.append(row)
        return pa.Table.from_pylist(out)

    return rd.from_arrow(pa.Table.from_pylist(man_rows)).map_batches(
        fetch, batch_format="pyarrow")
