"""OpenStreetMap PBF source — dependency-free reader + writer.

From-scratch implementation of the public OSM PBF format
(fileformat.proto + osmformat.proto wire layouts): length-prefixed
BlobHeader/Blob framing, zlib or raw blobs, PrimitiveBlocks with dense
nodes (delta-coded packed sint64), plain nodes, ways and relations, the
block string table, and granularity/offset scaling.  Reference driver
role: ``ogr/ogrsf_frmts/osm/ogrosmdatasource.cpp`` (+ osm2osm parser);
test parity target ``autotest/ogr/ogr_osm.py`` fixtures.

Ray-Data shape: the driver scans ONLY the blob framing (one seek per
blob, O(#blobs) driver work) and emits a blob manifest Dataset; each
``map_batches`` worker range-reads and decodes its own blobs — OSM
planet (~80 GB, ~100k blobs) never passes through the driver.  Way
geometry assembly (node-ref -> lon/lat join) is expressed as the
engine's standard broadcast/partitioned join over the node table.
"""
from __future__ import annotations

import struct
import zlib

import numpy as np
import pyarrow as pa

from .mvt import _read_varint, _unzigzag, _varint, _zigzag

# --- protobuf wire primitives ------------------------------------------------


def _fields(buf: bytes):
    """Yield (field_no, wire_type, value_or_bytes) over one message."""
    i = 0
    n = len(buf)
    while i < n:
        key, i = _read_varint(buf, i)
        fno, wt = key >> 3, key & 7
        if wt == 0:
            v, i = _read_varint(buf, i)
            yield fno, wt, v
        elif wt == 2:
            ln, i = _read_varint(buf, i)
            yield fno, wt, buf[i:i + ln]
            i += ln
        elif wt == 5:
            yield fno, wt, buf[i:i + 4]
            i += 4
        elif wt == 1:
            yield fno, wt, buf[i:i + 8]
            i += 8
        else:
            raise ValueError(f"unsupported wire type {wt}")


def _packed_varints(buf: bytes) -> np.ndarray:
    out = []
    i = 0
    while i < len(buf):
        v, i = _read_varint(buf, i)
        out.append(v)
    return np.array(out, dtype=np.uint64)


def _packed_sint(buf: bytes) -> np.ndarray:
    u = _packed_varints(buf).astype(np.int64)
    return (u >> 1) ^ -(u & 1)


# --- blob framing -----------------------------------------------------------


def scan_blobs(path: str) -> list[dict]:
    """Driver-side blob manifest: one dict per blob with its byte range
    and type — the only driver-side pass over the file."""
    out = []
    with open(path, "rb") as f:
        while True:
            head = f.read(4)
            if len(head) < 4:
                break
            hlen = struct.unpack(">I", head)[0]
            hdr = f.read(hlen)
            btype, bsize = "", 0
            for fno, wt, v in _fields(hdr):
                if fno == 1:
                    btype = v.decode()
                elif fno == 3:
                    bsize = v
            off = f.tell()
            out.append({"type": btype, "offset": off, "nbytes": bsize})
            f.seek(off + bsize)
    return out


def _blob_payload(raw: bytes) -> bytes:
    raw_data = None
    zdata = None
    for fno, wt, v in _fields(raw):
        if fno == 1:
            raw_data = v
        elif fno == 3:
            zdata = v
    if raw_data is not None:
        return raw_data
    if zdata is not None:
        return zlib.decompress(zdata)
    raise ValueError("blob has neither raw nor zlib_data")


# --- primitive block decode -------------------------------------------------


def decode_block(raw_blob: bytes):
    """One OSMData blob -> (nodes, ways, relations) arrow-ready dicts.

    nodes: {id, lon, lat, tags}; ways: {id, refs, tags};
    relations: {id, member_ids, member_types, member_roles, tags}.
    Tags are 'k=v' joined with chr(1) (flat string — vectorizable and
    cheap; split lazily downstream)."""
    block = _blob_payload(raw_blob)
    strings: list[str] = []
    granularity = 100
    lat_off = lon_off = 0
    groups = []
    for fno, wt, v in _fields(block):
        if fno == 1:      # stringtable
            strings = [s.decode("utf-8", "replace")
                       for f2, _w, s in _fields(v) if f2 == 1]
        elif fno == 2:
            groups.append(v)
        elif fno == 17:
            granularity = v
        elif fno == 19:
            lat_off = v
        elif fno == 20:
            lon_off = v
    scale = granularity * 1e-9

    n_ids, n_lons, n_lats, n_tags = [], [], [], []
    w_ids, w_refs, w_tags = [], [], []
    r_ids, r_mids, r_mtypes, r_roles, r_tags = [], [], [], [], []

    def tagstr(kidx, vidx) -> str:
        return "\x01".join(f"{strings[k]}={strings[v]}"
                           for k, v in zip(kidx, vidx))

    for g in groups:
        for fno, wt, v in _fields(g):
            if fno == 2:      # dense nodes
                ids = lats = lons = None
                kv = np.array([], dtype=np.uint64)
                for f2, _w, v2 in _fields(v):
                    if f2 == 1:
                        ids = np.cumsum(_packed_sint(v2))
                    elif f2 == 8:
                        lats = np.cumsum(_packed_sint(v2))
                    elif f2 == 9:
                        lons = np.cumsum(_packed_sint(v2))
                    elif f2 == 10:
                        kv = _packed_varints(v2)
                if ids is None:
                    continue
                n_ids.extend(int(x) for x in ids)
                n_lons.extend((lon_off * 1e-9 + scale * lons).tolist())
                n_lats.extend((lat_off * 1e-9 + scale * lats).tolist())
                # keys_vals: k,v pairs per node, 0-terminated
                p = 0
                for _ in range(len(ids)):
                    parts = []
                    while p < len(kv) and kv[p] != 0:
                        parts.append(
                            f"{strings[int(kv[p])]}={strings[int(kv[p+1])]}")
                        p += 2
                    p += 1
                    n_tags.append("\x01".join(parts))
            elif fno == 1:    # plain nodes
                nid = lat = lon = 0
                kidx = vidx = ()
                for f2, _w, v2 in _fields(v):
                    if f2 == 1:
                        nid = _unzigzag(v2)
                    elif f2 == 8:
                        lat = _unzigzag(v2)
                    elif f2 == 9:
                        lon = _unzigzag(v2)
                    elif f2 == 2:
                        kidx = _packed_varints(v2)
                    elif f2 == 3:
                        vidx = _packed_varints(v2)
                n_ids.append(nid)
                n_lons.append(lon_off * 1e-9 + scale * lon)
                n_lats.append(lat_off * 1e-9 + scale * lat)
                n_tags.append(tagstr(kidx, vidx))
            elif fno == 3:    # ways
                wid = 0
                kidx = vidx = ()
                refs = np.array([], dtype=np.int64)
                for f2, _w, v2 in _fields(v):
                    if f2 == 1:
                        wid = v2
                    elif f2 == 2:
                        kidx = _packed_varints(v2)
                    elif f2 == 3:
                        vidx = _packed_varints(v2)
                    elif f2 == 8:
                        refs = np.cumsum(_packed_sint(v2))
                w_ids.append(wid)
                w_refs.append([int(x) for x in refs])
                w_tags.append(tagstr(kidx, vidx))
            elif fno == 4:    # relations
                rid = 0
                kidx = vidx = roles = ()
                mids = np.array([], dtype=np.int64)
                mtypes = np.array([], dtype=np.uint64)
                for f2, _w, v2 in _fields(v):
                    if f2 == 1:
                        rid = v2
                    elif f2 == 2:
                        kidx = _packed_varints(v2)
                    elif f2 == 3:
                        vidx = _packed_varints(v2)
                    elif f2 == 8:
                        roles = _packed_varints(v2)
                    elif f2 == 9:
                        mids = np.cumsum(_packed_sint(v2))
                    elif f2 == 10:
                        mtypes = _packed_varints(v2)
                r_ids.append(rid)
                r_mids.append([int(x) for x in mids])
                r_mtypes.append([int(x) for x in mtypes])
                r_roles.append("\x01".join(strings[int(r)] for r in roles))
                r_tags.append(tagstr(kidx, vidx))

    nodes = {"id": n_ids, "lon": n_lons, "lat": n_lats, "tags": n_tags}
    ways = {"id": w_ids, "refs": w_refs, "tags": w_tags}
    rels = {"id": r_ids, "member_ids": r_mids, "member_types": r_mtypes,
            "member_roles": r_roles, "tags": r_tags}
    return nodes, ways, rels


# --- Ray surface ------------------------------------------------------------


def read_osm_nodes(path: str):
    """Node layer as a streaming Dataset (OGR 'points' layer role):
    blob manifest driver-side, per-worker decode."""
    import ray.data as rd

    blobs = [b for b in scan_blobs(path) if b["type"] == "OSMData"]
    man = pa.table({"offset": pa.array([b["offset"] for b in blobs],
                                       pa.int64()),
                    "nbytes": pa.array([b["nbytes"] for b in blobs],
                                       pa.int64())})

    def fetch(t: pa.Table) -> pa.Table:
        ids, lons, lats, tags = [], [], [], []
        with open(path, "rb") as f:
            for i in range(t.num_rows):
                f.seek(t["offset"][i].as_py())
                raw = f.read(t["nbytes"][i].as_py())
                nodes, _w, _r = decode_block(raw)
                ids.extend(nodes["id"])
                lons.extend(nodes["lon"])
                lats.extend(nodes["lat"])
                tags.extend(nodes["tags"])
        return pa.table({"id": pa.array(ids, pa.int64()),
                         "lon": pa.array(lons, pa.float64()),
                         "lat": pa.array(lats, pa.float64()),
                         "tags": pa.array(tags, pa.string())})

    return rd.from_arrow(man).map_batches(fetch, batch_format="pyarrow")


def read_osm_ways(path: str):
    """Way layer (id, refs list, tags) as a streaming Dataset."""
    import ray.data as rd

    blobs = [b for b in scan_blobs(path) if b["type"] == "OSMData"]
    man = pa.table({"offset": pa.array([b["offset"] for b in blobs],
                                       pa.int64()),
                    "nbytes": pa.array([b["nbytes"] for b in blobs],
                                       pa.int64())})

    def fetch(t: pa.Table) -> pa.Table:
        ids, refs, tags = [], [], []
        with open(path, "rb") as f:
            for i in range(t.num_rows):
                f.seek(t["offset"][i].as_py())
                raw = f.read(t["nbytes"][i].as_py())
                _n, ways, _r = decode_block(raw)
                ids.extend(ways["id"])
                refs.extend(ways["refs"])
                tags.extend(ways["tags"])
        return pa.table({"id": pa.array(ids, pa.int64()),
                         "refs": pa.array(refs, pa.list_(pa.int64())),
                         "tags": pa.array(tags, pa.string())})

    return rd.from_arrow(man).map_batches(fetch, batch_format="pyarrow")


def assemble_way_lines(ways_ds, nodes_ds):
    """Way refs -> LineString WKB via a node-coordinate join: explode
    (way_id, seq, ref), broadcast-join node coords for the small side
    (or hash-partition at planet scale), regroup ordered — the
    partitioned shape of ogrosmdatasource.cpp's node database lookup."""
    import ray

    node_tbl = pa.concat_tables(
        ray.get([ref for ref in nodes_ds.to_arrow_refs()]))
    ids = node_tbl["id"].to_numpy(zero_copy_only=False)
    order = np.argsort(ids, kind="stable")
    ref_obj = ray.put((ids[order],
                       node_tbl["lon"].to_numpy(zero_copy_only=False)[order],
                       node_tbl["lat"].to_numpy(zero_copy_only=False)[order]))

    from ..functions import wkb as wkb_f

    def assemble(t: pa.Table) -> pa.Table:
        ids, lons, lats = ray.get(ref_obj)
        out_ids, out_wkbs, out_tags = [], [], []
        for i in range(t.num_rows):
            refs = np.asarray(t["refs"][i].as_py(), dtype=np.int64)
            pos = np.searchsorted(ids, refs)
            pos = np.clip(pos, 0, len(ids) - 1)
            ok = ids[pos] == refs
            # ogrosmdatasource.cpp behavior: unresolvable node refs are
            # skipped, the way survives if >= 2 points remain
            pos = pos[ok]
            pts = np.column_stack([lons[pos], lats[pos]])
            if len(pts) < 2:
                continue
            out_ids.append(t["id"][i].as_py())
            out_wkbs.append(wkb_f.encode_linestring(pts))
            out_tags.append(t["tags"][i].as_py())
        return pa.table({"id": pa.array(out_ids, pa.int64()),
                         "wkb": pa.array(out_wkbs, pa.binary()),
                         "tags": pa.array(out_tags, pa.string())})

    return ways_ds.map_batches(assemble, batch_format="pyarrow")


# --- writer -----------------------------------------------------------------


def _wfield(fno: int, wt: int, payload) -> bytes:
    key = _varint((fno << 3) | wt)
    if wt == 0:
        return key + _varint(payload)
    return key + _varint(len(payload)) + payload


def _wpacked_sint(vals) -> bytes:
    return b"".join(_varint(_zigzag(int(v))) for v in vals)


def write_osm_pbf(path: str, nodes=None, ways=None,
                  compress: bool = True, granularity: int = 100) -> None:
    """nodes: iterable of (id, lon, lat, {tags}); ways: (id, refs, {tags}).
    Emits one OSMHeader blob + one OSMData blob with dense nodes + ways."""
    nodes = list(nodes or [])
    ways = list(ways or [])
    strings: list[str] = [""]
    sidx: dict[str, int] = {"": 0}

    def s(x: str) -> int:
        if x not in sidx:
            sidx[x] = len(strings)
            strings.append(x)
        return sidx[x]

    groups = b""
    if nodes:
        ids = [n[0] for n in nodes]
        lons = [int(round(n[1] / (granularity * 1e-9))) for n in nodes]
        lats = [int(round(n[2] / (granularity * 1e-9))) for n in nodes]
        kv = []
        for n in nodes:
            for k, v in (n[3] or {}).items():
                kv.extend([s(k), s(v)])
            kv.append(0)
        dense = (_wfield(1, 2, _wpacked_sint(np.diff([0] + ids)))
                 + _wfield(8, 2, _wpacked_sint(np.diff([0] + lats)))
                 + _wfield(9, 2, _wpacked_sint(np.diff([0] + lons)))
                 + _wfield(10, 2, b"".join(_varint(x) for x in kv)))
        groups += _wfield(2, 2, _wfield(2, 2, dense))
    if ways:
        wbody = b""
        for wid, refs, tags in ways:
            kidx = b"".join(_varint(s(k)) for k in (tags or {}))
            vidx = b"".join(_varint(s(v)) for v in (tags or {}).values())
            w = (_wfield(1, 0, wid) + _wfield(2, 2, kidx)
                 + _wfield(3, 2, vidx)
                 + _wfield(8, 2, _wpacked_sint(np.diff([0] + list(refs)))))
            wbody += _wfield(3, 2, w)
        groups += _wfield(2, 2, wbody)

    stable = _wfield(1, 2, b"".join(
        _wfield(1, 2, x.encode()) for x in strings))
    block = stable + groups + _wfield(17, 0, granularity)

    def blob(btype: str, payload: bytes) -> bytes:
        if compress:
            body = (_wfield(2, 0, len(payload))
                    + _wfield(3, 2, zlib.compress(payload, 6)))
        else:
            body = _wfield(1, 2, payload)
        hdr = _wfield(1, 2, btype.encode()) + _wfield(3, 0, len(body))
        return struct.pack(">I", len(hdr)) + hdr + body

    header_block = (_wfield(4, 2, b"OsmSchema-V0.6")
                    + _wfield(4, 2, b"DenseNodes"))
    with open(path, "wb") as f:
        f.write(blob("OSMHeader", header_block))
        f.write(blob("OSMData", block))
