"""Mapbox Vector Tile (MVT) driver: dependency-free protobuf encode/parse.

Reference: ``ogr/ogrsf_frmts/mvt/`` (MVT read driver + MVT write,
``mvtwriterdataset.cpp``); format = Mapbox Vector Tile spec 2.1 (public):
a protobuf Tile of Layers; Layer{version=2, name, features, keys, values,
extent}; Feature{id, packed tags, geom type, packed zigzag command stream}.

Ray-Data shape: one tile blob per (z, x, y) group — the vector twin of the
z/x/y.png sink (``sources/png.py``), same keyed-groupby layout.  Encoding a
tile is inherently byte-sequential, so the per-feature loop runs inside the
per-tile ``map_groups`` callback; everything upstream (tile assignment,
in-tile quantization) is vectorized.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

MOVETO, LINETO, CLOSEPATH = 1, 2, 7
POINT, LINESTRING, POLYGON = 1, 2, 3


# the one protobuf varint writer and reader (osmpbf and pmtiles use them)
def _varint(n: int) -> bytes:
    """Base-128 varint of ``n``; negatives as their 64-bit two's complement."""
    out = bytearray()
    n &= (1 << 64) - 1
    while True:
        b = n & 0x7F
        n >>= 7
        if n:
            out.append(b | 0x80)
        else:
            out.append(b)
            return bytes(out)


def _zigzag(n: int) -> int:
    return (n << 1) ^ (n >> 63)


def _unzigzag(n: int) -> int:
    return (n >> 1) ^ -(n & 1)


def _tag(field: int, wire: int) -> bytes:
    return _varint(field << 3 | wire)


def _len_delim(field: int, payload: bytes) -> bytes:
    return _tag(field, 2) + _varint(len(payload)) + payload


def _read_varint(buf: bytes, i: int) -> tuple[int, int]:
    shift = 0
    val = 0
    while True:
        b = buf[i]
        i += 1
        val |= (b & 0x7F) << shift
        if not b & 0x80:
            return val, i
        shift += 7


def encode_value(v) -> bytes:
    """Value message: string(1) / sint64(6) / bool(7)."""
    if isinstance(v, bool):
        return _tag(7, 0) + _varint(int(v))
    if isinstance(v, (int, np.integer)):
        return _tag(6, 0) + _varint(_zigzag(int(v)))
    if isinstance(v, str):
        return _len_delim(1, v.encode())
    raise TypeError(type(v))


def decode_value(buf: bytes):
    import struct as _struct

    i = 0
    key, i = _read_varint(buf, i)
    field, wire = key >> 3, key & 7
    if field == 1:
        ln, i = _read_varint(buf, i)
        return buf[i : i + ln].decode()
    if field == 2:   # float (fixed32)
        return _struct.unpack("<f", buf[i : i + 4])[0]
    if field == 3:   # double (fixed64)
        return _struct.unpack("<d", buf[i : i + 8])[0]
    v, i = _read_varint(buf, i)
    if field == 6:
        return _unzigzag(v)
    if field == 7:
        return bool(v)
    if field in (4, 5):
        return v  # int64 / uint64
    raise ValueError(f"value field {field}")


def encode_point_layer(name: str, ids, pxs, pys, attrs: dict | None = None,
                       extent: int = 4096) -> bytes:
    """One MVT layer of POINT features.  ``attrs`` maps key -> array of
    per-feature int/str values; value table is deduped in first-seen order
    (the spec's shared string/value tables)."""
    attrs = attrs or {}
    ids_arr = np.asarray(ids)
    if ids_arr.size and int(ids_arr.min()) < 0:
        # MVT feature id is a uint64 per spec; _varint would silently mask a
        # negative id to its two's-complement and break the id round-trip
        raise ValueError("MVT feature ids must be non-negative (spec: uint64)")
    keys = list(attrs)
    val_index: dict = {}
    vals: list = []

    def vidx(v):
        v = v.item() if isinstance(v, np.generic) else v
        # type-aware key: Python hashes True == 1 and False == 0, which would
        # merge bool and int entries and lose the spec's typed Value oneof
        kk = (type(v).__name__, v)
        if kk not in val_index:
            val_index[kk] = len(vals)
            vals.append(v)
        return val_index[kk]

    feats = bytearray()
    for j in range(len(ids)):
        geom = _varint(MOVETO | (1 << 3)) + _varint(_zigzag(int(pxs[j]))) + \
            _varint(_zigzag(int(pys[j])))
        tags = bytearray()
        for ki, k in enumerate(keys):
            tags += _varint(ki) + _varint(vidx(attrs[k][j]))
        body = (_tag(1, 0) + _varint(int(ids[j]))
                + _len_delim(2, bytes(tags))
                + _tag(3, 0) + _varint(POINT)
                + _len_delim(4, geom))
        feats += _len_delim(2, body)
    layer = (_tag(15, 0) + _varint(2)
             + _len_delim(1, name.encode())
             + bytes(feats))
    for k in keys:
        layer += _len_delim(3, k.encode())
    for v in vals:
        layer += _len_delim(4, encode_value(v))
    layer += _tag(5, 0) + _varint(extent)
    return _len_delim(3, layer)


def parse_tile(buf: bytes) -> list[dict]:
    """Parse a Tile -> list of layers with decoded POINT features."""
    layers = []
    i = 0
    while i < len(buf):
        key, i = _read_varint(buf, i)
        field, wire = key >> 3, key & 7
        if wire != 2:
            raise ValueError("tile: unexpected wire type")
        ln, i = _read_varint(buf, i)
        if field == 3:
            layers.append(_parse_layer(buf[i : i + ln]))
        i += ln
    return layers


def _parse_layer(buf: bytes) -> dict:
    out = {"name": "", "extent": 4096, "version": 0,
           "keys": [], "values": [], "features": []}
    raw_feats = []
    i = 0
    while i < len(buf):
        key, i = _read_varint(buf, i)
        field, wire = key >> 3, key & 7
        if wire == 0:
            v, i = _read_varint(buf, i)
            if field == 15:
                out["version"] = v
            elif field == 5:
                out["extent"] = v
        else:
            ln, i = _read_varint(buf, i)
            chunk = buf[i : i + ln]
            i += ln
            if field == 1:
                out["name"] = chunk.decode()
            elif field == 2:
                raw_feats.append(chunk)
            elif field == 3:
                out["keys"].append(chunk.decode())
            elif field == 4:
                out["values"].append(decode_value(chunk))
    for fb in raw_feats:
        out["features"].append(_parse_feature(fb, out))
    return out


def _parse_feature(buf: bytes, layer: dict) -> dict:
    f = {"id": None, "type": None, "points": [], "attrs": {}}
    i = 0
    tags: list[int] = []
    geom: list[int] = []
    while i < len(buf):
        key, i = _read_varint(buf, i)
        field, wire = key >> 3, key & 7
        if wire == 0:
            v, i = _read_varint(buf, i)
            if field == 1:
                f["id"] = v
            elif field == 3:
                f["type"] = v
        else:
            ln, i = _read_varint(buf, i)
            end = i + ln
            vals = []
            while i < end:
                v, i = _read_varint(buf, i)
                vals.append(v)
            # protobuf allows a packed repeated field split across multiple
            # occurrences of the field number: concatenate, never overwrite
            if field == 2:
                tags += vals
            elif field == 4:
                geom += vals
    for ki, vi in zip(tags[::2], tags[1::2]):
        f["attrs"][layer["keys"][ki]] = layer["values"][vi]
    # decode command stream (cursor-relative zigzag deltas)
    cx = cy = 0
    gi = 0
    while gi < len(geom):
        cmd = geom[gi]
        gi += 1
        op, count = cmd & 7, cmd >> 3
        if op in (MOVETO, LINETO):
            for _ in range(count):
                cx += _unzigzag(geom[gi])
                cy += _unzigzag(geom[gi + 1])
                gi += 2
                f["points"].append((cx, cy))
        elif op == CLOSEPATH:
            pass
        else:
            raise ValueError(f"geometry op {op}")
    return f


def mvt_point_tiles(ds, zoom: int = 6, layer_name: str = "docs",
                    id_col: str = "doc_id", attr_cols: tuple = ("n_chars",),
                    extent: int = 4096):
    """Encode a point Dataset into one MVT blob per (z, x, y) tile.

    Vectorized upstream: tile assignment + in-tile quantization
    px = floor((fx - tx) * extent) clamped to [0, extent-1]; one keyed
    groupby shuffles features to their owning tile; the per-tile callback
    encodes the protobuf (features ordered by id for determinism).
    Output rows: (tx, ty, n_features, mvt binary).
    """
    from ..functions import geo
    from ..stages.tiles import derive_geometry_batch

    n = float(1 << zoom)
    hi = extent - 1

    def quantize(batch: pa.Table) -> pa.Table:
        batch = derive_geometry_batch(batch, id_col)
        lon = batch["lon"].to_numpy(zero_copy_only=False)
        lat = batch["lat"].to_numpy(zero_copy_only=False)
        tx, ty = geo.lonlat_to_tile(lon, lat, zoom)
        fx = (lon + 180.0) / 360.0 * n
        lat_rad = np.radians(lat)
        fy = (1.0 - np.log(np.tan(lat_rad) + 1.0 / np.cos(lat_rad)) / np.pi) / 2.0 * n
        px = np.clip(np.floor((fx - tx) * float(extent)).astype(np.int64), 0, hi)
        py = np.clip(np.floor((fy - ty) * float(extent)).astype(np.int64), 0, hi)
        cols = {
            "cell": pa.array(tx * np.int64(1 << zoom) + ty),
            "tx": pa.array(tx), "ty": pa.array(ty),
            "px": pa.array(px), "py": pa.array(py),
            id_col: batch[id_col],
        }
        for c in attr_cols:
            cols[c] = batch[c]
        return pa.table(cols)

    def encode_group(g: pa.Table) -> pa.Table:
        order = np.argsort(g[id_col].to_numpy(zero_copy_only=False), kind="stable")
        ids = g[id_col].to_numpy(zero_copy_only=False)[order]
        px = g["px"].to_numpy(zero_copy_only=False)[order]
        py = g["py"].to_numpy(zero_copy_only=False)[order]
        attrs = {c: g[c].to_numpy(zero_copy_only=False)[order] for c in attr_cols}
        blob = encode_point_layer(layer_name, ids, px, py, attrs, extent)
        return pa.table({
            "tx": pa.array([int(g["tx"][0].as_py())], pa.int64()),
            "ty": pa.array([int(g["ty"][0].as_py())], pa.int64()),
            "n_features": pa.array([len(ids)], pa.int64()),
            "mvt": pa.array([blob], pa.binary()),
        })

    return ds.map_batches(quantize, batch_format="pyarrow") \
             .groupby("cell").map_groups(encode_group, batch_format="pyarrow")
