"""PMTiles v3 container — dependency-free reader + writer.

From-scratch implementation of the public PMTiles v3 specification
(protomaps/PMTiles): 127-byte header, Hilbert-curve tile IDs, varint
delta-coded directories (tileId deltas / run lengths / lengths /
offsets-with-continuation), gzip internal compression, optional leaf
directories, gzip JSON metadata.  Reference driver role:
``ogr/ogrsf_frmts/pmtiles/ogrpmtilesdataset.cpp`` (+ pmtilesv3 vendored
structs); test parity target ``autotest/ogr/ogr_pmtiles.py`` fixtures.

Ray-Data shape: the driver reads header + directories (KBs); tile
payloads are range-read inside ``map_batches`` workers from the entry
manifest — a planet-scale basemap archive never transits the driver.
The tile payloads themselves are opaque here (MVT via
``sources.mvt``, PNG via ``sources.png`` — already in-repo codecs).
"""
from __future__ import annotations

import gzip
import json
import struct

import numpy as np
import pyarrow as pa

from .mvt import _read_varint, _varint

MAGIC = b"PMTiles"

COMPRESSION_NONE, COMPRESSION_GZIP = 1, 2
TILETYPE_MVT, TILETYPE_PNG, TILETYPE_JPEG, TILETYPE_WEBP, TILETYPE_AVIF = \
    1, 2, 3, 4, 5


# --- Hilbert tile ids -------------------------------------------------------


def _rotate(n: int, x: int, y: int, rx: int, ry: int) -> tuple[int, int]:
    if ry == 0:
        if rx == 1:
            x = n - 1 - x
            y = n - 1 - y
        x, y = y, x
    return x, y


def zxy_to_tileid(z: int, x: int, y: int) -> int:
    """(z, x, y) -> PMTiles tile id: base count of all lower-zoom tiles
    plus the Hilbert-curve index at zoom z (spec §tile addressing)."""
    if z > 31:
        raise ValueError("zoom > 31")
    if not (0 <= x < (1 << z) and 0 <= y < (1 << z)):
        raise ValueError(f"tile ({x},{y}) out of range for z{z}")
    acc = ((1 << (2 * z)) - 1) // 3          # sum 4^i, i<z
    n = 1 << z
    rx = ry = 0
    d = 0
    s = n >> 1
    while s > 0:
        rx = 1 if (x & s) else 0
        ry = 1 if (y & s) else 0
        d += s * s * ((3 * rx) ^ ry)
        x, y = _rotate(s, x, y, rx, ry)
        s >>= 1
    return acc + d


def tileid_to_zxy(tid: int) -> tuple[int, int, int]:
    z = 0
    acc = 0
    while True:
        size = 1 << (2 * z)
        if acc + size > tid:
            break
        acc += size
        z += 1
    d = tid - acc
    n = 1 << z
    x = y = 0
    s = 1
    while s < n:
        rx = 1 & (d // 2)
        ry = 1 & (d ^ rx)
        x, y = _rotate(s, x, y, rx, ry)
        x += s * rx
        y += s * ry
        d //= 4
        s <<= 1
    return z, x, y


# --- varint directory codec -------------------------------------------------


def serialize_directory(entries: list[tuple[int, int, int, int]]) -> bytes:
    """entries: sorted (tile_id, offset, length, run_length)."""
    out = bytearray(_varint(len(entries)))
    last = 0
    for tid, _o, _l, _r in entries:
        out += _varint(tid - last)
        last = tid
    for _t, _o, _l, r in entries:
        out += _varint(r)
    for _t, _o, ln, _r in entries:
        out += _varint(ln)
    for i, (_t, off, ln, _r) in enumerate(entries):
        if i > 0 and off == entries[i - 1][1] + entries[i - 1][2]:
            out += _varint(0)            # continuation
        else:
            out += _varint(off + 1)
    return bytes(out)


def deserialize_directory(buf: bytes) -> list[tuple[int, int, int, int]]:
    n, i = _read_varint(buf, 0)
    tids = []
    last = 0
    for _ in range(n):
        d, i = _read_varint(buf, i)
        last += d
        tids.append(last)
    runs = []
    for _ in range(n):
        r, i = _read_varint(buf, i)
        runs.append(r)
    lens = []
    for _ in range(n):
        ln, i = _read_varint(buf, i)
        lens.append(ln)
    offs = []
    for k in range(n):
        o, i = _read_varint(buf, i)
        if o == 0:
            offs.append(offs[-1] + lens[k - 1])
        else:
            offs.append(o - 1)
    return list(zip(tids, offs, lens, runs))


# --- header -----------------------------------------------------------------


_HDR = struct.Struct("<7sB QQQQQQQQ QQQ BBBB BB iiii B ii")


def _pack_header(h: dict) -> bytes:
    return _HDR.pack(
        MAGIC, 3,
        h["root_off"], h["root_len"], h["meta_off"], h["meta_len"],
        h["leaf_off"], h["leaf_len"], h["data_off"], h["data_len"],
        h["n_addressed"], h["n_entries"], h["n_contents"],
        1 if h.get("clustered", True) else 0,
        h.get("internal_compression", COMPRESSION_GZIP),
        h.get("tile_compression", COMPRESSION_NONE),
        h.get("tile_type", TILETYPE_MVT),
        h.get("min_zoom", 0), h.get("max_zoom", 0),
        int(h.get("min_lon", -180.0) * 1e7),
        int(h.get("min_lat", -85.0) * 1e7),
        int(h.get("max_lon", 180.0) * 1e7),
        int(h.get("max_lat", 85.0) * 1e7),
        h.get("center_zoom", 0),
        int(h.get("center_lon", 0.0) * 1e7),
        int(h.get("center_lat", 0.0) * 1e7))


def read_header(path: str) -> dict:
    with open(path, "rb") as f:
        raw = f.read(_HDR.size)
    v = _HDR.unpack(raw)
    if v[0] != MAGIC:
        raise ValueError("not a PMTiles file")
    if v[1] != 3:
        raise NotImplementedError(f"PMTiles spec version {v[1]} (v3 only)")
    keys = ("root_off", "root_len", "meta_off", "meta_len", "leaf_off",
            "leaf_len", "data_off", "data_len", "n_addressed", "n_entries",
            "n_contents", "clustered", "internal_compression",
            "tile_compression", "tile_type", "min_zoom", "max_zoom")
    h = dict(zip(keys, v[2:19]))
    h["min_lon"] = v[19] / 1e7
    h["min_lat"] = v[20] / 1e7
    h["max_lon"] = v[21] / 1e7
    h["max_lat"] = v[22] / 1e7
    h["center_zoom"] = v[23]
    h["center_lon"] = v[24] / 1e7
    h["center_lat"] = v[25] / 1e7
    return h


def _maybe_decompress(data: bytes, comp: int) -> bytes:
    if comp == COMPRESSION_GZIP:
        return gzip.decompress(data)
    return data


def read_metadata(path: str) -> dict:
    h = read_header(path)
    with open(path, "rb") as f:
        f.seek(h["meta_off"])
        raw = f.read(h["meta_len"])
    if not raw:
        return {}
    return json.loads(_maybe_decompress(raw, h["internal_compression"]))


def read_entries(path: str) -> list[tuple[int, int, int, int]]:
    """All tile entries (root + leaf directories), offsets relative to
    the tile-data section."""
    h = read_header(path)
    with open(path, "rb") as f:
        f.seek(h["root_off"])
        root = _maybe_decompress(f.read(h["root_len"]),
                                 h["internal_compression"])
        entries = []
        for tid, off, ln, run in deserialize_directory(root):
            if run == 0:          # leaf directory pointer
                f.seek(h["leaf_off"] + off)
                leaf = _maybe_decompress(f.read(ln),
                                         h["internal_compression"])
                entries.extend(deserialize_directory(leaf))
            else:
                entries.append((tid, off, ln, run))
    return entries


def get_tile(path: str, z: int, x: int, y: int) -> bytes | None:
    """Single-tile lookup (the interactive path; bulk reads use
    read_tiles)."""
    h = read_header(path)
    tid = zxy_to_tileid(z, x, y)
    for etid, off, ln, run in read_entries(path):
        if etid <= tid < etid + max(run, 1):
            with open(path, "rb") as f:
                f.seek(h["data_off"] + off)
                return _maybe_decompress(f.read(ln),
                                         h["tile_compression"])
    return None


def read_tiles(path: str):
    """All tiles as a streaming Dataset (z, x, y, data): the driver holds
    only the entry manifest; workers range-read + decompress their own
    payloads."""
    import ray.data as rd

    h = read_header(path)
    rows = []
    for tid, off, ln, run in read_entries(path):
        for k in range(max(run, 1)):
            z, x, y = tileid_to_zxy(tid + k)
            rows.append({"z": z, "x": x, "y": y,
                         "offset": h["data_off"] + off, "nbytes": ln})
    man = pa.Table.from_pylist(rows)
    comp = h["tile_compression"]

    def fetch(t: pa.Table) -> pa.Table:
        datas = []
        with open(path, "rb") as f:
            for i in range(t.num_rows):
                f.seek(t["offset"][i].as_py())
                datas.append(_maybe_decompress(
                    f.read(t["nbytes"][i].as_py()), comp))
        return pa.table({"z": t["z"], "x": t["x"], "y": t["y"],
                         "data": pa.array(datas, pa.binary())})

    return rd.from_arrow(man).map_batches(fetch, batch_format="pyarrow")


def write_pmtiles(path: str, tiles, tile_type: int = TILETYPE_MVT,
                  metadata: dict | None = None,
                  tile_compression: int = COMPRESSION_NONE,
                  bounds=(-180.0, -85.0, 180.0, 85.0)) -> dict:
    """tiles: iterable of (z, x, y, payload bytes).  Deduplicates
    identical payloads (n_contents < n_entries when tiles repeat, the
    spec's clustered layout), gzips directories + metadata."""
    items = sorted(((zxy_to_tileid(z, x, y), bytes(data))
                    for z, x, y, data in tiles), key=lambda t: t[0])
    if not items:
        raise ValueError("no tiles")
    if tile_compression == COMPRESSION_GZIP:
        items = [(tid, gzip.compress(d, 6)) for tid, d in items]
    # content dedup: identical payloads share a data slot
    data_parts: list[bytes] = []
    slot_of: dict[bytes, tuple[int, int]] = {}
    pos = 0
    entries = []
    for tid, d in items:
        if d in slot_of:
            off, ln = slot_of[d]
        else:
            off, ln = pos, len(d)
            slot_of[d] = (off, ln)
            data_parts.append(d)
            pos += ln
        entries.append((tid, off, ln, 1))
    root = gzip.compress(serialize_directory(entries), 6)
    meta = gzip.compress(json.dumps(metadata or {}).encode(), 6)
    zs = [tileid_to_zxy(t)[0] for t, _d in items]
    hdr = {
        "root_off": _HDR.size, "root_len": len(root),
        "meta_off": _HDR.size + len(root), "meta_len": len(meta),
        "leaf_off": _HDR.size + len(root) + len(meta), "leaf_len": 0,
        "data_off": _HDR.size + len(root) + len(meta),
        "data_len": pos,
        "n_addressed": len(items), "n_entries": len(entries),
        "n_contents": len(data_parts),
        "tile_type": tile_type, "tile_compression": tile_compression,
        "min_zoom": min(zs), "max_zoom": max(zs),
        "min_lon": bounds[0], "min_lat": bounds[1],
        "max_lon": bounds[2], "max_lat": bounds[3],
        "center_zoom": min(zs),
    }
    with open(path, "wb") as f:
        f.write(_pack_header(hdr))
        f.write(root)
        f.write(meta)
        for d in data_parts:
            f.write(d)
    return hdr
