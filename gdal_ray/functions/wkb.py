"""Minimal pure-Python/numpy WKB codec.

The reference's geometry wire format is WKB (OGRLayer Arrow bridge tags the
geometry column ``ARROW:extension:name = ogc.wkb``, reference:
``ogr/ogrsf_frmts/generic/ogrlayerarrow.cpp:443-566``,
``perftests/bench_ogr_to_geopandas.py:30-33``).  We carry geometry the same
way: a ``binary`` Arrow column of little-endian WKB.

Supported types: Point (1), LineString (2), Polygon (3), MultiPoint (4),
MultiLineString (5), MultiPolygon (6), the ISO curve and surface kinds below.
2-D only: Z/M variants raise unless the caller asks to drop the extra
ordinates (``decode(..., allow_zm=True)``).

Bulk point encode/decode is fully vectorized (the hot path: the document
corpus is point-dominant).  :func:`decode` parses one geometry into a
:class:`Geom` in Python.  The polygon side of a join does not: it reads the
rings of a whole WKB column at once with :func:`read_rings`, which walks the
headers one nesting level at a time across every row and gathers all
vertices through one byte-strided ``f8`` view of the Arrow value buffer
(Raptor's flat-array boundary processing, applied to the WKB itself).  Rows
it does not cover (non-areal kinds, Z/M, unknown codes, malformed rows) go
through :func:`decode`, so their results and errors are unchanged.
"""

from __future__ import annotations

import struct
from typing import NamedTuple

import numpy as np

POINT = 1
LINESTRING = 2
POLYGON = 3
MULTIPOINT = 4
MULTILINESTRING = 5
MULTIPOLYGON = 6
GEOMETRYCOLLECTION = 7
CIRCULARSTRING = 8  # ISO SQL/MM curve: arcs through consecutive point triples
COMPOUNDCURVE = 9   # sequence of LineString / CircularString segments
CURVEPOLYGON = 10   # polygon whose rings may be curves
MULTICURVE = 11     # collection of LineString / CircularString / CompoundCurve
MULTISURFACE = 12   # collection of Polygon / CurvePolygon
POLYHEDRALSURFACE = 15  # ISO surface: contiguous polygon patches
TIN = 16                # triangulated irregular network: Triangle patches
TRIANGLE = 17           # polygon restricted to one 4-point ring

_POINT_SIZE = 21  # 1 byte order + 4 type + 16 coords

# the kinds Geom.shells_and_holes gives rings for, and read_rings reads
_AREAL = np.array([POLYGON, TRIANGLE, MULTIPOLYGON, POLYHEDRALSURFACE, TIN])
_ZM = 0xC0000000  # EWKB Z and M flags
_SRID = 0x20000000  # EWKB SRID flag
_MEMBER_MIN = 9  # bytes of the smallest member: header + ring count


def encode_points(x: np.ndarray, y: np.ndarray) -> list[bytes]:
    """Vectorized bulk encode of POINT WKBs; returns a list of bytes objects."""
    x = np.asarray(x, dtype="<f8")
    y = np.asarray(y, dtype="<f8")
    n = x.size
    buf = np.empty((n, _POINT_SIZE), dtype=np.uint8)
    buf[:, 0] = 1  # little-endian
    buf[:, 1:5] = np.frombuffer(struct.pack("<I", POINT), dtype=np.uint8)
    buf[:, 5:13] = x.reshape(-1, 1).view(np.uint8)
    buf[:, 13:21] = y.reshape(-1, 1).view(np.uint8)
    return [row.tobytes() for row in buf]


def decode_points(wkbs) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized bulk decode of uniform POINT WKBs -> (x, y)."""
    arr = np.frombuffer(b"".join(wkbs), dtype=np.uint8).reshape(-1, _POINT_SIZE)
    x = arr[:, 5:13].copy().view("<f8").ravel()
    y = arr[:, 13:21].copy().view("<f8").ravel()
    return x, y


def _xy(pts) -> np.ndarray:
    """``pts`` as little-endian (N, 2) float64 vertices; an empty sequence is
    zero vertices.  Raises on any other shape: a count of N over k*N
    doubles would be a corrupt 2-D geometry."""
    a = np.asarray(pts, dtype="<f8")
    if a.size == 0:
        return a.reshape(0, 2)
    if a.ndim != 2 or a.shape[1] != 2:
        raise ValueError(f"WKB vertices must be (N, 2) X/Y, got shape {a.shape}")
    return a


def encode_polygon(rings: list[np.ndarray]) -> bytes:
    """rings: list of (N, 2) float64 arrays, first = shell, rest = holes.
    Rings must be closed (first == last vertex)."""
    out = [b"\x01", struct.pack("<II", POLYGON, len(rings))]
    for ring in rings:
        ring = _xy(ring)
        out.append(struct.pack("<I", len(ring)))
        out.append(ring.tobytes())
    return b"".join(out)


def encode_linestring(pts: np.ndarray) -> bytes:
    pts = _xy(pts)
    return b"\x01" + struct.pack("<II", LINESTRING, len(pts)) + pts.tobytes()


def encode_circularstring(pts: np.ndarray) -> bytes:
    """(N, 2) control points, N odd >= 3: arc k passes through points
    (2k, 2k+1, 2k+2) per ISO SQL/MM (ogr/ogr_core.h wkbCircularString)."""
    pts = _xy(pts)
    if len(pts) < 3 or len(pts) % 2 == 0:
        raise ValueError(f"CircularString needs an odd point count >= 3 "
                         f"(got {len(pts)})")
    return b"\x01" + struct.pack("<II", CIRCULARSTRING, len(pts)) + pts.tobytes()


def encode_collection(kind: int, members: list[bytes]) -> bytes:
    """A geometry of ``kind`` whose body is its member WKBs: the Multi*
    kinds, GeometryCollection, CompoundCurve, CurvePolygon, MultiCurve,
    MultiSurface, PolyhedralSurface, TIN."""
    return (b"\x01" + struct.pack("<II", kind, len(members))
            + b"".join(members))


def encode_geometrycollection(members: list[bytes]) -> bytes:
    """Members are full WKBs of any supported geometry."""
    return encode_collection(GEOMETRYCOLLECTION, members)


def encode_compoundcurve(members: list[bytes]) -> bytes:
    """Members are full WKBs of LineString / CircularString segments whose
    endpoints chain (ISO SQL/MM CompoundCurve)."""
    return encode_collection(COMPOUNDCURVE, members)


def encode_curvepolygon(rings: list[bytes]) -> bytes:
    """Rings are full WKBs of closed LineString / CircularString /
    CompoundCurve geometries (ISO SQL/MM CurvePolygon)."""
    return encode_collection(CURVEPOLYGON, rings)


def encode_multipoint(pts) -> bytes:
    """(N, 2) points -> MULTIPOINT of N POINT members."""
    pts = np.asarray(pts, dtype="<f8").reshape(len(pts), 2)
    return encode_collection(MULTIPOINT, encode_points(pts[:, 0], pts[:, 1]))


def encode_multilinestring(lines: list[np.ndarray]) -> bytes:
    """(N_i, 2) vertex arrays -> MULTILINESTRING of LINESTRING members."""
    return encode_collection(MULTILINESTRING,
                             [encode_linestring(p) for p in lines])


def encode_multipolygon(polys: list[list[np.ndarray]]) -> bytes:
    return encode_collection(MULTIPOLYGON,
                             [encode_polygon(rings) for rings in polys])


def encode_triangle(rings: list[np.ndarray]) -> bytes:
    """Triangle (WKB 17): a polygon body restricted to one 4-point ring."""
    if len(rings) != 1 or len(rings[0]) != 4:
        raise ValueError("Triangle needs exactly one closed 4-point ring")
    body = encode_polygon(rings)
    return b"\x01" + struct.pack("<I", TRIANGLE) + body[5:]


def encode_surface(polys: list[list[np.ndarray]], kind: int) -> bytes:
    """PolyhedralSurface (15: Polygon patches) / TIN (16: Triangle
    patches)."""
    if kind not in (POLYHEDRALSURFACE, TIN):
        raise ValueError(f"kind must be PolyhedralSurface or TIN, got {kind}")
    patch = encode_triangle if kind == TIN else encode_polygon
    return encode_collection(kind, [patch(rings) for rings in polys])


def encode_geom(g: "Geom") -> bytes:
    """Re-serialize a parsed 2-D Geom (linear types + CircularString)."""
    if g.kind == POINT:
        return encode_points(g.parts[0][:, 0], g.parts[0][:, 1])[0]
    if g.kind == LINESTRING:
        return encode_linestring(g.parts[0])
    if g.kind == CIRCULARSTRING:
        return encode_circularstring(g.parts[0])
    if g.kind == POLYGON:
        return encode_polygon(g.parts[0])
    if g.kind == MULTIPOLYGON:
        return encode_multipolygon(g.parts)
    if g.kind == MULTIPOINT:
        return encode_multipoint([pts[0] for pts in g.parts])
    if g.kind == MULTILINESTRING:
        return encode_multilinestring(g.parts)
    if g.kind in (COMPOUNDCURVE, CURVEPOLYGON, GEOMETRYCOLLECTION,
                  MULTICURVE, MULTISURFACE):
        return encode_collection(g.kind, [encode_geom(m) for m in g.parts])
    if g.kind == TRIANGLE:
        return encode_triangle(g.parts[0])
    if g.kind in (POLYHEDRALSURFACE, TIN):
        return encode_surface(g.parts, g.kind)
    raise ValueError(f"cannot re-encode geometry kind {g.kind}")


class Geom:
    """Parsed geometry: kind + list of parts.

    - POINT: parts = [(1,2) array]
    - LINESTRING: parts = [(N,2) array]
    - POLYGON: parts = [rings]  (one entry: list of (N,2) rings)
    - MULTI*: parts = list of the member parts
    """

    __slots__ = ("kind", "parts")

    def __init__(self, kind: int, parts):
        self.kind = kind
        self.parts = parts

    def rings(self) -> list[np.ndarray]:
        """All polygon rings (shells + holes) flattened; [] for non-areal."""
        if self.kind in (POLYGON, TRIANGLE):
            return self.parts[0]
        if self.kind in (MULTIPOLYGON, POLYHEDRALSURFACE, TIN):
            return [r for rings in self.parts for r in rings]
        return []

    def shells_and_holes(self) -> list[list[np.ndarray]]:
        """List of polygons, each a list of rings (shell first).
        PolyhedralSurface/TIN patches each count as one polygon (the
        reference's get_Area over surfaces sums patch areas,
        ogr/ogrpolyhedralsurface.cpp)."""
        if self.kind in (POLYGON, TRIANGLE):
            return [self.parts[0]]
        if self.kind in (MULTIPOLYGON, POLYHEDRALSURFACE, TIN):
            return self.parts
        return []

    def vertices(self) -> np.ndarray:
        """All vertices stacked (N, 2)."""
        arrs = []
        if self.kind in (POINT, LINESTRING):
            arrs = self.parts
        elif self.kind == POLYGON:
            arrs = self.parts[0]
        elif self.kind in (MULTIPOINT, MULTILINESTRING):
            arrs = self.parts
        elif self.kind in (MULTIPOLYGON, POLYHEDRALSURFACE, TIN):
            arrs = [r for rings in self.parts for r in rings]
        elif self.kind == TRIANGLE:
            arrs = self.parts[0]
        return np.concatenate(arrs, axis=0) if arrs else np.empty((0, 2))

    def bbox(self) -> tuple[float, float, float, float]:
        v = self.vertices()
        return (v[:, 0].min(), v[:, 1].min(), v[:, 0].max(), v[:, 1].max())


def _parse(buf: memoryview, off: int, allow_zm: bool = False) -> tuple[Geom, int]:
    byte_order = buf[off]
    fmt = "<" if byte_order == 1 else ">"
    (raw_type,) = struct.unpack_from(fmt + "I", buf, off + 1)
    off += 5
    if raw_type & 0x20000000:  # EWKB SRID flag: skip the 4-byte SRID value
        off += 4
    has_z = bool(raw_type & 0x80000000)  # EWKB flags
    has_m = bool(raw_type & 0x40000000)
    base = raw_type & 0x1FFFFFFF  # SRID flag stripped
    if base >= 1000:  # ISO type codes: 1000+Z, 2000+M, 3000+ZM
        has_z |= (base // 1000) in (1, 3)
        has_m |= (base // 1000) in (2, 3)
        base %= 1000
    if (has_z or has_m) and not allow_zm:
        raise ValueError(
            f"WKB Z/M variant (type {raw_type:#x}): this engine computes in "
            f"2-D — route through geomops.force_2d_batch (ogr2ogr -dim XY) "
            f"to drop the extra ordinates explicitly")
    dim = 2 + has_z + has_m
    gtype = base
    if gtype == POINT:
        pt = np.frombuffer(buf, dtype=fmt + "f8", count=dim, offset=off
                           ).reshape(1, dim)[:, :2]
        return Geom(POINT, [pt]), off + 8 * dim
    if gtype in (LINESTRING, CIRCULARSTRING):
        (n,) = struct.unpack_from(fmt + "I", buf, off)
        off += 4
        pts = np.frombuffer(buf, dtype=fmt + "f8", count=dim * n, offset=off
                            ).reshape(n, dim)[:, :2]
        return Geom(gtype, [pts]), off + 8 * dim * n
    if gtype in (POLYGON, TRIANGLE):
        (nrings,) = struct.unpack_from(fmt + "I", buf, off)
        off += 4
        rings = []
        for _ in range(nrings):
            (n,) = struct.unpack_from(fmt + "I", buf, off)
            off += 4
            rings.append(np.frombuffer(buf, dtype=fmt + "f8", count=dim * n,
                                       offset=off).reshape(n, dim)[:, :2])
            off += 8 * dim * n
        if gtype == TRIANGLE and (len(rings) != 1 or len(rings[0]) != 4):
            raise ValueError("WKB Triangle must be one closed 4-point ring "
                             "(ogr/ogrtriangle.cpp importFromWkb contract)")
        return Geom(gtype, [rings]), off
    if gtype in (COMPOUNDCURVE, CURVEPOLYGON, GEOMETRYCOLLECTION,
                 MULTICURVE, MULTISURFACE):
        (nparts,) = struct.unpack_from(fmt + "I", buf, off)
        off += 4
        members = []
        for _ in range(nparts):
            g, off = _parse(buf, off, allow_zm)
            members.append(g)  # full member Geoms (kind matters downstream)
        return Geom(gtype, members), off
    if gtype in (MULTIPOINT, MULTILINESTRING, MULTIPOLYGON,
                 POLYHEDRALSURFACE, TIN):
        (nparts,) = struct.unpack_from(fmt + "I", buf, off)
        off += 4
        parts = []
        for _ in range(nparts):
            g, off = _parse(buf, off, allow_zm)
            # member Geom stores its payload at parts[0] for every member
            # kind (point/linestring array, or a polygon's ring list)
            parts.append(g.parts[0])
        return Geom(gtype, parts), off
    raise ValueError(f"unsupported WKB geometry type {gtype}")


def decode(wkb: bytes, allow_zm: bool = False) -> Geom:
    """Parse a WKB.  ``allow_zm=True`` accepts ISO/EWKB Z/M variants and
    DROPS the extra ordinates (the force-2d read mode); the default is
    strict 2-D so Z data can't silently lose its third dimension."""
    g, _ = _parse(memoryview(wkb), 0, allow_zm)
    return g


def geom_type(wkb: bytes) -> int:
    fmt = "<" if wkb[0] == 1 else ">"
    (gtype,) = struct.unpack_from(fmt + "I", wkb, 1)
    return gtype & 0xFF


def bboxes(wkbs) -> np.ndarray:
    """(N, 4) array of (minx, miny, maxx, maxy) for a column of WKBs (a list
    of bytes or a binary Arrow column).  Areal rows take it from their ring
    vertices (:func:`read_rings`); other rows from their ``Geom``, as
    ``Geom.bbox`` does."""
    rings, decoded = _read(wkbs)
    n = rings.kind.size
    out = np.empty((n, 4), dtype=np.float64)
    areal = np.isin(rings.kind, _AREAL)
    for i in np.flatnonzero(~areal):
        out[i] = decoded[i].bbox()
    row_voff = rings.ring_voff[rings.row_roff]
    has_v = np.diff(row_voff) > 0
    if (areal & ~has_v).any():
        i = int(np.flatnonzero(areal & ~has_v)[0])
        raise ValueError(f"row {i}: an areal geometry without vertices has no bbox")
    if has_v.any():
        # rows without vertices hold none, so each segment is one row's
        starts = row_voff[:-1][has_v]
        for j, (v, reduce) in enumerate(((rings.x, np.minimum), (rings.y, np.minimum),
                                         (rings.x, np.maximum), (rings.y, np.maximum))):
            out[has_v, j] = reduce.reduceat(v, starts)
    return out


def offsets(counts: np.ndarray) -> np.ndarray:
    """(len + 1,) int64 CSR offsets of ``counts``."""
    out = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=out[1:])
    return out


class Rings(NamedTuple):
    """Polygon rings of a column of geometries, flat: row -> ring -> vertex.
    A row's rings are those of ``Geom.shells_and_holes()``, polygon by
    polygon, shell first; non-areal rows have none."""

    kind: np.ndarray  # (rows,) base type code (SRID flag stripped)
    x: np.ndarray  # (vertices,) float64
    y: np.ndarray  # (vertices,) float64
    ring_voff: np.ndarray  # (rings + 1,) vertex offsets of each ring
    ring_hole: np.ndarray  # (rings,) True for a hole, False for a shell
    row_roff: np.ndarray  # (rows + 1,) ring offsets of each row

    def only(self, rows: np.ndarray) -> "Rings":
        """The same rows, keeping the rings of the rows where ``rows`` is
        True only."""
        if rows.all():
            return self
        nr = np.diff(self.row_roff)
        keep = np.repeat(rows, nr)
        nv = np.diff(self.ring_voff)
        kv = np.repeat(keep, nv)
        return Rings(self.kind, self.x[kv], self.y[kv], offsets(nv[keep]),
                     self.ring_hole[keep], offsets(np.where(rows, nr, 0)))


def rings_of(geoms: list) -> Rings:
    """:class:`Rings` of decoded geometries, one row per ``Geom``."""
    rings, hole, nr = [], [], []
    for g in geoms:
        n = len(rings)
        for poly in g.shells_and_holes():
            rings += poly
            hole += [j > 0 for j in range(len(poly))]
        nr.append(len(rings) - n)
    v = np.concatenate(rings).astype(np.float64) if rings else np.empty((0, 2))
    kind = np.fromiter((g.kind for g in geoms), np.int64, len(geoms))
    return Rings(kind, v[:, 0].copy(), v[:, 1].copy(),
                 offsets(np.fromiter(map(len, rings), np.int64, len(rings))),
                 np.array(hole, dtype=bool), offsets(np.array(nr, dtype=np.int64)))


class _Bytes:
    """Unaligned reads from one value buffer: byte-strided ``u4`` / ``f8``
    views (element i = the bytes from i on), in both byte orders."""

    def __init__(self, data: np.ndarray):
        self.u8 = data

        def view(dt: str):
            size = np.dtype(dt).itemsize
            return np.ndarray((max(data.size - size + 1, 0),), dt, data, 0, (1,))

        self._u4 = view("<u4"), view(">u4")
        self._f8 = view("<f8"), view(">f8")

    def _read(self, views, p: np.ndarray, le: np.ndarray, dtype) -> np.ndarray:
        if le.all():
            return views[0][p].astype(dtype, copy=False)
        out = np.empty(p.size, dtype=dtype)
        out[le] = views[0][p[le]]
        out[~le] = views[1][p[~le]]
        return out

    def u4(self, p: np.ndarray, le: np.ndarray) -> np.ndarray:
        return self._read(self._u4, p, le, np.int64)

    def f8(self, p: np.ndarray, le: np.ndarray) -> np.ndarray:
        return self._read(self._f8, p, le, np.float64)

    def header(self, p: np.ndarray):
        """(little-endian, base type, Z/M flags, position after the header)
        of the geometry headers at ``p``."""
        le = self.u8[p] == 1
        raw = self.u4(p + 1, le)
        return le, raw & 0x1FFFFFFF, raw & _ZM, p + 5 + 4 * ((raw & _SRID) != 0)


def _bodies(b: _Bytes, row, p, end, le, tri, bad, recs) -> np.ndarray:
    """Read the polygon bodies (ring count, then rings) at ``p``, all at
    once, ring index by ring index.  Appends one (row, vertex byte position,
    vertex count, little-endian, hole) record array tuple per step to
    ``recs``; marks in ``bad`` the rows that run past ``end`` or break the
    Triangle shape where ``tri``.  Returns the position after each body."""
    cur = p + 4
    live = cur <= end
    nr = np.zeros(p.size, dtype=np.int64)
    nr[live] = b.u4(p[live], le[live])
    # a ring takes >= 4 bytes, which also bounds the loop below
    live &= (nr <= (end - cur) // 4) & (~tri | (nr == 1))
    for j in range(int(nr[live].max(initial=0))):
        a = np.flatnonzero(live & (nr > j))
        fits = cur[a] + 4 <= end[a]
        live[a[~fits]] = False
        a = a[fits]
        nv = b.u4(cur[a], le[a])
        fits = (nv <= (end[a] - cur[a] - 4) // 16) & (~tri[a] | (nv == 4))
        live[a[~fits]] = False
        a, nv = a[fits], nv[fits]
        recs.append((row[a], cur[a] + 4, nv, le[a], np.full(a.size, j > 0)))
        cur[a] += 4 + 16 * nv
    bad[row[~live]] = True
    return cur


def _chunk_rings(arr, large: bool):
    """(kind, ring rows, ring vertex counts, ring holes, x, y, {row: Geom of
    the rows decoded}) of one binary (``large``: large_binary) Arrow array,
    rings in row order."""
    n = len(arr)
    _, obuf, dbuf = arr.buffers()
    offs = np.frombuffer(obuf, np.int64 if large else np.int32)
    offs = offs[arr.offset:arr.offset + n + 1].astype(np.int64)
    b = _Bytes(np.frombuffer(dbuf, np.uint8) if dbuf is not None else np.zeros(0, np.uint8))
    start, end = offs[:-1], offs[1:]
    ok = end - start >= _MEMBER_MIN
    if arr.null_count:
        ok &= ~arr.is_null().to_numpy(zero_copy_only=False)
    kind = np.zeros(n, dtype=np.int64)
    bad = ~ok
    recs: list = []
    row = np.flatnonzero(ok)
    le, base, zm, p = b.header(start[row])
    kind[row] = base
    fast = (zm == 0) & np.isin(base, _AREAL) & (p + 4 <= end[row])
    bad[row[~fast]] = True
    row, le, base, p = row[fast], le[fast], base[fast], p[fast]
    single = (base == POLYGON) | (base == TRIANGLE)
    r = row[single]
    _bodies(b, r, p[single], end[r], le[single], base[single] == TRIANGLE, bad, recs)
    # multi kinds: member k of every row at once, each member a header + body
    r, le, p = row[~single], le[~single], p[~single]
    cur, e = p + 4, end[r]
    nparts = b.u4(p, le)
    live = nparts <= (e - cur) // _MEMBER_MIN
    bad[r[~live]] = True
    for k in range(int(nparts[live].max(initial=0))):
        a = np.flatnonzero(live & (nparts > k) & ~bad[r])
        fits = cur[a] + _MEMBER_MIN <= e[a]
        bad[r[a[~fits]]] = True
        a = a[fits]
        mle, mbase, mzm, mp = b.header(cur[a])
        fits = (mzm == 0) & ((mbase == POLYGON) | (mbase == TRIANGLE))
        bad[r[a[~fits]]] = True
        a, mle, mbase, mp = a[fits], mle[fits], mbase[fits], mp[fits]
        cur[a] = _bodies(b, r[a], mp, e[a], mle, mbase == TRIANGLE, bad, recs)
    rrow, vpos, nv, rle, hole = (np.concatenate(c) for c in zip(*recs)) if recs else \
        (np.empty(0, np.int64),) * 3 + (np.empty(0, bool),) * 2
    keep = ~bad[rrow]
    rrow, vpos, nv, rle, hole = (a[keep] for a in (rrow, vpos, nv, rle, hole))
    # vertex k of the column is 16 bytes on from the one before, within a ring
    pos = np.arange(int(nv.sum()), dtype=np.int64)
    pos *= 16
    pos += np.repeat(vpos - 16 * offsets(nv)[:-1], nv)
    # little-endian rings only: one flag stands for every vertex
    vle = rle[:1] if rle.all() else np.repeat(rle, nv)
    x, y = b.f8(pos, vle), b.f8(pos + 8, vle)
    slow = np.flatnonzero(bad)
    decoded = {int(i): decode(arr[int(i)].as_py()) for i in slow}
    if slow.size:
        # everything else goes through decode: same geometry, same errors
        g = rings_of(list(decoded.values()))
        kind[slow] = g.kind
        rrow = np.concatenate([rrow, np.repeat(slow, np.diff(g.row_roff))])
        nv = np.concatenate([nv, np.diff(g.ring_voff)])
        hole = np.concatenate([hole, g.ring_hole])
        x, y = np.concatenate([x, g.x]), np.concatenate([y, g.y])
    if (np.diff(rrow) < 0).any():
        # each row's rings come out in order, but multi-kind and decoded rows
        # come after the others: a stable sort by row interleaves them
        order = np.argsort(rrow, kind="stable")
        first = np.repeat(offsets(nv[order])[:-1], nv[order])
        vi = np.repeat(offsets(nv)[:-1][order], nv[order]) + np.arange(first.size) - first
        rrow, nv, hole, x, y = rrow[order], nv[order], hole[order], x[vi], y[vi]
    return kind, rrow, nv, hole, x, y, decoded


def read_rings(col) -> Rings:
    """:class:`Rings` of every row of a WKB column without a ``Geom`` per
    row.  ``col`` is a binary / large_binary Arrow Array or ChunkedArray,
    sliced or not; any other column (a list of bytes, another type) is
    decoded row by row."""
    return _read(col)[0]


def _read(col) -> tuple:
    """(:func:`read_rings`, {row: Geom} of the rows it decoded)."""
    import pyarrow as pa

    if isinstance(col, (list, tuple)) and all(isinstance(w, bytes) for w in col):
        col = pa.array(col, pa.large_binary())
    if not (isinstance(col, (pa.Array, pa.ChunkedArray)) and (
            pa.types.is_binary(col.type) or pa.types.is_large_binary(col.type))):
        geoms = [decode(w) for w in (col.to_pylist() if hasattr(col, "to_pylist") else col)]
        return rings_of(geoms), dict(enumerate(geoms))
    large = pa.types.is_large_binary(col.type)
    kinds, nrs, nvs, holes, xs, ys, decoded = [], [], [], [], [], [], {}
    for arr in (col.chunks if isinstance(col, pa.ChunkedArray) else [col]):
        kind, rrow, nv, hole, x, y, geoms = _chunk_rings(arr, large)
        base = sum(map(len, kinds))
        decoded.update((base + i, g) for i, g in geoms.items())
        kinds.append(kind)
        nrs.append(np.bincount(rrow, minlength=kind.size))
        nvs.append(nv)
        holes.append(hole)
        xs.append(x)
        ys.append(y)
    cat = (lambda a, dt: np.concatenate(a) if a else np.empty(0, dt))
    return Rings(cat(kinds, np.int64), cat(xs, np.float64), cat(ys, np.float64),
                 offsets(cat(nvs, np.int64)), cat(holes, bool),
                 offsets(cat(nrs, np.int64))), decoded


def ring_area(ring: np.ndarray) -> float:
    """Signed shoelace area (positive = CCW)."""
    x, y = ring[:, 0], ring[:, 1]
    return 0.5 * float(np.sum(x[:-1] * y[1:] - x[1:] * y[:-1]))


def geom_area(g: Geom) -> float:
    """Areal area: |shell| - |holes| per polygon, summed (GEOS Area semantics,
    reference: ogr/ogrgeometry.cpp OGR_G_Area)."""
    total = 0.0
    for rings in g.shells_and_holes():
        if not rings:
            continue
        total += abs(ring_area(rings[0]))
        for hole in rings[1:]:
            total -= abs(ring_area(hole))
    return total


def geom_centroid(g: Geom) -> tuple[float, float]:
    """Area-weighted centroid for areal geoms; vertex mean otherwise."""
    polys = g.shells_and_holes()
    if polys:
        cx = cy = a_sum = 0.0
        for rings in polys:
            for j, ring in enumerate(rings):
                x, y = ring[:-1, 0], ring[:-1, 1]
                x1, y1 = ring[1:, 0], ring[1:, 1]
                cross = x * y1 - x1 * y
                a = cross.sum() / 2.0
                if a == 0:
                    continue
                sign = 1.0 if j == 0 else -1.0
                cx += sign * abs(a) * float(((x + x1) * cross).sum() / (6.0 * a))
                cy += sign * abs(a) * float(((y + y1) * cross).sum() / (6.0 * a))
                a_sum += sign * abs(a)
        if a_sum != 0:
            return cx / a_sum, cy / a_sum
    v = g.vertices()
    return float(v[:, 0].mean()), float(v[:, 1].mean())
