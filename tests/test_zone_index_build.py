"""The zone index build from a columnar read of the WKB column
(``wkb.read_rings``), pinned to the per-geometry build it replaces.

The reference below is a copy of the previous build: ``wkb.decode`` of every
zone, a per-zone rectangle test (the four distinct box corners in ring
order), and the list form of ``pip.edge_csr``; its grid is a loop over the
zones and the cells of each zone's cover, which marks a cell interior when
it lies strictly inside a rectangle's cover.  Every ``_ZoneIndex`` array must
equal it bit for bit, except the cells of the general polygons the index
classifies (one closed ring, finite): each of their cover cells is a
boundary entry, an interior entry or dropped, and a pure-Python check per
cell (a segment-vs-cell test of every edge against the cell shrunk by a
hair, and the even-odd parity of the cell's centre) must confirm every
interior entry (inside the cover's border, untouched, centre inside) and
every dropped cell (untouched, centre outside).  This holds on both
perfbench zone tables (a sample of the octagons), on Hypothesis tables that
mix the areal kinds with rows the columnar reader hands to ``wkb.decode``
(points, lines, either byte order, EWKB SRIDs), and on an empty table.
Malformed rows must fail as ``wkb.decode`` fails on them, without reading
past their end.
"""

import os
import re
import statistics
import struct
import sys
import tracemalloc
from collections import defaultdict

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gdal_ray.functions import pip, wkb
from gdal_ray.stages.join import _ZoneIndex

BOX = ("minx", "miny", "maxx", "maxy")

# --- reference: the per-geometry build ---------------------------------------


def _ref_rect_like(g, box) -> bool:
    if g.kind != wkb.POLYGON or len(g.parts[0]) != 1:
        return False
    ring = [tuple(p) for p in g.parts[0][0]]
    if len(ring) != 5 or ring[4] != ring[0]:
        return False
    corners = {(box[0], box[1]), (box[2], box[1]), (box[2], box[3]), (box[0], box[3])}
    if len(corners) != 4 or set(ring[:4]) != corners:
        return False
    # corner to corner along an edge, never across a diagonal
    return all(p[0] == q[0] or p[1] == q[1] for p, q in zip(ring, ring[1:]))


def _ref_edge_csr(zones: list) -> pip.EdgeCSR:
    rings, hole, z_nr = [], [], []
    for polys in zones:
        n = len(rings)
        for poly in polys:
            rings += poly
            hole += [j > 0 for j in range(len(poly))]
        z_nr.append(len(rings) - n)
    nv = np.fromiter(map(len, rings), np.int64, len(rings))
    ring_eoff = np.concatenate(([0], np.cumsum(np.maximum(nv - 1, 0))))
    z_roff = np.concatenate(([0], np.cumsum(z_nr, dtype=np.int64)))
    v = np.concatenate(rings).astype(np.float64) if rings else np.empty((0, 2))
    i0 = np.delete(np.arange(len(v)), (np.cumsum(nv) - 1)[nv > 0])
    (x0, y0), (x1, y1) = v[i0].T, v[i0 + 1].T
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        slope = (x1 - x0) / np.where((y1 - y0) == 0, 1.0, (y1 - y0))
    return pip.EdgeCSR(x0, y0, y1, slope, ring_eoff, np.array(hole, dtype=bool), z_roff)


def _ref_grid(boxes: np.ndarray, is_rect: np.ndarray):
    """(csr_off, csr_mid, csr_val, always) by a loop over the zones and the
    cells of each zone's box cover.  A cell of a rectangle's cover is
    interior when it is neither in the cover's first or last column nor in
    its first or last row; each cell lists its interior zones, then its
    boundary zones, both ascending.  Zones covering more than
    ``MAX_COVER_CELLS * CELL_DIVISOR**2`` cells go to the always list."""
    if len(boxes) == 0:
        return [0, 0], [0], [], []
    div, cap = _ZoneIndex.CELL_DIVISOR, _ZoneIndex.MAX_COVER_CELLS
    minx, miny, maxx, maxy = (boxes[:, j].tolist() for j in range(4))
    x0, y0, x1, y1 = min(minx), min(miny), max(maxx), max(maxy)
    w = (statistics.median(b - a for a, b in zip(minx, maxx)) or 1.0) / div
    h = (statistics.median(b - a for a, b in zip(miny, maxy)) or 1.0) / div
    nx = int(min(max((x1 - x0) / max(w, 1e-9), 1), 4096))
    ny = int(min(max((y1 - y0) / max(h, 1e-9), 1), 4096))
    fx, fy = nx / max(x1 - x0, 1e-9), ny / max(y1 - y0, 1e-9)

    def col(x):
        return min(max(int((x - x0) * fx), 0), nx - 1)

    def row(y):
        return min(max(int((y - y0) * fy), 0), ny - 1)

    lists, always = defaultdict(lambda: ([], [])), []
    for z in range(len(boxes)):
        cx0, cx1, cy0, cy1 = col(minx[z]), col(maxx[z]), row(miny[z]), row(maxy[z])
        if (cx1 - cx0 + 1) * (cy1 - cy0 + 1) > cap * div**2:
            always.append(z)
            continue
        for gy in range(cy0, cy1 + 1):
            for gx in range(cx0, cx1 + 1):
                inner = is_rect[z] and cx0 < gx < cx1 and cy0 < gy < cy1
                lists[gy * nx + gx][0 if inner else 1].append(z)
    off, mid, val = [0], [], []
    for c in range(nx * ny):
        inner, bound = lists.get(c, ([], []))
        mid.append(off[-1] + len(inner))
        val += inner + bound
        off.append(len(val))
    return off, mid, val, always


def _classified(g, rect: bool) -> bool:
    """Whether the index classifies a zone's cells: not a rectangle, one
    closed ring of four or more vertices, every coordinate finite."""
    rings = g.shells_and_holes()
    if rect or len(rings) != 1 or len(rings[0]) != 1:
        return False
    ring = np.asarray(rings[0][0], dtype=np.float64)
    return (len(ring) >= 4 and bool(np.isfinite(ring).all())
            and tuple(ring[0]) == tuple(ring[-1]))


def _segment_meets_box(p, q, x0, y0, x1, y1) -> bool:
    """Liang-Barsky: does the closed segment p-q meet the closed box?"""
    t0, t1 = 0.0, 1.0
    for d, lo, hi, a in ((q[0] - p[0], x0, x1, p[0]), (q[1] - p[1], y0, y1, p[1])):
        if d == 0:
            if a < lo or a > hi:
                return False
            continue
        ta, tb = (lo - a) / d, (hi - a) / d
        t0, t1 = max(t0, min(ta, tb)), min(t1, max(ta, tb))
        if t0 > t1:
            return False
    return True


def _inside(ring, x, y) -> bool:
    """Even-odd crossing test of one point against one ring, in Python."""
    odd = False
    for (xa, ya), (xb, yb) in zip(ring[:-1], ring[1:]):
        if (ya > y) != (yb > y) and x < xa + (y - ya) * (xb - xa) / (yb - ya):
            odd = not odd
    return odd


def _check_cells(zi, z: int, ring, cells: dict):
    """Each cover cell of classified zone ``z``: its part in the index
    (``cells[c]``: 0 interior, 1 boundary, absent = dropped) against a
    segment-vs-cell test of every edge and the parity of the cell centre."""
    ring = [tuple(map(float, v)) for v in ring]
    cx0, cy0 = (int(v) for v in zi._cell_xy(zi.boxes[z, 0], zi.boxes[z, 1]))
    cx1, cy1 = (int(v) for v in zi._cell_xy(zi.boxes[z, 2], zi.boxes[z, 3]))
    wx, wy = 1.0 / zi.inv_dx, 1.0 / zi.inv_dy
    for gy in range(cy0, cy1 + 1):
        for gx in range(cx0, cx1 + 1):
            part = cells.get(gy * zi.nx + gx)
            if part == 1:
                continue
            # the cell shrunk by a hair: its points map to it whatever the rounding
            bx0, by0 = zi.x0 + gx * wx, zi.y0 + gy * wy
            e = 1e-9 * (wx + wy)
            box = (bx0 + e, by0 + e, bx0 + wx - e, by0 + wy - e)
            centre = (bx0 + wx / 2, by0 + wy / 2)
            if gx in (0, zi.nx - 1) or gy in (0, zi.ny - 1):
                # a grid-border cell also takes every point beyond the grid,
                # and is never interior
                assert part is None, (z, gx, gy)
                box = (-np.inf if gx == 0 else box[0], -np.inf if gy == 0 else box[1],
                       np.inf if gx == zi.nx - 1 else box[2], np.inf if gy == zi.ny - 1 else box[3])
            assert not any(_segment_meets_box(p, q, *box) for p, q in zip(ring[:-1], ring[1:])), \
                (z, gx, gy, part)
            if part == 0:
                assert cx0 < gx < cx1 and cy0 < gy < cy1
            assert _inside(ring, *centre) == (part == 0), (z, gx, gy, part)


def _reference(zones: pa.Table):
    """(boxes, is_rect, edges, grid) of the per-geometry build."""
    wkbs = zones["wkb"].to_pylist()
    geoms = [wkb.decode(w) for w in wkbs]
    if set(BOX) <= set(zones.column_names):
        cols = [zones[c].to_numpy(zero_copy_only=False) for c in BOX]
    else:
        cols = np.array([wkb.decode(w).bbox() for w in wkbs]).reshape(-1, 4).T
    boxes = np.array(cols, dtype=np.float64).T
    is_rect = np.array([_ref_rect_like(g, b) for g, b in zip(geoms, boxes)],
                       dtype=bool).reshape(-1)
    edges = _ref_edge_csr([[] if r else g.shells_and_holes() for g, r in zip(geoms, is_rect)])
    grid = [np.array(a, dtype=np.int64) for a in _ref_grid(boxes, is_rect)]
    general = [_classified(g, r) for g, r in zip(geoms, is_rect)]
    return boxes, is_rect, edges, grid, geoms, np.array(general, dtype=bool).reshape(-1)


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b, equal_nan=True)


AREAL = (wkb.POLYGON, wkb.TRIANGLE, wkb.MULTIPOLYGON, wkb.POLYHEDRALSURFACE, wkb.TIN)


def _decode_calls(fn, *args):
    """(fn(*args), number of ``wkb.decode`` calls it made)."""
    decode, calls = wkb.decode, []
    wkb.decode = lambda *a, **k: calls.append(1) or decode(*a, **k)
    try:
        return fn(*args), len(calls)
    finally:
        wkb.decode = decode


def _parts(off, mid, val) -> dict:
    """{(cell, zone): 0 interior / 1 boundary} of a CSR grid, checking that
    each part of each cell lists its zones ascending."""
    out = {}
    for c in range(len(off) - 1):
        for part, (a, b) in enumerate(((off[c], mid[c]), (mid[c], off[c + 1]))):
            zs = [int(z) for z in val[a:b]]
            assert zs == sorted(set(zs)), c
            out.update(((c, z), part) for z in zs)
    return out


def _assert_matches_reference(zones: pa.Table, sample: int | None = None):
    """Every index array equals the reference, but for the cells of the
    classified zones, which are checked cell by cell (on ``sample`` of them
    when given); only the non-areal rows (points, lines) went through
    ``wkb.decode``."""
    (boxes, is_rect, edges, (csr_off, csr_mid, csr_val, always), geoms,
     general) = _reference(zones)
    non_areal = sum(wkb.decode(w).kind not in AREAL for w in zones["wkb"].to_pylist())
    zi, calls = _decode_calls(_ZoneIndex, zones)
    # boxes absent, ``wkb.bboxes`` reads the column once more
    has_box = set(BOX) <= set(zones.column_names)
    assert calls == non_areal * (1 if has_box else 2)
    assert _same(zi.boxes, boxes)
    assert _same(zi.is_rect, is_rect)
    for f in pip.EdgeCSR._fields:
        assert _same(getattr(zi.edges, f), getattr(edges, f)), f
    assert _same(zi.always, always)
    for a in (zi.csr_off, zi.csr_mid, zi.csr_val):
        assert a.dtype == np.int64
    assert (zi.csr_off.size, zi.csr_mid.size) == (csr_off.size, csr_mid.size)
    got, want = _parts(zi.csr_off, zi.csr_mid, zi.csr_val), _parts(csr_off, csr_mid, csr_val)
    general[always] = False
    mine = general[[z for _, z in want]] if want else np.zeros(0, bool)
    # the other zones' entries are the reference's, and a classified zone's
    # entries are cells of its cover
    assert {k: v for k, v in got.items() if not general[k[1]]} == \
        {k: v for (k, v), m in zip(want.items(), mine) if not m}
    assert {k for k in got if general[k[1]]} <= {k for k, m in zip(want, mine) if m}
    per_zone: dict = {}
    for (c, z), part in got.items():
        if general[z]:
            per_zone.setdefault(z, {})[c] = part
    zs = np.flatnonzero(general)
    if sample is not None and zs.size > sample:
        zs = np.random.default_rng(0).choice(zs, sample, replace=False)
    for z in zs:
        _check_cells(zi, int(z), np.asarray(geoms[z].shells_and_holes()[0][0]), per_zone.get(z, {}))
    return zi


# --- the perfbench zone tables -----------------------------------------------


@pytest.fixture(scope="module")
def perfbench_workloads():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    return workloads


@pytest.mark.parametrize("name", ["zonal_rect", "pairs_polygon"])
def test_perfbench_zone_tables_match_reference(perfbench_workloads, tmp_path, name):
    zones = perfbench_workloads.WORKLOADS[name](11, False, str(tmp_path)).zones
    zi = _assert_matches_reference(zones, sample=300)
    assert zi.is_rect.all() if name == "zonal_rect" else not zi.is_rect.any()
    # interior entries: 9 of a median rectangle's 25; 135,640 of the 498,917
    # cover cells of the octagons, whose corners drop 44,424 exterior cells
    n_in = int((zi.csr_mid - zi.csr_off[:-1]).sum())
    if name == "zonal_rect":
        assert 0.3 < n_in / zi.csr_val.size < 0.4
    else:
        assert (n_in, zi.csr_val.size) == (135_640, 498_917 - 44_424)
    # and without the box columns: boxes from the rings
    _assert_matches_reference(zones.drop_columns(list(BOX)), sample=300)


@pytest.mark.parametrize("name", ["zonal_rect", "pairs_polygon"])
def test_build_peak_is_a_few_csr_arrays(perfbench_workloads, tmp_path, name):
    """The grid build holds a few (cell, zone) arrays at once: its
    tracemalloc peak, ring read and edge CSR included, stays within 7x the
    finished ``csr_val`` (the build that sorted a separate key per entry
    peaked at 9.1x and 10.7x on these tables)."""
    zones = perfbench_workloads.WORKLOADS[name](11, False, str(tmp_path)).zones
    _ZoneIndex(zones)
    tracemalloc.start()
    try:
        zi = _ZoneIndex(zones)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 7 * zi.csr_val.nbytes, (peak, zi.csr_val.nbytes)


# --- Hypothesis tables -------------------------------------------------------

coord = st.integers(-6, 6).map(float)


def _hdr(kind: int, big: bool, srid: bool) -> bytes:
    o = ">" if big else "<"
    code = kind | (0x20000000 if srid else 0)
    return (b"\x00" if big else b"\x01") + struct.pack(o + "I", code) + \
        (struct.pack(o + "I", 4326) if srid else b"")


def _encode(g, big: bool, srid: bool) -> bytes:
    """WKB of a (kind, payload) description; multi members carry their own
    (geometry, big, srid)."""
    kind, payload = g
    o = ">" if big else "<"
    head = _hdr(kind, big, srid)
    if kind == wkb.POINT:
        return head + np.asarray(payload, o + "f8").tobytes()
    if kind == wkb.LINESTRING:
        return head + struct.pack(o + "I", len(payload)) + np.asarray(payload, o + "f8").tobytes()
    if kind in (wkb.POLYGON, wkb.TRIANGLE):
        body = [struct.pack(o + "I", len(payload))]
        for ring in payload:
            body += [struct.pack(o + "I", len(ring)), np.asarray(ring, o + "f8").tobytes()]
        return head + b"".join(body)
    return head + struct.pack(o + "I", len(payload)) + b"".join(_encode(*m) for m in payload)


@st.composite
def _rect(draw):
    x0, x1, y0, y1 = draw(coord), draw(coord), draw(coord), draw(coord)
    ring = [[x0, y0], [x1, y0], [x1, y1], [x0, y1]]
    k = draw(st.integers(0, 3))
    ring = ring[k:] + ring[:k]
    if draw(st.booleans()):
        ring = ring[::-1]
    return ring + ring[:1]


@st.composite
def _ring(draw):
    """Closed ring of 4-9 points; 5-point rings with a duplicated corner or
    zero width come up often on this small grid."""
    pts = draw(st.lists(st.tuples(coord, coord), min_size=3, max_size=8))
    return [list(p) for p in pts] + [list(pts[0])]


@st.composite
def _polygon(draw):
    shell = draw(st.one_of(_rect(), _ring()))
    holes = draw(st.lists(_ring(), max_size=2))
    return (wkb.POLYGON, [shell] + holes)


@st.composite
def _triangle(draw):
    p = [[draw(coord), draw(coord)] for _ in range(3)]
    return (wkb.TRIANGLE, [p + p[:1]])


_flags = st.tuples(st.booleans(), st.booleans())  # (big-endian, EWKB SRID)


@st.composite
def _geometry(draw):
    kind = draw(st.sampled_from(["rect", "polygon", "triangle", "multipolygon", "surface",
                                 "tin", "point", "line"]))
    if kind == "rect":
        g = (wkb.POLYGON, [draw(_rect())])
    elif kind == "polygon":
        g = draw(_polygon())
    elif kind == "triangle":
        g = draw(_triangle())
    elif kind in ("multipolygon", "surface"):
        code = wkb.MULTIPOLYGON if kind == "multipolygon" else wkb.POLYHEDRALSURFACE
        members = draw(st.lists(st.tuples(_polygon(), st.booleans(), st.booleans()), max_size=3))
        g = (code, members)
    elif kind == "tin":
        g = (wkb.TIN, draw(st.lists(st.tuples(_triangle(), st.booleans(), st.booleans()), max_size=3)))
    elif kind == "point":
        g = (wkb.POINT, [draw(coord), draw(coord)])
    else:
        g = (wkb.LINESTRING, [[draw(coord), draw(coord)] for _ in range(draw(st.integers(1, 4)))])
    return _encode(g, *draw(_flags))


def _has_vertices(w: bytes) -> bool:
    return wkb.decode(w).vertices().size > 0


@st.composite
def _zone_table(draw):
    wkbs = draw(st.lists(_geometry(), max_size=25))
    with_box = draw(st.booleans())
    if not with_box:  # the build takes boxes from the rows: each needs a vertex
        wkbs = [w for w in wkbs if _has_vertices(w)]
    cols = {"zone_id": [f"z{i}" for i in range(len(wkbs))], "wkb": pa.array(wkbs, pa.binary())}
    if with_box:
        boxes = np.array([wkb.decode(w).bbox() if _has_vertices(w) else (0.0,) * 4
                          for w in wkbs]).reshape(-1, 4)
        cols.update({c: boxes[:, j] for j, c in enumerate(BOX)})
    t = pa.table(cols)
    layout = draw(st.sampled_from(["plain", "chunked", "sliced", "large"]))
    if layout == "chunked" and t.num_rows:
        k = draw(st.integers(0, t.num_rows))
        t = pa.concat_tables([t.slice(0, k), t.slice(k)])
    elif layout == "sliced":
        pad = pa.table({c: t[c].slice(0, 1) for c in t.column_names}) if t.num_rows else t
        t = pa.concat_tables([pad, t, pad]).combine_chunks().slice(min(1, t.num_rows), t.num_rows)
    elif layout == "large":
        t = t.set_column(t.column_names.index("wkb"), "wkb", t["wkb"].cast(pa.large_binary()))
    return t


@given(_zone_table())
@settings(max_examples=150, deadline=None)
def test_zone_index_matches_reference_on_mixed_tables(zones):
    _assert_matches_reference(zones)
    # the bbox helper agrees with Geom.bbox row by row, for a list too, and
    # decodes each non-areal row once
    wkbs = [w for w in zones["wkb"].to_pylist() if _has_vertices(w)]
    want = np.array([wkb.decode(w).bbox() for w in wkbs]).reshape(-1, 4)
    got, calls = _decode_calls(wkb.bboxes, wkbs)
    assert _same(got, want)
    assert calls == sum(wkb.decode(w).kind not in AREAL for w in wkbs)


def test_empty_table_matches_reference():
    for t in (pa.table({"zone_id": pa.array([], pa.string()), "wkb": pa.array([], pa.binary())}),
              pa.table({"zone_id": pa.array([], pa.string()), "wkb": pa.array([], pa.binary()),
                        **{c: pa.array([], pa.float64()) for c in BOX}})):
        zi = _assert_matches_reference(t)
        assert zi.probe_points(np.zeros(3), np.zeros(3), "intersects")[0].size == 0


# --- malformed rows fail as wkb.decode does ----------------------------------

_SQUARE = [[0.0, 0.0], [2.0, 0.0], [2.0, 2.0], [0.0, 2.0], [0.0, 0.0]]


def _table(wkbs: list) -> pa.Table:
    """Zone table whose WKB value buffer ends exactly at the last row's end
    (no padding to read into), unless a row is null."""
    if any(w is None for w in wkbs):
        col = pa.array(wkbs, pa.binary())
    else:
        off = np.concatenate(([0], np.cumsum([len(w) for w in wkbs]))).astype(np.int32)
        col = pa.Array.from_buffers(pa.binary(), len(wkbs),
                                    [None, pa.py_buffer(off.tobytes()), pa.py_buffer(b"".join(wkbs))])
    return pa.table({"zone_id": [f"z{i}" for i in range(len(wkbs))], "wkb": col})


def _decode_error(w: bytes) -> Exception:
    try:
        wkb.decode(w)
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return exc
    raise AssertionError("decode accepted a malformed row")


@pytest.mark.parametrize("code", [1003, 2003, 3003, 0x80000003, 0x40000006, 99, 1099])
def test_zm_and_unknown_type_codes_raise_as_decode(code):
    body = _encode((wkb.POLYGON, [_SQUARE]), False, False)[5:]
    bad = b"\x01" + struct.pack("<I", code) + body
    want = _decode_error(bad)
    assert isinstance(want, ValueError)
    good = _encode((wkb.POLYGON, [_SQUARE]), False, False)
    with pytest.raises(ValueError, match=re.escape(str(want))):
        _ZoneIndex(_table([good, bad, good]))


@pytest.mark.parametrize("cut", [1, 8, 16, 40])
@pytest.mark.parametrize("kind", ["polygon", "multipolygon"])
def test_truncated_row_raises_instead_of_reading_on(cut, kind):
    """The row's lost tail is the next row's head in the value buffer: the
    build must stop at the row's end and fail as decode does."""
    g = (wkb.POLYGON, [_SQUARE, _SQUARE])
    if kind == "multipolygon":
        g = (wkb.MULTIPOLYGON, [(g, False, False), (g, True, True)])
    full = _encode(g, False, False)
    cut_row = full[:-cut]
    want = _decode_error(cut_row)
    with pytest.raises(type(want)):
        _ZoneIndex(_table([full, cut_row, full, full]))
    with pytest.raises(type(want)):
        wkb.read_rings(_table([full, cut_row])["wkb"])


@pytest.mark.parametrize("last", [False, True])
def test_member_count_beyond_the_row_raises_as_decode(last):
    """A MultiPolygon that claims one member more than it holds: the walk
    stops at the row's end (also at the end of the value buffer)."""
    member = _encode((wkb.POLYGON, [_SQUARE]), False, False)
    short = b"\x01" + struct.pack("<II", wkb.MULTIPOLYGON, 2) + member
    good = _encode((wkb.POLYGON, [_SQUARE]), False, False)
    want = _decode_error(short)
    rows = [good, short] if last else [good, short, good]
    with pytest.raises(type(want)):
        _ZoneIndex(_table(rows))


@pytest.mark.parametrize("g", [
    (wkb.TRIANGLE, [_SQUARE]),
    (wkb.TRIANGLE, [_SQUARE[:4], _SQUARE[:4]]),
    (wkb.TIN, [((wkb.TRIANGLE, [_SQUARE]), True, False)]),
])
def test_misshapen_triangles_raise_as_decode(g):
    bad = _encode(g, False, True)
    want = _decode_error(bad)
    assert isinstance(want, ValueError)
    with pytest.raises(ValueError, match="Triangle"):
        _ZoneIndex(_table([bad]))


def test_corrupt_counts_do_not_drive_the_header_walk():
    """A ring or member count far beyond the row's bytes goes to decode,
    which fails at the first short read."""
    for kind, n_at in ((wkb.POLYGON, 5), (wkb.MULTIPOLYGON, 5)):
        w = bytearray(_encode((kind, [_SQUARE] if kind == wkb.POLYGON else
                               [((wkb.POLYGON, [_SQUARE]), False, False)]), False, False))
        w[n_at:n_at + 4] = struct.pack("<I", 0xFFFFFFF0)
        want = _decode_error(bytes(w))
        with pytest.raises(type(want)):
            wkb.read_rings(_table([bytes(w)])["wkb"])


def test_null_row_fails_as_decode():
    good = _encode((wkb.POLYGON, [_SQUARE]), False, False)
    with pytest.raises(TypeError):
        _ZoneIndex(_table([good, None]))


def test_five_vertex_rings_need_four_distinct_corners():
    """A 5-vertex ring is a rectangle only when it runs through the four
    distinct corners of its box in ring order: a zero-width box, a triangle
    with a repeated corner, a bow tie and a ring off its box are not, also
    where the box columns disagree with the ring.  The triangle goes to the
    exact test, so the probe agrees with ``pip.points_in_geom`` on it."""
    rings = [
        [[0.0, 0.0], [3.0, 0.0], [3.0, 2.0], [0.0, 2.0], [0.0, 0.0]],  # rectangle
        [[1.0, 0.0], [1.0, 2.0], [1.0, 2.0], [1.0, 0.0], [1.0, 0.0]],  # zero width
        [[0.0, 0.0], [3.0, 0.0], [3.0, 0.0], [0.0, 2.0], [0.0, 0.0]],  # duplicated corner
        [[0.0, 0.0], [3.0, 0.0], [3.0, 2.0], [1.0, 2.0], [0.0, 0.0]],  # not on the box
        [[3.0, 0.0], [3.0, 2.0], [3.0, 2.0], [3.0, 0.0], [3.0, 0.0]],  # box wider
        [[0.0, 0.0], [3.0, 0.0], [0.0, 2.0], [3.0, 2.0], [0.0, 0.0]],  # bow tie
    ]
    t = _table([_encode((wkb.POLYGON, [r]), False, False) for r in rings])
    zi = _assert_matches_reference(t)
    assert zi.is_rect.tolist() == [True, False, False, False, False, False]
    boxes = np.array([wkb.decode(w).bbox() for w in t["wkb"].to_pylist()])
    boxes[-2, 0] = 0.0
    for j, c in enumerate(BOX):
        t = t.append_column(c, pa.array(boxes[:, j]))
    zi = _assert_matches_reference(t)
    assert zi.is_rect.tolist() == [True, False, False, False, False, False]

    triangle = wkb.decode(t["wkb"][2].as_py())
    gx, gy = np.meshgrid(np.arange(-0.25, 3.5, 0.25), np.arange(-0.3, 2.5, 0.3))
    px, py = np.r_[gx.ravel(), 2.5], np.r_[gy.ravel(), 1.8]
    zi = _ZoneIndex(t.slice(2, 1))
    rows, _ = zi.probe_points(px, py, "intersects")
    inside = pip.points_in_geom(px, py, triangle)
    assert not inside[-1] and np.array_equal(np.sort(rows), np.flatnonzero(inside))
