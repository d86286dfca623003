"""Pair-batched edge-CSR point-in-polygon kernel (``pip.points_in_edges``),
the batched segment-crossing predicates and the scatter zonal reduce,
pinned to the per-zone / per-edge / scatter loops they replace; the grid's
sizing rule checked on the rectangle zone layer.

The oracles below are verbatim copies of the previous implementations (one
broadcast per ring, one polygon at a time, one q-segment at a time), kept
here so the vectorized rewrite must reproduce them bit for bit.
"""

import tracemalloc

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gdal_ray.functions import pip, wkb
from gdal_ray.sources import synthetic
from gdal_ray.stages import join
from gdal_ray.stages.join import BroadcastPointJoin, _ZoneIndex

# --- oracles: the per-zone loop and per-edge loops before the edge CSR -----


def _old_points_in_ring(px, py, ring):
    px = np.asarray(px, dtype=np.float64)
    py = np.asarray(py, dtype=np.float64)
    x0, y0 = ring[:-1, 0], ring[:-1, 1]
    x1, y1 = ring[1:, 0], ring[1:, 1]
    py_c = py[:, None]
    straddle = (y0[None, :] > py_c) != (y1[None, :] > py_c)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        xi = x0[None, :] + (py_c - y0[None, :]) * (
            (x1 - x0)[None, :] / np.where((y1 - y0) == 0, 1.0, (y1 - y0))[None, :]
        )
    crossings = (straddle & (px[:, None] < xi)).sum(axis=1)
    return (crossings % 2).astype(bool)


def _old_points_in_geom(px, py, g):
    out = np.zeros(np.asarray(px).shape, dtype=bool)
    for rings in g.shells_and_holes():
        if not rings:
            continue
        inside = _old_points_in_ring(px, py, rings[0])
        for hole in rings[1:]:
            inside &= ~_old_points_in_ring(px, py, hole)
        out |= inside
    return out


def _old_probe_points(zi, geoms, px, py, predicate):
    rows, zidx = zi._candidates(px, py)
    if rows.size == 0:
        return rows, zidx
    keep = np.zeros(rows.size, dtype=bool)
    if predicate == "within":
        strict = (
            (px[rows] > zi.boxes[zidx, 0])
            & (px[rows] < zi.boxes[zidx, 2])
            & (py[rows] > zi.boxes[zidx, 1])
            & (py[rows] < zi.boxes[zidx, 3])
        )
    else:
        strict = np.ones(rows.size, dtype=bool)
    rect_mask = zi.is_rect[zidx]
    keep[rect_mask] = strict[rect_mask]
    gen = np.nonzero(~rect_mask)[0]
    if gen.size:
        order = gen[np.argsort(zidx[gen], kind="stable")]
        zs = zidx[order]
        starts = np.nonzero(np.r_[True, zs[1:] != zs[:-1]])[0]
        bounds = np.r_[starts, zs.size]
        for s, e in zip(bounds[:-1], bounds[1:]):
            sel = order[s:e]
            inside = _old_points_in_geom(px[rows[sel]], py[rows[sel]], geoms[zs[s]])
            keep[sel] = inside & strict[sel] if predicate == "within" else inside
    return rows[keep], zidx[keep]


def _old_segments_intersect(p0, p1, q0, q1):
    def orient(a, b, c):
        return (b[..., 0] - a[..., 0]) * (c[..., 1] - a[..., 1]) - (
            b[..., 1] - a[..., 1]
        ) * (c[..., 0] - a[..., 0])

    d1, d2 = orient(q0, q1, p0), orient(q0, q1, p1)
    d3, d4 = orient(p0, p1, q0), orient(p0, p1, q1)
    proper = ((d1 > 0) != (d2 > 0)) & ((d3 > 0) != (d4 > 0)) & (d1 != 0) & (d2 != 0) & (
        d3 != 0
    ) & (d4 != 0)

    def on_seg(a, b, c, d):
        return (
            (d == 0)
            & (np.minimum(a[..., 0], b[..., 0]) <= c[..., 0])
            & (c[..., 0] <= np.maximum(a[..., 0], b[..., 0]))
            & (np.minimum(a[..., 1], b[..., 1]) <= c[..., 1])
            & (c[..., 1] <= np.maximum(a[..., 1], b[..., 1]))
        )

    touch = (
        on_seg(q0, q1, p0, d1)
        | on_seg(q0, q1, p1, d2)
        | on_seg(p0, p1, np.broadcast_to(q0, p0.shape), d3)
        | on_seg(p0, p1, np.broadcast_to(q1, p0.shape), d4)
    )
    return proper | touch


def _old_any_crossing(p0, p1, q0s, q1s):
    for j in range(len(q0s)):
        if _old_segments_intersect(p0, p1, q0s[j], q1s[j]).any():
            return True
    return False


def _old_polygons_intersect(a, b):
    av, bv = a.vertices(), b.vertices()
    if _old_points_in_geom(av[:, 0], av[:, 1], b).any():
        return True
    if _old_points_in_geom(bv[:, 0], bv[:, 1], a).any():
        return True
    for ring_b in b.rings():
        for ring_a in a.rings():
            if _old_any_crossing(ring_a[:-1], ring_a[1:], ring_b[:-1], ring_b[1:]):
                return True
    return False


def _old_areal_line_intersects(poly, line):
    v = line.vertices()
    if _old_points_in_geom(v[:, 0], v[:, 1], poly).any():
        return True
    for pts in line.parts:
        if len(pts) >= 2:
            for ring in poly.rings():
                if _old_any_crossing(pts[:-1], pts[1:], ring[:-1], ring[1:]):
                    return True
    return False


# --- random zone sets -------------------------------------------------------


def _star(rng, cx, cy, r, n=None):
    """Closed star-shaped ring (simple by construction), counter-clockwise."""
    n = int(n or rng.integers(3, 12))
    ang = np.sort(rng.uniform(0, 2 * np.pi, n))
    rad = rng.uniform(0.4 * r, r, n)
    ring = np.column_stack([cx + rad * np.cos(ang), cy + rad * np.sin(ang)])
    return np.vstack([ring, ring[:1]])


def _holed(rng, cx, cy, r):
    shell = _star(rng, cx, cy, r)
    holes = [_star(rng, cx + rng.uniform(-0.1, 0.1) * r, cy, 0.25 * r)
             for _ in range(int(rng.integers(1, 3)))]
    return [shell] + holes


def _random_zones(rng, n):
    """Polygons with holes, disjoint and overlapping MultiPolygons,
    triangles, rectangles, and one zone whose bbox cover is large enough to
    land on the always-checked list."""
    wkbs = []
    for i in range(n):
        cx, cy = rng.uniform(0, 100, 2)
        r = rng.uniform(0.3, 1.5)
        kind = i % 6
        if kind == 0:
            wkbs.append(wkb.encode_polygon([_star(rng, cx, cy, r)]))
        elif kind == 1:
            wkbs.append(wkb.encode_polygon(_holed(rng, cx, cy, r)))
        elif kind == 2:  # disjoint members, one with holes
            wkbs.append(wkb.encode_multipolygon(
                [_holed(rng, cx, cy, r), [_star(rng, cx + 3 * r, cy, r)]]))
        elif kind == 3:  # overlapping members: the point set is their union
            wkbs.append(wkb.encode_multipolygon(
                [[_star(rng, cx, cy, r)], _holed(rng, cx + 0.5 * r, cy, r)]))
        elif kind == 4:
            tri = _star(rng, cx, cy, r, n=3)
            wkbs.append(wkb.encode_triangle([tri]))
        else:
            x0, y0 = cx - r, cy - r
            wkbs.append(wkb.encode_polygon([np.array(
                [[x0, y0], [cx + r, y0], [cx + r, cy + r], [x0, cy + r], [x0, y0]])]))
    # near-global zone: a fixed 400 x 400 square shell around the point
    # domain, so its bbox always covers far more than MAX_COVER_CELLS cells,
    # with a random star hole
    shell = np.array([[-150.0, -150.0], [250.0, -150.0], [250.0, 250.0],
                      [-150.0, 250.0], [-150.0, -150.0]])
    wkbs.append(wkb.encode_polygon([shell, _star(rng, 50.0, 50.0, 50.0)]))
    return pa.table({"zone_id": [f"z{i}" for i in range(len(wkbs))], "wkb": wkbs})


@given(st.integers(0, 2**32 - 1), st.sampled_from(["intersects", "within"]))
@example(3492785970, "intersects")  # gave a small near-global star bbox
@settings(max_examples=25, deadline=None)
def test_probe_points_matches_per_zone_loop(seed, predicate):
    rng = np.random.default_rng(seed)
    zones = _random_zones(rng, int(rng.integers(6, 80)))
    zi = _ZoneIndex(zones)
    assert zi.always.size >= 1 and zi.is_rect.any()
    geoms = [wkb.decode(w) for w in zones["wkb"].to_pylist()]
    n = int(rng.integers(0, 3000))
    px, py = rng.uniform(-5, 105, n), rng.uniform(-5, 105, n)
    # vertices as probe points exercise the half-open boundary rule
    v = geoms[int(rng.integers(len(geoms)))].vertices()
    px, py = np.r_[px, v[:, 0]], np.r_[py, v[:, 1]]
    got = zi.probe_points(px, py, predicate)
    want = _old_probe_points(zi, geoms, px, py, predicate)
    # the old probe kept each cell's list order (interior entries first);
    # probe_points returns the grid pairs by row, then zone
    grid = ~np.isin(want[1], zi.always)
    order = np.lexsort((want[1][grid], want[0][grid]))
    want = [np.concatenate([w[grid][order], w[~grid]]) for w in want]
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def test_probe_points_empty_input_and_triangle_zone():
    rng = np.random.default_rng(3)
    zones = _random_zones(rng, 12)
    zi = _ZoneIndex(zones)
    for pred in ("intersects", "within"):
        r, z = zi.probe_points(np.array([]), np.array([]), pred)
        assert r.size == 0 and z.size == 0
    tri = wkb.decode(wkb.encode_triangle([np.array([[0, 0], [4, 0], [0, 4], [0, 0]], float)]))
    px, py = np.array([1.0, 3.0, -1.0]), np.array([1.0, 3.0, 1.0])
    assert pip.points_in_geom(px, py, tri).tolist() == [True, False, False]


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_points_in_geom_matches_old(seed):
    rng = np.random.default_rng(seed)
    zones = _random_zones(rng, 6)
    px, py = rng.uniform(-5, 105, 500), rng.uniform(-5, 105, 500)
    for w in zones["wkb"].to_pylist():
        g = wkb.decode(w)
        assert np.array_equal(pip.points_in_geom(px, py, g), _old_points_in_geom(px, py, g))
        for rings in g.shells_and_holes():
            assert np.array_equal(pip.points_in_polygon(px, py, rings),
                                  _old_points_in_geom(px, py, wkb.Geom(wkb.POLYGON, [rings])))
            assert np.array_equal(pip.points_in_ring(px, py, rings[0]),
                                  _old_points_in_ring(px, py, rings[0]))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_areal_predicates_match_per_edge_loop(seed):
    """Polygon x polygon and polygon x line on small integer grids, where
    touching, collinear and crossing edges are all common."""
    rng = np.random.default_rng(seed)

    def poly():
        c = rng.integers(0, 12, 2)
        return wkb.decode(wkb.encode_polygon([np.round(_star(rng, c[0], c[1], 4.0))]))

    def line():
        pts = rng.integers(0, 16, (int(rng.integers(2, 7)), 2)).astype(float)
        return wkb.decode(wkb.encode_linestring(pts))

    a, b, ln = poly(), poly(), line()
    assert pip.polygons_intersect(a, b) == _old_polygons_intersect(a, b)
    assert pip._areal_line_intersects(a, ln) == _old_areal_line_intersects(a, ln)
    ln2 = line()
    old_ll = _old_any_crossing(ln.parts[0][:-1], ln.parts[0][1:], ln2.parts[0][:-1], ln2.parts[0][1:])
    assert pip.geom_intersects(ln, ln2) == old_ll


def test_any_crossing_chunks_the_segment_grid(monkeypatch):
    """A q side longer than one chunk still finds a crossing in its last
    chunk and none where there is none."""
    monkeypatch.setattr(pip, "SEG_CHUNK", 8)
    p0, p1 = np.array([[0.0, 0.0]]), np.array([[10.0, 0.0]])
    q0 = np.column_stack([np.arange(50.0) + 100, np.full(50, -1.0)])
    q1 = q0 + [0.0, 2.0]
    assert not pip._any_crossing(p0, p1, q0, q1)
    q0[-1], q1[-1] = [5.0, -1.0], [5.0, 1.0]
    assert pip._any_crossing(p0, p1, q0, q1)


def test_points_in_edges_chunks_match_one_pass(monkeypatch):
    rng = np.random.default_rng(9)
    zones = _random_zones(rng, 30)
    geoms = [wkb.decode(w) for w in zones["wkb"].to_pylist()]
    e = pip.edge_csr(wkb.read_rings(zones["wkb"]))
    zone = rng.integers(0, len(geoms), 4000)
    px, py = rng.uniform(-5, 105, zone.size), rng.uniform(-5, 105, zone.size)
    whole = pip.points_in_edges(px, py, zone, e)
    monkeypatch.setattr(pip, "EDGE_CHUNK", 7)
    assert np.array_equal(pip.points_in_edges(px, py, zone, e), whole)
    want = np.array([_old_points_in_geom(px[i:i + 1], py[i:i + 1], geoms[z])[0]
                     for i, z in enumerate(zone)])
    assert np.array_equal(whole, want)


def _peak(fn, px, py) -> int:
    fn(px[:64], py[:64])
    tracemalloc.start()
    try:
        fn(px, py)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_probe_peak_bounded_by_candidate_gather():
    """The exact test runs in fixed-size chunks: against 64-gon zones the
    probe's peak stays within 1.1x of the peak of the index's own envelope
    gather (``_candidates``).  Against the same zones' bounding rectangles,
    which skip the exact test and, in interior cells, the gather too, the
    probe peaks lower still."""
    rng = np.random.default_rng(11)
    n = 3000
    cx, cy = rng.uniform(0, 100, n), rng.uniform(0, 100, n)
    r = rng.uniform(2.0, 6.0, n)
    ang = np.linspace(0, 2 * np.pi, 65)
    ang[-1] = 0.0
    polys = [wkb.encode_polygon([np.column_stack([x + s * np.cos(ang), y + s * np.sin(ang)])])
             for x, y, s in zip(cx, cy, r)]
    boxes = wkb.bboxes(polys)
    rects = [wkb.encode_polygon([np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1], [x0, y0]])])
             for x0, y0, x1, y1 in boxes]
    ids = [f"z{i}" for i in range(n)]
    # identical boxes on both sides, so the candidate gathers are identical
    poly_t = pa.table({"zone_id": ids, "wkb": polys})
    rect_t = pa.table({"zone_id": ids, "wkb": rects})
    for name, col in zip(("minx", "miny", "maxx", "maxy"), boxes.T):
        poly_t = poly_t.append_column(name, pa.array(col))
        rect_t = rect_t.append_column(name, pa.array(col))
    px, py = rng.uniform(0, 100, 32768), rng.uniform(0, 100, 32768)
    poly_zi, rect_zi = _ZoneIndex(poly_t), _ZoneIndex(rect_t)
    assert rect_zi.is_rect.all() and not poly_zi.is_rect.any()
    gather_peak = _peak(poly_zi._candidates, px, py)
    poly_peak = _peak(lambda x, y: poly_zi.probe_points(x, y, "intersects"), px, py)
    rect_peak = _peak(lambda x, y: rect_zi.probe_points(x, y, "intersects"), px, py)
    assert poly_peak <= 1.1 * gather_peak, (poly_peak, gather_peak)
    assert rect_peak <= poly_peak, (rect_peak, poly_peak)


def test_points_as_zero_length_segments():
    """Point x point is equality, point x line is on-segment (either argument
    order), and every point of a MultiPoint counts."""
    def pt(x, y):
        return wkb.decode(wkb.encode_points(np.array([x]), np.array([y]))[0])

    ln = wkb.decode(wkb.encode_linestring(np.array([[0.0, 0.0], [4.0, 4.0], [8.0, 0.0]])))
    assert pip.geom_intersects(pt(1.0, 2.0), pt(1.0, 2.0))
    assert not pip.geom_intersects(pt(1.0, 2.0), pt(1.0, 2.5))
    for p, hit in ((pt(2.0, 2.0), True), (pt(6.0, 2.0), True), (pt(8.0, 0.0), True),
                   (pt(2.0, 2.5), False), (pt(9.0, -1.0), False)):
        assert pip.geom_intersects(p, ln) == hit and pip.geom_intersects(ln, p) == hit
    mp = wkb.Geom(wkb.MULTIPOINT, [np.array([[20.0, 20.0]]), np.array([[6.0, 2.0]])])
    assert pip.geom_intersects(mp, ln) and pip.geom_intersects(ln, mp)
    assert pip.geom_intersects(mp, pt(6.0, 2.0)) and not pip.geom_intersects(mp, pt(0.0, 9.0))


# --- zonal reduce (scatter and sort oracles) and grid sizing ---------------

I64 = np.iinfo(np.int64)


def _scatter_reduce(col, rows, zidx, n_zones):
    """The reduce by scatter ufuncs: the oracle of ``_zonal_reduce``."""
    v = col[rows].astype(np.int64)
    cnt, sm = np.zeros(n_zones, np.int64), np.zeros(n_zones, np.int64)
    mn, mx = np.full(n_zones, I64.max), np.full(n_zones, I64.min)
    np.add.at(cnt, zidx, 1)
    np.add.at(sm, zidx, v)
    np.minimum.at(mn, zidx, v)
    np.maximum.at(mx, zidx, v)
    return [cnt, sm, mn, mx]


def _sort_reduce(col, rows, zidx, n_zones):
    """The reduce by one sort of the packed key ``(zone << 32) | row`` and
    ``reduceat`` over the zone runs: an oracle of ``_zonal_reduce`` that
    shares no scatter step with it (rows here stay below 2**32)."""
    key = np.sort((zidx.astype(np.int64) << 32) | rows)
    cnt, sm = np.zeros(n_zones, np.int64), np.zeros(n_zones, np.int64)
    mn, mx = np.full(n_zones, I64.max), np.full(n_zones, I64.min)
    if key.size:
        v = col[key & 0xFFFFFFFF].astype(np.int64)
        zs = key >> 32
        starts = np.flatnonzero(np.r_[True, zs[1:] != zs[:-1]])
        hit = zs[starts]
        cnt[hit] = np.diff(np.r_[starts, key.size])
        sm[hit] = np.add.reduceat(v, starts)
        mn[hit] = np.minimum.reduceat(v, starts)
        mx[hit] = np.maximum.reduceat(v, starts)
    return [cnt, sm, mn, mx]


_REDUCE_ZONES = synthetic.make_rect_zones(np.arange(7, dtype=np.int64))
_DTYPES = {"int64": (I64.min, I64.max), "int32": (-(2**31), 2**31 - 1), "uint8": (0, 255)}


@st.composite
def _reduce_case(draw):
    dtype = draw(st.sampled_from(sorted(_DTYPES)))
    lo, hi = _DTYPES[dtype]
    # values straddle zero and 2**32 where the dtype allows
    vals = draw(st.lists(st.one_of(st.integers(lo, hi), st.sampled_from([lo, hi, 0])),
                         min_size=1, max_size=60))
    n = len(vals)
    one_zone = draw(st.booleans())
    n_pairs = draw(st.integers(0, 3 * n))
    rows = draw(st.lists(st.integers(0, n - 1), min_size=n_pairs, max_size=n_pairs))
    zone = st.just(3) if one_zone else st.integers(0, _REDUCE_ZONES.num_rows - 1)
    zidx = draw(st.lists(zone, min_size=n_pairs, max_size=n_pairs))
    return np.array(vals, dtype=dtype), np.array(rows, np.int64), np.array(zidx, np.int64)


@given(_reduce_case())
@example((np.array([-5, 2**40, -(2**62)], np.int64), np.array([0, 1, 2, 1]),
          np.array([2, 2, 2, 2])))  # every match in one zone, > 2**32, negative
@example((np.array([1, 2], np.uint8), np.array([], np.int64), np.array([], np.int64)))  # none
@settings(max_examples=200, deadline=None)
def test_zonal_reduce_matches_scatter_oracle(case):
    """The zonal reduce's pair fold (``join._scatter`` with one count per
    pair) and its cell fold (counts and reduced values per entry, here one
    entry per distinct (row, zone) pair) both equal the oracles."""
    col, rows, zidx = case
    n = _REDUCE_ZONES.num_rows
    v = col.astype(np.int64)[rows]

    def fresh():
        return [np.zeros(n, np.int64), np.zeros(n, np.int64), np.full(n, I64.max),
                np.full(n, I64.min)]

    got = fresh()
    join._scatter(got, zidx, 1, v, v, v)
    # the same pairs grouped per (row, zone) first, as the cell fold folds
    # each cell's points before scattering them to the cell's zones
    key, inv = np.unique(rows * n + zidx, return_inverse=True)
    grouped = fresh()
    gcnt = np.bincount(inv, minlength=key.size)
    gsum = np.zeros(key.size, np.int64)
    gmin, gmax = np.full(key.size, I64.max), np.full(key.size, I64.min)
    np.add.at(gsum, inv, v)
    np.minimum.at(gmin, inv, v)
    np.maximum.at(gmax, inv, v)
    join._scatter(grouped, key % n, gcnt, gsum, gmin, gmax)
    for oracle in (_scatter_reduce, _sort_reduce):
        want = oracle(col, rows, zidx, n)
        for g, h, w in zip(got, grouped, want):
            assert np.array_equal(g, w) and np.array_equal(h, w), oracle.__name__
    # unhit zones keep count 0 and the min/max sentinels
    unhit = np.setdiff1d(np.arange(n), zidx)
    assert (got[0][unhit] == 0).all() and (got[2][unhit] == I64.max).all()
    assert (got[3][unhit] == I64.min).all()


@pytest.mark.parametrize("id_type", [pa.string(), pa.large_string()])
def test_zone_id_emission_is_a_string_take(id_type):
    """Emitted zone_ids equal the per-pair lookup, as ``string`` whatever the
    input string type, with an empty batch still typed."""
    rng = np.random.default_rng(5)
    zones = _random_zones(rng, 30)
    zones = zones.set_column(0, "zone_id", zones["zone_id"].cast(id_type))
    op = BroadcastPointJoin(zones)
    n = 2000
    batch = pa.table({"doc_id": np.arange(n), "lon": rng.uniform(-5, 105, n),
                      "lat": rng.uniform(-5, 105, n)})
    out = op(batch)
    _, zidx = op.index.probe_points(batch["lon"].to_numpy(), batch["lat"].to_numpy(),
                                    "intersects")
    ids = zones["zone_id"].to_pylist()
    assert zidx.size and out["zone_id"].type == pa.string()
    assert out["zone_id"].to_pylist() == [ids[i] for i in zidx]
    assert op(batch.slice(0, 0))["zone_id"].type == pa.string()


def test_grid_sizing_on_rect_zone_layer():
    """Cell side = median zone side / 4: the raw CSR fetch stays within 2x
    the matches (expected (1 + 1/4)**2 ~ 1.56x), at most 32 CSR entries per
    zone (expected 25), and both axes within the 4,096-cell cap."""
    n_zones = 20_000
    zi = _ZoneIndex(synthetic.make_rect_zones(np.arange(n_zones, dtype=np.int64)))
    rng = np.random.default_rng(4)
    px = -180.0 + rng.integers(0, 36_000, 32_768) / 100.0
    py = -85.0 + rng.integers(0, 17_000, 32_768) / 100.0
    gx = np.clip(((px - zi.x0) * zi.inv_dx).astype(np.int64), 0, zi.nx - 1)
    gy = np.clip(((py - zi.y0) * zi.inv_dy).astype(np.int64), 0, zi.ny - 1)
    cell = gy * zi.nx + gx
    fetched = int((zi.csr_off[cell + 1] - zi.csr_off[cell]).sum()) + px.size * zi.always.size
    matched = zi.probe_points(px, py, "intersects")[0].size
    assert matched > 0 and fetched / matched <= 2.0, (fetched, matched)
    assert zi.csr_val.size <= 32 * n_zones
    assert zi.nx <= 4096 and zi.ny <= 4096


@pytest.mark.parametrize("seed", range(5))
def test_near_global_zone_stays_on_always_list(seed):
    zones = _random_zones(np.random.default_rng(seed), 40)
    zi = _ZoneIndex(zones)
    assert zones.num_rows - 1 in zi.always
