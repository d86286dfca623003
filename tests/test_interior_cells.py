"""Interior and exterior grid cells of the zone index, against a
brute-force test.

Hypothesis draws two kinds of zone tables on a small integer grid.

Rectangle tables: zones on the grid's extent, zero-width and zero-height
boxes (which are not rectangles to the index and take the exact test),
duplicate boxes, and at times one zone large enough for the always-checked
list.

General tables: integer boxes, each holding a polygon drawn inside it.  The
shapes are octagons, convex and concave rings, slivers with near-horizontal
and near-vertical edges, pentagrams (self-intersecting), polygons with holes,
MultiPolygons with overlapping members, and free rings, all of whose
vertices may sit on cell edges and one ulp either side.  The box columns are
given, so the grid is the one the boxes make whatever the shapes are.

Points sit on zone edges, vertices and cell edges (and one ulp either side),
or are NaN, +-inf, or outside the extent.  For both predicates:

- every point of a cell lies strictly inside the box of each of the cell's
  interior zones and passes ``pip.points_in_edges`` for it;
- no point of a cover cell that the grid dropped (an exterior cell) matches
  that zone;
- ``probe_points`` returns the brute-force pairs, grid pairs by row then
  zone and the always-checked pairs last;
- the zonal reduce (interior entries folded once per cell, the rest pair by
  pair, in chunks of any ``PAIR_CHUNK``) equals a sort-based fold of the
  ``probe_points`` pairs.

The tests run with RuntimeWarnings as errors.
"""

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gdal_ray.functions import pip, wkb
from gdal_ray.sources import synthetic
from gdal_ray.stages import join

I64 = np.iinfo(np.int64)
HUGE = (-100.0, -100.0, 120.0, 120.0)  # ~290+ cells a side: always-checked


def _zones(boxes) -> pa.Table:
    b = np.array(boxes, dtype=np.float64).reshape(-1, 4)
    return pa.table({
        "zone_id": [f"z{i}" for i in range(len(b))],
        "minx": b[:, 0], "miny": b[:, 1], "maxx": b[:, 2], "maxy": b[:, 3],
        "wkb": pa.array(synthetic.rect_wkbs(*b.T), pa.binary()),
    })


@st.composite
def _boxes(draw):
    # sides of at most 3 keep the median cell at most 0.75, so HUGE covers
    # more than MAX_COVER_CELLS * CELL_DIVISOR**2 cells
    side = st.sampled_from([0, 1, 2, 3, 3, 3])
    boxes = []
    for _ in range(draw(st.integers(2, 10))):  # two or more: HUGE is not the median
        x, y = draw(st.integers(0, 12)), draw(st.integers(0, 12))
        boxes.append((x, y, x + draw(side), y + draw(side)))
    boxes += [boxes[i] for i in draw(st.lists(st.integers(0, len(boxes) - 1), max_size=3))]
    if draw(st.booleans()):
        boxes.insert(draw(st.integers(0, len(boxes))), HUGE)
    return boxes


def _coords(draw, ix, lo: float, hi: float, edges: list, x: bool) -> list:
    """Zone edges, cell edges and their neighbouring floats, specials, and
    uniform values over the extent and a margin."""
    step = 1.0 / (ix.inv_dx if x else ix.inv_dy)
    origin = ix.x0 if x else ix.y0
    cells = [origin + k * step for k in range(0, (ix.nx if x else ix.ny) + 1, 3)]
    pool = edges + cells + [np.nextafter(c, d) for c in edges + cells for d in (-np.inf, np.inf)]
    value = st.one_of(st.sampled_from(pool),
                      st.sampled_from([np.nan, np.inf, -np.inf, -1e300, 1e300, lo - 5, hi + 5]),
                      st.floats(lo - 1, hi + 1))
    return [float(v) for v in draw(st.lists(value, min_size=1, max_size=80))]


def _brute_hits(ix, zones: pa.Table, px, py, predicate: str) -> np.ndarray:
    """(points, zones) matches by a test of each point against each zone:
    the box (closed, or open for ``within``) for rectangles, and the box and
    the even-odd test for every other zone."""
    geoms = [wkb.decode(w) for w in zones["wkb"].to_pylist()]
    hit = np.zeros((px.size, len(geoms)), dtype=bool)
    for z, g in enumerate(geoms):
        x0, y0, x1, y1 = ix.boxes[z]
        with np.errstate(invalid="ignore"):
            if predicate == "within":
                box = (px > x0) & (px < x1) & (py > y0) & (py < y1)
            else:
                box = (px >= x0) & (px <= x1) & (py >= y0) & (py <= y1)
        hit[:, z] = box if ix.is_rect[z] else box & pip.points_in_geom(px, py, g)
    return hit


def _brute_pairs(ix, hit: np.ndarray):
    """The (row, zone) pairs of a hit matrix: grid zones by row then zone,
    then the always-checked zones."""
    grid = np.setdiff1d(np.arange(hit.shape[1]), ix.always)
    rows, zidx = np.nonzero(hit[:, grid])
    a_rows, a_z = np.nonzero(hit[:, ix.always])
    return (np.concatenate([rows, a_rows]),
            np.concatenate([grid[zidx], ix.always[a_z]]).astype(np.int64))


def _sort_fold(v, rows, zidx, n):
    """count/sum/min/max per zone by one sort of the pairs by zone."""
    order = np.argsort(zidx, kind="stable")
    z, w = zidx[order], v[rows[order]]
    out = [np.zeros(n, np.int64), np.zeros(n, np.int64), np.full(n, I64.max), np.full(n, I64.min)]
    if z.size:
        start = np.flatnonzero(np.r_[True, z[1:] != z[:-1]])
        hit = z[start]
        out[0][hit] = np.diff(np.r_[start, z.size])
        out[1][hit] = np.add.reduceat(w, start)
        out[2][hit] = np.minimum.reduceat(w, start)
        out[3][hit] = np.maximum.reduceat(w, start)
    return out


def _check_index(data, zones: pa.Table, ix, xs: list, ys: list):
    """Draw points and values, then check the interior and exterior cells,
    ``probe_points`` and the zonal reduce against the brute force."""
    n = max(len(xs), len(ys))
    px, py = np.resize(np.array(xs), n), np.resize(np.array(ys), n)
    b = ix.boxes
    cell = ix._cells(px, py)

    # every point of a cell lies strictly inside the box of each of the
    # cell's interior zones, and inside the zone itself
    rows, pos = pip.csr_ranges(ix.csr_off[cell], ix.csr_mid[cell] - ix.csr_off[cell])
    z = ix.csr_val[pos]
    assert ((px[rows] > b[z, 0]) & (px[rows] < b[z, 2])
            & (py[rows] > b[z, 1]) & (py[rows] < b[z, 3])).all()
    gen = ~ix.is_rect[z]
    assert pip.points_in_edges(px[rows[gen]], py[rows[gen]], z[gen], ix.edges).all()

    # no point of a dropped cover cell matches that zone
    hits = {p: _brute_hits(ix, zones, px, py, p) for p in ("intersects", "within")}
    listed = np.zeros(hits["within"].shape, dtype=bool)
    rows, pos = pip.csr_ranges(ix.csr_off[cell], np.diff(ix.csr_off)[cell])
    listed[rows, ix.csr_val[pos]] = True
    listed[:, ix.always] = True
    gx, gy = ix._cell_xy(px, py)
    cx0, cy0 = ix._cell_xy(b[:, 0], b[:, 1])
    cx1, cy1 = ix._cell_xy(b[:, 2], b[:, 3])
    cover = ((gx[:, None] >= cx0) & (gx[:, None] <= cx1)
             & (gy[:, None] >= cy0) & (gy[:, None] <= cy1))
    assert not (hits["intersects"] & cover & ~listed).any()

    v = np.array(data.draw(st.lists(st.sampled_from([I64.min, I64.max, -7, 0, 3, 2**40]),
                                    min_size=n, max_size=n)), dtype=np.int64)
    batch = pa.table({"lon": px, "lat": py, "v": v})
    chunk = data.draw(st.sampled_from([join.PAIR_CHUNK, 1, 2, 5]))
    for predicate in ("intersects", "within"):
        got = ix.probe_points(px, py, predicate)
        want = _brute_pairs(ix, hits[predicate])
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        op = join.BroadcastPointJoin(zones, predicate=predicate, zonal_reduce_col="v")
        saved, join.PAIR_CHUNK = join.PAIR_CHUNK, chunk
        try:
            part = op(batch)
        finally:
            join.PAIR_CHUNK = saved
        fold = [np.frombuffer(part[c][0].as_py(), np.int64) for c in ("cnt", "sm", "mn", "mx")]
        for f, w in zip(fold, _sort_fold(v, *got, zones.num_rows)):
            assert np.array_equal(f, w)


# NaN and +-inf points are mapped to cells without numpy's invalid-cast
# RuntimeWarning, which would otherwise repeat in every worker batch
@pytest.mark.filterwarnings("error::RuntimeWarning")
@given(st.data())
@settings(max_examples=120, deadline=None)
def test_interior_cells_and_zonal_fold_match_brute_force(data):
    boxes = data.draw(_boxes())
    zones = _zones(boxes)
    ix = join._ZoneIndex(zones)
    if HUGE in boxes:
        assert boxes.index(HUGE) in ix.always
    b = ix.boxes
    # only rectangles have interior entries here: the degenerate boxes have none
    inner = ix.csr_val[np.concatenate([np.arange(a, m) for a, m in
                                       zip(ix.csr_off[:-1], ix.csr_mid)] + [[]]).astype(np.int64)]
    assert ix.is_rect[inner].all()
    lo_x, hi_x, lo_y, hi_y = b[:, 0].min(), b[:, 2].max(), b[:, 1].min(), b[:, 3].max()
    xs = _coords(data.draw, ix, lo_x, hi_x, sorted(set(b[:, 0]) | set(b[:, 2])), True)
    ys = _coords(data.draw, ix, lo_y, hi_y, sorted(set(b[:, 1]) | set(b[:, 3])), False)
    _check_index(data, zones, ix, xs, ys)


# --- general polygon zones ----------------------------------------------------

ULP = st.sampled_from([-1, 0, 0, 1])


def _nudge(v: float, k: int) -> float:
    """``v`` moved ``k`` ulps (k in -1, 0, 1)."""
    return float(np.nextafter(v, k * np.inf)) if k else float(v)


def _cell_lines(ix, x: bool) -> list:
    step = 1.0 / (ix.inv_dx if x else ix.inv_dy)
    origin = ix.x0 if x else ix.y0
    return [origin + k * step for k in range((ix.nx if x else ix.ny) + 1)]


@st.composite
def _vertex(draw, box, u: float, w: float, lines):
    """The point at fractions (u, w) of the box, or a coordinate of it moved
    to a cell line within the box, then nudged an ulp or not."""
    x0, y0, x1, y1 = box
    x, y = x0 + u * (x1 - x0), y0 + w * (y1 - y0)
    if draw(st.booleans()):
        near = [c for c in lines[0] if x0 <= c <= x1]
        x = draw(st.sampled_from(near)) if near else x
    if draw(st.booleans()):
        near = [c for c in lines[1] if y0 <= c <= y1]
        y = draw(st.sampled_from(near)) if near else y
    return [_nudge(x, draw(ULP)), _nudge(y, draw(ULP))]


@st.composite
def _ring(draw, box, lines, kind: str):
    """A closed ring of the given kind inside the box, in box fractions."""
    frac = st.floats(0.0, 1.0)
    if kind == "octagon":
        a, c = draw(st.floats(0.05, 0.45)), draw(st.floats(0.05, 0.45))
        uv = [(a, 0), (1 - a, 0), (1, c), (1, 1 - c), (1 - a, 1), (a, 1), (0, 1 - c), (0, c)]
    elif kind in ("convex", "concave", "pentagram"):
        n = draw(st.integers(3, 9)) if kind != "pentagram" else 5
        turn = np.sort(np.array(draw(st.lists(st.floats(0, 1), min_size=n, max_size=n,
                                              unique=True)))) * 2 * np.pi
        if kind == "pentagram":
            turn = turn[0] + np.arange(5) * 4 * np.pi / 5
        r = np.ones(n)
        if kind == "concave":
            r[1::2] = draw(st.floats(0.1, 0.8))
        uv = list(zip(0.5 + 0.5 * r * np.cos(turn), 0.5 + 0.5 * r * np.sin(turn)))
    elif kind == "sliver":
        # near-horizontal and near-vertical edges: slopes of one ulp and up
        d = draw(st.sampled_from([0.0, 1e-15, 1e-12, 1e-6, 1e-3]))
        uv = [(0, 0), (1, d), (1 - d, 1), (d, 1 - d)]
    else:  # a free ring, self-intersecting at times
        uv = [(draw(frac), draw(frac)) for _ in range(draw(st.integers(3, 8)))]
    pts = [draw(_vertex(box, float(u), float(w), lines)) for u, w in uv]
    return np.array(pts + pts[:1], dtype=np.float64)


@st.composite
def _general_zone(draw, box, lines):
    kind = draw(st.sampled_from(["octagon", "convex", "concave", "pentagram", "sliver", "free",
                                 "holes", "multi", "rect"]))
    if kind == "rect":
        return synthetic.rect_wkbs(*([v] for v in box))[0]
    if kind == "holes":
        shell = draw(_ring(box, lines, draw(st.sampled_from(["octagon", "convex"]))))
        x0, y0, x1, y1 = box
        holes = []
        for _ in range(draw(st.integers(1, 2))):
            u, w, s = draw(st.floats(0.2, 0.6)), draw(st.floats(0.2, 0.6)), draw(st.floats(0.2, 0.5))
            sub = (x0 + u * (x1 - x0), y0 + w * (y1 - y0),
                   x0 + (u + s) * (x1 - x0), y0 + (w + s) * (y1 - y0))
            holes.append(draw(_ring(sub, lines, "convex")))
        return wkb.encode_polygon([shell] + holes)
    if kind == "multi":
        x0, y0, x1, y1 = box
        members = []
        for _ in range(draw(st.integers(2, 3))):
            u, w = draw(st.floats(0.0, 0.5)), draw(st.floats(0.0, 0.5))
            sub = (x0 + u * (x1 - x0), y0 + w * (y1 - y0),
                   x0 + (u + 0.5) * (x1 - x0), y0 + (w + 0.5) * (y1 - y0))
            members.append([draw(_ring(sub, lines, draw(st.sampled_from(["octagon", "convex",
                                                                       "concave"]))))])
        return wkb.encode_multipolygon(members)
    return wkb.encode_polygon([draw(_ring(box, lines, kind))])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@given(st.data())
@settings(max_examples=150, deadline=None)
def test_general_zone_cells_match_brute_force(data):
    boxes = []
    for _ in range(data.draw(st.integers(2, 10))):
        x, y = data.draw(st.integers(0, 12)), data.draw(st.integers(0, 12))
        side = st.integers(1, 4)
        boxes.append((x, y, x + data.draw(side), y + data.draw(side)))
    # the grid comes from the box columns alone: the rectangles' grid
    grid = join._ZoneIndex(_zones(boxes))
    lines = (_cell_lines(grid, True), _cell_lines(grid, False))
    wkbs = [data.draw(_general_zone(box, lines)) for box in boxes]
    zones = _zones(boxes).set_column(5, "wkb", pa.array(wkbs, pa.binary()))
    ix = join._ZoneIndex(zones)
    assert (ix.nx, ix.ny, ix.x0, ix.y0) == (grid.nx, grid.ny, grid.x0, grid.y0)
    b = ix.boxes
    verts = [wkb.decode(w).vertices() for w in wkbs]
    vx = sorted({float(v) for g in verts for v in g[:, 0]} | set(b[:, 0]) | set(b[:, 2]))
    vy = sorted({float(v) for g in verts for v in g[:, 1]} | set(b[:, 1]) | set(b[:, 3]))
    xs = _coords(data.draw, ix, b[:, 0].min(), b[:, 2].max(), vx, True)
    ys = _coords(data.draw, ix, b[:, 1].min(), b[:, 3].max(), vy, False)
    _check_index(data, zones, ix, xs, ys)
