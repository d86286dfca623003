"""Interior grid cells of the zone index, against a brute-force test.

Hypothesis draws rectangle zones on a small integer grid: zones on the
grid's extent, zero-width and zero-height boxes (which are not rectangles to
the index and take the exact test), duplicate boxes, and at times one zone
large enough for the always-checked list.  Points sit on zone edges and on
cell edges (and one ulp either side), or are NaN, +-inf, or outside the
extent.  For both predicates:

- every point of a cell lies strictly inside each of the cell's interior
  zones, and only rectangles have interior entries;
- ``probe_points`` returns the brute-force pairs, grid pairs by row then
  zone and the always-checked pairs last;
- the zonal reduce (interior entries folded once per cell, the rest pair by
  pair, in chunks of any ``PAIR_CHUNK``) equals a sort-based fold of the
  ``probe_points`` pairs.

The test runs with RuntimeWarnings as errors.
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


def _brute_pairs(ix, zones: pa.Table, px, py, predicate: str):
    """Every (row, zone) match by a test of each point against each zone:
    the box (closed, or open for ``within``) for rectangles, the even-odd
    test for the degenerate boxes; grid zones by row then zone, then the
    always-checked zones."""
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
    grid = np.setdiff1d(np.arange(len(geoms)), ix.always)
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
    lo_x, hi_x, lo_y, hi_y = b[:, 0].min(), b[:, 2].max(), b[:, 1].min(), b[:, 3].max()
    xs = _coords(data.draw, ix, lo_x, hi_x, sorted(set(b[:, 0]) | set(b[:, 2])), True)
    ys = _coords(data.draw, ix, lo_y, hi_y, sorted(set(b[:, 1]) | set(b[:, 3])), False)
    n = max(len(xs), len(ys))
    px, py = np.resize(np.array(xs), n), np.resize(np.array(ys), n)

    # every point of a cell lies strictly inside the cell's interior zones
    cell = ix._cells(px, py)
    rows, pos = pip.csr_ranges(ix.csr_off[cell], ix.csr_mid[cell] - ix.csr_off[cell])
    z = ix.csr_val[pos]
    assert ix.is_rect[z].all()
    assert ((px[rows] > b[z, 0]) & (px[rows] < b[z, 2])
            & (py[rows] > b[z, 1]) & (py[rows] < b[z, 3])).all()

    v = np.array(data.draw(st.lists(st.sampled_from([I64.min, I64.max, -7, 0, 3, 2**40]),
                                    min_size=n, max_size=n)), dtype=np.int64)
    batch = pa.table({"lon": px, "lat": py, "v": v})
    chunk = data.draw(st.sampled_from([join.PAIR_CHUNK, 1, 2, 5]))
    for predicate in ("intersects", "within"):
        got = ix.probe_points(px, py, predicate)
        want = _brute_pairs(ix, zones, px, py, predicate)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        op = join.BroadcastPointJoin(zones, predicate=predicate, zonal_reduce_col="v")
        saved, join.PAIR_CHUNK = join.PAIR_CHUNK, chunk
        try:
            part = op(batch)
        finally:
            join.PAIR_CHUNK = saved
        fold = [np.frombuffer(part[c][0].as_py(), np.int64) for c in ("cnt", "sm", "mn", "mx")]
        for f, w in zip(fold, _sort_fold(v, *got, len(boxes))):
            assert np.array_equal(f, w)
