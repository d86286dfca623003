"""OGR_G_Buffer parity (ogr/ogrgeometry.cpp:4949 -> GEOS BufferOp):
closed-form checks of the Minkowski construction in geomops.buffer_geom."""

import numpy as np
import pyarrow as pa
import pytest

from gdal_ray.functions import wkb as W
from gdal_ray.stages import geomops as G
from gdal_ray.stages import overlay as O


def ngon_area(segments: int, d: float) -> float:
    n = 4 * segments
    return n / 2.0 * np.sin(2.0 * np.pi / n) * d * d


def test_point_buffer_is_polygonal_disc():
    g = W.decode(W.encode_points(np.array([3.0]), np.array([4.0]))[0])
    b = G.buffer_geom(g, 2.0, segments=8)
    assert O.geom_area(b) == pytest.approx(ngon_area(8, 2.0), abs=1e-12)


def test_stadium_round_caps_converges_to_pi():
    line = W.Geom(W.LINESTRING, [np.array([[0.0, 0.0], [10.0, 0.0]])])
    prev_err = None
    for seg in (2, 8, 32):
        a = O.geom_area(G.buffer_geom(line, 1.0, segments=seg))
        err = abs(a - (20.0 + np.pi))
        assert a < 20.0 + np.pi  # inscribed polygon under-approximates
        if prev_err is not None:
            assert err < prev_err
        prev_err = err
    assert prev_err < 2e-3


def test_square_and_flat_caps_exact():
    line = W.Geom(W.LINESTRING, [np.array([[0.0, 0.0], [10.0, 0.0]])])
    assert O.geom_area(G.buffer_geom(line, 2.0, 1, cap_style="square")) == 56.0
    assert O.geom_area(G.buffer_geom(line, 2.0, 1, cap_style="flat")) == 40.0


def test_convex_polygon_minkowski_formula():
    sq = np.array([[0.0, 0.0], [10.0, 0.0], [10.0, 10.0], [0.0, 10.0],
                   [0.0, 0.0]])
    poly = W.Geom(W.POLYGON, [[sq]])
    d = 1.5
    a = O.geom_area(G.buffer_geom(poly, d, segments=8))
    assert a == pytest.approx(100.0 + 40.0 * d + ngon_area(8, d), abs=1e-9)


def test_negative_buffer_erodes_exactly():
    sq = np.array([[0.0, 0.0], [10.0, 0.0], [10.0, 10.0], [0.0, 10.0],
                   [0.0, 0.0]])
    poly = W.Geom(W.POLYGON, [[sq]])
    assert O.geom_area(G.buffer_geom(poly, -1.5, segments=4)) == \
        pytest.approx(49.0, abs=1e-9)
    assert G.buffer_geom(poly, -6.0, segments=4) is None  # fully eroded


def test_hole_shrinks_on_positive_buffer():
    sq = np.array([[0.0, 0.0], [10.0, 0.0], [10.0, 10.0], [0.0, 10.0],
                   [0.0, 0.0]])
    hole = np.array([[4.0, 4.0], [6.0, 4.0], [6.0, 6.0], [4.0, 6.0],
                     [4.0, 4.0]])[::-1]
    ph = W.Geom(W.POLYGON, [[sq, hole]])
    a = O.geom_area(G.buffer_geom(ph, 0.5, segments=8))
    # outer ring Minkowski-grows; the hole erodes to an EXACT 1x1 square
    # (erosion of a square hole by a disc keeps inner corners sharp)
    assert a == pytest.approx(100.0 + 20.0 + ngon_area(8, 0.5) - 1.0,
                              abs=1e-9)


def test_self_intersecting_offsets_union_once():
    # U-shaped line whose inner offsets overlap: area must equal the union
    # (< sum of the three independent stadium areas)
    u = W.Geom(W.LINESTRING, [np.array(
        [[0.0, 0.0], [0.0, 4.0], [3.0, 4.0], [3.0, 0.0]])])
    a = O.geom_area(G.buffer_geom(u, 1.0, segments=16))
    total_len = 4.0 + 3.0 + 4.0
    upper = 2.0 * total_len + np.pi  # caps + joins over-count overlaps
    assert a < upper
    # rasterized distance-transform cross-check at 0.05 px resolution
    ys, xs = np.mgrid[-1.5:5.5:0.05, -1.5:4.5:0.05]
    pts = np.column_stack([xs.ravel(), ys.ravel()])
    segs = [((0, 0), (0, 4)), ((0, 4), (3, 4)), ((3, 4), (3, 0))]
    dmin = np.full(len(pts), np.inf)
    for (x1, y1), (x2, y2) in segs:
        p, v = np.array([x1, y1]), np.array([x2 - x1, y2 - y1])
        t = np.clip((pts - p) @ v / (v @ v), 0.0, 1.0)
        proj = p + t[:, None] * v
        dmin = np.minimum(dmin, np.hypot(*(pts - proj).T))
    mc = (dmin <= 1.0).mean() * (7.0 * 6.0)
    assert a == pytest.approx(mc, rel=0.02)


def test_buffer_batch_surface():
    wkbs = [W.encode_linestring(np.array([[0.0, 0.0], [4.0, 0.0]])),
            W.encode_points(np.array([0.0]), np.array([0.0]))[0]]
    t = pa.table({"fid": pa.array([1, 2], pa.int64()),
                  "wkb": pa.array(wkbs, pa.binary())})
    out = G.buffer_batch(t, 1.0, segments=1, cap_style="square")
    assert out.column_names == ["fid", "wkb", "buf_area"]
    assert out["buf_area"][0].as_py() == pytest.approx(12.0)  # (4+2)*2
    g = W.decode(out["wkb"][0].as_py())
    assert g.kind in (W.POLYGON, W.MULTIPOLYGON)


def test_unsupported_kind_raises():
    gc = W.Geom(W.GEOMETRYCOLLECTION, [])
    with pytest.raises(ValueError, match="unsupported geometry kind"):
        G.buffer_geom(gc, 1.0)
    line = W.Geom(W.LINESTRING, [np.array([[0.0, 0.0], [1.0, 0.0]])])
    with pytest.raises(ValueError, match="cap_style"):
        G.buffer_geom(line, 1.0, cap_style="bevel")


def test_geodesic_point_buffer_radius_exact():
    """Every circle vertex sits exactly `meters` from the center
    (haversine on the authalic sphere)."""
    t = pa.table({"wkb": pa.array(
        [W.encode_points(np.array([10.0]), np.array([55.0]))[0]],
        pa.binary())})
    out = G.buffer_geodesic_batch(t, 50000.0, segments=8)
    ring = W.decode(out["wkb"][0].as_py()).parts[0][0]
    R = 6371007.180918475
    p1, l1 = np.radians(55.0), np.radians(10.0)
    p2, l2 = np.radians(ring[:, 1]), np.radians(ring[:, 0])
    a = (np.sin((p2 - p1) / 2) ** 2
         + np.cos(p1) * np.cos(p2) * np.sin((l2 - l1) / 2) ** 2)
    d = 2 * R * np.arcsin(np.sqrt(a))
    assert np.abs(d - 50000.0).max() < 1e-6


def test_geodesic_polygon_buffer_minkowski_in_projection():
    """Projected through the same feature-centered AEQD, the geodesic
    polygon buffer matches the planar Minkowski formula exactly."""
    R = 6371007.180918475
    sq = np.array([[10.0, 55.0], [10.5, 55.0], [10.5, 55.3], [10.0, 55.3],
                   [10.0, 55.0]])
    t = pa.table({"wkb": pa.array([W.encode_polygon([sq])], pa.binary())})
    out = G.buffer_geodesic_batch(t, 10000.0, segments=8)
    ring = W.decode(out["wkb"][0].as_py()).parts[0][0]
    # engine centers its AEQD on the mean of ALL vertices (closing vertex
    # included) — mirror that so the projections coincide
    lon0 = float(np.mean(sq[:, 0]))
    lat0 = float(np.mean(sq[:, 1]))

    def area_m(r):
        x, y = G._aeqd_fwd(r[:, 0], r[:, 1], lon0, lat0, R)
        return abs(W.ring_area(np.column_stack([x, y])))

    xs, ys = G._aeqd_fwd(sq[:, 0], sq[:, 1], lon0, lat0, R)
    per = np.hypot(np.diff(xs), np.diff(ys)).sum()
    expect = area_m(sq) + per * 1e4 + ngon_area(8, 1e4)
    assert area_m(ring) == pytest.approx(expect, rel=1e-9)


def test_aeqd_roundtrip():
    lon = np.array([12.0, 9.5, -170.0])
    lat = np.array([54.0, 56.0, -33.0])
    x, y = G._aeqd_fwd(lon, lat, 10.0, 55.0, 6371007.180918475)
    lon2, lat2 = G._aeqd_inv(x, y, 10.0, 55.0, 6371007.180918475)
    assert np.abs(((lon2 - lon + 180) % 360) - 180).max() < 1e-9
    assert np.abs(lat2 - lat).max() < 1e-9
