"""Boundary / set-geom-type / make-valid / concave hull / calc strings /
reproject hook (reference: ogr/ogrgeometry.cpp:4183,4569,4825;
apps/gdalalg_vector_set_geom_type; VRT pixel-function strings)."""

import numpy as np
import pyarrow as pa
import pytest

from gdal_ray.functions import geo, wkb
from gdal_ray.stages import geomops


def _sq(x0, y0, x1, y1):
    return np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1], [x0, y0]], float)


def test_boundary_polygon_with_hole():
    w = wkb.encode_polygon([_sq(0, 0, 10, 10), _sq(2, 2, 4, 4)])
    t = geomops.boundary_batch(pa.table({"wkb": pa.array([w], pa.binary())}))
    assert t["boundary_len"][0].as_py() == pytest.approx(40 + 8)
    g = wkb.decode(t["boundary_wkb"][0].as_py())
    assert g.kind == wkb.MULTILINESTRING and len(g.parts) == 2


def test_set_geom_type_roundtrip():
    w = wkb.encode_polygon([_sq(0, 0, 2, 2)])
    t = pa.table({"wkb": pa.array([w], pa.binary())})
    up = geomops.set_geom_type_batch(t, "multipolygon")
    assert wkb.decode(up["wkb"][0].as_py()).kind == wkb.MULTIPOLYGON
    down = geomops.set_geom_type_batch(up, "polygon")
    assert wkb.decode(down["wkb"][0].as_py()).kind == wkb.POLYGON
    # demote multi keeps the largest part
    multi = wkb.encode_multipolygon([[_sq(0, 0, 1, 1)], [_sq(5, 5, 9, 9)]])
    d = geomops.set_geom_type_batch(
        pa.table({"wkb": pa.array([multi], pa.binary())}), "polygon")
    ring = wkb.decode(d["wkb"][0].as_py()).parts[0][0]
    assert abs(wkb.ring_area(np.asarray(ring))) == pytest.approx(16.0)


def test_make_valid_bowtie():
    bowtie = np.array([[0, 0], [4, 4], [4, 0], [0, 4], [0, 0]], float)
    w = wkb.encode_polygon([bowtie])
    t = geomops.make_valid_batch(pa.table({"wkb": pa.array([w], pa.binary())}))
    assert t["was_valid"][0].as_py() is False
    g = wkb.decode(t["wkb"][0].as_py())
    # bowtie splits into two triangles of area 4 each
    polys = g.shells_and_holes()
    areas = sorted(abs(wkb.ring_area(np.asarray(p[0]))) for p in polys)
    assert len(polys) == 2
    assert areas == pytest.approx([4.0, 4.0])


def test_make_valid_passthrough():
    w = wkb.encode_polygon([_sq(0, 0, 3, 3)])
    t = geomops.make_valid_batch(pa.table({"wkb": pa.array([w], pa.binary())}))
    assert t["was_valid"][0].as_py() is True
    assert t["wkb"][0].as_py() == w


def test_concave_hull_tighter_than_convex():
    # C-shaped point cloud: concave hull area should be well below convex
    rng_pts = []
    for x in range(0, 11):
        for y in range(0, 11):
            if not (3 <= x <= 10 and 3 <= y <= 7):  # carve a notch
                rng_pts.append((x, y))
    pts = np.array(rng_pts, float)
    ch = geomops.concave_hull(pts, k=6)
    concave_area = abs(wkb.ring_area(ch))
    convex_area = abs(wkb.ring_area(geomops.convex_hull(pts)))
    assert concave_area < convex_area * 0.85


def test_calc_string_expression():
    import ray.data as rd

    from gdal_ray.sources import synthetic
    from gdal_ray.stages import rastermap

    tiles = rd.from_arrow(synthetic.make_raster_tiles("ramp", 1, 1, size=16))
    out = rastermap.calc(tiles, "where(A > 10, A * 2 + 1, 0)").take_all()
    arr = np.frombuffer(out[0]["data"], dtype=np.float32).reshape(16, 16)
    gy, gx = np.mgrid[0:16, 0:16]
    v = (gx + gy).astype(np.float64)
    exp = np.where(v > 10, v * 2 + 1, 0).astype(np.float32)
    assert np.array_equal(arr, exp)


def test_calc_string_rejects_unsafe():
    from gdal_ray.stages import rastermap

    with pytest.raises(ValueError):
        rastermap.compile_calc_expr("__import__('os')")
    with pytest.raises(ValueError):
        rastermap.compile_calc_expr("open('x')")


def test_reproject_hook_closed_form():
    lon = np.array([10.0, -45.0])
    lat = np.array([20.0, 60.0])
    mx, my = geo.reproject_points(lon, lat, "EPSG:4326", "EPSG:3857")
    ex, ey = geo.lonlat_to_mercator(lon, lat)
    assert np.array_equal(mx, ex) and np.array_equal(my, ey)
    lo, la = geo.reproject_points(mx, my, "EPSG:3857", "EPSG:4326")
    np.testing.assert_allclose(lo, lon, atol=1e-9)
    np.testing.assert_allclose(la, lat, atol=1e-9)
    # UTM is now routed through the built-in transverse-mercator closed form
    ux, uy = geo.reproject_points(lon, lat, "EPSG:4326", "EPSG:32633")
    assert np.all(np.isfinite(ux)) and np.all(np.isfinite(uy))
    # EPSG:2154 is table-routed since round 4; round 5 added OSGB
    # (Airy 1830 + datum shift) via the CRS registry, so 27700 now
    # resolves too and only genuinely unrouted codes raise
    fx, fy = geo.reproject_points(lon, lat, "EPSG:4326", "EPSG:2154")
    assert np.all(np.isfinite(fx)) and np.all(np.isfinite(fy))
    ox, oy = geo.reproject_points(np.array([-1.0]), np.array([52.0]),
                                  "EPSG:4326", "EPSG:27700")
    assert np.all(np.isfinite(ox)) and np.all(np.isfinite(oy))
    with pytest.raises(NotImplementedError):
        geo.reproject_points(lon, lat, "EPSG:4326", "EPSG:99999")


def test_wrapdateline_line_split_and_interp():
    """A dateline-crossing segment splits at lon ±180 with the latitude
    linearly interpolated; a non-crossing segment passes through unchanged."""
    t = pa.table({"gid": [0, 1], "wkb": [
        wkb.encode_linestring(np.array([[170.0, 10.0], [-170.0, 30.0]])),
        wkb.encode_linestring(np.array([[-10.0, 0.0], [10.0, 5.0]])),
    ]})
    out = geomops.wrap_dateline_batch(t).to_pylist()
    g0 = wkb.decode(out[0]["wrapped_wkb"])
    assert g0.kind == wkb.MULTILINESTRING and out[0]["n_parts"] == 2
    p0, p1 = g0.parts
    assert np.allclose(p0, [[170, 10], [180, 20]])
    assert np.allclose(p1, [[-180, 20], [-170, 30]])
    g1 = wkb.decode(out[1]["wrapped_wkb"])
    assert g1.kind == wkb.LINESTRING and out[1]["n_parts"] == 1
    assert np.allclose(g1.parts[0], [[-10, 0], [10, 5]])


def test_wrapdateline_polygon_split_areas():
    """A 20-degree-wide box straddling the dateline splits into two 10-degree
    boxes whose areas sum to the original."""
    ring = np.array([[170.0, 0.0], [-170.0, 0.0], [-170.0, 20.0],
                     [170.0, 20.0], [170.0, 0.0]])
    t = pa.table({"gid": [0], "wkb": [wkb.encode_polygon([ring])]})
    out = geomops.wrap_dateline_batch(t).to_pylist()[0]
    assert out["n_parts"] == 2
    assert out["area_x1e6"] == 400_000_000
    g = wkb.decode(out["wrapped_wkb"])
    assert g.kind == wkb.MULTIPOLYGON
    xs = g.vertices()[:, 0]
    assert xs.min() >= -180.0 and xs.max() <= 180.0


def test_geodesic_measures_closed_forms():
    """Sphere closed forms: a full-longitude equatorial band has area
    2*pi*R^2*(sin(top) - sin(bottom)); a meridian segment's haversine length
    is R * dphi."""
    R = geomops._AUTHALIC_R
    band = np.array([[-180.0, 0.0], [180.0, 0.0], [180.0, 30.0],
                     [-180.0, 30.0], [-180.0, 0.0]])
    a = geomops._sph_ring_area_m2(band)
    expect = 2.0 * np.pi * R * R * np.sin(np.radians(30.0))
    assert abs(a - expect) / expect < 1e-12
    meridian = np.array([[10.0, 0.0], [10.0, 45.0]])
    ln = geomops._haversine_len_m(meridian)
    assert abs(ln - R * np.radians(45.0)) / ln < 1e-12
    # batch surface: hole subtracts
    outer = np.array([[0, 0], [10, 0], [10, 10], [0, 10], [0, 0]], float)
    inner = np.array([[4, 4], [6, 4], [6, 6], [4, 6], [4, 4]], float)
    t = pa.table({"wkb": [wkb.encode_polygon([outer, inner]),
                          wkb.encode_polygon([outer])]})
    rows = geomops.geodesic_measures_batch(t).to_pylist()
    assert rows[0]["geo_area_10m2"] < rows[1]["geo_area_10m2"]
    assert rows[0]["geo_perim_m"] > rows[1]["geo_perim_m"]  # hole ring adds length


def test_line_point_at_distance():
    pts = np.array([[0.0, 0.0], [10.0, 0.0], [10.0, 5.0]])
    assert geomops.line_point_at_distance(pts, 0.0) == (0.0, 0.0)
    assert geomops.line_point_at_distance(pts, 4.0) == (4.0, 0.0)
    assert geomops.line_point_at_distance(pts, 12.0) == (10.0, 2.0)
    assert geomops.line_point_at_distance(pts, 99.0) == (10.0, 5.0)  # clamp
    # exact edge boundary lands on the NEXT segment with t=0 (same point)
    assert geomops.line_point_at_distance(pts, 10.0) == (10.0, 0.0)
    t = pa.table({"wkb": [wkb.encode_linestring(pts)]})
    out = geomops.line_interpolate_batch(t, 0.5).to_pylist()[0]
    assert (out["pt_x"], out["pt_y"]) == (7.5, 0.0)


def _brute_delaunay(P):
    """Delaunay by definition: every non-degenerate triple whose circumcircle
    is strictly empty (exact Python-int arithmetic)."""
    from itertools import combinations

    n = len(P)
    pts = [(int(x), int(y)) for x, y in P]
    out = []
    for i, j, k in combinations(range(n), 3):
        a, b, c = pts[i], pts[j], pts[k]
        orient = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        if orient == 0:
            continue
        if orient < 0:
            b, c = c, b
        empty = True
        for d in range(n):
            if d in (i, j, k):
                continue
            q = pts[d]
            adx = a[0] - q[0]; ady = a[1] - q[1]
            bdx = b[0] - q[0]; bdy = b[1] - q[1]
            cdx = c[0] - q[0]; cdy = c[1] - q[1]
            ad = adx * adx + ady * ady
            bd = bdx * bdx + bdy * bdy
            cd = cdx * cdx + cdy * cdy
            det = (adx * (bdy * cd - bd * cdy) - ady * (bdx * cd - bd * cdx)
                   + ad * (bdx * cdy - bdy * cdx))
            if det > 0:
                empty = False
                break
        if empty:
            out.append(tuple(sorted((i, j, k))))
    return sorted(out)


def test_delaunay_exact_vs_brute_random():
    """Exact-integer Bowyer-Watson == the empty-circumcircle definition on
    random integer point sets (incl. near-degenerate hull triangles that the
    float circumcenter variant drops)."""
    import numpy as np

    from gdal_ray.stages import geomops

    rng = np.random.RandomState(7)
    for _ in range(40):
        P = np.unique(rng.randint(0, 500, size=(rng.randint(4, 20), 2)), axis=0)
        assert geomops.delaunay_triangulate_int(P) == _brute_delaunay(P)


def test_delaunay_per_cell_distributed(ray_session):
    """Per-cell grouping triangulates each cell independently and emits
    ascending ids + exact doubled areas."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from gdal_ray.stages import geomops

    k = np.arange(60, dtype=np.int64)
    tbl = pa.table({
        "pt_id": pa.array(k), "cell": pa.array(k % 2),
        "x": pa.array((k * 2654435761) % 2039),
        "y": pa.array((k * 40503 + 12345) % 2039),
    })
    out = geomops.delaunay_per_cell(rd.from_arrow(tbl)).take_all()
    for c in (0, 1):
        ks = k[k % 2 == c]
        P = np.stack([(ks * 2654435761) % 2039, (ks * 40503 + 12345) % 2039], axis=1)
        expect = {tuple(ks[list(t)]) for t in _brute_delaunay(P)}
        got = {(r["a_id"], r["b_id"], r["c_id"]) for r in out if r["cell"] == c}
        assert got == expect
    assert all(r["a_id"] < r["b_id"] < r["c_id"] and r["area2"] > 0 for r in out)


def test_line_substring_polyline_brute(ray_session):
    import numpy as np
    import pyarrow as pa

    from gdal_ray.functions import wkb as wkbf
    from gdal_ray.stages import geomops

    pts = np.array([[0.0, 0.0], [4.0, 0.0], [4.0, 3.0], [8.0, 3.0]])
    t = pa.table({"wkb": pa.array([wkbf.encode_linestring(pts)], pa.binary())})
    out = geomops.line_substring_batch(t, 0.1, 0.9)
    total = 4 + 3 + 4  # 11
    d0, d1 = 1.1, 9.9
    # vertices at cum 4 and 7 both inside (1.1, 9.9) -> 2 + 2
    assert out["n_vertices"][0].as_py() == 4
    assert out["p0x_e7"][0].as_py() == int(np.floor(1.1 * 1e7 + 0.5))
    assert out["p0y_e7"][0].as_py() == 0
    # d1 = 9.9 -> on last segment: x = 4 + (9.9 - 7) = 6.9, y = 3
    assert out["p1x_e7"][0].as_py() == int(np.floor((4 + (0.9 * total - 7)) * 1e7 + 0.5))
    assert out["p1y_e7"][0].as_py() == int(np.floor(3.0 * 1e7 + 0.5))


def test_vincenty_known_wgs84_figures():
    """Round-4 ellipsoidal geodesics: Vincenty inverse vs known WGS84
    figures (quarter meridian 10001965.7293 m, exact equatorial arc) and
    the authalic-q rectangle area vs the closed-form band integral."""
    from gdal_ray.functions import transformer as tr
    from gdal_ray.stages.geomops import (_ell_ring_area_m2, _sph_ring_area_m2,
                                         _vincenty_len_m)

    qm = _vincenty_len_m(np.array([[0.0, 0.0], [0.0, 90.0]]))
    assert abs(qm - 10001965.7293) < 0.01
    assert abs(qm - float(tr.meridian_arc(np.pi / 2.0))) < 0.001
    eq = _vincenty_len_m(np.array([[0.0, 0.0], [90.0, 0.0]]))
    assert abs(eq - tr.WGS84_A * np.pi / 2.0) < 1e-6
    rect = np.array([[10.0, 40.0], [13.0, 40.0], [13.0, 42.5],
                     [10.0, 42.5], [10.0, 40.0]])
    exact = (np.radians(3.0) * tr.WGS84_A ** 2 / 2.0
             * (tr._aea_q(np.radians(42.5)) - tr._aea_q(np.radians(40.0))))
    assert abs(_ell_ring_area_m2(rect) / exact - 1.0) < 1e-12
    # the spherical mode keeps its documented ~0.1% bias; ellipsoidal fixes it
    assert abs(_sph_ring_area_m2(rect) / exact - 1.0) > 1e-4


def test_geodesic_measures_ellipsoidal_mode(ray_session):
    import pyarrow as pa

    from gdal_ray.functions import wkt as _wkt
    from gdal_ray.stages import geomops

    w = _wkt.parse_wkt("POLYGON ((10 40, 13 40, 13 42.5, 10 42.5, 10 40))")
    t = pa.table({"wkb": pa.array([w], pa.binary())})
    sph = geomops.geodesic_measures_batch(t, mode="sphere").to_pylist()[0]
    ell = geomops.geodesic_measures_batch(t, mode="ellipsoidal").to_pylist()[0]
    assert sph["geo_area_10m2"] != ell["geo_area_10m2"]
    # ellipsoidal area within 1e-9 of the exact band integral
    from gdal_ray.functions import transformer as tr

    exact = (np.radians(3.0) * tr.WGS84_A ** 2 / 2.0
             * (tr._aea_q(np.radians(42.5)) - tr._aea_q(np.radians(40.0))))
    assert abs(ell["geo_area_10m2"] * 10.0 / exact - 1.0) < 1e-9


def test_line_points_along_batch():
    """Round-4 continuation: ogrlineref -create — points every step along
    the chain with measures; explosion carries the id columns."""
    import pyarrow as pa

    from gdal_ray.functions import wkb as wkbf
    from gdal_ray.stages import geomops

    # open 3-4-5 triangle legs: L-shaped line of length 7
    line = wkbf.encode_linestring(
        np.array([[0.0, 0.0], [3.0, 0.0], [3.0, 4.0]]))
    t = pa.table({"fid": pa.array([9], pa.int64()), "wkb": pa.array([line])})
    out = geomops.line_points_along_batch(t, 2.0)
    assert out["fid"].to_pylist() == [9, 9, 9, 9]
    assert out["m"].to_pylist() == [0.0, 2.0, 4.0, 6.0]
    assert out["pt_x"].to_pylist() == [0.0, 2.0, 3.0, 3.0]
    assert out["pt_y"].to_pylist() == [0.0, 0.0, 1.0, 3.0]
    # step > length -> just the start point; non-line geometries skipped
    pt = wkbf.encode_points(np.array([1.0]), np.array([2.0]))[0]
    t2 = pa.table({"fid": pa.array([1, 2], pa.int64()),
                   "wkb": pa.array([line, pt])})
    out2 = geomops.line_points_along_batch(t2, 100.0)
    assert out2["fid"].to_pylist() == [1]
    assert out2["m"].to_pylist() == [0.0]


def test_layer_summary_mixed_kinds(ray_session):
    """ogrinfo -so: kind counts, extent, and field min/max/null over a
    mixed-geometry layer."""
    import numpy as np
    import ray.data as rd

    from gdal_ray.functions import wkb as W
    from gdal_ray.stages.geomops import layer_summary

    wkbs = [W.encode_points(np.array([5.0]), np.array([-3.0]))[0],
            W.encode_linestring(np.array([[0.0, 0.0], [10.0, 2.0]])),
            W.encode_polygon([np.array([[1.0, 1.0], [4.0, 1.0], [4.0, 6.0],
                                        [1.0, 1.0]])])]
    t = pa.table({"v": pa.array([7, None, 2], pa.int64()),
                  "wkb": pa.array(wkbs, pa.binary())})
    res = layer_summary(rd.from_arrow(t), fields=("v",))
    assert res["n_features"] == 3
    assert (res["n_point"], res["n_linestring"], res["n_polygon"]) == (1, 1, 1)
    assert (res["minx"], res["miny"], res["maxx"], res["maxy"]) == \
        (0.0, -3.0, 10.0, 6.0)
    assert (res["v_min"], res["v_max"], res["v_null"]) == (2, 7, 1)


def test_layer_algebra_multi_intersector(ray_session):
    """Layer Union/SymDifference/Identity/Update (ogrlayer.cpp:5385-6340):
    residual = feature minus the union of ALL intersectors (not per-pair),
    fully-covered features drop, Update pastes method features whole."""
    import numpy as np
    import ray.data as rd

    from gdal_ray.sources.synthetic import rect_wkbs
    from gdal_ray.stages import layeralg as LA

    A = pa.table({"l_id": pa.array([1], pa.int64()),
                  "wkb": pa.array(rect_wkbs(
                      np.array([0.0]), np.array([0.0]),
                      np.array([10.0]), np.array([10.0])), pa.binary())})
    B = pa.table({"r_id": pa.array([7, 8], pa.int64()),
                  "wkb": pa.array(rect_wkbs(
                      np.array([2.0, 6.0]), np.array([2.0, 2.0]),
                      np.array([5.0, 12.0]), np.array([5.0, 5.0])),
                      pa.binary())})
    u = {(r["part"], r["l_id"], r["r_id"]): r["area"]
         for r in LA.layer_union(rd.from_arrow(A),
                                 rd.from_arrow(B)).take_all()}
    assert u == {("both", 1, 7): 9.0, ("both", 1, 8): 12.0,
                 ("left", 1, -1): 79.0, ("right", -1, 8): 6.0}

    sd = sorted((r["part"], r["area"]) for r in LA.layer_symdifference(
        rd.from_arrow(A), rd.from_arrow(B)).take_all())
    assert sd == [("left", 79.0), ("right", 6.0)]

    ident = sorted((r["part"], r["area"]) for r in LA.layer_identity(
        rd.from_arrow(A), rd.from_arrow(B)).take_all())
    assert ident == [("both", 9.0), ("both", 12.0), ("left", 79.0)]

    up = sorted((r["part"], r["r_id"], r["area"]) for r in LA.layer_update(
        rd.from_arrow(A), rd.from_arrow(B)).take_all())
    assert up == [("left", -1, 79.0), ("right", 7, 9.0), ("right", 8, 18.0)]


def _densify_geodesic_edge(p0, p1, n=200):
    """Independent check helper: march the geodesic ODE point-by-point from
    p0 toward p1 (Vincenty departure azimuth, RK4 in arc length) recording
    every intermediate position — the resulting dense chord polyline feeds
    the authalic-q trapezoid area, which converges to the true geodesic
    area as the chords shrink."""
    from gdal_ray.functions import transformer as tr
    from gdal_ray.stages.geomops import _vincenty_inverse

    a, f = tr.WGS84_A, tr.WGS84_F
    e2 = f * (2.0 - f)
    pts = np.array([p0, p1], float)
    s12, al1 = _vincenty_inverse(pts, a, f)
    phi = np.radians(np.array([p0[1]]))
    lam = np.radians(np.array([p0[0]]))
    alpha = al1.copy()
    h = s12 / n

    def deriv(phi, alpha):
        s_ = np.sin(phi)
        W = np.sqrt(1.0 - e2 * s_ * s_)
        M = a * (1.0 - e2) / W ** 3
        N = a / W
        sa, ca = np.sin(alpha), np.cos(alpha)
        return ca / M, sa / (N * np.cos(phi)), sa * np.tan(phi) / N

    out = [list(p0)]
    for _ in range(n):
        k1 = deriv(phi, alpha)
        k2 = deriv(phi + 0.5 * h * k1[0], alpha + 0.5 * h * k1[2])
        k3 = deriv(phi + 0.5 * h * k2[0], alpha + 0.5 * h * k2[2])
        k4 = deriv(phi + h * k3[0], alpha + h * k3[2])
        phi = phi + h / 6.0 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        lam = lam + h / 6.0 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        alpha = alpha + h / 6.0 * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2])
        out.append([float(np.degrees(lam[0])), float(np.degrees(phi[0]))])
    return out


def test_geodesic_true_area_dense_chord_parity():
    """Round-4: TRUE geodesic-edge area (mode='geodesic').  Cross-validated
    two independent ways: (a) densify every geodesic edge into 200 chords
    and fold the authalic-q trapezoid sum (exact in the dense limit);
    (b) the endpoint of the ODE march must land on the Vincenty-target
    vertex (the same ODEs drive position AND area, so hitting the vertex
    validates the quadrature path)."""
    from gdal_ray.stages.geomops import _ell_ring_area_m2, _geodesic_ring_area_m2

    # a deliberately skewed (non-lat-lon-aligned) quadrilateral
    ring = np.array([[10.0, 40.0], [16.0, 41.0], [15.0, 47.5],
                     [9.0, 45.0], [10.0, 40.0]])
    g = _geodesic_ring_area_m2(ring)
    dense = []
    for i in range(len(ring) - 1):
        seg = _densify_geodesic_edge(ring[i], ring[i + 1], n=1000)
        # (b) the march must arrive at the target vertex
        assert abs(seg[-1][0] - ring[i + 1][0]) < 1e-7
        assert abs(seg[-1][1] - ring[i + 1][1]) < 1e-7
        dense.extend(seg[:-1])
    dense.append(list(ring[0]))
    ref = _ell_ring_area_m2(np.array(dense))
    # the dense-chord reference carries its own O(1/n^2) chord error
    # (~5.5e-9 at n=1000, measured 1.4e-7 at n=200); the quadrature itself
    # converges to 1e-10 (nsteps check below)
    assert abs(g / ref - 1.0) < 2e-8
    # nsteps convergence: 16 vs 256 steps agree to ~RK4 tolerance
    assert abs(_geodesic_ring_area_m2(ring, nsteps=16)
               / _geodesic_ring_area_m2(ring, nsteps=256) - 1.0) < 1e-9


def test_geodesic_true_mode_batch_and_guards():
    import pyarrow as pa
    import pytest

    from gdal_ray.functions import wkt as _wkt
    from gdal_ray.stages import geomops

    w = _wkt.parse_wkt("POLYGON ((10 40, 13 40, 13 42.5, 10 42.5, 10 40))")
    t = pa.table({"wkb": pa.array([w], pa.binary())})
    ell = geomops.geodesic_measures_batch(t, mode="ellipsoidal").to_pylist()[0]
    geo = geomops.geodesic_measures_batch(t, mode="geodesic").to_pylist()[0]
    # perimeters identical (both Vincenty); areas differ only by the
    # parallel-vs-geodesic bulge of the two east-west edges (~1e-5 rel)
    assert geo["geo_perim_m"] == ell["geo_perim_m"]
    assert abs(geo["geo_area_10m2"] / ell["geo_area_10m2"] - 1.0) < 1e-4
    assert geo["geo_area_10m2"] != ell["geo_area_10m2"]
    # pole vertex must raise loudly, not return garbage
    wp = _wkt.parse_wkt("POLYGON ((0 0, 90 0, 0 90, 0 0))")
    tp = pa.table({"wkb": pa.array([wp], pa.binary())})
    with pytest.raises(ValueError, match="pole"):
        geomops.geodesic_measures_batch(tp, mode="geodesic")


def test_check_geometry(ray_session):
    """gdal vector check-geometry: validity classes, reasons, locations."""
    import pyarrow as pa
    import ray.data as rd

    from gdal_ray.functions import wkb as wf
    from gdal_ray.stages import geomops

    bow = wf.encode_polygon([np.array(
        [[0, 0], [2, 2], [2, 0], [0, 2], [0, 0]], float)])
    ok = wf.encode_polygon([np.array(
        [[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]], float)])
    hole_in = wf.encode_polygon([
        np.array([[0, 0], [4, 0], [4, 4], [0, 4], [0, 0]], float),
        np.array([[1, 1], [2, 1], [2, 2], [1, 2], [1, 1]], float)])
    hole_out = wf.encode_polygon([
        np.array([[0, 0], [4, 0], [4, 4], [0, 4], [0, 0]], float),
        np.array([[10, 10], [11, 10], [11, 11], [10, 11], [10, 10]], float)])
    nanring = wf.encode_polygon([np.array(
        [[0, 0], [np.nan, 1], [1, 1], [0, 1], [0, 0]], float)])
    simple_line = wf.encode_linestring(np.array([[0, 0], [5, 5]], float))
    cross_line = wf.encode_linestring(np.array(
        [[0, 0], [2, 2], [2, 0], [0, 2]], float))
    # concave L-shaped hole hugging the shell's corner: its vertex centroid
    # (~1.17, 1.17) is inside, but shrink the shell so the centroid of an
    # L-hole wrapped around (3.5, 3.5) falls OUTSIDE the 0..4 shell while
    # every hole vertex is inside — the ADVICE regression case
    l_hole = wf.encode_polygon([
        np.array([[0, 0], [4, 0], [4, 4], [0, 4], [0, 0]], float),
        np.array([[0.5, 0.5], [3.9, 0.5], [3.9, 3.9], [3.5, 3.9],
                  [3.5, 0.9], [0.5, 0.9], [0.5, 0.5]], float)])
    t = pa.table({"fid": pa.array(list(range(8)), pa.int64()),
                  "wkb": pa.array([ok, bow, hole_in, hole_out, nanring,
                                   simple_line, cross_line, l_hole],
                                  pa.binary())})
    out = geomops.check_geometry(rd.from_arrow(t)).to_pandas()
    got = out.set_index("id")
    assert bool(got.loc[0, "valid"]) and bool(got.loc[2, "valid"])
    assert bool(got.loc[5, "valid"])
    assert got.loc[1, "reason"] == "Ring Self-intersection"
    assert (got.loc[1, "loc_x"], got.loc[1, "loc_y"]) == (1.0, 1.0)
    assert got.loc[3, "reason"] == "Hole lies outside shell"
    assert got.loc[4, "reason"] == "Invalid Coordinate"
    assert got.loc[6, "reason"] == "self-intersection"
    assert bool(got.loc[7, "valid"])  # concave hole inside shell: valid
