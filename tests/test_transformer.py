"""Transformer suite: TM/UTM (Krueger), LCC, datum shift, GCP poly, TPS, RPC.

Validation strategy (no PROJ in the container, so everything is checked
against independent math, not another library):
- TM: round-trip to nm, easting==FE on the central meridian, northing on the
  CM equals k0 x the meridian arc integral (independent numeric quadrature),
  and agreement with an independently-coded 4th-order Snyder/Redfearn series
  to < 5 mm inside the zone.
- LCC: round-trip, scale == 1 on both standard parallels (finite-difference
  scale factor), scale < 1 between and > 1 outside.
- Geocentric/Helmert: round-trip, identity params, pure-translation check.
- GCP polynomial: exact recovery of an affine (order 1) and quadratic
  (order 2) mapping; inverse consistency.
- TPS: exact interpolation at the control points; affine data -> affine TPS.
- RPC: forward matches a direct evaluation; Newton inverse round-trips.
"""

from __future__ import annotations

import numpy as np
import pytest

from gdal_ray.functions import transformer as tr


def _snyder_tm_forward(lon, lat, lon0, k0=0.9996, fe=500000.0, fn=0.0):
    """Independent check implementation: classic Redfearn/Snyder TM series
    (Snyder PP1395 eqs 8-9..8-15, 4th order) — different derivation from
    the Krueger series under test."""
    a, e2 = tr.WGS84_A, tr.WGS84_E2
    ep2 = e2 / (1.0 - e2)
    phi = np.radians(np.asarray(lat, dtype=np.float64))
    lam = np.radians(np.asarray(lon, dtype=np.float64) - lon0)
    N = a / np.sqrt(1.0 - e2 * np.sin(phi) ** 2)
    T = np.tan(phi) ** 2
    C = ep2 * np.cos(phi) ** 2
    A = lam * np.cos(phi)
    M = a * (
        (1 - e2 / 4 - 3 * e2**2 / 64 - 5 * e2**3 / 256) * phi
        - (3 * e2 / 8 + 3 * e2**2 / 32 + 45 * e2**3 / 1024) * np.sin(2 * phi)
        + (15 * e2**2 / 256 + 45 * e2**3 / 1024) * np.sin(4 * phi)
        - (35 * e2**3 / 3072) * np.sin(6 * phi)
    )
    E = fe + k0 * N * (
        A + (1 - T + C) * A**3 / 6
        + (5 - 18 * T + T**2 + 72 * C - 58 * ep2) * A**5 / 120
    )
    Nn = fn + k0 * (
        M + N * np.tan(phi) * (
            A**2 / 2 + (5 - T + 9 * C + 4 * C**2) * A**4 / 24
            + (61 - 58 * T + T**2 + 600 * C - 330 * ep2) * A**6 / 720
        )
    )
    return E, Nn


def _meridian_arc(lat_deg: float, n_steps: int = 200001) -> float:
    """Meridian arc length from equator by composite Simpson quadrature."""
    a, e2 = tr.WGS84_A, tr.WGS84_E2
    phi = np.linspace(0.0, np.radians(lat_deg), n_steps)
    integrand = a * (1 - e2) / (1 - e2 * np.sin(phi) ** 2) ** 1.5
    h = phi[1] - phi[0]
    w = np.ones(n_steps)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float((h / 3.0) * np.sum(w * integrand))


class TestTransverseMercator:
    def test_round_trip_nm(self):
        rng = np.random.default_rng(7)
        lon = 3.0 + rng.uniform(-5.9, 5.9, 300)
        lat = rng.uniform(-80.0, 84.0, 300)
        E, N = tr.tmerc_forward(lon, lat, lon0=3.0)
        lon2, lat2 = tr.tmerc_inverse(E, N, lon0=3.0)
        # degrees -> metres: 1e-12 deg ~ 0.1 um
        np.testing.assert_allclose(lon2, lon, atol=1e-11)
        np.testing.assert_allclose(lat2, lat, atol=1e-11)

    def test_central_meridian_easting_and_arc(self):
        lat = np.array([0.0, 15.0, 30.0, 45.0, 60.0, 75.0])
        E, N = tr.tmerc_forward(np.full_like(lat, 9.0), lat, lon0=9.0)
        np.testing.assert_allclose(E, 500000.0, atol=1e-6)
        for la, nn in zip(lat, N):
            arc = 0.9996 * _meridian_arc(float(la))
            assert abs(nn - arc) < 2e-3, (la, nn, arc)  # quadrature-limited

    def test_matches_snyder_series_in_zone(self):
        rng = np.random.default_rng(11)
        lon = -75.0 + rng.uniform(-3.0, 3.0, 200)
        lat = rng.uniform(-70.0, 70.0, 200)
        E1, N1 = tr.tmerc_forward(lon, lat, lon0=-75.0)
        E2, N2 = _snyder_tm_forward(lon, lat, lon0=-75.0)
        # Snyder's truncated series is itself only good to ~1 mm in-zone
        np.testing.assert_allclose(E1, E2, atol=5e-3)
        np.testing.assert_allclose(N1, N2, atol=5e-3)

    def test_utm_zone_params(self):
        assert tr.utm_zone_params(31) == (3.0, 0.9996, 500000.0, 0.0)
        assert tr.utm_zone_params(18, south=True)[3] == 10000000.0
        with pytest.raises(ValueError):
            tr.utm_zone_params(61)

    def test_east_west_symmetry(self):
        lat = np.array([40.0])
        Ew, _ = tr.tmerc_forward(np.array([1.0]), lat, lon0=3.0)
        Ee, _ = tr.tmerc_forward(np.array([5.0]), lat, lon0=3.0)
        np.testing.assert_allclose(Ew - 500000.0, -(Ee - 500000.0), atol=1e-6)


class TestLambertConformalConic:
    P = dict(lon0=-96.0, lat1=33.0, lat2=45.0, lat0=39.0)

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        lon = -96.0 + rng.uniform(-20, 20, 300)
        lat = rng.uniform(20.0, 60.0, 300)
        E, N = tr.lcc_forward(lon, lat, **self.P)
        lon2, lat2 = tr.lcc_inverse(E, N, **self.P)
        np.testing.assert_allclose(lon2, lon, atol=1e-10)
        np.testing.assert_allclose(lat2, lat, atol=1e-10)

    def _scale(self, lat: float) -> float:
        # finite-difference scale factor along a parallel
        d = 1e-6
        e0, n0 = tr.lcc_forward(np.array([-96.0]), np.array([lat]), **self.P)
        e1, n1 = tr.lcc_forward(np.array([-96.0 + d]), np.array([lat]), **self.P)
        ground = (
            np.radians(d)
            * np.cos(np.radians(lat))
            * tr.WGS84_A
            / np.sqrt(1 - tr.WGS84_E2 * np.sin(np.radians(lat)) ** 2)
        )
        return float(np.hypot(e1 - e0, n1 - n0) / ground)

    def test_scale_on_standard_parallels(self):
        assert abs(self._scale(33.0) - 1.0) < 1e-7
        assert abs(self._scale(45.0) - 1.0) < 1e-7
        assert self._scale(39.0) < 1.0  # between: < 1
        assert self._scale(50.0) > 1.0  # outside: > 1


class TestDatumShift:
    def test_geocentric_round_trip(self):
        rng = np.random.default_rng(5)
        lon = rng.uniform(-180, 180, 300)
        lat = rng.uniform(-89, 89, 300)
        h = rng.uniform(-100, 9000, 300)
        X, Y, Z = tr.geodetic_to_geocentric(lon, lat, h)
        lon2, lat2, h2 = tr.geocentric_to_geodetic(X, Y, Z)
        np.testing.assert_allclose(lon2, lon, atol=1e-10)
        np.testing.assert_allclose(lat2, lat, atol=1e-9)
        np.testing.assert_allclose(h2, h, atol=1e-4)

    def test_identity_params(self):
        lon, lat, h = tr.datum_shift_lonlat(
            np.array([12.5]), np.array([41.9]), (0, 0, 0, 0, 0, 0, 0)
        )
        np.testing.assert_allclose(lon, 12.5, atol=1e-12)
        np.testing.assert_allclose(lat, 41.9, atol=1e-12)

    def test_pure_translation(self):
        X, Y, Z = tr.geodetic_to_geocentric(np.array([0.0]), np.array([0.0]))
        Xp, Yp, Zp = tr.helmert_shift(X, Y, Z, (100.0, -50.0, 25.0, 0, 0, 0, 0))
        np.testing.assert_allclose(Xp - X, 100.0)
        np.testing.assert_allclose(Yp - Y, -50.0)
        np.testing.assert_allclose(Zp - Z, 25.0)

    def test_scale_ppm(self):
        X, Y, Z = tr.geodetic_to_geocentric(np.array([45.0]), np.array([30.0]))
        Xp, _, _ = tr.helmert_shift(X, Y, Z, (0, 0, 0, 0, 0, 0, 10.0))
        np.testing.assert_allclose(Xp / X, 1.0 + 10e-6, rtol=1e-12)


class TestGCPPolynomial:
    def test_order1_recovers_affine(self):
        rng = np.random.default_rng(9)
        sx = rng.uniform(0, 100, 8)
        sy = rng.uniform(0, 100, 8)
        dx = 3.5 + 2.0 * sx - 0.5 * sy
        dy = -7.0 + 0.25 * sx + 1.5 * sy
        t = tr.GCPPolynomialTransformer(sx, sy, dx, dy, order=1)
        qx, qy = rng.uniform(0, 100, 50), rng.uniform(0, 100, 50)
        ox, oy = t.forward(qx, qy)
        np.testing.assert_allclose(ox, 3.5 + 2.0 * qx - 0.5 * qy, atol=1e-9)
        np.testing.assert_allclose(oy, -7.0 + 0.25 * qx + 1.5 * qy, atol=1e-9)
        ix, iy = t.inverse(ox, oy)
        np.testing.assert_allclose(ix, qx, atol=1e-8)
        np.testing.assert_allclose(iy, qy, atol=1e-8)

    def test_order2_recovers_quadratic(self):
        rng = np.random.default_rng(13)
        sx = rng.uniform(-1, 1, 15)
        sy = rng.uniform(-1, 1, 15)
        dx = 1.0 + sx + 0.1 * sx * sx - 0.2 * sx * sy
        dy = 2.0 + sy + 0.05 * sy * sy
        t = tr.GCPPolynomialTransformer(sx, sy, dx, dy, order=2)
        qx, qy = rng.uniform(-1, 1, 40), rng.uniform(-1, 1, 40)
        ox, oy = t.forward(qx, qy)
        np.testing.assert_allclose(ox, 1.0 + qx + 0.1 * qx * qx - 0.2 * qx * qy, atol=1e-10)
        np.testing.assert_allclose(oy, 2.0 + qy + 0.05 * qy * qy, atol=1e-10)

    def test_underdetermined_raises(self):
        with pytest.raises(ValueError):
            tr.GCPPolynomialTransformer([0, 1], [0, 1], [0, 1], [0, 1], order=2)
        with pytest.raises(ValueError):
            tr.GCPPolynomialTransformer([0], [0], [0], [0], order=4)

    def test_sql_exprs_match_forward(self):
        import duckdb

        rng = np.random.default_rng(17)
        sx = rng.uniform(0, 10, 9)
        sy = rng.uniform(0, 10, 9)
        dx = 1 + 2 * sx + sy + 0.1 * sx * sy
        dy = 5 - sx + 3 * sy - 0.2 * sy * sy
        t = tr.GCPPolynomialTransformer(sx, sy, dx, dy, order=2)
        ex, ey = t.sql_exprs("x", "y")
        qx, qy = 3.7, 8.1
        ox, oy = t.forward(np.array([qx]), np.array([qy]))
        rx, ry = duckdb.sql(
            f"SELECT {ex}, {ey} FROM (SELECT CAST({qx!r} AS DOUBLE) AS x, CAST({qy!r} AS DOUBLE) AS y)"
        ).fetchone()
        assert abs(rx - ox[0]) < 1e-9
        assert abs(ry - oy[0]) < 1e-9


class TestTPS:
    def test_interpolates_control_points(self):
        rng = np.random.default_rng(21)
        sx = rng.uniform(0, 50, 10)
        sy = rng.uniform(0, 50, 10)
        dx = rng.uniform(-10, 10, 10)
        dy = rng.uniform(-10, 10, 10)
        t = tr.TPSTransformer(sx, sy, dx, dy)
        ox, oy = t.forward(sx, sy)
        np.testing.assert_allclose(ox, dx, atol=1e-8)
        np.testing.assert_allclose(oy, dy, atol=1e-8)

    def test_affine_data_gives_affine_tps(self):
        # affine displacement -> spline weights ~0, pure affine part
        sx = np.array([0.0, 10.0, 0.0, 10.0, 5.0])
        sy = np.array([0.0, 0.0, 10.0, 10.0, 5.0])
        dx = 2.0 + 1.5 * sx - 0.5 * sy
        dy = -1.0 + 0.5 * sx + 2.0 * sy
        t = tr.TPSTransformer(sx, sy, dx, dy)
        np.testing.assert_allclose(t.wx, 0.0, atol=1e-9)
        np.testing.assert_allclose(t.wy, 0.0, atol=1e-9)
        ox, oy = t.forward(np.array([3.3]), np.array([7.7]))
        np.testing.assert_allclose(ox, 2.0 + 1.5 * 3.3 - 0.5 * 7.7, atol=1e-8)
        np.testing.assert_allclose(oy, -1.0 + 0.5 * 3.3 + 2.0 * 7.7, atol=1e-8)

    def test_sql_exprs_match_forward(self):
        import duckdb

        sx = np.array([0.0, 10.0, 0.0, 10.0, 6.0, 2.0])
        sy = np.array([0.0, 0.0, 10.0, 10.0, 3.0, 8.0])
        dx = sx + np.array([0.5, -0.3, 0.2, 0.1, -0.4, 0.6])
        dy = sy + np.array([-0.2, 0.4, -0.1, 0.3, 0.2, -0.5])
        t = tr.TPSTransformer(sx, sy, dx, dy)
        ex, ey = t.sql_exprs("x", "y")
        qx, qy = 4.25, 6.5
        ox, oy = t.forward(np.array([qx]), np.array([qy]))
        rx, ry = duckdb.sql(
            f"SELECT {ex}, {ey} FROM (SELECT CAST({qx!r} AS DOUBLE) AS x, CAST({qy!r} AS DOUBLE) AS y)"
        ).fetchone()
        assert abs(rx - ox[0]) < 1e-9
        assert abs(ry - oy[0]) < 1e-9


def _toy_rpc() -> "tr.RPCTransformer":
    line_num = np.zeros(20)
    line_den = np.zeros(20)
    samp_num = np.zeros(20)
    samp_den = np.zeros(20)
    # mild, invertible model: row ~ P + small nonlinearities, col ~ L + ...
    line_num[[0, 2, 1, 7, 8]] = [0.002, 1.0, 0.01, 0.003, -0.002]
    samp_num[[0, 1, 2, 7, 8]] = [-0.001, 1.0, 0.015, -0.004, 0.001]
    line_den[0] = 1.0
    line_den[[1, 2]] = [0.001, -0.002]
    samp_den[0] = 1.0
    samp_den[[1, 2]] = [-0.0015, 0.001]
    return tr.RPCTransformer(
        line_num, line_den, samp_num, samp_den,
        lon_off=10.0, lon_scale=0.5, lat_off=45.0, lat_scale=0.5,
        h_off=100.0, h_scale=500.0,
        line_off=2048.0, line_scale=2048.0, samp_off=2048.0, samp_scale=2048.0,
    )


class TestRPC:
    def test_forward_matches_direct(self):
        r = _toy_rpc()
        lon, lat = np.array([10.2]), np.array([44.9])
        col, row = r.forward(lon, lat, h=150.0)
        L = (10.2 - 10.0) / 0.5
        P = (44.9 - 45.0) / 0.5
        H = (150.0 - 100.0) / 500.0
        num_r = 0.002 + 1.0 * P + 0.01 * L + 0.003 * L * L - 0.002 * P * P
        den_r = 1.0 + 0.001 * L - 0.002 * P
        assert abs(row[0] - (num_r / den_r * 2048.0 + 2048.0)) < 1e-9
        num_c = -0.001 + 1.0 * L + 0.015 * P - 0.004 * L * L + 0.001 * P * P
        den_c = 1.0 - 0.0015 * L + 0.001 * P
        assert abs(col[0] - (num_c / den_c * 2048.0 + 2048.0)) < 1e-9
        assert H == 0.1

    def test_inverse_round_trip(self):
        r = _toy_rpc()
        rng = np.random.default_rng(31)
        lon = 10.0 + rng.uniform(-0.4, 0.4, 100)
        lat = 45.0 + rng.uniform(-0.4, 0.4, 100)
        col, row = r.forward(lon, lat, h=200.0)
        lon2, lat2 = r.inverse(col, row, h=200.0)
        np.testing.assert_allclose(lon2, lon, atol=1e-9)
        np.testing.assert_allclose(lat2, lat, atol=1e-9)

    def test_bad_coef_length(self):
        with pytest.raises(ValueError):
            tr.RPCTransformer(np.zeros(19), np.zeros(20), np.zeros(20), np.zeros(20))

    def test_sql_exprs_match_forward(self):
        import duckdb

        r = _toy_rpc()
        cexpr, rexpr = r.sql_exprs("lon", "lat", h=150.0)
        col, row = r.forward(np.array([10.33]), np.array([45.21]), h=150.0)
        rc, rr = duckdb.sql(
            f"SELECT {cexpr}, {rexpr} FROM (SELECT CAST(10.33 AS DOUBLE) AS lon, CAST(45.21 AS DOUBLE) AS lat)"
        ).fetchone()
        assert abs(rc - col[0]) < 1e-8
        assert abs(rr - row[0]) < 1e-8


class TestReprojectRouting:
    def test_utm_epsg_codes(self):
        from gdal_ray.functions import geo

        lon = np.array([3.5])
        lat = np.array([47.0])
        x, y = geo.reproject_points(lon, lat, "EPSG:4326", "EPSG:32631")
        ex, ey = tr.tmerc_forward(lon, lat, lon0=3.0)
        np.testing.assert_allclose(x, ex)
        np.testing.assert_allclose(y, ey)
        # and back
        lon2, lat2 = geo.reproject_points(x, y, "EPSG:32631", "EPSG:4326")
        np.testing.assert_allclose(lon2, lon, atol=1e-10)
        np.testing.assert_allclose(lat2, lat, atol=1e-10)

    def test_utm_south(self):
        from gdal_ray.functions import geo

        x, y = geo.reproject_points(
            np.array([-60.0]), np.array([-33.0]), "EPSG:4326", "EPSG:32721"
        )
        ex, ey = tr.tmerc_forward(
            np.array([-60.0]), np.array([-33.0]), lon0=-57.0, fn=10000000.0
        )
        np.testing.assert_allclose(x, ex)
        np.testing.assert_allclose(y, ey)
        assert y[0] > 0  # false northing applied


def test_grid_shift_forward_inverse_roundtrip():
    """NTv2-style grid shift: bilinear node reproduction, edge clamping, and
    the standard fixed-point inverse recovering inputs to float precision."""
    t = tr.demo_shift_grid()
    # exactly on a node: shift equals the node value
    lon, lat = np.array([-180.0 + 10.0 * 3]), np.array([-90.0 + 10.0 * 2])
    lo, la = t.forward(lon, lat)
    exp_lon = ((3 * 7 + 2 * 3) % 11 - 5) * 0.25 / 3600.0
    exp_lat = ((3 * 5 + 2 * 11) % 13 - 6) * 0.125 / 3600.0
    assert abs((lo[0] - lon[0]) - exp_lon) < 1e-13
    assert abs((la[0] - lat[0]) - exp_lat) < 1e-13
    # random points: inverse(forward) == identity to ~1e-12 deg
    rng = np.random.default_rng(5)
    lon = rng.uniform(-179, 179, 200)
    lat = rng.uniform(-89, 89, 200)
    lo, la = t.forward(lon, lat)
    xi, yi = t.inverse(lo, la)
    assert np.abs(xi - lon).max() < 1e-12
    assert np.abs(yi - lat).max() < 1e-12
    # outside the grid: clamps to border cell (PROJ edge behavior), no nan
    lo, la = t.forward(np.array([-200.0, 200.0]), np.array([-95.0, 95.0]))
    assert np.isfinite(lo).all() and np.isfinite(la).all()


def test_ntv2_gsb_roundtrip_bitwise():
    """NTv2 .gsb writer/reader: spec header layout, positive-west node order,
    float32 records; the dyadic demo grid round-trips bitwise."""
    import os
    import struct
    import tempfile

    from gdal_ray.sources import ntv2

    t = tr.demo_shift_grid()
    path = os.path.join(tempfile.gettempdir(), "test_grid.gsb")
    ntv2.write_gsb(path, t)
    raw = open(path, "rb").read()
    assert raw[0:8] == b"NUM_OREC" and struct.unpack_from("<i", raw, 8)[0] == 11
    assert os.path.getsize(path) == 22 * 16 + t.slon.size * 16
    t2 = ntv2.read_gsb(path)
    assert np.array_equal(t.slon, t2.slon) and np.array_equal(t.slat, t2.slat)
    assert (t2.lon0, t2.lat0, t2.step) == (t.lon0, t.lat0, t.step)
    lo1, la1 = t.forward(np.array([12.3]), np.array([45.6]))
    lo2, la2 = t2.forward(np.array([12.3]), np.array([45.6]))
    assert lo1[0] == lo2[0] and la1[0] == la2[0]


def test_multi_subgrid_gsb_roundtrip_and_child_wins(tmp_path):
    """NUM_FILE=2 .gsb round trip is bitwise (dyadic nodes); child subgrid
    overrides the root inside its extent, root applies outside."""
    import numpy as np
    from gdal_ray.functions import transformer
    from gdal_ray.sources import ntv2

    mg = transformer.demo_multi_grid()
    path = str(tmp_path / "multi.gsb")
    ntv2.write_gsb_multi(path, mg.grids)
    back = ntv2.read_gsb(path)
    assert isinstance(back, transformer.MultiGridShiftTransformer)
    for (n0, p0, t0), (n1, p1, t1) in zip(mg.grids, back.grids):
        assert (n0, p0) == (n1, p1)
        assert (t0.slon == t1.slon).all() and (t0.slat == t1.slat).all()

    child = mg.grids[1][2]
    root = mg.grids[0][2]
    inside = (np.array([5.3, 20.0, 40.0]), np.array([2.1, 15.7, 30.0]))
    outside = (np.array([-50.0, 41.0, 5.0]), np.array([10.0, 10.0, -1.0]))
    lo_i, la_i = back.forward(*inside)
    ce_lo, ce_la = child.forward(*inside)
    assert np.allclose(lo_i, ce_lo, atol=0) and np.allclose(la_i, ce_la, atol=0)
    lo_o, la_o = back.forward(*outside)
    r_lo, r_la = root.forward(*outside)
    assert np.allclose(lo_o, r_lo, atol=0) and np.allclose(la_o, r_la, atol=0)
    # fixed-point inverse round trip through the mixed selection
    x, y = back.inverse(lo_i, la_i)
    assert np.abs(x - inside[0]).max() < 1e-9
    assert np.abs(y - inside[1]).max() < 1e-9


def test_single_subgrid_read_back_compat(tmp_path):
    from gdal_ray.functions import transformer
    from gdal_ray.sources import ntv2

    t = transformer.demo_shift_grid()
    path = str(tmp_path / "single.gsb")
    ntv2.write_gsb(path, t)
    back = ntv2.read_gsb(path)
    assert isinstance(back, transformer.GridShiftTransformer)
    assert (back.slon == t.slon).all()


# -- Snyder projection family round 3: stereographic / Albers / AEQD ---------


def test_stereo_polar_roundtrip_and_scale():
    from gdal_ray.functions import transformer as tr

    rng = np.random.default_rng(3)
    lon = rng.uniform(-180, 180, 500)
    lat = rng.uniform(60, 89.9, 500)
    E, N = tr.stereo_polar_forward(lon, lat, lon0=-45.0, lat_ts=70.0)
    lo, la = tr.stereo_polar_inverse(E, N, lon0=-45.0, lat_ts=70.0)
    assert np.abs((lo - lon + 540) % 360 - 180).max() < 1e-9
    assert np.abs(la - lat).max() < 1e-9
    # true scale at the standard parallel (k=1), shrinking toward the pole
    d = 1e-7
    for lat_c, expect in ((70.0, 1.0), (89.0, 0.97)):
        E0, N0 = tr.stereo_polar_forward(30.0, lat_c, lon0=-45.0, lat_ts=70.0)
        E1, N1 = tr.stereo_polar_forward(30.0 + d, lat_c, lon0=-45.0, lat_ts=70.0)
        ground = tr.WGS84_A * tr._lcc_m(np.radians(lat_c)) * np.radians(d)
        k = float(np.hypot(E1 - E0, N1 - N0) / ground)
        assert abs(k - expect) < 2e-3
    # south aspect (EPSG:3031 params)
    lat_s = rng.uniform(-89.9, -60, 200)
    E, N = tr.stereo_polar_forward(lon[:200], lat_s, lon0=0.0, lat_ts=-71.0, north=False)
    lo, la = tr.stereo_polar_inverse(E, N, lon0=0.0, lat_ts=-71.0, north=False)
    assert np.abs(la - lat_s).max() < 1e-9


def test_stereo_oblique_roundtrip_and_origin_scale():
    from gdal_ray.functions import transformer as tr

    rng = np.random.default_rng(5)
    lon = rng.uniform(-30, 40, 500)
    lat = rng.uniform(20, 70, 500)
    E, N = tr.stereo_oblique_forward(lon, lat, lon0=5.0, lat0=52.0, k0=0.9999)
    lo, la = tr.stereo_oblique_inverse(E, N, lon0=5.0, lat0=52.0, k0=0.9999)
    assert np.abs(lo - lon).max() < 1e-9
    assert np.abs(la - lat).max() < 1e-9
    # origin maps to (fe, fn) with scale k0
    E0, N0 = tr.stereo_oblique_forward(5.0, 52.0, lon0=5.0, lat0=52.0, k0=0.9999)
    assert abs(float(E0)) < 1e-6 and abs(float(N0)) < 1e-6
    d = 1e-7
    E1, N1 = tr.stereo_oblique_forward(5.0 + d, 52.0, lon0=5.0, lat0=52.0, k0=0.9999)
    ground = tr.WGS84_A * tr._lcc_m(np.radians(52.0)) * np.radians(d)
    assert abs(float(np.hypot(E1 - E0, N1 - N0) / ground) - 0.9999) < 1e-4


def test_albers_roundtrip_and_equal_area():
    from gdal_ray.functions import transformer as tr

    kw = dict(lon0=-96.0, lat1=29.5, lat2=45.5, lat0=23.0)
    rng = np.random.default_rng(7)
    lon = rng.uniform(-125, -66, 500)
    lat = rng.uniform(23, 52, 500)
    E, N = tr.aea_forward(lon, lat, **kw)
    lo, la = tr.aea_inverse(E, N, **kw)
    assert np.abs(lo - lon).max() < 1e-9
    assert np.abs(la - lat).max() < 1e-9
    # the defining property: a small quad's projected area equals its
    # ellipsoidal area (shoelace vs M*N*cos(phi) patch), anywhere
    d = 1e-3
    for la_c in (25.0, 37.0, 50.0):
        pts_lon = np.array([-100.0, -100.0 + d, -100.0 + d, -100.0])
        pts_lat = np.array([la_c, la_c, la_c + d, la_c + d])
        Ep, Np = tr.aea_forward(pts_lon, pts_lat, **kw)
        area = 0.5 * abs(sum(Ep[i] * Np[(i + 1) % 4] - Ep[(i + 1) % 4] * Np[i]
                             for i in range(4)))
        phi = np.radians(la_c + d / 2)
        sphi = np.sin(phi)
        M = tr.WGS84_A * (1 - tr.WGS84_E2) / (1 - tr.WGS84_E2 * sphi * sphi) ** 1.5
        Nr = tr.WGS84_A / np.sqrt(1 - tr.WGS84_E2 * sphi * sphi)
        true = (M * np.radians(d)) * (Nr * np.cos(phi) * np.radians(d))
        assert abs(area / true - 1.0) < 1e-6


def test_aeqd_polar_roundtrip_and_meridian_distance():
    from gdal_ray.functions import transformer as tr

    rng = np.random.default_rng(9)
    lon = rng.uniform(-180, 180, 500)
    lat = rng.uniform(50, 89.9, 500)
    E, N = tr.aeqd_polar_forward(lon, lat, lon0=0.0)
    lo, la = tr.aeqd_polar_inverse(E, N, lon0=0.0)
    assert np.abs((lo - lon + 540) % 360 - 180).max() < 1e-6
    assert np.abs(la - lat).max() < 1e-6
    # rho equals the meridian arc pole->phi (numerical integral check)
    E1, N1 = tr.aeqd_polar_forward(0.0, 60.0, lon0=0.0)
    rho = float(np.hypot(E1, N1))
    ps = np.linspace(np.radians(60.0), np.pi / 2, 200001)
    f = tr.WGS84_A * (1 - tr.WGS84_E2) / (1 - tr.WGS84_E2 * np.sin(ps) ** 2) ** 1.5
    assert abs(rho - np.trapz(f, ps)) < 0.01


def test_reproject_points_epsg_routing():
    from gdal_ray.functions import geo

    lon = np.array([-40.0, 10.0])
    lat = np.array([75.0, 80.0])
    E, N = geo.reproject_points(lon, lat, "EPSG:4326", "EPSG:3413")
    lo, la = geo.reproject_points(E, N, "EPSG:3413", "EPSG:4326")
    assert np.abs(lo - lon).max() < 1e-9 and np.abs(la - lat).max() < 1e-9
    E, N = geo.reproject_points(np.array([-100.0]), np.array([40.0]),
                                "EPSG:4326", "EPSG:5070")
    lo, la = geo.reproject_points(E, N, "EPSG:5070", "EPSG:4326")
    assert abs(float(lo) + 100.0) < 1e-9 and abs(float(la) - 40.0) < 1e-9
    E, N = geo.reproject_points(np.array([120.0]), np.array([-75.0]),
                                "EPSG:4326", "EPSG:3031")
    lo, la = geo.reproject_points(E, N, "EPSG:3031", "EPSG:4326")
    assert abs(float(lo) - 120.0) < 1e-9 and abs(float(la) + 75.0) < 1e-9


def test_sinusoidal_roundtrip_and_equal_area():
    from gdal_ray.functions import transformer as tr

    rng = np.random.default_rng(11)
    lon = rng.uniform(-179, 179, 500)
    lat = rng.uniform(-85, 85, 500)
    E, N = tr.sinusoidal_forward(lon, lat)
    lo, la = tr.sinusoidal_inverse(E, N)
    assert np.abs(lo - lon).max() < 1e-6
    assert np.abs(la - lat).max() < 1e-6
    # equal-area invariant on a small quad
    d = 1e-3
    for la_c in (-40.0, 10.0, 55.0):
        pl = np.array([20.0, 20.0 + d, 20.0 + d, 20.0])
        pq = np.array([la_c, la_c, la_c + d, la_c + d])
        Ep, Np = tr.sinusoidal_forward(pl, pq)
        area = 0.5 * abs(sum(Ep[i] * Np[(i + 1) % 4] - Ep[(i + 1) % 4] * Np[i]
                             for i in range(4)))
        phi = np.radians(la_c + d / 2)
        sphi = np.sin(phi)
        M = tr.WGS84_A * (1 - tr.WGS84_E2) / (1 - tr.WGS84_E2 * sphi * sphi) ** 1.5
        Nr = tr.WGS84_A / np.sqrt(1 - tr.WGS84_E2 * sphi * sphi)
        true = (M * np.radians(d)) * (Nr * np.cos(phi) * np.radians(d))
        assert abs(area / true - 1.0) < 1e-5


def test_eqc_roundtrip_and_meridian_scale():
    from gdal_ray.functions import transformer as tr

    rng = np.random.default_rng(13)
    lon = rng.uniform(-179, 179, 500)
    lat = rng.uniform(-85, 85, 500)
    E, N = tr.eqc_forward(lon, lat, lat_ts=30.0)
    lo, la = tr.eqc_inverse(E, N, lat_ts=30.0)
    assert np.abs(lo - lon).max() < 1e-9
    assert np.abs(la - lat).max() < 1e-6
    # meridians true to scale: dy equals the meridian arc difference
    E1, N1 = tr.eqc_forward(0.0, 10.0, lat_ts=30.0)
    E2, N2 = tr.eqc_forward(0.0, 11.0, lat_ts=30.0)
    arc = tr.meridian_arc(np.radians(11.0)) - tr.meridian_arc(np.radians(10.0))
    assert abs((float(N2) - float(N1)) - float(arc)) < 1e-9
    # parallels true at lat_ts: dx along 30N equals ground distance
    E3, N3 = tr.eqc_forward(10.0, 30.0, lat_ts=30.0)
    E4, N4 = tr.eqc_forward(11.0, 30.0, lat_ts=30.0)
    ground = tr.WGS84_A * tr._lcc_m(np.radians(30.0)) * np.radians(1.0)
    assert abs((float(E4) - float(E3)) - float(ground)) < 1e-9


def test_laea_cea_kernels_roundtrip_and_equal_area():
    """Round-4 LAEA/CEA kernels: forward/inverse roundtrip and the
    equal-area Jacobian property (|J| == a^2 cos(phi) (1-e^2) /
    (1-e^2 sin^2 phi)^2, the ellipsoid's area element)."""
    from gdal_ray.functions import transformer as tr

    rng = np.random.default_rng(11)
    cases = [
        (tr.laea_forward, tr.laea_inverse,
         dict(lon0=10.0, lat0=52.0, fe=4321000.0, fn=3210000.0), (-60, 80), (-80, 80)),
        (tr.laea_forward, tr.laea_inverse, dict(lon0=0.0, lat0=90.0), (-170, 170), (5, 89)),
        (tr.laea_forward, tr.laea_inverse, dict(lon0=0.0, lat0=-90.0), (-170, 170), (-89, -5)),
        (tr.cea_forward, tr.cea_inverse, dict(lon0=0.0, lat_ts=30.0), (-170, 170), (-80, 80)),
    ]
    for fwd, inv, kw, lon_rng, lat_rng in cases:
        lon = rng.uniform(*lon_rng, 100)
        lat = rng.uniform(*lat_rng, 100)
        E, N = fwd(lon, lat, **kw)
        lon2, lat2 = inv(E, N, **kw)
        assert np.max(np.abs(((lon2 - lon + 180) % 360) - 180)) < 1e-7
        assert np.max(np.abs(lat2 - lat)) < 1e-6
    # equal-area Jacobian on the oblique + cylindrical kernels
    a, e2 = tr.WGS84_A, tr.WGS84_E2
    h = 1e-6
    for fwd, kw in [(tr.laea_forward, dict(lon0=10.0, lat0=52.0)),
                    (tr.cea_forward, dict(lon0=0.0, lat_ts=30.0))]:
        lon = np.array([5.0, 60.0, -120.0])
        lat = np.array([50.0, 10.0, -45.0])
        E0, N0 = fwd(lon, lat, **kw)
        E1, N1 = fwd(lon + h, lat, **kw)
        E2_, N2 = fwd(lon, lat + h, **kw)
        J = ((E1 - E0) * (N2 - N0) - (E2_ - E0) * (N1 - N0)) / np.radians(h) ** 2
        phi = np.radians(lat)
        truth = a * a * np.cos(phi) * (1 - e2) / (1 - e2 * np.sin(phi) ** 2) ** 2
        assert np.max(np.abs(J / truth - 1.0)) < 1e-5


def test_epsg_table_routing_roundtrips():
    """Round-4 data-driven EPSG routing: every table code and the three UTM
    zone families roundtrip through reproject_points; unknown codes raise."""
    import pytest

    from gdal_ray.functions import geo

    centers = {"EPSG:3031": (-60, -75), "EPSG:3976": (10, -70),
               "EPSG:6932": (0, -60), "EPSG:3577": (135, -25)}
    codes = sorted(geo._EPSG_TABLE) + ["EPSG:25832", "EPSG:26915",
                                       "EPSG:32633", "EPSG:32722",
                                       "EPSG:28355", "EPSG:7850",
                                       "EPSG:4534", "EPSG:4548", "EPSG:4554"]
    for c in codes:
        if c in centers:
            lon0, lat0 = centers[c]
        else:
            fam, kw = geo.epsg_params(c)
            lon0 = kw.get("lon0", 0.0)
            lat0 = abs(kw.get("lat0", kw.get("lat_ts", 45.0)) or 45.0)
            lat0 = min(lat0 or 45.0, 85.0) or 45.0
            if lat0 == 0:
                lat0 = 45.0
        if c == "EPSG:32722":
            lon0, lat0 = -51.0, -20.0
        lon = np.array([lon0, lon0 + 3.0])
        lat = np.array([lat0, max(min(lat0 - 5.0, 84.0), -84.0)])
        E, N = geo.reproject_points(lon, lat, "EPSG:4326", c)
        lon2, lat2 = geo.reproject_points(E, N, c, "EPSG:4326")
        err = max(np.max(np.abs(((lon2 - lon + 180) % 360) - 180)),
                  np.max(np.abs(lat2 - lat)))
        assert err < 1e-6, (c, err)
    # projected -> projected chains through geographic
    E, N = geo.reproject_points(np.array([1e6]), np.array([6.5e6]),
                                "EPSG:2154", "EPSG:3035")
    x2, y2 = geo.reproject_points(E, N, "EPSG:3035", "EPSG:2154")
    assert abs(x2[0] - 1e6) < 1e-3 and abs(y2[0] - 6.5e6) < 1e-3
    # round 5: EPSG:27700 now routes through the CRS registry (Airy 1830
    # + OSGB36 Helmert); a genuinely unrouted code still raises
    E, N = geo.reproject_points(np.array([0.0]), np.array([51.0]),
                                "EPSG:4326", "EPSG:27700")
    lo, la = geo.reproject_points(E, N, "EPSG:27700", "EPSG:4326")
    assert abs(lo[0]) < 1e-6 and abs(la[0] - 51.0) < 1e-6
    with pytest.raises(NotImplementedError):
        geo.reproject_points(np.array([0.0]), np.array([51.0]),
                             "EPSG:4326", "EPSG:99999")
    # published-value pin: Melbourne GPO in GDA94 / MGA zone 55
    E, N = geo.reproject_points(np.array([144.9631]), np.array([-37.8136]),
                                "EPSG:4326", "EPSG:28355")
    assert abs(E[0] - 320704.4) < 1.0 and abs(N[0] - 5812911.7) < 1.0
    # MGA zone families alias the standard UTM-south parameter set
    assert geo.epsg_params("EPSG:28355") == geo.epsg_params("EPSG:32755")
    assert geo.epsg_params("EPSG:7855") == geo.epsg_params("EPSG:32755")
    # CGCS2000 3-degree GK: k0=1, CM stepped by 3 degrees
    fam, kw = geo.epsg_params("EPSG:4540")
    assert fam == "tmerc" and kw["k0"] == 1.0 and kw["lon0"] == 93.0


def test_geoloc_forward_matches_bilinear_nodes():
    """Round-4 continuation: geolocation-array transformer
    (alg/gdalgeoloc.cpp).  At grid nodes the forward returns the node
    values exactly; inside a cell it is the bilinear blend."""
    from gdal_ray.functions.transformer import GeolocTransformer

    j, i = np.mgrid[0:5, 0:7]
    X = 10.0 * i + j * 2.0
    Y = 5.0 * j - i * 0.5
    g = GeolocTransformer(X, Y)
    px, ln = np.array([3.0, 2.5]), np.array([2.0, 1.5])
    ox, oy = g.forward(px, ln)
    assert ox[0] == 10 * 3 + 2 * 2 and oy[0] == 5 * 2 - 1.5
    # cell-centre blend of the 4 corners
    corners_x = [X[1, 2], X[1, 3], X[2, 2], X[2, 3]]
    assert ox[1] == pytest.approx(np.mean(corners_x))


def test_geoloc_inverse_roundtrip_and_extension():
    from gdal_ray.functions.transformer import demo_geoloc_arrays

    g = demo_geoloc_arrays()
    rng = np.random.default_rng(11)
    pix = rng.uniform(0.5, 0.5 + 2 * 23.9, 2000)
    lin = rng.uniform(0.5, 0.5 + 2 * 15.9, 2000)
    X, Y = g.forward(pix, lin)
    p2, l2 = g.inverse(X, Y)
    assert np.isfinite(p2).all()
    assert np.max(np.hypot(p2 - pix, l2 - lin)) < 1e-9
    # linear extension beyond the border (the reference's infinite-extension
    # contract, gdalgeoloc.cpp:375-384): extrapolates the closest cell
    Xo, Yo = g.forward(np.array([-3.0]), np.array([0.5]))
    X0, _ = g.forward(np.array([0.5]), np.array([0.5]))
    X1, _ = g.forward(np.array([2.5]), np.array([0.5]))
    assert Xo[0] == pytest.approx(X0[0] - 1.75 * (X1[0] - X0[0]))
    # outside every quad -> NaN
    po, lo = g.inverse(np.array([-1e6]), np.array([0.0]))
    assert np.isnan(po[0]) and np.isnan(lo[0])
    # pixel/line offsets respected
    assert g.po == 0.5 and g.ps == 2.0


def test_geoloc_validation():
    from gdal_ray.functions.transformer import GeolocTransformer

    with pytest.raises(ValueError, match="equal-shape"):
        GeolocTransformer(np.zeros((3, 3)), np.zeros((3, 4)))
    with pytest.raises(ValueError, match="2x2"):
        GeolocTransformer(np.zeros((1, 5)), np.zeros((1, 5)))


def test_geoloc_warp_matches_affine_with_rotation(ray_session):
    """TileWarper(geoloc=...) parity: a node grid encoding a ROTATED affine
    mapping must warp bit-identically to the affine inverse-geotransform
    path (exercises the inverse-bilinear solver on non-axis-aligned
    quads)."""
    import pyarrow as pa

    from gdal_ray.functions.transformer import GeolocTransformer
    from gdal_ray.stages import pyramid as pyr

    n = 128
    gy, gx = np.mgrid[0:n, 0:n]
    arr = (3.0 * gx + gy).astype(np.float64) + 1.0
    th = 0.3
    resx = 60.0 / n
    # rotated geotransform: world = origin + R @ (scale * pixel)
    gt = (-20.0, resx * np.cos(th), resx * np.sin(th),
          20.0, resx * np.sin(th), -resx * np.cos(th))
    src = pyr.SourceRaster(arr, gt)
    # nodes every 4 px, one node beyond each edge
    j, i = np.mgrid[0:34, 0:34]
    px = -3.5 + 4.0 * i
    py = -3.5 + 4.0 * j
    X = gt[0] + gt[1] * px + gt[2] * py
    Y = gt[3] + gt[4] * px + gt[5] * py
    g = GeolocTransformer(X, Y, pixel_offset=-3.5, pixel_step=4.0,
                          line_offset=-3.5, line_step=4.0)
    bbox = (-15, -15, 15, 15)
    aff = pyr.warp_to_tiles(src, 5, bbox, tile_px=32, resample="nearest",
                            skip_blank=False
                            ).select_columns(["z", "x", "y", "checksum"]
                                             ).to_pandas()
    glo = pyr.warp_to_tiles(src, 5, bbox, tile_px=32, resample="nearest",
                            skip_blank=False, geoloc=g
                            ).select_columns(["z", "x", "y", "checksum"]
                                             ).to_pandas()
    m = aff.merge(glo, on=["z", "x", "y"], suffixes=("_a", "_g"))
    assert len(m) == len(aff) > 0
    assert (m.checksum_a == m.checksum_g).all()
    # area kernels are rejected with geoloc georeferencing
    with pytest.raises(ValueError, match="area kernels"):
        pyr.TileWarper(src, resample="average", geoloc=g)
