"""WKB is written by ``functions/wkb.py`` alone: the GeoJSON, WKT and
shapefile readers and the geometry stages build their Multi* geometries
through ``encode_multipoint`` / ``encode_multilinestring`` /
``encode_collection``, byte for byte what their hand-packed ``struct`` code
wrote (kept here as the reference)."""

import struct

import numpy as np
import pytest

from gdal_ray.functions import wkb, wkt
from gdal_ray.sources import geojson, shapefile

PTS = np.array([[1.5, -2.25], [3.0, 4.0], [-180.0, 90.0]])
LINES = [np.array([[0.0, 0.0], [1.0, 1.0]]),
         np.array([[2.0, 3.0], [4.0, 5.0], [6.0, 7.5]])]


def _multipoint(pts) -> bytes:
    return struct.pack("<BII", 1, wkb.MULTIPOINT, len(pts)) + b"".join(
        struct.pack("<BI2d", 1, wkb.POINT, x, y) for x, y in pts)


def _linestring(pts) -> bytes:
    pts = np.asarray(pts, dtype="<f8")
    return struct.pack("<BII", 1, wkb.LINESTRING, len(pts)) + pts.tobytes()


def _multilinestring(lines) -> bytes:
    return struct.pack("<BII", 1, wkb.MULTILINESTRING, len(lines)) + \
        b"".join(_linestring(p) for p in lines)


def _polygon(rings) -> bytes:
    out = struct.pack("<BII", 1, wkb.POLYGON, len(rings))
    for r in rings:
        r = np.asarray(r, dtype="<f8")
        out += struct.pack("<I", len(r)) + r.tobytes()
    return out


def test_encoders_match_the_hand_packed_bytes():
    assert wkb.encode_multipoint(PTS) == _multipoint(PTS)
    assert wkb.encode_multipoint([]) == _multipoint([])
    assert wkb.encode_multilinestring(LINES) == _multilinestring(LINES)
    assert wkb.encode_multilinestring([]) == _multilinestring([])
    rings = [np.array([[0, 0], [4, 0], [4, 4], [0, 0]], float)]
    assert wkb.encode_polygon(rings) == _polygon(rings)
    members = [_linestring(LINES[0]), _polygon(rings)]
    assert wkb.encode_collection(wkb.GEOMETRYCOLLECTION, members) == (
        struct.pack("<BII", 1, wkb.GEOMETRYCOLLECTION, 2) + b"".join(members))


def test_multipoint_rejects_three_ordinates():
    with pytest.raises(ValueError):
        wkb.encode_multipoint([[1.0, 2.0, 3.0]])


def test_encoders_reject_a_third_ordinate():
    xyz = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 1.0], [0.0, 0.0, 1.0]])
    for bad in (xyz, xyz.ravel(), xyz[:, :1]):
        with pytest.raises(ValueError, match=r"\(N, 2\)"):
            wkb.encode_linestring(bad)
        with pytest.raises(ValueError, match=r"\(N, 2\)"):
            wkb.encode_polygon([xyz[:, :2], bad])
    # an empty sequence stays a valid empty geometry
    assert wkb.encode_linestring([]) == _linestring(np.empty((0, 2)))
    assert wkb.decode(wkb.encode_linestring([])).parts[0].shape == (0, 2)
    assert wkb.encode_polygon([]) == struct.pack("<BII", 1, wkb.POLYGON, 0)
    assert wkb.decode(wkb.encode_polygon([[]])).parts[0][0].shape == (0, 2)


def test_geojson_keeps_x_y_of_each_position():
    ring = [[0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 0, 1]]
    xy = np.array(ring, float)[:, :2]
    got = geojson._json_to_wkb({"type": "Polygon", "coordinates": [ring]})
    assert got == wkb.encode_polygon([xy])
    assert (wkb.decode(got).parts[0][0] == xy).all()
    assert geojson._json_to_wkb({"type": "LineString", "coordinates": ring}) \
        == _linestring(xy)
    assert geojson._json_to_wkb(
        {"type": "MultiLineString", "coordinates": [ring, ring[:2]]}) \
        == _multilinestring([xy, xy[:2]])
    assert geojson._json_to_wkb({"type": "MultiPoint", "coordinates": ring}) \
        == _multipoint(xy)
    assert geojson._json_to_wkb(
        {"type": "MultiPolygon", "coordinates": [[ring]]}) \
        == wkb.encode_multipolygon([[xy]])


@pytest.mark.parametrize("w", [
    _multipoint(PTS), _multilinestring(LINES),
    wkb.encode_multipolygon([[np.array([[0, 0], [1, 0], [1, 1], [0, 0]],
                                       float)]]),
    wkt.parse_wkt("MULTICURVE ((0 0, 1 1), CIRCULARSTRING (0 0, 1 1, 2 0))"),
    wkt.parse_wkt("MULTISURFACE (((0 0, 4 0, 4 4, 0 0)), CURVEPOLYGON "
                  "(CIRCULARSTRING (0 0, 2 2, 4 0, 2 -2, 0 0)))"),
    wkt.parse_wkt("GEOMETRYCOLLECTION (POINT (1 2), LINESTRING (0 0, 1 1))"),
])
def test_encode_geom_round_trips(w):
    assert wkb.encode_geom(wkb.decode(w)) == w


def test_geojson_multi_geometries():
    assert geojson._json_to_wkb(
        {"type": "MultiPoint", "coordinates": PTS.tolist()}) == _multipoint(PTS)
    assert geojson._json_to_wkb(
        {"type": "MultiLineString",
         "coordinates": [p.tolist() for p in LINES]}) == _multilinestring(LINES)


def test_wkt_multi_geometries():
    assert wkt.parse_wkt("MULTIPOINT ((1.5 -2.25), (3 4), (-180 90))") == \
        _multipoint(PTS)
    assert wkt.parse_wkt("MULTIPOINT (1.5 -2.25, 3 4, -180 90)") == \
        _multipoint(PTS)
    assert wkt.parse_wkt("MULTILINESTRING ((0 0, 1 1), (2 3, 4 5, 6 7.5))") \
        == _multilinestring(LINES)
    curve = wkt.parse_wkt("MULTICURVE ((0 0, 1 1), (2 3, 4 5, 6 7.5))")
    assert curve == struct.pack("<BII", 1, wkb.MULTICURVE, 2) + b"".join(
        _linestring(p) for p in LINES)
    ring = [np.array([[0, 0], [4, 0], [4, 4], [0, 0]], float)]
    surface = wkt.parse_wkt("MULTISURFACE (((0 0, 4 0, 4 4, 0 0)))")
    assert surface == struct.pack("<BII", 1, wkb.MULTISURFACE, 1) + \
        _polygon(ring)


def test_shapefile_multi_geometries(tmp_path):
    base = str(tmp_path / "m")
    wkbs = [_multipoint(PTS), _multilinestring(LINES)]
    shapefile.write_shapefile(base, wkbs)
    assert shapefile.read_shapefile(base)["wkb"].to_pylist() == wkbs
