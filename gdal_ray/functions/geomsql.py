"""SQL-callable geometry functions (the OGR SQLite-dialect surface).

Re-answers ``ogr/ogrsf_frmts/sqlite/ogrsqlitesqlfunctions.cpp:956-1232``
(OGR2SQLITE_ogr_geometry functions — ST_Area, ST_Buffer, ST_Centroid,
ST_Intersects, ...) for the engine's SQL expression layer: each kernel
takes pyarrow binary (WKB) arrays and returns an Arrow array, so any
``SELECT``/``WHERE`` compiled by ``functions.sqlexpr`` can call them over
the ``wkb`` geometry column.  The geometry math is the engine's own
(``stages.geomops`` / ``stages.overlay`` / ``functions.pip``) — this
module is only the SQL binding.

Eager-only: these run in the per-batch evaluation path (geometry cannot
be pushed into a parquet scan filter), like the reference, where the
SQLite dialect evaluates them per row after the scan.
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa

from . import wkb as _wkb


def _geoms(arr):
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    return [None if w is None else _wkb.decode(w) for w in arr.to_pylist()]


def _lit(v):
    if isinstance(v, pa.Scalar):
        return v.as_py()
    if isinstance(v, (pa.Array, pa.ChunkedArray)):
        raise ValueError("ST_ function parameter must be a literal")
    return v


def st_area(arr) -> pa.Array:
    return pa.array([0.0 if g is None else _wkb.geom_area(g)
                     for g in _geoms(arr)], pa.float64())


def st_x(arr) -> pa.Array:
    out = []
    for g in _geoms(arr):
        out.append(None if g is None or g.kind != _wkb.POINT
                   else float(g.parts[0][0, 0]))
    return pa.array(out, pa.float64())


def st_y(arr) -> pa.Array:
    out = []
    for g in _geoms(arr):
        out.append(None if g is None or g.kind != _wkb.POINT
                   else float(g.parts[0][0, 1]))
    return pa.array(out, pa.float64())


def st_npoints(arr) -> pa.Array:
    out = []
    for g in _geoms(arr):
        if g is None:
            out.append(None)
            continue
        n = 0
        for rings in (g.shells_and_holes()
                      if g.kind in (_wkb.POLYGON, _wkb.MULTIPOLYGON)
                      else [[p] for p in g.parts]):
            for r in rings:
                n += len(r)
        out.append(n)
    return pa.array(out, pa.int64())


def st_centroid(arr) -> pa.Array:
    out = []
    for g in _geoms(arr):
        if g is None:
            out.append(None)
            continue
        cx, cy = _wkb.geom_centroid(g)
        out.append(_wkb.encode_points(np.array([cx]), np.array([cy]))[0])
    return pa.array(out, pa.binary())


def st_buffer(arr, distance, segments=None) -> pa.Array:
    from ..stages import geomops

    d = float(_lit(distance))
    seg = int(_lit(segments)) if segments is not None else 8
    out = []
    for g in _geoms(arr):
        if g is None:
            out.append(None)
            continue
        b = geomops.buffer_geom(g, d, segments=seg)
        out.append(None if b is None else _wkb.encode_geom(b))
    return pa.array(out, pa.binary())


def st_simplify(arr, tolerance) -> pa.Array:
    from ..stages import geomops

    tol = float(_lit(tolerance))
    out = []
    for g in _geoms(arr):
        if g is None:
            out.append(None)
            continue
        if g.kind == _wkb.LINESTRING:
            out.append(_wkb.encode_linestring(
                geomops._dp_simplify(np.asarray(g.parts[0], np.float64),
                                     tol)))
        elif g.kind == _wkb.POLYGON:
            rings = [geomops._dp_simplify(np.asarray(r, np.float64), tol)
                     for r in g.parts]
            out.append(_wkb.encode_polygon(
                [r for r in rings if len(r) >= 4]))
        else:
            out.append(_wkb.encode_geom(g))
    return pa.array(out, pa.binary())


def st_convexhull(arr) -> pa.Array:
    from ..stages import geomops

    out = []
    for g in _geoms(arr):
        if g is None:
            out.append(None)
            continue
        pts = np.vstack([np.asarray(r, np.float64).reshape(-1, 2)
                         for rings in ([g.parts] if g.kind not in
                                       (_wkb.POLYGON, _wkb.MULTIPOLYGON)
                                       else [g.parts])
                         for r in rings])
        hull = geomops.convex_hull(pts)
        out.append(_wkb.encode_polygon([hull]))
    return pa.array(out, pa.binary())


def st_isvalid(arr) -> pa.Array:
    from ..stages.geomops import check_geometry_batch

    t = pa.table({"fid": pa.array(range(len(_geoms(arr))), pa.int64()),
                  "wkb": arr if not isinstance(arr, pa.ChunkedArray)
                  else arr.combine_chunks()})
    res = check_geometry_batch(t)
    return res["valid"].combine_chunks()


def _pair_predicate(a_arr, b_arr, wanted: set[str],
                    accept_intersecting: bool) -> pa.Array:
    from . import pip as _pip

    ga, gb = _geoms(a_arr), _geoms(b_arr)
    out = []
    for a, b in zip(ga, gb):
        if a is None or b is None:
            out.append(None)
            continue
        pred = _pip.polygon_predicate(a, b)
        if accept_intersecting:
            out.append(pred is not None)
        else:
            out.append(pred in wanted)
    return pa.array(out, pa.bool_())


def st_intersects(a_arr, b_arr) -> pa.Array:
    return _pair_predicate(a_arr, b_arr, set(), True)


def st_contains(a_arr, b_arr) -> pa.Array:
    return _pair_predicate(a_arr, b_arr, {"contains", "equals"}, False)


def st_within(a_arr, b_arr) -> pa.Array:
    return _pair_predicate(a_arr, b_arr, {"within", "equals"}, False)


def _geom_points_edges(g):
    """All vertices + all edges (as (p0, p1) stacks) of a geometry."""
    rings = []
    if g.kind in (_wkb.POLYGON, _wkb.MULTIPOLYGON):
        for sh in g.shells_and_holes():
            rings.extend(sh)
    else:
        rings = [np.asarray(p, np.float64).reshape(-1, 2) for p in g.parts]
    pts = np.vstack(rings)
    p0 = np.vstack([r[:-1] for r in rings if len(r) > 1]) \
        if any(len(r) > 1 for r in rings) else np.zeros((0, 2))
    p1 = np.vstack([r[1:] for r in rings if len(r) > 1]) \
        if any(len(r) > 1 for r in rings) else np.zeros((0, 2))
    return pts, p0, p1


def _pts_to_segs(pts: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """Min distance from point set to segment set (vectorized)."""
    if len(a) == 0:
        return np.inf
    d = b - a
    ln2 = (d * d).sum(axis=1)
    ln2 = np.where(ln2 == 0, 1.0, ln2)
    best = np.inf
    for p in pts:
        t = np.clip(((p - a) * d).sum(axis=1) / ln2, 0.0, 1.0)
        proj = a + t[:, None] * d
        dist2 = ((proj - p) ** 2).sum(axis=1)
        best = min(best, float(dist2.min()))
    return np.sqrt(best)


def _any_point_in_areal(pts: np.ndarray, g) -> bool:
    from . import pip as _pip

    return bool(_pip.points_in_geom(pts[:, 0], pts[:, 1], g).any())


def _segs_cross(a0, a1, b0, b1) -> bool:
    """Any proper or touching intersection between two segment sets."""
    if len(a0) == 0 or len(b0) == 0:
        return False
    # orientation tests, vectorized over the (n, m) pair grid
    def cross(o, p, q):
        return ((p[..., 0] - o[..., 0]) * (q[..., 1] - o[..., 1])
                - (p[..., 1] - o[..., 1]) * (q[..., 0] - o[..., 0]))

    A0 = a0[:, None, :]
    A1 = a1[:, None, :]
    B0 = b0[None, :, :]
    B1 = b1[None, :, :]
    d1 = cross(A0, A1, B0)
    d2 = cross(A0, A1, B1)
    d3 = cross(B0, B1, A0)
    d4 = cross(B0, B1, A1)
    proper = (np.sign(d1) * np.sign(d2) < 0) & \
        (np.sign(d3) * np.sign(d4) < 0)
    return bool(proper.any())


def st_distance(a_arr, b_arr) -> pa.Array:
    """Min euclidean distance between two geometries: 0 when they
    intersect (containment or edge crossing), else the min vertex/edge
    separation (OGRGeometry::Distance via GEOS role)."""
    out = []
    for a, b in zip(_geoms(a_arr), _geoms(b_arr)):
        if a is None or b is None:
            out.append(None)
            continue
        pa_, a0, a1 = _geom_points_edges(a)
        pb_, b0, b1 = _geom_points_edges(b)
        a_areal = a.kind in (_wkb.POLYGON, _wkb.MULTIPOLYGON)
        b_areal = b.kind in (_wkb.POLYGON, _wkb.MULTIPOLYGON)
        if (a_areal and _any_point_in_areal(pb_, a)) or \
                (b_areal and _any_point_in_areal(pa_, b)) or \
                _segs_cross(a0, a1, b0, b1):
            out.append(0.0)
            continue
        d = min(_pts_to_segs(pa_, b0, b1), _pts_to_segs(pb_, a0, a1),
                float(np.sqrt(
                    ((pa_[:, None, :] - pb_[None, :, :]) ** 2)
                    .sum(axis=2).min())))
        out.append(d)
    return pa.array(out, pa.float64())


SQL_GEOM_FUNCS = {
    "st_area": st_area,
    "st_x": st_x,
    "st_y": st_y,
    "st_npoints": st_npoints,
    "st_centroid": st_centroid,
    "st_buffer": st_buffer,
    "st_simplify": st_simplify,
    "st_convexhull": st_convexhull,
    "st_isvalid": st_isvalid,
    "st_intersects": st_intersects,
    "st_contains": st_contains,
    "st_within": st_within,
    "st_distance": st_distance,
}
