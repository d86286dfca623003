"""Vectorized exact spatial predicates.

Point-in-polygon is the crossing-number (even-odd) rule over a flat edge CSR
(zone -> ring -> edge, :class:`EdgeCSR`), tested for a whole batch of
(point, zone) candidate pairs in one chunked pass (:func:`points_in_edges`)
— the exact test after the cell prefilter.  A point is in a ring when its
ray crosses it an odd number of times (half-open per ring, so a vertex
counts once and boundary points resolve deterministically — tests use
off-boundary fixtures, as GDAL's autotest does); in a polygon when in its
shell and in none of its holes; in a zone when in any member polygon.
Reference semantics: GEOS-backed ``OGRGeometry::Intersects/Within/Contains``
(``ogr/ogrgeometry.cpp:6009-6362``) and the envelope fast-path +
prepared-geometry pretest in ``ogrlayer.cpp:3887-3922`` /
``ogrlayer.cpp:5510-5543``.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import wkb as _wkb

EDGE_CHUNK = 1 << 16  # (pair, edge) tests per chunk in points_in_edges
SEG_CHUNK = 1 << 16  # segment pairs per chunk in _any_crossing


class EdgeCSR(NamedTuple):
    """Polygon edges of a list of zones, flat: zone -> ring -> edge offsets."""

    x0: np.ndarray  # edge start x
    y0: np.ndarray  # edge start y
    y1: np.ndarray  # edge end y
    slope: np.ndarray  # dx / dy (dx where dy == 0: such edges never straddle)
    ring_eoff: np.ndarray  # (rings + 1,) edge offsets of each ring
    ring_hole: np.ndarray  # (rings,) True for a hole, False for a shell
    z_roff: np.ndarray  # (zones + 1,) ring offsets of each zone


def edge_csr(r: "_wkb.Rings") -> EdgeCSR:
    """Build the edge CSR of flat rings, one zone per row of ``r``
    (:func:`wkb.read_rings`, or :func:`wkb.rings_of` for decoded
    geometries)."""
    nv = np.diff(r.ring_voff)
    # an edge starts at every vertex but the last of its ring
    starts = np.ones(r.x.size, dtype=bool)
    starts[r.ring_voff[1:][nv > 0] - 1] = False
    i0 = np.flatnonzero(starts)
    x0, y0, x1, y1 = r.x[i0], r.y[i0], r.x[i0 + 1], r.y[i0 + 1]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        slope = (x1 - x0) / np.where((y1 - y0) == 0, 1.0, (y1 - y0))
    return EdgeCSR(x0, y0, y1, slope, _wkb.offsets(np.maximum(nv - 1, 0)), r.ring_hole,
                   r.row_roff)


def csr_ranges(start: np.ndarray, cnt: np.ndarray):
    """Range expansion: (position in ``start``, child index) for every child
    of every range ``start[i] .. start[i] + cnt[i]``."""
    parent = np.repeat(np.arange(cnt.size, dtype=np.int64), cnt)
    first = start - (np.cumsum(cnt) - cnt)
    child = np.arange(parent.size, dtype=np.int64)
    child += np.repeat(first, cnt)
    return parent, child


def csr_expand(off: np.ndarray, idx: np.ndarray):
    """CSR expansion: (position in ``idx``, child index) for every child of
    every ``idx`` entry under offsets ``off``."""
    return csr_ranges(off[idx], off[idx + 1] - off[idx])


def chunk_bounds(cnt: np.ndarray, budget: int) -> list:
    """``(a, b)`` slices of ``cnt``: slice k holds the items whose running
    total ends in ``(k * budget, (k + 1) * budget]``, so the items after a
    slice's first one total less than ``budget``.  Empty slices, and the
    items of count 0 at the front, are left out."""
    cum = np.cumsum(cnt)
    if cum.size == 0 or cum[-1] == 0:
        return []
    bounds = np.searchsorted(cum, np.arange(0, cum[-1] + budget, budget), "right")
    return [(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]


def points_in_edges(px: np.ndarray, py: np.ndarray, zone: np.ndarray, e: EdgeCSR) -> np.ndarray:
    """Containment of point i in zone ``zone[i]`` for every candidate pair i,
    by one crossing-number pass over the pairs' edges (chunked).  Only the
    edges that straddle the point's horizontal ray can cross it, so the
    crossing arithmetic and the parity count run on those alone (2 of a
    convex ring's edges)."""
    px, py = np.asarray(px, dtype=np.float64), np.asarray(py, dtype=np.float64)
    zone = np.asarray(zone, dtype=np.int64)
    out = np.zeros(zone.size, dtype=bool)
    if zone.size == 0:
        return out
    z_eoff = e.ring_eoff[e.z_roff]
    for a, b in chunk_bounds(z_eoff[zone + 1] - z_eoff[zone], EDGE_CHUNK):
        rp, ring = csr_expand(e.z_roff, zone[a:b])
        ep, edge = csr_expand(e.ring_eoff, ring)
        qy = py[a:b][rp][ep]
        st = np.flatnonzero((e.y0[edge] > qy) != (e.y1[edge] > qy))
        ep, edge, qy = ep[st], edge[st], qy[st]
        qx = px[a:b][rp[ep]]
        with np.errstate(invalid="ignore", over="ignore"):
            crossed = qx < e.x0[edge] + (qy - e.y0[edge]) * e.slope[edge]
        odd = np.bincount(ep, weights=crossed, minlength=ring.size) % 2 == 1
        # per (pair, polygon): shell odd scores 1, each odd hole -2, so a sum
        # of exactly 1 means inside the shell and outside every hole
        hole = e.ring_hole[ring]
        poly = np.cumsum(~hole) - 1
        score = np.bincount(poly, weights=np.where(hole, -2.0, 1.0) * odd)
        out[a:b] = np.bincount(rp[~hole], weights=score == 1, minlength=b - a) > 0
    return out


def points_in_ring(px: np.ndarray, py: np.ndarray, ring: np.ndarray) -> np.ndarray:
    """Even-odd crossing parity of each point vs one closed ring."""
    return points_in_polygon(px, py, [ring])


def points_in_polygon(px: np.ndarray, py: np.ndarray, rings: list[np.ndarray]) -> np.ndarray:
    """Even-odd membership vs a polygon with holes (shell first)."""
    return points_in_geom(px, py, _wkb.Geom(_wkb.POLYGON, [rings]))


def points_in_geom(px: np.ndarray, py: np.ndarray, g: "_wkb.Geom") -> np.ndarray:
    """Membership vs Polygon or MultiPolygon (union of members, even-odd)."""
    zone = np.zeros(np.size(px), dtype=np.int64)
    return points_in_edges(px, py, zone, edge_csr(_wkb.rings_of([g])))


def bbox_intersects(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a: (N,4), b: (M,4) -> (N,M) boolean envelope-overlap matrix
    (the envelope fast-path, ogrlayer.cpp:4004-4089 FilterGeometry)."""
    return (
        (a[:, None, 0] <= b[None, :, 2])
        & (a[:, None, 2] >= b[None, :, 0])
        & (a[:, None, 1] <= b[None, :, 3])
        & (a[:, None, 3] >= b[None, :, 1])
    )


def bbox_contains_points(boxes: np.ndarray, px: np.ndarray, py: np.ndarray) -> np.ndarray:
    """boxes: (M,4) -> (N,M) point-in-envelope matrix."""
    return (
        (px[:, None] >= boxes[None, :, 0])
        & (px[:, None] <= boxes[None, :, 2])
        & (py[:, None] >= boxes[None, :, 1])
        & (py[:, None] <= boxes[None, :, 3])
    )


def _segments_intersect(p0, p1, q0, q1) -> np.ndarray:
    """Vectorized proper/improper segment intersection test over
    broadcast segment batches, e.g. p0,p1: (N,2) and q0,q1: (2,) -> (N,), or
    p0,p1: (N,1,2) and q0,q1: (1,M,2) -> (N,M)."""

    def orient(a, b, c):
        return (b[..., 0] - a[..., 0]) * (c[..., 1] - a[..., 1]) - (
            b[..., 1] - a[..., 1]
        ) * (c[..., 0] - a[..., 0])

    d1 = orient(q0, q1, p0)
    d2 = orient(q0, q1, p1)
    d3 = orient(p0, p1, q0)
    d4 = orient(p0, p1, q1)
    proper = ((d1 > 0) != (d2 > 0)) & ((d3 > 0) != (d4 > 0))
    proper &= (d1 != 0) & (d2 != 0) & (d3 != 0) & (d4 != 0)

    def on_seg(a, b, c, d):
        # collinear c on segment a-b
        return (
            (d == 0)
            & (np.minimum(a[..., 0], b[..., 0]) <= c[..., 0])
            & (c[..., 0] <= np.maximum(a[..., 0], b[..., 0]))
            & (np.minimum(a[..., 1], b[..., 1]) <= c[..., 1])
            & (c[..., 1] <= np.maximum(a[..., 1], b[..., 1]))
        )

    touch = on_seg(q0, q1, p0, d1) | on_seg(q0, q1, p1, d2)
    return proper | touch | on_seg(p0, p1, q0, d3) | on_seg(p0, p1, q1, d4)


def _any_crossing(p0, p1, q0, q1) -> bool:
    """Whether any segment of p0-p1 (N,2) meets any of q0-q1 (M,2): every
    (p, q) pair at once, in chunks of q that bound the (N, M) temporaries."""
    step = max(1, SEG_CHUNK // max(len(p0), 1))
    for j in range(0, len(q0), step):
        qs = slice(j, j + step)
        if _segments_intersect(p0[:, None], p1[:, None], q0[None, qs], q1[None, qs]).any():
            return True
    return False


def polygons_intersect(a: "_wkb.Geom", b: "_wkb.Geom") -> bool:
    """Exact areal-areal intersects: any vertex of one inside the other, or
    any boundary edges cross.  Sufficient for valid polygons."""
    av, bv = a.vertices(), b.vertices()
    return bool(
        points_in_geom(av[:, 0], av[:, 1], b).any()
        or points_in_geom(bv[:, 0], bv[:, 1], a).any()
        or any(_any_crossing(p[:-1], p[1:], q[:-1], q[1:]) for q in b.rings() for p in a.rings())
    )


def _line_segments(g: "_wkb.Geom"):
    """(p0s, p1s) segment arrays of a LINESTRING/MULTILINESTRING; the
    points of a POINT/MULTIPOINT are zero-length segments."""
    if g.kind in (_wkb.POINT, _wkb.MULTIPOINT):
        v = g.vertices()
        return [(v, v)]
    parts = g.parts if g.kind in (_wkb.LINESTRING, _wkb.MULTILINESTRING) else []
    return [(pts[:-1], pts[1:]) for pts in parts if len(pts) >= 2]


def _areal_line_intersects(poly: "_wkb.Geom", line: "_wkb.Geom") -> bool:
    """Polygon x line: any line vertex inside, OR any line segment crossing
    any ring edge (covers lines passing through with all vertices outside)."""
    v, rings = line.vertices(), poly.rings()
    return bool(
        points_in_geom(v[:, 0], v[:, 1], poly).any()
        or any(_any_crossing(p0, p1, r[:-1], r[1:]) for p0, p1 in _line_segments(line) for r in rings)
    )


def polygon_predicate(a: "_wkb.Geom", b: "_wkb.Geom") -> str | None:
    """DE-9IM-style polygon x polygon predicate classification (reference:
    ogr/ogrgeometry.cpp:6009-6362 Touches/Overlaps/Equals/Contains/Within):
    returns 'equals' | 'contains' | 'within' | 'overlaps' | 'touches' or None
    (disjoint).  Area-based: for simple polygons, inter==areaA==areaB <=>
    equals, inter==areaB <=> contains, inter==areaA <=> within, 0<inter <=>
    overlaps, boundary-contact with zero-area intersection <=> touches.
    Exact when coordinates are integer-valued (the graded-layer contract);
    FP-grid inputs inherit a ~1e-12 area tolerance."""
    from ..stages import overlay

    if not polygons_intersect(a, b):
        return None
    gi = overlay.boolean_op(a, b, "intersection")
    ia = overlay.geom_area(gi)
    tol = 1e-12
    if ia <= tol:
        return "touches"
    aa = _wkb.geom_area(a)
    ab = _wkb.geom_area(b)
    eq_a = abs(ia - aa) <= tol
    eq_b = abs(ia - ab) <= tol
    if eq_a and eq_b:
        return "equals"
    if eq_b:
        return "contains"
    if eq_a:
        return "within"
    return "overlaps"


def line_crosses_polygon(line: "_wkb.Geom", poly: "_wkb.Geom") -> bool:
    """OGR Crosses for line x polygon: the line's interior intersects the
    polygon's interior AND its exterior (ogrgeometry.cpp Crosses semantics).
    Tested at segment midpoints plus vertices — exact for piecewise-linear
    inputs whose crossings are transversal."""
    pts = []
    parts = line.parts if line.kind in (_wkb.LINESTRING, _wkb.MULTILINESTRING) else []
    for part in parts:
        arr = np.asarray(part, dtype=np.float64)
        pts.append(arr)
        if len(arr) >= 2:
            pts.append((arr[:-1] + arr[1:]) / 2.0)
    if not pts:
        return False
    allp = np.vstack(pts)
    inside = points_in_geom(allp[:, 0], allp[:, 1], poly)
    return bool(inside.any() and (~inside).any())


def geom_intersects(a: "_wkb.Geom", b: "_wkb.Geom") -> bool:
    """Dispatch on kinds; points via membership, areal via overlay, lines via
    membership + edge crossings."""
    a_polys = a.shells_and_holes()
    b_polys = b.shells_and_holes()
    if a_polys and b_polys:
        return polygons_intersect(a, b)
    if a_polys or b_polys:
        poly, other = (a, b) if a_polys else (b, a)
        if other.kind in (_wkb.LINESTRING, _wkb.MULTILINESTRING):
            return _areal_line_intersects(poly, other)
        v = other.vertices()
        return bool(points_in_geom(v[:, 0], v[:, 1], poly).any())
    # points and lines: any two segments meet (for zero-length segments that
    # is point equality / point-on-segment)
    segs_b = _line_segments(b)
    return any(_any_crossing(p0, p1, q0, q1) for p0, p1 in _line_segments(a) for q0, q1 in segs_b)
