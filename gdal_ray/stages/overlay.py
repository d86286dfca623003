"""General polygon overlay construction (concave-capable boolean ops).

Re-answers OGR layer-algebra overlay GEOMETRY output (reference: Intersection
``ogr/ogrlayer.cpp:5385``, Union :5803, SymDifference :6340, Identity :6770,
Update, Erase — which delegate to GEOS overlay) with an independent
segment-classification construction (the same family as Weiler-Atherton):

1. subdivide every edge of A at its intersections with edges of B (and vice
   versa), including collinear-overlap split points;
2. classify each sub-segment's midpoint against the OTHER polygon (even-odd
   crossing number): in / out / on-shared-same / on-shared-opposite;
3. keep segments per the op's rule (intersection: A-in + B-in + shared-same;
   union: A-out + B-out + shared-same; difference: A-out + reversed B-in +
   shared-opposite), then stitch directed segments into closed rings by
   leftmost-turn traversal;
4. positive-area rings are shells, negative are holes (assigned to the
   containing shell).

Inputs are simple polygons / multipolygons with holes (no self-intersection).
Robustness policy: epsilon-grid endpoint keys (1e-7) and midpoint-on-boundary
tolerance 1e-9 — exact for coordinates on coarse grids (the engine's zone
fixtures are 0.01-grid), documented rather than hidden.

Scale shape: overlay runs inside ``map_groups`` after the cell-partitioned
pair identification of ``layeralg.polygon_join`` — per-pair work only, no
driver-side geometry.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from ..functions import wkb

_EPS_ON = 1e-9
_KEY_SCALE = 1e7


def _cross(ax, ay, bx, by):
    return ax * by - ay * bx


def _exact_cross(a, b, c, d):
    """cross(b - a, d - c) computed EXACTLY over the input float coordinates
    (floats are exact rationals, so Fraction arithmetic has no rounding) —
    the adaptive-precision slow path used only when the float predicate is
    inside its error bound (Shewchuk-style filter, see _cross_zero)."""
    ax, ay = Fraction(float(a[0])), Fraction(float(a[1]))
    bx, by = Fraction(float(b[0])), Fraction(float(b[1]))
    cx, cy = Fraction(float(c[0])), Fraction(float(c[1]))
    dx, dy = Fraction(float(d[0])), Fraction(float(d[1]))
    return (bx - ax) * (dy - cy) - (by - ay) * (dx - cx)


# (3 + 16*eps)*eps — Shewchuk's orient2d filter-A constant; valid for the
# generic two-product 2x2 determinant over float differences
_FILTER_EPS = 3.3306690738754716e-16


def _cross_zero(a, b, c, d) -> bool:
    """Certified zero-test of the exact cross(b-a, d-c).

    Float fast paths (profiled 10x hot vs unconditional Fractions):
    - both products exactly 0.0 -> a float factor is 0.0, which for float
      subtraction means its operands are EQUAL, so the exact cross is 0;
    - |det| above the Shewchuk error bound -> sign certified nonzero.
    Only the remaining ambiguity band falls through to exact Fractions.
    No underflow hazard at geographic/webmercator magnitudes."""
    detleft = (float(b[0]) - float(a[0])) * (float(d[1]) - float(c[1]))
    detright = (float(b[1]) - float(a[1])) * (float(d[0]) - float(c[0]))
    if detleft == 0.0 and detright == 0.0:
        return True
    det = detleft - detright
    if abs(det) > _FILTER_EPS * (abs(detleft) + abs(detright)):
        return False
    return _exact_cross(a, b, c, d) == 0


def _mag(*pts) -> float:
    """Coordinate magnitude of the involved points (>= 1), for scaling the
    semantic epsilons so overlay is translation-invariant at webmercator-
    meter magnitudes, not just near the origin."""
    m = 1.0
    for p in pts:
        m = max(m, abs(float(p[0])), abs(float(p[1])))
    return m


def _point_in_rings(pt, rings) -> bool:
    """Even-odd crossing number over all rings (holes included)."""
    x, y = pt
    inside = False
    for r in rings:
        x0, y0 = r[:-1, 0], r[:-1, 1]
        x1, y1 = r[1:, 0], r[1:, 1]
        cond = (y0 > y) != (y1 > y)
        with np.errstate(divide="ignore", invalid="ignore"):
            xi = x0 + (y - y0) * (x1 - x0) / (y1 - y0)
        hits = cond & (x < xi)
        inside ^= bool(np.count_nonzero(hits) % 2)
    return inside


def _on_edge(pt, p, q) -> bool:
    dx, dy = q[0] - p[0], q[1] - p[1]
    ex, ey = pt[0] - p[0], pt[1] - p[1]
    L2 = dx * dx + dy * dy
    tol = _EPS_ON * max(1.0, _mag(pt, p, q) * 1e-6)  # distance tolerance
    if L2 == 0:
        return abs(ex) + abs(ey) < tol
    if abs(_cross(dx, dy, ex, ey)) > tol * np.sqrt(L2):
        return False
    t = (ex * dx + ey * dy) / L2
    return -_EPS_ON <= t <= 1 + _EPS_ON


def _edges_of(rings):
    out = []
    for r in rings:
        for i in range(len(r) - 1):
            out.append((r[i], r[i + 1]))
    return out


def _split_params(p, q, other_edges) -> list:
    """Parameters t in (0,1) where edge p->q crosses (or collinearly meets
    endpoints of) any edge in other_edges."""
    d1x, d1y = q[0] - p[0], q[1] - p[1]
    L1 = d1x * d1x + d1y * d1y
    ts = []
    for (u, v) in other_edges:
        d2x, d2y = v[0] - u[0], v[1] - u[1]
        L2 = d2x * d2x + d2y * d2y
        denom = _cross(d1x, d1y, d2x, d2y)
        wx, wy = u[0] - p[0], u[1] - p[1]
        # relative near-parallel filter (|sin angle| ~ denom / (|d1||d2|)),
        # resolved EXACTLY in the ambiguous zone
        if abs(denom) <= 1e-9 * np.sqrt(L1 * L2):
            if _cross_zero(p, q, u, v):
                # truly parallel: exact collinearity, then overlap splits
                if _cross_zero(p, q, p, u):
                    if L1 > 0:
                        for pt in (u, v):
                            t = ((pt[0] - p[0]) * d1x + (pt[1] - p[1]) * d1y) / L1
                            if 1e-12 < t < 1 - 1e-12:
                                ts.append(t)
                continue
            # nearly-parallel genuine crossing: exact rational t, s
            de = _exact_cross(p, q, u, v)
            t = float(Fraction(_exact_cross(p, u, u, v)) / de)
            s = float(Fraction(_exact_cross(p, u, p, q)) / de)
        else:
            t = _cross(wx, wy, d2x, d2y) / denom
            s = _cross(wx, wy, d1x, d1y) / denom
        if -1e-12 <= s <= 1 + 1e-12 and 1e-12 < t < 1 - 1e-12:
            ts.append(t)
    return ts


def _subdivide(rings, other_edges):
    """Directed sub-segments of `rings` split at crossings with other_edges."""
    segs = []
    for r in rings:
        for i in range(len(r) - 1):
            p, q = r[i], r[i + 1]
            ts = sorted(set([0.0, 1.0] + _split_params(p, q, other_edges)))
            pts = [(p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])) for t in ts]
            for a, b in zip(pts[:-1], pts[1:]):
                if abs(a[0] - b[0]) + abs(a[1] - b[1]) > max(1e-12, _mag(a, b) * 4e-15):
                    segs.append((a, b))
    return segs


def _classify(segs, other_rings, other_edges):
    """Per segment: 'in' | 'out' | 'same' | 'opp' (midpoint vs other poly).

    Vectorized over the full (segments x edges) grid — the scalar
    per-(midpoint, edge) loop was the profiled hotspot of boolean_op once
    the exact-cross filter landed.  Expressions mirror _on_edge /
    _point_in_rings element-for-element (same IEEE results), including the
    first-matching-edge break semantics (argmax over the on-edge mask)."""
    if not segs:
        return []
    A = np.asarray([s[0] for s in segs], dtype=np.float64)
    B = np.asarray([s[1] for s in segs], dtype=np.float64)
    mid = (A + B) / 2.0
    mx, my = mid[:, 0], mid[:, 1]
    U = np.asarray([e[0] for e in other_edges], dtype=np.float64)
    V = np.asarray([e[1] for e in other_edges], dtype=np.float64)
    d = V - U  # (E, 2)
    L2 = d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]
    ex = mx[:, None] - U[None, :, 0]
    ey = my[:, None] - U[None, :, 1]
    mag_pt = np.maximum(np.abs(mx), np.abs(my))
    mag_e = np.maximum(np.maximum(np.abs(U[:, 0]), np.abs(U[:, 1])),
                       np.maximum(np.abs(V[:, 0]), np.abs(V[:, 1])))
    mag = np.maximum(1.0, np.maximum(mag_pt[:, None], mag_e[None, :]))
    tol = _EPS_ON * np.maximum(1.0, mag * 1e-6)
    cross = d[None, :, 0] * ey - d[None, :, 1] * ex
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (ex * d[None, :, 0] + ey * d[None, :, 1]) / L2[None, :]
    near = np.abs(cross) <= tol * np.sqrt(L2)[None, :]
    on_mat = near & (t >= -_EPS_ON) & (t <= 1 + _EPS_ON)
    deg = L2 == 0
    if deg.any():
        on_mat[:, deg] = (np.abs(ex[:, deg]) + np.abs(ey[:, deg])) < tol[:, deg]
    has = on_mat.any(axis=1)
    first = on_mat.argmax(axis=1)
    dirv = B - A
    dot = dirv[:, 0] * d[first, 0] + dirv[:, 1] * d[first, 1]
    inside = np.zeros(len(segs), dtype=bool)
    todo = ~has
    if todo.any():
        for r in other_rings:
            x0, y0 = r[:-1, 0], r[:-1, 1]
            x1, y1 = r[1:, 0], r[1:, 1]
            cond = (y0[None, :] > my[:, None]) != (y1[None, :] > my[:, None])
            with np.errstate(divide="ignore", invalid="ignore"):
                xi = x0[None, :] + (my[:, None] - y0[None, :]) \
                    * (x1 - x0)[None, :] / (y1 - y0)[None, :]
            hits = cond & (mx[:, None] < xi)
            inside ^= (hits.sum(axis=1) % 2).astype(bool)
    out = []
    for i in range(len(segs)):
        if has[i]:
            out.append("same" if dot[i] > 0 else "opp")
        else:
            out.append("in" if inside[i] else "out")
    return out


def _key(pt):
    return (round(pt[0] * _KEY_SCALE), round(pt[1] * _KEY_SCALE))


def _stitch(segs) -> list:
    """Directed segments -> closed rings (leftmost-turn traversal)."""
    by_start: dict = {}
    for i, (a, b) in enumerate(segs):
        by_start.setdefault(_key(a), []).append(i)
    used = [False] * len(segs)
    rings = []
    for i0 in range(len(segs)):
        if used[i0]:
            continue
        ring = [segs[i0][0]]
        cur = i0
        used[i0] = True
        guard = 0
        while guard < 4 * len(segs) + 8:
            guard += 1
            a, b = segs[cur]
            ring.append(b)
            if _key(b) == _key(ring[0]):
                break
            cands = [j for j in by_start.get(_key(b), []) if not used[j]]
            if not cands:
                ring = None
                break
            if len(cands) == 1:
                nxt = cands[0]
            else:
                # leftmost turn relative to incoming direction keeps faces
                # separate at shared vertices
                dx, dy = b[0] - a[0], b[1] - a[1]

                def angle(j):
                    (aj, bj) = segs[j]
                    ex, ey = bj[0] - aj[0], bj[1] - aj[1]
                    return np.arctan2(_cross(dx, dy, ex, ey), dx * ex + dy * ey)

                nxt = max(cands, key=angle)
            used[nxt] = True
            cur = nxt
        if ring is not None and len(ring) >= 4:
            arr = np.array(ring)
            arr[-1] = arr[0]
            m = float(np.abs(arr).max())
            if abs(wkb.ring_area(arr)) > max(1e-12, m * m * 1e-15):
                rings.append(arr)
    return rings


def _nesting_normalize(rings):
    """Orient rings so interiors lie LEFT of directed edges under even-odd
    nesting: depth-even rings CCW (shells), depth-odd CW (holes)."""
    out = []
    for i, r in enumerate(rings):
        depth = 0
        probe = r[0]
        # probe a midpoint of the first edge, nudged inward-agnostic: use a
        # vertex — vertices of one ring on another ring's boundary would be
        # degenerate input (documented unsupported)
        probe = ((r[0][0] + r[1][0]) / 2.0, (r[0][1] + r[1][1]) / 2.0)
        for j, r2 in enumerate(rings):
            if j != i and _point_in_rings(probe, [r2]):
                depth += 1
        a = wkb.ring_area(r)
        want_ccw = depth % 2 == 0
        if (a > 0) != want_ccw:
            r = r[::-1].copy()
        out.append(r)
    return out


def _assemble(rings) -> "wkb.Geom | None":
    """Traversed rings -> POLYGON/MULTIPOLYGON (positive = shell, negative =
    hole assigned to its containing shell)."""
    if not rings:
        return None
    shells = [r for r in rings if wkb.ring_area(r) > 0]
    holes = [r for r in rings if wkb.ring_area(r) < 0]
    if not shells:
        return None
    polys = [[s] for s in shells]
    for h in holes:
        probe = ((h[0][0] + h[1][0]) / 2.0, (h[0][1] + h[1][1]) / 2.0)
        for poly in polys:
            if _point_in_rings(probe, [poly[0]]):
                poly.append(h)
                break
    if len(polys) == 1:
        return wkb.Geom(wkb.POLYGON, [polys[0]])
    return wkb.Geom(wkb.MULTIPOLYGON, polys)


def _rings_of(g: "wkb.Geom"):
    rings = []
    for poly in g.shells_and_holes():
        rings.extend(np.asarray(r, dtype=np.float64) for r in poly)
    return rings


def boolean_op(ga: "wkb.Geom", gb: "wkb.Geom", op: str) -> "wkb.Geom | None":
    """Polygon boolean: op in 'intersection' | 'union' | 'difference' |
    'symdifference'.  Returns None for an empty result."""
    if op == "symdifference":
        d1 = boolean_op(ga, gb, "difference")
        d2 = boolean_op(gb, ga, "difference")
        polys = []
        for d in (d1, d2):
            if d is not None:
                polys.extend(d.shells_and_holes())
        if not polys:
            return None
        if len(polys) == 1:
            return wkb.Geom(wkb.POLYGON, [polys[0]])
        return wkb.Geom(wkb.MULTIPOLYGON, polys)
    ra = _nesting_normalize(_rings_of(ga))
    rb = _nesting_normalize(_rings_of(gb))
    ea = _edges_of(ra)
    eb = _edges_of(rb)
    segs_a = _subdivide(ra, eb)
    segs_b = _subdivide(rb, ea)
    cls_a = _classify(segs_a, rb, eb)
    cls_b = _classify(segs_b, ra, ea)
    keep = []
    if op == "intersection":
        keep += [s for s, c in zip(segs_a, cls_a) if c in ("in", "same")]
        keep += [s for s, c in zip(segs_b, cls_b) if c == "in"]
    elif op == "union":
        keep += [s for s, c in zip(segs_a, cls_a) if c in ("out", "same")]
        keep += [s for s, c in zip(segs_b, cls_b) if c == "out"]
    elif op == "difference":
        keep += [s for s, c in zip(segs_a, cls_a) if c in ("out", "opp")]
        keep += [(s[1], s[0]) for s, c in zip(segs_b, cls_b) if c == "in"]
    else:
        raise ValueError(op)
    return _assemble(_stitch(keep))


def geom_area(g: "wkb.Geom | None") -> float:
    if g is None:
        return 0.0
    return sum(
        abs(wkb.ring_area(np.asarray(poly[0])))
        - sum(abs(wkb.ring_area(np.asarray(h))) for h in poly[1:])
        for poly in g.shells_and_holes()
    )


def erase_fold(ga: "wkb.Geom", subtrahends) -> "wkb.Geom | None":
    """A minus every geometry in `subtrahends`, folded sequentially
    (Erase semantics, ogrlayer.cpp Erase)."""
    cur = ga
    for gb in subtrahends:
        if cur is None:
            return None
        cur = boolean_op(cur, gb, "difference")
    return cur


def encode(g: "wkb.Geom") -> bytes:
    if g.kind == wkb.POLYGON:
        return wkb.encode_polygon(g.parts[0])
    return wkb.encode_multipolygon(g.parts)
