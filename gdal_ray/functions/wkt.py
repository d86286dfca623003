"""WKT (Well-Known Text) geometry encoding — OGR's exportToWkt /
importFromWkt surface (reference ``ogr/ogrgeometrytotext.cpp`` /
``ogr/ogr_api.h``), reimplemented from the OGC Simple Features spec.

Bridges the engine's WKB column to text formats (CSV driver, ogrinfo-style
output).  Coordinates serialize via Python ``repr`` (shortest round-trip),
so WKT -> WKB -> WKT is bitwise-stable for float64.
"""

from __future__ import annotations

import numpy as np

from . import wkb as wkb_f

_KIND_NAME = {
    wkb_f.POINT: "POINT", wkb_f.LINESTRING: "LINESTRING",
    wkb_f.POLYGON: "POLYGON", wkb_f.MULTIPOINT: "MULTIPOINT",
    wkb_f.MULTILINESTRING: "MULTILINESTRING",
    wkb_f.MULTIPOLYGON: "MULTIPOLYGON",
}


def _num(v: float) -> str:
    r = repr(float(v))
    return r[:-2] if r.endswith(".0") else r


def _pts(arr) -> str:
    return ", ".join(f"{_num(x)} {_num(y)}" for x, y in arr)


def encode_wkt(wkb: bytes) -> str:
    g = wkb_f.decode(wkb)
    if g.kind == wkb_f.POINT:
        p = g.parts[0][0]
        return f"POINT ({_num(p[0])} {_num(p[1])})"
    if g.kind == wkb_f.LINESTRING:
        return f"LINESTRING ({_pts(g.parts[0])})"
    if g.kind == wkb_f.POLYGON:
        rings = ", ".join(f"({_pts(r)})" for r in g.parts[0])
        return f"POLYGON ({rings})"
    if g.kind == wkb_f.MULTIPOINT:
        return "MULTIPOINT (" + ", ".join(
            f"({_num(p[0][0])} {_num(p[0][1])})" for p in g.parts) + ")"
    if g.kind == wkb_f.MULTILINESTRING:
        return "MULTILINESTRING (" + ", ".join(
            f"({_pts(p)})" for p in g.parts) + ")"
    if g.kind == wkb_f.MULTIPOLYGON:
        polys = ", ".join(
            "(" + ", ".join(f"({_pts(r)})" for r in rings) + ")"
            for rings in g.parts)
        return f"MULTIPOLYGON ({polys})"
    if g.kind == wkb_f.GEOMETRYCOLLECTION:
        return "GEOMETRYCOLLECTION (" + ", ".join(
            encode_wkt(wkb_f.encode_geom(m)) for m in g.parts) + ")"
    if g.kind == wkb_f.CIRCULARSTRING:
        return f"CIRCULARSTRING ({_pts(g.parts[0])})"
    if g.kind == wkb_f.COMPOUNDCURVE:
        # SQL/MM WKT: LINESTRING members render as bare point sequences
        return "COMPOUNDCURVE (" + ", ".join(
            f"({_pts(m.parts[0])})" if m.kind == wkb_f.LINESTRING
            else f"CIRCULARSTRING ({_pts(m.parts[0])})"
            for m in g.parts) + ")"
    if g.kind == wkb_f.CURVEPOLYGON:
        rings = []
        for m in g.parts:
            if m.kind == wkb_f.LINESTRING:
                rings.append(f"({_pts(m.parts[0])})")
            else:  # CIRCULARSTRING / COMPOUNDCURVE rings keep their tag
                rings.append(encode_wkt(wkb_f.encode_geom(m)))
        return "CURVEPOLYGON (" + ", ".join(rings) + ")"
    if g.kind == wkb_f.MULTICURVE:
        return "MULTICURVE (" + ", ".join(
            f"({_pts(m.parts[0])})" if m.kind == wkb_f.LINESTRING
            else encode_wkt(wkb_f.encode_geom(m)) for m in g.parts) + ")"
    if g.kind == wkb_f.MULTISURFACE:
        return "MULTISURFACE (" + ", ".join(
            "(" + ", ".join(f"({_pts(r)})" for r in m.parts[0]) + ")"
            if m.kind == wkb_f.POLYGON
            else encode_wkt(wkb_f.encode_geom(m)) for m in g.parts) + ")"
    if g.kind == wkb_f.TRIANGLE:
        return "TRIANGLE ((" + _pts(g.parts[0][0]) + "))"
    if g.kind in (wkb_f.POLYHEDRALSURFACE, wkb_f.TIN):
        tag = "TIN" if g.kind == wkb_f.TIN else "POLYHEDRALSURFACE"
        patches = ", ".join(
            "(" + ", ".join(f"({_pts(r)})" for r in rings) + ")"
            for rings in g.parts)
        return f"{tag} ({patches})"
    raise ValueError(f"unsupported WKB kind {g.kind} for WKT")


class _P:
    __slots__ = ("s", "i")

    def __init__(self, s: str):
        self.s = s
        self.i = 0

    def ws(self):
        while self.i < len(self.s) and self.s[self.i] in " \t\n":
            self.i += 1

    def expect(self, ch: str):
        self.ws()
        if self.i >= len(self.s) or self.s[self.i] != ch:
            raise ValueError(f"WKT parse error at {self.i}: expected {ch!r}")
        self.i += 1

    def peek(self) -> str:
        self.ws()
        return self.s[self.i] if self.i < len(self.s) else ""

    def word(self) -> str:
        self.ws()
        j = self.i
        while j < len(self.s) and (self.s[j].isalpha()):
            j += 1
        w = self.s[self.i:j]
        self.i = j
        return w.upper()

    def number(self) -> float:
        self.ws()
        j = self.i
        while j < len(self.s) and self.s[j] not in " \t\n,()":
            j += 1
        v = float(self.s[self.i:j])
        self.i = j
        return v


def _parse_point_seq(p: _P) -> np.ndarray:
    p.expect("(")
    pts = []
    while True:
        x = p.number()
        y = p.number()
        pts.append((x, y))
        if p.peek() == ",":
            p.expect(",")
            continue
        break
    p.expect(")")
    return np.array(pts, dtype=np.float64)


def _parse_ring_list(p: _P) -> list[np.ndarray]:
    p.expect("(")
    rings = [_parse_point_seq(p)]
    while p.peek() == ",":
        p.expect(",")
        rings.append(_parse_point_seq(p))
    p.expect(")")
    return rings


def parse_wkt(text: str) -> bytes | None:
    """WKT -> WKB; EMPTY geometries return None."""
    p = _P(text)
    kind = p.word()
    save = p.i
    if p.word() == "EMPTY":
        return None
    p.i = save
    if kind == "POINT":
        pts = _parse_point_seq(p)
        return wkb_f.encode_points(pts[:, 0], pts[:, 1])[0]
    if kind == "LINESTRING":
        return wkb_f.encode_linestring(_parse_point_seq(p))
    if kind == "POLYGON":
        return wkb_f.encode_polygon(_parse_ring_list(p))
    if kind == "MULTIPOINT":
        p.expect("(")
        pts = []
        while True:
            if p.peek() == "(":
                pts.append(_parse_point_seq(p)[0])
            else:
                pts.append((p.number(), p.number()))
            if p.peek() == ",":
                p.expect(",")
                continue
            break
        p.expect(")")
        return wkb_f.encode_multipoint(pts)
    if kind == "MULTILINESTRING":
        return wkb_f.encode_multilinestring(_parse_ring_list(p))
    if kind == "MULTIPOLYGON":
        p.expect("(")
        polys = [_parse_ring_list(p)]
        while p.peek() == ",":
            p.expect(",")
            polys.append(_parse_ring_list(p))
        p.expect(")")
        return wkb_f.encode_multipolygon(polys)
    if kind in ("POLYHEDRALSURFACE", "TIN"):
        p.expect("(")
        patches = [_parse_ring_list(p)]
        while p.peek() == ",":
            p.expect(",")
            patches.append(_parse_ring_list(p))
        p.expect(")")
        return wkb_f.encode_surface(
            patches,
            wkb_f.TIN if kind == "TIN" else wkb_f.POLYHEDRALSURFACE)
    if kind == "TRIANGLE":
        return wkb_f.encode_triangle(_parse_ring_list(p))
    if kind == "GEOMETRYCOLLECTION":
        p.expect("(")
        members = []
        while True:
            # each member is a full tagged WKT geometry: recurse from the
            # member's start through its balanced parentheses
            start = p.i
            depth = 0
            j = p.i
            while j < len(p.s):
                if p.s[j] == "(":
                    depth += 1
                elif p.s[j] == ")":
                    if depth == 0:
                        break
                    depth -= 1
                    if depth == 0:
                        j += 1
                        break
                elif p.s[j] == "," and depth == 0:
                    break
                j += 1
            members.append(parse_wkt(p.s[start:j]))
            p.i = j
            if p.peek() == ",":
                p.expect(",")
                continue
            break
        p.expect(")")
        return wkb_f.encode_geometrycollection(members)
    if kind == "MULTICURVE":
        p.expect("(")
        members = [_parse_curve_member(p, rings_ok=True)]
        while p.peek() == ",":
            p.expect(",")
            members.append(_parse_curve_member(p, rings_ok=True))
        p.expect(")")
        return wkb_f.encode_collection(wkb_f.MULTICURVE, members)
    if kind == "MULTISURFACE":
        p.expect("(")
        members = []
        while True:
            if p.peek() == "(":  # bare ring list = implicit POLYGON
                members.append(wkb_f.encode_polygon(_parse_ring_list(p)))
            else:
                w = p.word()
                if w != "CURVEPOLYGON":
                    raise ValueError(f"unsupported surface member {w!r}")
                p.expect("(")
                rings = [_parse_curve_member(p, rings_ok=True)]
                while p.peek() == ",":
                    p.expect(",")
                    rings.append(_parse_curve_member(p, rings_ok=True))
                p.expect(")")
                members.append(wkb_f.encode_curvepolygon(rings))
            if p.peek() == ",":
                p.expect(",")
                continue
            break
        p.expect(")")
        return wkb_f.encode_collection(wkb_f.MULTISURFACE, members)
    if kind == "CIRCULARSTRING":
        return wkb_f.encode_circularstring(_parse_point_seq(p))
    if kind == "COMPOUNDCURVE":
        p.expect("(")
        members = [_parse_curve_member(p)]
        while p.peek() == ",":
            p.expect(",")
            members.append(_parse_curve_member(p))
        p.expect(")")
        return wkb_f.encode_compoundcurve(members)
    if kind == "CURVEPOLYGON":
        p.expect("(")
        rings = [_parse_curve_member(p, rings_ok=True)]
        while p.peek() == ",":
            p.expect(",")
            rings.append(_parse_curve_member(p, rings_ok=True))
        p.expect(")")
        return wkb_f.encode_curvepolygon(rings)
    raise ValueError(f"unsupported WKT type {kind!r}")


def _parse_curve_member(p: _P, rings_ok: bool = False) -> bytes:
    """One CompoundCurve segment / CurvePolygon ring: a bare parenthesized
    point sequence is an implicit LINESTRING; tagged CIRCULARSTRING (and,
    for rings, COMPOUNDCURVE) keep their type (SQL/MM WKT grammar)."""
    if p.peek() == "(":
        return wkb_f.encode_linestring(_parse_point_seq(p))
    w = p.word()
    if w == "CIRCULARSTRING":
        return wkb_f.encode_circularstring(_parse_point_seq(p))
    if w == "COMPOUNDCURVE" and rings_ok:
        p.expect("(")
        members = [_parse_curve_member(p)]
        while p.peek() == ",":
            p.expect(",")
            members.append(_parse_curve_member(p))
        p.expect(")")
        return wkb_f.encode_compoundcurve(members)
    raise ValueError(f"unsupported curve member {w!r}")
