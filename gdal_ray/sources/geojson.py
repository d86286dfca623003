"""GeoJSON / GeoJSONSeq vector format — stdlib-json reader + writer.

Re-answers the reference's GeoJSON driver surface
(``ogr/ogrsf_frmts/geojson/``) from RFC 7946: FeatureCollection documents
plus the newline-delimited GeoJSONSeq layout (one Feature per line — the
reference's GeoJSONSeq driver), which is the 100 TB-friendly variant: line
boundaries make byte-range splits exact, so ``read_geojsonseq_dataset``
parses features inside ``map_batches`` workers over ``ray.data.read_text``
blocks and the driver never touches feature payloads.

Geometry bridges to the engine's WKB column: Point / MultiPoint /
LineString / MultiLineString / Polygon / MultiPolygon both ways.  JSON
numbers serialize via Python ``repr`` (shortest round-trip), so float64
coordinates survive bitwise.
"""

from __future__ import annotations

import json

import numpy as np
import pyarrow as pa

from ..functions import wkb as wkb_f


def _coords_to_json(wkb: bytes):
    g = wkb_f.decode(wkb)
    if g.kind == wkb_f.POINT:
        p = g.parts[0][0]
        return "Point", [float(p[0]), float(p[1])]
    if g.kind == wkb_f.MULTIPOINT:
        return "MultiPoint", [[float(q[0][0]), float(q[0][1])] for q in g.parts]
    if g.kind == wkb_f.LINESTRING:
        return "LineString", [[float(x), float(y)] for x, y in g.parts[0]]
    if g.kind == wkb_f.MULTILINESTRING:
        return "MultiLineString", [[[float(x), float(y)] for x, y in part]
                                   for part in g.parts]
    if g.kind == wkb_f.POLYGON:
        return "Polygon", [[[float(x), float(y)] for x, y in r]
                           for r in g.parts[0]]
    if g.kind == wkb_f.MULTIPOLYGON:
        return "MultiPolygon", [[[[float(x), float(y)] for x, y in r]
                                 for r in rings] for rings in g.parts]
    raise ValueError(f"unsupported WKB kind {g.kind} for GeoJSON")


def _xy(positions) -> np.ndarray:
    """(N, 2) X/Y of GeoJSON positions; a Z (or any further) ordinate, which
    RFC 7946 allows, is dropped, as ``geomops.force_2d_batch`` drops it."""
    return np.array([p[:2] for p in positions], dtype=np.float64).reshape(-1, 2)


def _json_to_wkb(geom: dict | None) -> bytes | None:
    if geom is None:
        return None
    t, c = geom["type"], geom.get("coordinates")
    if t == "Point":
        return wkb_f.encode_points(np.array([c[0]]), np.array([c[1]]))[0]
    if t == "MultiPoint":
        return wkb_f.encode_multipoint(_xy(c))
    if t == "LineString":
        return wkb_f.encode_linestring(_xy(c))
    if t == "MultiLineString":
        return wkb_f.encode_multilinestring([_xy(p) for p in c])
    if t == "Polygon":
        return wkb_f.encode_polygon([_xy(r) for r in c])
    if t == "MultiPolygon":
        return wkb_f.encode_multipolygon([[_xy(r) for r in rings] for rings in c])
    raise ValueError(f"unsupported GeoJSON geometry type {t}")


def _feature(wkb: bytes | None, props: dict) -> dict:
    if wkb is None:
        return {"type": "Feature", "geometry": None, "properties": props}
    t, c = _coords_to_json(wkb)
    return {"type": "Feature",
            "geometry": {"type": t, "coordinates": c},
            "properties": props}


def _props_of(attrs: pa.Table | None, i: int) -> dict:
    if attrs is None:
        return {}
    return {name: attrs[name][i].as_py() for name in attrs.column_names}


def write_geojson(path: str, wkbs, attrs: pa.Table | None = None,
                  seq: bool = False) -> None:
    """FeatureCollection (``seq=False``) or newline-delimited GeoJSONSeq."""
    feats = [_feature(w, _props_of(attrs, i)) for i, w in enumerate(wkbs)]
    with open(path, "w") as f:
        if seq:
            for ft in feats:
                f.write(json.dumps(ft, separators=(",", ":")) + "\n")
        else:
            json.dump({"type": "FeatureCollection", "features": feats}, f,
                      separators=(",", ":"))


def _features_to_table(feats, fid0: int = 0) -> pa.Table:
    rows = []
    for i, ft in enumerate(feats):
        row = {"fid": fid0 + i, "wkb": _json_to_wkb(ft.get("geometry"))}
        row.update(ft.get("properties") or {})
        rows.append(row)
    return pa.Table.from_pylist(rows)


def read_geojson(path: str) -> pa.Table:
    """Eager FeatureCollection (or Seq) parse -> pa.Table (fid, wkb, props)."""
    with open(path) as f:
        head = f.read(1)
        f.seek(0)
        if head != "{":
            raise ValueError("not GeoJSON: expected a JSON object")
        body = f.read()
    try:
        doc = json.loads(body)
    except json.JSONDecodeError:
        # GeoJSONSeq: one Feature per line
        feats = [json.loads(line) for line in body.splitlines() if line.strip()]
        return _features_to_table(feats)
    if doc.get("type") == "FeatureCollection":
        return _features_to_table(doc["features"])
    return _features_to_table([doc])


def read_geojsonseq_dataset(path: str):
    """GeoJSONSeq -> Ray Dataset of (wkb, props): ``ray.data.read_text``
    splits on line boundaries (exact for one-feature-per-line), features
    parse inside workers.  No per-feature fid — line order is not global
    under parallel reads; carry ids in properties (the reference's
    GeoJSONSeq makes the same non-guarantee)."""
    import ray.data as rd

    def parse(t: pa.Table) -> pa.Table:
        rows = []
        for line in t["text"].to_pylist():
            line = line.strip()
            if not line:
                continue
            ft = json.loads(line)
            row = {"wkb": _json_to_wkb(ft.get("geometry"))}
            row.update(ft.get("properties") or {})
            rows.append(row)
        return pa.Table.from_pylist(rows)

    return rd.read_text(path).map_batches(parse, batch_format="pyarrow")
