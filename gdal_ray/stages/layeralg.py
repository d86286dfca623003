"""Layer algebra: polygon x polygon spatial joins and overlay ops.

Re-answers OGR layer algebra (reference: Intersection ``ogrlayer.cpp:5385``,
Union :5803, SymDifference :6340, Identity :6770, Clip/Erase; envelope reject
:5466-5485, prepared-geometry pretest :5510-5543) Ray-Data-first:

- **One pair join** (``_pair_join``): both layers flat_map to the grid cells
  their bboxes cover and meet in one ``relational.cogroup`` on the cell;
  per cell an envelope reject, then the plan's per-pair function (exact
  intersects, predicate, overlay or coverage overlap) on the survivors.
  ``polygon_join``, ``overlay_join``, ``predicate_join``, the pair stage of
  Union / SymDifference / Identity / Update, ``check_coverage`` and
  ``clean_coverage`` all run this one plan; a self-join covers its one
  layer once and pairs it with itself (id_a < id_b).
- **Owner-cell rule** (the reference-point method, Dittrich & Seeger, ICDE
  2000): a pair whose bboxes share k cells reaches k groups, but only the
  group of the cell holding the min corner of the intersection bbox emits
  it.  That corner lies in both bboxes, so both covers hold its cell: every
  pair is emitted exactly once and no dedup shuffle follows.
- **Overlay construction**: per-pair boolean ops run the concave-capable
  engine in ``stages/overlay.py``; ``clip_layer`` keeps Sutherland-Hodgman
  clipping against a convex clipper (the bbox/tile clip use case).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions import geo, pip, wkb
from .relational import cogroup


def clip_ring_convex(subject: np.ndarray, clipper: np.ndarray) -> np.ndarray:
    """Sutherland-Hodgman: clip a closed subject ring by a CCW convex closed
    clipper ring.  Returns a closed ring (possibly empty)."""
    # ensure clipper CCW
    if wkb.ring_area(clipper) < 0:
        clipper = clipper[::-1]
    out = subject[:-1].tolist()
    for i in range(len(clipper) - 1):
        a, b = clipper[i], clipper[i + 1]
        if not out:
            return np.empty((0, 2))
        inp = out
        out = []
        ex, ey = b[0] - a[0], b[1] - a[1]

        def inside(p):
            return ex * (p[1] - a[1]) - ey * (p[0] - a[0]) >= 0

        def isect(p, q):
            dx, dy = q[0] - p[0], q[1] - p[1]
            denom = ex * dy - ey * dx
            t = (ex * (a[1] - p[1]) - ey * (a[0] - p[0])) / denom
            return [p[0] + t * dx, p[1] + t * dy]

        s = inp[-1]
        for p in inp:
            if inside(p):
                if not inside(s):
                    out.append(isect(s, p))
                out.append(list(p))
            elif inside(s):
                out.append(isect(s, p))
            s = p
    if len(out) < 3:
        return np.empty((0, 2))
    ring = np.array(out + [out[0]])
    return ring


def clip_geom_convex(g: "wkb.Geom", clipper_ring: np.ndarray) -> "wkb.Geom | None":
    """Clip a polygon/multipolygon by a convex ring; holes are clipped too."""
    polys_out = []
    for rings in g.shells_and_holes():
        shell = clip_ring_convex(rings[0], clipper_ring)
        if shell.size == 0:
            continue
        holes = []
        for hole in rings[1:]:
            hc = clip_ring_convex(hole, clipper_ring)
            if hc.size:
                holes.append(hc)
        polys_out.append([shell, *holes])
    if not polys_out:
        return None
    if len(polys_out) == 1:
        return wkb.Geom(wkb.POLYGON, [polys_out[0]])
    return wkb.Geom(wkb.MULTIPOLYGON, polys_out)


def _cell_cover(batch: pa.Table, res: int, id_col: str) -> pa.Table:
    """flat_map polygons over their bbox cell cover."""
    boxes = wkb.bboxes(batch["wkb"].to_pylist())
    rows, cells = geo.bbox_cover_cells(boxes[:, 0], boxes[:, 1], boxes[:, 2], boxes[:, 3], res)
    take = pa.array(rows)
    return pa.table(
        {
            "cell": pa.array(cells),
            "gid": batch[id_col].take(take),
            "wkb": batch["wkb"].take(take),
            "minx": pa.array(boxes[rows, 0]),
            "miny": pa.array(boxes[rows, 1]),
            "maxx": pa.array(boxes[rows, 2]),
            "maxy": pa.array(boxes[rows, 3]),
        }
    )


_COVER_SCHEMA = pa.schema([("cell", pa.int64()), ("gid", pa.int64()), ("wkb", pa.binary()),
                           ("minx", pa.float64()), ("miny", pa.float64()),
                           ("maxx", pa.float64()), ("maxy", pa.float64())])


def _owner_cell_pairs(left: pa.Table, right: pa.Table, res: int):
    """Yield (id_a, id_b, geom_a, geom_b) for every bbox-candidate pair of one
    cell's left and right covers whose OWNER cell is this cell.  Owner = the
    cell holding the intersection-bbox min corner — a cell both sides'
    covers are guaranteed to include — so a pair sharing k cells is emitted
    by exactly ONE cell.  In a self-join ``right`` is ``left`` and only
    pairs with id_a < id_b count.  Geometries decode lazily, once per
    feature (a cover lists each cell once, so a row is one feature)."""
    if left.num_rows == 0 or right.num_rows == 0:
        return
    cell = int(left["cell"][0].as_py())
    lbox, rbox = (np.column_stack([t[c].to_numpy(zero_copy_only=False)
                                   for c in ("minx", "miny", "maxx", "maxy")])
                  for t in (left, right))
    lid = left["gid"].to_numpy(zero_copy_only=False)
    rid = right["gid"].to_numpy(zero_copy_only=False)
    # envelope reject (ogrlayer.cpp:5466-5485)
    cand = pip.bbox_intersects(lbox, rbox)
    if right is left:
        cand &= lid[:, None] < rid[None, :]
    a, b = np.nonzero(cand)
    owner = geo.point_cells(np.maximum(lbox[a, 0], rbox[b, 0]),
                            np.maximum(lbox[a, 1], rbox[b, 1]), res)
    geoms: dict = {}  # (table, row) -> Geom; a self-join shares one table

    def geom(t: pa.Table, p: int):
        if (id(t), p) not in geoms:
            geoms[id(t), p] = wkb.decode(t["wkb"][int(p)].as_py())
        return geoms[id(t), p]

    for k in np.flatnonzero(owner == cell):
        yield int(lid[a[k]]), int(rid[b[k]]), geom(left, a[k]), geom(right, b[k])


def _pair_join(left_ds, right_ds, res: int, left_id: str, right_id: str | None,
               schema: pa.Schema, per_pair):
    """The cell-partitioned pair join of every plan in this module.  Both
    layers flat_map to their cell covers and meet in one ``cogroup`` on the
    cell; each cell runs ``per_pair(id_a, id_b, geom_a, geom_b)`` over its
    owner-cell pairs and builds its table from the rows (dicts) that call
    yields, typed by ``schema`` even when there are none.  ``right_ds`` None
    is a self-join of ``left_ds`` over pairs with id_a < id_b."""
    layers = [(left_ds, left_id)] + ([] if right_ds is None else [(right_ds, right_id)])

    def join_cell(*covers: pa.Table) -> pa.Table:
        pairs = _owner_cell_pairs(covers[0], covers[-1], res)
        return pa.Table.from_pylist([row for pair in pairs for row in per_pair(*pair)],
                                    schema=schema)

    return cogroup([(ds.map_batches(lambda b, c=c: _cell_cover(b, res, c), batch_format="pyarrow"),
                     _COVER_SCHEMA) for ds, c in layers], "cell", join_cell)


def polygon_join(
    left_ds,
    right_ds,
    res: int = 5,
    left_id: str = "l_id",
    right_id: str = "r_id",
):
    """Polygon x polygon intersects join -> (l_id, r_id) pairs, each once."""

    def per_pair(lid, rid, gl, gr):
        if pip.polygons_intersect(gl, gr):
            yield {"l_id": lid, "r_id": rid}

    schema = pa.schema([("l_id", pa.int64()), ("r_id", pa.int64())])
    return _pair_join(left_ds, right_ds, res, left_id, right_id, schema, per_pair)


def overlay_join(
    left_ds,
    right_ds,
    res: int = 5,
    left_id: str = "l_id",
    right_id: str = "r_id",
):
    """Layer-algebra overlay with GEOMETRY construction (Intersection /
    Union / SymDifference output per intersecting pair — ogrlayer.cpp:5385,
    :5803, :6340 semantics; Identity/Update/Erase compose from these plus
    ``erase_layer``).  Same cell-partitioned pair join as ``polygon_join``;
    per-pair boolean ops run inside the group (stages/overlay.py, concave-
    capable).  Emits (l_id, r_id, inter_wkb, inter_area, union_area,
    symdiff_area); boundary-touch pairs (zero-area intersection) are skipped."""
    from . import overlay

    def per_pair(lid, rid, gl, gr):
        gi = overlay.boolean_op(gl, gr, "intersection")
        ia = overlay.geom_area(gi)
        if gi is None or ia <= 0:
            return
        yield {"l_id": lid, "r_id": rid, "inter_wkb": overlay.encode(gi), "inter_area": ia,
               "union_area": overlay.geom_area(overlay.boolean_op(gl, gr, "union")),
               "symdiff_area": overlay.geom_area(overlay.boolean_op(gl, gr, "symdifference"))}

    schema = pa.schema([("l_id", pa.int64()), ("r_id", pa.int64()), ("inter_wkb", pa.binary()),
                        ("inter_area", pa.float64()), ("union_area", pa.float64()),
                        ("symdiff_area", pa.float64())])
    return _pair_join(left_ds, right_ds, res, left_id, right_id, schema, per_pair)


def predicate_join(
    left_ds,
    right_ds,
    res: int = 5,
    left_id: str = "l_id",
    right_id: str = "r_id",
):
    """Full spatial-predicate join (ogr/ogrgeometry.cpp:6009-6362 predicate
    set): emits (l_id, r_id, predicate) for every non-disjoint pair, with
    predicate in equals | contains | within | overlaps | touches
    (pip.polygon_predicate).  Same cell-partitioned pair join as
    ``polygon_join``."""

    def per_pair(lid, rid, gl, gr):
        pred = pip.polygon_predicate(gl, gr)
        if pred is not None:
            yield {"l_id": lid, "r_id": rid, "predicate": pred}

    schema = pa.schema([("l_id", pa.int64()), ("r_id", pa.int64()), ("predicate", pa.string())])
    return _pair_join(left_ds, right_ds, res, left_id, right_id, schema, per_pair)


def erase_layer(ds, eraser_wkb: bytes, id_col: str = "fid"):
    """Erase: subtract a (possibly concave) eraser geometry from every
    feature (ogrlayer.cpp Erase); features left empty are dropped.
    Emits erased WKB + exact erased area."""
    from . import overlay

    ger = wkb.decode(eraser_wkb)
    ebox = wkb.bboxes([eraser_wkb])[0]

    def fn(batch: pa.Table) -> pa.Table:
        ids, out_wkb, areas = [], [], []
        for fid, w in zip(batch[id_col].to_pylist(), batch["wkb"].to_pylist()):
            g = wkb.decode(w)
            b = g.bbox()
            if b[2] <= ebox[0] or b[0] >= ebox[2] or b[3] <= ebox[1] or b[1] >= ebox[3]:
                ge = g  # no overlap: feature survives whole
            else:
                ge = overlay.boolean_op(g, ger, "difference")
            if ge is None:
                continue
            a = overlay.geom_area(ge)
            if a <= 0:
                continue
            ids.append(fid)
            out_wkb.append(overlay.encode(ge))
            areas.append(a)
        return pa.table(
            {id_col: pa.array(ids), "wkb": pa.array(out_wkb, pa.binary()),
             "erase_area": pa.array(areas, pa.float64())}
        )

    return ds.map_batches(fn, batch_format="pyarrow")


def clip_layer(ds, clipper_wkb: bytes, id_col: str = "fid"):
    """Clip every polygon by a convex clipper (gdal vector clip /
    layer-algebra Clip with a convex clip geometry).  Emits clipped WKB +
    exact clipped area."""
    clip_ring = wkb.decode(clipper_wkb).parts[0][0]

    def fn(batch: pa.Table) -> pa.Table:
        ids, out_wkb, areas = [], [], []
        for fid, w in zip(batch[id_col].to_pylist(), batch["wkb"].to_pylist()):
            g = wkb.decode(w)
            cg = clip_geom_convex(g, clip_ring)
            if cg is None:
                continue
            ids.append(fid)
            out_wkb.append(
                wkb.encode_polygon(cg.parts[0])
                if cg.kind == wkb.POLYGON
                else wkb.encode_multipolygon(cg.parts)
            )
            areas.append(wkb.geom_area(cg))
        return pa.table(
            {
                id_col: pa.array(ids),
                "wkb": pa.array(out_wkb, pa.binary()),
                "clip_area": pa.array(areas, pa.float64()),
            }
        )

    return ds.map_batches(fn, batch_format="pyarrow")


def dissolve_union(ds, key_col: str, id_col: str = "fid"):
    """Dissolve with TRUE geometric union (apps/gdalalg_vector_dissolve.cpp
    UnaryUnion semantics): per attribute group, member polygons are folded
    through the overlay engine's boolean union, so OVERLAPPING members
    contribute their union area exactly (the round-1 ``dissolve_collect``
    double-counts overlaps).  Emits (key, n_parts, union_area, wkb).

    Per-group cost is O(members^2) segment work — partition the dissolve key
    so groups stay small (the usual dissolve shape); huge groups would use a
    tree-fold (pairwise union reduction), the documented scale path."""
    from . import overlay

    def per_group(group: pa.Table) -> pa.Table:
        key = group[key_col][0].as_py()
        geoms = [wkb.decode(w) for w in group["wkb"].to_pylist()]
        acc = geoms[0]
        for g in geoms[1:]:
            u = overlay.boolean_op(acc, g, "union")
            if u is None:
                # union of two non-empty polygons can never be empty — fail
                # loudly rather than silently shrinking the dissolve result
                raise ValueError(
                    f"dissolve_union: degenerate union in group {key!r}"
                )
            acc = u
        return pa.table(
            {
                key_col: pa.array([key]),
                "n_parts": pa.array([len(geoms)], pa.int64()),
                "union_area": pa.array([overlay.geom_area(acc)], pa.float64()),
                "wkb": pa.array([overlay.encode(acc)], pa.binary()),
            }
        )

    return ds.groupby(key_col).map_groups(per_group, batch_format="pyarrow")


def dissolve_collect(ds, key_col: str, id_col: str = "fid"):
    """Dissolve (vector dissolve, apps/gdalalg_vector_dissolve.cpp:120):
    group by attribute, collect members into a MultiPolygon + aggregate
    bbox/total-area.  NOTE: member polygons are collected, not unioned —
    use ``dissolve_union`` for exact boundary union of OVERLAPPING members;
    for non-overlapping inputs (the common dissolve case) collect == union
    in area and bbox."""

    def per_group(group: pa.Table) -> pa.Table:
        key = group[key_col][0].as_py()
        polys = []
        area = 0.0
        geoms = [wkb.decode(w) for w in group["wkb"].to_pylist()]  # decode once
        boxes = np.array([g.bbox() for g in geoms])
        for g in geoms:
            area += wkb.geom_area(g)
            polys.extend(g.shells_and_holes())
        return pa.table(
            {
                key_col: pa.array([key]),
                "wkb": pa.array([wkb.encode_multipolygon(polys)], pa.binary()),
                "n_parts": pa.array([len(polys)], pa.int64()),
                "total_area": pa.array([area], pa.float64()),
                "minx": pa.array([float(boxes[:, 0].min())]),
                "miny": pa.array([float(boxes[:, 1].min())]),
                "maxx": pa.array([float(boxes[:, 2].max())]),
                "maxy": pa.array([float(boxes[:, 3].max())]),
            }
        )

    return ds.groupby(key_col).map_groups(per_group, batch_format="pyarrow")


# -- full OGR layer algebra (round-4 session 9) -------------------------------
# Reference: ogr/ogrlayer.cpp Union :5385 / SymDifference :5803 /
# Identity :6340 / Update — LAYER-level semantics: per-pair intersections
# plus per-FEATURE residuals (a feature minus the union of ALL its
# intersectors on the other side), so multi-intersector features behave
# like the reference, not like a per-pair symdifference.


def _overlay_parts(left_ds, right_ds, res: int = 5, left_id: str = "l_id",
                   right_id: str = "r_id", want=("both", "left", "right")):
    """Shared core: cell-partitioned pair discovery (owner-cell rule),
    per-pair intersections, then per-feature residual erase folds via two
    id-keyed shuffles.  Emits (part, l_id, r_id, area, wkb) with part in
    both | left | right (r_id/l_id = -1 on one-sided parts); zero-area
    results are dropped (GDAL skips empty geometries)."""
    from . import overlay

    def per_pair(lid, rid, gl, gr):
        gi = overlay.boolean_op(gl, gr, "intersection")
        if gi is None or overlay.geom_area(gi) <= 0:
            return
        if "both" in want:
            yield {"kind": "both", "key": lid, "okey": rid, "self_wkb": overlay.encode(gi)}
        if "left" in want:
            yield {"kind": "L", "key": lid, "okey": -1, "other_wkb": overlay.encode(gr)}
        if "right" in want:
            yield {"kind": "R", "key": rid, "okey": -1, "other_wkb": overlay.encode(gl)}

    schema = pa.schema([("kind", pa.string()), ("key", pa.int64()), ("okey", pa.int64()),
                        ("self_wkb", pa.binary()), ("other_wkb", pa.binary())])
    pairs = _pair_join(left_ds, right_ds, res, left_id, right_id, schema, per_pair)
    if len(want) > 1:
        # three consumers (both + two residual folds) would re-execute the
        # cell join per consumer — pin the pair metadata once
        pairs = pairs.materialize()

    out_parts = []
    if "both" in want:
        def fin_both(t: pa.Table) -> pa.Table:
            f = t.filter(pa.compute.equal(t["kind"], "both"))
            areas = [overlay.geom_area(wkb.decode(w))
                     for w in f["self_wkb"].to_pylist()]
            return pa.table({"part": pa.array(["both"] * f.num_rows),
                             "l_id": f["key"], "r_id": f["okey"],
                             "area": pa.array(areas, pa.float64()),
                             "wkb": f["self_wkb"]})

        out_parts.append(pairs.map_batches(fin_both, batch_format="pyarrow"))

    parts = pa.schema([("part", pa.string()), ("l_id", pa.int64()), ("r_id", pa.int64()),
                       ("area", pa.float64()), ("wkb", pa.binary())])
    seed_schema = pa.schema([("key", pa.int64()), ("self_wkb", pa.binary())])
    cut_schema = pa.schema([("key", pa.int64()), ("other_wkb", pa.binary())])

    def residual(ds, side_kind, id_col, part_name):
        def seed(t: pa.Table) -> pa.Table:
            return pa.table({"key": pa.compute.cast(t[id_col], pa.int64()),
                             "self_wkb": t["wkb"]})

        def fold(seeds: pa.Table, cuts: pa.Table) -> pa.Table:
            selfs = [w for w in seeds["self_wkb"].to_pylist() if w is not None]
            # pair rows without a seed cannot happen; guard
            res_g = overlay.erase_fold(
                wkb.decode(selfs[0]),
                [wkb.decode(w) for w in cuts["other_wkb"].to_pylist()]) if selfs else None
            a = overlay.geom_area(res_g)
            if res_g is None or a <= 0:
                return parts.empty_table()
            key = int(seeds["key"][0].as_py())
            lid, rid = (key, -1) if part_name == "left" else (-1, key)
            return pa.Table.from_pylist([{"part": part_name, "l_id": lid, "r_id": rid, "area": a,
                                          "wkb": overlay.encode(res_g)}], schema=parts)

        cuts = pairs.map_batches(lambda t: t.filter(pa.compute.equal(t["kind"], side_kind)),
                                 batch_format="pyarrow")
        return cogroup([(ds.map_batches(seed, batch_format="pyarrow"), seed_schema),
                        (cuts, cut_schema)], "key", fold)

    if "left" in want:
        out_parts.append(residual(left_ds, "L", left_id, "left"))
    if "right" in want:
        out_parts.append(residual(right_ds, "R", right_id, "right"))
    out = out_parts[0]
    for p in out_parts[1:]:
        out = out.union(p)
    return out


def layer_union(left_ds, right_ds, res: int = 5, left_id: str = "l_id",
                right_id: str = "r_id"):
    """ogrlayer.cpp:5385 Union: pair intersections + both sides'
    residuals."""
    return _overlay_parts(left_ds, right_ds, res, left_id, right_id,
                          want=("both", "left", "right"))


def layer_symdifference(left_ds, right_ds, res: int = 5,
                        left_id: str = "l_id", right_id: str = "r_id"):
    """ogrlayer.cpp:5803 SymDifference: both sides' residuals only."""
    return _overlay_parts(left_ds, right_ds, res, left_id, right_id,
                          want=("left", "right"))


def layer_identity(left_ds, right_ds, res: int = 5, left_id: str = "l_id",
                   right_id: str = "r_id"):
    """ogrlayer.cpp:6340 Identity: pair intersections + INPUT-side
    residuals (pieces of the input layer, split by the method layer)."""
    return _overlay_parts(left_ds, right_ds, res, left_id, right_id,
                          want=("both", "left"))


def layer_update(left_ds, right_ds, res: int = 5, left_id: str = "l_id",
                 right_id: str = "r_id"):
    """ogrlayer.cpp Update: method (right) features pasted whole over the
    input — right features as-is + left residuals."""
    from . import overlay

    def rights(t: pa.Table) -> pa.Table:
        areas = [overlay.geom_area(wkb.decode(w))
                 for w in t["wkb"].to_pylist()]
        return pa.table({"part": pa.array(["right"] * t.num_rows),
                         "l_id": pa.array(np.full(t.num_rows, -1, np.int64)),
                         "r_id": pa.compute.cast(t[right_id], pa.int64()),
                         "area": pa.array(areas, pa.float64()),
                         "wkb": t["wkb"]})

    left_res = _overlay_parts(left_ds, right_ds, res, left_id, right_id,
                              want=("left",))
    return left_res.union(
        right_ds.map_batches(rights, batch_format="pyarrow"))


def check_coverage(ds, id_col: str = "fid", res: int = 5,
                   area_scale: int = 10000):
    """Polygonal-coverage validation (``gdal vector check-coverage``,
    reference ``apps/gdalalg_vector_check_coverage.cpp`` — GEOS
    CoverageValidator's OVERLAP class): a layer forms a valid coverage
    only if interiors are pairwise disjoint, so every pair with a
    positive-area intersection is a violation.  Emits ONE row per input
    feature: (id, n_overlaps, overlap_area) with the area an exact scaled
    int64 (order-independent fold); clean features report zeros.

    Plan: the same cell-partitioned pair join as ``polygon_join``, as a
    self-join (each pair once by the owner-cell rule, its boolean op
    computed once), pair
    violations exploded to both participants, ONE keyed aggregate.
    Boundary-touch pairs (zero-area intersection — valid coverage
    topology) are not violations.  GEOS's gap-width class (narrow slivers
    BETWEEN features) is not covered here."""
    from .relational import partial_aggregate
    from . import overlay

    def per_pair(ida, idb, ga, gb):
        gi = overlay.boolean_op(ga, gb, "intersection")
        ia = overlay.geom_area(gi)
        sc = int(round(ia * area_scale)) if gi is not None and ia > 0 else 0
        if sc:
            yield {"id": ida, "n_overlaps": 1, "overlap_area": sc}
            yield {"id": idb, "n_overlaps": 1, "overlap_area": sc}

    def zero_rows(b: pa.Table) -> pa.Table:
        n = b.num_rows
        return pa.table({"id": pc.cast(b[id_col], pa.int64()),
                         "n_overlaps": pa.array(np.zeros(n, np.int64)),
                         "overlap_area": pa.array(np.zeros(n, np.int64))})

    schema = pa.schema([("id", pa.int64()), ("n_overlaps", pa.int64()),
                        ("overlap_area", pa.int64())])
    pairs = _pair_join(ds, None, res, id_col, None, schema, per_pair)
    base = ds.map_batches(zero_rows, batch_format="pyarrow")
    agg = partial_aggregate(base.union(pairs), ["id"],
                            sums=["n_overlaps", "overlap_area"])
    return agg.map_batches(
        lambda t: t.rename_columns(["id", "n_overlaps", "overlap_area"]),
        batch_format="pyarrow")


def clean_coverage(ds, id_col: str = "fid", res: int = 5,
                   merge_strategy: str = "max-area"):
    """Coverage cleaning (``gdal vector clean-coverage``, reference
    ``apps/gdalalg_vector_clean_coverage.cpp`` over GEOS CoverageCleaner):
    every pairwise overlap region is assigned to ONE of its two features
    by ``merge_strategy`` and erased from the other, producing a layer
    whose interiors are pairwise disjoint.  Strategies (reference
    ``merge-strategy`` values): ``max-area`` — the larger feature keeps
    the overlap; ``min-area`` — the smaller keeps it; ``min-id`` — the
    lower id keeps it.  Ties break toward the lower id.

    Scope vs GEOS: assignment is PAIRWISE (each overlap region resolved
    between its two owners independently — identical to the region-based
    GEOS result whenever overlap regions are pairwise disjoint, the normal
    almost-valid-coverage case); gap closing (``maximum-gap-width``) is
    not covered.  Emits (id, wkb, clean_area); features fully erased by
    their neighbors emit NULL wkb and area 0.

    Plan: one cell-partitioned self-join (owner-cell rule) to find
    overlaps and pick losers, one id-keyed ``cogroup`` of the features and
    their erasers folding each loser's difference chain — two shuffles
    total, no driver geometry."""
    from . import overlay

    if merge_strategy not in ("max-area", "min-area", "min-id"):
        raise ValueError(f"merge_strategy {merge_strategy!r} not in "
                         "('max-area', 'min-area', 'min-id')")

    def per_pair(ida, idb, ga, gb):
        gi = overlay.boolean_op(ga, gb, "intersection")
        if gi is None or overlay.geom_area(gi) <= 0:
            return
        if merge_strategy == "min-id":
            loser = idb
        else:
            aa, ab = overlay.geom_area(ga), overlay.geom_area(gb)
            bigger_keeps = merge_strategy == "max-area"
            loser = idb if aa == ab or (aa > ab) == bigger_keeps else ida
        yield {"id": loser, "wkb": overlay.encode(gi)}

    def base_rows(b: pa.Table) -> pa.Table:
        return pa.table({"id": pc.cast(b[id_col], pa.int64()), "wkb": b["wkb"]})

    schema = pa.schema([("id", pa.int64()), ("wkb", pa.binary())])
    erasers = _pair_join(ds, None, res, id_col, None, schema, per_pair)

    def fold(feats: pa.Table, cuts: pa.Table) -> pa.Table:
        if feats.num_rows == 0:
            raise ValueError(
                f"clean_coverage: eraser rows for id "
                f"{cuts['id'][0].as_py()} without a base feature")
        feat = wkb.decode(feats["wkb"][feats.num_rows - 1].as_py())
        for w in cuts["wkb"].to_pylist():
            if feat is None:
                break
            feat = overlay.boolean_op(feat, wkb.decode(w), "difference")
        area = overlay.geom_area(feat)
        return pa.table({
            "id": pa.array([feats["id"][0].as_py()], pa.int64()),
            "wkb": pa.array([overlay.encode(feat) if feat is not None
                             and area > 0 else None], pa.binary()),
            "clean_area": pa.array([max(area, 0.0)], pa.float64()),
        })

    return cogroup([(ds.map_batches(base_rows, batch_format="pyarrow"), schema),
                    (erasers, schema)], "id", fold)
