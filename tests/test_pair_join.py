"""The cell-partitioned pair join behind the layer algebra.

- Exactly once: ``polygon_join``, ``predicate_join`` and ``check_coverage``
  report every true pair once, checked against a brute-force loop over
  boxes that share several grid cells and pairs that only touch along a
  cell line or at a corner.
- Parity: the sorted output of every layer-algebra plan over a small random
  rectangle + concave fixture is pinned to a sha256 recorded before the
  plans were moved onto one owner-cell pair join.
"""

import hashlib

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

from gdal_ray.functions import pip, wkb
from gdal_ray.stages import layeralg, overlay

# res 4 cells are 22.5 degrees wide; lon 0 / 22.5 and lat 0 are cell lines
RES = 4


def _rect(x0, y0, x1, y1):
    return np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1], [x0, y0]], float)


def _u_shape(x, y, s):
    """A concave U of width 3s opening upward, min corner at (x, y)."""
    return np.array([[x, y], [x + 3 * s, y], [x + 3 * s, y + 3 * s],
                     [x + 2 * s, y + 3 * s], [x + 2 * s, y + s], [x + s, y + s],
                     [x + s, y + 3 * s], [x, y + 3 * s], [x, y]], float)


def _layer(id_col, rings, first_id=0):
    return pa.table({id_col: pa.array(range(first_id, first_id + len(rings)),
                                      pa.int64()),
                     "wkb": pa.array([wkb.encode_polygon([r]) for r in rings],
                                     pa.binary())})


# boxes sharing up to 8 cells, edge contacts on lon 0 and lat 0, corner
# contacts at (0, 0) and (22.5, 0)
TOUCH_RINGS = [
    _rect(-30, -10, 30, 10), _rect(-25, -5, 25, 15),
    _rect(0, 20, 10, 30), _rect(-10, 20, 0, 30),
    _rect(40, -5, 50, 0), _rect(40, 0, 50, 5),
    _rect(-8, -8, 0, 0), _rect(0, 0, 8, 8),
    _rect(15, -7, 22.5, 0), _rect(22.5, 0, 30, 7),
    _rect(-60, -40, -50, -30),
]


def _brute(kind, rings):
    geoms = [wkb.decode(wkb.encode_polygon([r])) for r in rings]
    n = len(geoms)
    if kind == "polygon_join":
        return sorted((i, j) for i in range(n) for j in range(n)
                      if pip.polygons_intersect(geoms[i], geoms[j]))
    if kind == "predicate_join":
        return sorted((i, j, p) for i in range(n) for j in range(n)
                      if (p := pip.polygon_predicate(geoms[i], geoms[j])))
    count, area = [0] * n, [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            ia = overlay.geom_area(
                overlay.boolean_op(geoms[i], geoms[j], "intersection"))
            sc = int(round(ia * 10000))
            if sc:
                for k in (i, j):
                    count[k] += 1
                    area[k] += sc
    return sorted(zip(range(n), count, area))


@pytest.mark.parametrize("kind", ["polygon_join", "predicate_join",
                                  "check_coverage"])
def test_each_pair_once(kind, ray_session):
    left = rd.from_arrow(_layer("l_id", TOUCH_RINGS))
    right = rd.from_arrow(_layer("r_id", TOUCH_RINGS))
    if kind == "polygon_join":
        got = [(r["l_id"], r["r_id"])
               for r in layeralg.polygon_join(left, right, res=RES).take_all()]
    elif kind == "predicate_join":
        got = [(r["l_id"], r["r_id"], r["predicate"]) for r in
               layeralg.predicate_join(left, right, res=RES).take_all()]
    else:
        layer = rd.from_arrow(_layer("fid", TOUCH_RINGS))
        got = [(r["id"], r["n_overlaps"], r["overlap_area"]) for r in
               layeralg.check_coverage(layer, res=RES).take_all()]
    expect = _brute(kind, TOUCH_RINGS)
    assert sorted(got) == expect
    if kind == "polygon_join":
        # the fixture exercises every contact kind: 8-cell boxes, edge and
        # corner contacts on cell lines, and a lone box
        assert (2, 3) in expect and (4, 5) in expect
        assert (6, 7) in expect and (8, 9) in expect
        assert not any(10 in p and p != (10, 10) for p in expect)


def _random_rings(rng, n_rect, n_u):
    rings = []
    for _ in range(n_rect):
        x, y = rng.uniform(-40, 30, 2)
        w, h = rng.uniform(2, 25, 2)
        rings.append(_rect(x, y, x + w, y + h))
    for _ in range(n_u):
        x, y = rng.uniform(-40, 30, 2)
        rings.append(_u_shape(x, y, rng.uniform(1, 6)))
    return rings


def _fixture():
    rng = np.random.default_rng(2026)
    return (_layer("l_id", _random_rings(rng, 14, 6)),
            _layer("r_id", _random_rings(rng, 12, 5), first_id=100))


def _plan(name):
    lt, rt = _fixture()
    left, right = rd.from_arrow(lt), rd.from_arrow(rt)
    cover = rd.from_arrow(lt.rename_columns(["fid", "wkb"]))
    if name == "polygon_join":
        return layeralg.polygon_join(left, right, res=RES)
    if name == "overlay_join":
        return layeralg.overlay_join(left, right, res=RES)
    if name == "predicate_join":
        return layeralg.predicate_join(left, right, res=RES)
    if name in ("layer_union", "layer_symdifference", "layer_identity",
                "layer_update"):
        return getattr(layeralg, name)(left, right, res=RES)
    if name == "check_coverage":
        return layeralg.check_coverage(cover, res=RES)
    strategy = name.split(":")[1]
    return layeralg.clean_coverage(cover, res=RES, merge_strategy=strategy)


def _digest(rows):
    items = sorted((tuple(sorted(r.items())) for r in rows), key=repr)
    return hashlib.sha256(repr(items).encode()).hexdigest()


# plan -> sha256 of the sorted output, recorded before the owner-cell pair
# join replaced the per-plan cell joins and polygon_join's dedup shuffle
DIGESTS = {
    "polygon_join":
        "fdea5420db2c72d66005a703300bb390e561121f955bb4b3cea86e1331716dd6",
    "overlay_join":
        "561861f7d6d03b224f08d769389c6a149c8605dd1a912c44984d5c04a5b9ce2f",
    "predicate_join":
        "44f7e5bdf1c48f4d652b74f8af810c1ad2465ccaf9cb7732a56d294cc2e730a0",
    "layer_union":
        "fff60710046857a9e4db5c434463a749773fd7cf7584f330028e9a5592457b09",
    "layer_symdifference":
        "5fc1ce854e580490dfecb538fc6df69cc5bf1fcd3d9e646b63c8d5a6081248b1",
    "layer_identity":
        "1c6be7ce32e5ab7fe34a610c5bb832a593af143b3def814d34c50f325bf5b487",
    "layer_update":
        "b68f9ebad7ace23761ef4f7490b00620856c1391e0ee98397aa45d963068f084",
    "check_coverage":
        "a42b36766da7d2dda82f54e06484f23c9f18bec3696b36cdc4ca22ea0cfc7f22",
    "clean_coverage:max-area":
        "7b0a25ffc51b9788bd5689d397d81c794c0027cd6e4502602b3ba1af4e84b568",
    "clean_coverage:min-area":
        "29f96e00b326b74cbbc99a0d3310a71fd30cc8b3ca9225bc75a78985d011950f",
    "clean_coverage:min-id":
        "b5990220ff38b147587cfdd894e4a971b5c361d9a343b55dc734568b57a22c34",
}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_plan_parity(name, ray_session):
    rows = _plan(name).take_all()
    assert rows
    assert _digest(rows) == DIGESTS[name]
