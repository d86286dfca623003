"""The one exact-key co-group behind every side-tagged shuffle:
``relational.cogroup``.

- Parity: the schema and sorted rows of each operator that co-groups its
  inputs (the N-layer raster ops, the two-raster compares and update,
  ``mdim_compare``, the dedup blob and cluster joins, the layer-algebra pair
  join and the partitioned point x zone join) are pinned to a sha256
  recorded before they were moved onto ``cogroup``.  The fixtures hold keys
  present on one side only, a layer missing at a tile, and both tile
  schemas of FIXTURES.md F3 (narrow int16/int32/int8 address columns and
  wide int64 ones).
- ``cogroup`` itself: a side with no rows at a key arrives as a typed
  zero-row table, side-only columns keep their types, and sides arrive in
  list order.
"""

import hashlib

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

from gdal_ray.functions import wkb
from gdal_ray.sources import netcdf3, synthetic
from gdal_ray.stages import dedup, layeralg, mdim, rastermap, relational, tiles
from gdal_ray.stages import join as join_stage

_ADDRESS = ("z", "x", "y", "band", "width", "height")


def _wide(t: pa.Table) -> pa.Table:
    """The file-driver (wide) form of a synthetic (narrow) tile table."""
    for c in _ADDRESS:
        t = t.set_column(t.schema.get_field_index(c), c, t[c].cast(pa.int64()))
    return t


def _tiles(kind: str, nx: int, ny: int, wide: bool, drop=()) -> pa.Table:
    """A 16 px tile table without the tiles at the ``(x, y)`` in ``drop``."""
    t = synthetic.make_raster_tiles(kind, nx, ny, size=16)
    xy = list(zip(t["x"].to_pylist(), t["y"].to_pylist()))
    t = t.filter(pa.array([p not in drop for p in xy]))
    return _wide(t) if wide else t


def _edit(t: pa.Table, at: tuple, delta: int) -> pa.Table:
    """``t`` with ``delta`` added to three pixels of the tile at ``at``."""
    datas = t["data"].to_pylist()
    for i, xy in enumerate(zip(t["x"].to_pylist(), t["y"].to_pylist())):
        if xy == at:
            a = np.frombuffer(datas[i], t["dtype"][i].as_py()).copy()
            a[[0, 17, 40]] += delta
            datas[i] = a.tobytes()
    return t.set_column(t.schema.get_field_index("data"), "data",
                        pa.array(datas, pa.binary()))


def _layers(wide: bool) -> list:
    # the ramp layer has no tile at (1, 1)
    return [rd.from_arrow(_tiles("checker", 2, 2, wide)),
            rd.from_arrow(_tiles("ramp", 2, 2, wide, drop=[(1, 1)])),
            rd.from_arrow(_tiles("blobs", 2, 2, wide))]


def _blend_layers(wide: bool) -> list:
    ra, rb = (2, 2, 28, 24), (10, 6, 32, 32)
    a = synthetic.make_footprint_layer(ra, 1, 2, 251, 2, 2, size=16)
    b = synthetic.make_footprint_layer(rb, 3, 1, 241, 2, 2, size=16)
    b = b.filter(pa.array(np.arange(b.num_rows) != 0))  # no tile (0, 0)
    if wide:
        a, b = _wide(a), _wide(b)
    return [(rd.from_arrow(a), ra), (rd.from_arrow(b), rb)]


def _compare_pair(wide: bool):
    a = _tiles("checker", 2, 2, wide, drop=[(0, 1)])  # (0, 1) on b only
    b = _edit(_tiles("checker", 3, 2, wide, drop=[(1, 1)]), (1, 0), 7)
    return rd.from_arrow(a), rd.from_arrow(b)


def _compare_rasters_pair(wide: bool):
    a = _tiles("ramp", 2, 2, wide)
    return rd.from_arrow(a), rd.from_arrow(_edit(a, (0, 1), -3))


def _update_pair(wide: bool):
    dst = _tiles("hump", 2, 2, wide)
    src = _tiles("checker", 3, 2, wide, drop=[(0, 0), (0, 1), (1, 1)])
    return rd.from_arrow(dst), rd.from_arrow(src)


@pytest.fixture(scope="module")
def cubes(tmp_path_factory):
    d = tmp_path_factory.mktemp("cubes")
    rng = np.random.default_rng(4)
    va = rng.integers(0, 99, (3, 10, 12)).astype(np.int32)
    vb = va.copy()
    vb[1, 4, 7] += 5
    vb[2, 0, 0] -= 2
    paths = []
    for name, v in (("a", va), ("b", vb)):
        paths.append(str(d / f"{name}.nc"))
        netcdf3.write_netcdf3(paths[-1], {"v": (("t", "y", "x"), v)})
    return paths


def _mdim_compare(paths):
    chunks = {"t": 2, "y": 5, "x": 6}
    da, ma = mdim.read_mdarray_chunks(paths[0], "v", chunks)
    db, mb = mdim.read_mdarray_chunks(paths[1], "v", chunks)
    return mdim.mdim_compare(da, ma, db, mb)


def _blob_pairs():
    # keys 3 and 9 have no blob; blob keys 5 and 8 have no pair
    pairs = pa.table({"id_a": pa.array([1, 2, 3, 2, 9, 1], pa.int64()),
                      "id_b": pa.array([2, 4, 4, 6, 1, 7], pa.int64())})
    blobs = pa.table({"_k": pa.array([1, 2, 4, 5, 8], pa.int64()),
                      "_blob": pa.array([b"one", b"two", b"four", b"five", b""],
                                        pa.binary())})
    return rd.from_arrow(pairs), rd.from_arrow(blobs)


def _near_dups():
    rng = np.random.default_rng(41)
    vocab = ["v%d" % i for i in range(400)]
    base = " ".join(rng.choice(vocab, 80))
    texts = [base, base + " tail", base + " x",
             " ".join(rng.choice(vocab, 80)), " ".join(rng.choice(vocab, 80))]
    return rd.from_arrow(pa.table({
        "doc_id": pa.array([640, 704, 960, 1280, 1344], pa.int64()),
        "text": pa.array(texts, pa.string())}))


def _keep_best_inputs():
    ids = np.arange(1, 31, dtype=np.int64)
    docs = pa.table({"doc_id": pa.array(ids),
                     "n_chars": pa.array((ids * 37) % 11, pa.int32())})
    # docs 25..30 are in no cluster; doc 99 is in a cluster but not in docs
    members = np.r_[np.arange(1, 25), 99]
    clusters = pa.table({"doc_id": pa.array(members, pa.int64()),
                         "cluster_id": pa.array(members // 6 * 6, pa.int64())})
    return rd.from_arrow(docs), rd.from_arrow(clusters)


def _polygons():
    def rect(x0, y0, x1, y1):
        return np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1], [x0, y0]], float)

    rng = np.random.default_rng(12)
    left, right = [], []
    for rings in (left, right):
        for _ in range(25):
            x, y = rng.uniform(-40, 40), rng.uniform(-30, 30)
            rings.append(rect(x, y, x + rng.uniform(1, 30), y + rng.uniform(1, 20)))

    def layer(id_col, rings):
        return rd.from_arrow(pa.table({
            id_col: pa.array(range(len(rings)), pa.int64()),
            "wkb": pa.array([wkb.encode_polygon([r]) for r in rings], pa.binary())}))

    return layer("l_id", left), layer("r_id", right), layer("fid", left + right)


def _points_zones(salted: bool):
    ids = np.arange(1, 1201, dtype=np.int64)
    pts = rd.from_arrow(tiles.derive_geometry_batch(pa.table({"doc_id": pa.array(ids)})))
    zones = rd.from_arrow(synthetic.make_rect_zones(np.arange(1, 61, dtype=np.int64)))
    salts = (join_stage.compute_hot_cells(pts, res=4, hot_threshold=8, max_salt=4)
             if salted else None)
    assert salts or not salted
    return join_stage.partitioned_spatial_join(pts, zones, res=4, salts=salts)


RASTER_CASES = {
    "stack_bands": lambda w: rastermap.stack_bands(_layers(w)),
    "mosaic": lambda w: rastermap.mosaic(_layers(w), nodata=0.0),
    "mosaic_blend": lambda w: rastermap.mosaic_blend(_blend_layers(w), feather=4),
    "composite_median": lambda w: rastermap.composite_reduce(
        _layers(w), "median", nodata=0.0),
    "composite_mean": lambda w: rastermap.composite_reduce(_layers(w), "mean"),
    "composite_count_valid": lambda w: rastermap.composite_reduce(
        _layers(w), "count_valid", nodata=0.0),
    "compare": lambda w: rastermap.compare(*_compare_pair(w)),
    "compare_rasters": lambda w: rastermap.compare_rasters(*_compare_rasters_pair(w)),
    "raster_update": lambda w: rastermap.raster_update(*_update_pair(w)),
}

CASES = {
    **{f"{name}_{form}": (lambda f=f, w=form == "wide": f(w))
       for name, f in RASTER_CASES.items() for form in ("narrow", "wide")},
    "mdim_compare": None,  # needs the ``cubes`` fixture
    "attach_blob": lambda: dedup._attach_blob(
        *_blob_pairs(), "id_a", "blob_a", [("id_b", pa.int64())]),
    "ngram_jaccard_pairs": lambda: dedup.ngram_jaccard_pairs(
        _near_dups(), min_x1000=0),
    "cluster_keep_best": lambda: dedup.cluster_keep_best(*_keep_best_inputs()),
    "polygon_join": lambda: layeralg.polygon_join(*_polygons()[:2], res=4),
    "check_coverage": lambda: layeralg.check_coverage(_polygons()[2], res=4),
    "partitioned_join": lambda: _points_zones(False),
    "partitioned_join_salted": lambda: _points_zones(True),
}


def _digest(out) -> str:
    """sha256 of an operator's schema and its rows in sorted order."""
    if isinstance(out, dict):
        schema, rows = sorted((k, type(v).__name__) for k, v in out.items()), [out]
    elif isinstance(out, pa.Table):
        schema, rows = str(out.schema), out.to_pylist()
    else:
        out = out.materialize()
        schema, rows = str(out.schema().base_schema), out.take_all()
    items = sorted((tuple(sorted(r.items())) for r in rows), key=repr)
    assert items
    return hashlib.sha256(repr((schema, items)).encode()).hexdigest()


# case -> sha256 of the schema and sorted rows, recorded before the
# operators were moved onto ``relational.cogroup``
DIGESTS = {
    "attach_blob": "349544259793890f940f9e98a480ceb2966093d6abf3ffc6bd84170b4538f8de",
    "check_coverage": "bc96c85420666a653ad7f4e6d012674753632e936018b5f0a9469435fd7ef17a",
    "cluster_keep_best": "6815f4523377638174ce635fdf1e0e0b97baad9c3f24be3c22c8d52010faaf0b",
    "compare_narrow": "bc03a83eaa80390ccd016832545ca3fa5cf484bfc0b4f5fcf08f4cc4658c2fcf",
    "compare_rasters_narrow": "24c7a3b1e60485ee0d300f8923c54f436e44a5c189a2ba7cec0f8c745c96102b",
    "compare_rasters_wide": "24c7a3b1e60485ee0d300f8923c54f436e44a5c189a2ba7cec0f8c745c96102b",
    "compare_wide": "76ba072011d1433b529f861a43e609bb42a82eaaf971d972e6c4d7e2e83d6f8b",
    "composite_count_valid_narrow": "269cfb18cc228504df2d8533cd5177dff2d28e24e04c8c6d4ca7940322aa6daf",
    "composite_count_valid_wide": "269cfb18cc228504df2d8533cd5177dff2d28e24e04c8c6d4ca7940322aa6daf",
    "composite_mean_narrow": "98ab5d6529c816cf49355ae9686d21c42d682730c4b44b65f43e0c40bbbf08e8",
    "composite_mean_wide": "98ab5d6529c816cf49355ae9686d21c42d682730c4b44b65f43e0c40bbbf08e8",
    "composite_median_narrow": "93634d1f461f99d9304314f5354e7b2c01a17f019592ac02d20b349f9a63a57a",
    "composite_median_wide": "93634d1f461f99d9304314f5354e7b2c01a17f019592ac02d20b349f9a63a57a",
    "mdim_compare": "94957c6b9cf8d5b368b3b0d1cb767770b6609e8d80766c6378f1030d0e0c9f47",
    "mosaic_blend_narrow": "39f41d881f78a84cb24fa13eb941d05730de0fdd710ca2c58601e251c3c827f1",
    "mosaic_blend_wide": "39f41d881f78a84cb24fa13eb941d05730de0fdd710ca2c58601e251c3c827f1",
    "mosaic_narrow": "ab865c36f6960370e6355b47f6f6521e46745f9b745c3e9e097a67753223bb1f",
    "mosaic_wide": "ab865c36f6960370e6355b47f6f6521e46745f9b745c3e9e097a67753223bb1f",
    "ngram_jaccard_pairs": "bf8dd70d6c04587ca49743bfc9f83f203fc0130f942bc272122f0d5d02425d6f",
    "partitioned_join": "474f1e65c2f219af4bc4aa520ae32b517c537bc38d7873b1cc9a6bc81fe347c1",
    "partitioned_join_salted": "474f1e65c2f219af4bc4aa520ae32b517c537bc38d7873b1cc9a6bc81fe347c1",
    "polygon_join": "2e83d11485ddf0d23365a393524bf7950b0f168341436f9653a7298314e98bf3",
    "raster_update_narrow": "14ae6de034d9137cb6069e175d51ec1048d5ea134b16c751fa5f2343a8fe782e",
    "raster_update_wide": "8ae344be5cdbb410ddcf78c69bd4bc1b8d86fbbc53edb941e8a7be5e90e8285a",
    "stack_bands_narrow": "3f1291cb3e98fccbe753e3f19d16a6069b9783bce037056828096a713ed1f661",
    "stack_bands_wide": "3f1291cb3e98fccbe753e3f19d16a6069b9783bce037056828096a713ed1f661",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_operator_parity(name, ray_session, cubes):
    out = _mdim_compare(cubes) if name == "mdim_compare" else CASES[name]()
    assert _digest(out) == DIGESTS[name]


def test_cogroup_hands_each_side_its_typed_rows(ray_session):
    """Sides share the key column under different integer types; each
    arrives in list order, in its own schema, with its side-only columns
    typed, and as a zero-row table of its schema where it has no rows."""
    a = pa.table({"k": pa.array([1, 1, 2, 3], pa.int32()),
                  "name": pa.array(["a", "b", "c", "d"], pa.string()),
                  "day": pa.array([0, 1, 2, 3], pa.int32()).cast(pa.date32())})
    b = pa.table({"k": pa.array([2, 3, 3, 4], pa.int64()),
                  "x": pa.array([0.5, 1.5, 2.5, 3.5])})
    c = pa.table({"k": pa.array([3], pa.int16()), "flag": pa.array([True])})
    schemas = [a.schema, b.schema, c.schema]

    def per_key(*tables) -> pa.Table:
        key = next(t["k"][0].as_py() for t in tables if t.num_rows)
        return pa.table({
            "k": [key], "n": [[t.num_rows for t in tables]],
            "typed": [all(t.schema.equals(s) for t, s in zip(tables, schemas))],
            "names": [tables[0]["name"].to_pylist()]})

    rows = relational.cogroup([(rd.from_arrow(t), t.schema) for t in (a, b, c)],
                              "k", per_key).take_all()
    assert {r["k"]: r["n"] for r in rows} == {
        1: [2, 0, 0], 2: [1, 1, 0], 3: [1, 2, 1], 4: [0, 1, 0]}
    assert all(r["typed"] for r in rows)
    assert sorted(next(r["names"] for r in rows if r["k"] == 1)) == ["a", "b"]


def test_cogroup_of_one_side_groups_on_every_key(ray_session):
    t = pa.table({"x": pa.array([1, 1, 2, 2, 2], pa.int64()),
                  "y": pa.array([0, 0, 0, 1, 1], pa.int8())})
    rows = relational.cogroup([(rd.from_arrow(t), t.schema)], ["x", "y"],
                              lambda g: g.slice(0, 1).append_column(
                                  "n", pa.array([g.num_rows]))).take_all()
    assert sorted((r["x"], r["y"], r["n"]) for r in rows) == [(1, 0, 2), (2, 0, 1), (2, 1, 2)]
