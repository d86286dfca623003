"""Spatial-join / kNN / tile-assignment stage tests vs brute-force oracles.

Mirrors ogr_join_test.py / layer-algebra autotest style: small deterministic
inputs, exact expected pair sets (SURVEY §5 styles 1-2).
"""

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

from gdal_ray.functions import geo, pip, wkb
from gdal_ray.sources import synthetic
from gdal_ray.stages import join as join_stage
from gdal_ray.stages import knn as knn_stage
from gdal_ray.stages import tiles as tiles_stage


@pytest.fixture(scope="module")
def docs():
    return synthetic.docs_with_geometry(synthetic.make_docs(1000))


@pytest.fixture(scope="module")
def rect_zones():
    return synthetic.make_rect_zones(np.arange(1, 120))


def brute_pairs(docs: pa.Table, zones: pa.Table, predicate: str) -> set:
    """O(n*m) oracle using decoded geometries + independent bbox/PIP logic."""
    lon = docs["lon"].to_numpy()
    lat = docs["lat"].to_numpy()
    ids = docs["doc_id"].to_pylist()
    out = set()
    for zid, zwkb, minx, miny, maxx, maxy in zip(
        zones["zone_id"].to_pylist(),
        zones["wkb"].to_pylist(),
        zones["minx"].to_numpy(),
        zones["miny"].to_numpy(),
        zones["maxx"].to_numpy(),
        zones["maxy"].to_numpy(),
    ):
        g = wkb.decode(zwkb)
        is_rect = (
            g.kind == wkb.POLYGON
            and len(g.parts[0]) == 1
            and len(g.parts[0][0]) == 5
            and set(g.parts[0][0][:, 0]) == {minx, maxx}
            and set(g.parts[0][0][:, 1]) == {miny, maxy}
        )
        if is_rect:
            if predicate == "within":
                hit = (lon > minx) & (lon < maxx) & (lat > miny) & (lat < maxy)
            else:
                hit = (lon >= minx) & (lon <= maxx) & (lat >= miny) & (lat <= maxy)
        else:
            hit = pip.points_in_geom(lon, lat, g)
        for i in np.nonzero(hit)[0]:
            out.add((ids[i], zid))
    return out


def test_tile_assignment_passthrough_and_values(docs):
    ds = rd.from_arrow(docs)
    out = tiles_stage.assign_tiles(ds, zooms=(4, 8)).take_all()
    assert len(out) == docs.num_rows
    by_id = {r["doc_id"]: r for r in out}
    lon = docs["lon"].to_numpy()
    lat = docs["lat"].to_numpy()
    tx8, ty8 = geo.lonlat_to_tile(lon, lat, 8)
    for i, did in enumerate(docs["doc_id"].to_pylist()):
        r = by_id[did]
        assert r["tx_8"] == tx8[i] and r["ty_8"] == ty8[i]
        assert r["cell_8"] == tx8[i] * 256 + ty8[i]
        # span-sequence invariant: spans travel unperturbed
        assert [s["kind"] for s in r["spans"]] == [
            s["kind"] for s in docs["spans"][i].as_py()
        ]


@pytest.mark.parametrize("predicate", ["intersects", "within"])
def test_broadcast_join_rect_zones(docs, rect_zones, predicate):
    ds = rd.from_arrow(docs)
    got = {
        (r["doc_id"], r["zone_id"])
        for r in join_stage.broadcast_spatial_join(
            ds, rect_zones, predicate=predicate
        ).take_all()
    }
    assert got == brute_pairs(docs, rect_zones, predicate)
    assert len(got) > 50  # fixture sanity: joins actually happen


def test_broadcast_join_edge_case_polygons(docs):
    zones = synthetic.make_edge_case_zones()
    ds = rd.from_arrow(docs)
    got = {
        (r["doc_id"], r["zone_id"])
        for r in join_stage.broadcast_spatial_join(ds, zones).take_all()
    }
    assert got == brute_pairs(docs, zones, "intersects")


def test_join_over_a_parquet_read_finishes_in_a_4_cpu_session(docs, rect_zones, tmp_path):
    """A broadcast join fed by a parquet read finishes in the 4-CPU test
    session: nothing the join holds may leave the read tasks without CPUs
    (an actor pool of every CPU once left them unscheduled and the run idle
    forever).  The run gets a time limit, so a regression fails here
    instead of hanging the suite."""
    import threading

    import pyarrow.parquet as pq

    pts = docs.select(["doc_id", "lon", "lat"])
    for i in range(4):
        pq.write_table(pts.slice(i * 250, 250), str(tmp_path / f"part{i}.parquet"))
    out = {}

    def run():
        ds = join_stage.broadcast_spatial_join(rd.read_parquet(str(tmp_path)), rect_zones)
        out["pairs"] = {(r["doc_id"], r["zone_id"]) for r in ds.take_all()}

    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(timeout=120)
    assert not worker.is_alive(), "join over a parquet read did not finish"
    assert out["pairs"] == brute_pairs(docs, rect_zones, "intersects")


@pytest.mark.parametrize("predicate", ["intersects", "within"])
def test_zonal_stats_dense_matches_zonal_stats(docs, rect_zones, predicate):
    """The dense zonal aggregate (the join's in-operator reduce, a two-level
    ``merge_block`` tree and the driver fold) gives the table of the
    pair-and-groupby plan on the same points and zones.  Batches of 8 points
    make 125 partials, so each tree level folds more than one of them."""
    from gdal_ray.stages import zonal

    vals = (np.arange(docs.num_rows) * 37) % 1001 - 300
    pts = rd.from_arrow(docs.select(["doc_id", "lon", "lat"]).append_column(
        "n_chars", pa.array(vals.astype(np.int64)))).repartition(4)
    got = zonal.zonal_stats_dense(pts, rect_zones, predicate=predicate, batch_size=8)
    exp = sorted(zonal.zonal_stats(pts, rect_zones, predicate=predicate).take_all(),
                 key=lambda r: r["zone_id"])
    assert len(exp) > 20
    assert got.sort_by("zone_id").to_pylist() == [
        {c: r[c] for c in got.column_names} for r in exp]


@pytest.mark.parametrize("salts", [None, {"_probe": 0}])
def test_partitioned_join_matches_broadcast(docs, rect_zones, salts):
    ds = rd.from_arrow(docs)
    zds = rd.from_arrow(rect_zones)
    if salts is not None:
        salts = join_stage.compute_hot_cells(
            tiles_stage.assign_tiles(ds, zooms=()), res=4, hot_threshold=8, max_salt=4
        )
        assert salts  # with threshold=8 on 1000 docs over 256 cells some cell is hot
    pts = ds.map_batches(tiles_stage.derive_geometry_batch, batch_format="pyarrow")
    got = {
        (r["doc_id"], r["zone_id"])
        for r in join_stage.partitioned_spatial_join(pts, zds, res=4, salts=salts).take_all()
    }
    assert got == brute_pairs(docs, rect_zones, "intersects")


def test_knn_matches_brute(docs, rect_zones):
    cx = (rect_zones["minx"].to_numpy() + rect_zones["maxx"].to_numpy()) / 2.0
    cy = (rect_zones["miny"].to_numpy() + rect_zones["maxy"].to_numpy()) / 2.0
    targets = pa.table(
        {
            "zone_id": rect_zones["zone_id"],
            "zone_key": rect_zones["zone_key"],
            "cx": pa.array(cx),
            "cy": pa.array(cy),
        }
    )
    ds = rd.from_arrow(docs)
    for tree in (False, True):
        rows = knn_stage.knn_join(ds, targets, k=3, tree=tree).take_all()
        got = {(r["doc_id"], r["rank"]): r["zone_id"] for r in rows}
        lon = docs["lon"].to_numpy()
        lat = docs["lat"].to_numpy()
        keys = rect_zones["zone_key"].to_numpy()
        ids = rect_zones["zone_id"].to_pylist()
        for i, did in enumerate(docs["doc_id"].to_pylist()):
            d2 = (lon[i] - cx) * (lon[i] - cx) + (lat[i] - cy) * (lat[i] - cy)
            order = np.lexsort((keys, d2))[:3]
            for rank, j in enumerate(order, start=1):
                assert got[(did, rank)] == ids[j], (did, rank, tree)


def test_left_join_broadcast_nulls():
    import pyarrow as pa

    import ray.data as rd

    from gdal_ray.stages import relational

    probe = pa.table({"k": [1, 2, 3, 4]})
    small = pa.table({"sk": [2, 4], "v": [20, 40]})
    out = {r["k"]: r["v"] for r in relational.hash_join_broadcast_left(
        rd.from_arrow(probe), small, key="k", small_key="sk", emit=["v"]
    ).take_all()}
    assert out == {1: None, 2: 20, 3: None, 4: 40}
    # empty build side: all nulls, all probe rows survive
    empty = pa.table({"sk": pa.array([], pa.int64()), "v": pa.array([], pa.int64())})
    out2 = relational.hash_join_broadcast_left(
        rd.from_arrow(probe), empty, key="k", small_key="sk", emit=["v"]
    ).take_all()
    assert len(out2) == 4 and all(r["v"] is None for r in out2)


def test_semi_anti_join_partitioned(ray_session):
    """Semi keeps exactly the keyed probe rows; anti the complement;
    duplicate build keys don't duplicate probe rows; empty build side ->
    semi empty / anti everything (schema preserved)."""
    import ray.data as rd

    from gdal_ray.stages import relational

    probe = rd.from_arrow(pa.table({
        "k": pa.array([1, 2, 3, 4, 5, 6], pa.int64()),
        "v": pa.array(list("abcdef"))}))
    build = rd.from_arrow(pa.table({
        "bk": pa.array([2, 2, 2, 5, 99], pa.int64())}))
    semi = relational.semi_anti_join_partitioned(probe, build, "k", "bk")
    got = sorted(r["k"] for r in semi.take_all())
    assert got == [2, 5]
    anti = relational.semi_anti_join_partitioned(probe, build, "k", "bk", anti=True)
    rows = sorted(anti.take_all(), key=lambda r: r["k"])
    assert [r["k"] for r in rows] == [1, 3, 4, 6]
    assert [r["v"] for r in rows] == ["a", "c", "d", "f"]

    empty = rd.from_arrow(pa.table({"bk": pa.array([], pa.int64())}))
    assert relational.semi_anti_join_partitioned(probe, empty, "k", "bk").count() == 0
    assert relational.semi_anti_join_partitioned(
        probe, empty, "k", "bk", anti=True).count() == 6


def test_lag_lead_gaps_ties_and_edges(ray_session):
    """Gap ordering contract (ts, event_id); single-event users get -1/-1;
    simultaneous events produce 0 gaps."""
    import pandas as pd
    import ray.data as rd

    from gdal_ray.stages import events as ev_stage

    t0 = pd.Timestamp("2024-01-01")
    tbl = pa.table({
        "event_id": pa.array([1, 2, 3, 4, 5], pa.int64()),
        "user_id": pa.array([7, 7, 7, 8, 9], pa.int64()),
        "ts": pa.array([t0, t0, t0 + pd.Timedelta(seconds=10), t0, t0 + pd.Timedelta(seconds=3)]),
    })
    out = {r["event_id"]: r for r in ev_stage.lag_lead_gaps(rd.from_arrow(tbl)).take_all()}
    assert (out[1]["gap_prev_s"], out[1]["gap_next_s"]) == (-1, 0)
    assert (out[2]["gap_prev_s"], out[2]["gap_next_s"]) == (0, 10)
    assert (out[3]["gap_prev_s"], out[3]["gap_next_s"]) == (10, -1)
    assert (out[4]["gap_prev_s"], out[4]["gap_next_s"]) == (-1, -1)
    assert (out[5]["gap_prev_s"], out[5]["gap_next_s"]) == (-1, -1)


def test_dwithin_radius_join_matches_brute(ray_session):
    import ray.data as rd

    from gdal_ray.stages import knn as knn_stage

    rng = np.random.default_rng(11)
    n, m = 400, 37
    px, py = rng.uniform(-10, 10, n), rng.uniform(-10, 10, n)
    cx, cy = rng.uniform(-10, 10, m), rng.uniform(-10, 10, m)
    pts = rd.from_arrow(pa.table({
        "doc_id": pa.array(np.arange(n), pa.int64()),
        "lon": pa.array(px), "lat": pa.array(py)}))
    targets = pa.table({"zone_key": pa.array(np.arange(m), pa.int64()),
                        "cx": pa.array(cx), "cy": pa.array(cy)})
    out = knn_stage.dwithin_join(pts, targets, radius=2.0).take_all()
    got = {(r["doc_id"], r["zone_key"]) for r in out}
    d2 = (px[:, None] - cx[None, :]) ** 2 + (py[:, None] - cy[None, :]) ** 2
    expect = {(int(i), int(j)) for i, j in zip(*np.nonzero(d2 <= 4.0))}
    assert got == expect


def test_quad_cell_cover_partition_invariant(ray_session):
    """Cover cells are a PARTITION of the zone's z8 footprint: every z8 cell
    intersecting the rect descends from exactly one emitted cover cell, and
    'contained' cells lie fully inside the rect."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from gdal_ray.sources import synthetic
    from gdal_ray.stages import tiles

    keys = np.array([3, 17, 999, 424242], dtype=np.int64)
    zones = rd.from_arrow(synthetic.make_rect_zones(keys).select(
        ["zone_key", "minx", "miny", "maxx", "maxy"]))
    out = tiles.quad_cell_cover(zones, max_level=8).take_all()
    rects = dict(zip(keys.tolist(), zip(*synthetic.zone_rects_from_keys(keys))))

    def fx(lon):
        return min(max((lon + 180.0) / 360.0, 0.0), 1.0)

    def fy(lat):
        v = (1.0 - np.log(np.tan(np.radians(lat))
                          + 1.0 / np.cos(np.radians(lat))) / np.pi) / 2.0
        return min(max(v, 0.0), 1.0)

    for k in keys.tolist():
        minx, miny, maxx, maxy = rects[k]
        fx0, fx1, fy0, fy1 = fx(minx), fx(maxx), fy(maxy), fy(miny)
        cells = [(r["z"], r["x"], r["y"], r["contained"]) for r in out
                 if r["zone_key"] == k]
        # every z8 cell intersecting the rect -> exactly one covering ancestor
        s8 = 256.0
        x8lo, x8hi = int(np.floor(fx0 * s8)), int(np.ceil(fx1 * s8))
        y8lo, y8hi = int(np.floor(fy0 * s8)), int(np.ceil(fy1 * s8))
        by_anc = {(z, x, y) for z, x, y, _ in cells}
        for x in range(x8lo, x8hi):
            for y in range(y8lo, y8hi):
                if not (x + 1 > fx0 * s8 and x < fx1 * s8
                        and y + 1 > fy0 * s8 and y < fy1 * s8):
                    continue
                ancs = [(z, x >> (8 - z), y >> (8 - z)) for z in range(9)]
                hits = [a for a in ancs if a in by_anc]
                assert len(hits) == 1, (k, x, y, hits)
        for z, x, y, cont in cells:
            if cont:
                s = float(1 << z)
                assert x >= fx0 * s and x + 1 <= fx1 * s
                assert y >= fy0 * s and y + 1 <= fy1 * s
