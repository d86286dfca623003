"""Regression tests for the round-1 code-review findings."""

import numpy as np
import pyarrow as pa
import ray.data as rd

from gdal_ray.functions import wkb
from gdal_ray.sources import synthetic
from gdal_ray.stages import contour as contour_stage
from gdal_ray.stages import polygonize as poly_stage
from gdal_ray.stages.join import _ZoneIndex
from tests.test_raster import _brute_ccl


def test_trace_boundary_diagonal_pinch_terminates():
    """Diagonal pinch used to hang forever (edges dict overwrote one of two
    outgoing edges at the pinch vertex)."""
    m = np.zeros((4, 5), dtype=bool)
    for (y, x) in [(1, 1), (0, 1), (0, 2), (0, 3), (1, 3), (2, 3), (2, 2)]:
        m[y, x] = True
    ring = poly_stage.trace_boundary(m)
    # shell encloses the 1-pixel pinch hole: area 8 for 7 pixels
    assert abs(wkb.ring_area(ring)) == 8.0
    # corner-touching squares (8-conn component) -> one shell over both
    m2 = np.zeros((6, 6), dtype=bool)
    m2[0:2, 0:2] = True
    m2[2:4, 2:4] = True
    assert abs(wkb.ring_area(poly_stage.trace_boundary(m2))) == 8.0


def test_sieve_never_merges_into_nodata():
    size = 16
    arr = np.zeros((size, size), dtype=np.uint8)  # nodata=0 background
    arr[5:8, 5:8] = 5
    arr[6, 8] = 7  # small value-7 speck: neighbors are mostly nodata + one 5
    t = pa.Table.from_pylist([{
        "z": 0, "x": 0, "y": 0, "band": 1, "width": size, "height": size,
        "crs": "EPSG:3857", "nodata": 0.0, "dtype": "uint8", "data": arr.tobytes(),
    }])
    out = contour_stage.sieve(rd.from_arrow(t), threshold=2, nodata=0.0).take_all()
    got = np.frombuffer(out[0]["data"], dtype=np.uint8).reshape(size, size)
    assert got[6, 8] == 5  # merged into the valid neighbor, NOT nodata


def test_polygonize_connect8_cross_tile_diagonal():
    """8-conn components joined only diagonally across a tile border (and
    across the 4-tile corner) must merge."""
    size = 8
    arr = np.zeros((16, 16), dtype=np.uint8)
    arr[7, 7] = 3            # NW tile bottom-right
    arr[8, 8] = 3            # SE tile top-left (4-corner diagonal)
    arr[3, 7] = 9            # NW tile right edge row 3
    arr[4, 8] = 9            # NE tile left edge row 4 (diagonal across V edge)
    rows = []
    for ty in range(2):
        for tx in range(2):
            rows.append({
                "z": 0, "x": tx, "y": ty, "band": 1, "width": size, "height": size,
                "crs": "EPSG:3857", "nodata": 0.0, "dtype": "uint8",
                "data": np.ascontiguousarray(
                    arr[ty * size : (ty + 1) * size, tx * size : (tx + 1) * size]).tobytes()})
    tiles = pa.Table.from_pylist(rows)
    out = poly_stage.polygonize(rd.from_arrow(tiles), nodata=0.0, connect8=True,
                                tile_size=size).to_pandas()
    expect = _brute_ccl(arr, connect8=True)
    assert len(out) == len(expect) == 2
    assert sorted(zip(out["value"], out["n_pixels"])) == sorted(
        (v, n) for v, n in expect
    )
    # 4-connectivity still splits them
    out4 = poly_stage.polygonize(rd.from_arrow(tiles), nodata=0.0, connect8=False,
                                 tile_size=size).to_pandas()
    assert len(out4) == 4


def test_zone_index_empty_probe():
    zones = synthetic.make_rect_zones(np.arange(1, 50))
    zi = _ZoneIndex(zones)
    r, z = zi.probe_points(np.array([]), np.array([]), "intersects")
    assert r.size == 0 and z.size == 0


def test_knn_tree_tie_break_mass_ties():
    """More than k+8 equidistant targets: tree path must still pick the
    lowest keys (was diverging from the brute path)."""
    import ray.data as rd

    from gdal_ray.stages import knn as knn_stage

    n = 24
    targets = pa.table(
        {
            "zone_id": pa.array([f"z{i}" for i in range(n)]),
            # keys DESCENDING vs index so index-order != key-order
            "zone_key": pa.array(np.arange(n, dtype=np.int64)[::-1].copy()),
            "cx": pa.array(np.full(n, 5.0)),
            "cy": pa.array(np.full(n, 5.0)),
        }
    )
    pts = pa.table({"doc_id": pa.array([1], pa.int64()),
                    "lon": pa.array([0.0]), "lat": pa.array([0.0])})
    ds = rd.from_arrow(pts)
    for tree in (False, True):
        rows = knn_stage.knn_join(ds, targets, k=3, tree=tree).take_all()
        got = sorted((r["rank"], r["zone_id"]) for r in rows)
        # lowest keys 0,1,2 belong to zone_ids z23, z22, z21
        assert got == [(1, "z23"), (2, "z22"), (3, "z21")], (tree, got)


def test_sliding_window_non_divisible_step():
    """window=5s step=2s: event at sec=4 belongs to windows {0,1,2}."""
    import pandas as pd

    from gdal_ray.stages import events as ev

    t = pa.table(
        {
            "event_type": pa.array(["a"]),
            "ts": pa.array(pd.to_datetime(["1970-01-01 00:00:04"])),
        }
    )
    rows = ev.sliding_window(rd.from_arrow(t), window_s=5, step_s=2).to_pandas()
    assert sorted(rows["window_id"]) == [0, 1, 2]
    assert (rows["n_events"] == 1).all()


def test_hash_join_empty_build_side():
    from gdal_ray.stages import relational

    small = pa.table({"k": pa.array([], pa.int64()), "v": pa.array([], pa.string())})
    probe = pa.table({"k": pa.array([1, 2, 3], pa.int64())})
    out = relational.hash_join_broadcast(
        rd.from_arrow(probe), small, key="k", small_key="k", emit=["v"]
    ).take_all()
    assert out == []


def test_asof_join_no_duplicate_by_column():
    import pandas as pd

    from gdal_ray.stages import events as ev

    ev_t = pa.table(
        {
            "event_id": pa.array([1], pa.int64()),
            "user_id": pa.array([7], pa.int64()),
            "ts": pa.array(pd.to_datetime(["2024-01-02"])),
        }
    )
    right = pa.table(
        {
            "o_custkey": pa.array([7], pa.int64()),
            "o_orderdate": pa.array(pd.to_datetime(["2024-01-01"])),
            "o_orderkey": pa.array([99], pa.int64()),
        }
    )
    rows = ev.asof_join(rd.from_arrow(ev_t), right).take_all()
    assert len(rows) == 1
    assert "o_custkey" not in rows[0]
    assert rows[0]["o_orderkey"] == 99


def test_simhash_injective_high_bit():
    from gdal_ray.stages import textops

    # shingle sets engineered so votes set bit 63: single shingle with top bit
    s_hi = np.array([1 << 63], dtype=np.uint64)
    s_lo = np.array([1], dtype=np.uint64)
    h_hi = textops.simhash64(s_hi)
    h_lo = textops.simhash64(s_lo)
    assert h_hi != h_lo
    assert h_hi < 0  # two's-complement wrap, not bit-63 truncation


def test_minhash_num_perm_above_cap():
    from gdal_ray.stages import textops

    sh = textops._shingle_hashes("the quick brown fox jumps over the lazy dog", 3)
    sig64 = textops.minhash_signature(sh, 64)
    sig300 = textops.minhash_signature(sh, 300)
    assert len(sig300) == 300
    assert (sig300[:64] == sig64).all()  # prefix stability across cap growth


def test_lsh_band_hash_uses_full_band():
    """Band buckets must require the WHOLE band to match (jaccard^r), so two
    texts sharing only a few shingles produce mostly-different band hashes."""
    from gdal_ray.stages import dedup

    docs = pa.table(
        {
            "doc_id": pa.array([1, 2], pa.int64()),
            "text": pa.array(
                ["alpha beta gamma delta epsilon zeta eta theta iota kappa",
                 "alpha beta gamma NOPE different words entirely here kappa xi"]
            ),
        }
    )
    cands = dedup.minhash_lsh_candidates(
        rd.from_arrow(docs), num_perm=64, bands=16, shingle_k=2
    ).take_all()
    # weakly-similar texts should produce few/no full-band collisions
    assert len(cands) <= 2


def test_mosaic_multiband_separate():
    from gdal_ray.stages import rastermap

    size = 8
    rows = []
    for band in (1, 2):
        arr = np.full((size, size), band * 10, dtype=np.uint8)
        rows.append({"z": 0, "x": 0, "y": 0, "band": band, "width": size, "height": size,
                     "crs": "EPSG:3857", "nodata": 0.0, "dtype": "uint8",
                     "data": arr.tobytes()})
    layer = pa.Table.from_pylist(rows)
    out = rastermap.mosaic([rd.from_arrow(layer)], nodata=0.0).take_all()
    assert len(out) == 2  # one composed tile PER band
    vals = sorted(np.frombuffer(r["data"], np.float32)[0] for r in out)
    assert vals == [10.0, 20.0]


def test_build_overview_missing_quadrant_nodata():
    from gdal_ray.stages import pyramid as pyr

    n = 128
    gy, gx = np.mgrid[0:n, 0:n]
    src = pyr.SourceRaster((gx + gy).astype(np.float64) + 1.0,
                           (-30.0, 60.0 / n, 0.0, 30.0, 0.0, -60.0 / n), nodata=-9999.0)
    base = pyr.warp_to_tiles(src, 4, (-29, -29, 29, 29), tile_px=32,
                             skip_blank=False)
    over = pyr.build_overview(base).take_all()
    for r in over:
        arr = np.frombuffer(r["data"], np.float64).reshape(32, 32)
        # any quadrant without a child must be nodata, never fabricated zeros
        assert not ((arr == 0.0) & (arr != -9999.0)).any() or (arr == 0.0).sum() == 0
        assert r["dtype"] == "float64" and r["nodata"] == -9999.0


def test_geom_intersects_line_through_polygon():
    from gdal_ray.functions import pip as P

    poly = wkb.decode(wkb.encode_polygon(
        [np.array([[0, 0], [10, 0], [10, 10], [0, 10], [0, 0]], float)]))
    crossing = wkb.decode(wkb.encode_linestring(np.array([[-5, 5], [15, 5]], float)))
    missing = wkb.decode(wkb.encode_linestring(np.array([[-5, 20], [15, 20]], float)))
    assert P.geom_intersects(poly, crossing)       # all vertices outside
    assert P.geom_intersects(crossing, poly)
    assert not P.geom_intersects(poly, missing)
    # line-line
    l2 = wkb.decode(wkb.encode_linestring(np.array([[5, -5], [5, 15]], float)))
    assert P.geom_intersects(crossing, l2)


def test_wkb_ewkb_srid_and_zm_rejection():
    import struct

    # EWKB point with SRID flag: type 0x20000001, srid 4326, coords (3, 4)
    ewkb = b"\x01" + struct.pack("<IIdd", 0x20000001, 4326, 3.0, 4.0)
    g = wkb.decode(ewkb)
    assert g.vertices()[0].tolist() == [3.0, 4.0]
    # ISO Z point (type 1001) must raise, not silently misparse
    zwkb = b"\x01" + struct.pack("<Iddd", 1001, 1.0, 2.0, 3.0)
    import pytest as _pt

    with _pt.raises(ValueError):
        wkb.decode(zwkb)


def test_doc_id_key_roundtrip_above_1e9():
    keys = np.array([0, 123, 999_999_999, 1_000_000_000, 123_456_789_012], dtype=np.int64)
    ids = synthetic.doc_key_to_id(keys)
    back = synthetic.doc_id_to_key(ids)
    assert (back == keys).all()


def test_lsh_bucket_pairs_exact_beyond_chunk():
    """Oversized LSH buckets must emit EVERY pair (chunked, not truncated):
    600 mutual near-dups in one bucket -> C(600,2) candidate pairs."""
    from gdal_ray.stages import dedup

    n = 600
    texts = [f"the common boilerplate text block shared by all docs {i % 3}"
             for i in range(n)]
    t = pa.table({"doc_id": pa.array(np.arange(n), pa.int64()), "text": texts})
    cands = dedup.minhash_lsh_candidates(rd.from_arrow(t)).take_all()
    pairs = {(r["id_a"], r["id_b"]) for r in cands}
    # docs with identical text (same i%3 class) are guaranteed same-bucket in
    # EVERY band; cross-class pairs may or may not collide.  All 3 classes
    # have 200 members -> at least 3 * C(200,2) distinct pairs
    import itertools
    for cls in range(3):
        ids = [i for i in range(n) if i % 3 == cls]
        expect = {(a, b) for a, b in itertools.combinations(ids, 2)}
        assert expect <= pairs, f"class {cls}: missing {len(expect - pairs)} pairs"


def test_duplicated_spans_crafted(ray_session):
    """Known cross-doc and within-doc duplicated substrings produce exactly
    the expected maximal spans (k=16)."""
    import pyarrow as pa
    import ray.data as rd

    from gdal_ray.stages import dedup

    shared = "the boilerplate header text!"  # 28 chars -> spans whole prefix
    docs = [
        (0, shared + " unique tail zero zero"),
        (1, shared + " different ending one"),
        (2, "totally unique document body with no repeats at all"),
        (3, "xyxyxyxyxyxyxyxyxyxyxyxyxyxyxyxy"),  # self-repeating 32 chars
    ]
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array([d[0] for d in docs]),
        "text": pa.array([d[1] for d in docs]),
    }))
    rows = dedup.duplicated_spans(ds).take_all()
    by_doc = {}
    for r in rows:
        by_doc.setdefault(r["doc_id"], []).append((r["span_start"], r["span_len"]))
    # docs 0 and 1 share a 29-char prefix (the header + the following
    # space): every 16-gram in [0, 13] dups -> one maximal span [0, 29)
    assert by_doc[0] == [(0, 29)]
    assert by_doc[1] == [(0, 29)]
    assert 2 not in by_doc
    # doc 3: "xy"*16 — gram at pos p equals gram at p+2 -> all positions dup
    assert by_doc[3] == [(0, 32)]


def test_duplicated_spans_hash_mode_matches_exact(ray_session):
    """key_mode='hash' (the 100 TB exchange plan) produces the same spans as
    the exact gram keys on the crafted fixture."""
    import pyarrow as pa
    import ray.data as rd

    from gdal_ray.stages import dedup

    shared = "the boilerplate header text!"
    docs = [(0, shared + " unique tail zero zero"),
            (1, shared + " different ending one"),
            (2, "totally unique document body with no repeats at all"),
            (3, "xyxyxyxyxyxyxyxyxyxyxyxyxyxyxyxy")]
    t = pa.table({"doc_id": pa.array([d[0] for d in docs]),
                  "text": pa.array([d[1] for d in docs])})
    exact = sorted((r["doc_id"], r["span_start"], r["span_len"]) for r in
                   dedup.duplicated_spans(rd.from_arrow(t)).take_all())
    hashed = sorted((r["doc_id"], r["span_start"], r["span_len"]) for r in
                    dedup.duplicated_spans(rd.from_arrow(t),
                                           key_mode="hash").take_all())
    assert exact == hashed and len(exact) == 3


def test_rasterize_seed_all_tiles_sparse(ray_session):
    """A feature set leaving grid tiles untouched must still emit those
    tiles (all-nodata) when seed_all_tiles is on — the gdal_rasterize -i
    contract (-i burns exactly the uncovered pixels of the FULL extent)."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from gdal_ray.functions import wkb as wkbf
    from gdal_ray.stages import rasterize as rast

    # one small polygon in the top-left tile of a 2x2-tile grid
    ring = np.array([[1.0, -1.0], [3.0, -1.0], [3.0, -3.0], [1.0, -3.0],
                     [1.0, -1.0]])
    feats = pa.table({
        "feat_id": pa.array([1], pa.int64()),
        "wkb": pa.array([wkbf.encode_polygon([ring])], pa.binary()),
        "burn_value": pa.array([5.0]),
    })
    grid = rast.GridSpec(gt=(0.0, 1.0, 0.0, 0.0, 0.0, -1.0),
                         width=20, height=20, tile=10)
    sparse = rast.rasterize(rd.from_arrow(feats), grid).take_all()
    assert len(sparse) == 1  # default: only the touched tile
    seeded = rast.rasterize(rd.from_arrow(feats), grid,
                            seed_all_tiles=True).take_all()
    assert len(seeded) == 4
    by_tile = {(r["tx"], r["ty"]): r for r in seeded}
    arr = np.frombuffer(by_tile[(1, 1)]["data"], np.float64)
    assert (arr == grid.nodata).all()  # untouched tile = all nodata
    assert np.frombuffer(by_tile[(0, 0)]["data"], np.float64).max() == 5.0


def test_mvt_parser_concatenates_split_packed_fields():
    """Spec-valid tiles may split a packed repeated field over multiple
    occurrences of the same field number; the parser must concatenate."""
    import numpy as np

    from gdal_ray.sources import mvt

    blob = mvt.encode_point_layer(
        "l", np.array([1]), np.array([7]), np.array([9]),
        {"a": np.array([3], dtype=np.int64)})
    (layer,) = mvt.parse_tile(blob)
    f = layer["features"][0]
    # re-encode the feature with the geometry command stream split in two
    geom = (mvt._varint(mvt.MOVETO | (1 << 3)) + mvt._varint(mvt._zigzag(7))
            + mvt._varint(mvt._zigzag(9)))
    body = (mvt._tag(1, 0) + mvt._varint(1)
            + mvt._len_delim(2, mvt._varint(0) + mvt._varint(0))
            + mvt._tag(3, 0) + mvt._varint(mvt.POINT)
            + mvt._len_delim(4, geom[:1]) + mvt._len_delim(4, geom[1:]))
    split_layer = (mvt._tag(15, 0) + mvt._varint(2)
                   + mvt._len_delim(1, b"l") + mvt._len_delim(2, body)
                   + mvt._len_delim(3, b"a")
                   + mvt._len_delim(4, mvt.encode_value(3))
                   + mvt._tag(5, 0) + mvt._varint(4096))
    (layer2,) = mvt.parse_tile(mvt._len_delim(3, split_layer))
    f2 = layer2["features"][0]
    assert f2["points"] == f["points"] == [(7, 9)]
    assert f2["attrs"] == {"a": 3}
