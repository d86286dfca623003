"""Raster operator tests: rasterize / polygonize / warp+pyramid / checksum.

Oracles: brute-force pixel-center PIP for rasterize (independent of the
scanline code), BFS connected components over the assembled mosaic for
polygonize, closed-form expectations for warp — mirroring autotest style
(rasterize fixture = the literal autotest/alg/rasterize.py geometry/grid).
"""

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

from gdal_ray.functions import checksum as cks
from gdal_ray.functions import geo, pip, wkb
from gdal_ray.sources import synthetic
from gdal_ray.stages import polygonize as poly_stage
from gdal_ray.stages import pyramid as pyr_stage
from gdal_ray.stages import rasterize as rast_stage


def test_checksum_composability():
    rng = np.random.default_rng(2)
    full = rng.integers(0, 255, (128, 128)).astype(np.uint8)
    whole = cks.tile_checksum(full, 0, 0, 128)
    parts = []
    for ty in range(2):
        for tx in range(2):
            t = full[ty * 64 : (ty + 1) * 64, tx * 64 : (tx + 1) * 64]
            parts.append(cks.tile_checksum(t, tx * 64, ty * 64, 128))
    assert cks.combine_checksums(parts) == whole


def _autotest_features():
    """The literal autotest/alg/rasterize.py fixtures."""
    poly = wkb.encode_polygon(
        [np.array([[1020, 1030], [1020, 1045], [1050, 1045], [1050, 1030], [1020, 1030]], float)]
    )
    line = wkb.encode_linestring(np.array([[1005, 1000], [1095, 1090]], float))
    return pa.table(
        {
            "feat_id": pa.array([1, 2], pa.int64()),
            "wkb": pa.array([poly, line], pa.binary()),
            "burn_value": pa.array([80.0, 40.0]),
        }
    )


GRID = rast_stage.GridSpec(gt=(1000, 1, 0, 1100, 0, -1), width=100, height=100, tile=100)
GRID_TILED = rast_stage.GridSpec(gt=(1000, 1, 0, 1100, 0, -1), width=100, height=100, tile=32)


def _brute_polygon_burn():
    """Pixel-center oracle for the autotest polygon."""
    g = wkb.decode(_autotest_features()["wkb"][0].as_py())
    out = np.zeros((100, 100), dtype=bool)
    cols, rows = np.meshgrid(np.arange(100), np.arange(100))
    cx = 1000 + (cols + 0.5) * 1.0
    cy = 1100 + (rows + 0.5) * -1.0
    return pip.points_in_geom(cx.ravel(), cy.ravel(), g).reshape(100, 100)


def test_rasterize_polygon_matches_center_oracle():
    feats = _autotest_features().slice(0, 1)
    tiles = rast_stage.rasterize(rd.from_arrow(feats), GRID)
    arr = rast_stage.assemble_array(tiles, GRID)
    expect = _brute_polygon_burn()
    got = arr == 80.0
    assert (got == expect).all()
    assert expect.sum() == 30 * 15  # 30 cols x 15 rows for this rectangle


def test_rasterize_tiled_equals_single_tile():
    feats = _autotest_features()
    a1 = rast_stage.assemble_array(rast_stage.rasterize(rd.from_arrow(feats), GRID), GRID)
    a2 = rast_stage.assemble_array(
        rast_stage.rasterize(rd.from_arrow(feats), GRID_TILED), GRID_TILED
    )
    assert (a1 == a2).all()
    # line burn: every pixel along the diagonal segment is touched
    assert (a1 == 40.0).sum() >= 90


def test_rasterize_add_merge():
    f = _autotest_features().slice(0, 1)
    two = pa.concat_tables([f, f.set_column(0, "feat_id", pa.array([7], pa.int64()))])
    tiles = rast_stage.rasterize(rd.from_arrow(two), GRID, merge_alg="add")
    arr = rast_stage.assemble_array(tiles, GRID)
    assert arr.max() == 160.0
    assert (arr == 160.0).sum() == 30 * 15


def test_rasterize_polygon_with_hole():
    shell = np.array([[1010, 1010], [1010, 1060], [1060, 1060], [1060, 1010], [1010, 1010]], float)
    hole = np.array([[1030, 1030], [1030, 1040], [1040, 1040], [1040, 1030], [1030, 1030]], float)
    feats = pa.table(
        {
            "feat_id": pa.array([1], pa.int64()),
            "wkb": pa.array([wkb.encode_polygon([shell, hole])], pa.binary()),
            "burn_value": pa.array([5.0]),
        }
    )
    arr = rast_stage.assemble_array(rast_stage.rasterize(rd.from_arrow(feats), GRID_TILED), GRID_TILED)
    assert (arr == 5.0).sum() == 50 * 50 - 10 * 10


# -- polygonize --------------------------------------------------------------


def _assemble_tiles(table: pa.Table, size: int):
    nx = max(table["x"].to_pylist()) + 1
    ny = max(table["y"].to_pylist()) + 1
    full = np.zeros((ny * size, nx * size))
    for i in range(table.num_rows):
        dt = np.float32 if table["dtype"][i].as_py() == "float32" else np.uint8
        arr = np.frombuffer(table["data"][i].as_py(), dtype=dt).reshape(size, size)
        x, y = table["x"][i].as_py(), table["y"][i].as_py()
        full[y * size : (y + 1) * size, x * size : (x + 1) * size] = arr
    return full


def _brute_ccl(full: np.ndarray, nodata=0.0, connect8=False):
    """Independent BFS connected-components oracle."""
    h, w = full.shape
    seen = np.zeros((h, w), dtype=bool)
    comps = []
    nbrs = [(-1, 0), (1, 0), (0, -1), (0, 1)]
    if connect8:
        nbrs += [(-1, -1), (-1, 1), (1, -1), (1, 1)]
    for sy in range(h):
        for sx in range(w):
            if seen[sy, sx] or full[sy, sx] == nodata:
                continue
            v = full[sy, sx]
            stack = [(sy, sx)]
            seen[sy, sx] = True
            count = 0
            while stack:
                y, x = stack.pop()
                count += 1
                for dy, dx in nbrs:
                    yy, xx = y + dy, x + dx
                    if 0 <= yy < h and 0 <= xx < w and not seen[yy, xx] and full[yy, xx] == v:
                        seen[yy, xx] = True
                        stack.append((yy, xx))
            comps.append((v, count))
    return comps


@pytest.mark.parametrize("kind", ["blobs", "checker"])
def test_polygonize_matches_bfs_oracle(kind):
    size = 32
    tiles = synthetic.make_raster_tiles(kind, 2, 2, size=size)
    full = _assemble_tiles(tiles, size)
    out = poly_stage.polygonize(rd.from_arrow(tiles), nodata=0.0, tile_size=size).to_pandas()
    # checker: value-255 squares; blobs: discs possibly crossing tile borders
    expect = sorted(_brute_ccl(full))
    got = sorted(zip(out["value"], out["n_pixels"]))
    assert len(got) == len(expect)
    assert [(v, int(n)) for v, n in got] == [(v, int(n)) for v, n in expect]


def test_polygonize_cross_border_component_merged():
    # one disc centered on the shared corner of 4 tiles
    size = 32
    arr = np.zeros((64, 64), dtype=np.uint8)
    gy, gx = np.mgrid[0:64, 0:64]
    arr[(gx - 32) ** 2 + (gy - 32) ** 2 <= 100] = 9
    rows = []
    for ty in range(2):
        for tx in range(2):
            rows.append(
                {
                    "z": 4, "x": tx, "y": ty, "band": 1, "width": size, "height": size,
                    "crs": "EPSG:3857", "nodata": 0.0, "dtype": "uint8",
                    "data": arr[ty * size : (ty + 1) * size, tx * size : (tx + 1) * size].tobytes(),
                }
            )
    tiles = pa.Table.from_pylist(rows)
    out = poly_stage.polygonize(rd.from_arrow(tiles), nodata=0.0, tile_size=size).to_pandas()
    assert len(out) == 1
    assert int(out["n_pixels"][0]) == int((arr == 9).sum())
    assert int(out["n_fragments"][0]) == 4


def test_label_tile_vs_oracle_random():
    rng = np.random.default_rng(8)
    arr = rng.integers(0, 3, (40, 40)).astype(np.uint8)
    labels, n = poly_stage.label_tile(arr, 0)
    expect = _brute_ccl(arr)
    assert n == len(expect)
    # per-label pixel counts match as a multiset
    counts = sorted(np.bincount(labels[labels >= 0]).tolist())
    assert counts == sorted(c for _, c in expect)


def test_trace_boundary_square():
    m = np.zeros((8, 8), dtype=bool)
    m[2:5, 3:6] = True
    ring = poly_stage.trace_boundary(m)
    assert abs(wkb.ring_area(ring)) == 9.0


# -- warp / pyramid ----------------------------------------------------------


def _ramp_source(n=512):
    # EPSG:4326 raster covering [-45, 45] x [-45, 45], value = gx + gy
    gy, gx = np.mgrid[0:n, 0:n]
    arr = (gx + gy).astype(np.float64) + 1.0  # +1: keep 0 = nodata distinct
    gt = (-45.0, 90.0 / n, 0.0, 45.0, 0.0, -90.0 / n)
    return pyr_stage.SourceRaster(arr, gt)


def test_warp_nearest_matches_pointwise_oracle():
    src = _ramp_source()
    z = 3
    out = pyr_stage.warp_to_tiles(src, z, (-44, -44, 44, 44), tile_px=64)
    rows = out.take_all()
    assert rows
    inv = geo.inv_geotransform(src.gt)
    for r in rows[:3]:
        arr = np.frombuffer(r["data"], dtype=np.float64).reshape(64, 64)
        minx, miny, maxx, maxy = geo.tile_bounds_mercator(
            z, np.array([r["x"]]), np.array([r["y"]])
        )
        res = (maxx[0] - minx[0]) / 64
        # check a few sample pixels against the scalar closed form
        for py_, px_ in [(0, 0), (31, 17), (63, 63)]:
            mx = minx[0] + (px_ + 0.5) * res
            my = maxy[0] - (py_ + 0.5) * res
            lon, lat = geo.mercator_to_lonlat(np.array([mx]), np.array([my]))
            sx, sy = geo.apply_geotransform(inv, lon, lat)
            cx, cy = int(np.floor(sx[0])), int(np.floor(sy[0]))
            if 0 <= cx < 512 and 0 <= cy < 512:
                assert arr[py_, px_] == src.arr[cy, cx]


def test_warp_bilinear_close_to_nearest_on_smooth_ramp():
    src = _ramp_source()
    z = 3
    near = pyr_stage.warp_to_tiles(src, z, (-40, -40, 40, 40), tile_px=32,
                                   resample="nearest").take_all()
    bil = pyr_stage.warp_to_tiles(src, z, (-40, -40, 40, 40), tile_px=32,
                                  resample="bilinear").take_all()
    nb = {(r["x"], r["y"]): np.frombuffer(r["data"], np.float64) for r in near}
    for r in bil:
        a = np.frombuffer(r["data"], np.float64)
        b = nb[(r["x"], r["y"])]
        m = (a != 0) & (b != 0)
        assert m.any()
        assert np.abs(a[m] - b[m]).max() <= 2.0 + 1e-9  # ramp slope bound


def test_pyramid_overview_reduction():
    src = _ramp_source()
    pyr = pyr_stage.tile_pyramid(src, z_max=3, z_min=2, bbox=(-44, -44, 44, 44),
                                 tile_px=64)
    base = {(r["x"], r["y"]): np.frombuffer(r["data"], np.float64).reshape(64, 64)
            for r in pyr[3].take_all()}
    over = pyr[2].take_all()
    assert over
    for r in over:
        arr = np.frombuffer(r["data"], np.float64).reshape(64, 64)
        for (cx, cy), child in base.items():
            if cx // 2 == r["x"] and cy // 2 == r["y"]:
                small = child.reshape(32, 2, 32, 2).mean(axis=(1, 3))
                ox, oy = (cx % 2) * 32, (cy % 2) * 32
                assert np.allclose(arr[oy : oy + 32, ox : ox + 32], small)


def test_polygonize_rings_cross_tile():
    """Rings for cross-tile components: tiled ring equals the monolithic
    trace of the same component."""
    size = 32
    arr = np.zeros((64, 64), dtype=np.uint8)
    gy, gx = np.mgrid[0:64, 0:64]
    arr[(gx - 32) ** 2 + (gy - 32) ** 2 <= 150] = 5   # disc over 4 tiles
    arr[5:9, 5:9] = 7                                  # small single-tile square
    rows = []
    for ty in range(2):
        for tx in range(2):
            rows.append(
                {"z": 0, "x": tx, "y": ty, "band": 1, "width": size, "height": size,
                 "crs": "EPSG:3857", "nodata": 0.0, "dtype": "uint8",
                 "data": np.ascontiguousarray(
                     arr[ty * size : (ty + 1) * size, tx * size : (tx + 1) * size]).tobytes()}
            )
    tiles = pa.Table.from_pylist(rows)
    out = poly_stage.polygonize_rings(rd.from_arrow(tiles), nodata=0.0, tile_size=size).take_all()
    assert len(out) == 2
    by_val = {r["value"]: r for r in out}
    assert by_val[5.0]["n_pixels"] == int((arr == 5).sum())
    assert by_val[7.0]["n_pixels"] == 16
    # ring of the disc == monolithic trace on the full mosaic
    mono = poly_stage.trace_boundary(arr == 5)
    got_ring = wkb.decode(by_val[5.0]["wkb"]).parts[0][0]
    assert abs(wkb.ring_area(got_ring)) == abs(wkb.ring_area(mono))
    assert {tuple(p) for p in got_ring.tolist()} == {tuple(p) for p in mono.tolist()}
    # square ring area matches pixel count (no holes)
    sq_ring = wkb.decode(by_val[7.0]["wkb"]).parts[0][0]
    assert abs(wkb.ring_area(sq_ring)) == 16.0


def test_aaigrid_roundtrip_and_header():
    """ESRI ASCII grid: repr floats round-trip bitwise; header parsed;
    edge tiles clip; malformed inputs fail loudly."""
    import os
    import tempfile

    import pytest

    from gdal_ray.sources import aaigrid

    rng = np.random.default_rng(9)
    arr = np.round(rng.uniform(-5, 5, (40, 50)), 3)
    path = os.path.join(tempfile.gettempdir(), "t.asc")
    aaigrid.write_asc(path, arr, xll=10.5, yll=-3.25, cellsize=0.5, nodata=-9999.0)
    back, hdr = aaigrid.read_asc(path)
    assert np.array_equal(back, arr)
    assert hdr["xllcorner"] == 10.5 and hdr["cellsize"] == 0.5
    tiles = aaigrid.read_asc_tiles(path, tile_size=32).take_all()
    assert len(tiles) == 4  # 2x2 with clipped edges
    t11 = [t for t in tiles if t["x"] == 1 and t["y"] == 1][0]
    assert t11["width"] == 50 - 32 and t11["height"] == 40 - 32
    got = np.frombuffer(t11["data"], np.float32).reshape(8, 18)
    assert np.array_equal(got, arr[32:, 32:].astype(np.float32))
    with open(path + ".bad", "w") as f:
        f.write("not a grid\n1 2 3\n")
    with pytest.raises(ValueError):
        aaigrid.read_asc(path + ".bad")


def test_xyz_driver_roundtrip_and_validation():
    import os
    import tempfile

    import pytest

    from gdal_ray.sources import aaigrid

    rng = np.random.default_rng(4)
    arr = np.round(rng.uniform(0, 9, (7, 11)), 2)
    path = os.path.join(tempfile.gettempdir(), "t2.xyz")
    aaigrid.write_xyz(path, arr, x0=100.0, y0=50.0, cellsize=2.0)
    back, (x0, y0, csx, csy) = aaigrid.read_xyz(path)
    assert np.array_equal(back, arr) and (x0, y0, csx, csy) == (100.0, 50.0, 2.0, 2.0)
    # row 0 is the NORTH row: the write/read pair agrees with write_asc
    import os as _os
    apath = _os.path.join(tempfile.gettempdir(), "t2.asc")
    aaigrid.write_asc(apath, arr, xll=100.0, yll=50.0, cellsize=2.0)
    aback, _hdr = aaigrid.read_asc(apath)
    assert np.array_equal(aback, back)
    with open(path, "a") as f:
        f.write("100.0 50.0 1.0\n")  # duplicate cell -> incomplete grid
    with pytest.raises(ValueError):
        aaigrid.read_xyz(path)


def test_band_stats_lazy_matches_eager():
    import ray.data as rd
    from gdal_ray.sources import synthetic
    from gdal_ray.stages import rastermap

    tiles = rd.from_arrow(synthetic.make_raster_tiles("ramp", 2, 2, size=64))
    eager = rastermap.band_stats(tiles)
    lazy = rastermap.band_stats_lazy(tiles).take_all()[0]
    assert lazy["n"] == eager["count"]
    assert lazy["mn"] == eager["min"] and lazy["mx"] == eager["max"]
    assert lazy["mean_e6"] == int(np.floor(eager["mean"] * 1e6 + 0.5))
    assert lazy["std_e6"] == int(np.floor(eager["std"] * 1e6 + 0.5))


def test_tile_index_checksums_compose():
    import ray.data as rd
    from gdal_ray.functions import checksum as cks
    from gdal_ray.sources import synthetic
    from gdal_ray.stages import rastermap

    tiles = rd.from_arrow(synthetic.make_raster_tiles("ramp", 2, 2, size=64))
    idx = rastermap.tile_index(tiles, tile_size=64, global_width=128).take_all()
    assert len(idx) == 4
    gy, gx = np.mgrid[0:128, 0:128]
    mosaic = (gx + gy).astype(np.float32)
    assert sum(r["checksum"] for r in idx) % 65536 == cks.tile_checksum(
        mosaic, 0, 0, 128)


def test_gtiff_roundtrip_dtypes_layouts_endians(tmp_path):
    """GeoTIFF driver: every dtype x {tiled, stripped} x {II, MM} roundtrips
    bitwise; geo metadata (origin/scale/EPSG/nodata) survives."""
    from gdal_ray.sources import gtiff

    rng = np.random.default_rng(7)
    for dname in ("uint8", "uint16", "uint32", "int16", "int32",
                  "float32", "float64"):
        base = rng.integers(0, 250, size=(70, 53)).astype(dname)
        for en in ("<", ">"):
            for kw in ({"tile_size": 32}, {"rows_per_strip": 17}):
                p = str(tmp_path / f"t_{dname}_{en=='<'}_{len(kw)}.tif")
                gtiff.write_gtiff(p, base, origin=(-5.5, 12.25),
                                  pixel_size=(0.5, 0.5), epsg=4326,
                                  nodata=7.0, endian=en, **kw)
                got, meta = gtiff.read_gtiff(p)
                assert got.dtype == base.dtype
                assert np.array_equal(got, base)
                assert meta["origin"] == (-5.5, 12.25)
                assert meta["pixel_size"] == (0.5, 0.5)
                assert meta["epsg"] == 4326 and meta["nodata"] == 7.0


def test_gtiff_tiles_dataset_trims_padding(tmp_path):
    """The Ray manifest path trims TIFF edge-tile padding to clipped tiles
    and matches the source array exactly."""
    from gdal_ray.sources import gtiff

    gy, gx = np.mgrid[0:100, 0:90]
    arr = (gx * 3 + gy).astype(np.int32)
    p = str(tmp_path / "pad.tif")
    gtiff.write_gtiff(p, arr, tile_size=64)
    rows = gtiff.read_gtiff_tiles(p).take_all()
    assert sorted((r["x"], r["y"], r["width"], r["height"]) for r in rows) == [
        (0, 0, 64, 64), (0, 1, 64, 36), (1, 0, 26, 64), (1, 1, 26, 36)]
    for r in rows:
        a = np.frombuffer(r["data"], dtype=r["dtype"]).reshape(
            r["height"], r["width"])
        assert np.array_equal(
            a, arr[r["y"] * 64:(r["y"] + 1) * 64, r["x"] * 64:(r["x"] + 1) * 64])


def test_gtiff_rejects_malformed(tmp_path):
    from gdal_ray.sources import gtiff

    bad = tmp_path / "bad.tif"
    bad.write_bytes(b"PK\x03\x04 not a tiff at all")
    with pytest.raises(ValueError, match="byte-order"):
        gtiff.read_gtiff(str(bad))
    # round 5: 3-D chunky multi-band and complex dtypes are now supported;
    # a 4-D array and a genuinely unsupported dtype still reject
    with pytest.raises(ValueError, match="2-D"):
        gtiff.write_gtiff(str(bad), np.zeros((2, 2, 2, 2), dtype=np.uint8))
    with pytest.raises(ValueError, match="unsupported dtype"):
        gtiff.write_gtiff(str(bad), np.zeros((2, 2), dtype="datetime64[s]"))


def test_gtiff_overviews_chain_and_edges(ray_session, tmp_path):
    """gdaladdo path: append internal overviews, read back via both the
    eager and manifest paths; partial edge blocks average over the pixels
    actually present; nearest kernel takes top-left; base image bytes are
    untouched by the in-place append."""
    import numpy as np

    from gdal_ray.sources import gtiff

    rng = np.random.RandomState(5)
    arr = rng.randint(0, 1000, size=(100, 70)).astype(np.uint16)
    path = str(tmp_path / "ov.tif")
    gtiff.write_gtiff(path, arr, tile_size=64, nodata=0.0)
    base_bytes = open(path, "rb").read()
    gtiff.gtiff_build_overviews(path, levels=(2,), kernel="average")
    after = open(path, "rb").read()[:len(base_bytes)]
    # in-place append: ONLY the 4-byte next-IFD pointer differs in the prefix
    diff = [i for i in range(len(base_bytes)) if base_bytes[i] != after[i]]
    assert len(diff) <= 4 and (not diff or diff[-1] - diff[0] < 4)
    a0, m0 = gtiff.read_gtiff(path, image=0)
    a2, m2 = gtiff.read_gtiff(path, image=1)
    assert np.array_equal(a0, arr) and m0["n_images"] == 2
    assert a2.shape == (50, 35)
    assert m2["pixel_size"] == (2.0, 2.0) and m2["nodata"] == 0.0
    # brute round-half-up block average incl. the odd right edge (70 = 2*35)
    for oy in (0, 17, 49):
        for ox in (0, 9, 34):
            blk = arr[oy * 2:oy * 2 + 2, ox * 2:ox * 2 + 2].astype(np.int64)
            n = blk.size
            assert a2[oy, ox] == (2 * blk.sum() + n) // (2 * n)
    # nearest kernel + manifest/tiles read of the overview image
    path2 = str(tmp_path / "ov2.tif")
    gtiff.write_gtiff(path2, arr, tile_size=64)
    gtiff.gtiff_build_overviews(path2, levels=(2,), kernel="nearest")
    an, _ = gtiff.read_gtiff(path2, image=1)
    assert np.array_equal(an, arr[::2, ::2])
    rows = gtiff.read_gtiff_tiles(path2, image=1).take_all()
    got = np.zeros((50, 35), np.uint16)
    for r in rows:
        a = np.frombuffer(r["data"], np.uint16).reshape(r["height"], r["width"])
        got[r["y"] * 64:r["y"] * 64 + r["height"],
            r["x"] * 64:r["x"] * 64 + r["width"]] = a
    assert np.array_equal(got, an)


def test_gtiff_overview_guards(tmp_path):
    """Stripped layouts and non-divisible levels are rejected loudly."""
    import numpy as np
    import pytest

    from gdal_ray.sources import gtiff

    arr = np.arange(64 * 64, dtype=np.uint16).reshape(64, 64)
    p1 = str(tmp_path / "strips.tif")
    gtiff.write_gtiff(p1, arr)  # stripped
    with pytest.raises(ValueError, match="tiled"):
        gtiff.gtiff_build_overviews(p1, levels=(2,))
    p2 = str(tmp_path / "tiled.tif")
    gtiff.write_gtiff(p2, arr, tile_size=64)
    with pytest.raises(ValueError, match="divisible"):
        gtiff.gtiff_build_overviews(p2, levels=(3,))


def test_polygonize_rings_8conn_tiled_equals_monolithic(ray_session):
    """connect8 ring output: tiled (3x3) == monolithic (1x1) on the diag
    fixture, and 4-conn on the same fixture shatters the chains (proving the
    corner-junction merge is what joins them)."""
    import numpy as np
    import ray.data as rd

    from gdal_ray.sources import synthetic
    from gdal_ray.stages import polygonize as poly

    tiled = synthetic.make_raster_tiles("diag", 3, 3, size=64)
    mono = synthetic.make_raster_tiles("diag", 1, 1, size=192)

    def norm(rows):
        return sorted((r["value"], r["n_pixels"], r["n_holes"],
                       r["hole_pixels"]) for r in rows)

    t8 = norm(poly.polygonize_rings(rd.from_arrow(tiled), nodata=0.0,
                                    connect8=True, tile_size=64).take_all())
    m8 = norm(poly.polygonize_rings(rd.from_arrow(mono), nodata=0.0,
                                    connect8=True, tile_size=192).take_all())
    assert t8 == m8
    assert len(t8) == 3  # one component per value
    t4 = poly.polygonize_rings(rd.from_arrow(tiled), nodata=0.0,
                               connect8=False, tile_size=64).take_all()
    assert len(t4) > 3 * 50  # 4-conn: diagonal chains shatter into singletons


@pytest.mark.parametrize("kind", ["blobs", "checker"])
def test_polygonize_distributed_labels_match_driver(kind, monkeypatch):
    """The distributed label merge (bucket-keyed min-label propagation,
    forced by DRIVER_MERGE_MAX_PAIRS = -1) must produce the exact same
    component set as the driver union-find."""
    size = 32
    tiles = synthetic.make_raster_tiles(kind, 3, 3, size=size)

    def norm(df):
        return sorted(
            (float(r.value), int(r.n_pixels), int(r.minx), int(r.miny),
             int(r.maxx), int(r.maxy), int(r.n_fragments))
            for r in df.itertuples()
        )

    drv = poly_stage.polygonize(
        rd.from_arrow(tiles), nodata=0.0, tile_size=size
    ).to_pandas()
    monkeypatch.setattr(poly_stage, "DRIVER_MERGE_MAX_PAIRS", -1)
    dist = poly_stage.polygonize(
        rd.from_arrow(tiles), nodata=0.0, tile_size=size
    ).to_pandas()
    assert norm(drv) == norm(dist)


def test_polygonize_distributed_snake_component(monkeypatch):
    """A serpentine one-pixel-wide path across a 4x1 tile strip: component
    diameter spans every tile, exercising multi-iteration propagation."""
    size = 16
    arr = np.zeros((16, 64), dtype=np.uint8)
    arr[8, :] = 7          # long horizontal line through all 4 tiles
    arr[2:9, 0] = 7        # hook at the left end
    rows = []
    for tx in range(4):
        rows.append(
            {"z": 4, "x": tx, "y": 0, "band": 1, "width": size, "height": size,
             "crs": "EPSG:3857", "nodata": 0.0, "dtype": "uint8",
             "data": arr[:, tx * size:(tx + 1) * size].tobytes()}
        )
    tiles = pa.Table.from_pylist(rows)
    monkeypatch.setattr(poly_stage, "DRIVER_MERGE_MAX_PAIRS", -1)
    out = poly_stage.polygonize(
        rd.from_arrow(tiles), nodata=0.0, tile_size=size
    ).to_pandas()
    assert len(out) == 1
    assert int(out["n_pixels"][0]) == int((arr == 7).sum())
    assert int(out["n_fragments"][0]) == 4


def test_mosaic_blend_matches_brute(ray_session):
    """Feather blend vs a per-pixel numpy recomputation over the assembled
    mosaic, plus edge semantics: pure-A interior, blended overlap, nodata
    where no source covers."""
    from gdal_ray.stages import rastermap

    ra = (10, 10, 150, 150)
    rb = (60, 40, 180, 170)
    F = 16
    a = synthetic.make_footprint_layer(ra, 1, 2, 251, 3, 3)
    b = synthetic.make_footprint_layer(rb, 3, 1, 241, 3, 3)
    out = rastermap.mosaic_blend(
        [(rd.from_arrow(a), ra), (rd.from_arrow(b), rb)], feather=F
    ).to_pandas()
    full = np.zeros((192, 192), dtype=np.int64)
    for r in out.itertuples():
        arr = np.frombuffer(r.data, dtype=np.int32).reshape(64, 64)
        full[r.y * 64:(r.y + 1) * 64, r.x * 64:(r.x + 1) * 64] = arr
    gy, gx = np.mgrid[0:192, 0:192]
    num = np.zeros((192, 192), dtype=np.int64)
    den = np.zeros((192, 192), dtype=np.int64)
    for (x0, y0, x1, y1), aa, bb, mod in ((ra, 1, 2, 251), (rb, 3, 1, 241)):
        inside = (gx >= x0) & (gx < x1) & (gy >= y0) & (gy < y1)
        v = np.where(inside, (aa * gx + bb * gy) % mod + 1, 0).astype(np.int64)
        d = np.clip(np.minimum.reduce(
            [gx - x0 + 1, x1 - gx, gy - y0 + 1, y1 - gy]), 0, F)
        d[v == 0] = 0
        num += d * v
        den += d
    expect = np.where(den > 0, (2 * num + den) // (2 * np.maximum(den, 1)), 0)
    assert (full == expect).all()
    # pure-A interior (far from A edges, outside B): exact A values
    assert (full[30, 20] == (20 + 2 * 30) % 251 + 1)
    # outside both: nodata
    assert full[0, 0] == 0 and full[185, 5] == 0
    # overlap interior (both at full density): plain average half-up
    va = (100 + 2 * 100) % 251 + 1
    vb = (3 * 100 + 100) % 241 + 1
    assert full[100, 100] == (2 * (16 * va + 16 * vb) + 32) // 64


def test_gtiff_deflate_roundtrip(ray_session, tmp_path):
    """COMPRESS=DEFLATE (Compression=8, frmts/gtiff codec surface): tiled +
    stripped roundtrips bit-exact, files shrink, manifest reader decodes."""
    from gdal_ray.sources import gtiff
    import os

    rng = np.random.default_rng(4)
    # compressible content: smooth ramp + sparse noise
    gy, gx = np.mgrid[0:150, 0:200]
    arr = ((gx + gy) // 4).astype(np.uint16)
    arr[rng.integers(0, 150, 50), rng.integers(0, 200, 50)] = 999
    for kw in (dict(tile_size=64), dict(rows_per_strip=32)):
        p = str(tmp_path / f"c_{'t' if 'tile_size' in kw else 's'}.tif")
        u = p + ".raw.tif"
        gtiff.write_gtiff(p, arr, nodata=0.0, compress="deflate", **kw)
        gtiff.write_gtiff(u, arr, nodata=0.0, **kw)
        assert os.path.getsize(p) < os.path.getsize(u) * 0.7
        back, meta = gtiff.read_gtiff(p)
        assert (back == arr).all() and meta["nodata"] == 0.0
    # manifest/tile Dataset path decodes deflate chunks in workers
    p = str(tmp_path / "c_t.tif")
    tiles = gtiff.read_gtiff_tiles(p, z=4).take_all()
    full = np.zeros((150, 200), dtype=np.uint16)
    for r in tiles:
        a = np.frombuffer(r["data"], dtype="uint16").reshape(r["height"], r["width"])
        full[r["y"] * 64:r["y"] * 64 + r["height"],
             r["x"] * 64:r["x"] * 64 + r["width"]] = a
    assert (full == arr).all()
    # overview append keeps the codec
    gtiff.append_gtiff_images(p, [arr[::2, ::2]], tile_size=64,
                              pixel_size=[(2.0, 2.0)], compress="deflate")
    ov, meta = gtiff.read_gtiff(p, image=1)
    assert (ov == arr[::2, ::2]).all()


def test_polygonize_rings_distributed_labels_match_driver(ray_session, monkeypatch):
    tiles = synthetic.make_raster_tiles("blobs", 3, 3, size=32)

    def norm(df):
        return sorted(
            (float(r.value), int(r.n_pixels), int(r.n_holes), r.wkb)
            for r in df.itertuples()
        )

    drv = poly_stage.polygonize_rings(
        rd.from_arrow(tiles), nodata=0.0, tile_size=32
    ).to_pandas()
    monkeypatch.setattr(poly_stage, "DRIVER_MERGE_MAX_PAIRS", -1)
    dist = poly_stage.polygonize_rings(
        rd.from_arrow(tiles), nodata=0.0, tile_size=32
    ).to_pandas()
    assert norm(drv) == norm(dist)


def test_compare_rasters_identical_and_mismatch(ray_session):
    """gdalcompare surface: identical mosaics diff to zero; one-sided
    tiles and shape mismatches raise (the reference errors before
    comparing pixels)."""
    import ray.data as rd

    from gdal_ray.sources import synthetic
    from gdal_ray.stages import rastermap

    b1 = synthetic.make_raster_tiles("checker", 2, 2, size=32)
    b2 = synthetic.make_raster_tiles("ramp", 2, 2, size=32)
    b2 = b2.set_column(b2.schema.get_field_index("band"), "band",
                       pa.array([2] * b2.num_rows, pa.int8()))
    t = pa.concat_tables([b1, b2])  # two bands: each pairs with its own band
    res = rastermap.compare_rasters(rd.from_arrow(t), rd.from_arrow(t))
    assert res["n_pixels"] == 2 * 4 * 32 * 32
    assert res["n_diff"] == 0 and res["max_diff"] == 0.0

    with pytest.raises(Exception, match="one side only"):
        rastermap.compare_rasters(
            rd.from_arrow(t), rd.from_arrow(t.slice(0, 3)))


def test_composite_reduce_nodata_aware(ray_session):
    """Time-stack composite: nodata pixels excluded per-pixel; a pixel
    with no valid observation emits nodata; count_valid counts."""
    import ray.data as rd

    from gdal_ray.stages import rastermap

    def tile(vals):
        arr = np.array(vals, dtype=np.float32).reshape(1, 2)
        return pa.table({"z": pa.array([0], pa.int16()),
                         "x": pa.array([0], pa.int32()),
                         "y": pa.array([0], pa.int32()),
                         "width": pa.array([2], pa.int32()),
                         "height": pa.array([1], pa.int32()),
                         "dtype": pa.array(["float32"]),
                         "data": pa.array([arr.tobytes()], pa.binary())})

    layers = [rd.from_arrow(tile(v)) for v in
              ([1.0, -9.0], [3.0, -9.0], [2.0, -9.0])]
    med = rastermap.composite_reduce(layers, "median", nodata=-9.0).take_all()
    arr = np.frombuffer(med[0]["data"], np.float64)
    assert arr[0] == 2.0 and arr[1] == -9.0  # all-nodata pixel stays nodata
    cnt = rastermap.composite_reduce(layers, "count_valid",
                                     nodata=-9.0).take_all()
    arr = np.frombuffer(cnt[0]["data"], np.float64)
    assert arr[0] == 3.0 and arr[1] == 0.0
    mx = rastermap.composite_reduce(layers, "max").take_all()
    arr = np.frombuffer(mx[0]["data"], np.float64)
    assert arr[0] == 3.0 and arr[1] == -9.0
    with pytest.raises(ValueError):
        rastermap.composite_reduce(layers, "mode")


def test_raster_update(ray_session):
    """gdal raster update semantics: valid source pixels overwrite, nodata
    keeps destination, src-only tiles are dropped, dst dtype wins."""
    import ray.data as rd

    from gdal_ray.sources import synthetic
    from gdal_ray.stages import rastermap

    dst_t = synthetic.make_raster_tiles("hump", 2, 2, size=64)
    src_t = synthetic.make_raster_tiles("checker", 3, 2, size=64)  # wider
    keep = src_t["x"].to_numpy() >= 1  # tiles x=1,2 (x=2 outside dst)
    src = rd.from_arrow(src_t.filter(pa.array(keep)))
    out = rastermap.raster_update(rd.from_arrow(dst_t), src).to_pandas()
    assert len(out) == 4  # dst tile count preserved, src-only dropped
    got = {(r["x"], r["y"]): r for _, r in out.iterrows()}
    for (x, y), r in got.items():
        a = np.frombuffer(r["data"], dtype=np.dtype(r["dtype"])).reshape(
            64, 64)
        assert r["dtype"] == "float32"  # dst dtype wins
        gy, gx = np.mgrid[0:64, 0:64]
        gx = gx + x * 64
        gy = gy + y * 64
        hump = (((gx - 96) ** 2 + (gy - 96) ** 2) / 64.0).astype(np.float32)
        if x == 0:
            assert np.array_equal(a, hump)  # untouched pass-through
        else:
            chk = (((gx // 8) + (gy // 8)) % 2).astype(np.uint8) * 255
            exp = np.where(chk != 0, chk.astype(np.float32), hump)
            assert np.array_equal(a, exp)


def test_nodata_to_alpha(ray_session):
    """gdal raster nodata-to-alpha: alpha=0 at nodata pixels, 255 else,
    data nodata marker cleared, nodata-less tiles pass through."""
    import ray.data as rd

    from gdal_ray.sources import synthetic
    from gdal_ray.stages import rastermap

    t = synthetic.make_raster_tiles("checker", 2, 1, size=32)
    out = rastermap.nodata_to_alpha(rd.from_arrow(t)).to_pandas()
    assert len(out) == 4  # each tile + its alpha band
    for (x, y), grp in out.groupby(["x", "y"]):
        bands = dict(zip(grp["band"], grp.index))
        data = grp.loc[bands[1]]
        alpha = grp.loc[bands[2]]
        assert data["nodata"] is None or np.isnan(data["nodata"])
        assert alpha["dtype"] == "uint8"
        a = np.frombuffer(data["data"],
                          dtype=np.dtype(data["dtype"])).reshape(32, 32)
        al = np.frombuffer(alpha["data"], dtype=np.uint8).reshape(32, 32)
        assert np.array_equal(al, np.where(a == 0, 0, 255))
