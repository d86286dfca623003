"""Focal (halo-exchange) + raster map op tests.

Oracle for focal: apply the same stencil to the ASSEMBLED mosaic with numpy
edge padding — tile decomposition must not change any pixel (the halo
correctness property).
"""

import numpy as np
import pyarrow as pa
import ray.data as rd

from gdal_ray.sources import synthetic
from gdal_ray.stages import focal as focal_stage
from gdal_ray.stages import rastermap
from tests.test_raster import _assemble_tiles


def _tiles_and_full(kind="ramp", nx=3, ny=2, size=32):
    tiles = synthetic.make_raster_tiles(kind, nx, ny, size=size)
    return tiles, _assemble_tiles(tiles, size)


def _assemble_out(rows, size, nx, ny):
    full = np.zeros((ny * size, nx * size))
    for r in rows:
        dt = {"float32": np.float32, "uint8": np.uint8}.get(r.get("dtype"), np.float64)
        arr = np.frombuffer(r["data"], dtype=dt).reshape(r["height"], r["width"])
        full[r["y"] * size : (r["y"] + 1) * size, r["x"] * size : (r["x"] + 1) * size] = arr
    return full


def test_focal_slope_matches_monolithic():
    tiles, full = _tiles_and_full()
    rows = focal_stage.focal(rd.from_arrow(tiles), alg="slope", res=1.0).take_all()
    got = _assemble_out(rows, 32, 3, 2)
    pad = np.pad(full, 1, mode="edge")
    dzdx, dzdy = focal_stage._horn_gradients(pad, 1.0)
    expect = np.degrees(np.arctan(np.hypot(dzdx, dzdy)))
    assert np.allclose(got, expect)


def test_focal_hillshade_and_stats_algs_match_monolithic():
    tiles, full = _tiles_and_full(kind="blobs")
    pad = np.pad(full, 1, mode="edge")
    for alg in ("hillshade", "tri", "tpi", "roughness"):
        rows = focal_stage.focal(rd.from_arrow(tiles), alg=alg, res=1.0).take_all()
        got = _assemble_out(rows, 32, 3, 2)
        expect = focal_stage._apply_alg(pad, alg, 1.0, 1.0, 315.0, 45.0)
        assert np.allclose(got, expect), alg


def test_focal_shading_variants_match_monolithic():
    """ZT gradients + combined/multidirectional/igor shading: tile
    decomposition must not change any pixel (hump has gradients in every
    direction, exercising the clamps and saddle-free weighting)."""
    tiles, full = _tiles_and_full(kind="hump", nx=3, ny=2)
    pad = np.pad(full, 1, mode="edge")
    for alg in ("slope_zt", "aspect_zt", "hillshade_zt",
                "combined", "multidirectional", "igor", "tri_riley"):
        rows = focal_stage.focal(rd.from_arrow(tiles), alg=alg, res=1.0).take_all()
        got = _assemble_out(rows, 32, 3, 2)
        expect = focal_stage._apply_alg(pad, alg, 1.0, 1.0, 315.0, 45.0)
        assert np.allclose(got, expect), alg


def test_shading_variant_closed_forms():
    """Flat terrain: multidirectional == 1 + 254*sin(alt); combined == its
    no-slope limit 1 + 254*(1 - acos(sin(alt))*0); igor == 0 shadowness at
    zero slope.  A 45-degree-from-azimuth plane darkens under igor exactly
    by slope/90 * aspect alignment."""
    flat = np.zeros((8, 8))
    pad = np.pad(flat, 1, mode="edge")
    alt = np.radians(45.0)
    md = focal_stage._apply_alg(pad, "multidirectional", 1.0, 1.0, 315.0, 45.0)
    assert np.allclose(md, 1.0 + 254.0 * np.sin(alt))
    ig = focal_stage._apply_alg(pad, "igor", 1.0, 1.0, 315.0, 45.0)
    assert np.allclose(ig, 255.0)
    cb = focal_stage._apply_alg(pad, "combined", 1.0, 1.0, 315.0, 45.0)
    assert np.allclose(cb, 1.0 + 254.0)  # acos(shade)*atan(0) == 0 -> cang 1
    # tilted plane rising to the northwest (upslope faces the 315 az sun):
    # the igor aspect term should make it BRIGHTER (less shadow) than the
    # same plane rising to the southeast
    gy, gx = np.mgrid[0:8, 0:8].astype(float)
    nw = np.pad(-(gx + gy), 1, mode="edge")
    se = np.pad(gx + gy, 1, mode="edge")
    ig_nw = focal_stage._apply_alg(nw, "igor", 1.0, 1.0, 315.0, 45.0)[3, 3]
    ig_se = focal_stage._apply_alg(se, "igor", 1.0, 1.0, 315.0, 45.0)[3, 3]
    assert ig_nw < ig_se  # aspect aligned with the igor target gets full shadow weight


def test_reclassify():
    tiles, full = _tiles_and_full(kind="checker")
    out = rastermap.reclassify(rd.from_arrow(tiles), {0.0: 7.0, 255.0: 9.0}).take_all()
    got = _assemble_out(out, 32, 3, 2)
    assert set(np.unique(got)) == {7.0, 9.0}
    assert ((got == 9.0) == (full == 255)).all()


def test_calc_and_scale_and_settype():
    tiles, full = _tiles_and_full()
    out = rastermap.calc(rd.from_arrow(tiles), lambda a: a * 2 + 1).take_all()
    got = _assemble_out(out, 32, 3, 2)
    assert np.allclose(got, full * 2 + 1)
    out2 = rastermap.scale(rd.from_arrow(tiles), 0, 100, 0, 1).take_all()
    got2 = _assemble_out(out2, 32, 3, 2)
    assert np.allclose(got2, full / 100, atol=1e-6)
    out3 = rastermap.set_type(rd.from_arrow(tiles), "uint8").take_all()
    assert out3[0]["dtype"] == "uint8"


def test_band_stats_and_histogram():
    tiles, full = _tiles_and_full(kind="ramp")
    st = rastermap.band_stats(rd.from_arrow(tiles))
    assert st["count"] == full.size
    assert st["min"] == full.min() and st["max"] == full.max()
    assert abs(st["mean"] - full.mean()) < 1e-9
    assert abs(st["std"] - full.std()) < 1e-9
    h = rastermap.histogram(rd.from_arrow(tiles), bins=16, lo=0, hi=full.max() + 1)
    he, _ = np.histogram(full, bins=16, range=(0, full.max() + 1))
    assert (h == he).all()
    # approx stats: sampled count is close to fraction
    st2 = rastermap.band_stats(rd.from_arrow(tiles), sample_fraction=0.5)
    assert 0.3 * full.size < st2["count"] < 0.7 * full.size


def test_mosaic_last_non_nodata_wins():
    size = 16
    base = synthetic.make_raster_tiles("checker", 2, 1, size=size)
    # overlay: nodata except a patch of 77
    rows = []
    for i in range(base.num_rows):
        arr = np.zeros((size, size), dtype=np.uint8)
        if i == 0:
            arr[4:8, 4:8] = 77
        rows.append({**{c: base[c][i].as_py() for c in base.column_names}, "data": arr.tobytes()})
    overlay = pa.Table.from_pylist(rows)
    out = rastermap.mosaic([rd.from_arrow(base), rd.from_arrow(overlay)], nodata=0.0).take_all()
    full = {(r["x"], r["y"]): np.frombuffer(r["data"], np.float32).reshape(size, size) for r in out}
    t0 = full[(0, 0)]
    assert (t0[4:8, 4:8] == 77).all()
    base_full = _assemble_tiles(base, size)
    m = np.ones((size, size), dtype=bool)
    m[4:8, 4:8] = False
    assert (t0[m] == base_full[:size, :size][m]).all()


def test_resize_nearest_and_bilinear():
    import numpy as np
    import ray.data as rd

    from gdal_ray.sources import synthetic
    from gdal_ray.stages import rastermap

    tiles = rd.from_arrow(synthetic.make_raster_tiles("ramp", 1, 1, size=16))
    # 2x upscale nearest: each src pixel becomes a 2x2 block
    up = rastermap.resize(tiles, 32, 32, "nearest").take_all()[0]
    arr = np.frombuffer(up["data"], np.float64).reshape(32, 32)
    gy, gx = np.mgrid[0:16, 0:16]
    src = (gx + gy).astype(np.float64)
    assert np.array_equal(arr, src.repeat(2, 0).repeat(2, 1))
    # 2x downscale bilinear of a linear ramp stays linear at sampled centers
    dn = rastermap.resize(tiles, 8, 8, "bilinear").take_all()[0]
    arr2 = np.frombuffer(dn["data"], np.float64).reshape(8, 8)
    px = (np.arange(8) + 0.5) * 2.0 - 0.5
    exp = px[None, :] + px[:, None]
    np.testing.assert_allclose(arr2, exp, atol=1e-9)


def test_clip_window_cross_tile():
    import numpy as np
    import ray.data as rd

    from gdal_ray.sources import synthetic
    from gdal_ray.stages import rastermap

    tiles = rd.from_arrow(synthetic.make_raster_tiles("ramp", 2, 2, size=16))
    out = rastermap.clip_window(tiles, 10, 12, 25, 20, tile_size=16).take_all()
    # window spans all 4 tiles? x 10..25 crosses 16; y 12..20 crosses 16 -> 4 crops
    assert len(out) == 4
    total = sum(r["width"] * r["height"] for r in out)
    assert total == (25 - 10) * (20 - 12)
    for r in out:
        arr = np.frombuffer(r["data"], np.float32).reshape(r["height"], r["width"])
        gx0 = r["x"] * 16 + r["win_ox"]
        gy0 = r["y"] * 16 + r["win_oy"]
        gy, gx = np.mgrid[0:r["height"], 0:r["width"]]
        assert np.array_equal(arr, (gx + gx0 + gy + gy0).astype(np.float32))


def test_stack_bands_orders_and_concatenates():
    """Band stack: payload = band-ordered concatenation; swapping layer order
    changes the weighted checksum (ordering is pinned)."""
    import ray.data as rd2
    a = synthetic.make_raster_tiles("ramp", 1, 1, size=16)
    b = synthetic.make_raster_tiles("checker", 1, 1, size=16)
    out = rastermap.stack_bands([rd2.from_arrow(a), rd2.from_arrow(b)]).take_all()
    assert len(out) == 1 and out[0]["n_bands"] == 2
    assert out[0]["data"] == a["data"][0].as_py() + b["data"][0].as_py()
    assert out[0]["dtypes"] == "float32,uint8"
    rev = rastermap.stack_bands([rd2.from_arrow(b), rd2.from_arrow(a)]).take_all()
    assert rev[0]["checksum"] != out[0]["checksum"]
    assert rev[0]["data"] == b["data"][0].as_py() + a["data"][0].as_py()


def test_retile_overlap_shares_columns():
    """Adjacent retiled outputs share `overlap` columns of identical pixels,
    and every output pixel equals the mosaic pixel at its global position."""
    tiles = rd.from_arrow(synthetic.make_raster_tiles("ramp", 2, 2, size=32))
    out = {(r["x"], r["y"]): np.frombuffer(r["data"], np.float64).reshape(r["height"], r["width"])
           for r in rastermap.retile(tiles, tile_size=32, out_size=24, overlap=8,
                                     nx=2, ny=2).take_all()}
    full = _assemble_tiles(synthetic.make_raster_tiles("ramp", 2, 2, size=32), 32)
    step = 16
    for (i, j), arr in out.items():
        gx0, gy0 = i * step, j * step
        assert np.array_equal(arr, full[gy0:gy0 + arr.shape[0], gx0:gx0 + arr.shape[1]])
    a = out[(0, 0)]; b = out[(1, 0)]
    assert np.array_equal(a[:, step:], b[:, :8])  # shared overlap columns


def test_select_band_inverts_stack():
    a = synthetic.make_raster_tiles("ramp", 1, 1, size=16)
    b = synthetic.make_raster_tiles("checker", 1, 1, size=16)
    stacked = rastermap.stack_bands([rd.from_arrow(a), rd.from_arrow(b)])
    b2 = rastermap.select_band(stacked, band=2).take_all()[0]
    assert b2["data"] == b["data"][0].as_py() and b2["dtype"] == "uint8"
    b1 = rastermap.select_band(stacked, band=1).take_all()[0]
    assert b1["data"] == a["data"][0].as_py() and b1["dtype"] == "float32"


def test_gdalcompare_identical_and_unmatched(ray_session):
    """Identical mosaics diff to zeros; an extra tile on one side reports
    full difference with the -1 sentinel."""
    import ray.data as rd

    from gdal_ray.sources import synthetic
    from gdal_ray.stages import rastermap

    a = synthetic.make_raster_tiles("checker", 2, 2, size=32)
    same = rastermap.compare(rd.from_arrow(a), rd.from_arrow(a)).take_all()
    assert all(r["n_diff"] == 0 and r["checksum_delta"] == 0 for r in same)

    b = synthetic.make_raster_tiles("checker", 2, 1, size=32)  # missing row
    out = rastermap.compare(rd.from_arrow(a), rd.from_arrow(b)).take_all()
    unmatched = [r for r in out if r["max_abs_x100"] == -1]
    assert len(unmatched) == 2 and all(r["n_diff"] == 32 * 32 for r in unmatched)


def test_gdalcompare_pairs_tiles_band_by_band(ray_session):
    """A two-band raster compared with itself: every band of every tile
    pairs with the same band on the other side, so nothing differs."""
    b1 = synthetic.make_raster_tiles("checker", 1, 1, size=4)
    b2 = synthetic.make_raster_tiles("ramp", 1, 1, size=4)
    b2 = b2.set_column(b2.schema.get_field_index("band"), "band",
                       pa.array([2], pa.int8()))
    t = pa.concat_tables([b1, b2])
    out = rastermap.compare(rd.from_arrow(t), rd.from_arrow(t)).take_all()
    assert len(out) == 2
    assert all(r["n_diff"] == 0 and r["max_abs_x100"] == 0
               and r["checksum_delta"] == 0 for r in out)
    # the band column tells the two rows of one tile address apart
    assert sorted((r["z"], r["x"], r["y"], r["band"]) for r in out) == [(4, 0, 0, 1), (4, 0, 0, 2)]


def test_neighbors_tiled_equals_monolithic(ray_session):
    """gdal raster neighbors: every method's per-tile integer aggregates must
    equal the same stencil run on the assembled mosaic with edge padding."""
    from gdal_ray.pipelines.queries import NEIGHBOR_COMBOS

    tiles, full = _tiles_and_full("blobs", 3, 2, size=32)
    pad = np.pad(full.astype(np.int64), 1, mode="edge")
    for method, kern in NEIGHBOR_COMBOS:
        coef = np.asarray(focal_stage.NEIGHBOR_KERNELS[kern], dtype=np.int64)
        expect = focal_stage._neighbors_apply(pad, method, coef)
        rows = focal_stage.neighbors(
            rd.from_arrow(tiles), method=method, kernel=kern
        ).take_all()
        assert len(rows) == 6
        for r in rows:
            sub = expect[r["y"] * 32 : (r["y"] + 1) * 32,
                         r["x"] * 32 : (r["x"] + 1) * 32]
            assert r["vsum"] == sub.sum(), (method, kern, r["x"], r["y"])
            assert r["vmin"] == sub.min() and r["vmax"] == sub.max()


def test_neighbors_mode_tie_breaks_smallest(ray_session):
    """3x3 window with a 4-4 tie must pick the smaller value (SQL mirror:
    ORDER BY cnt DESC, v ASC)."""
    pad = np.pad(np.array([[5, 2], [2, 5]], dtype=np.int64), 1, mode="edge")
    out = focal_stage._neighbors_apply(
        pad, "mode", np.ones((3, 3), dtype=np.int64))
    # each 3x3 window over this 2x2 edge-padded patch holds 4/5 or 5/4 of
    # each value; verify against a brute count per pixel
    for yy in range(2):
        for xx in range(2):
            win = pad[yy:yy + 3, xx:xx + 3].ravel()
            vals, cnts = np.unique(win, return_counts=True)
            best = vals[cnts == cnts.max()].min()
            assert out[yy, xx] == best


def test_zonal_modes_and_extended(ray_session):
    """Majority/minority + exact variance numerator vs a pandas recompute."""
    from gdal_ray.sources.io import read_table
    from gdal_ray.stages import tiles as tiles_stage, zonal

    sf = "/root/testdata/sf0.001"
    import pyarrow.parquet as pq

    keys = pq.read_table(f"{sf}/part.parquet", columns=["p_partkey"])["p_partkey"].to_numpy()
    zones = synthetic.make_rect_zones(np.sort(keys))
    pts = read_table(sf, "documents", columns=["doc_id", "n_chars"]).map_batches(
        tiles_stage.derive_geometry_batch, batch_format="pyarrow"
    )
    modes = zonal.zonal_value_modes(
        pts, zones, value_col="n_chars"
    ).to_pandas()
    ext = zonal.zonal_stats_extended(
        pts, zones, value_col="n_chars"
    ).to_pandas()

    # brute: pandas join
    docs = pq.read_table(f"{sf}/documents.parquet", columns=["doc_id", "n_chars"]).to_pandas()
    from gdal_ray.functions import geo

    lon, lat = geo.derive_lonlat(docs["doc_id"].to_numpy())
    zl = zones.to_pandas()
    rows = []
    for _, z in zl.iterrows():
        m = (lon >= z.minx) & (lon <= z.maxx) & (lat >= z.miny) & (lat <= z.maxy)
        if not m.any():
            continue
        v = docs["n_chars"].to_numpy()[m]
        vals, cnts = np.unique(v, return_counts=True)
        maj = vals[cnts == cnts.max()].min()
        mino = vals[cnts == cnts.min()].min()
        n = int(m.sum())
        rows.append((z.zone_id, maj, mino, n, int(v.sum()),
                     n * int((v.astype(np.int64) ** 2).sum()) - int(v.sum()) ** 2))
    import pandas as pd

    exp = pd.DataFrame(rows, columns=["zone_id", "maj", "mino", "n", "s", "var_num"])
    got_m = modes.set_index("zone_id").sort_index()
    got_e = ext.set_index("zone_id").sort_index()
    exp = exp.set_index("zone_id").sort_index()
    assert len(got_m) == len(exp) and len(got_e) == len(exp)
    assert (got_m["majority_val"].to_numpy() == exp["maj"].to_numpy()).all()
    assert (got_m["minority_val"].to_numpy() == exp["mino"].to_numpy()).all()
    assert (got_e["n_docs"].to_numpy() == exp["n"].to_numpy()).all()
    assert (got_e["var_num"].to_numpy() == exp["var_num"].to_numpy()).all()


def test_pixel_rewrite_recomputes_a_carried_checksum():
    """A stage that rewrites pixels through ``tilerow.tile_row`` recomputes
    an upstream ``checksum`` column instead of carrying it stale."""
    from gdal_ray.functions import checksum as cks
    from gdal_ray.functions import tilerow

    t = synthetic.make_raster_tiles("ramp", 1, 1, 8)
    t = t.append_column("checksum", pa.array([cks.tile_checksum(tilerow.pixels(t, 0))], pa.int64()))
    assert t["checksum"][0].as_py() == 1806
    out = rastermap._tile_map(lambda a: a * 2)(t)
    assert out["checksum"][0].as_py() == 3612
    keep = [c for c in t.column_names if c not in ("checksum", "data")]
    assert out.select(keep).to_pylist() == t.select(keep).to_pylist()
