"""Viewshed tests vs an independent scalar line-of-sight oracle."""

import numpy as np
import pyarrow as pa
import ray.data as rd

from gdal_ray.stages import viewshed as vs


def _brute_los(dem, ox, oy, tx, ty, obs_h=0.0, steps=200):
    """Independent scalar oracle: dense sampling along the ray."""
    if (tx, ty) == (ox, oy):
        return True
    obs_z = dem[oy, ox] + obs_h
    dist = np.hypot(tx - ox, ty - oy)
    tgt_slope = (dem[ty, tx] - obs_z) / dist
    h, w = dem.shape
    for s in range(1, steps):
        t = s / steps
        x = ox + t * (tx - ox)
        y = oy + t * (ty - oy)
        if t * dist >= dist - 1e-9:
            break
        x0, y0 = int(min(np.floor(x), w - 2)), int(min(np.floor(y), h - 2))
        fx, fy = x - x0, y - y0
        z = (dem[y0, x0] * (1 - fx) * (1 - fy) + dem[y0, x0 + 1] * fx * (1 - fy)
             + dem[y0 + 1, x0] * (1 - fx) * fy + dem[y0 + 1, x0 + 1] * fx * fy)
        if (z - obs_z) / (t * dist) > tgt_slope + 1e-12:
            return False
    return True


def test_flat_dem_all_visible():
    dem = np.zeros((32, 32))
    vis = vs.viewshed_array(dem, 16, 16)
    assert vis.all()


def test_wall_shadows():
    dem = np.zeros((32, 32))
    dem[:, 20] = 50.0  # tall wall right of the observer
    vis = vs.viewshed_array(dem, 5, 16)
    assert vis[16, 19]          # before the wall: visible
    assert vis[16, 20]          # the wall top itself: visible
    assert not vis[16, 25]      # behind the wall: shadowed
    assert vis[16, 2]           # opposite direction unaffected


def test_matches_scalar_oracle_random_terrain():
    rng = np.random.default_rng(3)
    dem = rng.uniform(0, 5, (24, 24))
    dem[10, 14] = 30.0  # a peak
    ox, oy = 4, 12
    vis = vs.viewshed_array(dem, ox, oy, n_steps=200)
    sample = [(20, 12), (23, 12), (14, 10), (0, 0), (12, 23), (18, 14)]
    for tx, ty in sample:
        assert vis[ty, tx] == _brute_los(dem, ox, oy, tx, ty), (tx, ty)


def test_output_modes_dem_ground():
    """DEM mode = max(cell, required sight-line height); GROUND = the same
    requirement expressed as extra height above ground.  Cross-mode
    invariants + a closed form behind a wall."""
    rng = np.random.default_rng(7)
    dem = rng.uniform(0, 5, (24, 24))
    dem[10, 14] = 30.0
    ox, oy = 4, 12
    vis = vs.viewshed_array(dem, ox, oy)
    out_dem = vs.viewshed_array(dem, ox, oy, mode="dem")
    out_gnd = vs.viewshed_array(dem, ox, oy, mode="ground")
    assert (out_dem >= dem - 1e-9).all()
    assert (out_gnd >= 0).all()
    # wherever extra height is needed, DEM mode is exactly cell + extra
    need = out_gnd > 0
    assert np.allclose(out_dem[need], dem[need] + out_gnd[need])
    # cells needing no extra height are visible (strict subset direction of
    # the tolerance-padded visibility test)
    assert vis[~need].all()
    assert out_gnd[oy, ox] == 0.0 and out_dem[oy, ox] == dem[oy, ox]
    # flat terrain with one wall: behind the wall the required height grows
    # linearly with distance (similar triangles from the observer eye)
    flat = np.zeros((32, 32))
    flat[:, 20] = 50.0
    g = vs.viewshed_array(flat, 5, 16, observer_height=2.0, mode="ground")
    d_wall, d_t = 15.0, 20.0
    expect = (50.0 - 2.0) / d_wall * d_t + 2.0  # sight line height at x=25
    assert abs(g[16, 25] - expect) < 0.7  # ray sampled at ~unit spacing
    assert g[16, 28] > g[16, 25] > 0


def test_viewshed_stage():
    size = 32
    dem = np.zeros((size, size), dtype=np.float32)
    dem[:, 20] = 50.0
    t = pa.Table.from_pylist([{
        "z": 0, "x": 0, "y": 0, "band": 1, "width": size, "height": size,
        "crs": "EPSG:3857", "nodata": -1.0, "dtype": "float32", "data": dem.tobytes(),
    }])
    out = vs.viewshed(rd.from_arrow(t), observer_x=5, observer_y=16).take_all()
    assert len(out) == 1
    vism = np.frombuffer(out[0]["data"], np.uint8).reshape(size, size)
    assert vism[16, 2] == 1 and vism[16, 25] == 0
    assert out[0]["n_visible"] == int(vism.sum())


def test_viewshed_radius_multi_tile_matches_monolithic():
    """Radius-scoped viewshed across 4 tiles == single-array viewshed over the
    same window (the multi-tile extension of the round-1 single-tile scope)."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from gdal_ray.stages import viewshed as vs

    size = 64
    gy, gx = np.mgrid[0:2 * size, 0:2 * size]
    dem = (((gx * 73 + gy * 151) % 37) + ((gx * gy) % 11) * 3).astype(np.float32)
    rows = []
    for ty in range(2):
        for tx in range(2):
            sub = dem[ty * size:(ty + 1) * size, tx * size:(tx + 1) * size]
            rows.append({"z": 0, "x": tx, "y": ty, "band": 1, "width": size,
                         "height": size, "crs": "EPSG:3857", "nodata": -1.0,
                         "dtype": "float32",
                         "data": np.ascontiguousarray(sub).tobytes()})
    ds = rd.from_arrow(pa.Table.from_pylist(rows))
    ox, oy, R = 70, 58, 30  # observer near the 4-tile junction
    out = vs.viewshed_radius(ds, ox, oy, R, observer_height=2.0, tile_size=size)
    row = out.take_all()[0]
    window = dem[oy - R:oy + R + 1, ox - R:ox + R + 1].astype(np.float64)
    exp = vs.viewshed_array(window, R, R, 2.0)
    got = np.frombuffer(row["data"], np.uint8).reshape(row["height"], row["width"])
    assert row["n_visible"] == int(exp.sum())
    assert np.array_equal(got.astype(bool), exp)


def test_viewshed_sectors_equals_monolithic():
    """Ray-partitioned (8-sector) viewshed reproduces the monolithic window
    run cell-for-cell on the radius disc, with disjoint sector coverage."""
    import ray.data as rd
    from gdal_ray.stages import viewshed as vs

    size = 64
    rows = []
    for ty in range(2):
        for tx in range(2):
            gy, gx = np.mgrid[0:size, 0:size]
            gx = gx + tx * size
            gy = gy + ty * size
            dem = (((gx * 73 + gy * 151) % 37) + ((gx * gy) % 11) * 3).astype(np.float32)
            rows.append({"z": 0, "x": tx, "y": ty, "band": 1, "width": size,
                         "height": size, "crs": "EPSG:3857", "nodata": -1.0,
                         "dtype": "float32", "data": dem.tobytes()})
    tiles = rd.from_arrow(pa.Table.from_pylist(rows))
    OX, OY, R = 64, 64, 40
    mono = vs.viewshed_radius(tiles, OX, OY, R, observer_height=2.0).take_all()[0]
    mvis = np.frombuffer(mono["data"], dtype=np.uint8).reshape(
        mono["height"], mono["width"]).astype(bool)
    gy, gx = np.mgrid[0:mono["height"], 0:mono["width"]]
    disc = np.hypot(gx + mono["x0"] - OX, gy + mono["y0"] - OY) <= R

    sect = vs.viewshed_sectors(tiles, OX, OY, R, n_sectors=8,
                               observer_height=2.0).take_all()
    assert len(sect) == 8
    recon = np.zeros_like(mvis)
    n_cells = 0
    for r in sect:
        v = np.frombuffer(r["data"], dtype=np.uint8).reshape(
            r["height"], r["width"]).astype(bool)
        oy0, ox0 = r["y0"] - mono["y0"], r["x0"] - mono["x0"]
        assert not (recon[oy0:oy0 + r["height"], ox0:ox0 + r["width"]] & v).any(), \
            "sector masks must be disjoint"
        recon[oy0:oy0 + r["height"], ox0:ox0 + r["width"]] |= v
        n_cells += r["n_cells"]
    assert n_cells == int(disc.sum())  # every disc cell in exactly one sector
    assert (recon == (mvis & disc)).all()


def test_viewshed_cumulative_matches_observer_sum(ray_session):
    """Cumulative mode (alg/viewshed/cumulative.cpp): the heat map equals
    the sum of per-observer normal-mode masks."""
    import numpy as np

    from gdal_ray.stages.viewshed import viewshed_array, viewshed_cumulative

    gy, gx = np.mgrid[0:48, 0:48]
    dem = (((gx * 7 + gy * 13) % 19) + ((gx * gy) % 5) * 4).astype(np.float64)
    heat = viewshed_cumulative(dem, spacing=12, observer_height=1.0, batch_size=3)
    ref = np.zeros_like(heat)
    for oy in range(0, 48, 12):
        for ox in range(0, 48, 12):
            ref += viewshed_array(dem, ox, oy, 1.0)
    assert np.array_equal(heat, ref)
    # every observer sees its own cell
    assert (heat[::12, ::12] >= 1).all()


def test_viewshed_cumulative_tiled_matches_monolithic(ray_session):
    """Round 5: the tile-keyed groupby plan (the scale default) is exactly
    the monolithic whole-raster fold, incl. edge tiles and a radius that
    covers the full DEM."""
    import numpy as np

    from gdal_ray.stages import viewshed as vs

    rng = np.random.default_rng(5)
    dem = (rng.random((130, 170)) * 40).astype(np.float64)
    mono = vs.viewshed_cumulative(dem, spacing=48, observer_height=2.0)
    tiles = vs.viewshed_cumulative_tiles(dem, spacing=48,
                                         observer_height=2.0, tile=64)
    heat = np.zeros_like(mono)
    for row in tiles.iter_rows():
        ty, tx = row["ty"], row["tx"]
        heat[ty * 64:ty * 64 + row["height"],
             tx * 64:tx * 64 + row["width"]] = np.frombuffer(
            row["counts"], np.int64).reshape(row["height"], row["width"])
    assert (heat == mono).all()


def test_viewshed_cumulative_radius_bounded(ray_session):
    """A radius >= DEM diameter reproduces the unbounded result through
    the auto plan; a small radius only counts in-disc cells."""
    import numpy as np

    from gdal_ray.stages import viewshed as vs

    dem = np.zeros((96, 96))
    full = vs.viewshed_cumulative(dem, spacing=96)
    got = vs.viewshed_cumulative_auto(dem, spacing=96, radius=200, tile=64)
    assert (got == full).all()
    small = vs.viewshed_cumulative_auto(dem, spacing=96, radius=10, tile=64)
    assert small[0, :11].all() and small[0, 11:].sum() == 0
