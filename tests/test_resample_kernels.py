"""Warp / overview resampling kernels vs scalar pointwise oracles
(reference semantics: alg/gdalwarper.h:37-67 GRA_* kernel set,
gcore/overview.cpp reduction kernels)."""

import numpy as np
import pytest

from gdal_ray.stages import pyramid as pyr


def _src(arr):
    # gt = (0,1,0,0,0,1): src pixel coords == world coords (tests only)
    return pyr.SourceRaster(arr, (0.0, 1.0, 0.0, 0.0, 0.0, 1.0), nodata=-1.0)


def _warper(arr, resample):
    return pyr.TileWarper(_src(arr), tile_px=4, resample=resample)


@pytest.fixture(scope="module")
def checkerboard():
    gy, gx = np.mgrid[0:16, 0:16]
    return ((gx * 7 + gy * 13) % 23).astype(np.float64)


def _cr_weight(t, off):
    # scalar Catmull-Rom (a = -0.5), independent closed form
    d = abs(t - off)
    if d < 1:
        return 1.5 * d**3 - 2.5 * d**2 + 1
    if d < 2:
        return -0.5 * d**3 + 2.5 * d**2 - 4 * d + 2
    return 0.0


def test_cubic_matches_scalar_oracle(checkerboard):
    w = _warper(checkerboard, "cubic")
    pts = [(3.3, 4.7), (5.5, 5.5), (8.1, 2.9), (10.25, 12.75)]
    lon = np.array([p[0] for p in pts])
    lat = np.array([p[1] for p in pts])
    got = w._sample(lon, lat)
    for i, (px, py) in enumerate(pts):
        fx, fy = px - 0.5, py - 0.5
        x0, y0 = int(np.floor(fx)), int(np.floor(fy))
        tx, ty = fx - x0, fy - y0
        exp = 0.0
        for m in range(-1, 3):
            for n in range(-1, 3):
                exp += (_cr_weight(ty, m) * _cr_weight(tx, n)
                        * checkerboard[np.clip(y0 + m, 0, 15), np.clip(x0 + n, 0, 15)])
        assert got[i] == pytest.approx(exp, abs=1e-9)


def test_cubic_reproduces_linear_ramp():
    gy, gx = np.mgrid[0:16, 0:16]
    ramp = (gx + 2.0 * gy).astype(np.float64)
    w = _warper(ramp, "cubic")
    lon = np.array([4.3, 7.9, 9.5])
    lat = np.array([5.1, 6.6, 8.25])
    got = w._sample(lon, lat)
    # Catmull-Rom reproduces linear functions exactly (interior taps)
    exp = (lon - 0.5) + 2.0 * (lat - 0.5)
    np.testing.assert_allclose(got, exp, atol=1e-9)


def test_cubicspline_partition_of_unity(checkerboard):
    const = np.full((16, 16), 7.25)
    w = _warper(const, "cubicspline")
    got = w._sample(np.array([5.3, 8.8]), np.array([6.1, 3.4]))
    np.testing.assert_allclose(got, 7.25, atol=1e-12)


def test_lanczos_matches_scalar_oracle(checkerboard):
    w = _warper(checkerboard, "lanczos")
    px, py = 7.35, 8.6
    got = w._sample(np.array([px]), np.array([py]))[0]
    fx, fy = px - 0.5, py - 0.5
    x0, y0 = int(np.floor(fx)), int(np.floor(fy))
    tx, ty = fx - x0, fy - y0

    def lz(t, off):
        d = t - off
        if d == 0:
            return 1.0
        x = np.pi * d
        return 3.0 * np.sin(x) * np.sin(x / 3.0) / (x * x)

    wx = [lz(tx, o) for o in range(-2, 4)]
    wy = [lz(ty, o) for o in range(-2, 4)]
    sx, sy = sum(wx), sum(wy)
    exp = 0.0
    for mi, m in enumerate(range(-2, 4)):
        for ni, n in enumerate(range(-2, 4)):
            exp += ((wy[mi] / sy) * (wx[ni] / sx)
                    * checkerboard[np.clip(y0 + m, 0, 15), np.clip(x0 + n, 0, 15)])
    assert got == pytest.approx(exp, abs=1e-9)


@pytest.mark.parametrize(
    "kernel,reduce_fn",
    [
        ("average", lambda v: np.mean(v)),
        ("sum", lambda v: np.sum(v)),
        ("min", lambda v: np.min(v)),
        ("max", lambda v: np.max(v)),
        ("rms", lambda v: np.sqrt(np.mean(np.square(v)))),
        ("med", lambda v: np.percentile(v, 50)),
        ("q1", lambda v: np.percentile(v, 25)),
        ("q3", lambda v: np.percentile(v, 75)),
    ],
)
def test_area_kernels_2x2_footprint(checkerboard, kernel, reduce_fn):
    """A 2x-downscale warp: each dst pixel's footprint covers exactly a 2x2
    source block -> every aggregate equals the block statistic."""
    w = _warper(checkerboard, kernel)
    # corner grids of a 4x4 dst tile covering src [0,8)x[0,8): dst pixel (i,j)
    # footprint = src [2i, 2i+2) x [2j, 2j+2)
    cg = np.arange(5) * 2.0
    cpx, cpy = np.meshgrid(cg, cg)
    got = w._sample_area(cpx, cpy)
    for j in range(4):
        for i in range(4):
            block = checkerboard[2 * j : 2 * j + 2, 2 * i : 2 * i + 2]
            assert got[j, i] == pytest.approx(reduce_fn(block.ravel()), abs=1e-9), (
                kernel, i, j)


def test_area_mode_tie_smallest():
    arr = np.zeros((4, 4))
    arr[0, 0], arr[0, 1], arr[1, 0], arr[1, 1] = 5.0, 5.0, 3.0, 3.0
    w = _warper(arr, "mode")
    cg = np.arange(2) * 2.0
    cpx, cpy = np.meshgrid(cg, cg)
    got = w._sample_area(np.array([[0.0, 2.0], [0.0, 2.0]]),
                         np.array([[0.0, 0.0], [2.0, 2.0]]))
    assert got[0, 0] == 3.0  # 2 fives vs 2 threes -> smallest wins


def test_overview_kernels():
    arr = np.array(
        [[1.0, 2.0, 5.0, 5.0],
         [3.0, 4.0, 5.0, 9.0],
         [0.0, 0.0, 7.0, 7.0],
         [0.0, 8.0, 7.0, 1.0]]
    )
    assert np.array_equal(
        pyr._overview_reduce(arr, "average"), [[2.5, 6.0], [2.0, 5.5]])
    assert np.array_equal(pyr._overview_reduce(arr, "nearest"), [[1.0, 5.0], [0.0, 7.0]])
    assert np.array_equal(pyr._overview_reduce(arr, "min"), [[1.0, 5.0], [0.0, 1.0]])
    assert np.array_equal(pyr._overview_reduce(arr, "max"), [[4.0, 9.0], [8.0, 7.0]])
    assert np.array_equal(pyr._overview_reduce(arr, "sum"), [[10.0, 24.0], [8.0, 22.0]])
    np.testing.assert_allclose(
        pyr._overview_reduce(arr, "rms"),
        np.sqrt([[30.0 / 4, 156.0 / 4], [64.0 / 4, 148.0 / 4]]))
    # mode: [1,2,3,4] all distinct -> smallest; [5,5,9] -> 5; [0,0,0,8] -> 0;
    # [7,7,7,1] -> 7
    assert np.array_equal(pyr._overview_reduce(arr, "mode"), [[1.0, 5.0], [0.0, 7.0]])


def _ramp_src_tiles(n=256, tile=64):
    import pyarrow as pa

    gy, gx = np.mgrid[0:n, 0:n]
    arr = (gx + gy).astype(np.float64) + 1.0
    rows = []
    for ty in range(n // tile):
        for tx in range(n // tile):
            sub = arr[ty * tile : (ty + 1) * tile, tx * tile : (tx + 1) * tile]
            rows.append({"x": tx, "y": ty, "width": tile, "height": tile,
                         "dtype": "float64", "data": np.ascontiguousarray(sub).tobytes()})
    return pa.Table.from_pylist(rows)


@pytest.mark.parametrize("resample", ["nearest", "bilinear"])
def test_warp_tiles_join_matches_broadcast(resample):
    """The no-broadcast tile-join warp produces the SAME tiles/checksums as
    the broadcast-source TileWarper (the 100 TB plan equivalence)."""
    import ray.data as rd

    n = 256
    gt = (-60.0, 120.0 / n, 0.0, 60.0, 0.0, -120.0 / n)
    gy, gx = np.mgrid[0:n, 0:n]
    src = pyr.SourceRaster((gx + gy).astype(np.float64) + 1.0, gt)
    bro = pyr.warp_to_tiles(src, 4, (-59, -59, 59, 59), tile_px=64,
                            resample=resample, skip_blank=False)
    bmap = {(r["x"], r["y"]): r["checksum"] for r in bro.take_all()
            if not r["blank"]}
    join = pyr.warp_tiles_join(rd.from_arrow(_ramp_src_tiles(n, 64)), gt, 4,
                               tile_px=64, resample=resample, src_tile_size=64)
    jmap = {(r["x"], r["y"]): r["checksum"] for r in join.take_all()}
    assert bmap, "broadcast produced no non-blank tiles"
    for k, v in bmap.items():
        assert k in jmap and jmap[k] == v, (resample, k, v, jmap.get(k))


def test_warp_affine_identity_and_bilinear(ray_session):
    """warp_affine: an identity target grid reproduces the source exactly
    (nearest); a half-pixel-shifted bilinear grid averages neighbors; edge
    tiles clip and keep their nominal tile indices."""
    import numpy as np

    from gdal_ray.stages import pyramid

    row = np.arange(40, dtype=np.float64)
    arr = row[None, :] + 10.0 * row[:, None]
    src = pyramid.SourceRaster(arr, gt=(0.0, 1.0, 0.0, 40.0, 0.0, -1.0),
                               nodata=-1.0)
    # identity grid: dst pixel centers == src pixel centers
    rows = pyramid.warp_affine(src, dst_gt=(0.0, 1.0, 0.0, 40.0, 0.0, -1.0),
                               width=40, height=40, resample="nearest",
                               tile=32).take_all()
    assert sorted((r["x"], r["y"], r["width"], r["height"]) for r in rows) == [
        (0, 0, 32, 32), (0, 1, 32, 8), (1, 0, 8, 32), (1, 1, 8, 8)]
    got = np.zeros((40, 40))
    for r in rows:
        a = np.frombuffer(r["data"], np.float64).reshape(r["height"], r["width"])
        got[r["y"] * 32:r["y"] * 32 + r["height"],
            r["x"] * 32:r["x"] * 32 + r["width"]] = a
    assert np.array_equal(got, arr)
    # half-pixel shift, bilinear: value = average of 2x2 neighborhood
    rows2 = pyramid.warp_affine(src, dst_gt=(0.5, 1.0, 0.0, 39.5, 0.0, -1.0),
                                width=39, height=39, resample="bilinear",
                                tile=64).take_all()
    a2 = np.frombuffer(rows2[0]["data"], np.float64).reshape(39, 39)
    expect = (arr[:-1, :-1] + arr[:-1, 1:] + arr[1:, :-1] + arr[1:, 1:]) / 4.0
    assert np.allclose(a2, expect)


def test_refresh_overviews(ray_session):
    """gdaladdo --refresh: only parents of dirty base tiles recompute;
    clean children still feed the quad; any tile dtype accepted."""
    import pyarrow as pa
    import ray.data as rd

    from gdal_ray.sources import synthetic
    from gdal_ray.stages import pyramid

    base = synthetic.make_raster_tiles("hump", 4, 4, size=64)
    out = pyramid.refresh_overviews(rd.from_arrow(base), [(2, 2)],
                                    kernel="average").to_pandas()
    assert len(out) == 1
    r = out.iloc[0]
    assert (r["x"], r["y"]) == (1, 1)
    a = np.frombuffer(r["data"], dtype=np.float64).reshape(64, 64)
    # spot-check quadrant placement: parent pixel (0,0) = mean of base
    # (128,128)..(129,129) hump values
    gy, gx = np.mgrid[128:130, 128:130]
    exp = (((gx - 96) ** 2 + (gy - 96) ** 2) / 64.0).mean()
    assert a[0, 0] == exp
    # dirty in two quads -> two parents
    out2 = pyramid.refresh_overviews(rd.from_arrow(base), [(0, 0), (3, 3)],
                                     kernel="max").to_pandas()
    assert sorted(zip(out2["x"], out2["y"])) == [(0, 0), (1, 1)]
    import pytest as _pt
    with _pt.raises(ValueError):
        pyramid.refresh_overviews(rd.from_arrow(base), [])
