"""fill-nodata + median-cut palette tests."""

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

from gdal_ray.stages import fillpalette
from tests.test_collar import _tiles_from_mosaic


def test_fill_nodata_fills_holes_cross_tile():
    size = 16
    arr = np.full((32, 32), 50, dtype=np.uint8)
    arr[10:14, 14:18] = 0   # hole straddling the vertical tile border
    arr[0, 0] = 0           # corner hole
    tiles = _tiles_from_mosaic(arr, size)
    out = fillpalette.fill_nodata(rd.from_arrow(tiles), nodata=0.0, max_dist=8).take_all()
    got = np.zeros((32, 32))
    for r in out:
        a = np.frombuffer(r["data"], np.float64).reshape(size, size)
        got[r["y"] * size : (r["y"] + 1) * size, r["x"] * size : (r["x"] + 1) * size] = a
    # every hole filled with the (uniform) neighborhood value
    assert np.allclose(got, 50.0)


def test_fill_nodata_gradient_weighted():
    size = 16
    gy, gx = np.mgrid[0:16, 0:32]
    arr = (10 + gx * 2).astype(np.uint8)
    arr[8, 16] = 0  # hole at the tile border of a horizontal gradient
    tiles = _tiles_from_mosaic(arr, size)
    out = fillpalette.fill_nodata(rd.from_arrow(tiles), nodata=0.0, max_dist=4).take_all()
    got = {}
    for r in out:
        got[(r["x"], r["y"])] = np.frombuffer(r["data"], np.float64).reshape(size, size)
    v = got[(1, 0)][8, 0]
    # IDW of a linear ramp at the hole center ~ the ramp value there (10+16*2)
    assert abs(v - 42.0) < 2.0


def test_fill_nodata_rejects_a_halo_wider_than_a_tile():
    # the halo comes from the 8 neighbours only: a 9-px window over 8-px
    # tiles would skip the pixels of the tiles two away
    arr = np.full((8, 24), 50, dtype=np.uint8)
    arr[4, 12] = 0
    tiles = _tiles_from_mosaic(arr, 8)
    with pytest.raises(ValueError, match="wider than"):
        fillpalette.fill_nodata(rd.from_arrow(tiles), nodata=0.0, max_dist=9).take_all()


def _rgb_tiles():
    size = 8
    rows = []
    rng = np.random.default_rng(5)
    base_colors = np.array([[250, 10, 10], [10, 250, 10], [10, 10, 250], [200, 200, 200]])
    for ty in range(2):
        for tx in range(2):
            c = base_colors[ty * 2 + tx]
            rgb = np.clip(c + rng.integers(-8, 8, (size * size, 3)), 0, 255).astype(np.uint8)
            rows.append({"x": tx, "y": ty, "width": size, "height": size, "data": rgb.tobytes()})
    return pa.Table.from_pylist(rows)


def test_median_cut_palette_and_remap():
    tiles = _rgb_tiles()
    hist = fillpalette.color_histogram(rd.from_arrow(tiles), bits=5)
    assert hist.sum() == 4 * 64
    pal = fillpalette.median_cut(hist, n_colors=4, bits=5)
    assert pal.shape == (4, 3)
    # the four cluster colors should each have a close palette entry
    for c in [[250, 10, 10], [10, 250, 10], [10, 10, 250], [200, 200, 200]]:
        d = np.abs(pal.astype(int) - np.array(c)).sum(axis=1).min()
        assert d < 60, (c, pal)
    out = fillpalette.apply_palette(rd.from_arrow(tiles), pal).take_all()
    # each tile maps to a single dominant palette index
    for r in out:
        idx = np.frombuffer(r["data"], np.uint8)
        vals, counts = np.unique(idx, return_counts=True)
        assert counts.max() >= 0.9 * idx.size


def test_expand_palette_roundtrip():
    """pct2rgb inverts rgb2pct up to quantization: every reconstructed pixel
    is a palette color, and it is the palette color nearest the original."""
    tiles = _rgb_tiles()
    hist = fillpalette.color_histogram(rd.from_arrow(tiles), bits=5)
    pal = fillpalette.median_cut(hist, n_colors=4, bits=5)
    idx = fillpalette.apply_palette(rd.from_arrow(tiles), pal)
    back = fillpalette.expand_palette(idx, pal).take_all()
    orig = {(r["x"], r["y"]): np.frombuffer(r["data"], np.uint8).reshape(-1, 3)
            for r in tiles.to_pylist()}
    palf = pal.astype(np.float64)
    for r in back:
        rgb = np.frombuffer(r["data"], np.uint8).reshape(-1, 3)
        src = orig[(r["x"], r["y"])]
        d2 = ((src[:, None, :].astype(np.float64) - palf[None, :, :]) ** 2).sum(axis=2)
        expect = pal.astype(np.uint8)[np.argmin(d2, axis=1)]
        assert (rgb == expect).all()


def test_pansharpen_brovey():
    size = 8
    rgb = np.full((size, size, 3), 60, dtype=np.uint8)
    pan = np.full((size * 2, size * 2), 120.0)  # pan twice as bright as pseudo
    t = pa.Table.from_pylist([{
        "x": 0, "y": 0, "width": size, "height": size,
        "data": rgb.tobytes(), "pan": pan.tobytes(),
    }])
    out = fillpalette.pansharpen(rd.from_arrow(t), pan_scale=2).take_all()
    got = np.frombuffer(out[0]["data"], np.uint8).reshape(size * 2, size * 2, 3)
    assert (got == 120).all()  # ratio 2.0 applied to every band
    assert out[0]["width"] == size * 2


def test_dither_ordered_tiled_equals_monolithic(ray_session):
    """Ordered dithering is per-pixel deterministic: per-tile histograms must
    equal the same formula applied to the assembled mosaic."""
    import numpy as np
    import ray.data as rd

    from gdal_ray.sources import synthetic
    from gdal_ray.stages.fillpalette import BAYER8, dither_ordered

    pal = np.array([0, 64, 128, 192, 256, 320, 384], dtype=np.int64)
    tiles = synthetic.make_raster_tiles("ramp", 3, 2, size=32)
    rows = dither_ordered(rd.from_arrow(tiles), pal, spread=24).take_all()

    gy, gx = np.mgrid[0:64, 0:96]
    adj = 64 * (gx + gy) + (2 * BAYER8[gy % 8, gx % 8] - 63) * 24
    idx = np.argmin(np.abs(adj[:, :, None] - 64 * pal[None, None, :]), axis=2)
    for r in rows:
        sub = idx[r["y"] * 32:(r["y"] + 1) * 32, r["x"] * 32:(r["x"] + 1) * 32]
        assert r["n"] == int((sub == r["idx"]).sum())
    # ties break to the smaller index (argmin returns the first minimum):
    # adj=2048 is equidistant from palette 0 (64*0) and 64 (64*64=4096)
    d = np.abs(np.array([[2048]]) - 64 * np.array([0, 64]))
    assert int(np.argmin(d)) == 0
