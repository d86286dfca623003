"""``pyramid._grid_sample`` against the masked-compaction formula it replaced:
bit-identical nearest and bilinear taps on tiles that straddle the source
edge (sources down to no pixels), with and without a ``valid`` canvas mask,
and nodata without a RuntimeWarning for NaN and ±inf coordinates."""
import warnings

import numpy as np
import pytest

from gdal_ray.stages import pyramid as pyr


def _masked_grid_sample(a, px, py, resample, nodata, valid=None):
    """The compacting formula: every array masked by ``ok`` before the taps."""
    h, w = a.shape
    if resample == "nearest":
        cx = np.floor(px).astype(np.int64)
        cy = np.floor(py).astype(np.int64)
        ok = (cx >= 0) & (cx < w) & (cy >= 0) & (cy < h)
        if valid is not None:
            okc = ok.copy()
            okc[ok] = valid[cy[ok], cx[ok]]
            ok = okc
        out = np.full(px.shape, nodata)
        out[ok] = a[cy[ok], cx[ok]]
        return out
    fx = px - 0.5
    fy = py - 0.5
    x0 = np.floor(fx).astype(np.int64)
    y0 = np.floor(fy).astype(np.int64)
    tx = fx - x0
    ty = fy - y0
    ok = (x0 >= 0) & (x0 + 1 < w) & (y0 >= 0) & (y0 + 1 < h)
    if valid is not None:
        okc = ok.copy()
        okc[ok] = (valid[y0[ok], x0[ok]] & valid[y0[ok], x0[ok] + 1]
                   & valid[y0[ok] + 1, x0[ok]] & valid[y0[ok] + 1, x0[ok] + 1])
        ok = okc
    out = np.full(px.shape, nodata)
    out[ok] = (
        a[y0[ok], x0[ok]] * (1 - tx[ok]) * (1 - ty[ok])
        + a[y0[ok], x0[ok] + 1] * tx[ok] * (1 - ty[ok])
        + a[y0[ok] + 1, x0[ok]] * (1 - tx[ok]) * ty[ok]
        + a[y0[ok] + 1, x0[ok] + 1] * tx[ok] * ty[ok]
    )
    return out


def _straddling_tile(rng, h, w, t=64):
    """A rotated, scaled t x t sample grid whose centre lies near a random
    source corner or edge, so part of it falls off the source."""
    cy, cx = rng.choice([0.0, h / 2, h]), rng.choice([0.0, w / 2, w])
    ang, scale = rng.uniform(0, np.pi), rng.uniform(0.2, 1.5)
    g = (np.arange(t) - t / 2) * scale
    gx, gy = np.meshgrid(g, g)
    px = cx + gx * np.cos(ang) - gy * np.sin(ang) + rng.uniform(-1, 1)
    py = cy + gx * np.sin(ang) + gy * np.cos(ang) + rng.uniform(-1, 1)
    return px, py


@pytest.mark.parametrize("resample", ["nearest", "bilinear"])
@pytest.mark.parametrize("with_valid", [False, True])
def test_matches_masked_formula_across_the_edge(resample, with_valid):
    rng = np.random.default_rng(21)
    shapes = [(0, 5), (1, 1), (1, 7), (6, 1), (2, 2)] + [tuple(rng.integers(3, 40, 2))
                                                           for _ in range(19)]
    for case, (h, w) in enumerate(shapes):
        a = rng.normal(100.0, 30.0, (h, w))
        valid = rng.random((h, w)) < 0.8 if with_valid else None
        px, py = _straddling_tile(rng, h, w)
        nodata = [-9999.0, 0.0, np.nan][case % 3]
        got = pyr._grid_sample(a, px, py, resample, nodata, valid)
        want = _masked_grid_sample(a, px, py, resample, nodata, valid)
        assert got.dtype == want.dtype and got.shape == want.shape
        # bit-identical, nodata (NaN included) in the same places
        assert got.tobytes() == want.tobytes(), (case, h, w)
        inside = ~np.isnan(want) if np.isnan(nodata) else want != nodata
        assert 0 < inside.sum() < want.size or min(h, w) < 2


@pytest.mark.parametrize("resample", ["nearest", "bilinear"])
def test_non_finite_coordinates_give_nodata_quietly(resample):
    a = np.arange(36.0).reshape(6, 6)
    px = np.array([np.nan, np.inf, -np.inf, 2.5, 2.5, 1e300, 3.2])
    py = np.array([2.5, 2.5, 2.5, np.nan, np.inf, 2.5, 3.7])
    valid = np.ones((6, 6), bool)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = pyr._grid_sample(a, px, py, resample, -1.0)
        out_v = pyr._grid_sample(a, px, py, resample, -1.0, valid)
    assert (out[:-1] == -1.0).all() and out[-1] != -1.0
    assert out_v.tobytes() == out.tobytes()
