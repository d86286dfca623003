"""LRU raster block cache (state/blockcache.py; reference
gcore/gdalrasterblock.cpp Touch/FlushBlock) and its TileWarper integration."""
import numpy as np
import pytest

from gdal_ray.functions import geo
from gdal_ray.stages import pyramid as pyr


def _arr(n=512):
    gy, gx = np.mgrid[0:n, 0:n]
    return (gx + gy).astype(np.float64) + 1.0


GT = (-45.0, 90.0 / 512, 0.0, 45.0, 0.0, -90.0 / 512)


def test_block_window_assembly_and_lru(ray_session):
    from gdal_ray.state.blockcache import BlockCache, RasterBlockStore

    a = _arr()
    store = RasterBlockStore.put(a, GT, block=128)
    assert len(store.refs) == 16
    cache = BlockCache(store, capacity=8)
    # window spanning a 2x2 block corner
    W, ox, oy = cache.window(100, 160, 100, 160)
    assert (W == a[100:160, 100:160]).all() and (ox, oy) == (100, 100)
    assert cache.misses == 4 and cache.hits == 0
    # same window again: all resident -> pure hits
    cache.window(100, 160, 100, 160)
    assert cache.hits == 4 and cache.misses == 4
    # capacity bound enforced under a scan wider than the cache
    small = BlockCache(store, capacity=3)
    small.window(0, 512, 0, 512)
    assert small.misses == 16 and len(small._lru) == 3
    # clipping at the raster edge
    W, ox, oy = cache.window(-10, 20, 500, 600)
    assert W.shape == (20, 12) and (ox, oy) == (500, 0)
    assert (W == a[0:20, 500:512]).all()
    # empty intersection
    W, _, _ = cache.window(600, 700, 0, 10)
    assert W.size == 0


def test_block_window_straddles_block_edges_and_border(ray_session):
    from gdal_ray.state.blockcache import BlockCache, RasterBlockStore

    # 200 x 300 in 64-px blocks: the last block row is 8 px, the last column 44
    gy, gx = np.mgrid[0:200, 0:300]
    a = (gx * 1000 + gy).astype(np.float64) + 0.5
    cache = BlockCache(RasterBlockStore.put(a, GT, block=64), capacity=64)
    for y0, y1, x0, x1 in [(63, 65, 63, 65), (0, 200, 0, 300), (-5, 7, 250, 310),
                           (190, 230, -20, 70), (128, 129, 255, 257),
                           (60, 140, 100, 300), (199, 200, 299, 300)]:
        W, ox, oy = cache.window(y0, y1, x0, x1)
        ys, xs = slice(max(0, y0), min(200, y1)), slice(max(0, x0), min(300, x1))
        assert W.dtype == np.float64 and (ox, oy) == (xs.start, ys.start)
        assert W.shape == a[ys, xs].shape and (W == a[ys, xs]).all()
    assert (cache.hits, cache.misses) == (25, 20)

def test_warp_blocked_source_matches_broadcast(ray_session):
    from gdal_ray.state.blockcache import RasterBlockStore

    a = _arr()
    src = pyr.SourceRaster(a, GT)
    store = RasterBlockStore.put(a, GT, block=128)
    for resample in ("nearest", "bilinear"):
        full = pyr.warp_to_tiles(src, 3, (-40, -40, 40, 40), tile_px=32,
                                 resample=resample).take_all()
        blocked = pyr.warp_to_tiles(store, 3, (-40, -40, 40, 40), tile_px=32,
                                    resample=resample).take_all()
        fb = {(r["x"], r["y"]): (r["checksum"], r["data"]) for r in full}
        bb = {(r["x"], r["y"]): (r["checksum"], r["data"]) for r in blocked}
        assert fb == bb


def test_warp_blocked_source_rejects_area_kernels(ray_session):
    from gdal_ray.state.blockcache import RasterBlockStore

    store = RasterBlockStore.put(_arr(64), GT, block=32)
    with pytest.raises(ValueError, match="block-cached"):
        pyr.TileWarper(store, resample="cubic")
