"""Block-decomposed raster store + per-process LRU block cache.

Role model: the reference's raster block cache (``gcore/gdalrasterblock.cpp``
:140-152 — GDALRasterBlock LRU touch/flush; ``gcore/rasterio.cpp`` windowed
reads).  Ray-native shape: the source raster is ``ray.put`` ONCE as a grid of
independent block objects (not one monolithic array), and each warp/lookup
worker holds a small LRU of the blocks its tiles actually touch — sparse
access to a huge mosaic ships only the hot blocks to each node instead of
broadcasting the whole raster (the VERDICT r02 hazard on
``pyramid.TileWarper``).
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from ..functions.tilerow import paste


class RasterBlockStore:
    """A georeferenced raster sharded into object-store blocks.

    Carries the same (gt, crs, nodata) surface as ``pyramid.SourceRaster``
    so consumers can treat either as a source descriptor; pixel data lives
    behind ``refs[(by, bx)]`` object refs, fetched through a BlockCache.
    """

    def __init__(self, refs: dict, shape: tuple, block: int, gt, crs: str,
                 nodata: float):
        self.refs = refs
        self.shape = tuple(shape)
        self.block = int(block)
        self.gt = tuple(gt)
        self.crs = crs
        self.nodata = float(nodata)

    @classmethod
    def put(cls, arr: np.ndarray, gt, crs: str = "EPSG:4326",
            nodata: float = 0.0, block: int = 256) -> "RasterBlockStore":
        """Shard ``arr`` into block x block tiles and ray.put each once."""
        import ray

        a = np.asarray(arr, dtype=np.float64)
        h, w = a.shape
        refs = {}
        for by in range(0, h, block):
            for bx in range(0, w, block):
                refs[(by // block, bx // block)] = ray.put(
                    np.ascontiguousarray(a[by:by + block, bx:bx + block]))
        return cls(refs, (h, w), block, gt, crs, nodata)


class BlockCache:
    """Per-process LRU over a RasterBlockStore's blocks.

    ``window(y0, y1, x0, x1)`` assembles a contiguous float64 window
    (half-open, clipped to the raster) from cached blocks, fetching misses
    from the object store; eviction is least-recently-used once more than
    ``capacity`` blocks are resident (gdalrasterblock.cpp Touch/FlushBlock).
    ``hits`` / ``misses`` count block lookups for observability.
    """

    def __init__(self, store: RasterBlockStore, capacity: int = 64):
        self.store = store
        self.capacity = int(capacity)
        self._lru: OrderedDict[tuple, np.ndarray] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def _block(self, by: int, bx: int) -> np.ndarray:
        key = (by, bx)
        blk = self._lru.get(key)
        if blk is not None:
            self.hits += 1
            self._lru.move_to_end(key)
            return blk
        import ray

        self.misses += 1
        blk = ray.get(self.store.refs[key])
        self._lru[key] = blk
        if len(self._lru) > self.capacity:
            self._lru.popitem(last=False)
        return blk

    def window(self, y0: int, y1: int, x0: int, x1: int):
        """(window_array, ox, oy): the clipped half-open window and the
        global coordinates of its (0, 0) pixel.  Empty intersection returns
        a (0, 0) array."""
        h, w = self.store.shape
        y0c, y1c = max(0, int(y0)), min(h, int(y1))
        x0c, x1c = max(0, int(x0)), min(w, int(x1))
        if y0c >= y1c or x0c >= x1c:
            return np.empty((0, 0), dtype=np.float64), x0c, y0c
        B = self.store.block
        out = np.empty((y1c - y0c, x1c - x0c), dtype=np.float64)
        for by in range(y0c // B, (y1c - 1) // B + 1):
            for bx in range(x0c // B, (x1c - 1) // B + 1):
                paste(out, self._block(by, bx), bx * B - x0c, by * B - y0c)
        return out, x0c, y0c

    def window_for(self, px: np.ndarray, py: np.ndarray, margin: int = 2):
        """Window covering fractional source coordinates px/py plus a
        resampling-kernel margin."""
        if px.size == 0:
            return np.empty((0, 0), dtype=np.float64), 0, 0
        x0 = int(np.floor(px.min())) - margin
        x1 = int(np.ceil(px.max())) + margin + 1
        y0 = int(np.floor(py.min())) - margin
        y1 = int(np.ceil(py.max())) + margin + 1
        return self.window(y0, y1, x0, x1)
