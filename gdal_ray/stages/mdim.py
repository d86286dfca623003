"""Multidimensional arrays (MDArray) — GDAL's multidim data model on Ray.

Re-answers the reference's multidim surface — ``gcore/gdalmultidim.cpp``
(GDALGroup / GDALMDArray / GDALDimension), ``apps/gdalmdiminfo_lib.cpp``
(structure report) and ``apps/gdalmdimtranslate_lib.cpp`` (subset / slice /
transpose / export-to-classic-raster) — for N-dimensional variables stored
in the in-repo netCDF classic container.

Ray-Data shape: the unit of streaming is the CHUNK (a rectangular N-D
hyperslab).  Chunk COORDINATES are enumerated driver-side (metadata only,
O(#chunks) tiny rows); pixel bytes are read inside ``map_batches`` tasks
via windowed memmap (``sources/netcdf3.read_netcdf3_hyperslab``), so a
100 GB variable never transits the driver.  Axis reductions
(time-mean/sum/min/max — the climatology workload) are per-chunk partials
along the reduced axis followed by ONE keyed groupby over the remaining
chunk grid; every fold is elementwise over equal-shape partial buffers, so
the shuffle moves exactly one reduced-chunk payload per input chunk and the
result is independent of fold order (int64-exact for integer inputs).

Chunk row schema (shared by every stage here):
  ``ckey`` int64 row-major chunk key | ``idx`` list<int32> chunk indices |
  ``shape`` list<int32> actual (edge-clipped) chunk shape | ``dtype`` str |
  ``data`` binary C-order bytes.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..functions.tilerow import decode, paste
from .relational import cogroup


class MDim:
    """Metadata for a chunked N-D array: dim names/sizes + chunk sizes.

    Pure metadata (picklable, tiny) — travels to tasks by closure, never
    holds pixels.  Mirrors GDALMDArray's dimension list
    (gcore/gdalmultidim.cpp GetDimensions)."""

    def __init__(self, dims: list[tuple[str, int]], chunks: list[int]):
        if len(dims) != len(chunks):
            raise ValueError(f"{len(dims)} dims vs {len(chunks)} chunk sizes")
        for (name, size), c in zip(dims, chunks):
            if size <= 0 or c <= 0:
                raise ValueError(f"dim {name!r}: size {size}, chunk {c}")
        self.dims = list(dims)
        self.chunks = list(chunks)

    @property
    def names(self) -> list[str]:
        return [n for n, _ in self.dims]

    @property
    def sizes(self) -> list[int]:
        return [s for _, s in self.dims]

    @property
    def grid(self) -> list[int]:
        return [-(-s // c) for s, c in zip(self.sizes, self.chunks)]

    def ndim(self) -> int:
        return len(self.dims)

    def axis(self, dim: str) -> int:
        try:
            return self.names.index(dim)
        except ValueError:
            raise KeyError(f"dim {dim!r} not in {self.names}") from None

    def ckey_of(self, idx) -> int:
        """Row-major chunk key over the chunk grid."""
        k = 0
        for i, g in zip(idx, self.grid):
            k = k * g + int(i)
        return k

    def chunk_bounds(self, idx) -> tuple[list[int], list[int]]:
        starts = [int(i) * c for i, c in zip(idx, self.chunks)]
        counts = [min(c, s - st)
                  for c, s, st in zip(self.chunks, self.sizes, starts)]
        return starts, counts

    def drop(self, axis: int) -> "MDim":
        return MDim([d for k, d in enumerate(self.dims) if k != axis],
                    [c for k, c in enumerate(self.chunks) if k != axis])

    def permute(self, order: list[int]) -> "MDim":
        return MDim([self.dims[k] for k in order],
                    [self.chunks[k] for k in order])


_CHUNK_SCHEMA = pa.schema([
    ("ckey", pa.int64()),
    ("idx", pa.list_(pa.int32())),
    ("shape", pa.list_(pa.int32())),
    ("dtype", pa.string()),
    ("data", pa.binary()),
])


def _chunk_table(keys, idxs, shapes, dtypes, datas) -> pa.Table:
    return pa.table({
        "ckey": pa.array(keys, pa.int64()),
        "idx": pa.array(idxs, pa.list_(pa.int32())),
        "shape": pa.array(shapes, pa.list_(pa.int32())),
        "dtype": pa.array(dtypes, pa.string()),
        "data": pa.array(datas, pa.binary()),
    })


def _empty_chunks() -> pa.Table:
    return _CHUNK_SCHEMA.empty_table()


def _rows(batch: pa.Table):
    """Decode chunk rows -> (idx tuple, np array) pairs (zero parse state)."""
    idxs = batch["idx"].to_pylist()
    shapes = batch["shape"].to_pylist()
    dts = batch["dtype"].to_pylist()
    datas = batch["data"].to_pylist()
    for i in range(batch.num_rows):
        yield tuple(idxs[i]), decode(datas[i], dts[i], shapes[i])


def _mdim_backend(path: str):
    """Container dispatch by magic: netCDF4/HDF5 -> sources.hdf5, classic
    netCDF3 -> sources.netcdf3 (frmts/netcdf's dual-container behavior)."""
    import os

    from ..sources import hdf5, netcdf3, zarr2

    if os.path.isdir(path):
        if zarr2.is_zarr(path):
            return zarr2
        raise ValueError(f"{path}: directory is not a Zarr store")
    if hdf5.is_hdf5(path):
        return hdf5
    return netcdf3


def _backend_header(path: str):
    be = _mdim_backend(path)
    return be, be.read_header(path)


def _backend_hyperslab(path: str, var: str, starts, counts):
    be = _mdim_backend(path)
    if hasattr(be, "read_hyperslab"):
        return be.read_hyperslab(path, var, starts, counts)
    return be.read_netcdf3_hyperslab(path, var, starts, counts)


def mdim_info(path: str) -> pa.Table:
    """``gdalmdiminfo``-style structure report: one row per variable with
    its dimension names, sizes, dtype and element count, plus one row per
    named dimension (kind='dimension').  Header parse only — O(metadata)
    regardless of variable sizes (apps/gdalmdiminfo_lib.cpp).  Works over
    classic netCDF3 AND netCDF4/HDF5 containers (magic-dispatched)."""
    from ..sources import netcdf3

    _be, (dims, meta, _g) = _backend_header(path)
    kind, name, dnames, shp, dts, nval = [], [], [], [], [], []
    for d, n in dims.items():
        kind.append("dimension"); name.append(d)
        dnames.append(d); shp.append(str(n)); dts.append(""); nval.append(n)
    for v, (vdims, shape, t, _begin, _atts, _stride) in meta.items():
        kind.append("array"); name.append(v)
        dnames.append(",".join(vdims))
        shp.append(",".join(str(s) for s in shape))
        dts.append(t if isinstance(t, str)
                   else np.dtype(netcdf3._NP_OF[t]).name)
        nval.append(int(np.prod(shape)) if shape else 1)
    return pa.table({"kind": pa.array(kind), "name": pa.array(name),
                     "dims": pa.array(dnames), "shape": pa.array(shp),
                     "dtype": pa.array(dts),
                     "n_values": pa.array(nval, pa.int64())})


def read_mdarray_chunks(path: str, var: str, chunks: dict[str, int]):
    """Open a netCDF variable as a streaming chunk Dataset.

    Driver side builds only the chunk-coordinate table (O(#chunks) rows of
    ints); each ``map_batches`` task memmap-reads its own hyperslabs
    (``nc_get_vara`` semantics), so workers fault in only the bytes of the
    chunks they own.  Returns ``(Dataset of chunk rows, MDim)``."""
    import ray.data as rd

    _be, (_dims, meta, _g) = _backend_header(path)
    if var not in meta:
        raise KeyError(f"variable {var!r} not in {sorted(meta)}")
    vdims, shape, _t, _begin, _atts, _stride = meta[var]
    for d in vdims:
        if d not in chunks:
            raise ValueError(f"no chunk size for dim {d!r}; got {chunks}")
    md = MDim(list(zip(vdims, shape)), [int(chunks[d]) for d in vdims])

    grid = md.grid
    coords = np.stack(np.meshgrid(*[np.arange(g) for g in grid],
                                  indexing="ij"), axis=-1).reshape(-1, len(grid))
    index = pa.table({"idx": pa.array(coords.astype(np.int32).tolist(),
                                      pa.list_(pa.int32()))})

    def load(batch: pa.Table) -> pa.Table:
        keys, idxs, shapes, dts, datas = [], [], [], [], []
        for idx in batch["idx"].to_pylist():
            starts, counts = md.chunk_bounds(idx)
            a = _backend_hyperslab(path, var, starts, counts)
            keys.append(md.ckey_of(idx))
            idxs.append(idx)
            shapes.append(list(a.shape))
            dts.append(a.dtype.name)
            datas.append(np.ascontiguousarray(a).tobytes())
        if not keys:
            return _empty_chunks()
        return _chunk_table(keys, idxs, shapes, dts, datas)

    n_chunks = len(coords)
    ds = rd.from_arrow(index).repartition(min(n_chunks, 32)).map_batches(
        load, batch_format="pyarrow")
    return ds, md


_REDUCE_OPS = ("sum", "mean", "min", "max", "count")


def axis_reduce(ds, md: MDim, dim: str, op: str = "sum"):
    """Reduce one named dimension away (``mean`` over time is the
    archetype; reference: gdalmdimtranslate's view pipeline + the
    GDALMDArray::GetMean family of per-array statistics).

    Two-phase: per-chunk partial along the reduced axis (int64-exact sums
    for integer inputs), then ONE groupby over the remaining chunk grid
    folding equal-shape buffers elementwise.  Returns ``(Dataset, MDim)``
    of rank N-1 chunks; dtype: int64 for sum/count of ints, float64 for
    mean / float sums, input dtype for min/max."""
    if op not in _REDUCE_OPS:
        raise ValueError(f"op {op!r} not in {_REDUCE_OPS}")
    ax = md.axis(dim)
    rmd = md.drop(ax)

    def partial(batch: pa.Table) -> pa.Table:
        keys, idxs, shapes, dts, datas = [], [], [], [], []
        for idx, a in _rows(batch):
            ridx = [v for k, v in enumerate(idx) if k != ax]
            if op in ("sum", "mean", "count"):
                acc = (np.int64 if a.dtype.kind in "iub" else np.float64)
                p = a.sum(axis=ax, dtype=acc)
                if op == "count":
                    p = np.full(p.shape, a.shape[ax], dtype=np.int64)
            elif op == "min":
                p = a.min(axis=ax)
            else:
                p = a.max(axis=ax)
            if op == "mean":
                # carry (sum, count) stacked on a fresh leading axis so the
                # fold stays a plain elementwise sum
                cnt = np.full(p.shape, a.shape[ax], dtype=np.float64)
                p = np.stack([p.astype(np.float64), cnt])
            keys.append(rmd.ckey_of(ridx))
            idxs.append(ridx)
            shapes.append(list(p.shape))
            dts.append(p.dtype.name)
            datas.append(np.ascontiguousarray(p).tobytes())
        if not keys:
            return _empty_chunks()
        return _chunk_table(keys, idxs, shapes, dts, datas)

    def fold(group: pa.Table) -> pa.Table:
        rows = list(_rows(group))
        idx, acc = rows[0]
        acc = acc.copy()
        for _i, p in rows[1:]:
            if op == "min":
                np.minimum(acc, p, out=acc)
            elif op == "max":
                np.maximum(acc, p, out=acc)
            else:
                acc += p
        if op == "mean":
            acc = acc[0] / acc[1]
        key = group["ckey"][0].as_py()
        return _chunk_table([key], [list(idx)], [list(acc.shape)],
                            [acc.dtype.name],
                            [np.ascontiguousarray(acc).tobytes()])

    partials = ds.map_batches(partial, batch_format="pyarrow")
    out = partials.groupby("ckey").map_groups(fold, batch_format="pyarrow")
    return out, rmd


def mdim_slice(ds, md: MDim, dim: str, index: int):
    """Fix one dimension at ``index`` (gdalmdimtranslate
    ``-array name=v,view=[...,IDX,...]`` subsetting): chunks not containing
    the index are dropped (a metadata filter — their bytes still stream
    once here; pair with a chunk-range read pushdown when the source
    supports it), the owning chunks emit their rank-N-1 slice."""
    ax = md.axis(dim)
    if not (0 <= index < md.sizes[ax]):
        raise IndexError(f"index {index} outside dim {dim!r} "
                         f"size {md.sizes[ax]}")
    rmd = md.drop(ax)
    want = index // md.chunks[ax]
    off = index - want * md.chunks[ax]

    def take(batch: pa.Table) -> pa.Table:
        keys, idxs, shapes, dts, datas = [], [], [], [], []
        for idx, a in _rows(batch):
            if idx[ax] != want:
                continue
            s = np.take(a, off, axis=ax)
            ridx = [v for k, v in enumerate(idx) if k != ax]
            keys.append(rmd.ckey_of(ridx))
            idxs.append(ridx)
            shapes.append(list(s.shape))
            dts.append(s.dtype.name)
            datas.append(np.ascontiguousarray(s).tobytes())
        if not keys:
            return _empty_chunks()
        return _chunk_table(keys, idxs, shapes, dts, datas)

    return ds.map_batches(take, batch_format="pyarrow"), rmd


def transpose_chunks(ds, md: MDim, order: list[str]):
    """Reorder dimensions (gdalmdimtranslate ``view=...transpose``;
    GDALMDArray::Transpose): per-chunk ``np.transpose`` + index permute —
    embarrassingly parallel, no shuffle."""
    if sorted(order) != sorted(md.names):
        raise ValueError(f"order {order} must permute {md.names}")
    perm = [md.axis(d) for d in order]
    rmd = md.permute(perm)

    def tr(batch: pa.Table) -> pa.Table:
        keys, idxs, shapes, dts, datas = [], [], [], [], []
        for idx, a in _rows(batch):
            t = np.transpose(a, perm)
            ridx = [idx[k] for k in perm]
            keys.append(rmd.ckey_of(ridx))
            idxs.append(ridx)
            shapes.append(list(t.shape))
            dts.append(t.dtype.name)
            datas.append(np.ascontiguousarray(t).tobytes())
        if not keys:
            return _empty_chunks()
        return _chunk_table(keys, idxs, shapes, dts, datas)

    return ds.map_batches(tr, batch_format="pyarrow"), rmd


def to_raster_tiles(ds, md: MDim, z: int = 4, band: int = 1,
                    crs: str = "EPSG:3857", nodata: float = 0.0):
    """Rank-2 chunk rows -> the engine's standard raster tile rows
    (gdalmdimtranslate's classic-raster export: last dim = x, first = y),
    so every downstream raster stage (checksum, pyramid, calc, zonal)
    composes with multidim outputs."""
    if md.ndim() != 2:
        raise ValueError(f"raster export needs rank 2, got {md.names}")

    def conv(batch: pa.Table) -> pa.Table:
        zs, xs, ys, bs, ws, hs, crss, nds, dts, datas = ([] for _ in range(10))
        for idx, a in _rows(batch):
            zs.append(z); xs.append(int(idx[1])); ys.append(int(idx[0]))
            bs.append(band); ws.append(a.shape[1]); hs.append(a.shape[0])
            crss.append(crs); nds.append(nodata); dts.append(a.dtype.name)
            datas.append(np.ascontiguousarray(a).tobytes())
        return pa.table({
            "z": pa.array(zs, pa.int64()), "x": pa.array(xs, pa.int64()),
            "y": pa.array(ys, pa.int64()), "band": pa.array(bs, pa.int64()),
            "width": pa.array(ws, pa.int64()), "height": pa.array(hs, pa.int64()),
            "crs": pa.array(crss), "nodata": pa.array(nds, pa.float64()),
            "dtype": pa.array(dts), "data": pa.array(datas, pa.binary()),
        })

    return ds.map_batches(conv, batch_format="pyarrow")


def assemble(ds, md: MDim) -> np.ndarray:
    """Collect a (small) chunk Dataset back into one ndarray — test/driver
    convenience, deliberately NOT part of any streaming plan."""
    out = np.zeros(md.sizes)
    dtype = None
    for batch in ds.iter_batches(batch_format="pyarrow"):
        for idx, a in _rows(pa.table(batch)):
            starts, counts = md.chunk_bounds(idx)
            sel = tuple(slice(s, s + c) for s, c in zip(starts, counts))
            out[sel] = a
            dtype = a.dtype
    return out.astype(dtype) if dtype is not None else out


def mdim_concat(parts: list, dim: str):
    """Mosaic multidim arrays along one dimension (``gdal mdim mosaic``,
    reference ``apps/gdalalg_mdim_mosaic.cpp`` — the time-series-split-
    across-files case).  ``parts`` = [(chunk Dataset, MDim), ...] sharing
    dim names, chunk sizes and every non-concat dim size; each part's
    concat-dim size must fill whole chunks except the last part's tail
    (otherwise the mosaic chunk grid would misalign).  Pure metadata
    rewrite per chunk (index shift + rekey) + Dataset.union — no pixel
    movement, no shuffle."""
    if not parts:
        raise ValueError("mdim_concat needs at least one part")
    mds = [md for _ds, md in parts]
    ax = mds[0].axis(dim)
    for md in mds[1:]:
        if md.names != mds[0].names:
            raise ValueError(f"dim names differ: {md.names} vs {mds[0].names}")
        if md.chunks != mds[0].chunks:
            raise ValueError(f"chunk sizes differ: {md.chunks} vs "
                             f"{mds[0].chunks}")
        for k in range(len(md.dims)):
            if k != ax and md.sizes[k] != mds[0].sizes[k]:
                raise ValueError(f"dim {md.names[k]!r} sizes differ: "
                                 f"{md.sizes[k]} vs {mds[0].sizes[k]}")
    c = mds[0].chunks[ax]
    for md in mds[:-1]:
        if md.sizes[ax] % c != 0:
            raise ValueError(
                f"part with {dim}={md.sizes[ax]} does not fill whole "
                f"chunks of {c}; only the LAST part may have a tail")
    total = sum(md.sizes[ax] for md in mds)
    out_dims = list(mds[0].dims)
    out_dims[ax] = (dim, total)
    out_md = MDim(out_dims, mds[0].chunks)

    shifted = []
    off = 0
    for ds, md in parts:
        off_chunks = off // c

        def shift(batch: pa.Table, _o=off_chunks) -> pa.Table:
            keys, idxs, shapes, dts, datas = [], [], [], [], []
            idx_l = batch["idx"].to_pylist()
            for i in range(batch.num_rows):
                idx = list(idx_l[i])
                idx[ax] += _o
                keys.append(out_md.ckey_of(idx))
                idxs.append(idx)
                shapes.append(batch["shape"][i].as_py())
                dts.append(batch["dtype"][i].as_py())
                datas.append(batch["data"][i].as_py())
            if not keys:
                return _empty_chunks()
            return _chunk_table(keys, idxs, shapes, dts, datas)

        shifted.append(ds.map_batches(shift, batch_format="pyarrow"))
        off += md.sizes[ax]
    out = shifted[0]
    for s in shifted[1:]:
        out = out.union(s)
    return out, out_md


def mdim_compare(ds_a, md_a: MDim, ds_b, md_b: MDim) -> pa.Table:
    """Compare two multidim arrays (``gdal mdim compare``,
    ``apps/gdalalg_mdim_compare.cpp`` semantics at the value level): one
    (n_diff, max_abs_diff, sum_abs_diff, n_values) summary row.  Chunk
    grids must match; per-chunk partials fold through ONE keyed join on
    ``ckey`` and a whole-table O(1) reduce — two 100 GB cubes compare
    without either transiting the driver."""
    if md_a.dims != md_b.dims or md_a.chunks != md_b.chunks:
        raise ValueError(f"array layouts differ: {md_a.dims}/{md_a.chunks} "
                         f"vs {md_b.dims}/{md_b.chunks}")

    def per_chunk(a: pa.Table, b: pa.Table) -> pa.Table:
        if a.num_rows != 1 or b.num_rows != 1:
            ckey = (a if a.num_rows else b)["ckey"][0].as_py()
            sides = [0] * a.num_rows + [1] * b.num_rows
            raise ValueError(f"chunk {ckey} present on sides {sides}; grids "
                             "must match 1:1")
        d = np.abs(next(_rows(a))[1].astype(np.float64)
                   - next(_rows(b))[1].astype(np.float64))
        return pa.table({"n_diff": pa.array([int((d > 0).sum())], pa.int64()),
                         "max_abs_diff": pa.array([float(d.max())]),
                         "sum_abs_diff": pa.array([float(d.sum())]),
                         "n_values": pa.array([int(d.size)], pa.int64())})

    parts = cogroup([(ds_a, _CHUNK_SCHEMA), (ds_b, _CHUNK_SCHEMA)], "ckey",
                    per_chunk)
    df = parts.to_pandas()
    if df.empty:
        return pa.table({"n_diff": pa.array([0], pa.int64()),
                         "max_abs_diff": pa.array([0.0]),
                         "sum_abs_diff": pa.array([0.0]),
                         "n_values": pa.array([0], pa.int64())})
    return pa.table({
        "n_diff": pa.array([int(df["n_diff"].sum())], pa.int64()),
        "max_abs_diff": pa.array([float(df["max_abs_diff"].max())]),
        "sum_abs_diff": pa.array([float(df["sum_abs_diff"].sum())]),
        "n_values": pa.array([int(df["n_values"].sum())], pa.int64()),
    })


def mdim_reproject(ds, md: MDim, src_gt, dst_gt, width: int, height: int,
                   resample: str = "nearest", src_crs: str = "EPSG:4326",
                   dst_crs: str | None = None, nodata: float = 0.0,
                   tile: int = 64):
    """Reproject the (y, x) plane of every outer-dimension index
    (``gdal mdim reproject``, reference ``apps/gdalalg_mdim_reproject.cpp``
    — the per-slice gdalwarp composed over the non-spatial dims).

    Rank-3 arrays (outer, y, x).  Plan: chunk rows split into their outer
    positions (flat explode of 2-D sub-slabs), ONE groupby on the outer
    index assembles each full (y, x) slice INSIDE its task (the warp
    engine's broadcast-source contract: one slice per task, never the
    cube), and the existing ``pyramid.AffineWarper`` kernel warps all
    destination tiles of that slice locally.  Output chunks are
    (1, tile, tile) so downstream reductions regroup per destination
    tile.  Returns ``(Dataset, MDim)``."""
    if md.ndim() != 3:
        raise ValueError(f"mdim_reproject needs rank 3 (outer, y, x); "
                         f"got {md.names}")
    outer_name = md.names[0]
    n_outer = md.sizes[0]
    out_md = MDim([(outer_name, n_outer), (md.names[1], height),
                   (md.names[2], width)], [1, tile, tile])
    src_h, src_w = md.sizes[1], md.sizes[2]

    def explode(batch: pa.Table) -> pa.Table:
        keys, outers, y0s, x0s, shapes, dts, datas = ([] for _ in range(7))
        for idx, a in _rows(batch):
            starts, _counts = md.chunk_bounds(idx)
            for j in range(a.shape[0]):
                outer = starts[0] + j
                keys.append(int(outer))
                outers.append(int(outer))
                y0s.append(starts[1])
                x0s.append(starts[2])
                shapes.append([a.shape[1], a.shape[2]])
                dts.append(a.dtype.name)
                datas.append(np.ascontiguousarray(a[j]).tobytes())
        return pa.table({"okey": pa.array(keys, pa.int64()),
                         "outer": pa.array(outers, pa.int64()),
                         "y0": pa.array(y0s, pa.int64()),
                         "x0": pa.array(x0s, pa.int64()),
                         "shape": pa.array(shapes, pa.list_(pa.int32())),
                         "dtype": pa.array(dts),
                         "data": pa.array(datas, pa.binary())})

    dst_rows = pa.Table.from_pylist([
        {"px0": tx * tile, "py0": ty * tile, "tx": tx, "ty": ty,
         "w": min(tile, width - tx * tile),
         "h": min(tile, height - ty * tile)}
        for ty in range((height + tile - 1) // tile)
        for tx in range((width + tile - 1) // tile)])

    def warp_slice(group: pa.Table) -> pa.Table:
        from .pyramid import AffineWarper, SourceRaster

        outer = int(group["outer"][0].as_py())
        full = np.zeros((src_h, src_w))
        for i in range(group.num_rows):
            paste(full, decode(group["data"][i].as_py(), group["dtype"][i].as_py(),
                               group["shape"][i].as_py()),
                  group["x0"][i].as_py(), group["y0"][i].as_py())
        warper = AffineWarper(
            SourceRaster(full, src_gt, crs=src_crs, nodata=nodata),
            dst_gt, resample=resample, dst_crs=dst_crs)
        tiles = warper(dst_rows)
        keys, idxs, shapes, dts, datas = [], [], [], [], []
        for i in range(tiles.num_rows):
            ridx = [outer, tiles["y"][i].as_py(), tiles["x"][i].as_py()]
            h = tiles["height"][i].as_py()
            w = tiles["width"][i].as_py()
            keys.append(out_md.ckey_of(ridx))
            idxs.append(ridx)
            shapes.append([1, h, w])
            dts.append(tiles["dtype"][i].as_py())
            datas.append(tiles["data"][i].as_py())
        return _chunk_table(keys, idxs, shapes, dts, datas)

    out = (ds.map_batches(explode, batch_format="pyarrow")
           .groupby("okey").map_groups(warp_slice, batch_format="pyarrow"))
    return out, out_md
