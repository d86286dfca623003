"""Footprint + nearblack (clean-collar).

- ``footprint``: raster -> data-mask polygons summary (reference:
  ``apps/gdal_footprint_lib.cpp:48-184`` — mask band -> polygonize ->
  optional hull), composed from the engine's own mask map + distributed
  polygonize.
- ``nearblack``: flood near-black collars connected to the MOSAIC edge to
  nodata (reference: ``apps/nearblack_lib.cpp`` + flood-fill variant).
  Distributed in two passes over the tiles on polygonize's seam protocol:
  pass 1 labels near-black components per tile (``_tile_components``),
  merges them across tile edges (``_seam_pairs`` + ``_component_labels``,
  the one merge policy: a driver union-find over the O(tile-border) pair
  list up to ``DRIVER_MERGE_MAX_PAIRS`` pairs, distributed propagation
  above it), ORs edge contact per root with one groupby, and collects ONLY
  the collar keys for the repaint broadcast; pass 2 re-labels each tile
  and nulls the pixels of edge-connected components.  Interior dark blobs
  are preserved — exactly the flood-fill semantics.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..functions.tilerow import pixels, tile_row
from .polygonize import (_SEAM_COLS, _attach_component, _ckey,
                         _component_labels, _rows, _seam_pairs,
                         _tile_components, label_tile, polygonize)


def footprint(tiles_ds, nodata: float = 0.0, tile_size: int = 64):
    """Data-mask footprint: per-component (n_pixels, global pixel bbox) of
    the valid-data mask."""

    def to_mask(batch: pa.Table) -> pa.Table:
        rows = []
        for i in range(batch.num_rows):
            mask = (pixels(batch, i) != nodata).astype(np.uint8)
            rows.append(tile_row(batch, i, mask))
        return pa.Table.from_pylist(rows)

    masks = tiles_ds.map_batches(to_mask, batch_format="pyarrow")
    return polygonize(masks, nodata=0.0, tile_size=tile_size)


def _near_black_mask(arr: np.ndarray, threshold: float) -> np.ndarray:
    return (arr <= threshold).astype(np.uint8)


def nearblack(tiles_ds, threshold: float = 10.0, nodata: float = 255.0,
              nx: int | None = None, ny: int | None = None):
    """Set edge-connected near-black collar pixels to ``nodata``.

    nx, ny: mosaic extent in tiles (tiles at x==0, x==nx-1 etc. hold mosaic
    edges).  Returns tile rows with cleaned data.
    """
    import ray
    from ray.data.aggregate import Max

    def emit(x, y, mask, labels, n):
        # mosaic-edge contact
        touch = np.zeros(n, np.int64)
        for on_edge, vec in ((x == 0, labels[:, 0]),
                             (nx is not None and x == nx - 1, labels[:, -1]),
                             (y == 0, labels[0, :]),
                             (ny is not None and y == ny - 1, labels[-1, :])):
            if on_edge:
                touch[vec[vec >= 0]] = 1
        return {"comp": {"key": _ckey(x, y, 0) + np.arange(n, dtype=np.int64),
                         "touch": touch}}

    meta = _tile_components(
        tiles_ds, emit, [("touch", pa.int64())], nodata=0, connect8=False,
        prep=lambda arr: _near_black_mask(arr, threshold))
    labels = _component_labels(
        _seam_pairs(_rows(meta, "seam", _SEAM_COLS), False))
    # membership by bucket join, a distributed any-touch OR per root, and a
    # final collect of ONLY the collar keys (O(collar members), the set the
    # repaint broadcast needs anyway — never all components)
    comp_keyed = _attach_component(
        _rows(meta, "comp", ["key", "touch"]).map_batches(
            lambda t: t.append_column("orig_key", t["key"]), batch_format="pyarrow"),
        labels, payload=[("orig_key", pa.int64()), ("touch", pa.int64())],
        out_col="root").materialize()
    touched = (
        comp_keyed.groupby("root").aggregate(Max("touch", alias_name="any"))
        .map_batches(lambda t: pa.table({
            "node": t["root"].filter(pa.compute.equal(t["any"], 1)),
            # -1 never collides with a _ckey (keys are >= 0)
            "label": pa.array(
                np.full(int(pa.compute.sum(
                    pa.compute.cast(pa.compute.equal(t["any"], 1), pa.int64())
                ).as_py() or 0), -1, np.int64))}), batch_format="pyarrow"))

    def member_prep(t: pa.Table) -> pa.Table:
        return pa.table({"key": t["root"], "orig_key": t["orig_key"]})

    marked = _attach_component(
        comp_keyed.map_batches(member_prep, batch_format="pyarrow"), touched,
        payload=[("orig_key", pa.int64())], out_col="mark")
    collar_keys = {
        r["orig_key"] for r in marked.map_batches(
            lambda t: t.filter(pa.compute.equal(t["mark"], -1)),
            batch_format="pyarrow").take_all()}
    collar_ref = ray.put(collar_keys)

    def pass2(batch: pa.Table) -> pa.Table:
        collars = ray.get(collar_ref)
        rows = []
        for i in range(batch.num_rows):
            x, y = batch["x"][i].as_py(), batch["y"][i].as_py()
            arr = pixels(batch, i).copy()
            mask = _near_black_mask(arr, threshold)
            labels, n = label_tile(mask, 0)
            # one lookup-table gather over labels; pixels outside the mask
            # (-1) index the extra last slot, which is never a collar
            collar = np.zeros(n + 1, bool)
            collar[:n] = [_ckey(x, y, lbl) in collars for lbl in range(n)]
            arr[collar[labels]] = nodata
            rows.append(tile_row(batch, i, arr))
        return pa.Table.from_pylist(rows)

    return tiles_ds.map_batches(pass2, batch_format="pyarrow")
