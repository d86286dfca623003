"""Polygonize (raster -> vector) and the cross-tile component seam protocol.

Re-answers ``gdal_polygonize`` (reference: 2-line run-based CCL
``alg/gdalrasterpolygonenumerator.cpp:215-284`` NewPolygon/MergePolygon,
4/8-connectivity ``alg/polygonize.cpp:87``, Two-Arm-Chains ring tracing
``alg/polygonize_polygonizer.h:136-176``) Ray-Data-first.  ``polygonize``,
``polygonize_rings``, ``sieve_global`` and ``collar.nearblack`` (and through
``polygonize``, ``collar.footprint``) share one seam protocol:

  tiles -> map_batches (``_tile_components``): per-tile run-based CCL
           (exactly the reference's 2-row scan, numpy-vectorized per
           row-pair) -> one kind-tagged table of one declared schema per
           batch: the stage's component rows plus seam rows
           (``_seam_rows``: label runs on the tile's four edges and, under
           8-connectivity, its four corner pixels)
       -> groupby(edge_key).map_groups (``_seam_pairs``): (a, b, same) for
          the fragments that touch across each shared tile edge or 4-tile
          corner junction
       -> ``_component_labels``: (node, label = min reachable key) over the
          same-value pairs.  One merge policy: a driver union-find while
          the pair count is at most ``DRIVER_MERGE_MAX_PAIRS`` (pairs are
          O(tile-border runs), not O(pixels)), else the distributed
          min-label propagation ``_components_distributed``
       -> ``_attach_component``: one bucket-keyed join of the labels onto
          the component rows, then each stage's own fold (merged stats,
          ring assembly, the small-component sieve merge, edge contact).

``polygonize`` returns exact per-component stats; ``polygonize_rings``
additionally assembles exact shell rings for every component (including
cross-tile ones) by shipping bitpacked sub-masks to a per-component group.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..functions.tilerow import pixels, tile_row
from .relational import BUCKETS, bucket_groups

DRIVER_MERGE_MAX_PAIRS = 1_000_000
"""Same-value seam pairs up to which ``_component_labels`` folds them in a
driver union-find; above it the merge runs distributed."""


def _extract_runs(arr: np.ndarray, nodata):
    """Vectorized run extraction: row-major (run_row, run_c0, run_c1, value)
    arrays of maximal equal-value valid runs."""
    if isinstance(nodata, float) and np.isnan(nodata):
        valid = ~np.isnan(arr)
    else:
        valid = arr != nodata
    change = np.ones(arr.shape, dtype=bool)
    change[:, 1:] = arr[:, 1:] != arr[:, :-1]
    prev_valid = np.zeros_like(valid)
    prev_valid[:, 1:] = valid[:, :-1]
    start = valid & (~prev_valid | change)
    nxt_valid = np.zeros_like(valid)
    nxt_valid[:, :-1] = valid[:, 1:]
    nxt_change = np.ones(arr.shape, dtype=bool)
    nxt_change[:, :-1] = change[:, 1:]
    endp = valid & (~nxt_valid | nxt_change)
    sr, sc = np.nonzero(start)  # row-major — aligned 1:1 with ends
    _, ec = np.nonzero(endp)
    return sr, sc, ec + 1, arr[sr, sc]


def label_tile(arr: np.ndarray, nodata, connect8: bool = False):
    """Run-based two-pass CCL on one tile.  Returns (labels, nlabels).
    labels: -1 = nodata; labels are 0..nlabels-1 tile-local, identical to the
    sequential reference scan (runs labeled in scan order, min-root unions,
    unique-root compaction).  Same-value adjacency only (GDAL polygonize
    semantics: components are maximal regions of EQUAL pixel value).

    Vectorized: run extraction and prev-row overlap matching are numpy
    (searchsorted interval joins over disjoint sorted runs); only the
    union-find edge fold is a Python loop — O(equivalence edges), which is
    O(runs), not O(pixels)."""
    h, w = arr.shape
    labels = np.full((h, w), -1, dtype=np.int64)
    sr, sc, se, vals = _extract_runs(arr, nodata)
    nruns = sr.size
    if nruns == 0:
        return labels, 0
    row_ptr = np.searchsorted(sr, np.arange(h + 1))
    pad = 1 if connect8 else 0
    edges_a, edges_b = [], []
    for r in range(1, h):
        b0, b1 = row_ptr[r], row_ptr[r + 1]
        a0, a1 = row_ptr[r - 1], row_ptr[r]
        if b0 == b1 or a0 == a1:
            continue
        ac0, ac1 = sc[a0:a1], se[a0:a1]
        # prev runs overlapping [c0-pad, c1+pad): contiguous index range
        lo = np.searchsorted(ac1, sc[b0:b1] - pad, side="right")
        hi = np.searchsorted(ac0, se[b0:b1] + pad, side="left")
        cnt = np.maximum(hi - lo, 0)
        total = int(cnt.sum())
        if total == 0:
            continue
        bidx = np.repeat(np.arange(b0, b1), cnt)
        starts = np.zeros(b1 - b0, dtype=np.int64)
        np.cumsum(cnt[:-1], out=starts[1:])
        aidx = a0 + np.repeat(lo, cnt) + (np.arange(total) - np.repeat(starts, cnt))
        same = vals[bidx] == vals[aidx]
        edges_a.append(aidx[same])
        edges_b.append(bidx[same])
    parent = np.arange(nruns, dtype=np.int64)

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return int(x)

    if edges_a:
        for a, b in zip(np.concatenate(edges_a), np.concatenate(edges_b)):
            ra, rb = find(int(a)), find(int(b))
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
    roots = np.array([find(i) for i in range(nruns)], dtype=np.int64)
    uniq, compact = np.unique(roots, return_inverse=True)
    # paint runs with compacted labels (flat scatter, no per-run Python loop)
    lens = se - sc
    starts_flat = sr * w + sc
    total = int(lens.sum())
    offs = np.zeros(nruns, dtype=np.int64)
    np.cumsum(lens[:-1], out=offs[1:])
    pos = np.repeat(starts_flat, lens) + (np.arange(total) - np.repeat(offs, lens))
    labels.ravel()[pos] = np.repeat(compact, lens)
    return labels, len(uniq)


def trace_boundary(mask: np.ndarray) -> np.ndarray:
    """Outer boundary ring of a component mask (pixel-edge polygon, CCW in
    array coords).  Square-tracing along pixel edges — vertices are integer
    pixel corners, matching GDAL polygonize output geometry style."""
    h, w = mask.shape
    # collect boundary edges (cell-edge segments) then chain them.  A vertex
    # where the component pinches diagonally has TWO outgoing edges, so the
    # adjacency holds lists and each edge is consumed once; at a junction the
    # walk takes the sharpest turn toward the interior side, which keeps the
    # trace on the outer face (and terminates — every edge is used at most
    # once, so no infinite loop even on pathological masks).
    edges: dict[tuple, list] = {}  # start -> [end, ...]
    ys, xs = np.nonzero(mask)
    for y, x in zip(ys, xs):
        if y == 0 or not mask[y - 1, x]:
            edges.setdefault((x, y), []).append((x + 1, y))  # top edge, rightward
        if x + 1 >= w or not mask[y, x + 1]:
            edges.setdefault((x + 1, y), []).append((x + 1, y + 1))  # right, down
        if y + 1 >= h or not mask[y + 1, x]:
            edges.setdefault((x + 1, y + 1), []).append((x, y + 1))  # bottom, left
        if x == 0 or not mask[y, x - 1]:
            edges.setdefault((x, y + 1), []).append((x, y))  # left, upward
    if not edges:
        return np.empty((0, 2))
    start = min(edges)
    ring = [start]
    prev = start
    cands = edges[start]
    cur = cands.pop()  # start is an extreme corner: exactly one outgoing edge
    while cur != start:
        ring.append(cur)
        cands = edges.get(cur, [])
        if not cands:
            break  # defensive: malformed mask — emit what we have
        if len(cands) == 1:
            nxt = cands.pop(0)
        else:
            # pinch junction: take the OUTERMOST turn (min of (cross, dot) in
            # this y-down frame) so the trace stays on the outer shell — the
            # shell then encloses pinch holes (reported via area vs n_pixels
            # mismatch) and covers corner-touching 8-conn members in one ring
            din = (cur[0] - prev[0], cur[1] - prev[1])

            def turn_rank(e):
                dout = (e[0] - cur[0], e[1] - cur[1])
                cross = din[0] * dout[1] - din[1] * dout[0]
                dot = din[0] * dout[0] + din[1] * dout[1]
                return (cross, dot)

            nxt = min(cands, key=turn_rank)
            cands.remove(nxt)
        prev = cur
        cur = nxt
    ring.append(start)
    # simplify collinear runs
    pts = np.array(ring, dtype=np.float64)
    keep = [0]
    for i in range(1, len(pts) - 1):
        a, b, c = pts[keep[-1]], pts[i], pts[i + 1]
        if (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]) != 0:
            keep.append(i)
    keep.append(len(pts) - 1)
    return pts[keep]


def _components_distributed(pairs, max_iters: int = 64):
    """Distributed connected components over an (a, b) int64 equivalence-pair
    Dataset: returns (node, label) with label = the minimum key reachable.

    Vectorized min-label propagation (the ``dedup.dup_clusters`` plan with
    the per-key map_groups replaced by BUCKET-keyed vectorized joins): per
    iteration ONE ``bucket_groups`` co-group joins each node's current label
    onto its outgoing edges with np.searchsorted inside the bucket — no per-key
    Python — and ONE groupby(node).min folds the candidates.  Labels are
    non-increasing, so sum(label) strictly decreases until fixpoint; the
    driver reads one scalar per iteration and never holds the edge list
    (the 100 TB replacement for the driver union-find, whose edge fold is a
    serial Python loop).  Iterations needed = component diameter in the
    tile-adjacency graph (long snaking components cost more rounds) —
    pointer doubling below cuts that to O(log diameter).

    The bucket count adapts to the edge count (~1 bucket per 200k
    symmetric edges, at most ``relational.BUCKETS``) so small graphs don't
    pay 64 groups and blocks of fixed Ray overhead per round.
    """
    from ray.data.aggregate import Min

    def sym(t: pa.Table) -> pa.Table:
        a = t["a"].to_numpy(zero_copy_only=False).astype(np.int64)
        b = t["b"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"node": pa.array(np.concatenate([a, b])),
                         "dst": pa.array(np.concatenate([b, a]))})

    edges = pairs.map_batches(sym, batch_format="pyarrow").materialize()
    buckets = max(1, min(BUCKETS, 1 + edges.count() // 200_000))

    def snap(ds):
        """Truncate lineage: iterative reuse of a materialized Dataset keeps
        the WHOLE per-round plan chain alive for lineage recovery, and both
        plan handling and object recovery grow with rounds (measured: round
        time 3s -> 50s by round 10).  A labels snapshot is tiny (2 int64
        cols), so trade recoverability of one round for flat round cost."""
        import ray.data as rd
        return rd.from_arrow_refs(ds.to_arrow_refs())

    # init: label(node) = min(node, min direct neighbor) — one free hop
    def init_lab(t: pa.Table) -> pa.Table:
        n = t["node"].to_numpy(zero_copy_only=False).astype(np.int64)
        m = t["_mn"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"node": pa.array(n), "label": pa.array(np.minimum(n, m))})

    labels = (
        edges.groupby("node").aggregate(Min("dst", alias_name="_mn"))
        .map_batches(init_lab, batch_format="pyarrow").materialize()
    )

    def bucket_prop(e: pa.Table, lab: pa.Table) -> pa.Table:
        nodes = lab["node"].to_numpy(zero_copy_only=False)
        order = np.argsort(nodes, kind="stable")
        nodes_s = nodes[order]
        lab_s = lab["label"].to_numpy(zero_copy_only=False)[order]
        # every edge src has a label row, in the same bucket
        pos = np.searchsorted(nodes_s, e["node"].to_numpy(zero_copy_only=False))
        return pa.table({
            "node": pa.array(np.concatenate(
                [e["dst"].to_numpy(zero_copy_only=False), nodes_s])),
            "cand": pa.array(np.concatenate([lab_s[pos], lab_s])),
        })

    def as_comp(t: pa.Table) -> pa.Table:
        return pa.table({"key": pa.compute.cast(t["label"], pa.int64()),
                         "node": pa.compute.cast(t["node"], pa.int64())})

    edge_schema = pa.schema([("node", pa.int64()), ("dst", pa.int64())])
    label_schema = pa.schema([("node", pa.int64()), ("label", pa.int64())])
    prev_sum = None
    converged = False
    for _ in range(max_iters):
        labels = snap(
            bucket_groups([(edges, edge_schema), (labels, label_schema)],
                          "node", bucket_prop, buckets)
            .groupby("node")
            .aggregate(Min("cand", alias_name="label"))
            .materialize()
        )
        # pointer-doubling contraction: label(n) <- label(label(n)).  Labels
        # are non-increasing node ids and every label value is itself a node
        # with a label row, so each extra bucket join halves the remaining
        # root distance; two per round make the reached window grow 4x per
        # round -> O(log4 diameter) rounds total instead of O(diameter)
        # one-hop rounds (a snaking component's tile-graph diameter easily
        # exceeds any fixed round cap).
        # repartition keeps the block count bounded across rounds: each
        # union+groupby round otherwise roughly doubles the number of
        # blocks (measured 4 -> 766 in 7 rounds), and per-round scheduling
        # overhead grows with it.
        for _dbl in range(2):
            labels = snap(_attach_component(
                labels.map_batches(as_comp, batch_format="pyarrow"), labels,
                payload=[("node", pa.int64())], out_col="label"
            ).repartition(buckets).materialize())
        s = labels.sum("label")
        if s == prev_sum:
            converged = True
            break
        prev_sum = s
    if not converged:
        raise RuntimeError(
            f"_components_distributed: min-label propagation still "
            f"decreasing after {max_iters} rounds (label sum {prev_sum}); "
            f"with pointer doubling this needs ~log2(component diameter) "
            f"rounds — raise max_iters.")
    return labels


_POLY_PAYLOAD = [("value", pa.float64()), ("n_pixels", pa.int64()),
                 ("minx", pa.int64()), ("miny", pa.int64()),
                 ("maxx", pa.int64()), ("maxy", pa.int64())]


def _attach_component(comps, labels, payload=None,
                      out_col: str = "component"):
    """Join (node -> label) onto per-(tile,label) component rows with one
    ``bucket_groups`` co-group and a vectorized searchsorted per bucket
    (keys absent from ``labels`` keep their own key — fragments untouched
    by any cross-tile pair).  ``payload`` = [(name, pa type)] of the columns
    to carry besides ``key``; output replaces ``key`` with ``out_col``."""
    PAYLOAD = payload if payload is not None else _POLY_PAYLOAD

    def bucket_join(comp: pa.Table, lab: pa.Table) -> pa.Table:
        comp_k = comp["key"].to_numpy(zero_copy_only=False)
        root = comp_k
        if lab.num_rows:
            nodes = lab["key"].to_numpy(zero_copy_only=False)
            order = np.argsort(nodes, kind="stable")
            nodes_s = nodes[order]
            lab_s = lab["label"].to_numpy(zero_copy_only=False)[order]
            pos = np.minimum(np.searchsorted(nodes_s, comp_k), len(nodes_s) - 1)
            root = np.where(nodes_s[pos] == comp_k, lab_s[pos], comp_k)
        cols = {out_col: pa.array(root)}
        for c, _ty in PAYLOAD:
            cols[c] = comp[c]
        return pa.table(cols)

    return bucket_groups(
        [(comps, pa.schema([("key", pa.int64())] + list(PAYLOAD))),
         (labels.rename_columns({"node": "key"}),
          pa.schema([("key", pa.int64()), ("label", pa.int64())]))],
        "key", bucket_join)


def _ckey(tx: int, ty: int, lbl: int) -> int:
    return (tx << 40) | (ty << 20) | lbl


def _ekey(tx: int, ty: int, orient: str) -> int:
    code = {"V": 1, "H": 2, "C": 3}[orient]
    # offset tile indices so edge keys of border tiles (tx or ty == -1) stay unique
    return ((tx + 1) << 24) | ((ty + 1) << 4) | code


def _runs_of_np(vec: np.ndarray):
    """(c0s, c1s, labels) arrays of the maximal runs of equal non-negative
    labels along a border vector, half-open [c0, c1)."""
    vec = np.asarray(vec)
    n = len(vec)
    if n == 0:
        z = np.empty(0, np.int64)
        return z, z, z
    valid = vec >= 0
    change = np.ones(n, dtype=bool)
    change[1:] = (vec[1:] != vec[:-1]) | (valid[1:] != valid[:-1])
    boundaries = np.flatnonzero(change)
    run_ends = np.append(boundaries[1:], n)
    starts = boundaries[valid[boundaries]]
    ends = run_ends[valid[boundaries]]
    return (starts.astype(np.int64), ends.astype(np.int64),
            vec[starts].astype(np.int64))


_SEAM_FIELDS = [("edge_key", pa.int64()), ("key", pa.int64()),
                ("role", pa.int64()), ("pos0", pa.int64()),
                ("pos1", pa.int64()), ("value", pa.float64())]
_SEAM_COLS = [name for name, _ in _SEAM_FIELDS]

# Seam roles: 1 = a run on the tile's right or bottom edge (the tile owns the
# shared edge), 0 = a run on its left or top edge; 2/3/4/5 = the tile lies
# NW/NE/SW/SE of a 4-tile corner junction (connect8 only).  _PARTNER[role] is
# the role it pairs with, -1 for none, so each pair is emitted once.
_PARTNER = np.array([-1, 0, 5, 4, -1, -1])


def _seam_rows(tx: int, ty: int, labels: np.ndarray, vals: np.ndarray,
               connect8: bool) -> dict:
    """Seam rows of one labelled tile as {column: array} over
    ``_SEAM_FIELDS``: one row per run of a label along each tile edge, keyed
    by the shared edge, and under connect8 one row per labelled corner
    pixel, keyed by its 4-tile junction."""
    base = _ckey(tx, ty, 0)
    parts = []
    for lbl_vec, val_vec, ek, role in (
            (labels[:, -1], vals[:, -1], _ekey(tx, ty, "V"), 1),
            (labels[-1, :], vals[-1, :], _ekey(tx, ty, "H"), 1),
            (labels[:, 0], vals[:, 0], _ekey(tx - 1, ty, "V"), 0),
            (labels[0, :], vals[0, :], _ekey(tx, ty - 1, "H"), 0)):
        c0, c1, lbl = _runs_of_np(lbl_vec)
        parts.append((np.full(c0.size, ek), base + lbl,
                      np.full(c0.size, role), c0, c1, val_vec[c0]))
    if connect8:
        # (row, col) of the corner pixel, and the tile whose bottom-right
        # corner is the junction; a negative index never has a partner
        for role, (r, c), (cx, cy) in ((2, (-1, -1), (tx, ty)),
                                       (3, (-1, 0), (tx - 1, ty)),
                                       (4, (0, -1), (tx, ty - 1)),
                                       (5, (0, 0), (tx - 1, ty - 1))):
            if labels[r, c] >= 0 and cx >= 0 and cy >= 0:
                parts.append(([_ekey(cx, cy, "C")], [base + labels[r, c]],
                              [role], [0], [1], [vals[r, c]]))
    return {name: np.concatenate([p[k] for p in parts]).astype(ty.to_pandas_dtype())
            for k, (name, ty) in enumerate(_SEAM_FIELDS)}


def _tagged(schema: pa.Schema, **groups) -> pa.Table:
    """One ``schema`` table of {column: array} groups: a group's rows get
    ``kind`` = its name and typed nulls in the columns it lacks, so every
    batch has the same schema, also with no group or an empty one."""
    parts = [schema.empty_table()]
    for kind, cols in groups.items():
        n = len(next(iter(cols.values())))
        parts.append(pa.table(
            [pa.array([kind] * n, pa.string()) if f.name == "kind"
             else pa.array(cols[f.name], f.type) if f.name in cols
             else pa.nulls(n, f.type) for f in schema], schema=schema))
    return pa.concat_tables(parts)


def _tile_components(tiles_ds, emit, fields, *, nodata, connect8: bool,
                     prep=None):
    """Per-tile CCL in ``map_batches``, materialized (the seam and component
    branches both read it; it is per-tile metadata, far smaller than the
    raster).  Each batch is one ``_tagged`` table: the tiles' seam rows
    (kind "seam") plus the {kind: {column: array}} groups that
    ``emit(tx, ty, arr, labels, n)`` returns for a tile with n >= 1
    components, over ``fields``.  ``prep`` maps a tile's pixels to the array
    that is labelled."""
    schema = pa.schema([("kind", pa.string())] + _SEAM_FIELDS
                       + [f for f in fields if f[0] not in _SEAM_COLS])

    def per_tile(batch: pa.Table) -> pa.Table:
        groups: dict = {}
        for i in range(batch.num_rows):
            tx, ty = batch["x"][i].as_py(), batch["y"][i].as_py()
            arr = pixels(batch, i)
            if prep is not None:
                arr = prep(arr)
            labels, n = label_tile(arr, nodata, connect8)
            if n == 0:
                continue
            out = {"seam": _seam_rows(tx, ty, labels, arr, connect8),
                   **emit(tx, ty, arr, labels, n)}
            for kind, cols in out.items():
                groups.setdefault(kind, []).append(cols)
        return _tagged(schema, **{
            kind: {c: np.concatenate([t[c] for t in tiles]) for c in tiles[0]}
            for kind, tiles in groups.items()})

    return tiles_ds.map_batches(per_tile, batch_format="pyarrow").materialize()


def _rows(tagged, kind: str, cols: list):
    """The ``cols`` of ``tagged``'s rows of one kind."""
    return tagged.map_batches(
        lambda t: t.filter(pa.compute.equal(t["kind"], kind)).select(cols),
        batch_format="pyarrow")


def _seam_pairs(seams, connect8: bool):
    """The one ``groupby(edge_key).map_groups`` over seam rows: (a, b, same)
    for each pair of fragments that touch across a shared tile edge (runs
    overlapping, with slack 1 under connect8 for diagonal contact) or
    through a 4-tile corner junction (NW-SE and NE-SW); ``same`` means
    equal value."""
    slack = 1 if connect8 else 0

    def pair_up(g: pa.Table) -> pa.Table:
        role, key, p0, p1, val = (g[c].to_numpy(zero_copy_only=False) for c in
                                  ("role", "key", "pos0", "pos1", "value"))
        i, j = np.nonzero((_PARTNER[role][:, None] == role[None, :])
                          & (p0[:, None] < p1[None, :] + slack)
                          & (p1[:, None] > p0[None, :] - slack))
        return pa.table({"a": pa.array(key[i], pa.int64()),
                         "b": pa.array(key[j], pa.int64()),
                         "same": pa.array(val[i] == val[j], pa.bool_())})

    return seams.groupby("edge_key").map_groups(pair_up, batch_format="pyarrow")


def _component_labels(pairs):
    """(node, label) over the ``same`` pairs of ``_seam_pairs``: label = the
    minimum key reachable; a key in no same pair is absent and keeps its
    own key in ``_attach_component``.  Up to ``DRIVER_MERGE_MAX_PAIRS``
    pairs (O(tile-border runs), not O(pixels)) fold in a driver union-find;
    above it ``_components_distributed`` keeps the pair list off the
    driver.  Both give the same labels."""
    import ray.data as rd

    same = pairs.map_batches(lambda t: t.filter(t["same"]).select(["a", "b"]),
                             batch_format="pyarrow").materialize()
    if same.count() > DRIVER_MERGE_MAX_PAIRS:
        return _components_distributed(same)
    parent: dict[int, int] = {}

    def find(x):
        r = x
        while parent.get(r, r) != r:
            r = parent[r]
        while parent.get(x, x) != x:
            parent[x], x = r, parent[x]
        return r

    for row in same.take_all():
        a, b = find(row["a"]), find(row["b"])
        if a != b:
            parent[max(a, b)] = min(a, b)
    nodes = list(parent)
    return rd.from_arrow(pa.table({
        "node": pa.array(nodes, pa.int64()),
        "label": pa.array([find(k) for k in nodes], pa.int64())}))


def _label_stats(labels: np.ndarray, n: int):
    """(counts, starts, ys, xs): the labelled pixels' coordinates sorted by
    label, row-major inside a label, with each label's count and start."""
    m = labels >= 0
    ys, xs = np.nonzero(m)
    order = np.argsort(labels[m], kind="stable")
    counts = np.bincount(labels[m], minlength=n)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    return counts, starts, ys[order], xs[order]


def _bbox_rows(tx: int, ty: int, arr: np.ndarray, labels: np.ndarray, n: int) -> dict:
    """Per label: key, first-pixel value, pixel count, tile-local bbox."""
    counts, starts, ys, xs = _label_stats(labels, n)
    return {"key": _ckey(tx, ty, 0) + np.arange(n, dtype=np.int64),
            "value": arr[ys[starts], xs[starts]].astype(np.float64),
            "n_pixels": counts.astype(np.int64),
            "x0": np.minimum.reduceat(xs, starts),
            "y0": np.minimum.reduceat(ys, starts),
            "x1": np.maximum.reduceat(xs, starts),
            "y1": np.maximum.reduceat(ys, starts)}


def polygonize(tiles_ds, nodata: float = 0.0, connect8: bool = False, tile_size: int = 64):
    """Distributed polygonize over a tile table (schema per FIXTURES F3).

    Returns a Dataset of components: (value: float64, n_pixels: int64,
    minx/miny/maxx/maxy: int64 global pixel bounds, n_fragments: int64 —
    the member (tile, label) fragment count, an upper bound on distinct
    tiles touched).
    """

    def emit(tx, ty, arr, labels, n):
        c = _bbox_rows(tx, ty, arr, labels, n)
        ox, oy = tx * tile_size, ty * tile_size
        return {"comp": {"key": c["key"], "value": c["value"],
                         "n_pixels": c["n_pixels"],
                         "minx": c["x0"] + ox, "miny": c["y0"] + oy,
                         "maxx": c["x1"] + ox, "maxy": c["y1"] + oy}}

    tagged = _tile_components(tiles_ds, emit, _POLY_PAYLOAD, nodata=nodata,
                              connect8=connect8)
    labels = _component_labels(
        _seam_pairs(_rows(tagged, "seam", _SEAM_COLS), connect8))
    relabeled = _attach_component(
        _rows(tagged, "comp", ["key"] + [c for c, _ in _POLY_PAYLOAD]), labels)

    from ray.data.aggregate import Count, Max, Min, Sum

    return relabeled.groupby("component").aggregate(
        Min("value", alias_name="value"),
        Sum("n_pixels", alias_name="n_pixels"),
        Min("minx", alias_name="minx"),
        Min("miny", alias_name="miny"),
        Max("maxx", alias_name="maxx"),
        Max("maxy", alias_name="maxy"),
        # fragment count = member (tile, label) rows; a tile can contribute
        # several local labels to one merged component, so this is an upper
        # bound on the distinct-tile count, not the tile count itself
        Count(alias_name="n_fragments"),
    )


_RINGS_PAYLOAD = [
    ("tx", pa.int64()), ("ty", pa.int64()), ("value", pa.float64()),
    ("n_pixels", pa.int64()), ("x0", pa.int64()), ("y0", pa.int64()),
    ("x1", pa.int64()), ("y1", pa.int64()), ("mask", pa.binary()),
    ("mw", pa.int64()), ("mh", pa.int64()),
]


def polygonize_rings(tiles_ds, nodata: float = 0.0, connect8: bool = False,
                     tile_size: int = 64):
    """Polygonize with exact ring geometry for EVERY component, including
    cross-tile ones (SURVEY §7 known-hard item).

    Same seam protocol and label merge as ``polygonize``; additionally each
    (tile, label) ships its component sub-mask (bitpacked), and a
    ``groupby(component)`` assembles the member masks into the component's
    bbox window and traces the outer shell ring there (trace = pixel-edge
    square tracing, identical to the single-tile path, so tiled ==
    monolithic).  Partitioning assumption: one component's bbox window fits
    a worker (holds unless a single polygon spans a large fraction of the
    mosaic — those would use a coarser ring resolution).

    Returns (component, value, n_pixels, wkb) — shell rings in global pixel
    coordinates (holes reported via n_pixels vs ring area mismatch).

    ``connect8=True`` gives GDALPolygonize's 8CONNECTED=8 semantics:
    diagonal pixels join (in-tile via label_tile; across tiles via slack-1
    run overlap + 4-tile corner-junction seam rows);
    the shell tracer passes through diagonal pinch corners so one
    self-touching ring covers the whole component, and holes use the
    4-connected complement (the correct dual of 8-connected foreground).
    """
    from ..functions import wkb as _wkb

    def emit(tx, ty, arr, labels, n):
        c = _bbox_rows(tx, ty, arr, labels, n)
        masks = np.empty(n, object)
        for lbl in range(n):
            win = labels[c["y0"][lbl]:c["y1"][lbl] + 1, c["x0"][lbl]:c["x1"][lbl] + 1]
            masks[lbl] = np.packbits(win == lbl).tobytes()
        return {"comp": {**c, "tx": np.full(n, tx), "ty": np.full(n, ty),
                         "mask": masks, "mw": c["x1"] - c["x0"] + 1,
                         "mh": c["y1"] - c["y0"] + 1}}

    tagged = _tile_components(tiles_ds, emit, _RINGS_PAYLOAD, nodata=nodata,
                              connect8=connect8)
    labels = _component_labels(
        _seam_pairs(_rows(tagged, "seam", _SEAM_COLS), connect8))
    relabeled_ds = _attach_component(
        _rows(tagged, "comp", ["key"] + [c for c, _ in _RINGS_PAYLOAD]),
        labels, payload=_RINGS_PAYLOAD)

    def assemble(group: pa.Table) -> pa.Table:
        ts = tile_size
        gx0 = min(group["x0"][i].as_py() + group["tx"][i].as_py() * ts for i in range(group.num_rows))
        gy0 = min(group["y0"][i].as_py() + group["ty"][i].as_py() * ts for i in range(group.num_rows))
        gx1 = max(group["x1"][i].as_py() + group["tx"][i].as_py() * ts for i in range(group.num_rows))
        gy1 = max(group["y1"][i].as_py() + group["ty"][i].as_py() * ts for i in range(group.num_rows))
        full = np.zeros((gy1 - gy0 + 1, gx1 - gx0 + 1), dtype=bool)
        n_pix = 0
        for i in range(group.num_rows):
            mh = group["mh"][i].as_py()
            mw = group["mw"][i].as_py()
            m = np.unpackbits(
                np.frombuffer(group["mask"][i].as_py(), dtype=np.uint8), count=mh * mw
            ).reshape(mh, mw).astype(bool)
            ox = group["x0"][i].as_py() + group["tx"][i].as_py() * ts - gx0
            oy = group["y0"][i].as_py() + group["ty"][i].as_py() * ts - gy0
            full[oy : oy + mh, ox : ox + mw] |= m
            n_pix += group["n_pixels"][i].as_py()
        ring = trace_boundary(full)
        ring = ring + [gx0, gy0]
        # interior rings (Two-Arm-Chains semantics, alg/polygonize_polygonizer
        # .h:136-176): holes = connected components of the complement that do
        # not reach the (1-px padded) window border — i.e. regions enclosed by
        # the shell, whatever pixels fill them.  Traced like shells, reversed
        # so hole orientation opposes the shell.
        padded = np.zeros((full.shape[0] + 2, full.shape[1] + 2), dtype=bool)
        padded[1:-1, 1:-1] = full
        inv = (~padded).astype(np.uint8)
        hlabels, hn = label_tile(inv, 0)
        rings = [ring]
        n_hole_px = 0
        for lbl in range(hn):
            hm = hlabels == lbl
            if hm[0, :].any() or hm[-1, :].any() or hm[:, 0].any() or hm[:, -1].any():
                continue  # touches outside — not enclosed
            hring = trace_boundary(hm)[::-1] + [gx0 - 1, gy0 - 1]
            rings.append(hring)
            n_hole_px += int(hm.sum())
        return pa.table(
            {
                "component": pa.array([group["component"][0].as_py()], pa.int64()),
                "value": pa.array([group["value"][0].as_py()], pa.float64()),
                "n_pixels": pa.array([n_pix], pa.int64()),
                "n_holes": pa.array([len(rings) - 1], pa.int64()),
                "hole_pixels": pa.array([n_hole_px], pa.int64()),
                "wkb": pa.array([_wkb.encode_polygon(rings)], pa.binary()),
            }
        )

    return relabeled_ds.groupby("component").map_groups(
        assemble, batch_format="pyarrow"
    )


def sieve_global(tiles_ds, threshold: int, nodata: float = 0.0,
                 connect8: bool = False, tile_size: int = 64):
    """EXACT cross-tile sieve (alg/gdalsievefilter.cpp semantics): global
    components smaller than ``threshold`` merge into their largest neighbor
    component, iterated to fixpoint (a merge can push a survivor over the
    threshold or give a small island a new neighbor).  Deterministic,
    TILING-INVARIANT order: small components processed by (size,
    first-global-pixel) ascending; neighbor tie-break = (largest size,
    smallest first pixel) — the same input mosaic sieves identically for any
    tile decomposition.  ``tile_size`` must be the nominal tile grid pitch
    (edge tiles may be smaller); it anchors each tile's global pixel
    coordinates.

    Distributed shape: per-tile CCL + metadata (sizes, seam rows, and
    within-tile component ADJACENCY pairs); every seam pair is adjacency,
    and the same-value ones contract through the shared label merge
    (``_component_labels``).  Per-root sizes and adjacency fold with
    bucket-keyed groupbys, so the driver holds ONLY the small-component
    subgraph (components under the threshold, their incident edges, their
    direct neighbors' sizes) for the genuinely sequential merge loop; pass 2
    repaints tiles from a broadcast map of the CHANGED keys only."""
    import ray

    def emit(tx, ty, arr, labels, n):
        base = _ckey(tx, ty, 0)
        counts, starts, ys, xs = _label_stats(labels, n)
        # tiling-invariant canonical key: first (row-major) GLOBAL pixel of
        # each component
        gmin = ((ty * tile_size + ys[starts]) * np.int64(1 << 40)
                + (tx * tile_size + xs[starts]))
        # within-tile adjacency between DIFFERENT components (diagonals
        # too when connect8)
        shifts = [(labels[:, :-1], labels[:, 1:]), (labels[:-1, :], labels[1:, :])]
        if connect8:
            shifts += [(labels[:-1, :-1], labels[1:, 1:]),
                       (labels[:-1, 1:], labels[1:, :-1])]
        adj = [np.empty(0, np.int64)]
        for a, b in shifts:
            mm = (a >= 0) & (b >= 0) & (a != b)
            adj.append(np.unique(a[mm] * np.int64(n) + b[mm]))
        adj = np.concatenate(adj)
        return {"comp": {"key": base + np.arange(n, dtype=np.int64),
                         "value": arr[ys[starts], xs[starts]].astype(np.float64),
                         "n_pixels": counts.astype(np.int64), "gmin": gmin},
                "adj": {"key": base + adj // n, "key2": base + adj % n}}

    tagged = _tile_components(
        tiles_ds, emit, [("value", pa.float64()), ("n_pixels", pa.int64()),
                         ("gmin", pa.int64()), ("key2", pa.int64())],
        nodata=nodata, connect8=connect8)

    # --- distributed contraction -----------------------------------------
    # The same-value seam pairs contract through the shared label merge,
    # per-root sizes/values fold in one groupby, adjacency is root-mapped
    # with bucket joins, and the driver holds only the SMALL-component
    # subgraph: components under the threshold, their incident edges, and
    # the sizes of their direct large neighbors.  The merge loop itself is
    # genuinely sequential (GDAL's merge order matters:
    # alg/gdalsievefilter.cpp) but runs on O(small) metadata.
    from ray.data.aggregate import Min as _AggMin, Sum as _AggSum

    cross = _seam_pairs(_rows(tagged, "seam", _SEAM_COLS), connect8).materialize()
    labels = _component_labels(cross)

    comp_keyed = _attach_component(
        _rows(tagged, "comp", ["key", "value", "n_pixels", "gmin"]).map_batches(
            lambda t: t.append_column("orig_key", t["key"]), batch_format="pyarrow"),
        labels,
        payload=[("orig_key", pa.int64()), ("value", pa.float64()),
                 ("n_pixels", pa.int64()), ("gmin", pa.int64())],
        out_col="root").materialize()
    # contracted sizes + values (members of a root share one value by
    # construction — only same-value runs merged); gmin = first global pixel
    sizes = comp_keyed.groupby("root").aggregate(
        _AggSum("n_pixels", alias_name="size"),
        _AggMin("value", alias_name="value"),
        _AggMin("gmin", alias_name="gmin")).materialize()

    # contracted adjacency: within-tile adj rows + different-value crossings,
    # both endpoints mapped to their roots
    adj_ds = _rows(tagged, "adj", ["key", "key2"]).map_batches(
        lambda t: t.rename_columns(["key", "b"]), batch_format="pyarrow").union(
        cross.map_batches(
            lambda t: t.filter(pa.compute.invert(t["same"])).select(["a", "b"])
            .rename_columns(["key", "b"]), batch_format="pyarrow"))
    half = _attach_component(adj_ds, labels, payload=[("b", pa.int64())],
                             out_col="ra")
    both = _attach_component(
        half.map_batches(lambda t: pa.table({"key": t["b"], "ra": t["ra"]}),
                         batch_format="pyarrow"),
        labels, payload=[("ra", pa.int64())], out_col="rb")
    edges_c = both.map_batches(
        lambda t: t.filter(pa.compute.not_equal(t["ra"], t["rb"])),
        batch_format="pyarrow").materialize()

    # --- driver-side small subgraph -----------------------------------
    small_rows = sizes.map_batches(
        lambda t: t.filter(pa.compute.less(t["size"], threshold)),
        batch_format="pyarrow").take_all()
    small_set = {r["root"] for r in small_rows}
    small_ref = ray.put(np.fromiter(small_set, dtype=np.int64,
                                    count=len(small_set)))

    def incident(t: pa.Table) -> pa.Table:
        ss = ray.get(small_ref)
        ra = t["ra"].to_numpy(zero_copy_only=False)
        rb = t["rb"].to_numpy(zero_copy_only=False)
        keep = np.isin(ra, ss) | np.isin(rb, ss)
        return t.filter(pa.array(keep))

    inc_rows = edges_c.map_batches(incident, batch_format="pyarrow").take_all()
    nbr_set = ({r["ra"] for r in inc_rows} | {r["rb"] for r in inc_rows}) - small_set
    nbr_ref = ray.put(np.fromiter(nbr_set, dtype=np.int64, count=len(nbr_set)))

    def nbr_filter(t: pa.Table) -> pa.Table:
        ns = ray.get(nbr_ref)
        keep = np.isin(t["root"].to_numpy(zero_copy_only=False), ns)
        return t.filter(pa.array(keep))

    nbr_rows = sizes.map_batches(nbr_filter, batch_format="pyarrow").take_all()

    size: dict = {r["root"]: r["size"] for r in small_rows}
    value: dict = {r["root"]: r["value"] for r in small_rows}
    gmin: dict = {r["root"]: r["gmin"] for r in small_rows}
    for r in nbr_rows:
        size[r["root"]] = r["size"]
        value[r["root"]] = r["value"]
        gmin[r["root"]] = r["gmin"]
    # neighbor sets only for SMALL roots (large roots never initiate merges)
    neigh: dict = {r: set() for r in small_set}
    for row in inc_rows:
        a, b = row["ra"], row["rb"]
        if a in neigh:
            neigh[a].add(b)
        if b in neigh:
            neigh[b].add(a)

    # fixpoint merge loop on the small subgraph (merged-into via union-find)
    target: dict = {}

    def tfind(z):
        while target.get(z, z) != z:
            z = target[z]
        return z

    changed = True
    while changed:
        changed = False
        live = sorted((size[r], gmin[r], r) for r in small_set
                      if tfind(r) == r and r in size)
        for sz, _gm, r in live:
            if size[r] >= threshold:
                continue
            nbrs = {tfind(x) for x in neigh.get(r, ())} - {r}
            if not nbrs:
                continue
            tgt = max(nbrs, key=lambda x: (size[x], -gmin[x]))
            target[r] = tgt
            size[tgt] += size[r]
            size.pop(r)
            if tgt in neigh:
                neigh[tgt].update(nbrs - {tgt})
            for x in nbrs:
                if x in neigh:
                    neigh[x].discard(r)
                    if x != tgt:
                        neigh[x].add(tgt)
            neigh.pop(r, None)
            changed = True

    # repaint map: ONLY members of merged roots change value — O(small)
    new_val = {r: value[tfind(r)] for r in target
               if value[tfind(r)] != value[r]}
    nv_ref = ray.put(new_val)

    def member_map(t: pa.Table) -> pa.Table:
        nv = ray.get(nv_ref)
        root = t["root"].to_numpy(zero_copy_only=False)
        keep = np.isin(root, np.fromiter(nv.keys(), dtype=np.int64,
                                         count=len(nv)))
        f = t.filter(pa.array(keep))
        vals = [nv[r] for r in f["root"].to_numpy(zero_copy_only=False)]
        return pa.table({"orig_key": f["orig_key"],
                         "new_value": pa.array(vals, pa.float64())})

    final_val = {r["orig_key"]: r["new_value"] for r in
                 comp_keyed.map_batches(member_map,
                                        batch_format="pyarrow").take_all()}
    ref = ray.put(final_val)

    def repaint(batch: pa.Table) -> pa.Table:
        fv = ray.get(ref)
        rows = []
        for i in range(batch.num_rows):
            tx, ty = batch["x"][i].as_py(), batch["y"][i].as_py()
            arr = pixels(batch, i)
            labels, n = label_tile(arr, nodata, connect8)
            # one lookup-table gather over labels; nodata (-1) indexes the
            # extra last slot, which is never repainted
            vals = [fv.get(_ckey(tx, ty, lbl)) for lbl in range(n)]
            hit = np.array([v is not None for v in vals] + [False])
            lut = np.zeros(n + 1, arr.dtype)
            lut[hit] = np.asarray([v for v in vals if v is not None]).astype(arr.dtype)
            arr = np.where(hit[labels], lut[labels], arr)
            rows.append(tile_row(batch, i, arr))
        return pa.Table.from_pylist(rows)

    return tiles_ds.map_batches(repaint, batch_format="pyarrow")
