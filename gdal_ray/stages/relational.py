"""Relational operators (OGR SQL surface) — Ray-Data-first.

Covers the reference's OGR SQL dialect (SURVEY §2.5/2.6/2.11: aggregates
``ogr/swq_op_registrar.cpp:53-59``, WHERE engine ``ogr/ogrfeaturequery.cpp``,
ORDER BY ``ogr_gensql.cpp:2218``, DISTINCT ``ogr/ogr_swq.h:322``) with Arrow
compute kernels + Ray Data groupby/sort.

Scale pattern: every keyed aggregate here is **pre-aggregated** — partials are
computed per batch with ``pyarrow.TableGroupBy`` inside ``map_batches`` (the
combiner), and only the tiny per-key partials go through the all-to-all
``groupby``.  At 100 TB this turns the shuffle from O(rows) into
O(keys x blocks).  Operators that must see all rows of a key at once (window
ranks, semi/anti and set joins, dedup runs, label merges) share one keyed
shuffle, ``bucket_groups``.  It runs on ``cogroup``, the one exact-key
co-group of several inputs, which the multi-input operators elsewhere (tile
stacks and compares, chunk compares, blob and cluster joins, grid-cell pair
joins) call directly.

Numeric policy: aggregate outputs that feed the correctness oracle use exact
scaled-integer semantics (money in cents, ratios as scaled ints) so results
are bit-stable under any reduction order — the distributed analogue of
TPC-H DECIMAL columns.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..state.session import broadcast_ref, fetch, map_cached

_AGG_FIELD = {"sum": "sum", "min": "min", "max": "max", "count": "count"}


def partial_aggregate(
    ds,
    keys: list[str],
    sums: list[str] = (),
    mins: list[str] = (),
    maxs: list[str] = (),
    count_alias: str | None = None,
):
    """Two-phase keyed aggregate: per-batch pyarrow combiner -> small shuffle.

    Returns a Dataset with columns ``keys + [f"{c}" for sums/mins/maxs] +
    [count_alias]``.  All value columns must already be integer-typed for
    bit-stable results (see module docstring).
    """
    sums, mins, maxs = list(sums), list(mins), list(maxs)

    def combine(batch: pa.Table) -> pa.Table:
        aggs = [(c, "sum") for c in sums] + [(c, "min") for c in mins] + [(c, "max") for c in maxs]
        if count_alias:
            aggs.append((keys[0], "count"))
        g = batch.group_by(keys).aggregate(aggs)
        names = list(keys) + [f"{c}_sum" for c in sums] + [f"{c}_min" for c in mins] + [
            f"{c}_max" for c in maxs
        ]
        if count_alias:
            names.append(count_alias)
        # pyarrow names output "<col>_<agg>"; normalize order to ours
        cols = {}
        for want, have in zip(
            names,
            keys
            + [f"{c}_sum" for c in sums]
            + [f"{c}_min" for c in mins]
            + [f"{c}_max" for c in maxs]
            + ([f"{keys[0]}_count"] if count_alias else []),
        ):
            cols[want] = g[have]
        return pa.table(cols)

    partials = ds.map_batches(combine, batch_format="pyarrow")

    from ray.data.aggregate import Max, Min, Sum

    final_aggs = []
    for c in sums:
        final_aggs.append(Sum(f"{c}_sum", alias_name=f"{c}_sum"))
    for c in mins:
        final_aggs.append(Min(f"{c}_min", alias_name=f"{c}_min"))
    for c in maxs:
        final_aggs.append(Max(f"{c}_max", alias_name=f"{c}_max"))
    if count_alias:
        final_aggs.append(Sum(count_alias, alias_name=count_alias))
    return partials.groupby(keys).aggregate(*final_aggs)


def scaled_int_column(batch: pa.Table, col: str, scale: int, out: str) -> pa.Table:
    """double -> exact scaled int64 (e.g. dollars -> cents).  Round mode is
    half-away-from-zero to match SQL ``CAST(round(x * scale) AS BIGINT)``
    bit-for-bit (DuckDB round() is half-away)."""
    v = pc.round(pc.multiply(batch[col], pa.scalar(float(scale))), round_mode="half_towards_infinity")
    return batch.append_column(out, pc.cast(v, pa.int64()))


def top_k(ds, keys: list[str], descending: list[bool], k: int):
    """ORDER BY ... LIMIT k (ogr_gensql.cpp CreateOrderByIndex semantics);
    Ray's sort is a range-partitioned shuffle, limit prunes blocks."""
    return ds.sort(keys, descending=descending).limit(k)


def distinct(ds, cols: list[str]):
    """DISTINCT via groupby on the columns (exact, shuffle on unique keys)."""
    from ray.data.aggregate import Count

    return ds.groupby(cols).aggregate(Count(alias_name="_n")).drop_columns(["_n"])


def filter_expr(ds, fn):
    """WHERE pushdown: vectorized Arrow predicate inside map_batches."""
    return ds.map_batches(lambda t: t.filter(fn(t)), batch_format="pyarrow")


class _BroadcastHashJoin:
    """Probe batches against a broadcast build side sorted by key (built
    once per worker process).  ``left`` keeps unmatched probe rows with NULL
    build columns; otherwise they drop."""

    def __init__(self, ref, small_key: str, key: str, emit: list, left: bool):
        self.table = fetch(ref)
        keys = self.table[small_key].to_numpy(zero_copy_only=False)
        self.order = np.argsort(keys, kind="stable")
        self.sorted_keys = keys[self.order]
        self.key, self.emit, self.left = key, emit, left

    def __call__(self, batch: pa.Table) -> pa.Table:
        return self._left(batch) if self.left else self._inner(batch)

    def _inner(self, batch: pa.Table) -> pa.Table:
        if len(self.sorted_keys) == 0:  # empty build side -> no matches
            out = batch.slice(0, 0)
            for c in self.emit:
                out = out.append_column(c, self.table[c].slice(0, 0))
            return out
        probe = batch[self.key].to_numpy(zero_copy_only=False)
        pos = np.searchsorted(self.sorted_keys, probe)
        pos = np.clip(pos, 0, len(self.sorted_keys) - 1)
        hit = self.sorted_keys[pos] == probe
        rows = np.nonzero(hit)[0]
        src = self.order[pos[rows]]
        out = batch.take(pa.array(rows))
        for c in self.emit:
            out = out.append_column(c, self.table[c].take(pa.array(src)))
        return out

    def _left(self, batch: pa.Table) -> pa.Table:
        probe = batch[self.key].to_numpy(zero_copy_only=False)
        out = batch
        if len(self.sorted_keys) == 0:
            for c in self.emit:
                out = out.append_column(
                    c, pa.nulls(out.num_rows, self.table.schema.field(c).type))
            return out
        pos = np.searchsorted(self.sorted_keys, probe)
        pos = np.clip(pos, 0, len(self.sorted_keys) - 1)
        hit = self.sorted_keys[pos] == probe
        src = self.order[pos]
        hit_arr = pa.array(hit)
        for c in self.emit:
            col = self.table[c].take(pa.array(src))
            if isinstance(col, pa.ChunkedArray):
                col = col.combine_chunks()
            out = out.append_column(
                c, pc.if_else(hit_arr, col, pa.scalar(None, col.type)))
        return out


def hash_join_broadcast(ds, small: pa.Table, key: str, small_key: str,
                        emit: list[str]):
    """Equi-join with a broadcast small side (OGR SQL JOIN,
    ogr_gensql.cpp:1334-1530, re-expressed as ray.put + per-batch hash lookup
    instead of the reference's per-row secondary-layer filter pushdown)."""
    return map_cached(ds, _BroadcastHashJoin, broadcast_ref(small), small_key, key, emit,
                      False, batch_format="pyarrow")


def hash_join_broadcast_left(ds, small: pa.Table, key: str, small_key: str,
                             emit: list[str]):
    """LEFT OUTER equi-join with a broadcast small side (OGR SQL LEFT JOIN,
    ogr_gensql.cpp secondary-table semantics: unmatched probe rows survive
    with NULL build columns).  Duplicate build keys keep the FIRST occurrence
    (matching the sorted-probe inner join's stable tie-break)."""
    return map_cached(ds, _BroadcastHashJoin, broadcast_ref(small), small_key, key, emit,
                      True, batch_format="pyarrow")


BUCKETS = 64


def bucket_of(keys, buckets: int = BUCKETS) -> np.ndarray:
    """Hash bucket in [0, buckets) of an array of int64-castable keys.

    Fibonacci hashing (Knuth, TAOCP §6.4): the high 32 bits of the 64-bit
    product k * 2^64/phi, so every key bit reaches the bucket.  The low bits
    of a product depend on the key's low bits only — multiples of 64 would
    all share one bucket."""
    k = np.asarray(keys).astype(np.int64).view(np.uint64)
    h = (k * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(32)
    return (h % np.uint64(buckets)).astype(np.int64)


def cogroup(sides, keys, per_key):
    """The exact-key co-group behind every multi-input operator: tag each
    side's rows, ``union`` the sides, ``groupby(keys)`` and call ``per_key``
    once per key.

    ``sides`` is a list of ``(Dataset, pa.Schema)``; ``per_key(*tables)``
    gets one table per side, in list order: that side's rows at the key,
    projected and cast to its schema (a side with no rows there arrives as a
    zero-row table of its schema).  Sides share a column by name, the key
    columns among them; the columns a side lacks ride the shuffle as typed
    nulls.  ``keys`` is a column name or a list of them.  The order of keys,
    and of a side's rows at a key, are unspecified."""
    schemas = [schema for _, schema in sides]
    union = pa.unify_schemas(schemas, promote_options="permissive")

    def tagger(i: int):
        def tag(t: pa.Table) -> pa.Table:
            t = t.select(schemas[i].names).cast(schemas[i])
            cols = [t[f.name].cast(f.type) if f.name in t.column_names
                    else pa.nulls(t.num_rows, f.type) for f in union]
            return pa.Table.from_arrays(
                cols + [pa.array(np.full(t.num_rows, i, np.int8))],
                names=union.names + ["_side"])
        return tag

    def split(g: pa.Table) -> pa.Table:
        side = g["_side"].to_numpy(zero_copy_only=False)
        return per_key(*[g.filter(pa.array(side == i)).select(s.names).cast(s)
                         for i, s in enumerate(schemas)])

    first, *rest = [ds.map_batches(tagger(i), batch_format="pyarrow")
                    for i, (ds, _) in enumerate(sides)]
    both = first.union(*rest) if rest else first
    return both.groupby(keys).map_groups(split, batch_format="pyarrow")


def bucket_groups(sides, key, per_bucket, buckets: int = BUCKETS):
    """The keyed shuffle behind every hash-partitioned operator: tag rows
    with ``bucket_of(key)``, ``groupby`` the bucket, and call ``per_bucket``
    once per non-empty bucket, which resolves all of its keys in one
    vectorized pass.  Equal keys meet in one bucket; which other keys share
    it, and the order of rows and buckets, are unspecified.

    ``sides`` is one Dataset, and ``per_bucket(table)`` gets the bucket's
    rows in the Dataset's own columns; or a list of ``(Dataset, pa.Schema)``
    co-group sides, and ``per_bucket(*tables)`` gets one table per side as
    ``cogroup`` hands them over.  ``key`` is the key column's name or a
    function of a batch returning the keys."""
    def part(t: pa.Table) -> pa.Array:
        keys = key(t) if callable(key) else t[key].to_numpy(zero_copy_only=False)
        return pa.array(bucket_of(keys, buckets))

    if not isinstance(sides, list):
        def tag(t: pa.Table) -> pa.Table:
            return t.append_column("_part", part(t))

        return sides.map_batches(tag, batch_format="pyarrow").groupby(
            "_part").map_groups(lambda g: per_bucket(g.drop_columns(["_part"])),
                                batch_format="pyarrow")

    def tagger(schema: pa.Schema):
        def tag(t: pa.Table) -> pa.Table:
            t = t.select(schema.names).cast(schema)
            return t.append_column("_part", part(t))
        return tag

    return cogroup(
        [(ds.map_batches(tagger(s), batch_format="pyarrow"),
          s.append(pa.field("_part", pa.int64()))) for ds, s in sides],
        "_part",
        lambda *ts: per_bucket(*[t.drop_columns(["_part"]) for t in ts]))


def _topn_mask(key: np.ndarray, order_val: np.ndarray, tie: np.ndarray, n: int):
    """Sort rows (key asc, order_val desc, tie asc) and return (sort_order,
    within-key rank 0-based).  All inputs numeric numpy arrays."""
    order = np.lexsort((tie, -order_val, key))
    k = key[order]
    new_key = np.ones(k.size, dtype=bool)
    new_key[1:] = k[1:] != k[:-1]
    starts = np.flatnonzero(new_key)
    sizes = np.diff(np.r_[starts, k.size])
    within = np.arange(k.size) - np.repeat(starts, sizes)
    return order, within


def group_top_n(ds, key_col: str, order_col: str, n: int, tie_col: str):
    """ROW_NUMBER() OVER (PARTITION BY key ORDER BY order_col DESC, tie_col)
    <= n, i.e. distributed per-group top-N with rank (the OGR SQL dialect has
    no window functions; the SQLite dialect the reference exposes does —
    ``ogr/ogrsf_frmts/sqlite``).

    Scale shape: a per-batch COMBINER keeps at most n rows per key locally, so
    the shuffle moves O(n x keys x blocks) candidate rows, not O(rows); the
    final pass is ONE ``bucket_groups`` shuffle on the key with each bucket
    ranking all of its keys in a single vectorized lexsort (no per-key Python
    callback).  Requires numeric key/order/tie columns.
    """

    def columns(t: pa.Table):
        return (t[key_col].to_numpy(zero_copy_only=False).astype(np.int64),
                t[order_col].to_numpy(zero_copy_only=False).astype(np.float64),
                t[tie_col].to_numpy(zero_copy_only=False).astype(np.int64))

    def local_prune(batch: pa.Table) -> pa.Table:
        order, within = _topn_mask(*columns(batch), n)
        keep = order[within < n]
        keep.sort()  # preserve input order for stability
        return batch.take(pa.array(keep))

    def per_bucket(g: pa.Table) -> pa.Table:
        order, within = _topn_mask(*columns(g), n)
        keep = within < n
        out = g.take(pa.array(order[keep]))
        return out.append_column("rn", pa.array(within[keep] + 1))

    pruned = ds.map_batches(local_prune, batch_format="pyarrow")
    return bucket_groups(pruned, key_col, per_bucket)


def global_prefix_sum(ds, order_col: str, value_col: str, bucket_size: int,
                      out: str = "cum"):
    """EXCLUSIVE prefix sum of value_col in global order_col order (integer
    keys >= 0), the distributed-scan primitive behind sequence packing /
    global offsets.

    Two-pass shape: (1) per-batch partial sums keyed by
    ``bucket = order_col // bucket_size`` (a combiner — the shuffle moves one
    row per bucket per block), folded into per-bucket totals whose driver-side
    cumsum is the tiny broadcast offset table; (2) a second streaming pass
    re-buckets each batch and adds the bucket offset to the exact in-bucket
    prefix (each bucket's rows are ranked by order_col with bincount/cumsum,
    so blocks never need to see each other).  All arithmetic is int64-exact.

    Requires order_col values unique; rows with equal buckets may be spread
    over any blocks.
    """
    import ray

    def partial(t: pa.Table) -> pa.Table:
        k = t[order_col].to_numpy(zero_copy_only=False).astype(np.int64)
        v = t[value_col].to_numpy(zero_copy_only=False).astype(np.int64)
        b = k // bucket_size
        g = pa.table({"b": pa.array(b), "s": pa.array(v)}).group_by("b").aggregate(
            [("s", "sum")])
        return pa.table({"b": g["b"], "s": g["s_sum"]})

    from ray.data.aggregate import Sum

    totals = ds.map_batches(partial, batch_format="pyarrow") \
               .groupby("b").aggregate(Sum("s", alias_name="s")).take_all()
    totals.sort(key=lambda r: r["b"])
    offs = {}
    acc = 0
    for r in totals:
        offs[r["b"]] = acc
        acc += r["s"]
    ref = ray.put(offs)

    # within a bucket the prefix over OTHER rows of the same bucket must be
    # global — only possible when a bucket never spans blocks, so pass 2
    # first re-shuffles rows onto their bucket
    def tag(t: pa.Table) -> pa.Table:
        k = t[order_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return t.append_column("_bucket", pa.array(k // bucket_size))

    def scan(g: pa.Table) -> pa.Table:
        g = g.drop_columns(["_bucket"])
        if g.num_rows == 0:
            return g.append_column(out, pa.array([], pa.int64()))
        offs_ = ray.get(ref)
        k = g[order_col].to_numpy(zero_copy_only=False).astype(np.int64)
        v = g[value_col].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.argsort(k, kind="stable")
        cum_sorted = np.cumsum(v[order]) - v[order]  # exclusive, in-bucket
        cum = np.empty(len(k), dtype=np.int64)
        cum[order] = cum_sorted
        base = offs_.get(int(k[0]) // bucket_size, 0)
        return g.append_column(out, pa.array(cum + base))

    return ds.map_batches(tag, batch_format="pyarrow") \
             .groupby("_bucket").map_groups(scan, batch_format="pyarrow")


def semi_anti_join_partitioned(probe, build, key: str, build_key: str | None = None,
                               anti: bool = False):
    """Distributed semi / anti equi-join (OGR SQL ``WHERE [NOT] EXISTS`` /
    ``IN (subquery)`` shape, reference ``ogr/ogrsf_frmts/generic`` SQL
    dialect via SWQ expressions): emit probe rows whose key does (semi) or
    does not (anti) appear in the build side.

    Scale shape: NO broadcast — both sides co-group on the key in ONE
    ``bucket_groups`` shuffle (the build side can be corpus-sized), and each
    bucket resolves membership with a single vectorized ``np.isin`` over all
    its keys — one Python call per bucket, not per key.
    """
    build_keys = build.select_columns([build_key or key]).rename_columns([key])

    def resolve(p: pa.Table, b: pa.Table) -> pa.Table:
        member = np.isin(p[key].to_numpy(zero_copy_only=False).astype(np.int64),
                         b[key].to_numpy(zero_copy_only=False))
        return p.filter(pa.array(~member if anti else member))

    return bucket_groups(
        [(probe, probe.schema().base_schema),
         (build_keys, pa.schema([(key, pa.int64())]))], key, resolve)


def set_op(a_ds, b_ds, col: str, op: str):
    """SQL INTERSECT / EXCEPT (DISTINCT set semantics) over one projected
    column (reference surface: OGR SQL set queries via the SQLite dialect,
    ``ogr/ogrsf_frmts/sqlite``).

    Scale shape: each side reduces to its per-batch UNIQUE values first (the
    combiner — shuffle volume is O(distinct x blocks), not O(rows)), then ONE
    ``bucket_groups`` shuffle; each bucket resolves presence with two
    vectorized ``np.isin`` calls.  ``op``: 'intersect' | 'except'.
    """
    if op not in ("intersect", "except"):
        raise ValueError(f"op must be intersect|except, got {op!r}")

    def distinct(t: pa.Table) -> pa.Table:
        k = np.unique(t[col].to_numpy(zero_copy_only=False).astype(np.int64))
        return pa.table({col: pa.array(k)})

    def resolve(a: pa.Table, b: pa.Table) -> pa.Table:
        a = np.unique(a[col].to_numpy(zero_copy_only=False))
        hit = np.isin(a, b[col].to_numpy(zero_copy_only=False))
        return pa.table({col: pa.array(a[hit if op == "intersect" else ~hit])})

    schema = pa.schema([(col, pa.int64())])
    return bucket_groups(
        [(a_ds.map_batches(distinct, batch_format="pyarrow"), schema),
         (b_ds.map_batches(distinct, batch_format="pyarrow"), schema)],
        col, resolve)


def group_rank(ds, key_col: str, order_col: str, tie_col: str,
               descending: bool = True):
    """RANK() and DENSE_RANK() OVER (PARTITION BY key ORDER BY order_col
    [DESC]) — full-group window ranks (SQLite-dialect window surface).

    ONE ``bucket_groups`` shuffle on the key, then each bucket ranks ALL its
    keys in a single vectorized lexsort + run-length scan (the group_top_n /
    session-windows plan: no per-key Python callback).  ``tie_col`` breaks
    nothing — RANK ties share a rank — it only pins the OUTPUT ordering so
    results are deterministic.  Numeric columns required.
    """

    def per_bucket(g: pa.Table) -> pa.Table:
        k = g[key_col].to_numpy(zero_copy_only=False).astype(np.int64)
        v = g[order_col].to_numpy(zero_copy_only=False).astype(np.int64)
        t = g[tie_col].to_numpy(zero_copy_only=False).astype(np.int64)
        sv = -v if descending else v
        order = np.lexsort((t, sv, k))
        ks, vs = k[order], sv[order]
        new_key = np.empty(len(order), dtype=bool)
        new_key[0] = True
        new_key[1:] = ks[1:] != ks[:-1]
        new_val = np.empty(len(order), dtype=bool)
        new_val[0] = True
        new_val[1:] = new_key[1:] | (vs[1:] != vs[:-1])
        pos = np.arange(len(order), dtype=np.int64)
        group_start = np.maximum.accumulate(np.where(new_key, pos, 0))
        # RANK: 1 + rows before the first row of this value run (within key)
        val_start = np.maximum.accumulate(np.where(new_val, pos, 0))
        rnk = val_start - group_start + 1
        # DENSE_RANK: 1 + number of distinct value runs before this one
        runs = np.cumsum(new_val)
        drnk = runs - runs[group_start] + 1
        out = g.take(pa.array(order))
        return out.append_column("rnk", pa.array(rnk)) \
                  .append_column("drnk", pa.array(drnk))

    return bucket_groups(ds, key_col, per_bucket)


def union_layers(layers: dict):
    """ogrmerge.py surface (reference osgeo_utils/ogrmerge role): append
    N vector layers with DIFFERENT schemas into one — the union schema keeps
    first-seen column order, sides missing a column emit typed nulls, and a
    ``layer`` tag records provenance.  Pure map + UNION ALL: no shuffle.
    Type conflicts raise (the reference promotes; we fail loudly)."""
    names: list = []
    types: dict = {}
    for lname, ds in layers.items():
        for f in ds.schema().base_schema:
            if f.name in types:
                if types[f.name] != f.type:
                    raise ValueError(
                        f"column {f.name!r}: {types[f.name]} != {f.type}")
            else:
                types[f.name] = f.type
                names.append(f.name)

    def pad(lname: str):
        def fn(t: pa.Table) -> pa.Table:
            cols = {"layer": pa.array([lname] * t.num_rows, pa.string())}
            for n in names:
                cols[n] = t[n] if n in t.column_names else pa.nulls(
                    t.num_rows, types[n])
            return pa.table(cols)
        return fn

    out = None
    for lname, ds in layers.items():
        part = ds.map_batches(pad(lname), batch_format="pyarrow")
        out = part if out is None else out.union(part)
    return out


def group_quantiles(ds, key_col: str, value_col: str,
                    ps=(0.25, 0.5, 0.75), names=("q25", "q50", "q75")):
    """Exact per-group quantiles of an integer column via the value-histogram
    plan: a two-phase (key, value) count collapses the data to one row per
    distinct value per key BEFORE the shuffle, then each group's cumulative
    pick runs over its tiny histogram (O(distinct values), not O(rows)).
    rank = floor(p*(n-1)) + 1 with 'lower' interpolation — matches DuckDB's
    quantile_disc bit-for-bit on integer columns.

    The final map_groups callback touches only aggregated histogram rows, so
    per-group Python cost is bounded by the value cardinality, never the data.
    """
    prep = ds.map_batches(
        lambda t: pa.table({key_col: t[key_col],
                            "v": pc.cast(t[value_col], pa.int64())}),
        batch_format="pyarrow",
    )
    counts = partial_aggregate(prep, [key_col, "v"], count_alias="cnt")

    def per_group(g: pa.Table) -> pa.Table:
        v = g["v"].to_numpy(zero_copy_only=False)
        c = g["cnt"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.argsort(v, kind="stable")
        v, c = v[order], c[order]
        cum = np.cumsum(c)
        n = int(cum[-1])
        out = {key_col: [g[key_col][0].as_py()], "n": [n]}
        for p, name in zip(ps, names):
            rank = int(np.floor(p * (n - 1))) + 1
            out[name] = [int(v[np.searchsorted(cum, rank)])]
        return pa.table(
            {key_col: pa.array(out[key_col]),
             "n": pa.array(out["n"], pa.int64()),
             **{name: pa.array(out[name], pa.int64()) for name in names}}
        )

    return counts.groupby(key_col).map_groups(per_group, batch_format="pyarrow")


def group_string_agg_topn(ds, key_col: str, name_col: str, order_col: str,
                          tie_col: str, n: int = 3):
    """Ordered STRING_AGG of each group's top-N rows (SQLite-dialect
    string_agg(... ORDER BY) surface): per group, the comma-joined
    ``name_col`` values of the N best rows by (order_col DESC, tie_col ASC).

    Scale shape: a per-batch combiner keeps at most N rows per key (local
    argsort against per-batch factorized key codes), so the final
    ``groupby(key).map_groups`` sees O(N x blocks) rows per key — and the
    key cardinality for this aggregate is bounded (segments, categories),
    never the data."""

    def local_prune(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch
        keys = batch[key_col].to_numpy(zero_copy_only=False)
        _, codes = np.unique(keys, return_inverse=True)
        v = batch[order_col].to_numpy(zero_copy_only=False).astype(np.float64)
        t = batch[tie_col].to_numpy(zero_copy_only=False).astype(np.int64)
        order, within = _topn_mask(codes.astype(np.int64), v, t, n)
        keep = order[within < n]
        keep.sort()
        return batch.take(pa.array(keep))

    def per_group(g: pa.Table) -> pa.Table:
        v = g[order_col].to_numpy(zero_copy_only=False).astype(np.float64)
        t = g[tie_col].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((t, -v))[:n]
        names = [g[name_col][int(i)].as_py() for i in order]
        return pa.table({
            key_col: pa.array([g[key_col][0].as_py()]),
            "top_names": pa.array([",".join(names)]),
            "n_rows": pa.array([len(names)], pa.int64()),
        })

    pruned = ds.map_batches(local_prune, batch_format="pyarrow")
    return pruned.groupby(key_col).map_groups(per_group, batch_format="pyarrow")


class _RangeJoiner:
    """The slab CSR of a broadcast interval table (see
    :func:`range_join_broadcast`), built once per worker process."""

    def __init__(self, ref, value_col: str, lo_col: str, hi_col: str, emit: list):
        t = fetch(ref)
        self.value_col, self.emit = value_col, emit
        lo = t[lo_col].to_numpy(zero_copy_only=False).astype(np.float64)
        hi = t[hi_col].to_numpy(zero_copy_only=False).astype(np.float64)
        keep = hi > lo
        lo, hi = lo[keep], hi[keep]
        self.table = t.filter(pa.array(keep))
        # elementary slabs between consecutive distinct endpoints
        B = np.unique(np.concatenate([lo, hi]))
        self.bounds = B
        nslabs = max(len(B) - 1, 0)
        s0 = np.searchsorted(B, lo, side="left")
        s1 = np.searchsorted(B, hi, side="left")
        counts = np.zeros(nslabs + 1, dtype=np.int64)
        np.add.at(counts, s0, 1)
        np.add.at(counts, s1, -1)
        cover = np.cumsum(counts[:-1])  # intervals covering each slab
        self.indptr = np.zeros(nslabs + 1, dtype=np.int64)
        np.cumsum(cover, out=self.indptr[1:])
        # fill CSR fully vectorized: expand every interval to its
        # (slab, interval) incidences with repeat/arange, then one
        # stable argsort on slab groups the lists (total size = sum of
        # coverage, bounded by overlap depth x slabs)
        span = s1 - s0
        total = int(span.sum())
        rep_k = np.repeat(np.arange(len(lo)), span)
        offs = np.zeros(len(lo), dtype=np.int64)
        np.cumsum(span[:-1], out=offs[1:])
        slab_of = s0[rep_k] + (np.arange(total) - np.repeat(offs, span))
        order = np.argsort(slab_of, kind="stable")
        self.indices = rep_k[order]

    def __call__(self, batch: pa.Table) -> pa.Table:
        v = batch[self.value_col].to_numpy(zero_copy_only=False).astype(np.float64)
        B = self.bounds
        slab = np.searchsorted(B, v, side="right") - 1
        ok = (slab >= 0) & (slab < len(B) - 1)
        slab_ok = slab[ok]
        rows_ok = np.flatnonzero(ok)
        cnt = self.indptr[slab_ok + 1] - self.indptr[slab_ok]
        probe_rows = np.repeat(rows_ok, cnt)
        total = int(cnt.sum())
        if total == 0:
            cols = {c: batch[c].slice(0, 0) for c in batch.column_names}
            for c in self.emit:
                cols[c] = self.table[c].slice(0, 0)
            return pa.table(cols)
        starts = np.repeat(self.indptr[slab_ok], cnt)
        offs = np.zeros(len(cnt), dtype=np.int64)
        np.cumsum(cnt[:-1], out=offs[1:])
        pos = starts + (np.arange(total) - np.repeat(offs, cnt))
        ivl = self.indices[pos]
        cols = {c: batch[c].take(pa.array(probe_rows))
                for c in batch.column_names}
        take = pa.array(ivl)
        for c in self.emit:
            cols[c] = self.table[c].take(take)
        return pa.table(cols)


def range_join_broadcast(probe_ds, intervals: pa.Table, value_col: str,
                         lo_col: str, hi_col: str, emit: list):
    """Interval / range join: each probe row matches every interval with
    ``lo <= value < hi`` (intervals may OVERLAP arbitrarily).

    Physical plan (the 1-D cousin of the CSR cell-grid spatial join,
    join.py): the interval endpoints cut the value axis into elementary
    SLABS; a CSR (slab -> covering-interval list) index is built ONCE per
    worker from the broadcast interval table, and each probe batch is one
    searchsorted + one CSR gather — candidates are EXACT matches (slab
    boundaries are interval endpoints), so there is no post-filter.
    Broadcast side must be metadata-sized; for a corpus-sized build side,
    range-partition the value domain, replicate each interval to every
    partition it overlaps, and run this per partition (the events.py
    asof_join_partitioned shape).
    Output: probe id/value columns + the interval's ``emit`` columns.
    """
    return map_cached(probe_ds, _RangeJoiner, broadcast_ref(intervals), value_col, lo_col,
                      hi_col, emit, batch_format="pyarrow")


def exact_quantiles(ds, value_col: str, ps: tuple = (0.25, 0.5, 0.75, 0.9),
                    max_distinct: int = 65536, max_rounds: int = 64):
    """EXACT distributed quantiles with BOUNDED driver memory (reference
    semantics: PERCENTILE_DISC 'lower' pick, rank = floor(p*(n-1)) + 1 on
    the sorted multiset).

    Discrete columns (<= ``max_distinct`` distinct values, checked with a
    distributed count — never collected first) use the value-histogram
    plan: groupby(value).count -> tiny cumulative pick.  Continuous
    columns use iterative histogram refinement: each round ONE pass bins
    every live quantile's candidate interval into ``max_distinct``
    equal-width bins (a per-batch numpy histogram folded by a bucket
    groupby), and each rank descends into its containing bin — the driver
    holds one O(bins) vector per rank per round, never the value set.
    Rounds needed ~ log_bins(range/ulp), in practice <= 4 for float64.

    Returns {"n": total_rows, f"q{int(p*100)}": value} as Python floats.
    """
    import ray

    n = ds.count()
    if n == 0:
        raise ValueError("exact_quantiles over an empty dataset")
    ranks = {p: int(np.floor(p * (n - 1))) + 1 for p in ps}

    vc = ds.groupby(value_col).count()
    if vc.count() <= max_distinct:
        rows = sorted(vc.take_all(), key=lambda r: r[value_col])
        vals = np.array([r[value_col] for r in rows], dtype=np.float64)
        cum = np.cumsum([r["count()"] for r in rows])
        out = {"n": n}
        for p, r in ranks.items():
            out[f"q{int(round(p * 100))}"] = float(vals[np.searchsorted(cum, r)])
        return out

    # continuous: histogram refinement.  State per rank: [lo, hi] interval
    # known to contain the rank'th value, and less = #values < lo.
    stats = ds.map_batches(
        lambda t: pa.table({
            "mn": pa.array([pc.min(t[value_col]).as_py()], pa.float64()),
            "mx": pa.array([pc.max(t[value_col]).as_py()], pa.float64())}),
        batch_format="pyarrow")
    gmin = stats.min("mn")
    gmax = stats.max("mx")
    B = int(max_distinct)
    state = {p: [float(gmin), float(gmax), 0] for p in ps}
    out = {"n": n}
    live = dict(state)
    for _round in range(max_rounds):
        if not live:
            break
        intervals = [(p, lo, hi) for p, (lo, hi, _l) in live.items()]
        iv_ref = ray.put(intervals)

        def bin_counts(t: pa.Table) -> pa.Table:
            ivs = ray.get(iv_ref)
            v = pc.cast(t[value_col], pa.float64()).to_numpy(
                zero_copy_only=False)
            ks, bs, cs = [], [], []
            for k, (p, lo, hi) in enumerate(ivs):
                w = (hi - lo) / B
                if w <= 0:
                    continue
                sel = v[(v >= lo) & (v <= hi)]
                idx = np.clip(((sel - lo) / w).astype(np.int64), 0, B - 1)
                cnt = np.bincount(idx, minlength=B)
                nz = np.flatnonzero(cnt)
                ks.append(np.full(nz.size, k, np.int64))
                bs.append(nz.astype(np.int64))
                cs.append(cnt[nz].astype(np.int64))
            if not ks:
                return pa.table({"k": pa.array([], pa.int64()),
                                 "b": pa.array([], pa.int64()),
                                 "c": pa.array([], pa.int64())})
            return pa.table({"k": pa.array(np.concatenate(ks)),
                             "b": pa.array(np.concatenate(bs)),
                             "c": pa.array(np.concatenate(cs))})

        from ray.data.aggregate import Sum

        folded = (ds.map_batches(bin_counts, batch_format="pyarrow")
                  .groupby(["k", "b"]).aggregate(Sum("c", alias_name="c"))
                  .take_all())  # O(#live * B) rows, bounded by construction
        per_k: dict = {}
        for r in folded:
            per_k.setdefault(r["k"], {})[r["b"]] = r["c"]
        nxt = {}
        for k, (p, lo, hi) in enumerate(intervals):
            rank = ranks[p]
            less = live[p][2]
            w = (hi - lo) / B
            if w <= 0:
                out[f"q{int(round(p * 100))}"] = lo
                continue
            cnt = np.zeros(B, np.int64)
            for b, c in per_k.get(k, {}).items():
                cnt[b] = c
            cum = less + np.cumsum(cnt)
            bi = int(np.searchsorted(cum, rank))
            new_lo = lo + bi * w
            new_hi = lo + (bi + 1) * w if bi < B - 1 else hi
            new_less = int(less + (cum[bi - 1] - less if bi > 0 else 0))
            if cnt[bi] == 1 or new_hi - new_lo <= 0 or \
                    np.nextafter(new_lo, new_hi) >= new_hi:
                # isolated: the rank'th value is the min value in the bin
                fin = ds.map_batches(
                    lambda t, lo_=new_lo, hi_=new_hi: pa.table({
                        "mn": pa.array([_min_in(t[value_col], lo_, hi_)],
                                       pa.float64())}),
                    batch_format="pyarrow").min("mn")
                out[f"q{int(round(p * 100))}"] = float(fin)
                continue
            nxt[p] = [new_lo, new_hi, new_less]
        # switch any interval whose distinct count now fits to the exact plan
        still = {}
        for p, (lo, hi, less) in nxt.items():
            sub = ds.map_batches(
                lambda t, lo_=lo, hi_=hi: _filter_range(t, value_col, lo_, hi_),
                batch_format="pyarrow")
            dvc = sub.groupby(value_col).count()
            if dvc.count() <= max_distinct:
                rows = sorted(dvc.take_all(), key=lambda r: r[value_col])
                vals = np.array([r[value_col] for r in rows], np.float64)
                cum = less + np.cumsum([r["count()"] for r in rows])
                out[f"q{int(round(p * 100))}"] = float(
                    vals[np.searchsorted(cum, ranks[p])])
            else:
                still[p] = [lo, hi, less]
        live = still
    if live:
        raise RuntimeError(f"exact_quantiles did not converge: {live}")
    return out


def _min_in(col, lo, hi):
    v = pc.cast(col, pa.float64()).to_numpy(zero_copy_only=False)
    sel = v[(v >= lo) & (v <= hi)]
    return float(sel.min()) if sel.size else np.inf


def _filter_range(t, col, lo, hi):
    v = pc.cast(t[col], pa.float64())
    m = pc.and_(pc.greater_equal(v, lo), pc.less_equal(v, hi))
    return t.filter(m)
