"""Stream-shaped operators over the ordered events log.

The reference has no event-time machinery (SURVEY §2.12); these are the
batch-semantics equivalents the brief asks for: tumbling-window aggregates
(GROUP BY floor(epoch/window)) and an as-of join (each event matched to the
latest orders row of the same key at or before its timestamp).

Ordering contract: windows are pure keyed aggregates (order-free); the as-of
join sorts within (key) groups only — no global ordering assumption.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .relational import bucket_groups, partial_aggregate
from ..state.session import fetch, map_cached


def _epoch_us(col) -> np.ndarray:
    arr = col.to_numpy(zero_copy_only=False)
    return arr.astype("datetime64[us]").astype(np.int64)


def tumbling_window(ds, window_s: int = 3600, ts_col: str = "ts", key_col: str = "event_type"):
    """Count + exact value-cents sum per (key, window).

    window_id = floor(epoch_seconds / window_s) — integer arithmetic, SQL
    mirror: CAST(floor(epoch(ts)/W) AS BIGINT).
    """

    def tag(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        sec = _epoch_us(batch[ts_col]) // 1_000_000
        wid = sec // window_s
        # half-away-from-zero to match SQL round() (see relational.py policy)
        value_c = pc.cast(
            pc.round(
                pc.multiply(batch["value"], pa.scalar(100.0)),
                round_mode="half_towards_infinity",
            ),
            pa.int64(),
        )
        return pa.table(
            {
                key_col: batch[key_col],
                "window_id": pa.array(wid),
                "value_cents": value_c,
            }
        )

    tagged = ds.map_batches(tag, batch_format="pyarrow")
    return partial_aggregate(
        tagged, [key_col, "window_id"], sums=["value_cents"], count_alias="n_events"
    )


def sliding_window(ds, window_s: int, step_s: int, ts_col: str = "ts", key_col: str = "event_type"):
    """Sliding windows: an event at second ``sec`` belongs to every window id
    w with w*step <= sec < w*step + window (flat_map to window ids ->
    pre-aggregated groupby).  Handles window_s not divisible by step_s: the
    per-event window count then varies by alignment."""
    max_windows = -(-window_s // step_s)  # ceil

    def tag(batch: pa.Table) -> pa.Table:
        sec = _epoch_us(batch[ts_col]) // 1_000_000
        base = sec // step_s
        rows_all, wids_all = [], []
        for j in range(max_windows):
            wid = base - j
            keep = wid * step_s + window_s > sec  # window still covers sec
            rows_all.append(np.flatnonzero(keep))
            wids_all.append(wid[keep])
        take = pa.array(np.concatenate(rows_all))
        return pa.table(
            {
                key_col: batch[key_col].take(take),
                "window_id": pa.array(np.concatenate(wids_all)),
            }
        )

    tagged = ds.map_batches(tag, batch_format="pyarrow")
    return partial_aggregate(tagged, [key_col, "window_id"], count_alias="n_events")


def session_windows(ds, gap_s: int, ts_col: str = "ts", key_col: str = "user_id",
                    id_col: str = "event_id"):
    """Session windowing per key: a new session starts when the gap to the
    previous event exceeds gap_s.  Returns (user_id, n_sessions,
    max_session_events).  Ordering contract: (ts, event_id) per key.

    Scale shape: ONE ``bucket_groups`` shuffle on the key (not one Python
    callback per user) — each bucket handles all its users in a single
    vectorized pass (lexsort + run-boundary cumsum + bincount/reduceat)."""

    def per_bucket(g: pa.Table) -> pa.Table:
        n = g.num_rows
        u = g[key_col].to_numpy(zero_copy_only=False).astype(np.int64)
        sec = _epoch_us(g[ts_col]) // 1_000_000
        eid = g[id_col].to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, sec, u))
        u, sec = u[order], sec[order]
        new_user = np.ones(n, dtype=bool)
        new_user[1:] = u[1:] != u[:-1]
        sess_start = new_user.copy()
        sess_start[1:] |= (sec[1:] - sec[:-1]) > gap_s
        sid = np.cumsum(sess_start) - 1
        sizes = np.bincount(sid)
        su = u[sess_start]  # user per session; sessions are contiguous per user
        ustart = np.flatnonzero(np.r_[True, su[1:] != su[:-1]])
        n_sessions = np.diff(np.r_[ustart, su.size])
        max_ev = np.maximum.reduceat(sizes, ustart)
        return pa.table(
            {
                key_col: pa.array(su[ustart]),
                "n_sessions": pa.array(n_sessions.astype(np.int64)),
                "max_session_events": pa.array(max_ev.astype(np.int64)),
            }
        )

    return bucket_groups(ds, key_col, per_bucket)


def _asof_backward_idx(lk: np.ndarray, lts: np.ndarray, rk: np.ndarray,
                       rts: np.ndarray, remit: list) -> np.ndarray:
    """Vectorized per-key backward as-of: for each left row, the index into
    the right arrays of the latest right row with the same key and
    rts <= lts (ties on rts -> max emit tuple), or -1.

    One np.lexsort over the concatenated rows (key, ts, side, emit) + one
    np.maximum.accumulate segment scan — no per-key loop, no pandas.  Right
    rows sort before left rows at equal (key, ts) (backward join is
    INCLUSIVE), and among tied rights the emit-ascending order makes the
    max-index pick the max emit (the SQL row_number() ORDER BY ts DESC,
    emit DESC mirror)."""
    nl, nr = len(lk), len(rk)
    if nl == 0 or nr == 0:
        return np.full(nl, -1, dtype=np.int64)
    key = np.concatenate([rk, lk])
    ts = np.concatenate([rts, lts])
    side = np.concatenate([np.zeros(nr, np.int8), np.ones(nl, np.int8)])
    emit_keys = []
    for e in reversed(remit):  # lexsort: later entries are more significant
        emit_keys.append(np.concatenate([e, np.zeros(nl, e.dtype)]))
    order = np.lexsort(tuple(emit_keys) + (side, ts, key))
    side_s = side[order]
    key_s = key[order]
    rpos = np.where(side_s == 0, np.arange(nl + nr), -1)
    acc = np.maximum.accumulate(rpos)
    lrows = np.flatnonzero(side_s == 1)
    cand = acc[lrows]
    ok = cand >= 0
    # accumulate can carry a right row across a key boundary — reject it
    ok[ok] = key_s[cand[ok]] == key_s[lrows[ok]]
    out = np.full(nl, -1, dtype=np.int64)
    left_orig = order[lrows] - nr
    out[left_orig[ok]] = order[cand[ok]]
    return out


class _AsofJoiner:
    """The broadcast right side of :func:`asof_join`, fetched once per
    worker process."""

    def __init__(self, ref, left_key: str, left_ts: str, emit: tuple):
        self.rk, self.rts, self.rank, self.rcols = fetch(ref)
        self.left_key, self.left_ts, self.emit = left_key, left_ts, emit

    def __call__(self, batch: pa.Table) -> pa.Table:
        lk = pc.cast(batch[self.left_key], pa.int64()).to_numpy(
            zero_copy_only=False)
        lts = pc.cast(pc.cast(batch[self.left_ts], pa.timestamp("us")),
                      pa.int64()).to_numpy(zero_copy_only=False)
        idx = _asof_backward_idx(lk, lts, self.rk, self.rts,
                                 [self.rank[c] for c in self.emit])
        ok = pa.array(idx >= 0)
        take = pa.array(np.maximum(idx, 0))
        out = batch
        for c in self.emit:
            vals = self.rcols[c].take(take)
            out = out.append_column(
                c, pc.if_else(ok, vals, pa.scalar(None, vals.type)))
        return out


def asof_join(
    events_ds,
    right: pa.Table,
    left_key: str = "user_id",
    right_key: str = "o_custkey",
    left_ts: str = "ts",
    right_ts: str = "o_orderdate",
    emit: tuple = ("o_orderkey",),
):
    """As-of join: latest right row with right_ts <= left ts per key.

    Physical plan: broadcast the (small) right table as Arrow; per batch the
    vectorized ``_asof_backward_idx`` segment scan matches every left row at
    once (zero-copy pyarrow batches end to end — no pandas conversion).
    Output: the left columns + ``emit`` columns (null where unmatched,
    ORIGINAL right dtype preserved — emitted values are taken from the right
    table by index; the tie-break "max emit" ordering uses order-preserving
    rank codes, so any orderable dtype works, with emit nulls ranked
    lowest).  Input row order preserved.  Keys/timestamps must be non-null.
    For a large right side use ``asof_join_partitioned`` (int64 emits only).
    """
    import ray

    TS = pa.timestamp("us")
    rk = pc.cast(right[right_key], pa.int64()).to_numpy(zero_copy_only=False)
    rts = pc.cast(pc.cast(right[right_ts], TS), pa.int64()).to_numpy(
        zero_copy_only=False)
    rank = {c: _rank_codes(right[c]) for c in emit}
    rcols = {c: (right[c].combine_chunks()
                 if isinstance(right[c], pa.ChunkedArray) else right[c])
             for c in emit}
    return map_cached(events_ds, _AsofJoiner, ray.put((rk, rts, rank, rcols)), left_key,
                      left_ts, emit, batch_format="pyarrow")


def _rank_codes(col) -> np.ndarray:
    """Order-preserving int64 codes for any orderable Arrow column (the
    numeric tie-break key _asof_backward_idx's lexsort needs); nulls -> -1
    (ranked lowest)."""
    import pandas as pd

    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    codes, _ = pd.factorize(arr.to_pandas(), sort=True)
    return codes.astype(np.int64)


def asof_join_partitioned(
    events_ds,
    right_ds,
    left_key: str = "user_id",
    right_key: str = "o_custkey",
    left_ts: str = "ts",
    right_ts: str = "o_orderdate",
    emit: tuple = ("o_orderkey",),
    id_col: str = "event_id",
):
    """Both-sides-large as-of join: the two sides co-group on the key in one
    ``bucket_groups`` shuffle, then each bucket runs the broadcast path's
    vectorized backward search over all of its keys at once — same
    backward-search + tie rules, but the right side is shuffled instead of
    broadcast (the 100 TB plan when the right table exceeds the object
    store).  Output: (id_col, *emit); left rows with no match get null emits.

    RESTRICTION: ``emit`` columns must be int64-castable (the shuffle
    carries them as int64) and emit nulls become 0; use the broadcast
    ``asof_join`` when arbitrary emit dtypes must be preserved."""
    # both timestamp columns are cast to timestamp[us] so the sides compare
    # even when they store different temporal types (e.g. timestamp events
    # vs date32 order dates — dates become midnight, which preserves the
    # backward-search semantics); the right key rides the left key's column
    TS = pa.timestamp("us")
    left = pa.schema([(left_key, pa.int64()), (id_col, pa.int64()), (left_ts, TS)])
    right = pa.schema([(left_key, pa.int64()), (right_ts, TS)]
                      + [(c, pa.int64()) for c in emit])

    def ints(t: pa.Table, c: str) -> np.ndarray:
        return pc.cast(pc.fill_null(t[c], 0), pa.int64()).to_numpy(
            zero_copy_only=False)

    def per_bucket(lt: pa.Table, rt: pa.Table) -> pa.Table:
        remit = [ints(rt, c) for c in emit]
        idx = _asof_backward_idx(ints(lt, left_key), ints(lt, left_ts),
                                 ints(rt, left_key), ints(rt, right_ts), remit)
        ok = idx >= 0
        cols = {id_col: lt[id_col]}
        for c, e in zip(emit, remit):
            vals = np.zeros(len(idx), np.int64)
            vals[ok] = e[idx[ok]]
            cols[c] = pa.array(vals, pa.int64(), mask=~ok)
        return pa.table(cols)

    right_ds = right_ds.select_columns([right_key, right_ts, *emit]) \
                       .rename_columns({right_key: left_key})
    return bucket_groups([(events_ds, left), (right_ds, right)], left_key,
                         per_bucket)


def lag_lead_gaps(ds, ts_col: str = "ts", key_col: str = "user_id",
                  id_col: str = "event_id"):
    """LAG/LEAD window over (key ORDER BY ts, id): per event, whole seconds
    to the previous and next event of the same key (-1 at the edges, exact
    integer arithmetic).  Output: (event_id, user_id, gap_prev_s, gap_next_s).

    Scale shape: the session-windows plan — ONE ``bucket_groups`` shuffle on
    the key, then each bucket computes every key's gaps in a single
    vectorized lexsort + diff pass (one Python call per bucket, not per
    key)."""

    def per_bucket(g: pa.Table) -> pa.Table:
        n = g.num_rows
        u = g[key_col].to_numpy(zero_copy_only=False).astype(np.int64)
        sec = _epoch_us(g[ts_col]) // 1_000_000
        eid = g[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((eid, sec, u))
        u, sec, eid = u[order], sec[order], eid[order]
        same_prev = np.zeros(n, dtype=bool)
        same_prev[1:] = u[1:] == u[:-1]
        gap_prev = np.full(n, -1, dtype=np.int64)
        gap_next = np.full(n, -1, dtype=np.int64)
        gap_prev[1:][same_prev[1:]] = (sec[1:] - sec[:-1])[same_prev[1:]]
        gap_next[:-1][same_prev[1:]] = (sec[1:] - sec[:-1])[same_prev[1:]]
        return pa.table(
            {id_col: pa.array(eid), key_col: pa.array(u),
             "gap_prev_s": pa.array(gap_prev), "gap_next_s": pa.array(gap_next)}
        )

    return bucket_groups(ds, key_col, per_bucket)


def running_totals(ds, value_col: str = "value", ts_col: str = "ts",
                   key_col: str = "user_id", id_col: str = "event_id"):
    """Cumulative SUM window per key ordered by (ts, id) — exact cents
    fixed-point so distributed results hash-match any serial evaluation.
    Output: (event_id, user_id, running_x100).

    Scale shape: one ``bucket_groups`` shuffle; each bucket computes every
    key's prefix sums in one vectorized lexsort + cumsum-with-key-reset pass.
    """

    def per_bucket(g: pa.Table) -> pa.Table:
        n = g.num_rows
        u = g[key_col].to_numpy(zero_copy_only=False).astype(np.int64)
        sec = _epoch_us(g[ts_col])
        eid = g[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        v = g[value_col].to_numpy(zero_copy_only=False)
        cents = np.floor(v * 100.0 + 0.5).astype(np.int64)
        order = np.lexsort((eid, sec, u))
        u, eid, cents = u[order], eid[order], cents[order]
        run = np.cumsum(cents)
        # reset at key boundaries: subtract the cumulative total before each key
        starts = np.flatnonzero(np.r_[True, u[1:] != u[:-1]])
        counts = np.diff(np.r_[starts, n])
        base_vals = np.r_[np.int64(0), run[starts[1:] - 1]]
        base = np.repeat(base_vals, counts)  # sign-safe (no monotonicity assumed)
        return pa.table(
            {id_col: pa.array(eid), key_col: pa.array(u),
             "running_x100": pa.array(run - base)}
        )

    return bucket_groups(ds, key_col, per_bucket)


def window_frames(ds, value_col: str = "value", ts_col: str = "ts",
                  key_col: str = "user_id", id_col: str = "event_id",
                  n_tiles: int = 4, preceding: int = 2):
    """Framed window functions per key ordered by (ts, id): NTILE(n),
    FIRST_VALUE / LAST_VALUE over the whole partition, and a ROWS BETWEEN
    ``preceding`` PRECEDING AND CURRENT ROW moving sum+count (the exact
    integer form of a moving average).  The OGR SQL dialect has no window
    functions; the reference exposes them via its SQLite dialect
    (ogr/ogrsf_frmts/sqlite/) — same surface, Ray-partitioned.

    NTILE follows the SQL definition: the first n_rows %% n groups get
    ceil(n_rows/n) rows, the rest floor(n_rows/n).

    Scale shape: ONE ``bucket_groups`` shuffle on the key; each bucket
    resolves every key in a single vectorized lexsort + repeat/cumsum pass.
    Output: (event_id, user_id, ntile, first_x100, last_x100, mov_sum_x100,
    mov_cnt) — all exact cents fixed-point.
    """

    def per_bucket(g: pa.Table) -> pa.Table:
        n = g.num_rows
        u = g[key_col].to_numpy(zero_copy_only=False).astype(np.int64)
        sec = _epoch_us(g[ts_col])
        eid = g[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        v = g[value_col].to_numpy(zero_copy_only=False)
        cents = np.floor(v * 100.0 + 0.5).astype(np.int64)
        order = np.lexsort((eid, sec, u))
        u, eid, cents = u[order], eid[order], cents[order]
        starts = np.flatnonzero(np.r_[True, u[1:] != u[:-1]])
        counts = np.diff(np.r_[starts, n])
        rank = np.arange(n) - np.repeat(starts, counts)  # 0-based within key
        size = np.repeat(counts, counts)
        # NTILE: first (size % k) buckets hold q+1 rows, the rest q
        q, rem = size // n_tiles, size % n_tiles
        big = rem * (q + 1)  # rows covered by the larger buckets
        in_big = rank < big
        with np.errstate(divide="ignore", invalid="ignore"):
            tile = np.where(
                in_big,
                rank // np.maximum(q + 1, 1),
                rem + np.where(q > 0, (rank - big) // np.maximum(q, 1), 0),
            ) + 1
        first = np.repeat(cents[starts], counts)
        last = np.repeat(cents[starts + counts - 1], counts)
        # moving sum over the last `preceding`+1 rows within the key
        run = np.cumsum(cents)
        base_vals = np.r_[np.int64(0), run[starts[1:] - 1]]
        prefix = run - np.repeat(base_vals, counts)  # inclusive in-key prefix
        back = np.minimum(rank, preceding)  # rows actually available
        lo_idx = np.arange(n) - back  # global index of window start
        # exclusive prefix before the window: prefix at (lo_idx - 1), which
        # stays inside the key whenever the window does not start at rank 0
        excl = np.where(rank - back > 0, prefix[lo_idx - 1], 0)
        mov = prefix - excl
        mov_cnt = back + 1
        return pa.table(
            {id_col: pa.array(eid), key_col: pa.array(u),
             "ntile": pa.array(tile.astype(np.int64)),
             "first_x100": pa.array(first), "last_x100": pa.array(last),
             "mov_sum_x100": pa.array(mov), "mov_cnt": pa.array(mov_cnt)}
        )

    return bucket_groups(ds, key_col, per_bucket)


def late_event_windows(ds, window_s: int = 3600, lateness_s: int = 1800,
                       ts_col: str = "ts", id_col: str = "event_id",
                       value_col: str = "value", bucket_size: int = 4096):
    """Tumbling windows with Flink-style WATERMARK late-event handling,
    batch-recomputed: processing order = ``id_col`` (monotone ingest id);
    the watermark at each event is max(ts of STRICTLY earlier events) -
    ``lateness_s``, and an event is LATE (dropped from the aggregate, but
    counted) when its ts falls below that watermark.

    Distributed shape: the running max-ts is a global prefix-MAX in id
    order — the two-pass ``global_prefix_sum`` plan with max instead of
    sum: (1) per-bucket ts maxima (one row per id-bucket per block) fold
    into a driver-side O(buckets) exclusive scan broadcast via ray.put;
    (2) each bucket's rows compute their exact in-bucket exclusive cummax
    vectorized and combine with the bucket offset.  Window aggregates are
    then ordinary pre-aggregated partials.

    Output: (window_id, n_on_time, n_late, value_cents_sum) with
    value_cents_sum over ON-TIME events only — all int64-exact.
    """
    import ray

    from ray.data.aggregate import Max, Sum

    NEG = np.int64(-(1 << 62))

    def partial_max(t: pa.Table) -> pa.Table:
        k = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        us = _epoch_us(t[ts_col])
        b = k // bucket_size
        g = pa.table({"b": pa.array(b), "m": pa.array(us)}).group_by("b").aggregate(
            [("m", "max")])
        return pa.table({"b": g["b"], "m": g["m_max"]})

    totals = ds.map_batches(partial_max, batch_format="pyarrow") \
               .groupby("b").aggregate(Max("m", alias_name="m")).take_all()
    totals.sort(key=lambda r: r["b"])
    offs = {}
    acc = int(NEG)
    for r in totals:
        offs[r["b"]] = acc            # exclusive: max over EARLIER buckets
        acc = max(acc, int(r["m"]))
    ref = ray.put(offs)

    def tag(t: pa.Table) -> pa.Table:
        k = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return t.append_column("_bucket", pa.array(k // bucket_size))

    def scan(g: pa.Table) -> pa.Table:
        offs_ = ray.get(ref)
        k = g[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        us = _epoch_us(g[ts_col])
        order = np.argsort(k, kind="stable")
        us_s = us[order]
        # exclusive in-bucket running max
        run = np.maximum.accumulate(us_s)
        excl = np.concatenate(([NEG], run[:-1]))
        base = offs_.get(int(k[0]) // bucket_size, int(NEG))
        wm = np.maximum(excl, base) - np.int64(lateness_s) * 1_000_000
        late_s = us_s < wm
        late = np.empty(len(k), dtype=bool)
        late[order] = late_s
        wid = (us // 1_000_000) // window_s
        # half-away-from-zero to match SQL round() (relational.py policy)
        cents = pc.cast(
            pc.round(pc.multiply(g[value_col], pa.scalar(100.0)),
                     round_mode="half_towards_infinity"),
            pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table({
            "window_id": pa.array(wid),
            "on_time": pa.array((~late).astype(np.int64)),
            "late": pa.array(late.astype(np.int64)),
            "cents": pa.array(np.where(late, 0, cents)),
        })

    scanned = ds.map_batches(tag, batch_format="pyarrow") \
                .groupby("_bucket").map_groups(scan, batch_format="pyarrow")
    return partial_aggregate(
        scanned, ["window_id"], sums=["on_time", "late", "cents"],
    ).map_batches(
        lambda t: pa.table({
            "window_id": t["window_id"],
            "n_on_time": t["on_time_sum"],
            "n_late": t["late_sum"],
            "value_cents_sum": t["cents_sum"],
        }),
        batch_format="pyarrow",
    )
