"""Geographic network analysis (GNM) — shortest paths + components on Ray.

Re-answers the reference's GNM surface (``gnm/gnmgraph.cpp``:
``DijkstraShortestPath``, ``KShortestPaths`` (Yen), ``ConnectedComponents``;
algorithm enum ``gnm/gnm.h:59-63``) over edge-list Datasets.

Ray-Data shape: the graph TOPOLOGY (edge list: two int64 node ids + a
float64 cost) is the bounded side of every plan here — a continental road
network is ~10⁸ edges ≈ a few GB, far below the object store, even when
the FEATURE payload attached to nodes/edges is 100 TB.  So single-source
distances are computed ONCE per worker from a broadcast CSR adjacency
(``ray.put`` the arrays, build in ``__init__``), and the per-row work —
annotating millions of target features with their network distance — is a
vectorized O(1) lookup inside ``map_batches``.  Connected components reuse
``polygonize._components_distributed`` (bucket-keyed min-label propagation
with pointer doubling), which never collects the edge list to the driver.

The SSSP kernel is a fully vectorized frontier relaxation (asynchronous
Bellman-Ford): each sweep relaxes every out-edge of the improved frontier
with ``np.minimum.at`` — no per-node Python in the loop body.  For
non-negative costs it converges to the Dijkstra distances; sweeps needed =
shortest-path-tree depth in hops.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..state.session import fetch, map_cached


def build_csr(edges: pa.Table, src_col: str = "src", dst_col: str = "dst",
              cost_col: str | None = "cost", directed: bool = False):
    """Edge table -> (node_ids sorted unique, indptr, indices, costs).

    Node ids are arbitrary int64 (GNM GFIDs); the CSR uses compact
    0..n-1 slots.  ``directed=False`` mirrors every edge (the GNM
    bidirectional default; per-direction costs come in as two directed
    rows, gnmgraph.h SetEdge direct/inverse cost)."""
    s = edges[src_col].to_numpy(zero_copy_only=False).astype(np.int64)
    d = edges[dst_col].to_numpy(zero_copy_only=False).astype(np.int64)
    if cost_col is not None and cost_col in edges.column_names:
        c = edges[cost_col].to_numpy(zero_copy_only=False).astype(np.float64)
    else:
        c = np.ones(len(s), dtype=np.float64)
    if np.any(c < 0):
        raise ValueError("negative edge costs are not supported (Dijkstra "
                         "semantics, gnmgraph.cpp)")
    if not directed:
        s, d, c = (np.concatenate([s, d]), np.concatenate([d, s]),
                   np.concatenate([c, c]))
    nodes = np.unique(np.concatenate([s, d]))
    cs = np.searchsorted(nodes, s)
    cd = np.searchsorted(nodes, d)
    order = np.argsort(cs, kind="stable")
    cs, cd, c = cs[order], cd[order], c[order]
    indptr = np.zeros(len(nodes) + 1, dtype=np.int64)
    np.add.at(indptr, cs + 1, 1)
    np.cumsum(indptr, out=indptr)
    return nodes, indptr, cd, c


def _ragged(starts: np.ndarray, ends: np.ndarray):
    """Concatenated [starts[i], ends[i]) ranges + repeat-owner indices."""
    counts = ends - starts
    total = int(counts.sum())
    owners = np.repeat(np.arange(len(starts)), counts)
    flat = (np.arange(total)
            - np.repeat(np.cumsum(counts) - counts, counts)
            + np.repeat(starts, counts))
    return flat, owners


def sssp(indptr: np.ndarray, indices: np.ndarray, costs: np.ndarray,
         source_slot: int):
    """Single-source shortest distances + predecessors over a CSR graph.

    Vectorized frontier relaxation: per sweep, gather every out-edge of
    the nodes improved last sweep, fold the best (distance, predecessor)
    candidate per head with one lexsort, and keep the heads that improved.
    Converges to exact Dijkstra distances for costs >= 0
    (gnmgraph.cpp DijkstraShortestPathTree semantics)."""
    n = len(indptr) - 1
    dist = np.full(n, np.inf)
    pred = np.full(n, -1, dtype=np.int64)
    dist[source_slot] = 0.0
    frontier = np.array([source_slot], dtype=np.int64)
    while len(frontier):
        eidx, owners = _ragged(indptr[frontier], indptr[frontier + 1])
        if len(eidx) == 0:
            break
        heads = indices[eidx]
        cand = dist[frontier][owners] + costs[eidx]
        tails = frontier[owners]
        # best candidate per head
        order = np.lexsort((cand, heads))
        heads, cand, tails = heads[order], cand[order], tails[order]
        first = np.ones(len(heads), dtype=bool)
        first[1:] = heads[1:] != heads[:-1]
        heads, cand, tails = heads[first], cand[first], tails[first]
        improved = cand < dist[heads]
        heads, cand, tails = heads[improved], cand[improved], tails[improved]
        dist[heads] = cand
        pred[heads] = tails
        frontier = heads
    return dist, pred


def extract_path(pred: np.ndarray, source_slot: int, target_slot: int):
    """Predecessor chain -> slot path [source..target]; [] if unreachable."""
    if pred[target_slot] < 0 and target_slot != source_slot:
        return []
    path = [target_slot]
    while path[-1] != source_slot:
        path.append(int(pred[path[-1]]))
    return path[::-1]


class NetworkDistanceStage:
    """Annotate feature batches with the network distance from a fixed
    source (GNMGenericNetwork::GetPath consumers at bulk scale).  The CSR
    arrays ship once via ``ray.put``; SSSP runs once per worker process in
    ``__init__``; each batch is a vectorized searchsorted lookup."""

    def __init__(self, csr_ref, source: int, node_col: str = "node"):
        nodes, indptr, indices, costs = fetch(csr_ref)
        self.nodes = nodes
        self.node_col = node_col
        slot = np.searchsorted(nodes, source)
        if slot >= len(nodes) or nodes[slot] != source:
            raise KeyError(f"source node {source} not in graph")
        self.dist, _pred = sssp(indptr, indices, costs, int(slot))

    def __call__(self, batch: pa.Table) -> pa.Table:
        k = batch[self.node_col].to_numpy(zero_copy_only=False).astype(np.int64)
        slot = np.searchsorted(self.nodes, k)
        slot = np.clip(slot, 0, len(self.nodes) - 1)
        hit = self.nodes[slot] == k
        d = np.where(hit, self.dist[slot], np.inf)
        valid = np.isfinite(d)
        out = pa.array(np.where(valid, d, 0.0), pa.float64(),
                       mask=~valid)  # unreachable -> null, per contract
        return batch.append_column("net_dist", out)


def shortest_path_distances(targets_ds, edges: pa.Table, source: int,
                            node_col: str = "node", directed: bool = False):
    """Distance-from-source for every row of a target Dataset (the bulk
    form of GATDijkstraShortestPath): broadcast CSR, one SSSP per worker
    process, vectorized per-batch lookups.  Unreachable nodes -> null."""
    import ray

    return map_cached(targets_ds, NetworkDistanceStage,
                      ray.put(build_csr(edges, directed=directed)), source, node_col,
                      batch_format="pyarrow")


def dijkstra_path(edges: pa.Table, source: int, target: int,
                  directed: bool = False):
    """One GNMGraph::DijkstraShortestPath call: (node id path, total cost).
    Driver-side convenience over the same kernel."""
    nodes, indptr, indices, costs = build_csr(edges, directed=directed)
    s = int(np.searchsorted(nodes, source))
    t = int(np.searchsorted(nodes, target))
    if s >= len(nodes) or nodes[s] != source:
        raise KeyError(f"source {source} not in graph")
    if t >= len(nodes) or nodes[t] != target:
        raise KeyError(f"target {target} not in graph")
    dist, pred = sssp(indptr, indices, costs, s)
    path = extract_path(pred, s, t)
    return [int(nodes[p]) for p in path], float(dist[t])


def k_shortest_paths(edges: pa.Table, source: int, target: int, k: int,
                     directed: bool = False):
    """Yen's K loopless shortest paths (GNMGraph::KShortestPaths,
    gnmgraph.cpp — same algorithm family).  Sequential by nature (each
    spur candidate re-runs SSSP on a masked graph); meant for the
    interactive route-alternatives case on the broadcast topology, not for
    bulk fan-out.  Returns [(path node ids, cost)] best-first, ties broken
    by path node sequence."""
    nodes, indptr, indices, costs = build_csr(edges, directed=directed)
    s = int(np.searchsorted(nodes, source))
    t = int(np.searchsorted(nodes, target))
    dist, pred = sssp(indptr, indices, costs, s)
    first = extract_path(pred, s, t)
    if not first:
        return []
    A = [(first, float(dist[t]))]
    B: list[tuple[float, list]] = []
    for _ki in range(1, k):
        prev_path = A[-1][0]
        for i in range(len(prev_path) - 1):
            spur = prev_path[i]
            root = prev_path[: i + 1]
            # mask edges used by accepted paths sharing this root, and the
            # root's interior nodes
            mask = np.ones(len(indices), dtype=bool)
            for p, _c in A:
                if len(p) > i and p[: i + 1] == root:
                    u, v = p[i], p[i + 1]
                    e0, e1 = indptr[u], indptr[u + 1]
                    mask[e0 + np.nonzero(indices[e0:e1] == v)[0]] = False
            banned = set(root[:-1])
            for bn in banned:
                mask[indptr[bn]:indptr[bn + 1]] = False
            # also remove edges INTO banned nodes
            if banned:
                mask &= ~np.isin(indices, np.fromiter(banned, np.int64))
            mcosts = np.where(mask, costs, np.inf)
            d2, p2 = sssp(indptr, indices, mcosts, spur)
            if np.isfinite(d2[t]):
                tail = extract_path(p2, spur, t)
                root_cost = 0.0
                for a, b in zip(root[:-1], root[1:]):
                    e0, e1 = indptr[a], indptr[a + 1]
                    root_cost += float(
                        costs[e0:e1][indices[e0:e1] == b].min())
                cand = (root[:-1] + tail, root_cost + float(d2[t]))
                key = (cand[1], cand[0])
                if all(p != cand[0] for _k, p in B) and all(
                        p != cand[0] for p, _c in A):
                    B.append((key, cand[0]))
        # pop the cheapest candidate whose path is not already accepted
        path = None
        while B:
            B.sort(key=lambda x: x[0])
            (cost, _seq), cand_path = B.pop(0)
            if all(p != cand_path for p, _c in A):
                path = cand_path
                break
        if path is None:
            break
        A.append((path, cost))
    return [([int(nodes[p]) for p in path], c) for path, c in A]


def connected_components_net(edges_ds):
    """GATConnectedComponents over an edge Dataset: (node, label) with
    label = min reachable node id.  Routes to the engine's distributed
    min-label propagation (pointer doubling, O(log diameter) rounds) —
    the edge list never collects to the driver."""
    from .polygonize import _components_distributed

    def as_pairs(t: pa.Table) -> pa.Table:
        return pa.table({
            "a": pa.compute.cast(t["src"], pa.int64()),
            "b": pa.compute.cast(t["dst"], pa.int64()),
        })

    pairs = edges_ds.map_batches(as_pairs, batch_format="pyarrow")
    return _components_distributed(pairs)
