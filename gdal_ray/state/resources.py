"""Cluster-derived stage sizing.

GDAL sizes its worker thread pool from ``GDAL_NUM_THREADS`` /
``CPLGetNumCPUs()`` (reference: port/cpl_worker_thread_pool.cpp,
gcore/gdalrasterblock.cpp cache sizing).  The Ray analogue is the live
cluster CPU count: an actor-pool stage with a fixed ``concurrency=2``
is a hard ceiling on a 256-node cluster, so every stage that builds an
actor pool defaults its pool size from here instead.

The default is half the cluster CPUs (leaving headroom for the reading
and shuffling stages that share the cluster under Ray Data's streaming
executor), clamped to [2, 64] per stage and never above the cluster's CPU
count, so a 1-CPU host gets a pool it can place.  Callers can always pass
an explicit ``concurrency=``.
"""
from __future__ import annotations


def default_concurrency(fraction: float = 0.5, lo: int = 2,
                        hi: int = 64) -> int:
    """Actor-pool size derived from ``ray.cluster_resources()``.

    Safe to call before ``ray.init`` (returns ``lo``): Ray Data stages
    are built lazily, but stage *construction* may happen driver-side
    before the session exists in library-embedding scenarios.
    """
    try:
        import ray

        if not ray.is_initialized():
            return lo
        cpus = int(ray.cluster_resources().get("CPU", 0))
    except Exception:
        return lo
    if cpus <= 0:
        return lo
    return min(cpus, max(lo, min(hi, int(cpus * fraction))))
