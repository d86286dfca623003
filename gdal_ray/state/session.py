"""One Ray session set-up for the command-line entry points.

``bench.py``, ``scripts/run_job.py`` and ``scripts/check_correctness.py``
start (or join) their session through ``init_ray``: a local node with no
dashboard and Ray logging at ERROR, Ray Data progress bars off, Ray Data
logging at WARNING (no per-Dataset "Starting execution" / "Execution plan"
INFO lines), and two known-cosmetic Ray Data driver warnings kept out of
the log.  ``fetch`` resolves a stage argument that may be an ``ObjectRef``
without importing Ray.
"""
from __future__ import annotations

import logging
import sys


def fetch(ref):
    """``ray.get(ref)`` when ``ref`` is an ``ObjectRef``, else ``ref``.
    Only a process that has imported Ray can hold an ``ObjectRef``, so
    without ``ray`` in ``sys.modules`` the argument is returned as is and
    Ray stays unimported."""
    ray = sys.modules.get("ray")
    if ray is not None and isinstance(ref, ray.ObjectRef):
        return ray.get(ref)
    return ref


def _known_ray_noise(record: logging.LogRecord) -> bool:
    """Log filter dropping two Ray Data driver warnings that originate
    inside Ray, not in gdal_ray stage code: (1) the sort-based groupby emits
    zero-row bundles with EMPTY schemas whenever a sort partition has no
    groups (blocks > distinct keys), which trips the RefBundle
    schema-mismatch warning (the bundles carry 0 rows; every gdal_ray empty
    batch is schema'd); (2) actor-pool stages with dict constructor kwargs
    defeat the schema-dedup hash."""
    m = record.getMessage()
    return not ("RefBundle with a different schema" in m
                or "Failed to hash the schemas" in m)


def init_ray(num_cpus: int | None = None, object_store_memory: int | None = None) -> None:
    """Start a local Ray session with ``num_cpus`` CPUs unless one is
    already running, then set up Ray Data's progress bars and log filter.
    With ``num_cpus`` None no session is started here: Ray Data starts or
    joins one (``RAY_ADDRESS``, as under ``ray job submit``) on first use.
    ``logging_level`` in ``ray.init`` sets Ray core's level only; Ray Data
    logs through its own ``ray.data`` logger, set to WARNING here."""
    import ray
    import ray.data as rd

    if num_cpus is not None and not ray.is_initialized():
        ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
                 logging_level="ERROR", object_store_memory=object_store_memory)
    rd.DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.WARNING)
    for name in ("ray.data", "ray.data._internal.execution.streaming_executor_state"):
        logging.getLogger(name).addFilter(_known_ray_noise)
