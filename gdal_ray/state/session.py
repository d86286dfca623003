"""One Ray session set-up for the command-line entry points.

``bench.py``, ``scripts/run_job.py`` and ``scripts/check_correctness.py``
start (or join) their session through ``init_ray``: a local node with no
dashboard and Ray logging at ERROR, Ray Data progress bars off, Ray Data
logging at WARNING (no per-Dataset "Starting execution" / "Execution plan"
INFO lines), and two known-cosmetic Ray Data driver warnings kept out of
the log.  ``fetch`` resolves a stage argument that may be an ``ObjectRef``
without importing Ray, ``map_cached`` runs a stage whose operator is
built once per worker process as a plain task-based ``map_batches``, and
``broadcast_ref`` ships a table a stage broadcasts once per Ray session.
"""
from __future__ import annotations

import logging
import pickle
import sys
from collections import OrderedDict


def fetch(ref):
    """``ray.get(ref)`` when ``ref`` is an ``ObjectRef``, else ``ref``.
    Only a process that has imported Ray can hold an ``ObjectRef``, so
    without ``ray`` in ``sys.modules`` the argument is returned as is and
    Ray stays unimported."""
    ray = sys.modules.get("ray")
    if ray is not None and isinstance(ref, ray.ObjectRef):
        return ray.get(ref)
    return ref


# Operators one worker process keeps: a long-lived worker holds the index of
# the current query and the one before, not every zone table it has seen.
CACHED_OPERATORS = 2
_operators: OrderedDict = OrderedDict()


def _frozen(value):
    """A stand-in for a builder argument that hashes by value: lists,
    tuples and dicts become tuples, and a value that is unhashable or hashed
    by identity (a numpy array, a plain object) its pickle, since every
    task unpickles a new copy of it."""
    if isinstance(value, (list, tuple)):
        return tuple(_frozen(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((k, _frozen(v)) for k, v in value.items()))
    if type(value).__hash__ in (None, object.__hash__):
        return type(value).__qualname__, pickle.dumps(value)
    return value


def _key(build, args: tuple) -> tuple:
    """The cache key of ``build(*args)``.  Classes and functions are named
    by ``__module__`` and ``__qualname__``, not by object: cloudpickle ships
    a class defined inside a function by value, and every call of that
    function makes a new class object, which a worker unpickles as a new
    class."""
    return build.__module__, build.__qualname__, _frozen(args)


def _operator(key: tuple, build, args: tuple):
    op = _operators.get(key)
    if op is None:
        # evict first, so a worker never holds more than the table's size
        # while it builds a new index
        while len(_operators) >= CACHED_OPERATORS:
            _operators.popitem(last=False)
        op = _operators[key] = build(*args)
    else:
        _operators.move_to_end(key)
    return op


def cached_operator(build, *args):
    """``build(*args)``, built once in this process and kept in a table of
    the ``CACHED_OPERATORS`` most recently used operators."""
    return _operator(_key(build, args), build, args)


def map_cached(ds, build, *args, **map_batches_kwargs):
    """``ds.map_batches`` as plain tasks, each batch run through the
    operator ``build(*args)`` (a broadcast ``ObjectRef`` among the args).
    Each worker process builds the operator on the first batch it sees and
    reuses it for later batches and later Dataset executions: Ray reuses
    task workers across executions, where an actor pool starts its
    processes anew for each one.  The operator's ``__call__`` must keep no
    state between batches."""
    key = _key(build, args)

    def run(batch):
        return _operator(key, build, args)(batch)

    run.__name__ = build.__name__
    return ds.map_batches(run, **map_batches_kwargs)


# driver side: the broadcast ref of each recent table, so that a query over
# a table already broadcast in this Ray session ships the same ref and the
# workers' cached operator (keyed by the ref) serves it without a rebuild
_broadcast_refs: OrderedDict = OrderedDict()


def broadcast_ref(table):
    """The object ref of ``table``: one ``ray.put`` per table object and
    driver connection, the ``CACHED_OPERATORS`` most recent kept (each entry
    holds its table, so the object, and its ``id``, stay alive).  Only for
    objects nothing mutates, such as a ``pa.Table``."""
    import ray

    key = (id(table), ray.get_runtime_context().get_worker_id())
    hit = _broadcast_refs.get(key)
    if hit is None or hit[0] is not table:
        hit = _broadcast_refs[key] = (table, ray.put(table))
        while len(_broadcast_refs) > CACHED_OPERATORS:
            _broadcast_refs.popitem(last=False)
    _broadcast_refs.move_to_end(key)
    return hit[1]


def _known_ray_noise(record: logging.LogRecord) -> bool:
    """Log filter dropping two Ray Data driver warnings that originate
    inside Ray, not in gdal_ray stage code: (1) the sort-based groupby emits
    zero-row bundles with EMPTY schemas whenever a sort partition has no
    groups (blocks > distinct keys), which trips the RefBundle
    schema-mismatch warning (the bundles carry 0 rows; every gdal_ray empty
    batch is schema'd); (2) Ray Data's schema unification failing to hash
    a set of schemas for deduplication, which it survives."""
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
