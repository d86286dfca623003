"""The one Ray session set-up of the entry points (gdal_ray.state.session)."""

import logging
from collections import OrderedDict

import numpy as np
import ray
import ray.data as rd

from gdal_ray.sources import synthetic
from gdal_ray.stages import join, knn, relational
from gdal_ray.state import session


def _record(msg):
    return logging.LogRecord("ray.data", logging.WARNING, __file__, 1, msg,
                             None, None)


def test_init_ray_joins_a_running_session(ray_session):
    ctx = rd.DataContext.get_current()
    ctx.enable_progress_bars = True
    cpus = ray.cluster_resources()["CPU"]
    session.init_ray(num_cpus=1)
    assert ray.cluster_resources()["CPU"] == cpus  # no second session
    assert ctx.enable_progress_bars is False
    log = logging.getLogger("ray.data._internal.execution.streaming_executor_state")
    assert log.filters.count(session._known_ray_noise) == 1
    session.init_ray(num_cpus=1)
    assert log.filters.count(session._known_ray_noise) == 1


def test_known_ray_noise_drops_only_the_two_warnings():
    assert not session._known_ray_noise(_record(
        "Operator produced a RefBundle with a different schema than before"))
    assert not session._known_ray_noise(_record(
        "Failed to hash the schemas (for deduplication)"))
    assert session._known_ray_noise(_record("Operator Sort failed"))


def test_init_ray_silences_ray_data_info(ray_session):
    """Ray Data's per-Dataset INFO lines ("Starting execution of Dataset",
    "Execution plan of Dataset", ...) stay out of the log."""
    log = logging.getLogger("ray.data")
    log.setLevel(logging.INFO)
    seen = []

    class Collect(logging.Handler):
        def emit(self, record):
            if record.levelno < logging.WARNING:
                seen.append(record.getMessage())

    handler = Collect(level=logging.DEBUG)
    log.addHandler(handler)
    try:
        session.init_ray(None)
        rd.range(4).materialize()
    finally:
        log.removeHandler(handler)
    assert log.level == logging.WARNING
    assert seen == []


def test_broadcasts_over_one_table_ship_one_ref(monkeypatch):
    """Broadcast stages over the same table pass ``map_cached`` the same
    object ref, so the workers' cached operator serves the second query: two
    spatial joins, and a k-NN join and a broadcast hash join after them;
    another table gets its own ref, and the driver keeps the
    ``CACHED_OPERATORS`` most recent."""
    monkeypatch.setattr(session, "_broadcast_refs", OrderedDict())
    seen = []
    for stage in (join, knn, relational):
        monkeypatch.setattr(stage, "map_cached",
                            lambda ds, build, ref, *a, **k: seen.append(ref))
    zones = synthetic.make_rect_zones(np.arange(1, 20))
    other = synthetic.make_rect_zones(np.arange(1, 20))
    join.broadcast_spatial_join(None, zones)
    join.broadcast_spatial_join(None, zones, predicate="within")
    join.broadcast_spatial_join(None, other)
    assert seen[0] is seen[1] and seen[2] is not seen[0]
    assert ray.get(seen[0]).equals(zones)
    knn.knn_join(None, other, k=2)
    relational.hash_join_broadcast(None, zones, "zone_id", "zone_id", [])
    assert seen[3] is seen[2] and seen[4] is seen[0]
    for k in range(session.CACHED_OPERATORS + 1):
        join.broadcast_spatial_join(None, synthetic.make_rect_zones(np.arange(1, 3 + k)))
    assert len(session._broadcast_refs) == session.CACHED_OPERATORS
