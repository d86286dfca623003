"""The one Ray session set-up of the entry points (gdal_ray.state.session)."""

import logging

import ray
import ray.data as rd

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
