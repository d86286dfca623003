"""Actor-pool sizing from the live cluster (gdal_ray.state.resources)."""

import ray

from gdal_ray.state import resources


def test_session_pool_is_half_the_cpus(ray_session):
    assert resources.default_concurrency() == 2  # the 4-CPU test session


def test_pool_never_exceeds_cluster_cpus(ray_session, monkeypatch):
    monkeypatch.setattr(ray, "cluster_resources", lambda: {"CPU": 1})
    assert resources.default_concurrency() == 1
    monkeypatch.setattr(ray, "cluster_resources", lambda: {"CPU": 3})
    assert resources.default_concurrency() == 2
    monkeypatch.setattr(ray, "cluster_resources", lambda: {"CPU": 512})
    assert resources.default_concurrency() == 64
