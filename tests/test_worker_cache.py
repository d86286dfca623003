"""The worker-cached operator behind every broadcast stage
(``state.session.map_cached``): each worker process builds a stage's
operator once per key and keeps the two most recently used."""

import os
from collections import OrderedDict

import cloudpickle
import numpy as np
import pytest
import ray
import ray.data as rd

from gdal_ray.sources import synthetic
from gdal_ray.stages import join as join_stage
from gdal_ray.state import session


@pytest.fixture
def fresh_cache(monkeypatch):
    monkeypatch.setattr(session, "_operators", OrderedDict())


def test_builder_runs_once_per_key(fresh_cache):
    calls = []

    def build(*args):
        calls.append(args)
        return object()

    first = session.cached_operator(build, "zones", [1, 2], np.arange(3))
    # equal lists and arrays are the same key, though not the same objects
    assert session.cached_operator(build, "zones", [1, 2], np.arange(3)) is first
    assert session.cached_operator(build, "zones", [1, 3], np.arange(3)) is not first
    assert session.cached_operator(build, "zones", [1, 2], np.arange(4)) is not first
    assert len(calls) == 3


def test_a_class_shipped_by_value_hits_the_same_entry(fresh_cache):
    def stage_class():
        class Op:
            builds = 0

            def __init__(self, ref):
                type(self).builds += 1
                self.ref = ref

        return Op

    op_class = stage_class()
    op = session.cached_operator(op_class, "ref")
    # a stage that defines its class inside a function makes a new class
    # object on every call, and cloudpickle ships it by value: the worker
    # unpickles a class object it has not seen, with the same name
    shipped = cloudpickle.loads(cloudpickle.dumps(stage_class()))
    assert shipped is not op_class and shipped.__qualname__ == op_class.__qualname__
    assert session.cached_operator(shipped, "ref") is op
    assert op_class.builds == 1 and shipped.builds == 0


def test_table_keeps_the_two_most_recently_used(fresh_cache):
    def build(key):
        return [key]

    a = session.cached_operator(build, "a")
    session.cached_operator(build, "b")
    assert session.cached_operator(build, "a") is a  # "a" is now the newest
    session.cached_operator(build, "c")  # evicts "b", the least recently used
    assert len(session._operators) == session.CACHED_OPERATORS == 2
    assert session.cached_operator(build, "a") is a
    assert [k[2] for k in session._operators] == [("c",), ("a",)]


def test_no_worker_builds_a_join_twice_across_executions(tmp_path):
    """One broadcast join, executed twice: every worker process that ran it
    built its zone index at most once, the second execution included."""
    log = str(tmp_path / "builds")

    class LoggedJoin(join_stage.BroadcastPointJoin):
        def __init__(self, log_path, zones_ref):
            with open(log_path, "a") as f:
                f.write(f"{os.getpid()}\n")
            super().__init__(zones_ref)

    docs = synthetic.docs_with_geometry(synthetic.make_docs(1000))
    zones = synthetic.make_rect_zones(np.arange(1, 120))
    ds = session.map_cached(rd.from_arrow(docs).repartition(8), LoggedJoin, log,
                            ray.put(zones), batch_format="pyarrow", batch_size=50)
    first = sorted((r["doc_id"], r["zone_id"]) for r in ds.take_all())
    second = sorted((r["doc_id"], r["zone_id"]) for r in ds.take_all())
    assert first == second and len(first) > 50
    with open(log) as f:
        pids = f.read().split()
    assert pids and len(pids) == len(set(pids)), pids
