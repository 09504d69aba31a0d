"""Tests for the redesigned client API.

``cluster.read(...)`` is the one read entry point (``as_pairs=True``
merges aggregation outputs); ``Computation.execute(cluster)`` is the
fluent execution entry; and the loader context manager discards its open
block when the body raises.  The deprecated ``scan`` /
``read_aggregate_set`` shims have been removed.
"""

import pytest

from repro.cluster import PCCluster
from repro.core import AggregateComp, ObjectReader, Writer, lambda_from_member
from repro.memory import Float64, Int32, Int64, PCObject


class Point(PCObject):
    fields = [("pid", Int32), ("cluster_id", Int32), ("x", Float64)]


class SumX(AggregateComp):
    key_type = Int64
    value_type = Float64

    def get_key_projection(self, arg):
        return lambda_from_member(arg, "cluster_id")

    def get_value_projection(self, arg):
        return lambda_from_member(arg, "x")


@pytest.fixture
def cluster(tmp_path):
    cluster = PCCluster(n_workers=2, page_size=1 << 12,
                        spill_root=str(tmp_path))
    cluster.create_database("db")
    cluster.create_set("db", "points", Point)
    with cluster.loader("db", "points") as load:
        for i in range(40):
            load.append(Point, pid=i, cluster_id=i % 4, x=float(i))
    return cluster


def _expected():
    sums = {}
    for i in range(40):
        sums[i % 4] = sums.get(i % 4, 0.0) + float(i)
    return sums


def _run_aggregation(cluster):
    agg = SumX().set_input(ObjectReader("db", "points"))
    log = Writer("db", "sums").set_input(agg).execute(cluster)
    return agg, log


def test_fluent_execute_returns_the_job_log(cluster):
    _agg, log = _run_aggregation(cluster)
    assert log is cluster.last_job_log
    assert [stage.kind for stage in log]


def test_read_objects_and_pairs(cluster):
    agg, _log = _run_aggregation(cluster)
    pids = sorted(h.pid for h in cluster.read("db", "points"))
    assert pids == list(range(40))
    assert cluster.read("db", "sums", as_pairs=True, comp=agg) == _expected()


def test_removed_shims_are_gone(cluster):
    assert not hasattr(cluster, "scan")
    assert not hasattr(cluster, "read_aggregate_set")


def test_new_read_api_does_not_warn(cluster):
    import warnings

    agg, _log = _run_aggregation(cluster)
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        cluster.read("db", "points")
        cluster.read("db", "sums", as_pairs=True, comp=agg)


def test_loader_discards_open_block_when_body_raises(cluster):
    before = cluster.storage_manager.total_objects("db", "points")
    shipped_before = cluster.metrics().value("pc_net_messages_total")
    with pytest.raises(RuntimeError, match="interrupted"):
        with cluster.loader("db", "points") as load:
            load.append(Point, pid=999, cluster_id=0, x=1.0)
            raise RuntimeError("client interrupted mid-load")
    # The half-built page was dropped, not shipped.
    assert load.objects_discarded == 1
    assert load.pages_shipped == 0
    assert cluster.metrics().value("pc_net_messages_total") == shipped_before
    assert cluster.storage_manager.total_objects("db", "points") == before
    assert all(h.pid != 999 for h in cluster.read("db", "points"))
